//! Everything the benchmark feeds the program, derived from one seed: the
//! probe flows, the order they are sent in, the decoy rules and the order
//! the control loop rewrites them in.

use crate::rng::Rng;
use openflow::{Action, FlowMatch, PortNo};
use packet_wire::{MacAddr, PacketBuilder};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Frame length of every probe (the paper's 64 B workload).
pub const FRAME_LEN: usize = 64;
/// Ethernet + IPv4 + UDP headers: the bytes before the probe header.
pub const HEADERS_LEN: usize = 42;
/// End of the probe header (seq + stamp) inside the frame.
pub const PROBE_END: usize = HEADERS_LEN + packet_wire::PROBE_WIRE_LEN;
/// The veto rule's UDP destination port; no probe flow uses it.
pub const VETO_L4_DST: u16 = 4242;
/// The in_port every decoy matches on: no port of the switch has it.
pub const DECOY_IN_PORT: u16 = 4000;
/// The two outputs decoys alternate between (also absent from the switch).
pub const DECOY_OUTS: [u16; 2] = [4001, 4002];
/// Decoy priority: above the chain's steering rules (100), so the
/// classifier probes the decoy subtable first on every lookup.
pub const DECOY_PRIORITY: u16 = 150;
/// Decoy destinations are `DECOY_NET | <16 random bits>` (192.168.0.0/16).
pub const DECOY_NET: u32 = 0xc0a8_0000;
/// Cookie of decoy `i` is `DECOY_COOKIE_BASE + i`.
pub const DECOY_COOKIE_BASE: u64 = 0xdec0_0000;

/// The probe flows and their send order.
pub struct Flows {
    templates: Vec<[u8; FRAME_LEN]>,
    order: Vec<u32>,
}

impl Flows {
    /// `n` distinct UDP flows; the send order is a seeded permutation that
    /// visits every flow once per cycle.
    pub fn new(rng: &mut Rng, n: usize) -> Flows {
        let mut seen = HashSet::new();
        let mut templates = Vec::with_capacity(n);
        while templates.len() < n {
            let src = Ipv4Addr::from(0x0a00_0000 | (rng.next_u64() as u32 & 0x00ff_ffff));
            let dst = Ipv4Addr::from(0xac10_0000 | (rng.next_u64() as u32 & 0x000f_ffff));
            let sport = 1024 + rng.below(64_000) as u16;
            let dport = 1 + rng.below(65_000) as u16;
            if dport == VETO_L4_DST || !seen.insert((src, dst, sport, dport)) {
                continue;
            }
            let frame = PacketBuilder::udp_probe(FRAME_LEN)
                .eth(MacAddr::local(1), MacAddr::local(2))
                .ip(src, dst)
                .ports(sport, dport)
                .no_checksums()
                .build();
            let frame: [u8; FRAME_LEN] = frame
                .as_slice()
                .try_into()
                .expect("udp_probe(64) builds a 64 B frame");
            templates.push(frame);
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        Flows { templates, order }
    }

    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// The flow probe `seq` belongs to.
    pub fn flow_of(&self, seq: u64) -> usize {
        self.order[(seq % self.order.len() as u64) as usize] as usize
    }

    /// The frame of probe `seq`, stamped with `stamp` (cycles).
    pub fn frame(&self, seq: u64, stamp: u64) -> [u8; FRAME_LEN] {
        let mut f = self.templates[self.flow_of(seq)];
        packet_wire::ProbeHeader::stamp_frame(&mut f, seq, stamp);
        f
    }

    /// The unstamped template of `flow`.
    pub fn template(&self, flow: usize) -> &[u8; FRAME_LEN] {
        &self.templates[flow]
    }
}

/// One decoy rule: `in_port=DECOY_IN_PORT, ip, nw_dst=<addr>/32`. Its
/// match carries more than the in_port, so the p-2-p detector rejects it.
#[derive(Clone)]
pub struct Decoy {
    pub fmatch: FlowMatch,
    pub cookie: u64,
    /// Index into [`DECOY_OUTS`] of the output the switch should hold.
    pub out: usize,
}

impl Decoy {
    pub fn flow_mod(&self) -> openflow::FlowMod {
        openflow::FlowMod::add(
            self.fmatch,
            DECOY_PRIORITY,
            vec![Action::Output(PortNo(DECOY_OUTS[self.out]))],
        )
        .with_cookie(self.cookie)
    }
}

/// `n` decoys with distinct destination addresses and seeded outputs.
pub fn decoys(rng: &mut Rng, n: usize) -> Vec<Decoy> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let dst = Ipv4Addr::from(DECOY_NET | (rng.next_u64() as u32 & 0x0000_ffff));
        if !seen.insert(dst) {
            continue;
        }
        let mut fmatch = FlowMatch::in_port(PortNo(DECOY_IN_PORT));
        fmatch.eth_type = Some(0x0800);
        fmatch.ipv4_dst = Some((dst, 32));
        out.push(Decoy {
            fmatch: fmatch.canonicalise(),
            cookie: DECOY_COOKIE_BASE + out.len() as u64,
            out: rng.below(2) as usize,
        });
    }
    out
}
