//! The controller side: barrier-fenced batches that Add-replace decoys,
//! veto toggles on one inner seam, and the final flow-table audit.

use crate::inputs::{Decoy, DECOY_IN_PORT, DECOY_NET, DECOY_OUTS, DECOY_PRIORITY};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::world::{
    barrier, veto_add, veto_del, veto_match, World, BATCH, POLL, VETO_COOKIE, VETO_PRIORITY, WAIT,
};
use openflow::{
    Action, AggregateStatsRequest, FlowMatch, FlowMod, FlowStatsRequest, OfpMessage, PortNo,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct ControlStats {
    /// Decoy mods acknowledged by a barrier, and the time their batches
    /// took from send to barrier reply.
    pub mods_ok: u64,
    pub batch_time: Duration,
    /// Mods attempted (decoy rewrites and veto adds/removes) and failed
    /// (send error or barrier timeout).
    pub mods_attempted: u64,
    pub mods_failed: u64,
    /// `Connection::send_flow_mods` durations (µs), one per batch.
    pub send_batch_us: Vec<f64>,
    /// Barrier round trips after each batch (ms).
    pub barrier_rtt_ms: Vec<f64>,
    /// Veto removal sent → seam back on its fast path (ms).
    pub reconverge_ms: Vec<f64>,
    /// Veto added → bypass observed gone (ms; highway nodes only).
    pub teardown_ms: Vec<f64>,
    pub first_error: Option<String>,
}

impl ControlStats {
    fn fail(&mut self, n: u64, msg: String) {
        self.mods_failed += n;
        if self.first_error.is_none() {
            self.first_error = Some(msg);
        }
    }
}

pub struct Control<'a> {
    world: &'a World,
    decoys: Vec<Decoy>,
    rng: Rng,
    veto_active: bool,
    stats: ControlStats,
}

impl<'a> Control<'a> {
    pub fn new(world: &'a World, decoys: Vec<Decoy>, rng: Rng) -> Control<'a> {
        Control {
            world,
            decoys,
            rng,
            veto_active: false,
            stats: ControlStats::default(),
        }
    }

    /// One batch: `BATCH` seeded decoys get the other output, then a
    /// barrier fences them.
    fn batch(&mut self, tracer: &mut Tracer) {
        let mods: Vec<FlowMod> = (0..BATCH)
            .map(|_| {
                let i = self.rng.below(self.decoys.len() as u64) as usize;
                self.decoys[i].out ^= 1;
                self.decoys[i].flow_mod()
            })
            .collect();
        self.stats.mods_attempted += mods.len() as u64;
        let parent = tracer.reserve();
        let t_parent = tracer.now();
        let t0 = Instant::now();
        let t_span = tracer.now();
        let sent = self.world.ctrl.send_flow_mods(&mods);
        self.stats
            .send_batch_us
            .push(t0.elapsed().as_secs_f64() * 1e6);
        tracer.record("send_flow_mods", parent, t_span);
        if let Err(e) = sent {
            return self
                .stats
                .fail(mods.len() as u64, format!("send_flow_mods: {e:?}"));
        }
        let t_span = tracer.now();
        let fenced = barrier(&self.world.ctrl);
        tracer.record("barrier", parent, t_span);
        tracer.record_as(parent, "batch", 0, t_parent);
        match fenced {
            Ok(rtt) => {
                self.stats.barrier_rtt_ms.push(rtt.as_secs_f64() * 1e3);
                self.stats.mods_ok += mods.len() as u64;
                self.stats.batch_time += t0.elapsed();
            }
            Err(e) => self.stats.fail(mods.len() as u64, e),
        }
    }

    /// Waits until the veto seam's forward link is (or is not) carried by
    /// the highway. On a vanilla node there is no bypass to wait for.
    fn await_link(&self, active: bool) -> bool {
        if self.world.expected_links.is_empty() {
            return true;
        }
        let deadline = Instant::now() + WAIT;
        while Instant::now() < deadline {
            if self
                .world
                .node
                .active_links()
                .contains(&self.world.veto_seam)
                == active
            {
                return true;
            }
            std::thread::sleep(POLL);
        }
        false
    }

    /// Adds or removes the veto and times until the data path follows.
    fn toggle(&mut self, tracer: &mut Tracer) {
        let seam = self.world.veto_seam;
        let (fm, name) = if self.veto_active {
            (veto_del(seam), "veto_remove")
        } else {
            (veto_add(seam), "veto_add")
        };
        self.stats.mods_attempted += 1;
        let parent = tracer.reserve();
        let t_parent = tracer.now();
        let t0 = Instant::now();
        if let Err(e) = self.world.ctrl.send_flow_mods(&[fm]) {
            return self.stats.fail(1, format!("{name}: {e:?}"));
        }
        let t_span = tracer.now();
        let fenced = barrier(&self.world.ctrl);
        tracer.record("barrier", parent, t_span);
        if let Err(e) = fenced {
            return self.stats.fail(1, format!("{name}: {e}"));
        }
        self.veto_active = !self.veto_active;
        let t_span = tracer.now();
        let reached = self.await_link(!self.veto_active);
        tracer.record("await_link", parent, t_span);
        tracer.record_as(parent, name, 0, t_parent);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if !reached {
            return self.stats.fail(
                1,
                format!("{name}: seam {seam:?} never reached its link state"),
            );
        }
        if self.veto_active {
            if !self.world.expected_links.is_empty() {
                self.stats.teardown_ms.push(ms);
            }
        } else {
            self.stats.reconverge_ms.push(ms);
        }
    }

    /// Runs control cycles for `dur`: one batch, then the veto added and
    /// removed again. With a `period`, cycles start on that fixed schedule
    /// (an open-loop control plane); without, back to back.
    pub fn run(&mut self, dur: Duration, period: Option<Duration>, tracer: &mut Tracer) {
        let start = Instant::now();
        let mut cycle = 0u32;
        while start.elapsed() < dur {
            self.batch(tracer);
            self.toggle(tracer);
            self.toggle(tracer);
            if self.stats.mods_failed > 0 {
                return;
            }
            cycle += 1;
            if let Some(p) = period {
                let next = p * cycle;
                if let Some(wait) = next.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
            }
        }
    }

    pub fn into_stats(self) -> ControlStats {
        self.stats
    }

    /// Compares the switch's flow table (read over OpenFlow) with the
    /// rule set this controller expects: the chain's steering rules, every
    /// decoy with its last output, and the veto if active. Every rule must
    /// appear exactly once.
    ///
    /// An OF 1.0 message is at most 64 KiB, so the table is read in
    /// disjoint flow-stats slices that each fit one reply (per switch port,
    /// and the decoys by /20 of their destination); the aggregate flow
    /// count proves the slices cover the whole table.
    pub fn audit(&self) -> Result<usize, String> {
        let mut want: BTreeMap<u64, (FlowMatch, u16, Vec<Action>)> = BTreeMap::new();
        for d in &self.decoys {
            want.insert(
                d.cookie,
                (
                    d.fmatch,
                    DECOY_PRIORITY,
                    vec![Action::Output(PortNo(DECOY_OUTS[d.out]))],
                ),
            );
        }
        if self.veto_active {
            let seam = self.world.veto_seam;
            want.insert(
                VETO_COOKIE,
                (
                    veto_match(seam.0),
                    VETO_PRIORITY,
                    vec![Action::Output(PortNo(seam.1 as u16))],
                ),
            );
        }
        let mut slices: Vec<FlowMatch> = self
            .world
            .node
            .switch()
            .datapath()
            .port_numbers()
            .into_iter()
            .map(FlowMatch::in_port)
            .collect();
        for k in 0..16u32 {
            let mut m = FlowMatch::in_port(PortNo(DECOY_IN_PORT));
            m.eth_type = Some(0x0800);
            m.ipv4_dst = Some((Ipv4Addr::from(DECOY_NET | (k << 12)), 20));
            slices.push(m.canonicalise());
        }
        let ctrl = &self.world.ctrl;
        let mut entries = Vec::new();
        for fmatch in slices {
            let req = OfpMessage::FlowStatsRequest(FlowStatsRequest {
                fmatch,
                out_port: PortNo::NONE,
            });
            match ctrl.request_reply(&req, WAIT) {
                Ok(OfpMessage::FlowStatsReply(mut e)) => entries.append(&mut e),
                other => return Err(format!("flow stats: {other:?}")),
            }
        }
        let total = match ctrl.request_reply(
            &OfpMessage::AggregateStatsRequest(AggregateStatsRequest {
                fmatch: FlowMatch::any(),
                out_port: PortNo::NONE,
            }),
            WAIT,
        ) {
            Ok(OfpMessage::AggregateStatsReply(a)) => a.flow_count as usize,
            other => return Err(format!("aggregate stats: {other:?}")),
        };
        if entries.len() != total {
            return Err(format!(
                "flow-stats slices hold {} rules, the table {total}",
                entries.len()
            ));
        }
        let chain_cookies: Vec<u64> = self
            .world
            .dep
            .forward_cookies
            .iter()
            .chain(&self.world.dep.reverse_cookies)
            .copied()
            .collect();
        let mut chain_seen = 0;
        let mut seen = BTreeMap::new();
        for e in &entries {
            if chain_cookies.contains(&e.cookie) {
                chain_seen += 1;
                continue;
            }
            let Some((m, prio, actions)) = want.get(&e.cookie) else {
                return Err(format!("unexpected rule cookie {:#x}", e.cookie));
            };
            if e.fmatch != *m || e.priority != *prio || e.actions != *actions {
                return Err(format!("rule {:#x} differs from what was sent", e.cookie));
            }
            if seen.insert(e.cookie, ()).is_some() {
                return Err(format!("rule {:#x} installed twice", e.cookie));
            }
        }
        if seen.len() != want.len() {
            return Err(format!(
                "{} of {} expected rules present",
                seen.len(),
                want.len()
            ));
        }
        if chain_seen != chain_cookies.len() {
            return Err(format!(
                "{chain_seen} of {} steering rules present",
                chain_cookies.len()
            ));
        }
        Ok(total)
    }
}
