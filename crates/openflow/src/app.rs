//! Controller applications over the framed channel.
//!
//! A [`FabricApp`] is the logic half of a controller: it reacts to each
//! switch connecting and to that switch's asynchronous messages, issuing
//! requests through the [`Connection`] it is handed. [`FabricRuntime`] is
//! the event loop half — it drives every handshake, delivers messages and
//! re-announces a switch after a reconnect. A single switch is a fabric
//! of one. The split is what makes the channel API controller-agnostic:
//! the built-in highway steering controller and the [`LearningSwitch`]
//! ported from `rust_ofp` run over byte-identical streams through exactly
//! this interface.

use crate::connection::{Connection, ConnectionState, SwitchFeatures, POLL_BOUND};
use crate::failover::ActivePeer;
use crate::messages::{FlowMod, OfpMessage, PacketIn};
use crate::types::PortNo;
use crate::{Action, FlowMatch, OfError, Result};
use packet_wire::{EthernetFrame, MacAddr};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A controller application over a fabric of switches: policy over one
/// [`Connection`] per switch, with the switch's datapath id threaded
/// through every callback so policy can differ per switch.
pub trait FabricApp: Send {
    /// Called once per switch per completed handshake (including after a
    /// reconnect or takeover).
    fn on_switch_ready(&mut self, dpid: u64, conn: &Connection, features: &SwitchFeatures);

    /// Called for every asynchronous or unclaimed message from `dpid`.
    fn on_switch_message(&mut self, dpid: u64, conn: &Connection, msg: OfpMessage, xid: u32);

    /// Called once when a switch's connection dies (transport error or
    /// keepalive). The session stays registered; a reconnect re-announces.
    fn on_switch_down(&mut self, _dpid: u64) {}
}

struct FabricSession {
    conn: Connection,
    /// Set at announce time, from the switch's `FeaturesReply`.
    dpid: Option<u64>,
    /// Whether `on_switch_down` has fired for the current disconnect.
    down_reported: bool,
}

/// Drives one [`FabricApp`] over N live [`Connection`]s (a single switch
/// is a fabric of one [`FabricRuntime::add_switch`]).
///
/// * **datapath-id registry** — switches announce themselves through the
///   handshake's `FeaturesReply`; [`FabricRuntime::connection`] resolves
///   a dpid to its live connection.
/// * **fair polling** — each [`FabricRuntime::poll`] round visits every
///   switch starting from a rotating cursor and delivers at most
///   [`FabricRuntime::MAX_PER_SWITCH`] messages per switch, so one busy
///   switch cannot starve the others.
/// * **per-switch barrier/replay state** — each [`Connection`] carries
///   its own replay log and barrier marks; nothing is shared.
/// * **failover replication** — with [`FabricRuntime::with_peer`], every
///   switch's replay log is mirrored to the standby the moment the
///   switch is announced, and heartbeats ride the poll loop.
pub struct FabricRuntime<A: FabricApp> {
    switches: Vec<FabricSession>,
    by_dpid: HashMap<u64, usize>,
    app: A,
    cursor: usize,
    peer: Option<ActivePeer>,
}

impl<A: FabricApp> FabricRuntime<A> {
    /// Fairness bound: messages delivered per switch per poll round.
    pub const MAX_PER_SWITCH: usize = 16;

    /// A fabric runtime with no standby replication.
    pub fn new(app: A) -> FabricRuntime<A> {
        FabricRuntime {
            switches: Vec::new(),
            by_dpid: HashMap::new(),
            app,
            cursor: 0,
            peer: None,
        }
    }

    /// A fabric runtime that replicates every switch's replay log to a
    /// standby controller (see [`crate::failover`]).
    pub fn with_peer(app: A, peer: ActivePeer) -> FabricRuntime<A> {
        FabricRuntime {
            peer: Some(peer),
            ..FabricRuntime::new(app)
        }
    }

    /// Adds a switch connection (handshake may still be in flight — a
    /// fresh [`Connection`] works, and so does an already-ready one
    /// adopted from [`crate::failover::StandbyController::take_over`]).
    /// Returns the session index.
    pub fn add_switch(&mut self, conn: Connection) -> usize {
        self.switches.push(FabricSession {
            conn,
            dpid: None,
            down_reported: false,
        });
        self.switches.len() - 1
    }

    /// Number of registered switch sessions.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Datapath ids of every announced switch, sorted.
    pub fn dpids(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.by_dpid.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The live connection for `dpid`, if that switch has announced.
    pub fn connection(&self, dpid: u64) -> Option<&Connection> {
        self.by_dpid.get(&dpid).map(|&i| &self.switches[i].conn)
    }

    /// The application, for inspecting its state.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// One fair scheduling round over every switch; returns the number of
    /// messages delivered to the app.
    pub fn poll(&mut self) -> usize {
        if let Some(peer) = &self.peer {
            peer.maybe_heartbeat();
        }
        let n = self.switches.len();
        if n == 0 {
            return 0;
        }
        let mut delivered = 0;
        for off in 0..n {
            let i = (self.cursor + off) % n;
            delivered += self.poll_one(i);
        }
        self.cursor = (self.cursor + 1) % n;
        delivered
    }

    fn poll_one(&mut self, i: usize) -> usize {
        if self.switches[i].dpid.is_none() {
            // Advance the handshake without consuming the inbox — async
            // messages that race the announce stay queued for delivery
            // right after it.
            let _ = self.switches[i].conn.poll_io();
            if self.switches[i].conn.state() == ConnectionState::Ready {
                let features = self.switches[i]
                    .conn
                    .features()
                    .expect("Ready implies features");
                let dpid = features.datapath_id;
                self.by_dpid.insert(dpid, i);
                self.switches[i].dpid = Some(dpid);
                self.switches[i].down_reported = false;
                if let Some(peer) = &self.peer {
                    // Replication must be live before the app's first flow
                    // mod, which on_switch_ready typically sends.
                    peer.announce_switch(dpid);
                    self.switches[i]
                        .conn
                        .set_replay_observer(peer.sink_for(dpid));
                }
                let session = &self.switches[i];
                self.app.on_switch_ready(dpid, &session.conn, &features);
            }
        }
        let mut delivered = 0;
        if self.switches[i].dpid.is_some() {
            while delivered < Self::MAX_PER_SWITCH {
                let Some(res) = self.switches[i].conn.try_recv() else {
                    break;
                };
                let Ok((msg, xid)) = res else { break };
                let dpid = self.switches[i].dpid.expect("checked above");
                self.app
                    .on_switch_message(dpid, &self.switches[i].conn, msg, xid);
                delivered += 1;
            }
        }
        if self.switches[i].conn.state() == ConnectionState::Disconnected
            && !self.switches[i].down_reported
        {
            self.switches[i].down_reported = true;
            if let Some(dpid) = self.switches[i].dpid {
                self.app.on_switch_down(dpid);
            }
        }
        delivered
    }

    /// Polls until every registered switch has completed its handshake
    /// and been announced to the app. Fails if any switch disconnects
    /// first or `timeout` passes.
    pub fn run_until_ready(&mut self, timeout: Duration) -> Result<()> {
        for session in &self.switches {
            session.conn.wake_me_on_rx();
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.poll();
            if self.switches.iter().all(|s| s.dpid.is_some()) {
                return Ok(());
            }
            if self
                .switches
                .iter()
                .any(|s| s.conn.state() == ConnectionState::Disconnected)
            {
                return Err(OfError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(OfError::Disconnected);
            }
            std::thread::park_timeout(POLL_BOUND.min(deadline - now));
        }
    }

    /// Moves one switch's session to a fresh transport (switch restart or
    /// network blip): the connection re-handshakes, replays un-barriered
    /// flow mods, and the app is re-announced on a later poll.
    pub fn reconnect(
        &mut self,
        dpid: u64,
        transport: Box<dyn crate::transport::Transport>,
    ) -> bool {
        let Some(&i) = self.by_dpid.get(&dpid) else {
            return false;
        };
        self.switches[i].conn.reconnect(transport);
        self.switches[i].dpid = None;
        self.switches[i].down_reported = false;
        self.by_dpid.remove(&dpid);
        true
    }
}

/// `rust_ofp`'s learning switch, ported to the [`FabricApp`] API.
///
/// Learns the source MAC of every packet-in against its ingress port, in
/// a table per switch — a host learned behind one switch says nothing
/// about the ports of another. Once both endpoints of a conversation are
/// known it installs the flow in both directions (so the reply path is
/// covered before the reply leaves) and re-injects the packet; until then
/// it floods.
pub struct LearningSwitch {
    known: HashMap<u64, HashMap<MacAddr, PortNo>>,
    priority: u16,
    installed: u64,
}

impl Default for LearningSwitch {
    fn default() -> LearningSwitch {
        LearningSwitch::new()
    }
}

impl LearningSwitch {
    pub fn new() -> LearningSwitch {
        LearningSwitch {
            known: HashMap::new(),
            priority: 10,
            installed: 0,
        }
    }

    /// The MAC → port table learned on switch `dpid`.
    pub fn known_hosts(&self, dpid: u64) -> Option<&HashMap<MacAddr, PortNo>> {
        self.known.get(&dpid)
    }

    /// How many flow mods this app has installed, across every switch.
    pub fn flows_installed(&self) -> u64 {
        self.installed
    }

    fn learning_packet_in(&mut self, dpid: u64, conn: &Connection, pi: &PacketIn) {
        let Ok(frame) = EthernetFrame::new_checked(&pi.data[..]) else {
            return; // not Ethernet; nothing to learn
        };
        let src = frame.src_addr();
        let dst = frame.dst_addr();
        let known = self.known.entry(dpid).or_default();
        if !src.is_multicast() {
            known.insert(src, pi.in_port);
        }
        match (!dst.is_multicast()).then(|| known.get(&dst)).flatten() {
            Some(&out_port) => {
                // Both directions in one batched write, then re-inject the
                // triggering packet so it is not lost while rules settle.
                let fwd = FlowMod::add(
                    FlowMatch::eth_pair(src, dst),
                    self.priority,
                    vec![Action::Output(out_port)],
                );
                let rev = FlowMod::add(
                    FlowMatch::eth_pair(dst, src),
                    self.priority,
                    vec![Action::Output(pi.in_port)],
                );
                if conn.send_flow_mods(&[fwd, rev]).is_ok() {
                    self.installed += 2;
                }
                let _ = conn.packet_out(pi.data.clone(), vec![Action::Output(out_port)]);
            }
            None => {
                let _ = conn.packet_out(pi.data.clone(), vec![Action::Output(PortNo::FLOOD)]);
            }
        }
    }
}

impl FabricApp for LearningSwitch {
    fn on_switch_ready(&mut self, dpid: u64, _conn: &Connection, _features: &SwitchFeatures) {
        // A reconnected switch relearns from scratch; stale entries from
        // its previous session would steer into moved hosts.
        self.known.remove(&dpid);
    }

    fn on_switch_message(&mut self, dpid: u64, conn: &Connection, msg: OfpMessage, _xid: u32) {
        if let OfpMessage::PacketIn(pi) = msg {
            self.learning_packet_in(dpid, conn, &pi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{framed_link, SwitchLink};
    use crate::messages::PacketInReason;
    use packet_wire::PacketBuilder;

    /// Answers handshake, echo and barrier traffic with a chosen dpid and
    /// returns everything else the controller sent.
    fn answer_switch(sw: &SwitchLink, dpid: u64) -> Vec<(OfpMessage, u32)> {
        let mut unhandled = Vec::new();
        while let Some(Ok((msg, xid))) = sw.try_recv() {
            match msg {
                OfpMessage::Hello => sw.send(&OfpMessage::Hello, xid).unwrap(),
                OfpMessage::FeaturesRequest => sw
                    .send(
                        &OfpMessage::FeaturesReply {
                            datapath_id: dpid,
                            ports: vec![1, 2],
                        },
                        xid,
                    )
                    .unwrap(),
                OfpMessage::EchoRequest(d) => sw.send(&OfpMessage::EchoReply(d), xid).unwrap(),
                OfpMessage::BarrierRequest => sw.send(&OfpMessage::BarrierReply, xid).unwrap(),
                other => unhandled.push((other, xid)),
            }
        }
        unhandled
    }

    /// Sends the switch-side packet-in of an `src → dst` frame on `in_port`.
    fn packet_in(sw: &SwitchLink, in_port: u16, src: MacAddr, dst: MacAddr) {
        let data = PacketBuilder::udp_probe(64).eth(src, dst).build();
        let pi = PacketIn {
            in_port: PortNo(in_port),
            reason: PacketInReason::NoMatch,
            data,
        };
        sw.send(&OfpMessage::PacketIn(pi), 0).unwrap();
    }

    fn flow_mods(out: &[(OfpMessage, u32)]) -> Vec<&FlowMod> {
        out.iter()
            .filter_map(|(m, _)| match m {
                OfpMessage::FlowMod(fm) => Some(fm),
                _ => None,
            })
            .collect()
    }

    fn is_flood(out: &[(OfpMessage, u32)]) -> bool {
        matches!(
            out,
            [(OfpMessage::PacketOut(po), _)] if po.actions == vec![Action::Output(PortNo::FLOOD)]
        )
    }

    #[test]
    fn learning_switch_floods_then_installs_both_directions() {
        let (conn, sw) = framed_link();
        answer_switch(&sw, 7);
        let mut rt = FabricRuntime::new(LearningSwitch::new());
        rt.add_switch(conn);
        rt.run_until_ready(Duration::from_secs(1)).unwrap();

        let a = MacAddr::local(1);
        let b = MacAddr::local(2);

        // a → b: b unknown, expect a flood and a learned entry for a.
        packet_in(&sw, 1, a, b);
        rt.poll();
        assert!(is_flood(&answer_switch(&sw, 7)), "unknown dst floods");
        assert_eq!(rt.app().known_hosts(7).unwrap().get(&a), Some(&PortNo(1)));

        // b → a: both known now — two flow mods + a directed packet-out.
        packet_in(&sw, 2, b, a);
        rt.poll();
        let out = answer_switch(&sw, 7);
        let mods = flow_mods(&out);
        assert_eq!(mods.len(), 2);
        assert_eq!(mods[0].actions, vec![Action::Output(PortNo(1))]);
        assert_eq!(mods[1].actions, vec![Action::Output(PortNo(2))]);
        assert!(out.iter().any(|(m, _)| matches!(
            m,
            OfpMessage::PacketOut(po) if po.actions == vec![Action::Output(PortNo(1))]
        )));
        assert_eq!(rt.app().flows_installed(), 2);
    }

    #[test]
    fn learning_switch_keeps_one_table_per_switch() {
        let (c1, sw1) = framed_link();
        let (c2, sw2) = framed_link();
        let mut rt = FabricRuntime::new(LearningSwitch::new());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();

        let a = MacAddr::local(1);
        let b = MacAddr::local(2);

        // Host a is learned behind switch a1 ...
        packet_in(&sw1, 1, a, b);
        rt.poll();
        assert!(is_flood(&answer_switch(&sw1, 0xa1)));

        // ... so on switch b2 a is still unknown: b → a floods there and
        // installs nothing, even though a1 knows where a lives.
        packet_in(&sw2, 2, b, a);
        rt.poll();
        let out = answer_switch(&sw2, 0xb2);
        assert!(flow_mods(&out).is_empty(), "a1's host steered b2: {out:?}");
        assert!(is_flood(&out));
        assert!(answer_switch(&sw1, 0xa1).is_empty(), "a1 untouched");
        assert_eq!(rt.app().flows_installed(), 0);
        assert_eq!(rt.app().known_hosts(0xa1).unwrap().len(), 1);
        assert_eq!(
            rt.app().known_hosts(0xb2).unwrap().get(&b),
            Some(&PortNo(2))
        );
        assert!(!rt.app().known_hosts(0xb2).unwrap().contains_key(&a));
    }

    #[derive(Default)]
    struct FabricProbe {
        ready: Vec<u64>,
        messages: Vec<(u64, u32)>,
        downs: Vec<u64>,
    }

    impl FabricApp for FabricProbe {
        fn on_switch_ready(&mut self, dpid: u64, _c: &Connection, f: &SwitchFeatures) {
            assert_eq!(dpid, f.datapath_id);
            self.ready.push(dpid);
        }
        fn on_switch_message(&mut self, dpid: u64, _c: &Connection, _m: OfpMessage, xid: u32) {
            self.messages.push((dpid, xid));
        }
        fn on_switch_down(&mut self, dpid: u64) {
            self.downs.push(dpid);
        }
    }

    /// Polls `rt` until `done` holds or a second passes.
    fn poll_until<A: FabricApp>(rt: &mut FabricRuntime<A>, done: impl Fn(&A) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(1);
        while !done(rt.app()) && Instant::now() < deadline {
            rt.poll();
        }
    }

    #[test]
    fn fabric_runtime_registers_and_dispatches_per_dpid() {
        let (c1, sw1) = framed_link();
        let (c2, sw2) = framed_link();
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();
        assert_eq!(rt.dpids(), vec![0xa1, 0xb2]);
        assert_eq!(rt.app().ready, vec![0xa1, 0xb2]);

        // Messages route to the app tagged with the right dpid.
        sw2.send(&OfpMessage::EchoReply(vec![1]), 7001).unwrap();
        sw1.send(&OfpMessage::EchoReply(vec![2]), 7002).unwrap();
        rt.poll();
        let mut got = rt.app().messages.clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0xa1, 7002), (0xb2, 7001)]);

        // Per-dpid connection lookup drives the right switch.
        rt.connection(0xb2)
            .unwrap()
            .send(&OfpMessage::EchoRequest(vec![9]))
            .unwrap();
        assert_eq!(answer_switch(&sw1, 0xa1).len(), 0);
        drop(sw2); // also: the down event fires exactly once
        poll_until(&mut rt, |app| !app.downs.is_empty());
        assert_eq!(rt.app().downs, vec![0xb2]);
        rt.poll();
        assert_eq!(rt.app().downs, vec![0xb2], "down reported once");
    }

    #[test]
    fn fabric_polling_is_fair_under_one_chatty_switch() {
        let (c1, sw1) = framed_link();
        let (c2, sw2) = framed_link();
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(c1);
        rt.add_switch(c2);
        answer_switch(&sw1, 0xa1);
        answer_switch(&sw2, 0xb2);
        rt.run_until_ready(Duration::from_secs(2)).unwrap();

        // Switch a1 floods 200 messages; b2 sends one. One poll round may
        // deliver at most MAX_PER_SWITCH from the flooder, and b2's
        // message must be in the same round — not behind the flood.
        for i in 0..200u32 {
            sw1.send(&OfpMessage::EchoReply(vec![0]), 10_000 + i)
                .unwrap();
        }
        sw2.send(&OfpMessage::EchoReply(vec![1]), 42).unwrap();
        let delivered = rt.poll();
        assert!(
            delivered <= 2 * FabricRuntime::<FabricProbe>::MAX_PER_SWITCH,
            "round bounded per switch"
        );
        assert!(
            rt.app()
                .messages
                .iter()
                .any(|(d, x)| (*d, *x) == (0xb2, 42)),
            "the quiet switch was served in the same round"
        );
    }

    #[test]
    fn runtime_reannounces_after_reconnect() {
        let (conn, sw) = framed_link();
        answer_switch(&sw, 7);
        let mut rt = FabricRuntime::new(FabricProbe::default());
        rt.add_switch(conn);
        rt.run_until_ready(Duration::from_secs(1)).unwrap();
        assert_eq!(rt.app().ready, vec![7]);

        drop(sw);
        poll_until(&mut rt, |app| !app.downs.is_empty());
        assert_eq!(rt.app().downs, vec![7]);

        let (stray, _) = crate::transport::loopback();
        assert!(!rt.reconnect(8, Box::new(stray)), "unknown dpid");
        let (c2, s2) = crate::transport::loopback();
        assert!(rt.reconnect(7, Box::new(c2)));
        assert!(
            rt.connection(7).is_none(),
            "unregistered until re-announced"
        );
        let sw2 = SwitchLink::new(Box::new(s2));
        answer_switch(&sw2, 7);
        rt.run_until_ready(Duration::from_secs(1)).unwrap();
        assert_eq!(rt.app().ready, vec![7, 7]);
        assert_eq!(rt.dpids(), vec![7]);
    }
}
