//! Built-in controller applications for the highway node.
//!
//! [`ChainSteering`] is the reproduction's "ordinary OpenFlow controller":
//! it knows nothing about the highway and simply installs the service-chain
//! steering rules (`in_port → output`) the paper's §2 scenario assumes. It
//! runs behind the same [`FabricApp`] trait as any other app (e.g. the
//! ported learning switch), so one byte-identical OpenFlow stream can drive
//! either.

use openflow::{
    Action, Connection, FabricApp, FlowMatch, FlowMod, OfpMessage, PortNo, SwitchFeatures,
};
use std::collections::HashMap;

/// One steering seam of a service chain: everything entering `from` is
/// forwarded out of `to`, tagged with `cookie` for later stats lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seam {
    pub from: PortNo,
    pub to: PortNo,
    pub cookie: u64,
}

impl Seam {
    /// A seam with an auto-derived cookie (`0x100 + index` convention used
    /// throughout the examples).
    pub fn new(index: usize, from: PortNo, to: PortNo) -> Seam {
        Seam {
            from,
            to,
            cookie: 0x100 + index as u64,
        }
    }
}

/// Flow priority of every steering rule.
const STEERING_PRIORITY: u16 = 100;

/// The built-in highway controller app: one fixed set of point-to-point
/// steering rules per switch, keyed by datapath id, installed whenever
/// that switch (re)reaches the ready state — batched into one write and
/// fenced by an asynchronous barrier, so each switch converges
/// independently. A chain on one host is a fabric of one switch; a chain
/// spanning several hosts is per-switch seam lists — intra-host seams
/// between VM ports, inter-host hops via the trunk ports wiring the
/// switches together.
pub struct ChainSteering {
    switches: HashMap<u64, SwitchSteering>,
    /// `FlowRemoved` notifications seen, per cookie — the exactly-once
    /// canary the failover tests read (replay must never trigger one).
    flow_removed: HashMap<u64, u64>,
}

/// Install and barrier state of one switch.
struct SwitchSteering {
    seams: Vec<Seam>,
    barrier_xid: Option<u32>,
    settled: bool,
    packet_ins: u64,
}

impl ChainSteering {
    /// A steering app for per-switch seam lists keyed by datapath id.
    pub fn new(seams_by_dpid: HashMap<u64, Vec<Seam>>) -> ChainSteering {
        let switches = seams_by_dpid
            .into_iter()
            .map(|(dpid, seams)| {
                let sw = SwitchSteering {
                    seams,
                    barrier_xid: None,
                    settled: false,
                    packet_ins: 0,
                };
                (dpid, sw)
            })
            .collect();
        ChainSteering {
            switches,
            flow_removed: HashMap::new(),
        }
    }

    /// True once every switch has acknowledged (via barrier reply) that
    /// every steering rule of its latest (re)connect is committed.
    pub fn settled(&self) -> bool {
        self.switches.values().all(|sw| sw.settled)
    }

    /// Packet-ins observed across the fabric (the steering chain should
    /// produce none once settled — the counter is a canary for missing
    /// rules).
    pub fn packet_ins(&self) -> u64 {
        self.switches.values().map(|sw| sw.packet_ins).sum()
    }

    /// `FlowRemoved` tallies per cookie, across every switch.
    pub fn flow_removed(&self) -> &HashMap<u64, u64> {
        &self.flow_removed
    }
}

impl FabricApp for ChainSteering {
    fn on_switch_ready(&mut self, dpid: u64, conn: &Connection, _features: &SwitchFeatures) {
        let Some(sw) = self.switches.get_mut(&dpid) else {
            return;
        };
        sw.settled = false;
        sw.barrier_xid = None;
        let mods: Vec<FlowMod> = sw
            .seams
            .iter()
            .map(|s| {
                FlowMod::add(
                    FlowMatch::in_port(s.from),
                    STEERING_PRIORITY,
                    vec![Action::Output(s.to)],
                )
                .with_cookie(s.cookie)
            })
            .collect();
        if conn.send_flow_mods(&mods).is_err() {
            return; // disconnected again; the next reconnect retries
        }
        // Fence asynchronously: the reply lands in on_switch_message, so
        // the runtime's poll loop is never blocked on the switch.
        sw.barrier_xid = conn.send(&OfpMessage::BarrierRequest).ok();
    }

    fn on_switch_message(&mut self, dpid: u64, _conn: &Connection, msg: OfpMessage, xid: u32) {
        if let OfpMessage::FlowRemoved(fr) = &msg {
            *self.flow_removed.entry(fr.cookie).or_insert(0) += 1;
        }
        let Some(sw) = self.switches.get_mut(&dpid) else {
            return;
        };
        match msg {
            OfpMessage::BarrierReply if Some(xid) == sw.barrier_xid => {
                sw.barrier_xid = None;
                sw.settled = true;
            }
            OfpMessage::PacketIn(_) => sw.packet_ins += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{HighwayNode, HighwayNodeConfig};
    use openflow::FabricRuntime;
    use std::time::{Duration, Instant};

    #[test]
    fn chain_steering_installs_rules_and_settles() {
        let config = HighwayNodeConfig::default();
        let dpid = config.switch.datapath_id;
        let node = HighwayNode::new(config);
        node.start();
        let seams = vec![
            Seam::new(0, PortNo(1), PortNo(2)),
            Seam::new(1, PortNo(3), PortNo(4)),
        ];
        let mut rt = FabricRuntime::new(ChainSteering::new(HashMap::from([(dpid, seams)])));
        rt.add_switch(node.connect_controller());
        rt.run_until_ready(Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !rt.app().settled() && Instant::now() < deadline {
            rt.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rt.app().settled(), "barrier reply never arrived");
        let conn = rt.connection(dpid).unwrap();
        let stats = conn.flow_stats(Duration::from_secs(2)).unwrap();
        assert_eq!(stats.len(), 2);
        node.stop();
    }
}
