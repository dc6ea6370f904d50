//! The system under test: a `HighwayNode` with two simulated 10 G NICs and
//! a chain of forwarder VMs between them, plus the controller connection.

use crate::inputs::{Decoy, VETO_L4_DST};
use dpdk_sim::{Arena, ArenaStats, EthDev};
use highway_core::{AccelerationPolicy, HighwayNode, HighwayNodeConfig};
use nic_sim::NicModel;
use openflow::{Action, Connection, FlowMatch, FlowMod, OfpMessage, PortNo};
use ovs_dp::port::PortBackend;
use ovs_dp::VSwitchdConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vm_host::{ChainDeployment, LatencyModel, VnfSpec};

/// Every knob of the node, pinned here so no environment variable
/// (`HIGHWAY_PMDS`, `HIGHWAY_TELEMETRY`, `HIGHWAY_DOORBELL`) can change
/// what is measured.
pub const PMD_THREADS: usize = 1;
pub const TELEMETRY: bool = true;
pub const DOORBELL_COALESCE: usize = shmem_sim::DEFAULT_DOORBELL_COALESCE;
pub const HOUSEKEEPING: Duration = Duration::from_millis(1);
/// Decoys are sent in batches of this many mods, each fenced by a barrier.
pub const BATCH: usize = 64;
/// Bound on any single wait for the program (barrier, link state, drain).
pub const WAIT: Duration = Duration::from_secs(10);

pub fn node_config(highway: bool) -> HighwayNodeConfig {
    HighwayNodeConfig {
        highway_enabled: highway,
        latency: LatencyModel::zero(),
        switch: VSwitchdConfig {
            datapath_id: 0x00c0_ffee,
            miss_to_controller: false,
            housekeeping_interval: HOUSEKEEPING,
            pmd_threads: PMD_THREADS,
            telemetry: TELEMETRY,
            doorbell_coalesce: DOORBELL_COALESCE,
        },
        policy: AccelerationPolicy::paper(),
    }
}

/// A built, started and converged node.
pub struct World {
    pub node: HighwayNode,
    pub nic_in: Arc<NicModel>,
    pub nic_out: Arc<NicModel>,
    pub dep: ChainDeployment,
    pub ctrl: Connection,
    pub arena: Arena,
    /// The veto seam `(a_out, b_in)`: the middle inner seam of the chain.
    pub veto_seam: (u32, u32),
    /// The links the highway must hold with no veto in place.
    pub expected_links: Vec<(u32, u32)>,
}

/// The veto rule: it covers `in_port = a_out`, so the seam `a_out → b_in`
/// stops being point-to-point; no probe matches it.
pub fn veto_match(a_out: u32) -> FlowMatch {
    let mut m = FlowMatch::in_port(PortNo(a_out as u16));
    m.eth_type = Some(0x0800);
    m.ip_proto = Some(17);
    m.l4_dst = Some(VETO_L4_DST);
    m.canonicalise()
}

pub const VETO_PRIORITY: u16 = 200;
pub const VETO_COOKIE: u64 = 0x0000_7e70;

pub fn veto_add(seam: (u32, u32)) -> FlowMod {
    FlowMod::add(
        veto_match(seam.0),
        VETO_PRIORITY,
        vec![Action::Output(PortNo(seam.1 as u16))],
    )
    .with_cookie(VETO_COOKIE)
}

pub fn veto_del(seam: (u32, u32)) -> FlowMod {
    FlowMod::delete_strict(veto_match(seam.0), VETO_PRIORITY)
}

/// Sleep between polls of the program's state while the controller waits
/// (a reply, a link state): short against what is timed, long enough to
/// leave the cores to the program.
pub const POLL: Duration = Duration::from_micros(20);

/// Sends a barrier and polls until its reply; other messages are
/// discarded. Returns the round-trip time.
pub fn barrier(ctrl: &Connection) -> Result<Duration, String> {
    let t0 = Instant::now();
    let xid = ctrl
        .send(&OfpMessage::BarrierRequest)
        .map_err(|e| format!("barrier send: {e:?}"))?;
    loop {
        match ctrl.try_recv() {
            Some(Ok((OfpMessage::BarrierReply, x))) if x == xid => return Ok(t0.elapsed()),
            Some(Ok(_)) => {}
            Some(Err(e)) => return Err(format!("barrier: {e:?}")),
            None => {
                if t0.elapsed() > WAIT {
                    return Err("barrier timed out".into());
                }
                std::thread::sleep(POLL);
            }
        }
    }
}

impl World {
    /// Builds the node, the chain and the decoy table, and waits until
    /// every expected bypass is active.
    pub fn build(highway: bool, vms: usize, decoys: &[Decoy]) -> Result<World, String> {
        let node = HighwayNode::new(node_config(highway));
        let nic_in = NicModel::ten_g("nic-in");
        let nic_out = NicModel::ten_g("nic-out");
        let in_no = node.orchestrator().alloc_port();
        node.switch()
            .add_device_port(PortNo(in_no as u16), "nic-in", nic_in.clone());
        let out_no = node.orchestrator().alloc_port();
        node.switch()
            .add_device_port(PortNo(out_no as u16), "nic-out", nic_out.clone());
        let dep = node
            .orchestrator()
            .deploy_chain(vms, in_no, out_no, |i| VnfSpec::forwarder(format!("vm{i}")));
        for vm in &dep.vms {
            node.register_vm(Arc::clone(vm));
        }
        node.start();
        let ctrl = node.connect_controller();
        ctrl.handshake(WAIT)
            .map_err(|e| format!("handshake: {e:?}"))?;
        for chunk in decoys.chunks(BATCH) {
            let mods: Vec<FlowMod> = chunk.iter().map(Decoy::flow_mod).collect();
            ctrl.send_flow_mods(&mods)
                .map_err(|e| format!("decoy preload: {e:?}"))?;
            barrier(&ctrl)?;
        }
        if !node.wait_highway_converged(WAIT) {
            return Err("highway did not converge during set-up".into());
        }
        let mid = vms / 2;
        let veto_seam = (dep.vm_ports[mid - 1].1, dep.vm_ports[mid].0);
        let mut expected_links = Vec::new();
        if highway {
            for i in 0..vms - 1 {
                expected_links.push((dep.vm_ports[i].1, dep.vm_ports[i + 1].0));
                expected_links.push((dep.vm_ports[i + 1].0, dep.vm_ports[i].1));
            }
        }
        let world = World {
            arena: node.registry().hugepage_arena(),
            node,
            nic_in,
            nic_out,
            dep,
            ctrl,
            veto_seam,
            expected_links,
        };
        let mut active = world.node.active_links();
        active.sort_unstable();
        let mut want = world.expected_links.clone();
        want.sort_unstable();
        if active != want {
            return Err(format!("active links {active:?}, expected {want:?}"));
        }
        Ok(world)
    }

    /// Switch-side ingress port numbers of the seams the highway carries
    /// (the egress port of every VM but the last).
    pub fn bypassed_ports(&self) -> Vec<u32> {
        if self.expected_links.is_empty() {
            return Vec::new();
        }
        let n = self.dep.vm_ports.len();
        self.dep.vm_ports[..n - 1].iter().map(|p| p.1).collect()
    }

    /// Reads every counter a phase is judged by.
    pub fn counters(&self) -> Counters {
        let dp = self.node.switch().datapath();
        let mut port_rx = Vec::new();
        let mut unmapped_drops = 0;
        let mut port_odropped = 0;
        for no in dp.port_numbers() {
            if let Some(port) = dp.port(no) {
                let stats = port.stats();
                port_rx.push((u32::from(no.0), stats.ipackets));
                port_odropped += stats.odropped;
                if let PortBackend::Dpdkr(end) = &port.backend {
                    unmapped_drops += end.lock().stats().unmapped_drops;
                }
            }
        }
        Counters {
            port_rx,
            vm_forwarded: self
                .dep
                .vms
                .iter()
                .map(|v| v.counters().forwarded.load(Ordering::Relaxed))
                .collect(),
            vm_dropped: self
                .dep
                .vms
                .iter()
                .map(|v| v.counters().dropped.load(Ordering::Relaxed))
                .collect(),
            nic_imissed: self.nic_in.stats().imissed + self.nic_out.stats().imissed,
            nic_odropped: self.nic_out.stats().odropped,
            port_odropped,
            arena: self.arena.stats(),
            cache: dp.cache_stats(),
            miss_drops: dp.miss_drops.load(Ordering::Relaxed),
            fanout_drops: dp.fanout_drops.load(Ordering::Relaxed),
            doorbells: telemetry::pools::doorbell_totals(),
            unmapped_drops,
        }
    }

    /// Stops the node and the guests, drops every handle on the arena but
    /// one and returns that one, for the census.
    pub fn teardown(self) -> Arena {
        let World {
            node,
            nic_in,
            nic_out,
            dep,
            ctrl,
            arena,
            ..
        } = self;
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
        drop(ctrl);
        drop(dep);
        drop(node);
        drop(nic_in);
        drop(nic_out);
        arena.reclaim_credits();
        arena
    }
}

/// Counter readings at one instant; phases are judged on differences.
#[derive(Clone)]
pub struct Counters {
    pub port_rx: Vec<(u32, u64)>,
    pub vm_forwarded: Vec<u64>,
    pub vm_dropped: Vec<u64>,
    pub nic_imissed: u64,
    pub nic_odropped: u64,
    /// Packets switch ports dropped on a full ring (or while down).
    pub port_odropped: u64,
    pub arena: ArenaStats,
    pub cache: ovs_dp::pmd::CacheTierStats,
    pub miss_drops: u64,
    pub fanout_drops: u64,
    pub doorbells: telemetry::pools::DoorbellTotals,
    pub unmapped_drops: u64,
}

impl Counters {
    pub fn switch_rx(&self) -> u64 {
        self.port_rx.iter().map(|p| p.1).sum()
    }

    pub fn port_rx_of(&self, port: u32) -> u64 {
        self.port_rx.iter().find(|p| p.0 == port).map_or(0, |p| p.1)
    }

    /// Packets some layer dropped and counted.
    pub fn counted_drops(&self) -> u64 {
        self.nic_imissed
            + self.nic_odropped
            + self.port_odropped
            + self.miss_drops
            + self.fanout_drops
            + self.cache.tx_no_port_drops
            + self.vm_dropped.iter().sum::<u64>()
            + self.unmapped_drops
    }
}
