//! Per-layer numbers of a traced run. Two sources, both outside the
//! program: timings of the benchmark's own calls into each crate's public
//! functions on replicas, and the counters and histograms the crates
//! already publish.

use crate::inputs::{Decoy, Flows, FRAME_LEN};
use crate::trace::Tracer;
use crate::world::DOORBELL_COALESCE;
use dpdk_sim::{Arena, Mbuf};
use highway_core::detect_p2p_links;
use openflow::{FlowMod, PortNo};
use ovs_dp::pmd::{Datapath, PmdCaches};
use ovs_dp::RuleSnapshot;
use shmem_sim::{SegmentKind, ShmRegistry};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each replica timing repeats its call until at least this much time
/// has passed, and reports the mean.
const REPLICA_TIME: Duration = Duration::from_millis(150);

/// Repeats `op` (which performs `per_call` operations) for at least
/// [`REPLICA_TIME`]; returns nanoseconds per operation.
fn time_per_op(per_call: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < REPLICA_TIME || calls < 8 {
        op();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls * per_call) as f64
}

fn flow_mods_of(rules: &[std::sync::Arc<ovs_dp::RuleEntry>]) -> Vec<FlowMod> {
    rules
        .iter()
        .map(|r| FlowMod::add(r.fmatch, r.priority, r.actions.clone()).with_cookie(r.cookie))
        .collect()
}

/// `Datapath::classify` with the benchmark's own `PmdCaches`, on a
/// replica holding the live table, over the workload's flows in send
/// order from the ingress port. Nanoseconds per lookup.
pub fn classify_ns(live: &Datapath, flows: &Flows, in_port: u32, tracer: &mut Tracer) -> f64 {
    let t = tracer.now();
    let replica = Datapath::new(false);
    for fm in flow_mods_of(live.table().rules()) {
        replica.table_apply(&fm);
    }
    let keys: Vec<packet_wire::FlowKey> = (0..flows.len() as u64)
        .map(|seq| packet_wire::FlowKey::extract(&flows.frame(seq, 0)))
        .collect();
    let mut caches = PmdCaches::new();
    let port = PortNo(in_port as u16);
    let mut i = 0usize;
    let ns = time_per_op(256, || {
        for _ in 0..256 {
            let key = &keys[i % keys.len()];
            i += 1;
            black_box(replica.classify(port, key, Some(&mut caches), 1, FRAME_LEN as u64));
        }
    });
    tracer.record("replica.classify", 0, t);
    ns
}

/// `Datapath::table_apply` of one decoy Add-replace on a replica holding
/// `decoys` (4096 rules). Microseconds per apply.
pub fn table_apply_us(decoys: &[Decoy], tracer: &mut Tracer) -> f64 {
    let t = tracer.now();
    let replica = Datapath::new(false);
    for d in decoys {
        replica.table_apply(&d.flow_mod());
    }
    let mut flipped: Vec<Decoy> = decoys.to_vec();
    let mut i = 0usize;
    let ns = time_per_op(1, || {
        let d = &mut flipped[i % decoys.len()];
        i += 7;
        d.out ^= 1;
        black_box(replica.table_apply(&d.flow_mod()));
    });
    tracer.record("replica.table_apply", 0, t);
    ns / 1e3
}

/// `detect_p2p_links` over a snapshot of the live rules. Microseconds per
/// detector pass.
pub fn detect_us(live: &Datapath, tracer: &mut Tracer) -> f64 {
    let t = tracer.now();
    let rules: Vec<RuleSnapshot> = live
        .table()
        .rules()
        .iter()
        .map(|r| RuleSnapshot {
            id: r.id,
            fmatch: r.fmatch,
            priority: r.priority,
            actions: r.actions.clone(),
            cookie: r.cookie,
        })
        .collect();
    let ns = time_per_op(1, || {
        black_box(detect_p2p_links(black_box(&rules)));
    });
    tracer.record("replica.detect", 0, t);
    ns / 1e3
}

/// `send_burst` + `recv_burst` of a 32-descriptor burst of arena mbufs
/// over a registry channel. Nanoseconds per descriptor hop.
pub fn hop_ns(flows: &Flows, tracer: &mut Tracer) -> f64 {
    let t = tracer.now();
    let registry = ShmRegistry::new();
    let (mut a, mut b) = registry.create_channel("perfbench-hop", SegmentKind::Bypass, 1024);
    a.set_doorbell_coalesce(DOORBELL_COALESCE);
    let arena = Arena::new("perfbench-hop", 64, dpdk_sim::DEFAULT_BUF_SIZE);
    let mut burst: Vec<Mbuf> = (0..32)
        .map(|seq| Mbuf::from_arena(arena.alloc_from(&flows.frame(seq, 0)).expect("64 slots")))
        .collect();
    let mut back = Vec::with_capacity(32);
    let ns = time_per_op(32, || {
        let sent = a.send_burst(&mut burst);
        back.clear();
        let got = b.recv_burst(&mut back, 32);
        assert_eq!((sent, got), (32, 32), "a 1024-deep ring takes a 32 burst");
        burst.append(&mut back);
    });
    tracer.record("replica.hop", 0, t);
    ns
}

/// `Mbuf::from_slice` (heap) and `Arena::alloc_from` of one 64 B probe,
/// allocated and freed. Nanoseconds per allocation, `(heap, arena)`.
pub fn alloc_ns(flows: &Flows, tracer: &mut Tracer) -> (f64, f64) {
    let t = tracer.now();
    let frame = flows.frame(0, 0);
    let heap = time_per_op(64, || {
        for _ in 0..64 {
            black_box(Mbuf::from_slice(black_box(&frame)));
        }
    });
    let arena = Arena::new("perfbench-alloc", 64, dpdk_sim::DEFAULT_BUF_SIZE);
    let slab = time_per_op(64, || {
        for _ in 0..64 {
            black_box(arena.alloc_from(black_box(&frame)));
        }
    });
    tracer.record("replica.alloc", 0, t);
    (heap, slab)
}
