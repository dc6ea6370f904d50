//! One controller, two switches, a cross-host chain — and a controller
//! crash mid-storm, end to end over real TCP.
//!
//! The active controller drives both highway nodes through
//! [`FabricRuntime`] while replicating every replay-log append to a
//! standby via the failover role protocol. Mid-way through a flow-mod
//! storm the active's sockets are severed (a hard crash); the standby
//! detects the dead peer, dials both switches itself through the nodes'
//! TCP listeners, and replays its mirrored log tail. Because OpenFlow
//! 1.0 `Add` replaces, the handover is exactly-once: every rule appears
//! exactly once in flow stats, no spurious `FlowRemoved` surfaces, and
//! the chain's intra-host hop keeps passing the zero-copy arena census
//! throughout.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vnf_highway::highway::{ChainSteering, Fabric};
use vnf_highway::openflow::{
    loopback, ActivePeer, FabricRuntime, FlowMod, OfError, OfpMessage, StandbyController,
    TcpTransport, Transport,
};
use vnf_highway::prelude::*;
use vnf_highway::shmem::ChannelEnd;

const DPIDS: [u64; 2] = [0xa1, 0xb2];
const STORM: usize = 40;
const CENSUS_PKTS: u64 = 8;

fn storm_cookie(i: usize) -> u64 {
    0x9000 + i as u64
}

/// The switch a storm rule targets alternates, so both replay mirrors
/// carry un-barriered state at the moment of the crash.
fn storm_dpid(i: usize) -> u64 {
    DPIDS[i % 2]
}

/// Sends `n` arena-backed probes into the chain and waits for all of
/// them at the exit, returning how many arrived.
fn pump_census(
    entry: &mut ChannelEnd,
    exit: &mut ChannelEnd,
    n: u64,
    arena: &vnf_highway::dpdk::Arena,
) -> u64 {
    for seq in 0..n {
        let pkt = PacketBuilder::udp_probe(64).seq(seq).build();
        let mut m = Mbuf::from_arena(arena.alloc_from(&pkt).expect("arena sized for the test"));
        loop {
            match entry.send(m) {
                Ok(()) => break,
                Err(ret) => {
                    m = ret;
                    std::thread::yield_now();
                }
            }
        }
    }
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    while got < n && Instant::now() < deadline {
        if exit.recv().is_some() {
            got += 1;
        } else {
            std::thread::yield_now();
        }
    }
    got
}

fn settle(rt: &mut FabricRuntime<ChainSteering>, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while !rt.app().settled() {
        rt.poll();
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn controller_kill_mid_storm_fails_over_exactly_once() {
    // --- Fabric: two highway nodes joined by a trunk, 3-VNF chain with
    // two VNFs on node 0 (one intra-host, bypassable hop) and one on
    // node 1.
    let fabric = Fabric::with_defaults(&DPIDS);
    fabric.start();
    let mut chain = fabric.place_chain(&[0, 0, 1], |i| VnfSpec::forwarder(format!("vnf{i}")));
    assert_eq!(chain.trunks.len(), 1, "exactly one inter-host hop");
    let seam_cookies = chain.cookies();

    let addr_of: HashMap<u64, SocketAddr> = fabric
        .listen_all()
        .expect("TCP listeners")
        .into_iter()
        .collect();

    // --- Active controller over real TCP, replicating to the standby
    // over an in-process peer link (the two controllers share this test
    // process; the switches do not share their control channel).
    let (peer_end, standby_end) = loopback();
    let active_peer = ActivePeer::new(Box::new(peer_end));
    let mut standby = StandbyController::new(Box::new(standby_end));

    let mut rt = FabricRuntime::with_peer(ChainSteering::new(chain.seams.clone()), active_peer);
    let mut kill_handles = Vec::new();
    for dpid in DPIDS {
        let stream = TcpStream::connect(addr_of[&dpid]).expect("dial switch");
        kill_handles.push(stream.try_clone().expect("clone for the kill switch"));
        rt.add_switch(vnf_highway::openflow::Connection::new(Box::new(
            TcpTransport::from_stream(stream).expect("wrap stream"),
        )));
    }
    rt.run_until_ready(Duration::from_secs(10))
        .expect("both switches ready");
    assert_eq!(rt.dpids(), DPIDS.to_vec());
    assert!(settle(&mut rt, Duration::from_secs(10)), "seams settled");
    assert!(fabric
        .node(0)
        .wait_highway_converged(Duration::from_secs(15)));
    assert!(fabric
        .node(1)
        .wait_highway_converged(Duration::from_secs(15)));

    // The intra-host hop (vnf0.out → vnf1.in on node 0) rides the
    // highway; the inter-host hop cannot (its peer port has no local VM).
    let intra = (chain.vm_ports[0].1, chain.vm_ports[1].0);
    assert!(
        fabric.node(0).active_links().contains(&intra),
        "intra-host hop not bypassed: {:?}",
        fabric.node(0).active_links()
    );

    // --- Zero-copy census, round 1: payload bytes are written exactly
    // once even though the chain spans two switches.
    let arena = fabric.node(0).registry().hugepage_arena();
    let base = arena.stats();
    let got = pump_census(&mut chain.entry, &mut chain.exit, CENSUS_PKTS, &arena);
    assert_eq!(got, CENSUS_PKTS, "census packets lost pre-failover");
    let after = arena.stats();
    assert_eq!(after.allocs - base.allocs, CENSUS_PKTS);
    assert_eq!(
        after.slab_writes - base.slab_writes,
        CENSUS_PKTS,
        "a hop copied payload bytes: the cross-host chain is not zero-copy"
    );
    assert_eq!(after.foreign_frees, 0);

    // --- Flow-mod storm, killed in the middle. Every mod enters the
    // connection's replay log and is replicated to the standby *before*
    // the wire write, so the mods that fail to send are exactly the ones
    // the standby must deliver.
    let mut failed_sends = 0;
    for i in 0..STORM {
        if i == STORM / 2 {
            for h in &kill_handles {
                let _ = h.shutdown(Shutdown::Both); // the crash
            }
        }
        let conn = rt.connection(storm_dpid(i)).expect("announced switch");
        if conn
            .add_flow(
                FlowMatch::in_port(PortNo(500 + i as u16)),
                100,
                vec![Action::Output(PortNo(600 + i as u16))],
                storm_cookie(i),
            )
            .is_err()
        {
            failed_sends += 1;
        }
    }
    assert!(failed_sends > 0, "the kill must interrupt the storm");

    // The active is gone: dropping the runtime drops the peer link, the
    // strongest death signal. (A silent hang would instead trip the
    // heartbeat timeout — covered by the openflow crate's unit tests.)
    drop(rt);
    standby.poll();
    assert!(standby.peer_dead(Duration::from_secs(60)));
    assert_eq!(standby.switches(), DPIDS.to_vec());
    for dpid in DPIDS {
        // The seam mods were barrier-retired before the storm; the whole
        // storm (sent and unsent halves alike) is still un-barriered.
        assert_eq!(
            standby.pending(dpid),
            STORM / 2,
            "switch {dpid:#x} mirror holds exactly the un-barriered storm"
        );
    }

    // --- Takeover: dial both switches through the nodes' listeners (a
    // fresh accept replaces the dead control link) and replay the mirror.
    let adopted = standby
        .take_over(Duration::from_secs(10), |dpid| {
            let t = TcpTransport::connect(addr_of[&dpid])
                .map_err(|e| OfError::Unknown(e.to_string()))?;
            Ok(Box::new(t) as Box<dyn Transport>)
        })
        .expect("standby takes the fabric over");
    assert_eq!(adopted.len(), 2);

    // The standby promotes itself to an ordinary fabric controller over
    // the adopted connections; announcing re-installs the seam rules
    // (idempotent re-Adds).
    let mut rt2 = FabricRuntime::new(ChainSteering::new(chain.seams.clone()));
    for (_dpid, conn) in adopted {
        rt2.add_switch(conn);
    }
    rt2.run_until_ready(Duration::from_secs(10))
        .expect("re-announce");
    assert!(
        settle(&mut rt2, Duration::from_secs(10)),
        "seams re-settled"
    );

    // --- Exactly-once: every storm rule and every seam rule appears
    // exactly once on its switch, and nothing surfaced as FlowRemoved.
    for dpid in DPIDS {
        let stats = rt2
            .connection(dpid)
            .expect("announced")
            .flow_stats(Duration::from_secs(5))
            .expect("flow stats");
        for i in (0..STORM).filter(|&i| storm_dpid(i) == dpid) {
            let matching: Vec<_> = stats
                .iter()
                .filter(|e| e.cookie == storm_cookie(i))
                .collect();
            assert_eq!(
                matching.len(),
                1,
                "storm cookie {:#x} once",
                storm_cookie(i)
            );
            assert_eq!(
                matching[0].actions,
                vec![Action::Output(PortNo(600 + i as u16))],
                "stale actions for cookie {:#x}",
                storm_cookie(i)
            );
        }
        for seam in &chain.seams[&dpid] {
            assert_eq!(
                stats.iter().filter(|e| e.cookie == seam.cookie).count(),
                1,
                "seam cookie {:#x} once",
                seam.cookie
            );
        }
    }
    rt2.poll();
    assert!(
        rt2.app().flow_removed().is_empty(),
        "replay produced spurious FlowRemoved: {:?}",
        rt2.app().flow_removed()
    );

    // --- The datapath never noticed: the highway link is still up and
    // the chain still passes the census under the new controller.
    assert!(fabric
        .node(0)
        .wait_highway_converged(Duration::from_secs(15)));
    assert!(fabric.node(0).active_links().contains(&intra));
    let base2 = arena.stats();
    let got = pump_census(&mut chain.entry, &mut chain.exit, CENSUS_PKTS, &arena);
    assert_eq!(got, CENSUS_PKTS, "census packets lost post-failover");
    let after2 = arena.stats();
    assert_eq!(after2.allocs - base2.allocs, CENSUS_PKTS);
    assert_eq!(after2.slab_writes - base2.slab_writes, CENSUS_PKTS);
    assert_eq!(after2.foreign_frees, 0);

    // --- Deleting the storm rules yields exactly one FlowRemoved per
    // cookie: the replay really left no hidden duplicates behind.
    for i in 0..STORM {
        rt2.connection(storm_dpid(i))
            .expect("announced")
            .send(&OfpMessage::FlowMod(FlowMod::delete_strict(
                FlowMatch::in_port(PortNo(500 + i as u16)),
                100,
            )))
            .expect("delete over the adopted link");
    }
    for dpid in DPIDS {
        rt2.connection(dpid)
            .expect("announced")
            .barrier(Duration::from_secs(5))
            .expect("delete barrier");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while rt2.app().flow_removed().len() < STORM && Instant::now() < deadline {
        rt2.poll();
        std::thread::sleep(Duration::from_millis(1));
    }
    let removed = rt2.app().flow_removed();
    assert_eq!(removed.len(), STORM, "one FlowRemoved per storm cookie");
    for i in 0..STORM {
        assert_eq!(
            removed.get(&storm_cookie(i)),
            Some(&1),
            "cookie {:#x} removed exactly once",
            storm_cookie(i)
        );
    }
    for cookie in &seam_cookies {
        assert!(
            !removed.contains_key(cookie),
            "seam cookie {cookie:#x} was never deleted"
        );
    }

    fabric.stop();
    chain.shutdown_vms();
}
