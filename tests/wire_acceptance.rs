//! The PR's acceptance proof: one byte-identical OpenFlow 1.0 switch
//! stream drives two very different controller applications — the built-in
//! highway chain-steering controller and the ported learning switch —
//! through the same `Transport`/`Connection` API, and both consume every
//! frame.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vnf_highway::highway::{ChainSteering, Seam};
use vnf_highway::openflow::codec::encode;
use vnf_highway::openflow::messages::{OfpMessage, PacketIn, PacketInReason};
use vnf_highway::openflow::{FabricApp, FabricRuntime, LearningSwitch, ScriptedTransport};
use vnf_highway::packet::{MacAddr, PacketBuilder};
use vnf_highway::prelude::PortNo;

/// The canned switch→controller stream. Xids 1 and 2 answer the
/// handshake a fresh `Connection` deterministically emits (hello = xid 1,
/// features-request = xid 2); xid 5 acknowledges the barrier
/// `ChainSteering` sends after its two seams (flow-mods take xids 3–4).
/// The datapath id the scripted switch announces.
const DPID: u64 = 0xfeed;

fn switch_stream() -> Vec<u8> {
    let a = MacAddr::local(1);
    let b = MacAddr::local(2);
    let pkt = |src, dst| PacketBuilder::udp_probe(64).eth(src, dst).build();
    let mut bytes = Vec::new();
    bytes.extend(encode(&OfpMessage::Hello, 1));
    bytes.extend(encode(
        &OfpMessage::FeaturesReply {
            datapath_id: DPID,
            ports: vec![1, 2, 3],
        },
        2,
    ));
    bytes.extend(encode(&OfpMessage::EchoRequest(b"ping".to_vec()), 7));
    bytes.extend(encode(
        &OfpMessage::PacketIn(PacketIn {
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: pkt(a, b),
        }),
        100,
    ));
    bytes.extend(encode(
        &OfpMessage::PacketIn(PacketIn {
            in_port: PortNo(2),
            reason: PacketInReason::NoMatch,
            data: pkt(b, a),
        }),
        101,
    ));
    bytes.extend(encode(&OfpMessage::BarrierReply, 5));
    bytes
}

/// Runs `app` against the canned stream (chunked into 5-byte reads to
/// force reassembly) and returns the app plus the transport handle for
/// inspecting what the controller wrote back.
fn drive<A: FabricApp>(app: A) -> (FabricRuntime<A>, Arc<ScriptedTransport>) {
    let transport = Arc::new(ScriptedTransport::new(switch_stream()).with_chunk(5));
    let conn = vnf_highway::openflow::Connection::new(Box::new(Arc::clone(&transport)));
    let mut rt = FabricRuntime::new(app);
    rt.add_switch(conn);
    rt.run_until_ready(Duration::from_secs(2)).expect("ready");
    for _ in 0..50 {
        rt.poll();
    }
    (rt, transport)
}

#[test]
fn one_stream_drives_both_controller_apps() {
    // The stream really is byte-identical, not merely equivalent.
    assert_eq!(switch_stream(), switch_stream());

    let seams = vec![
        Seam::new(0, PortNo(1), PortNo(2)),
        Seam::new(1, PortNo(2), PortNo(3)),
    ];
    let (steering, steer_io) = drive(ChainSteering::new(HashMap::from([(DPID, seams)])));
    let (learning, learn_io) = drive(LearningSwitch::new());

    // Both connections completed the handshake off the same bytes.
    for conn in [
        steering
            .connection(DPID)
            .expect("steering switch registered"),
        learning
            .connection(DPID)
            .expect("learning switch registered"),
    ] {
        let features = conn.features().expect("features");
        assert_eq!(features.datapath_id, DPID);
        assert_eq!(features.ports, vec![1, 2, 3]);
    }

    // Every scripted byte was consumed and framed by both.
    assert_eq!(steer_io.unread(), 0);
    assert_eq!(learn_io.unread(), 0);

    // The chain-steering app installed its seams and saw the barrier ack;
    // the packet-ins were counted but did not perturb it.
    assert!(steering.app().settled(), "barrier ack must settle steering");
    assert_eq!(steering.app().packet_ins(), 2);

    // The learning switch learned both hosts and installed the pair of
    // rules once the second packet-in revealed the return path.
    assert_eq!(learning.app().known_hosts(DPID).map(|h| h.len()), Some(2));
    assert_eq!(learning.app().flows_installed(), 2);

    // Both auto-answered the switch's keepalive probe with the echoed
    // payload — the reply is in each app's outbound byte stream.
    let echo_reply = encode(&OfpMessage::EchoReply(b"ping".to_vec()), 7);
    for written in [steer_io.written(), learn_io.written()] {
        assert!(
            written
                .windows(echo_reply.len())
                .any(|w| w == echo_reply.as_slice()),
            "echo reply missing from controller output"
        );
    }
}
