//! Integration tests for the sav-channel TCP transport: the sans-IO
//! controller and switch cores over real loopback sockets, with keepalives,
//! reconnect, and fault injection, driven through the shared
//! [`sav_integration_tests::live`] harness.

use sav_channel::client::{self, ClientConfig, Link, INJECT_QUEUE_DEPTH};
use sav_channel::fault::FaultPlan;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig};
use sav_integration_tests::live::{fast_client_config, fast_server_config, mk_switch, wait_for};
use sav_net::builder::build_ipv4_udp;
use sav_net::prelude::*;
use sav_openflow::framing::Deframer;
use sav_openflow::messages::{EchoData, FeaturesReply, Message};
use sav_topo::generators;
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sav_apps(topo: &Arc<Topology>) -> Vec<Box<dyn App>> {
    let routes = Arc::new(Routes::compute(topo));
    vec![
        Box::new(SavApp::new(topo.clone(), SavConfig::default())),
        Box::new(L2RoutingApp::new(topo.clone(), routes)),
    ]
}

fn udp_between(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    tag: &[u8],
) -> Vec<u8> {
    let udp = UdpRepr {
        src_port: 7,
        dst_port: 7,
        payload_len: tag.len(),
    };
    let ip = Ipv4Repr::udp(src_ip, dst_ip, udp.buffer_len());
    let eth = EthernetRepr {
        src: src_mac,
        dst: dst_mac,
        ethertype: EtherType::Ipv4,
    };
    build_ipv4_udp(&eth, &ip, &udp, tag)
}

/// Two switches over real loopback TCP: the handshake completes, SAV rules
/// install, and a spoofed packet dies at the first switch while the honest
/// one crosses the fabric — end to end through sav-channel.
#[test]
fn loopback_tcp_sav_end_to_end() {
    let topo = Arc::new(generators::linear(2, 2));
    let server = SouthboundServer::bind(
        "127.0.0.1:0",
        fast_server_config(),
        Controller::new(sav_apps(&topo)),
    )
    .unwrap();
    let addr = server.local_addr();

    let (delivered_tx, delivered_rx) = channel();
    // Start s1 first so s0's trunk link can reference its injector.
    let c1 = client::spawn(
        addr,
        mk_switch(2, 3),
        fast_client_config(2),
        vec![],
        delivered_tx.clone(),
    );
    let c0 = client::spawn(
        addr,
        mk_switch(1, 3),
        fast_client_config(1),
        vec![Link {
            local_port: 1,
            peer: c1.injector(),
            peer_port: 1,
        }],
        delivered_tx,
    );

    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(10), || ctrl.lock().ready_dpids().len()
            == 2),
        "both switches must complete the TCP handshake"
    );

    // Host 0 (on s0) sends to host 3 (on s1): honest src, then a spoofed src.
    let h0 = &topo.hosts()[0];
    let h3 = &topo.hosts()[3];
    assert_eq!(h0.switch.dpid(), 1);
    assert_eq!(h3.switch.dpid(), 2);
    let honest = udp_between(h0.mac, h3.mac, h0.ip, h3.ip, b"honest");
    let spoofed = udp_between(
        h0.mac,
        h3.mac,
        "203.0.113.66".parse().unwrap(),
        h3.ip,
        b"spoofed",
    );
    let inject = c0.injector();
    inject.send((h0.port, honest)).unwrap();
    inject.send((h0.port, spoofed)).unwrap();

    // The honest frame must pop out of a host port on s1.
    let mut got = Vec::new();
    assert!(
        wait_for(Duration::from_secs(10), || {
            while let Ok(d) = delivered_rx.try_recv() {
                got.push(d);
            }
            got.iter().any(|(_, f)| f.ends_with(b"honest"))
        }),
        "honest frame must cross the fabric"
    );
    // Allow any in-flight spoofed frame time to (not) arrive.
    std::thread::sleep(Duration::from_millis(200));
    while let Ok(d) = delivered_rx.try_recv() {
        got.push(d);
    }
    assert!(
        !got.iter().any(|(_, f)| f.ends_with(b"spoofed")),
        "spoofed frame must be filtered at s0"
    );

    // Transport metrics saw real traffic on both sides.
    let s = c0.metrics().stats();
    assert!(
        s.bytes_in > 0 && s.bytes_out > 0,
        "client moved bytes: {s:?}"
    );
    let srv = server.conn_metrics(0).unwrap().stats();
    assert!(srv.bytes_in > 0 && srv.bytes_out > 0 && srv.msgs_in > 0 && srv.msgs_out > 0);

    c0.stop();
    c1.stop();
    server.shutdown();
}

/// A peer that handshakes and then goes silent is detected by the
/// controller-initiated keepalive and declared dead: `on_switch_down`
/// fires and the dpid disappears from the ready set.
#[test]
fn keepalive_detects_silent_peer() {
    let server =
        SouthboundServer::bind("127.0.0.1:0", fast_server_config(), Controller::new(vec![]))
            .unwrap();

    // Hand-rolled silent switch: completes the handshake with raw message
    // encodes, then never writes another byte (and never answers echoes).
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    sock.write_all(&Message::Hello.encode(1)).unwrap();
    let mut deframer = Deframer::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut done_handshake = false;
    while !done_handshake && Instant::now() < deadline {
        let n = match sock.read(&mut buf) {
            Ok(n) => n,
            Err(_) => continue,
        };
        deframer.push(&buf[..n]).unwrap();
        while let Some((msg, xid)) = deframer.next_message().unwrap() {
            if msg == Message::FeaturesRequest {
                let reply = Message::FeaturesReply(FeaturesReply {
                    datapath_id: 0xdead,
                    n_buffers: 0,
                    n_tables: 1,
                    auxiliary_id: 0,
                    capabilities: 0,
                })
                .encode(xid);
                sock.write_all(&reply).unwrap();
                done_handshake = true;
            }
        }
    }
    assert!(done_handshake, "manual handshake must complete");

    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(5), || ctrl.lock().ready_dpids()
            == vec![0xdead]),
        "switch must be ready after FEATURES_REPLY"
    );

    // Now stay silent. The keepalive deadline must kill the switch.
    assert!(
        wait_for(Duration::from_secs(10), || ctrl
            .lock()
            .ready_dpids()
            .is_empty()),
        "silent switch must be declared dead"
    );
    assert!(server.server_metrics().stats().dead_declared >= 1);
    assert!(
        ctrl.lock().stats.echo_sent >= 1,
        "death must follow unanswered controller keepalives"
    );
    server.shutdown();
}

/// Kill the connection under a live switch: the client reconnects with
/// backoff, replays the handshake, and SAV filtering resumes without any
/// manual re-binding (on_switch_up reinstalls the rules).
#[test]
fn reconnect_restores_filtering() {
    let topo = Arc::new(generators::linear(1, 2));
    let server = SouthboundServer::bind(
        "127.0.0.1:0",
        fast_server_config(),
        Controller::new(sav_apps(&topo)),
    )
    .unwrap();

    let (delivered_tx, delivered_rx) = channel();
    let c0 = client::spawn(
        server.local_addr(),
        mk_switch(1, 3),
        fast_client_config(7),
        vec![],
        delivered_tx,
    );
    let ctrl = server.controller();
    assert!(wait_for(Duration::from_secs(10), || {
        ctrl.lock().ready_dpids() == vec![1]
    }));

    // Crash the connection (abrupt close, no goodbye).
    c0.drop_connection();
    assert!(
        wait_for(Duration::from_secs(5), || ctrl
            .lock()
            .ready_dpids()
            .is_empty()),
        "server must notice the dead connection"
    );
    // ...and the client must come back on its own.
    assert!(
        wait_for(Duration::from_secs(10), || ctrl.lock().ready_dpids()
            == vec![1]),
        "client must reconnect with backoff and re-handshake"
    );
    assert!(c0.metrics().stats().reconnects >= 1);

    // Filtering works again with no manual re-binding: host0 -> host1 on
    // the same switch, honest delivered, spoofed dropped.
    let h0 = &topo.hosts()[0];
    let h1 = &topo.hosts()[1];
    let honest = udp_between(h0.mac, h1.mac, h0.ip, h1.ip, b"honest");
    let spoofed = udp_between(
        h0.mac,
        h1.mac,
        "203.0.113.9".parse().unwrap(),
        h1.ip,
        b"spoofed",
    );
    let inject = c0.injector();
    inject.send((h0.port, honest)).unwrap();
    inject.send((h0.port, spoofed)).unwrap();

    let mut got = Vec::new();
    assert!(
        wait_for(Duration::from_secs(10), || {
            while let Ok(d) = delivered_rx.try_recv() {
                got.push(d);
            }
            got.iter().any(|(_, f)| f.ends_with(b"honest"))
        }),
        "honest frame must be delivered after reconnect"
    );
    std::thread::sleep(Duration::from_millis(200));
    while let Ok(d) = delivered_rx.try_recv() {
        got.push(d);
    }
    assert!(!got.iter().any(|(_, f)| f.ends_with(b"spoofed")));

    c0.stop();
    server.shutdown();
}

/// Under a lossy FaultPlan (drops corrupt the framed stream, resets cut
/// connections mid-handshake) the channel converges once the fault budget
/// is spent, and SAV accuracy is unchanged: honest delivered, spoof dropped.
#[test]
fn sav_accuracy_unchanged_under_lossy_faultplan() {
    let topo = Arc::new(generators::linear(1, 2));
    let server = SouthboundServer::bind(
        "127.0.0.1:0",
        fast_server_config(),
        Controller::new(sav_apps(&topo)),
    )
    .unwrap();

    let (delivered_tx, delivered_rx) = channel();
    let lossy = ClientConfig {
        fault: FaultPlan::seeded(0xbad, 6)
            .with_drops(0.4)
            .with_resets(0.2)
            .with_splits(0.5)
            .with_latency(Duration::from_millis(1)),
        ..fast_client_config(3)
    };
    let c0 = client::spawn(
        server.local_addr(),
        mk_switch(1, 3),
        lossy,
        vec![],
        delivered_tx,
    );
    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(30), || ctrl.lock().ready_dpids()
            == vec![1]),
        "channel must converge once the fault budget is spent"
    );

    let h0 = &topo.hosts()[0];
    let h1 = &topo.hosts()[1];
    let honest = udp_between(h0.mac, h1.mac, h0.ip, h1.ip, b"honest");
    let spoofed = udp_between(
        h0.mac,
        h1.mac,
        "198.51.100.3".parse().unwrap(),
        h1.ip,
        b"spoofed",
    );
    let inject = c0.injector();
    inject.send((h0.port, honest)).unwrap();
    inject.send((h0.port, spoofed)).unwrap();

    let mut got = Vec::new();
    assert!(wait_for(Duration::from_secs(10), || {
        while let Ok(d) = delivered_rx.try_recv() {
            got.push(d);
        }
        got.iter().any(|(_, f)| f.ends_with(b"honest"))
    }));
    std::thread::sleep(Duration::from_millis(200));
    while let Ok(d) = delivered_rx.try_recv() {
        got.push(d);
    }
    assert!(
        !got.iter().any(|(_, f)| f.ends_with(b"spoofed")),
        "fault injection must not weaken SAV"
    );

    c0.stop();
    server.shutdown();
}

/// Deterministic fault injection against the event-loop server: a client
/// whose FaultPlan resets every write until its fault budget is spent
/// produces the same reconnect/backoff observables as thread-era runs —
/// forced reconnects while the budget lasts, then convergence to Ready
/// with live keepalives, and the server never misattributes the resets
/// as keepalive deaths.
#[test]
fn faultplan_resets_force_reconnects_then_converge() {
    let server =
        SouthboundServer::bind("127.0.0.1:0", fast_server_config(), Controller::new(vec![]))
            .unwrap();
    let resetting = ClientConfig {
        fault: FaultPlan::seeded(0x5eed, 3).with_resets(1.0),
        ..fast_client_config(9)
    };
    let (delivered_tx, _delivered_rx) = channel();
    let c0 = client::spawn(
        server.local_addr(),
        mk_switch(7, 3),
        resetting,
        vec![],
        delivered_tx,
    );
    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(30), || ctrl.lock().ready_dpids()
            == vec![7]),
        "the client must converge once the reset budget is spent"
    );
    assert!(
        c0.metrics().stats().reconnects >= 1,
        "spent resets must show up as client reconnects"
    );
    // Liveness is restored: keepalive round trips accumulate post-fault.
    assert!(
        wait_for(Duration::from_secs(10), || server
            .server_metrics()
            .echo_rtt()
            .count()
            >= 2),
        "keepalives must run on the converged connection"
    );
    assert!(
        ctrl.lock().ready_dpids() == vec![7],
        "the converged connection must hold"
    );

    c0.stop();
    server.shutdown();
}

/// The controller answers echo keepalives and the server measures RTTs;
/// metrics expose queue depth, message counts, and the RTT histogram.
#[test]
fn keepalive_rtt_lands_in_metrics() {
    let server = SouthboundServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            echo_interval: Duration::from_millis(30),
            ..fast_server_config()
        },
        Controller::new(vec![]),
    )
    .unwrap();
    let (delivered_tx, _delivered_rx) = channel();
    let c0 = client::spawn(
        server.local_addr(),
        mk_switch(5, 3),
        fast_client_config(11),
        vec![],
        delivered_tx,
    );
    let ctrl = server.controller();
    assert!(wait_for(Duration::from_secs(10), || {
        ctrl.lock().ready_dpids() == vec![5]
    }));
    // A few echo rounds must complete and land RTT samples.
    assert!(
        wait_for(Duration::from_secs(10), || server
            .server_metrics()
            .echo_rtt()
            .count()
            >= 3),
        "echo RTT histogram must accumulate samples"
    );
    {
        let c = ctrl.lock();
        assert!(c.stats.echo_sent >= 3);
        assert!(c.stats.echo_replies >= 3);
    }
    let m = server.conn_metrics(0).unwrap();
    let s = m.stats();
    assert!(s.msgs_out >= 3, "echo requests count as outbound messages");
    assert!(s.msgs_in >= 3, "echo replies count as inbound messages");
    assert!(m.echo_rtt().count() >= 3);
    // RTTs on loopback are sane: positive and under a second.
    assert!(m.echo_rtt().max() < 1.0, "rtt max = {}", m.echo_rtt().max());

    c0.stop();
    server.shutdown();
}

/// An unanswerable echo keepalive from the switch side: the switch's own
/// echo request is answered by the controller (liveness both ways).
#[test]
fn switch_initiated_echo_is_answered() {
    let server =
        SouthboundServer::bind("127.0.0.1:0", fast_server_config(), Controller::new(vec![]))
            .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    sock.write_all(&Message::Hello.encode(1)).unwrap();

    let mut deframer = Deframer::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut ready = false;
    let mut echo_reply = None;
    let mut sent_echo = false;
    while echo_reply.is_none() && Instant::now() < deadline {
        let n = match sock.read(&mut buf) {
            Ok(n) => n,
            Err(_) => continue,
        };
        deframer.push(&buf[..n]).unwrap();
        while let Some((msg, xid)) = deframer.next_message().unwrap() {
            match msg {
                Message::FeaturesRequest => {
                    let reply = Message::FeaturesReply(FeaturesReply {
                        datapath_id: 0xf00,
                        n_buffers: 0,
                        n_tables: 1,
                        auxiliary_id: 0,
                        capabilities: 0,
                    })
                    .encode(xid);
                    sock.write_all(&reply).unwrap();
                    ready = true;
                }
                Message::EchoRequest(d) => {
                    // Keep the server's liveness check satisfied.
                    sock.write_all(&Message::EchoReply(d).encode(xid)).unwrap();
                    if ready && !sent_echo {
                        sent_echo = true;
                        sock.write_all(
                            &Message::EchoRequest(EchoData(b"from-switch".to_vec())).encode(42),
                        )
                        .unwrap();
                    }
                }
                Message::EchoReply(d) => {
                    echo_reply = Some(d.0);
                }
                _ => {}
            }
        }
    }
    assert_eq!(
        echo_reply,
        Some(b"from-switch".to_vec()),
        "controller must answer switch-initiated echo with the same payload"
    );
    server.shutdown();
}

/// The injector queue is bounded: a switch that is not serving (here, it
/// dials an address nobody listens on) stops draining it, and frames past
/// [`INJECT_QUEUE_DEPTH`] are shed and counted, one for one.
#[test]
fn injector_sheds_past_its_depth_and_counts_each_drop() {
    let nowhere = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let (delivered_tx, _delivered_rx) = channel();
    let c0 = client::spawn(
        nowhere,
        mk_switch(4, 3),
        fast_client_config(13),
        vec![],
        delivered_tx,
    );
    const EXCESS: usize = 7;
    let accepted = (0..INJECT_QUEUE_DEPTH + EXCESS)
        .filter(|_| c0.inject(1, vec![0u8; 64]))
        .count();
    assert_eq!(accepted, INJECT_QUEUE_DEPTH);
    assert_eq!(c0.metrics().stats().frames_dropped, EXCESS as u64);
    c0.stop();
}
