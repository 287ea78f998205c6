//! Live deployment shape: the sans-IO controller and switch cores over
//! **real loopback TCP** via `sav-channel` — listener, per-connection
//! threads, keepalives, and reconnect, exactly as a production southbound
//! channel would run.
//!
//! One `SouthboundServer` hosts the controller; two switch clients dial in
//! over 127.0.0.1, complete the OpenFlow handshake, and get SAV + forwarding
//! rules installed. A spoofed and an honest packet are injected at switch A;
//! only the honest one pops out of a host port on switch B. The connection
//! to switch A is then severed mid-run to show the client reconnecting with
//! backoff and filtering resuming with no manual re-binding.
//!
//! The run also hosts the full observability stack: an `Obs` handle threads
//! through the SAV app, the stats poller, and the transport, and an
//! `ObsServer` exposes `/metrics` + `/events` on its own loopback port. The
//! example scrapes itself at the end and asserts the metrics are non-empty,
//! so it doubles as the CI observability smoke check.
//!
//! ```text
//! cargo run --release -p sav-examples --bin live_controller
//! ```

use sav_channel::backoff::BackoffPolicy;
use sav_channel::client::{self, ClientConfig, Link};
use sav_channel::fault::FaultPlan;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig, StatsPollerApp};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::builder::build_ipv4_udp;
use sav_net::prelude::*;
use sav_obs::http::http_get;
use sav_obs::{Obs, ObsServer};
use sav_openflow::ports::PortDesc;
use sav_topo::generators;
use sav_topo::routes::Routes;
use std::net::Ipv4Addr;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mk_switch(dpid: u64) -> OpenFlowSwitch {
    let ports = (1..=3)
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
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

/// Poll `cond` until it holds or `timeout` passes; false on timeout.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn main() {
    // The topology/address plan drives the SAV config; the actual wiring is
    // real sockets: both switches dial the controller's TCP listener, and a
    // trunk Link carries data frames s0 port1 <-> s1 port1.
    let topo = Arc::new(generators::linear(2, 2));
    let routes = Arc::new(Routes::compute(&topo));
    let obs = Obs::with_tracing();
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(SavApp::new(topo.clone(), SavConfig::default()).with_obs(obs.clone())),
        Box::new(StatsPollerApp::new(obs.clone())),
        Box::new(L2RoutingApp::new(topo.clone(), routes)),
    ];

    let server = SouthboundServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            echo_interval: Duration::from_millis(100),
            liveness_timeout: Duration::from_secs(1),
            stats_poll_interval: Some(Duration::from_millis(100)),
            obs: Some(obs.clone()),
            ..ServerConfig::default()
        },
        Controller::new(apps),
    )
    .expect("bind loopback listener");
    let addr = server.local_addr();
    println!("controller listening on {addr}");
    let obs_server = ObsServer::bind("127.0.0.1:0", obs.clone()).expect("bind /metrics endpoint");
    let obs_addr = obs_server.local_addr();
    println!("observability endpoint on http://{obs_addr}/metrics");

    let client_config = |seed: u64| ClientConfig {
        backoff: BackoffPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_millis(500),
            seed,
        },
        fault: FaultPlan::none(),
        read_timeout: Duration::from_millis(5),
    };

    let (delivered_tx, delivered_rx) = channel();
    // Start s1 first so s0's trunk link can reference its frame injector.
    let c1 = client::spawn(
        addr,
        mk_switch(2),
        client_config(2),
        vec![],
        delivered_tx.clone(),
    );
    let c0 = client::spawn(
        addr,
        mk_switch(1),
        client_config(1),
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
    println!(
        "handshake complete over TCP: dpids {:?} ready, SAV + forwarding rules installed",
        ctrl.lock().ready_dpids()
    );

    // Demo traffic: host 0 (on s0) to host 3 (on s1), honest then spoofed.
    let h0 = &topo.hosts()[0];
    let h3 = &topo.hosts()[3];
    let honest = udp_between(h0.mac, h3.mac, h0.ip, h3.ip, b"honest");
    let spoofed = udp_between(
        h0.mac,
        h3.mac,
        "203.0.113.66".parse().unwrap(),
        h3.ip,
        b"spoofed",
    );
    let inject = c0.injector();
    inject.send((h0.port, honest.clone())).unwrap();
    inject.send((h0.port, spoofed.clone())).unwrap();

    let mut got = Vec::new();
    let honest_ok = wait_for(Duration::from_secs(10), || {
        while let Ok(d) = delivered_rx.try_recv() {
            got.push(d);
        }
        got.iter()
            .any(|(_, f): &(u32, Vec<u8>)| f.ends_with(b"honest"))
    });
    std::thread::sleep(Duration::from_millis(200));
    while let Ok(d) = delivered_rx.try_recv() {
        got.push(d);
    }

    println!("\nframes delivered to host ports:");
    for (port, frame) in got.iter() {
        let p = sav_net::packet::ParsedPacket::parse(frame).unwrap();
        println!(
            "  port {port}: src={:?} payload={:?}",
            p.ipv4_src(),
            String::from_utf8_lossy(p.l4_payload(frame).unwrap_or(&[]))
        );
    }
    let spoof_leaked = got.iter().any(|(_, f)| f.ends_with(b"spoofed"));
    println!("\nhonest delivered: {honest_ok}");
    println!("spoofed delivered: {spoof_leaked}");
    assert!(honest_ok, "honest frame must cross the two-switch fabric");
    assert!(!spoof_leaked, "spoofed frame must die at switch s0");

    // Sever s0's connection: the client reconnects with backoff, replays
    // the handshake, and SAV keeps filtering — no manual re-binding.
    println!("\nsevering s0's control connection...");
    c0.drop_connection();
    assert!(
        wait_for(Duration::from_secs(10), || c0.metrics().stats().reconnects
            >= 1
            && ctrl.lock().ready_dpids().len() == 2),
        "client must reconnect and re-handshake on its own"
    );
    println!(
        "reconnected after {} attempt(s); ready dpids {:?}",
        c0.metrics().stats().reconnects,
        ctrl.lock().ready_dpids()
    );

    inject.send((h0.port, spoofed)).unwrap();
    inject.send((h0.port, honest)).unwrap();
    let mut post = Vec::new();
    assert!(
        wait_for(Duration::from_secs(10), || {
            while let Ok(d) = delivered_rx.try_recv() {
                post.push(d);
            }
            post.iter()
                .any(|(_, f): &(u32, Vec<u8>)| f.ends_with(b"honest"))
        }),
        "honest frame must still be delivered after reconnect"
    );
    assert!(
        !post.iter().any(|(_, f)| f.ends_with(b"spoofed")),
        "spoofed frame must still be filtered after reconnect"
    );
    println!("post-reconnect: honest delivered, spoofed filtered");

    // Transport-level metrics: keepalive RTTs and channel counters.
    let rtt = server.server_metrics().echo_rtt();
    if rtt.count() > 0 {
        println!(
            "\nkeepalive RTT over loopback: {} samples, mean {:.1} us, max {:.1} us",
            rtt.count(),
            rtt.mean() * 1e6,
            rtt.max() * 1e6
        );
    }
    let s = c0.metrics().stats();
    println!(
        "s0 channel: {} B in / {} B out, reconnects {}",
        s.bytes_in, s.bytes_out, s.reconnects
    );
    let c = ctrl.lock();
    println!(
        "controller: {} echo sent / {} replies, {} handshake failures",
        c.stats.echo_sent, c.stats.echo_replies, c.stats.handshake_failures
    );
    drop(c);

    // Observability smoke: wait until the stats poller has attributed the
    // spoof drops, then scrape our own /metrics and /events endpoints the
    // same way an external Prometheus + operator would.
    assert!(
        wait_for(Duration::from_secs(10), || obs
            .counters
            .get("sav_spoof_dropped_total")
            > 0),
        "stats poller must observe the deny-rule drop deltas"
    );
    let (status, metrics) = http_get(obs_addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200, "metrics endpoint must answer 200");
    assert!(
        metrics.contains("sav_rules_installed_total"),
        "scrape must expose the rule-install counter"
    );
    assert!(
        metrics.contains("sav_spoof_dropped_total"),
        "scrape must expose the spoof-drop counter"
    );
    assert!(
        metrics.contains("sav_rule_compile_seconds"),
        "scrape must expose the rule-compile latency histogram"
    );
    println!("\nself-scrape of http://{obs_addr}/metrics — sample series:");
    for line in metrics.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("sav_spoof_dropped_total")
                || l.starts_with("sav_bindings")
                || l.starts_with("sav_rules_installed_total")
                || l.starts_with("sav_rule_compile_seconds_count"))
    }) {
        println!("  {line}");
    }
    let (status, events) = http_get(obs_addr, "/events?n=5").expect("scrape /events");
    assert_eq!(status, 200, "events endpoint must answer 200");
    println!("last journal events:");
    for line in events.lines() {
        println!("  {line}");
    }

    c0.stop();
    c1.stop();
    obs_server.shutdown();
    server.shutdown();
    println!("\nsame state machines as the simulator — now behind a real TCP");
    println!("southbound channel with keepalives and automatic reconnect.");
}
