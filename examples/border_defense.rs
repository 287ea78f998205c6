//! Border defense, live: a DNS reflection flood quarantined by the
//! anti-amplification guard over **real loopback TCP**.
//!
//! Two switches dial the controller via `sav-channel`: an external transit
//! switch (AS 1) carrying a bot, a legitimate client and the victim, and a
//! border switch (AS 0) fronting an open resolver and an echo service. The
//! bot floods the resolver with ANY-queries spoofed to the victim's
//! address; the resolver's x10 responses converge on the victim until the
//! guard — fed by the stats poller's 100 ms flow-stats ticks — sees the
//! response/request ratio blow through the 3x budget and installs the
//! quarantine pair at the border. The flood dies within one poll interval;
//! the legitimate client's balanced echo exchange keeps working throughout.
//!
//! The run self-scrapes its `/metrics` endpoint at the end: the
//! `sav_border_quarantined` gauge and deny counters must be visible, and
//! the journal must carry the `amplification_deny` event.
//!
//! ```text
//! cargo run --release -p sav-examples --bin border_defense
//! ```

use sav_border::BorderGuardApp;
use sav_channel::backoff::BackoffPolicy;
use sav_channel::client::{self, ClientConfig};
use sav_channel::fault::FaultPlan;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{BorderConfig, SavApp, SavConfig, StatsPollerApp};
use sav_dataplane::host::{Delivery, Host, HostApp, HostConfig, SpoofMode};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::dns::{DnsRepr, DnsType};
use sav_net::prelude::*;
use sav_obs::http::http_get;
use sav_obs::{Obs, ObsServer};
use sav_openflow::ports::PortDesc;
use sav_topo::routes::Routes;
use sav_topo::{SwitchRole, Topology};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mk_switch(dpid: u64, nports: u32) -> OpenFlowSwitch {
    let ports = (1..=nports)
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
}

/// One switch client plus the hosts hanging off its access ports.
struct Node {
    injector: SyncSender<(u32, Vec<u8>)>,
    delivered_rx: Receiver<(u32, Vec<u8>)>,
    hosts: HashMap<u32, Host>,
    trunk: u32,
    peer_trunk: u32,
}

/// Drain both switches, forwarding trunk frames across the wire and
/// access-port frames into the hosts; returns application deliveries as
/// `(node, port, delivery)`.
fn pump(nodes: &mut [Node; 2]) -> Vec<(usize, u32, Delivery)> {
    let mut out = Vec::new();
    let mut moved = true;
    while moved {
        moved = false;
        for i in 0..2 {
            while let Ok((port, frame)) = nodes[i].delivered_rx.try_recv() {
                moved = true;
                if port == nodes[i].trunk {
                    let peer_port = nodes[i].peer_trunk;
                    nodes[1 - i].injector.send((peer_port, frame)).unwrap();
                    continue;
                }
                if let Some(host) = nodes[i].hosts.get_mut(&port) {
                    let ho = host.on_frame(&frame);
                    for tx in ho.tx {
                        nodes[i].injector.send((port, tx)).unwrap();
                    }
                    for d in ho.delivered {
                        out.push((i, port, d));
                    }
                }
            }
        }
    }
    out
}

fn pump_for(nodes: &mut [Node; 2], dur: Duration) -> Vec<(usize, u32, Delivery)> {
    let deadline = Instant::now() + dur;
    let mut out = Vec::new();
    while Instant::now() < deadline {
        out.extend(pump(nodes));
        std::thread::sleep(Duration::from_millis(2));
    }
    out
}

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
    // ---- The world: AS 1 (outside) —— border —— AS 0 (resolver net). ----
    let mut t = Topology::new();
    let ext = t.add_switch("ext", SwitchRole::Core, 1);
    let border = t.add_switch("border", SwitchRole::Border, 0);
    t.link_switches(ext, border); // ext:1 <-> border:1, the cross-AS trunk
    let ext_subnet = "198.51.100.0/24".parse().unwrap();
    let bot = t.attach_host("bot", ext, "198.51.100.66".parse().unwrap(), ext_subnet);
    let legit = t.attach_host("legit", ext, "198.51.100.10".parse().unwrap(), ext_subnet);
    let victim = t.attach_host("victim", ext, "198.51.100.9".parse().unwrap(), ext_subnet);
    let inner = "10.0.1.0/24".parse().unwrap();
    let resolver = t.attach_host("resolver", border, "10.0.1.53".parse().unwrap(), inner);
    let echo = t.attach_host("echo", border, "10.0.1.7".parse().unwrap(), inner);
    let topo = Arc::new(t);
    let routes = Arc::new(Routes::compute(&topo));

    let obs = Obs::with_tracing();
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(SavApp::new(topo.clone(), SavConfig::default()).with_obs(obs.clone())),
        Box::new(StatsPollerApp::new(obs.clone()).with_per_binding_gauges(false)),
        Box::new(BorderGuardApp::new(
            topo.clone(),
            BorderConfig {
                obs: Some(obs.clone()),
                ..BorderConfig::default()
            },
        )),
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
    let (ext_tx, ext_rx) = channel();
    let (bor_tx, bor_rx) = channel();
    let c_ext = client::spawn(
        addr,
        mk_switch(ext.dpid(), 4),
        client_config(1),
        vec![],
        ext_tx,
    );
    let c_bor = client::spawn(
        addr,
        mk_switch(border.dpid(), 3),
        client_config(2),
        vec![],
        bor_tx,
    );

    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(10), || ctrl.lock().ready_dpids().len()
            == 2),
        "both switches must complete the handshake"
    );
    println!("handshake complete: sampler installed on the border trunk\n");

    let h = |id: sav_topo::HostId| topo.hosts()[id.0].clone();
    let mk_host = |id: sav_topo::HostId, app: HostApp| {
        let n = h(id);
        let mut host = Host::new(HostConfig {
            mac: n.mac,
            ip: n.ip,
            app,
        });
        // Pre-seed ARP: the demo is about L3 budgets, not resolution.
        for other in topo.hosts() {
            host.learn_arp(other.ip, other.mac);
        }
        host
    };
    let mut nodes = [
        Node {
            injector: c_ext.injector(),
            delivered_rx: ext_rx,
            trunk: 1,
            peer_trunk: 1,
            hosts: HashMap::from([
                (h(bot).port, mk_host(bot, HostApp::Sink)),
                (h(legit).port, mk_host(legit, HostApp::Sink)),
                (h(victim).port, mk_host(victim, HostApp::Sink)),
            ]),
        },
        Node {
            injector: c_bor.injector(),
            delivered_rx: bor_rx,
            trunk: 1,
            peer_trunk: 1,
            hosts: HashMap::from([
                (
                    h(resolver).port,
                    mk_host(resolver, HostApp::DnsResolver { amplification: 10 }),
                ),
                (h(echo).port, mk_host(echo, HostApp::UdpEcho { port: 7 })),
            ]),
        },
    ];

    let send_from = |nodes: &mut [Node; 2],
                     node: usize,
                     id: sav_topo::HostId,
                     out: sav_dataplane::host::HostOutput| {
        let port = h(id).port;
        for f in out.tx {
            nodes[node].injector.send((port, f)).unwrap();
        }
    };
    let keepalive = |nodes: &mut [Node; 2]| {
        let port = h(legit).port;
        let out = nodes[0].hosts.get_mut(&port).unwrap().send_udp(
            h(echo).ip,
            5555,
            7,
            b"keepalive",
            SpoofMode::None,
        );
        send_from(nodes, 0, legit, out);
    };
    let echo_replies = |ds: &[(usize, u32, Delivery)]| {
        ds.iter()
            .filter(|(n, p, d)| *n == 0 && *p == h(legit).port && d.src_port == 7)
            .count()
    };
    let victim_bytes = |ds: &[(usize, u32, Delivery)]| -> u64 {
        ds.iter()
            .filter(|(n, p, d)| *n == 0 && *p == h(victim).port && d.src_port == 53)
            .map(|(_, _, d)| d.frame_len as u64)
            .sum()
    };

    // ---- Phase 1: the legitimate client has connectivity. ---------------
    keepalive(&mut nodes);
    let ds = pump_for(&mut nodes, Duration::from_millis(300));
    assert!(
        echo_replies(&ds) >= 1,
        "legit client must reach the echo service before the attack"
    );
    println!("phase 1: legit client <-> echo service round-trip OK");

    // ---- Phase 2: DNS reflection flood, spoofed to the victim. ----------
    let flood = |nodes: &mut [Node; 2], n: u16| {
        let port = h(bot).port;
        for q in 0..n {
            let query = DnsRepr::query(q + 1, "amplify.example.com", DnsType::Any).to_bytes();
            let out = nodes[0].hosts.get_mut(&port).unwrap().send_udp(
                h(resolver).ip,
                50_000 + q,
                53,
                &query,
                SpoofMode::Ipv4(h(victim).ip),
            );
            send_from(nodes, 0, bot, out);
        }
    };
    flood(&mut nodes, 40);
    let ds = pump_for(&mut nodes, Duration::from_millis(150));
    let pre_quarantine = victim_bytes(&ds);
    println!(
        "phase 2: flood launched — victim absorbed {pre_quarantine} amplified bytes before the guard reacts"
    );
    assert!(
        pre_quarantine > 0,
        "amplified responses must reach the victim before quarantine"
    );

    // The guard is clocked by the server's 100 ms poll: the quarantine must
    // land within roughly one interval.
    let t0 = Instant::now();
    assert!(
        wait_for(Duration::from_secs(5), || {
            pump(&mut nodes);
            obs.gauges.get(&format!(
                "sav_border_quarantined{{dpid=\"{}\"}}",
                border.dpid()
            )) == Some(1.0)
        }),
        "guard must quarantine the spoofed source"
    );
    println!(
        "phase 2: victim's address quarantined at the border after {:?}",
        t0.elapsed()
    );

    // ---- Phase 3: the flood is dead, the legit client is not. -----------
    flood(&mut nodes, 40);
    keepalive(&mut nodes);
    let ds = pump_for(&mut nodes, Duration::from_millis(400));
    let post_quarantine = victim_bytes(&ds);
    let replies = echo_replies(&ds);
    println!(
        "phase 3: {post_quarantine} victim bytes after quarantine (was {pre_quarantine}); \
         legit echo replies still flowing: {replies}"
    );
    assert_eq!(
        post_quarantine, 0,
        "the deny pair must stop victim-bound responses at the border"
    );
    assert!(
        replies >= 1,
        "the legitimate client must keep connectivity through the attack"
    );

    // ---- Self-scrape: the quarantine is visible to an operator. ---------
    let (status, metrics) = http_get(obs_addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("sav_border_quarantined"),
        "scrape must expose the quarantine gauge"
    );
    assert!(
        metrics.contains("sav_border_denies_total"),
        "scrape must expose the deny counter"
    );
    assert!(
        metrics.contains("sav_border_denied_bytes_total"),
        "scrape must expose the denied-bytes counter"
    );
    println!("\nself-scrape of http://{obs_addr}/metrics — border series:");
    for line in metrics
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with("sav_border"))
    {
        println!("  {line}");
    }
    let (status, events) = http_get(obs_addr, "/events?n=10").expect("scrape /events");
    assert_eq!(status, 200);
    assert!(
        events.contains("amplification_deny"),
        "journal must carry the amplification_deny event"
    );
    println!("last journal events:");
    for line in events.lines() {
        println!("  {line}");
    }

    c_ext.stop();
    c_bor.stop();
    obs_server.shutdown();
    server.shutdown();
    println!("\nreflection flood quarantined at the border within one poll interval;");
    println!("the legitimate external client never lost connectivity.");
}
