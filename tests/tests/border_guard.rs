//! End-to-end anti-amplification: the border guard at the *reflector's*
//! network caps victim-bound response bytes near the RFC 9000-style 3x
//! budget even though neither the attacker's nor the victim's network
//! deploys anything — the deployment-incentive story inverted: the guard
//! protects the rest of the internet *from* the deploying network.
//!
//! A legitimate external client keeps a balanced exchange with an echo
//! service in the same network throughout the attack and must never be
//! quarantined.
//!
//! The first case runs in the deterministic testbed; the second runs the
//! same story over real loopback TCP and checks what an operator scrapes.

use sav_baselines::Mechanism;
use sav_bench::scenario::{build_testbed, to_cmd};
use sav_bench::ScenarioOpts;
use sav_border::BorderGuardApp;
use sav_channel::client;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::testbed::TestbedCmd;
use sav_controller::Controller;
use sav_core::{BorderConfig, SavApp, SavConfig, StatsPollerApp};
use sav_dataplane::host::{Delivery, Host, HostApp, HostConfig, HostOutput, SpoofMode};
use sav_integration_tests::live::{fast_client_config, mk_switch, pump, pump_for, wait_for, Edge};
use sav_net::dns::{DnsRepr, DnsType};
use sav_obs::http::http_get;
use sav_obs::{Obs, ObsServer};
use sav_sim::{SimDuration, SimTime};
use sav_topo::generators::multi_as;
use sav_topo::routes::Routes;
use sav_topo::{HostId, SwitchRole, Topology};
use sav_traffic::generators::reflection;
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const POLL: SimDuration = SimDuration::from_millis(250);
const HORIZON: SimTime = SimTime::from_secs(5);

/// AS 1 = botnet, AS 2 = open resolvers + echo service, AS 3 = victim +
/// an honest external client.
struct World {
    topo: Arc<Topology>,
    bots: Vec<usize>,
    resolvers: Vec<usize>,
    echo: usize,
    victim: usize,
    legit: usize,
}

fn world() -> World {
    let m = multi_as(3, 4);
    let topo = Arc::new(m.topo);
    let by_as = |as_id: u32| -> Vec<usize> {
        topo.hosts()
            .iter()
            .filter(|h| h.as_id == as_id)
            .map(|h| h.id.0)
            .collect()
    };
    let as2 = by_as(2);
    let as3 = by_as(3);
    World {
        bots: by_as(1),
        resolvers: as2[..3].to_vec(),
        echo: as2[3],
        victim: as3[0],
        legit: as3[1],
        topo,
    }
}

struct RunResult {
    victim_bytes: u64,
    query_bytes: u64,
    legit_replies: u64,
    obs: Obs,
}

/// Drive the reflection attack plus a concurrent legitimate exchange,
/// polling stats every `POLL`. Only AS 2 (the reflectors' network)
/// enforces anything; `with_guard` toggles its border guard.
fn run(w: &World, with_guard: bool) -> RunResult {
    let obs = Obs::new();
    let guard_obs = obs.clone();
    let resolvers = w.resolvers.clone();
    let echo = w.echo;
    let mut opts = ScenarioOpts {
        sav_overrides: Box::new(move |cfg| {
            cfg.enforced_ases = Some(vec![2]);
            if with_guard {
                cfg.border = Some(BorderConfig {
                    obs: Some(guard_obs),
                    ..BorderConfig::default()
                });
            }
        }),
        ..Default::default()
    };
    opts.host_app = Box::new(move |h| {
        if resolvers.contains(&h.id.0) {
            HostApp::DnsResolver { amplification: 10 }
        } else if h.id.0 == echo {
            HostApp::UdpEcho { port: 7 }
        } else {
            HostApp::Sink
        }
    });
    let mut tb = build_testbed(&w.topo, Mechanism::SdnSav, opts);
    tb.connect_control_plane();
    tb.run_until(SimTime::from_millis(100));

    let schedule = reflection(
        &w.topo,
        &w.bots,
        &w.resolvers,
        w.topo.hosts()[w.victim].ip,
        25.0,
        SimDuration::from_secs(2),
        777,
    );
    let mut query_bytes = 0u64;
    for (t, op) in &schedule.ops {
        if let sav_traffic::TrafficOp::Udp { payload, .. } = op {
            query_bytes += (payload.len() + 42) as u64;
        }
        tb.schedule(*t + SimDuration::from_millis(100), to_cmd(op));
    }
    // The honest client pings the echo service every 100 ms throughout —
    // a balanced bidirectional exchange across AS 2's border.
    let echo_ip = w.topo.hosts()[w.echo].ip;
    let mut t = SimTime::from_millis(150);
    while t < SimTime::from_secs(4) {
        tb.schedule(
            t,
            TestbedCmd::SendUdp {
                host: w.legit,
                dst_ip: echo_ip,
                src_port: 5555,
                dst_port: 7,
                payload: b"keepalive".to_vec(),
                spoof: SpoofMode::None,
            },
        );
        t += SimDuration::from_millis(100);
    }

    // Interleave traffic with periodic stats polls (the guard's clock).
    let mut now = SimTime::from_millis(100);
    while now < HORIZON {
        now += POLL;
        tb.run_until(now);
        tb.poll_tick(now);
    }
    tb.run_until(HORIZON + SimDuration::from_secs(1));

    let victim_bytes = tb
        .deliveries
        .iter()
        .filter(|d| d.host == w.victim && d.delivery.src_port == 53)
        .map(|d| d.delivery.frame_len as u64)
        .sum();
    let legit_replies = tb
        .deliveries
        .iter()
        .filter(|d| d.host == w.legit && d.delivery.src_port == 7)
        .count() as u64;
    RunResult {
        victim_bytes,
        query_bytes,
        legit_replies,
        obs,
    }
}

#[test]
fn border_guard_caps_reflection_and_spares_the_legit_client() {
    let w = world();

    let base = run(&w, false);
    assert!(
        base.victim_bytes > 3 * base.query_bytes,
        "sanity: unguarded reflection must amplify past the budget \
         ({} response vs {} query bytes)",
        base.victim_bytes,
        base.query_bytes
    );
    assert!(base.legit_replies > 30, "echo exchange works unguarded");
    assert!(
        !base
            .obs
            .journal
            .tail_jsonl(10_000)
            .contains("amplification_deny"),
        "no guard, no denies"
    );

    let guarded = run(&w, true);

    // The cap: at most 3x the attacker-sent bytes, plus what slips through
    // in the poll intervals before the first deny lands (bounded here by
    // two intervals of the unguarded flood rate).
    let slack = base.victim_bytes * 2 * POLL.as_nanos() / SimDuration::from_secs(2).as_nanos();
    assert!(
        guarded.victim_bytes <= 3 * guarded.query_bytes + slack,
        "victim got {} bytes; budget is 3 x {} + {} slack",
        guarded.victim_bytes,
        guarded.query_bytes,
        slack
    );
    assert!(
        guarded.victim_bytes < base.victim_bytes / 2,
        "guard must make a real dent: {} vs {}",
        guarded.victim_bytes,
        base.victim_bytes
    );

    // The guard journalled the quarantine, naming the spoofed source.
    let journal = guarded.obs.journal.tail_jsonl(10_000);
    let victim_ip = w.topo.hosts()[w.victim].ip.to_string();
    let denies: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("amplification_deny"))
        .collect();
    assert!(
        !denies.is_empty(),
        "expected at least one amplification_deny"
    );
    assert!(
        denies.iter().all(|l| l.contains(&victim_ip)),
        "every deny names the spoofed (victim) source: {denies:?}"
    );

    // Zero false positives: the honest client is never denied and its
    // exchange survives the attack window.
    let legit_ip = w.topo.hosts()[w.legit].ip.to_string();
    assert!(
        !denies.iter().any(|l| l.contains(&legit_ip)),
        "legit client must never be quarantined"
    );
    assert!(
        guarded.legit_replies > 30,
        "legit echo exchange keeps flowing under quarantine, got {}",
        guarded.legit_replies
    );

    // And the denied bytes surfaced on the metrics handle.
    assert!(guarded.obs.counters.get("sav_border_denies_total") >= 1);
}

/// The same attack over real loopback TCP. An external transit switch
/// (AS 1) carries a bot, a legitimate client and the victim; a border
/// switch (AS 0) fronts an open resolver and an echo service. The guard is
/// clocked by the server's 100 ms stats poll, so the quarantine must land
/// within a few intervals, and it must show on `/metrics` and `/events`.
#[test]
fn live_reflection_flood_is_quarantined_over_tcp() {
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
    .unwrap();
    let addr = server.local_addr();
    let obs_server = ObsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let obs_addr = obs_server.local_addr();

    let (ext_tx, ext_rx) = channel();
    let (bor_tx, bor_rx) = channel();
    let c_ext = client::spawn(
        addr,
        mk_switch(ext.dpid(), 4),
        fast_client_config(1),
        vec![],
        ext_tx,
    );
    let c_bor = client::spawn(
        addr,
        mk_switch(border.dpid(), 3),
        fast_client_config(2),
        vec![],
        bor_tx,
    );
    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(10), || ctrl.lock().ready_dpids().len()
            == 2),
        "both switches must complete the handshake"
    );

    let h = |id: HostId| topo.hosts()[id.0].clone();
    let mk_host = |id: HostId, app: HostApp| {
        let n = h(id);
        let mut host = Host::new(HostConfig {
            mac: n.mac,
            ip: n.ip,
            app,
        });
        // Pre-seeded ARP: the case is about L3 budgets, not resolution.
        for other in topo.hosts() {
            host.learn_arp(other.ip, other.mac);
        }
        host
    };
    let mut edges = [
        Edge {
            injector: c_ext.injector(),
            delivered_rx: ext_rx,
            trunks: HashMap::from([(1, (1, 1))]),
            hosts: HashMap::from([
                (h(bot).port, mk_host(bot, HostApp::Sink)),
                (h(legit).port, mk_host(legit, HostApp::Sink)),
                (h(victim).port, mk_host(victim, HostApp::Sink)),
            ]),
        },
        Edge {
            injector: c_bor.injector(),
            delivered_rx: bor_rx,
            trunks: HashMap::from([(1, (0, 1))]),
            hosts: HashMap::from([
                (
                    h(resolver).port,
                    mk_host(resolver, HostApp::DnsResolver { amplification: 10 }),
                ),
                (h(echo).port, mk_host(echo, HostApp::UdpEcho { port: 7 })),
            ]),
        },
    ];

    let send_from = |edges: &mut [Edge; 2], id: HostId, out: HostOutput| {
        for f in out.tx {
            edges[0].injector.send((h(id).port, f)).unwrap();
        }
    };
    let keepalive = |edges: &mut [Edge; 2]| {
        let out = edges[0].hosts.get_mut(&h(legit).port).unwrap().send_udp(
            h(echo).ip,
            5555,
            7,
            b"keepalive",
            SpoofMode::None,
        );
        send_from(edges, legit, out);
    };
    let flood = |edges: &mut [Edge; 2], n: u16| {
        for q in 0..n {
            let query = DnsRepr::query(q + 1, "amplify.example.com", DnsType::Any).to_bytes();
            let out = edges[0].hosts.get_mut(&h(bot).port).unwrap().send_udp(
                h(resolver).ip,
                50_000 + q,
                53,
                &query,
                SpoofMode::Ipv4(h(victim).ip),
            );
            send_from(edges, bot, out);
        }
    };
    let echo_replies = |ds: &[(usize, u32, Delivery)]| {
        ds.iter()
            .filter(|(e, p, d)| *e == 0 && *p == h(legit).port && d.src_port == 7)
            .count()
    };
    let victim_bytes = |ds: &[(usize, u32, Delivery)]| -> u64 {
        ds.iter()
            .filter(|(e, p, d)| *e == 0 && *p == h(victim).port && d.src_port == 53)
            .map(|(_, _, d)| d.frame_len as u64)
            .sum()
    };

    // Before the attack the legitimate client reaches the echo service.
    keepalive(&mut edges);
    let ds = pump_for(&mut edges, Duration::from_millis(300));
    assert!(
        echo_replies(&ds) >= 1,
        "legit client must reach the echo service before the attack"
    );

    // The flood, spoofed to the victim, lands before the guard reacts…
    let flood_start = Instant::now();
    flood(&mut edges, 40);
    let ds = pump_for(&mut edges, Duration::from_millis(150));
    let pre_quarantine = victim_bytes(&ds);
    assert!(
        pre_quarantine > 0,
        "amplified responses must reach the victim before quarantine"
    );
    assert!(
        wait_for(Duration::from_secs(5), || {
            pump(&mut edges);
            obs.gauges.get(&format!(
                "sav_border_quarantined{{dpid=\"{}\"}}",
                border.dpid()
            )) == Some(1.0)
        }),
        "guard must quarantine the spoofed source"
    );
    let quarantine_latency = flood_start.elapsed();

    // …and dies at the border afterwards, while the legit client keeps going.
    flood(&mut edges, 40);
    keepalive(&mut edges);
    let ds = pump_for(&mut edges, Duration::from_millis(400));
    let post_quarantine = victim_bytes(&ds);
    assert_eq!(
        post_quarantine, 0,
        "the deny pair must stop victim-bound responses at the border"
    );
    assert!(
        echo_replies(&ds) >= 1,
        "the legitimate client must keep connectivity through the attack"
    );

    // The quarantine is visible to an operator.
    let (status, metrics) = http_get(obs_addr, "/metrics").unwrap();
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
    let (status, events) = http_get(obs_addr, "/events?n=10").unwrap();
    assert_eq!(status, 200);
    assert!(
        events.contains("amplification_deny"),
        "journal must carry the amplification_deny event"
    );
    println!(
        "live border: victim bytes {pre_quarantine} before quarantine, \
         {post_quarantine} after; quarantine in place {quarantine_latency:?} after the flood \
         began (first checked after a 150 ms window)"
    );

    c_ext.stop();
    c_bor.stop();
    obs_server.shutdown();
    server.shutdown();
}
