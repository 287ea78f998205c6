//! End-to-end observability: a live DHCP + spoof scenario over real
//! loopback TCP, scraped through the `/metrics` and `/events` HTTP
//! endpoints exactly as an external Prometheus + operator would see it.
//!
//! Two switches connect through sav-channel; a host acquires an address via
//! a genuine DORA exchange, another host spoofs and is punted/denied. The
//! `StatsPollerApp` (driven by the server's poll timer) pulls cookie-scoped
//! flow stats so the spoof drops show up as counters, and the test asserts:
//!
//! - the spoof-drop counter in the scrape is positive,
//! - the rule-compile latency histogram is non-empty,
//! - the per-switch binding gauges match the SAV app's binding table,
//! - the journal records binding_learned → rule_installed → spoof_drop
//!   in causal order (by sequence number).

use sav_channel::client;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig, StatsPollerApp};
use sav_dataplane::host::{DhcpServerState, DhcpState, Host, HostApp, HostConfig, SpoofMode};
use sav_dataplane::switch::OpenFlowSwitch;
use sav_integration_tests::live::{
    fast_client_config, free_addr, mk_switch, pump, pump_until, tmp, wait_for, Edge,
};
use sav_net::addr::Ipv4Cidr;
use sav_net::prelude::*;
use sav_obs::http::http_get;
use sav_obs::{Obs, ObsServer};
use sav_store::{BindingStore, StoreConfig};
use sav_topo::generators;
use sav_topo::routes::Routes;
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

/// Parse `base{labels} value` lines for one metric base name into
/// `(labels, value)` pairs; a bare `base value` line yields `("", value)`.
fn series_values(text: &str, base: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let labels = if name == base {
                ""
            } else {
                name.strip_prefix(base)?
                    .strip_prefix('{')?
                    .strip_suffix('}')?
            };
            Some((labels.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// First `"key":value` occurrence in a flat JSON line, as a string slice.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn metrics_scrape_reflects_live_dhcp_and_spoofing() {
    let topo = Arc::new(generators::linear(2, 2));
    let hosts = topo.hosts();
    let (server_node, host_a, host_b) = (&hosts[0], &hosts[1], &hosts[2]);

    let obs = Obs::with_tracing();
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server_node.switch.dpid(), server_node.port)],
        ..SavConfig::default()
    };
    // Store-backed so each learned binding's causal trace crosses the WAL
    // fsync stage, exactly like a production controller.
    let dir = tmp("scrape-store");
    let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(SavApp::with_store(topo.clone(), config, store).with_obs(obs.clone())),
        Box::new(StatsPollerApp::new(obs.clone())),
        Box::new(L2RoutingApp::new(
            topo.clone(),
            Arc::new(Routes::compute(&topo)),
        )),
    ];
    let server = SouthboundServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            echo_interval: Duration::from_millis(50),
            liveness_timeout: Duration::from_millis(400),
            stats_poll_interval: Some(Duration::from_millis(25)),
            obs: Some(obs.clone()),
            ..ServerConfig::default()
        },
        Controller::new(apps),
    )
    .unwrap();
    let addr = server.local_addr();
    let obs_server = ObsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let obs_addr = obs_server.local_addr();

    let (d0_tx, d0_rx) = channel();
    let (d1_tx, d1_rx) = channel();
    let c0 = client::spawn(addr, mk_switch(1, 3), fast_client_config(1), vec![], d0_tx);
    let c1 = client::spawn(addr, mk_switch(2, 3), fast_client_config(2), vec![], d1_tx);

    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(10), || ctrl.lock().ready_dpids().len()
            == 2),
        "both switches must complete the handshake"
    );

    let pool: Ipv4Cidr = "10.0.0.0/24".parse().unwrap();
    let trunk0 = topo.trunk_ports(topo.switches()[0].id)[0];
    let trunk1 = topo.trunk_ports(topo.switches()[1].id)[0];
    let mut edges = [
        Edge {
            injector: c0.injector(),
            delivered_rx: d0_rx,
            trunks: HashMap::from([(trunk0, (1, trunk1))]),
            hosts: HashMap::from([
                (
                    server_node.port,
                    Host::new(HostConfig {
                        mac: server_node.mac,
                        ip: server_node.ip,
                        app: HostApp::DhcpServer(DhcpServerState::new(pool, 100, 600)),
                    }),
                ),
                (
                    host_a.port,
                    Host::new(HostConfig {
                        mac: host_a.mac,
                        ip: "0.0.0.0".parse().unwrap(),
                        app: HostApp::Sink,
                    }),
                ),
            ]),
        },
        Edge {
            injector: c1.injector(),
            delivered_rx: d1_rx,
            trunks: HashMap::from([(trunk1, (0, trunk0))]),
            hosts: HashMap::from([(
                host_b.port,
                Host::new(HostConfig {
                    mac: host_b.mac,
                    ip: "0.0.0.0".parse().unwrap(),
                    app: HostApp::Sink,
                }),
            )]),
        },
    ];

    // ---- Live DHCP: hosts A and B bind via DORA through the fabric. ----
    let a_port = host_a.port;
    let out = edges[0].hosts.get_mut(&a_port).unwrap().dhcp_discover(0xa);
    for f in out.tx {
        edges[0].injector.send((a_port, f)).unwrap();
    }
    assert!(
        pump_until(
            &mut edges,
            &mut Vec::new(),
            Duration::from_secs(10),
            |e, _| { e[0].hosts[&a_port].dhcp == DhcpState::Bound }
        ),
        "host A must bind via DORA"
    );
    let b_port = host_b.port;
    let out = edges[1].hosts.get_mut(&b_port).unwrap().dhcp_discover(0xb);
    for f in out.tx {
        edges[1].injector.send((b_port, f)).unwrap();
    }
    assert!(
        pump_until(
            &mut edges,
            &mut Vec::new(),
            Duration::from_secs(10),
            |e, _| { e[1].hosts[&b_port].dhcp == DhcpState::Bound }
        ),
        "host B must bind via DORA across the trunk"
    );
    let ip_b = edges[1].hosts[&b_port].ip;
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl.lock()
                .with_app::<SavApp, _>(|a| a.bindings().len() == 2)
                .unwrap()
        }),
        "both DHCP bindings must be snooped"
    );

    // ---- Spoofed traffic from A dies at its edge switch. ---------------
    {
        let a = edges[0].hosts.get_mut(&a_port).unwrap();
        a.learn_arp(ip_b, host_b.mac);
        let out = a.send_udp(
            ip_b,
            1234,
            7,
            b"spoofed",
            SpoofMode::Ipv4(pool.nth(200).unwrap()),
        );
        for f in out.tx {
            edges[0].injector.send((a_port, f)).unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    pump(&mut edges);

    // The poller runs on the server's timer; wait until a pass has
    // attributed the drop, then scrape.
    assert!(
        wait_for(Duration::from_secs(10), || obs
            .counters
            .get("sav_spoof_dropped_total")
            > 0),
        "poller must surface the spoof drop as a counter"
    );

    let (status, metrics) = http_get(obs_addr, "/metrics").unwrap();
    assert_eq!(status, 200);

    // Spoof-drop counter positive in the exposition text itself.
    let spoof = series_values(&metrics, "sav_spoof_dropped_total");
    let total = spoof
        .iter()
        .find(|(l, _)| l.is_empty())
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(total > 0.0, "scrape must show spoof drops:\n{metrics}");

    // Rule-compile histogram non-empty: compile happened for each binding.
    let compile_count = series_values(&metrics, "sav_rule_compile_seconds_count")
        .first()
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(
        compile_count >= 2.0,
        "rule-compile histogram must record the allow compilations:\n{metrics}"
    );

    // Per-switch binding gauges match the app's binding table.
    let per_switch: HashMap<u64, usize> = ctrl
        .lock()
        .with_app::<SavApp, _>(|a| {
            let mut m: HashMap<u64, usize> = HashMap::new();
            for b in a.bindings().iter() {
                *m.entry(b.dpid).or_default() += 1;
            }
            m
        })
        .unwrap();
    for (dpid, expect) in &per_switch {
        let label = format!("dpid=\"{dpid}\"");
        let got = series_values(&metrics, "sav_bindings")
            .into_iter()
            .find(|(l, _)| l == &label)
            .map(|(_, v)| v);
        assert_eq!(
            got,
            Some(*expect as f64),
            "sav_bindings{{{label}}} must equal the binding table:\n{metrics}"
        );
    }

    // ---- Southbound event-loop health counters on the same scrape. -----
    let wakeups = series_values(&metrics, "sav_poll_wakeups_total")
        .first()
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(
        wakeups > 0.0,
        "the event loop must report poll wakeups:\n{metrics}"
    );
    let batched = series_values(&metrics, "sav_writev_batched_frames_total")
        .first()
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(
        batched > 0.0,
        "vectored writes must report drained frames:\n{metrics}"
    );
    let backlog = series_values(&metrics, "sav_southbound_backlog_bytes")
        .first()
        .map(|(_, v)| *v);
    assert!(
        backlog.is_some_and(|v| v >= 0.0),
        "the outbound-backlog gauge must be registered:\n{metrics}"
    );

    // ---- Journal causality: learned → installed → dropped. -------------
    let (status, events) = http_get(obs_addr, "/events?n=500").unwrap();
    assert_eq!(status, 200);
    let seq_of = |name: &str| {
        events
            .lines()
            .filter(|l| json_field(l, "event") == Some(name))
            .filter_map(|l| json_field(l, "seq")?.parse::<u64>().ok())
            .min()
    };
    let learned = seq_of("binding_learned").expect("journal must record binding_learned");
    let installed = seq_of("rule_installed").expect("journal must record rule_installed");
    let dropped = seq_of("spoof_drop").expect("journal must record spoof_drop");
    assert!(
        learned < installed && installed < dropped,
        "causal order violated: learned={learned} installed={installed} dropped={dropped}"
    );

    // ---- Causal traces: one complete span tree per learned binding. ----
    assert!(
        wait_for(Duration::from_secs(10), || obs.traces.completed() >= 2),
        "each DORA binding must complete a causal trace (barrier acked), got {} (open {}, abandoned {})",
        obs.traces.completed(),
        obs.traces.open_count(),
        obs.traces.abandoned()
    );
    let (status, traces) = http_get(obs_addr, "/traces?n=8").unwrap();
    assert_eq!(status, 200);
    let line = traces
        .lines()
        .find(|l| json_field(l, "ip") == Some(&ip_b.to_string()))
        .unwrap_or_else(|| panic!("no trace for host B's binding {ip_b}:\n{traces}"));
    let pos = |stage: &str| {
        line.find(&format!("\"stage\":\"{stage}\""))
            .unwrap_or_else(|| panic!("stage {stage} missing from trace: {line}"))
    };
    let order = [
        pos("packet_in"),
        pos("wal_fsync"),
        pos("compile"),
        pos("send"),
        pos("barrier_ack"),
    ];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "span tree must run packet_in → wal_fsync → compile → send → barrier_ack: {line}"
    );

    // The headline histogram and its quantile gauges are on the scrape.
    let (status, metrics) = http_get(obs_addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let tte_count = series_values(&metrics, "sav_time_to_enforcement_seconds_count")
        .first()
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(
        tte_count >= 2.0,
        "time-to-enforcement histogram must hold both bindings:\n{metrics}"
    );
    let quantiles = series_values(&metrics, "sav_time_to_enforcement_seconds_quantile");
    assert!(
        quantiles
            .iter()
            .any(|(l, v)| l.contains("q=\"0.99\"") && *v > 0.0),
        "p99 quantile gauge must be exported:\n{metrics}"
    );
    for c in [&c0, &c1] {
        assert_eq!(
            c.metrics().stats().frames_dropped,
            0,
            "injector shed frames"
        );
    }

    c0.stop();
    c1.stop();
    obs_server.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Border-guard observability: after a quarantine, the
/// `sav_border_quarantined{dpid}` gauge and the
/// `sav_border_denied_bytes_total` counter (total + per-switch) surface in
/// the `/metrics` exposition, and the deny is journalled on `/events`.
#[test]
fn border_guard_metrics_surface_in_the_scrape() {
    use sav_border::{border_deny_out, border_tx_count, BorderGuardApp};
    use sav_controller::app::Ctx;
    use sav_core::BorderConfig;
    use sav_openflow::messages::{FlowMod, FlowStatsEntry, MultipartReplyBody};
    use sav_sim::SimTime;
    use std::net::Ipv4Addr;

    let stats_entry = |fm: &FlowMod, bytes: u64| FlowStatsEntry {
        table_id: 0,
        duration_sec: 1,
        duration_nsec: 0,
        priority: fm.priority,
        idle_timeout: fm.idle_timeout,
        hard_timeout: fm.hard_timeout,
        flags: fm.flags,
        cookie: fm.cookie,
        packet_count: bytes / 100,
        byte_count: bytes,
        match_: fm.match_.clone(),
        instructions: fm.instructions.clone(),
    };

    let m = generators::multi_as(2, 2);
    let border = m.borders[0].0.dpid();
    let obs = Obs::new();
    let mut guard = BorderGuardApp::new(
        Arc::new(m.topo),
        BorderConfig {
            obs: Some(obs.clone()),
            ..BorderConfig::default()
        },
    );
    let obs_server = ObsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let obs_addr = obs_server.local_addr();

    guard.on_switch_up(&mut Ctx::new(SimTime::ZERO), border);
    // Registration alone puts both series on the scrape, at zero.
    let (status, metrics) = http_get(obs_addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        series_values(&metrics, "sav_border_quarantined")
            .iter()
            .find(|(l, _)| l == &format!("dpid=\"{border}\""))
            .map(|(_, v)| *v),
        Some(0.0),
        "gauge registered at zero:\n{metrics}"
    );
    assert_eq!(
        series_values(&metrics, "sav_border_denied_bytes_total")
            .iter()
            .find(|(l, _)| l.is_empty())
            .map(|(_, v)| *v),
        Some(0.0),
        "counter registered at zero:\n{metrics}"
    );

    // A grossly one-sided source trips the budget on the next poll; the
    // deny rules' own drop counters then feed the denied-bytes series.
    let src: Ipv4Addr = "203.0.113.77".parse().unwrap();
    let reply = MultipartReplyBody::Flow(vec![stats_entry(&border_tx_count(src, 60), 50_000)]);
    guard.on_stats_reply(&mut Ctx::new(SimTime::ZERO), border, &reply);
    let reply = MultipartReplyBody::Flow(vec![stats_entry(&border_deny_out(src, 10), 7_500)]);
    guard.on_stats_reply(&mut Ctx::new(SimTime::ZERO), border, &reply);

    let (status, metrics) = http_get(obs_addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        series_values(&metrics, "sav_border_quarantined")
            .iter()
            .find(|(l, _)| l == &format!("dpid=\"{border}\""))
            .map(|(_, v)| *v),
        Some(1.0),
        "one quarantined source:\n{metrics}"
    );
    let denied = series_values(&metrics, "sav_border_denied_bytes_total");
    assert_eq!(
        denied.iter().find(|(l, _)| l.is_empty()).map(|(_, v)| *v),
        Some(7_500.0),
        "denied bytes total:\n{metrics}"
    );
    assert_eq!(
        denied
            .iter()
            .find(|(l, _)| l == &format!("dpid=\"{border}\""))
            .map(|(_, v)| *v),
        Some(7_500.0),
        "per-switch denied bytes:\n{metrics}"
    );

    let (status, events) = http_get(obs_addr, "/events?n=50").unwrap();
    assert_eq!(status, 200);
    let deny_line = events
        .lines()
        .find(|l| json_field(l, "event") == Some("amplification_deny"))
        .expect("deny must be journalled");
    assert_eq!(json_field(deny_line, "src"), Some("203.0.113.77"));

    obs_server.shutdown();
}

/// Cluster observability: role and replication-lag gauges, the failover
/// counter, and the role-aware `/healthz` all surface through the same
/// HTTP endpoints an operator's prober would hit.
#[test]
fn cluster_metrics_surface_in_the_scrape() {
    use sav_cluster::{ClusterConfig, ClusterEvent, ClusterNode};

    let dir = tmp("scrape-cluster");
    let listen = free_addr();

    let obs = Obs::new();
    let mut cfg = ClusterConfig::new(1, listen, vec![], &dir);
    cfg.lease = Duration::from_millis(100);
    cfg.heartbeat_interval = Duration::from_millis(20);
    cfg.obs = obs.clone();
    let node = ClusterNode::spawn(cfg).unwrap();
    let obs_server = ObsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let obs_addr = obs_server.local_addr();

    // Alone in the group, the node claims leadership after one lease.
    let ev = node.events().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(ev, ClusterEvent::BecameLeader { generation: 1 });
    assert!(
        wait_for(Duration::from_secs(5), || {
            obs.gauges.get("sav_cluster_role{node=\"1\"}") == Some(2.0)
        }),
        "role gauge must flip to master (2.0)"
    );

    let (status, metrics) = http_get(obs_addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let role = series_values(&metrics, "sav_cluster_role");
    assert_eq!(
        role.iter()
            .find(|(l, _)| l == "node=\"1\"")
            .map(|(_, v)| *v),
        Some(2.0),
        "scrape must show this node as master:\n{metrics}"
    );
    let lag = series_values(&metrics, "sav_cluster_replication_lag_records");
    assert_eq!(
        lag.first().map(|(_, v)| *v),
        Some(0.0),
        "a leader with no followers has zero lag:\n{metrics}"
    );
    let failovers = series_values(&metrics, "sav_failover_total");
    assert_eq!(
        failovers.first().map(|(_, v)| *v),
        Some(0.0),
        "the failover counter must be registered at zero:\n{metrics}"
    );
    for series in [
        "sav_cluster_events_dropped_total",
        "sav_cluster_accept_errors_total",
        "sav_obs_accept_errors_total",
    ] {
        assert_eq!(
            series_values(&metrics, series).first().map(|(_, v)| *v),
            Some(0.0),
            "{series} must be registered at zero:\n{metrics}"
        );
    }

    // The health endpoint reports the role for LB-style probing.
    let (status, body) = http_get(obs_addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "ok role=master\n");

    obs_server.shutdown();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sampled flow telemetry: a 1-in-8 poller fed the same flow-stats reply
/// as an unsampled one produces corrected totals within 2× of the truth,
/// and the corrected series is what lands on the `/metrics` scrape.
#[test]
fn sampled_flow_telemetry_corrects_within_2x() {
    use sav_controller::app::Ctx;
    use sav_core::{rules, Binding, BindingSource};
    use sav_openflow::messages::{FlowStatsEntry, MultipartReplyBody};
    use sav_sim::SimTime;
    use std::net::Ipv4Addr;

    let entry = |port: u32, ip: Ipv4Addr, packets: u64, bytes: u64| {
        let b = Binding {
            ip,
            mac: MacAddr::from_index(1),
            dpid: 1,
            port,
            source: BindingSource::Dhcp,
            expires: None,
        };
        let fm = rules::binding_allow(&b, true, 0, 0);
        FlowStatsEntry {
            table_id: fm.table_id,
            duration_sec: 1,
            duration_nsec: 0,
            priority: fm.priority,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            flags: fm.flags,
            cookie: fm.cookie,
            packet_count: packets,
            byte_count: bytes,
            match_: fm.match_.clone(),
            instructions: fm.instructions.clone(),
        }
    };
    let entries: Vec<FlowStatsEntry> = (0..512u32)
        .map(|i| {
            let pkts = 100 + u64::from(i);
            entry(
                1 + (i % 4),
                Ipv4Addr::from(0x0a00_2000 + i),
                pkts,
                pkts * 50,
            )
        })
        .collect();
    let truth_bytes: f64 = entries.iter().map(|e| e.byte_count as f64).sum();

    // Unsampled truth: the estimate equals the exact sum.
    let obs_truth = Obs::new();
    let mut unsampled = StatsPollerApp::new(obs_truth.clone());
    unsampled.on_stats_reply(
        &mut Ctx::new(SimTime::ZERO),
        1,
        &MultipartReplyBody::Flow(entries.clone()),
    );
    assert_eq!(
        obs_truth.gauges.get("sav_flow_bytes_estimate"),
        Some(truth_bytes)
    );

    // 1-in-8 sampling: a strict subset kept, the correction within 2×.
    let obs = Obs::new();
    let mut sampled = StatsPollerApp::new(obs.clone()).with_sampling(8);
    sampled.on_stats_reply(
        &mut Ctx::new(SimTime::ZERO),
        1,
        &MultipartReplyBody::Flow(entries),
    );
    let kept = obs.counters.get("sav_flow_records_sampled_total");
    let dropped = obs.counters.get("sav_flow_records_dropped_total");
    assert_eq!(kept + dropped, 512, "every record is sampled or dropped");
    assert!(kept > 0 && dropped > kept, "1-in-8 keeps a strict minority");
    let est = obs.gauges.get("sav_flow_bytes_estimate").unwrap();
    assert!(
        est >= truth_bytes / 2.0 && est <= truth_bytes * 2.0,
        "corrected bytes must land within 2x of truth: est {est} truth {truth_bytes}"
    );

    let obs_server = ObsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let (status, metrics) = http_get(obs_server.local_addr(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        series_values(&metrics, "sav_flow_bytes_estimate")
            .first()
            .map(|(_, v)| *v),
        Some(est),
        "corrected estimate must be scraped:\n{metrics}"
    );
    assert_eq!(
        series_values(&metrics, "sav_flow_records_sampled_total")
            .first()
            .map(|(_, v)| *v),
        Some(kept as f64),
        "sampling meta-counters must be scraped:\n{metrics}"
    );
    obs_server.shutdown();
}

/// Trace continuity across a controller crash: a binding learned right
/// before the crash keeps its WAL durability but must NOT leak a
/// half-open trace into the ring — it is counted abandoned instead — and
/// the restarted controller traces fresh bindings end to end.
#[test]
fn restart_abandons_half_open_trace_and_traces_again() {
    use sav_sim::SimTime;

    /// Ferry bytes and frames between controller, switch, and hosts until
    /// quiescent. With `crash_if_trace_opens`, the run "crashes" (drops
    /// all in-flight output and returns true) the moment a causal trace
    /// is left open — i.e. right after the flow-mods and traced barrier
    /// were emitted but before anything reached the switch.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        ctrl: &mut Controller,
        conn: usize,
        sw: &mut OpenFlowSwitch,
        hosts: &mut HashMap<u32, Host>,
        mut to_switch: Vec<Vec<u8>>,
        mut to_ctrl: Vec<Vec<u8>>,
        mut frames: Vec<(u32, Vec<u8>)>,
        crash_if_trace_opens: Option<&Obs>,
    ) -> bool {
        let now = SimTime::ZERO;
        while !to_switch.is_empty() || !to_ctrl.is_empty() || !frames.is_empty() {
            let mut sw_out = Vec::new();
            for (port, f) in frames.drain(..) {
                sw_out.push(sw.receive_frame(now, port, f));
            }
            for b in to_switch.drain(..) {
                sw_out.push(sw.handle_controller_bytes(now, &b).unwrap());
            }
            let mut next_to_ctrl = std::mem::take(&mut to_ctrl);
            for out in sw_out {
                next_to_ctrl.extend(out.to_controller);
                for (port, f) in out.tx {
                    if let Some(h) = hosts.get_mut(&port) {
                        let ho = h.on_frame(&f);
                        frames.extend(ho.tx.into_iter().map(|t| (port, t)));
                    }
                }
            }
            for b in next_to_ctrl.drain(..) {
                let out = ctrl.on_bytes(now, conn, &b).unwrap();
                let bytes: Vec<Vec<u8>> = out.to_switch.into_iter().map(|(_, x)| x).collect();
                if crash_if_trace_opens.is_some_and(|o| o.traces.open_count() > 0) {
                    return true;
                }
                to_switch.extend(bytes);
            }
        }
        false
    }

    let dir = tmp("scrape-trace-restart");

    let topo = Arc::new(generators::linear(1, 2));
    let hosts = topo.hosts();
    let (server_node, client_node) = (&hosts[0], &hosts[1]);
    let dpid = server_node.switch.dpid();
    let pool: Ipv4Cidr = "10.0.0.0/24".parse().unwrap();
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(dpid, server_node.port)],
        ..SavConfig::default()
    };
    let mk_ctrl = |obs: &Obs| {
        let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        let app = SavApp::with_store(topo.clone(), config.clone(), store).with_obs(obs.clone());
        let mut ctrl = Controller::new(vec![
            Box::new(app) as Box<dyn App>,
            Box::new(L2RoutingApp::new(
                topo.clone(),
                Arc::new(Routes::compute(&topo)),
            )),
        ]);
        ctrl.set_obs(obs.clone());
        ctrl
    };
    // A restarted DHCP server would consult its own lease database; this
    // bare one re-allocates from scratch, so life 2 starts past the
    // recovered lease to model a server that kept its records.
    let mk_net = |client_mac: MacAddr, first_index: u32| {
        let sw = mk_switch(dpid, 3);
        let net: HashMap<u32, Host> = HashMap::from([
            (
                server_node.port,
                Host::new(HostConfig {
                    mac: server_node.mac,
                    ip: server_node.ip,
                    app: HostApp::DhcpServer(DhcpServerState::new(pool, first_index, 600)),
                }),
            ),
            (
                client_node.port,
                Host::new(HostConfig {
                    mac: client_mac,
                    ip: "0.0.0.0".parse().unwrap(),
                    app: HostApp::Sink,
                }),
            ),
        ]);
        (sw, net)
    };

    // ---- Life 1: DORA runs; the crash lands after the ACK minted the
    // binding (WAL-fsynced) but before the switch acked the barrier. ----
    let obs = Obs::with_tracing();
    let mut ctrl = mk_ctrl(&obs);
    let (mut sw, mut net) = mk_net(client_node.mac, 100);
    let (c0, h0) = (ctrl.on_connect(0), sw.hello());
    drive(
        &mut ctrl,
        0,
        &mut sw,
        &mut net,
        vec![c0],
        vec![h0],
        vec![],
        None,
    );
    assert_eq!(ctrl.ready_dpids(), vec![dpid]);

    let dx = net.get_mut(&client_node.port).unwrap().dhcp_discover(0x51);
    let frames: Vec<(u32, Vec<u8>)> = dx.tx.into_iter().map(|f| (client_node.port, f)).collect();
    let crashed = drive(
        &mut ctrl,
        0,
        &mut sw,
        &mut net,
        vec![],
        vec![],
        frames,
        Some(&obs),
    );
    assert!(
        crashed,
        "the ACK must leave a trace open at the crash point"
    );
    assert_eq!(obs.traces.open_count(), 1);
    drop(ctrl.on_disconnect(SimTime::ZERO, 0));
    assert_eq!(obs.traces.open_count(), 0, "no half-open trace survives");
    assert_eq!(obs.traces.abandoned(), 1);
    assert_eq!(obs.counters.get("sav_traces_abandoned_total"), 1);
    assert!(
        obs.traces.tail(8).is_empty(),
        "an abandoned trace must never reach the completed ring"
    );
    drop(ctrl);

    // ---- Life 2: the binding recovered from the WAL, and a fresh DORA
    // traces all five stages end to end on the restarted controller. ----
    let probe = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(
        probe.recovery_report().recovered_bindings,
        1,
        "the pre-crash binding is durable even though its trace was abandoned"
    );
    drop(probe);
    let obs2 = Obs::with_tracing();
    let mut ctrl = mk_ctrl(&obs2);
    let (mut sw, mut net) = mk_net(MacAddr::from_index(0xBEEF), 101);
    let (c0, h0) = (ctrl.on_connect(0), sw.hello());
    drive(
        &mut ctrl,
        0,
        &mut sw,
        &mut net,
        vec![c0],
        vec![h0],
        vec![],
        None,
    );
    assert_eq!(ctrl.ready_dpids(), vec![dpid]);

    let dx = net.get_mut(&client_node.port).unwrap().dhcp_discover(0x52);
    let frames: Vec<(u32, Vec<u8>)> = dx.tx.into_iter().map(|f| (client_node.port, f)).collect();
    drive(
        &mut ctrl,
        0,
        &mut sw,
        &mut net,
        vec![],
        vec![],
        frames,
        None,
    );
    assert_eq!(
        net[&client_node.port].dhcp,
        DhcpState::Bound,
        "the new client must bind after recovery"
    );
    assert_eq!(
        obs2.traces.completed(),
        1,
        "fresh binding traces end to end"
    );
    assert_eq!(obs2.traces.abandoned(), 0);
    let trace = &obs2.traces.tail(4)[0];
    let stages: Vec<&str> = trace.stages.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        ["packet_in", "wal_fsync", "compile", "send", "barrier_ack"],
        "recovered controller must produce the full span tree"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
