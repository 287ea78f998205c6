//! Controller crash and recovery over real loopback TCP.
//!
//! Two switches connect through sav-channel, hosts acquire addresses via a
//! genuine DORA exchange crossing the data plane, and then the controller
//! process dies without warning. A new controller — same address, fresh
//! `SimTime`, no memory beyond the sav-store WAL — must come back, replay
//! the binding table from disk, reconcile the switches' surviving flow
//! tables against it, and keep enforcing SAV with **zero** DHCP
//! re-learning.
//!
//! The inter-switch trunk is emulated by the test pump (frames egressing
//! either switch's trunk port are injected into the peer's trunk port) so
//! the link is bidirectional without the spawn-order knot of `Link`
//! handles.

use sav_channel::client;
use sav_channel::server::SouthboundServer;
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig};
use sav_dataplane::host::{DhcpServerState, DhcpState, Host, HostApp, HostConfig, SpoofMode};
use sav_integration_tests::live::{
    fast_client_config, fast_server_config, mk_switch, pump, pump_until, tmp, wait_for, Edge,
};
use sav_metrics::Counters;
use sav_net::addr::Ipv4Cidr;
use sav_net::prelude::*;
use sav_store::{BindingStore, StoreConfig};
use sav_topo::generators;
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

const LEASE_SECS: u32 = 600;

/// Build a controller whose SAV app journals to (and recovers from) `dir`.
/// Returns the counters handle so the test can watch recovery/reconcile
/// progress from outside.
fn controller_with_store(topo: &Arc<Topology>, dir: &std::path::Path) -> (Controller, Counters) {
    let server_node = &topo.hosts()[0];
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server_node.switch.dpid(), server_node.port)],
        ..SavConfig::default()
    };
    let store = BindingStore::open(dir, StoreConfig::default()).unwrap();
    let app = SavApp::with_store(topo.clone(), config, store);
    let counters = app.counters.clone();
    let routes = Arc::new(Routes::compute(topo));
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(app),
        Box::new(L2RoutingApp::new(topo.clone(), routes)),
    ];
    (Controller::new(apps), counters)
}

/// The whole story: bind via DHCP, kill the controller, restart it from the
/// WAL, and verify enforcement resumes with no re-binding of any kind.
#[test]
fn controller_restart_recovers_bindings_over_tcp() {
    let dir = tmp("restart-recovery");

    let topo = Arc::new(generators::linear(2, 2));
    let hosts = topo.hosts();
    let (server_node, host_a, host_b, host_d) = (&hosts[0], &hosts[1], &hosts[2], &hosts[3]);
    assert_eq!(server_node.switch.dpid(), 1);
    assert_eq!(host_b.switch.dpid(), 2);

    // ---- Life 1: fresh store, DHCP binds two hosts. -------------------
    let (ctrl1, counters1) = controller_with_store(&topo, &dir);
    let server = SouthboundServer::bind("127.0.0.1:0", fast_server_config(), ctrl1).unwrap();
    let addr = server.local_addr();

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
    // An empty store still takes the reconcile path: rule install is gated
    // on the flow-stats round trip, so wait for the full edge rule set
    // (s1: trunk + deny + dhcp-client + dhcp-trust; s2: trunk + deny +
    // dhcp-client) before generating traffic.
    assert!(
        wait_for(Duration::from_secs(10), || {
            counters1.get("reconciled_installed") >= 7
        }),
        "edge rule sets must be installed via reconciliation"
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
                        app: HostApp::DhcpServer(DhcpServerState::new(pool, 100, LEASE_SECS)),
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
            hosts: HashMap::from([
                (
                    host_b.port,
                    Host::new(HostConfig {
                        mac: host_b.mac,
                        ip: "0.0.0.0".parse().unwrap(),
                        app: HostApp::Sink,
                    }),
                ),
                (
                    host_d.port,
                    Host::new(HostConfig {
                        mac: host_d.mac,
                        ip: host_d.ip,
                        app: HostApp::Sink,
                    }),
                ),
            ]),
        },
    ];
    let mut deliveries = Vec::new();

    // Host A (same switch as the server) and host B (across the trunk)
    // both run a full DORA exchange through the switches.
    let out = edges[0]
        .hosts
        .get_mut(&host_a.port)
        .unwrap()
        .dhcp_discover(0xa);
    for f in out.tx {
        edges[0].injector.send((host_a.port, f)).unwrap();
    }
    let a_port = host_a.port;
    assert!(
        pump_until(
            &mut edges,
            &mut deliveries,
            Duration::from_secs(10),
            |e, _| { e[0].hosts[&a_port].dhcp == DhcpState::Bound }
        ),
        "host A must bind via DORA"
    );
    let out = edges[1]
        .hosts
        .get_mut(&host_b.port)
        .unwrap()
        .dhcp_discover(0xb);
    for f in out.tx {
        edges[1].injector.send((host_b.port, f)).unwrap();
    }
    let b_port = host_b.port;
    assert!(
        pump_until(
            &mut edges,
            &mut deliveries,
            Duration::from_secs(10),
            |e, _| { e[1].hosts[&b_port].dhcp == DhcpState::Bound }
        ),
        "host B must bind via DORA across the trunk"
    );
    let ip_a = edges[0].hosts[&a_port].ip;
    let ip_b = edges[1].hosts[&b_port].ip;
    assert!(pool.contains(ip_a) && pool.contains(ip_b));
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl.lock()
                .with_app::<SavApp, _>(|a| a.bindings().len() == 2 && a.stats.dhcp_acks == 2)
                .unwrap()
        }),
        "both bindings snooped and journalled"
    );

    // ---- Crash. Abrupt drop: nothing beyond the per-append fsyncs. ----
    drop(server);

    // ---- Life 2: same port, fresh controller, recovery from disk. -----
    let (ctrl2, counters2) = controller_with_store(&topo, &dir);
    assert_eq!(
        counters2.get("recovered_bindings"),
        2,
        "binding table must be rebuilt from the WAL before any traffic"
    );
    let server = SouthboundServer::bind_with_retry(
        addr,
        fast_server_config(),
        {
            let mut c = Some(ctrl2);
            move || c.take().expect("bind_with_retry retried after success")
        },
        Duration::from_secs(10),
    )
    .unwrap();
    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(15), || ctrl.lock().ready_dpids().len()
            == 2),
        "switches must reconnect to the reborn controller on their own"
    );
    // Reconciliation: the switches kept their tables across the outage, and
    // the recovered desired state matches them — everything is kept, nothing
    // reinstalled, nothing deleted.
    assert!(
        wait_for(Duration::from_secs(10), || {
            counters2.get("reconciled_kept") >= 9
        }),
        "surviving rules must be recognised, not replaced (kept = {})",
        counters2.get("reconciled_kept")
    );
    assert_eq!(counters2.get("reconciled_deleted"), 0);
    assert_eq!(counters2.get("reconciled_installed"), 0);

    // Zero re-binding: the new controller never saw a DHCP message, yet it
    // holds both leases.
    let (n_bindings, dhcp_acks) = ctrl
        .lock()
        .with_app::<SavApp, _>(|a| (a.bindings().len(), a.stats.dhcp_acks))
        .unwrap();
    assert_eq!(n_bindings, 2);
    assert_eq!(dhcp_acks, 0, "recovery must not depend on DHCP re-learning");

    // ---- Enforcement resumes. -----------------------------------------
    // Honest A → B crosses the fabric; ARP is pre-seeded so the exchange is
    // a single frame.
    let b_mac = edges[1].hosts[&b_port].mac;
    {
        let a = edges[0].hosts.get_mut(&a_port).unwrap();
        a.learn_arp(ip_b, b_mac);
        let out = a.send_udp(ip_b, 1234, 7, b"honest-after-restart", SpoofMode::None);
        for f in out.tx {
            edges[0].injector.send((a_port, f)).unwrap();
        }
    }
    assert!(
        pump_until(
            &mut edges,
            &mut deliveries,
            Duration::from_secs(10),
            |_, d| {
                d.iter()
                    .any(|(e, _, del)| *e == 1 && del.payload == b"honest-after-restart")
            }
        ),
        "honest traffic from a recovered binding must flow"
    );

    // Spoofed source from A, and any traffic from never-bound host D, die
    // at their edge switches.
    {
        let a = edges[0].hosts.get_mut(&a_port).unwrap();
        let out = a.send_udp(
            ip_b,
            1234,
            7,
            b"spoofed-after-restart",
            SpoofMode::Ipv4(pool.nth(200).unwrap()),
        );
        for f in out.tx {
            edges[0].injector.send((a_port, f)).unwrap();
        }
    }
    {
        let d_port = host_d.port;
        let d = edges[1].hosts.get_mut(&d_port).unwrap();
        d.learn_arp(ip_b, b_mac);
        let out = d.send_udp(ip_b, 1234, 7, b"unbound-after-restart", SpoofMode::None);
        for f in out.tx {
            edges[1].injector.send((d_port, f)).unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    deliveries.extend(pump(&mut edges));
    assert!(
        !deliveries
            .iter()
            .any(|(_, _, del)| del.payload == b"spoofed-after-restart"
                || del.payload == b"unbound-after-restart"),
        "spoofed and unbound sources must still be dropped after recovery"
    );
    for c in [&c0, &c1] {
        assert_eq!(
            c.metrics().stats().frames_dropped,
            0,
            "injector shed frames"
        );
    }

    println!(
        "restart recovery: {} bindings read back from the WAL, {dhcp_acks} DHCP acks seen; \
         reconcile kept {}, deleted {}, installed {}",
        counters2.get("recovered_bindings"),
        counters2.get("reconciled_kept"),
        counters2.get("reconciled_deleted"),
        counters2.get("reconciled_installed"),
    );

    c0.stop();
    c1.stop();
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The in-process "switch" of the cover-restart tests: (priority, match) →
/// the installed FlowMod, folded from the flow-mods an app actually emitted.
type ModelTable = HashMap<(u16, String), sav_openflow::messages::FlowMod>;

fn fold(table: &mut ModelTable, dpid: u64, msgs: Vec<(u64, sav_openflow::messages::Message)>) {
    use sav_openflow::messages::{FlowModCommand, Message};
    for (d, m) in msgs {
        let Message::FlowMod(fm) = m else { continue };
        assert_eq!(d, dpid);
        let key = (fm.priority, format!("{:?}", fm.match_));
        match fm.command {
            FlowModCommand::Add => {
                table.insert(key, fm);
            }
            FlowModCommand::DeleteStrict => {
                table.remove(&key);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }
}

/// Does any surviving allow — host or cover — admit `addr`?
fn admits(table: &ModelTable, addr: &str) -> bool {
    use sav_openflow::oxm::OxmField;
    let addr = u32::from(addr.parse::<std::net::Ipv4Addr>().unwrap());
    table.values().any(|fm| {
        fm.match_.fields().iter().any(|f| match f {
            OxmField::Ipv4Src(ip, Some(mask)) => {
                u32::from(*ip) & u32::from(*mask) == addr & u32::from(*mask)
            }
            OxmField::Ipv4Src(ip, None) => u32::from(*ip) == addr,
            _ => false,
        })
    })
}

/// A recovered (and primed) app with the model switch it reconciled against.
struct Recovered {
    app: sav_core::SavApp,
    table: ModelTable,
    dpid: u64,
    dir: std::path::PathBuf,
}

impl Recovered {
    /// Release `ip` and fold the resulting delta into the switch's table.
    fn release(&mut self, ip: &str) {
        let mut ctx = sav_controller::app::Ctx::new(sav_sim::SimTime::from_secs(1));
        assert!(self
            .app
            .release_binding(&mut ctx, ip.parse().unwrap())
            .is_some());
        fold(&mut self.table, self.dpid, ctx.take());
    }
}

/// Cover-rule regression for restart reconciliation, under any cover
/// policy: six DHCP bindings on one port (`base`..`base + 5`) must compile
/// to `want_covers` prefix rules and survive a controller crash with **kept
/// == everything, installed == 0, deleted == 0** — cover rules carry the SAV
/// cookie tag and the recovered compiler recomputes the identical desired
/// set. In-process (no TCP). Returns the recovered (and primed) app with
/// the switch's table for policy-specific follow-ups.
fn covers_survive_restart(
    tag: &str,
    config: SavConfig,
    base: u32,
    want_covers: usize,
) -> Recovered {
    use sav_controller::app::Ctx;
    use sav_core::{Binding, BindingSource};
    use sav_openflow::messages::{
        FlowStatsEntry, Message, MultipartReplyBody, MultipartRequestBody,
    };
    use sav_openflow::oxm::OxmField;
    use sav_sim::SimTime;
    use std::net::Ipv4Addr;

    let dir = std::env::temp_dir().join(format!(
        "sav-{tag}-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let topo = Arc::new(generators::linear(2, 2));
    let dpid = topo.switches()[0].id.dpid();

    // ---- Life 1: empty store, then 6 DHCP bindings on one port. -------
    let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    let mut app = sav_core::SavApp::with_store(topo.clone(), config.clone(), store);
    let mut table = ModelTable::new();
    let mut ctx = Ctx::new(SimTime::ZERO);
    app.on_switch_up(&mut ctx, dpid);
    drop(ctx.take()); // cookie-filtered stats request, no rules yet
    let mut ctx = Ctx::new(SimTime::ZERO);
    app.on_stats_reply(&mut ctx, dpid, &MultipartReplyBody::Flow(vec![]));
    fold(&mut table, dpid, ctx.take());

    for i in 0..6u32 {
        let b = Binding {
            ip: Ipv4Addr::from(base + i),
            mac: MacAddr::from_index(u64::from(i) + 1),
            dpid,
            port: 1,
            source: BindingSource::Dhcp,
            expires: Some(SimTime::from_secs(u64::from(LEASE_SECS))),
        };
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.upsert_binding(&mut ctx, b);
        fold(&mut table, dpid, ctx.take());
    }
    // The port's allows are covers, recognisable by their masked ipv4_src.
    let covers = table
        .values()
        .filter(|fm| {
            fm.priority == sav_core::PRIO_ALLOW
                && fm
                    .match_
                    .fields()
                    .iter()
                    .any(|f| matches!(f, OxmField::Ipv4Src(_, Some(_))))
        })
        .count();
    assert_eq!(covers, want_covers, "{tag}: covers for six hosts");
    let n_rules = table.len();
    drop(app); // crash: nothing beyond the per-append WAL fsyncs

    // ---- Life 2: recover, reconcile against the surviving table. ------
    let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.recovery_report().recovered_bindings, 6);
    let mut app = sav_core::SavApp::with_store(topo.clone(), config, store);
    let counters = app.counters.clone();
    let mut ctx = Ctx::new(SimTime::ZERO);
    app.on_switch_up(&mut ctx, dpid);
    let msgs = ctx.take();
    assert_eq!(msgs.len(), 1, "reconcile path sends only the stats request");
    assert!(matches!(
        &msgs[0].1,
        Message::MultipartRequest(MultipartRequestBody::Flow(req))
            if req.cookie == sav_core::SAV_COOKIE
    ));
    let entries: Vec<FlowStatsEntry> = table
        .values()
        .map(|fm| FlowStatsEntry {
            table_id: fm.table_id,
            duration_sec: 1,
            duration_nsec: 0,
            priority: fm.priority,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            flags: fm.flags,
            cookie: fm.cookie,
            packet_count: 0,
            byte_count: 0,
            match_: fm.match_.clone(),
            instructions: fm.instructions.clone(),
        })
        .collect();
    let mut ctx = Ctx::new(SimTime::ZERO);
    app.on_stats_reply(&mut ctx, dpid, &MultipartReplyBody::Flow(entries));
    let mods: Vec<_> = ctx
        .take()
        .into_iter()
        .filter(|(_, m)| matches!(m, Message::FlowMod(_)))
        .collect();
    assert!(mods.is_empty(), "reconcile must not churn: {mods:?}");
    assert_eq!(counters.get("reconciled_kept"), n_rules as u64);
    assert_eq!(counters.get("reconciled_installed"), 0);
    assert_eq!(counters.get("reconciled_deleted"), 0);
    Recovered {
        app,
        table,
        dpid,
        dir,
    }
}

/// The recovered compiler is primed: releasing an address inside an exact
/// cover splits it, proving incremental compilation works after the
/// restart.
fn release_splits_the_recovered_cover(mut r: Recovered) {
    let before = r.app.compiled_rule_count();
    r.release("10.0.20.2");
    assert!(
        r.app.compiled_rule_count() > before,
        "cover split into fragments"
    );
    assert!(
        !admits(&r.table, "10.0.20.2"),
        "the released address must no longer be admitted by any rule"
    );
    std::fs::remove_dir_all(&r.dir).unwrap();
}

/// TCAM-budgeted: six hosts over budget four compress to two covers
/// (10.0.20.0/30 + /31).
#[test]
fn budgeted_aggregation_survives_restart_reconciliation() {
    let config = SavConfig {
        static_plan: false,
        tcam_budget: Some(4),
        ..SavConfig::default()
    };
    release_splits_the_recovered_cover(covers_survive_restart("budgeted", config, 0x0a00_1400, 2));
}

/// Exact aggregation is the same compile at budget zero — and, now that
/// it runs through the compiler, reconciles instead of blind-re-pushing.
#[test]
fn exact_aggregation_survives_restart_reconciliation() {
    let config = SavConfig {
        static_plan: false,
        aggregate: true,
        aggregate_exact: true,
        ..SavConfig::default()
    };
    release_splits_the_recovered_cover(covers_survive_restart("exact-agg", config, 0x0a00_1400, 2));
}

/// Subnet aggregation: six hosts inside 10.0.0.0/24 share one prefix rule,
/// which the recovered compiler keeps until the last of them is released.
#[test]
fn subnet_aggregation_survives_restart_reconciliation() {
    let config = SavConfig {
        static_plan: false,
        aggregate: true,
        ..SavConfig::default()
    };
    let mut r = covers_survive_restart("aggregated", config, 0x0a00_0014, 1);
    for i in 20..26 {
        assert!(admits(&r.table, "10.0.0.20"), "prefix outlives release {i}");
        r.release(&format!("10.0.0.{i}"));
    }
    assert!(
        !admits(&r.table, "10.0.0.20"),
        "emptied port keeps no prefix"
    );
    assert_eq!(r.app.compiled_rule_count(), 0);
    std::fs::remove_dir_all(&r.dir).unwrap();
}
