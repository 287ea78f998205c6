//! Controller crash and recovery, live over loopback TCP: the durability
//! story of `sav-store` end to end.
//!
//! Two switches dial a `SouthboundServer`. Hosts acquire addresses through
//! a real DORA exchange crossing the data plane, and every learned binding
//! is appended to a write-ahead log. The controller is then killed without
//! ceremony and a **new** one — same port, fresh process state — recovers
//! the binding table from disk, reconciles the switches' surviving flow
//! tables against it (keeping matching rules instead of reinstalling), and
//! keeps dropping spoofed traffic with zero DHCP re-learning.
//!
//! ```text
//! cargo run --release -p sav-examples --bin restart_recovery
//! ```
//!
//! Exits non-zero if any stage fails, so CI can use it as a smoke test.

use sav_channel::backoff::BackoffPolicy;
use sav_channel::client::{self, ClientConfig};
use sav_channel::fault::FaultPlan;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig};
use sav_dataplane::host::{
    Delivery, DhcpServerState, DhcpState, Host, HostApp, HostConfig, SpoofMode,
};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_metrics::Counters;
use sav_net::addr::Ipv4Cidr;
use sav_net::prelude::*;
use sav_openflow::ports::PortDesc;
use sav_store::{BindingStore, StoreConfig};
use sav_topo::generators;
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LEASE_SECS: u32 = 600;

fn mk_switch(dpid: u64) -> OpenFlowSwitch {
    let ports = (1..=3)
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        echo_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(400),
        outbound_queue: 64,
        write_stall_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        backoff: BackoffPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_millis(200),
            seed,
        },
        fault: FaultPlan::none(),
        read_timeout: Duration::from_millis(5),
    }
}

/// A controller whose SAV app journals to (and recovers from) `dir`.
fn controller_with_store(topo: &Arc<Topology>, dir: &std::path::Path) -> (Controller, Counters) {
    let server_node = &topo.hosts()[0];
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server_node.switch.dpid(), server_node.port)],
        ..SavConfig::default()
    };
    let store = BindingStore::open(dir, StoreConfig::default()).expect("open binding store");
    let report = store.recovery_report().clone();
    println!(
        "  store: {} snapshot binding(s), {} WAL op(s) replayed, {} recovered{}",
        report.snapshot_bindings,
        report.wal_ops_replayed,
        report.recovered_bindings,
        if report.wal_truncated {
            " (torn tail truncated)"
        } else {
            ""
        }
    );
    let app = SavApp::with_store(topo.clone(), config, store);
    let counters = app.counters.clone();
    let routes = Arc::new(Routes::compute(topo));
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(app),
        Box::new(L2RoutingApp::new(topo.clone(), routes)),
    ];
    (Controller::new(apps), counters)
}

/// One switch's edge: injector, host-side deliveries, attached hosts, and
/// the trunk wiring the pump uses to emulate the inter-switch link.
struct Edge {
    injector: SyncSender<(u32, Vec<u8>)>,
    delivered_rx: Receiver<(u32, Vec<u8>)>,
    hosts: HashMap<u32, Host>,
    trunk: u32,
    peer_trunk: u32,
}

/// Move frames until the data plane goes quiet; returns application-level
/// deliveries observed at host ports.
fn pump(edges: &mut [Edge; 2]) -> Vec<(usize, Delivery)> {
    let mut out = Vec::new();
    let mut moved = true;
    while moved {
        moved = false;
        for i in 0..2 {
            while let Ok((port, frame)) = edges[i].delivered_rx.try_recv() {
                moved = true;
                if port == edges[i].trunk {
                    let peer_port = edges[i].peer_trunk;
                    edges[1 - i].injector.send((peer_port, frame)).unwrap();
                    continue;
                }
                if let Some(host) = edges[i].hosts.get_mut(&port) {
                    let ho = host.on_frame(&frame);
                    for tx in ho.tx {
                        edges[i].injector.send((port, tx)).unwrap();
                    }
                    for d in ho.delivered {
                        out.push((i, d));
                    }
                }
            }
        }
    }
    out
}

fn pump_until(
    edges: &mut [Edge; 2],
    sink: &mut Vec<(usize, Delivery)>,
    what: &str,
    mut cond: impl FnMut(&[Edge; 2], &[(usize, Delivery)]) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        sink.extend(pump(edges));
        if cond(edges, sink) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("sav-restart-recovery-ex-{}", std::process::id()));
    // A stale directory would make "recovery" trivially true; start clean.
    // (`BindingStore::wipe(&dir)` is the supported way to reset state.)
    BindingStore::wipe(&dir).expect("wipe old state");
    std::fs::create_dir_all(&dir).unwrap();
    println!("binding store at {}", dir.display());

    let topo = Arc::new(generators::linear(2, 2));
    let hosts = topo.hosts();
    let (server_node, host_a, host_b, host_d) = (&hosts[0], &hosts[1], &hosts[2], &hosts[3]);

    println!("\n== life 1: fresh controller, DHCP learns bindings ==");
    let (ctrl1, counters1) = controller_with_store(&topo, &dir);
    let server = SouthboundServer::bind("127.0.0.1:0", server_config(), ctrl1).unwrap();
    let addr = server.local_addr();
    println!("  controller listening on {addr}");

    let (d0_tx, d0_rx) = channel();
    let (d1_tx, d1_rx) = channel();
    let c0 = client::spawn(addr, mk_switch(1), client_config(1), vec![], d0_tx);
    let c1 = client::spawn(addr, mk_switch(2), client_config(2), vec![], d1_tx);
    let ctrl = server.controller();
    wait_for("handshake", || ctrl.lock().ready_dpids().len() == 2);
    wait_for("edge rules", || counters1.get("reconciled_installed") >= 7);
    println!("  both switches up, edge rule sets installed");

    let pool: Ipv4Cidr = "10.0.0.0/24".parse().unwrap();
    let trunk0 = topo.trunk_ports(topo.switches()[0].id)[0];
    let trunk1 = topo.trunk_ports(topo.switches()[1].id)[0];
    let mut edges = [
        Edge {
            injector: c0.injector(),
            delivered_rx: d0_rx,
            trunk: trunk0,
            peer_trunk: trunk1,
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
            trunk: trunk1,
            peer_trunk: trunk0,
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

    let (a_port, b_port, d_port) = (host_a.port, host_b.port, host_d.port);
    for (edge, port, xid, label) in [(0usize, a_port, 0xa, "A"), (1, b_port, 0xb, "B")] {
        let out = edges[edge].hosts.get_mut(&port).unwrap().dhcp_discover(xid);
        for f in out.tx {
            edges[edge].injector.send((port, f)).unwrap();
        }
        pump_until(&mut edges, &mut deliveries, "DORA", |e, _| {
            e[edge].hosts[&port].dhcp == DhcpState::Bound
        });
        println!("  host {label} bound to {}", edges[edge].hosts[&port].ip);
    }
    let ip_b = edges[1].hosts[&b_port].ip;
    wait_for("snooped bindings", || {
        ctrl.lock()
            .with_app::<SavApp, _>(|a| a.bindings().len() == 2 && a.stats.dhcp_acks == 2)
            .unwrap()
    });
    println!("  controller snooped 2 bindings (journalled to the WAL)");

    println!("\n== crash: controller dropped, no flush, no goodbye ==");
    drop(server);

    println!("\n== life 2: restart on {addr}, recover from disk ==");
    let (ctrl2, counters2) = controller_with_store(&topo, &dir);
    assert_eq!(counters2.get("recovered_bindings"), 2);
    let server = SouthboundServer::bind_with_retry(
        addr,
        server_config(),
        {
            let mut c = Some(ctrl2);
            move || c.take().expect("bind_with_retry retried after success")
        },
        Duration::from_secs(10),
    )
    .expect("rebind the controller port");
    let ctrl = server.controller();
    wait_for("reconnect", || ctrl.lock().ready_dpids().len() == 2);
    wait_for("reconciliation", || counters2.get("reconciled_kept") >= 9);
    let (n_bindings, dhcp_acks) = ctrl
        .lock()
        .with_app::<SavApp, _>(|a| (a.bindings().len(), a.stats.dhcp_acks))
        .unwrap();
    assert_eq!(n_bindings, 2, "recovered binding table");
    assert_eq!(dhcp_acks, 0, "no DHCP re-learning");
    println!(
        "  reconciled: kept={} deleted={} installed={}  (bindings={}, dhcp_acks={})",
        counters2.get("reconciled_kept"),
        counters2.get("reconciled_deleted"),
        counters2.get("reconciled_installed"),
        n_bindings,
        dhcp_acks,
    );

    println!("\n== enforcement resumes ==");
    let b_mac = edges[1].hosts[&b_port].mac;
    {
        let a = edges[0].hosts.get_mut(&a_port).unwrap();
        a.learn_arp(ip_b, b_mac);
        let out = a.send_udp(ip_b, 1234, 7, b"honest", SpoofMode::None);
        for f in out.tx {
            edges[0].injector.send((a_port, f)).unwrap();
        }
    }
    pump_until(&mut edges, &mut deliveries, "honest delivery", |_, d| {
        d.iter().any(|(e, del)| *e == 1 && del.payload == b"honest")
    });
    println!("  honest A -> B delivered (recovered binding, no re-DORA)");

    {
        let a = edges[0].hosts.get_mut(&a_port).unwrap();
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
    {
        let d = edges[1].hosts.get_mut(&d_port).unwrap();
        d.learn_arp(ip_b, b_mac);
        let out = d.send_udp(ip_b, 1234, 7, b"unbound", SpoofMode::None);
        for f in out.tx {
            edges[1].injector.send((d_port, f)).unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    deliveries.extend(pump(&mut edges));
    assert!(
        !deliveries
            .iter()
            .any(|(_, del)| del.payload == b"spoofed" || del.payload == b"unbound"),
        "spoofed/unbound traffic must still be dropped"
    );
    println!("  spoofed A -> B and unbound D -> B both dropped");

    c0.stop();
    c1.stop();
    server.shutdown();
    BindingStore::wipe(&dir).unwrap();
    let _ = std::fs::remove_dir(&dir);
    println!("\nrestart_recovery: OK");
}
