//! Hot-standby failover over real loopback TCP.
//!
//! Two controller processes form a sav-cluster replication group. The
//! leader snoops DHCP and streams every binding-table WAL record to the
//! standby. Mid-traffic, the leader dies without warning. The standby
//! must win the election, assert mastership at the switch with a strictly
//! higher `generation_id`, hydrate the SAV app from its **replicated**
//! store (zero DHCP re-learning), reconcile the switch's surviving flow
//! table (everything kept, nothing reinstalled), and keep dropping
//! spoofed traffic throughout — failover never widens filtering.
//!
//! A second test proves the fence itself: a controller stuck on an older
//! generation is rejected by the switch's role logic before any app runs,
//! surfacing as a `role_rejected` journal event and zero flow-mods.

use sav_channel::backoff::BackoffPolicy;
use sav_channel::client::{self, ClientConfig};
use sav_channel::fault::FaultPlan;
use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_cluster::{ClusterConfig, ClusterEvent, ClusterHandle, ClusterNode, Role};
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
use sav_obs::Obs;
use sav_openflow::messages::{ControllerRole, Message, RoleMsg};
use sav_openflow::ports::PortDesc;
use sav_sim::SimTime;
use sav_store::{BindingStore, StoreConfig};
use sav_topo::generators;
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LEASE_SECS: u32 = 600;
/// Cluster liveness lease; the acceptance bar is takeover < 2× this.
const CLUSTER_LEASE: Duration = Duration::from_millis(500);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sav-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn mk_switch(dpid: u64) -> OpenFlowSwitch {
    let ports = (1..=4)
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
}

fn fast_server_config() -> ServerConfig {
    ServerConfig {
        echo_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(400),
        outbound_queue: 64,
        write_stall_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

fn fast_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        backoff: BackoffPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_millis(100),
            seed,
        },
        fault: FaultPlan::none(),
        read_timeout: Duration::from_millis(5),
    }
}

fn cluster_config(
    node_id: u64,
    listen: SocketAddr,
    peers: Vec<(u64, SocketAddr)>,
    dir: PathBuf,
    obs: Obs,
) -> ClusterConfig {
    let mut c = ClusterConfig::new(node_id, listen, peers, dir);
    c.lease = CLUSTER_LEASE;
    c.heartbeat_interval = Duration::from_millis(50);
    c.backoff.base = Duration::from_millis(20);
    c.backoff.cap = Duration::from_millis(100);
    c.obs = obs;
    c
}

/// The embedder's promotion step: take the node's replicated store, wire
/// the replication tap back in, hydrate the SAV app from it, fence the
/// switches at `generation`, and serve southbound on `addr`.
fn promote_and_serve(
    handle: &ClusterHandle,
    topo: &Arc<Topology>,
    addr: SocketAddr,
    obs: &Obs,
    generation: u64,
) -> (SouthboundServer, Counters) {
    let mut store = handle.take_store().expect("replica already taken");
    store.set_tap(handle.wal_tap());
    let server_node = &topo.hosts()[0];
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server_node.switch.dpid(), server_node.port)],
        ..SavConfig::default()
    };
    let app = SavApp::with_store(topo.clone(), config, store);
    let counters = app.counters.clone();
    let routes = Arc::new(Routes::compute(topo));
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(app),
        Box::new(L2RoutingApp::new(topo.clone(), routes)),
    ];
    let mut ctrl = Controller::new(apps);
    ctrl.set_master_generation(generation);
    ctrl.set_obs(obs.clone());
    let server = SouthboundServer::bind_with_retry(
        addr,
        fast_server_config(),
        {
            let mut c = Some(ctrl);
            move || c.take().expect("bind_with_retry retried after success")
        },
        Duration::from_secs(10),
    )
    .unwrap();
    (server, counters)
}

/// The single switch's edge: frame injector, host-side deliveries, hosts.
struct Edge {
    injector: SyncSender<(u32, Vec<u8>)>,
    delivered_rx: Receiver<(u32, Vec<u8>)>,
    hosts: HashMap<u32, Host>,
}

/// Move frames until the data plane goes quiet (single switch, no trunk).
fn pump(edge: &mut Edge) -> Vec<(u32, Delivery)> {
    let mut out = Vec::new();
    let mut moved = true;
    while moved {
        moved = false;
        while let Ok((port, frame)) = edge.delivered_rx.try_recv() {
            moved = true;
            if let Some(host) = edge.hosts.get_mut(&port) {
                let ho = host.on_frame(&frame);
                for tx in ho.tx {
                    edge.injector.send((port, tx)).unwrap();
                }
                for d in ho.delivered {
                    out.push((port, d));
                }
            }
        }
    }
    out
}

fn pump_until(
    edge: &mut Edge,
    sink: &mut Vec<(u32, Delivery)>,
    timeout: Duration,
    mut cond: impl FnMut(&Edge, &[(u32, Delivery)]) -> bool,
) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        sink.extend(pump(edge));
        if cond(edge, sink) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
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

fn dora(edge: &mut Edge, port: u32, xid: u32, deliveries: &mut Vec<(u32, Delivery)>) -> Ipv4Addr {
    let out = edge.hosts.get_mut(&port).unwrap().dhcp_discover(xid);
    for f in out.tx {
        edge.injector.send((port, f)).unwrap();
    }
    assert!(
        pump_until(edge, deliveries, Duration::from_secs(10), |e, _| {
            e.hosts[&port].dhcp == DhcpState::Bound
        }),
        "host on port {port} must bind via DORA"
    );
    edge.hosts[&port].ip
}

fn send_udp(edge: &mut Edge, port: u32, dst: Ipv4Addr, payload: &[u8], spoof: SpoofMode) {
    let out = edge
        .hosts
        .get_mut(&port)
        .unwrap()
        .send_udp(dst, 1234, 7, payload, spoof);
    for f in out.tx {
        edge.injector.send((port, f)).unwrap();
    }
}

/// The headline scenario: leader dies mid-traffic, the standby takes over
/// from its hot replica within 2× the liveness lease, and SAV enforcement
/// never has a hole.
#[test]
fn standby_takes_over_without_widening_filtering() {
    let topo = Arc::new(generators::linear(1, 4));
    let hosts = topo.hosts();
    let (server_node, host_a, host_b, host_d) = (&hosts[0], &hosts[1], &hosts[2], &hosts[3]);

    // Two cluster nodes on loopback; node 1 (lowest id) will lead.
    let (peer1, peer2) = (free_addr(), free_addr());
    let (south1, south2) = (free_addr(), free_addr());
    let (obs1, obs2) = (Obs::new(), Obs::new());
    let h1 = ClusterNode::spawn(cluster_config(
        1,
        peer1,
        vec![(2, peer2)],
        tmp("replica-1"),
        obs1.clone(),
    ))
    .unwrap();
    let h2 = ClusterNode::spawn(cluster_config(
        2,
        peer2,
        vec![(1, peer1)],
        tmp("replica-2"),
        obs2.clone(),
    ))
    .unwrap();

    let ev = h1.events().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(ev, ClusterEvent::BecameLeader { generation: 1 });
    let (server1, counters1) = promote_and_serve(&h1, &topo, south1, &obs1, 1);

    // One switch that knows both controller endpoints: the standby's
    // listener does not exist yet — it binds on takeover and the dialer
    // finds it in rotation.
    let (d_tx, d_rx) = channel();
    let client = client::spawn_multi(
        vec![south1, south2],
        mk_switch(1),
        fast_client_config(7),
        vec![],
        d_tx,
    );

    let ctrl = server1.controller();
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl.lock().ready_dpids().len() == 1
        }),
        "switch must complete the handshake (incl. the role exchange)"
    );
    assert!(
        wait_for(Duration::from_secs(10), || {
            counters1.get("reconciled_installed") >= 3
        }),
        "edge rule set must be installed"
    );

    let pool: Ipv4Cidr = "10.0.0.0/24".parse().unwrap();
    let mut edge = Edge {
        injector: client.injector(),
        delivered_rx: d_rx,
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
                    ip: "0.0.0.0".parse().unwrap(),
                    app: HostApp::Sink,
                }),
            ),
        ]),
    };
    let mut deliveries = Vec::new();

    // Two hosts bind via genuine DORA exchanges; the leader snoops them.
    let ip_a = dora(&mut edge, host_a.port, 0xa, &mut deliveries);
    let ip_b = dora(&mut edge, host_b.port, 0xb, &mut deliveries);
    assert!(pool.contains(ip_a) && pool.contains(ip_b));
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl.lock()
                .with_app::<SavApp, _>(|a| a.bindings().len() == 2 && a.stats.dhcp_acks == 2)
                .unwrap()
        }),
        "both bindings snooped and journalled by the leader"
    );
    // …and every one of them is already on the standby's hot replica.
    assert!(
        wait_for(Duration::from_secs(10), || h2.bindings().len() == 2),
        "standby must hold a hot copy before the crash"
    );
    assert_eq!(h2.role(), Role::Follower);

    // Honest traffic flows; a spoofed source dies at the edge.
    let b_mac = edge.hosts[&host_b.port].mac;
    edge.hosts
        .get_mut(&host_a.port)
        .unwrap()
        .learn_arp(ip_b, b_mac);
    send_udp(
        &mut edge,
        host_a.port,
        ip_b,
        b"honest-before",
        SpoofMode::None,
    );
    assert!(
        pump_until(
            &mut edge,
            &mut deliveries,
            Duration::from_secs(10),
            |_, d| { d.iter().any(|(_, del)| del.payload == b"honest-before") }
        ),
        "honest traffic must flow under the first leader"
    );

    // ---- The leader process dies: southbound server AND cluster node. --
    let t_kill = Instant::now();
    server1.shutdown();
    h1.shutdown();

    // During the outage the switch's flow table keeps enforcing: spoofed
    // traffic is dropped with no controller alive at all.
    send_udp(
        &mut edge,
        host_a.port,
        ip_b,
        b"spoofed-during-takeover",
        SpoofMode::Ipv4(pool.nth(200).unwrap()),
    );
    std::thread::sleep(Duration::from_millis(100));
    deliveries.extend(pump(&mut edge));

    // The standby claims a strictly newer generation within one lease…
    let ev = h2.events().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(ev, ClusterEvent::BecameLeader { generation: 2 });

    // …and serves from its replica. `recovered_bindings` counts what the
    // store held before any message arrived: replication, not re-learning.
    let (server2, counters2) = promote_and_serve(&h2, &topo, south2, &obs2, 2);
    assert_eq!(
        counters2.get("recovered_bindings"),
        2,
        "the replica must already hold both bindings"
    );
    let ctrl2 = server2.controller();
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl2.lock().ready_dpids().len() == 1
        }),
        "switch must re-handshake with the new master (generation 2)"
    );
    assert!(
        wait_for(Duration::from_secs(10), || {
            counters2.get("reconciled_kept") >= 5
        }),
        "surviving rules must be recognised, not replaced (kept = {})",
        counters2.get("reconciled_kept")
    );
    let takeover = t_kill.elapsed();
    h2.report_failover_complete();

    assert_eq!(counters2.get("reconciled_installed"), 0);
    assert_eq!(counters2.get("reconciled_deleted"), 0);
    let (n_bindings, dhcp_acks) = ctrl2
        .lock()
        .with_app::<SavApp, _>(|a| (a.bindings().len(), a.stats.dhcp_acks))
        .unwrap();
    assert_eq!(n_bindings, 2);
    assert_eq!(dhcp_acks, 0, "takeover must not depend on DHCP re-learning");
    assert_eq!(ctrl2.lock().stats.role_rejections, 0);
    assert!(
        takeover < 2 * CLUSTER_LEASE,
        "takeover took {takeover:?}, budget is 2x the {CLUSTER_LEASE:?} lease"
    );
    assert_eq!(obs2.counters.get("sav_failover_total"), 1);
    let journal = obs2.journal.tail_jsonl(20);
    assert!(journal.contains("leader_elected"), "journal: {journal}");
    assert!(journal.contains("failover_completed"), "journal: {journal}");

    // The spoofed frame never surfaced, before or after the takeover.
    send_udp(
        &mut edge,
        host_a.port,
        ip_b,
        b"spoofed-after-takeover",
        SpoofMode::Ipv4(pool.nth(201).unwrap()),
    );
    std::thread::sleep(Duration::from_millis(200));
    deliveries.extend(pump(&mut edge));
    assert!(
        !deliveries
            .iter()
            .any(|(_, del)| del.payload == b"spoofed-during-takeover"
                || del.payload == b"spoofed-after-takeover"),
        "spoofed sources must be dropped during and after takeover"
    );

    // Honest traffic from a replicated binding flows under the new leader.
    send_udp(
        &mut edge,
        host_a.port,
        ip_b,
        b"honest-after",
        SpoofMode::None,
    );
    assert!(
        pump_until(
            &mut edge,
            &mut deliveries,
            Duration::from_secs(10),
            |_, d| { d.iter().any(|(_, del)| del.payload == b"honest-after") }
        ),
        "honest traffic must flow under the new leader"
    );

    // And snooping is live again: a never-bound host completes DORA
    // against the new leader and only then may speak.
    let ip_d = dora(&mut edge, host_d.port, 0xd, &mut deliveries);
    assert!(pool.contains(ip_d));
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl2
                .lock()
                .with_app::<SavApp, _>(|a| a.stats.dhcp_acks == 1)
                .unwrap()
        }),
        "the new leader must snoop fresh DHCP traffic"
    );

    // Neither bounded queue shed anything along the way.
    assert_eq!(client.metrics().stats().frames_dropped, 0);
    for obs in [&obs1, &obs2] {
        assert_eq!(obs.counters.get("sav_cluster_events_dropped_total"), 0);
    }

    client.stop();
    server2.shutdown();
    h2.shutdown();
}

/// The fence itself: a controller stuck on an older generation is refused
/// by the switch before any app logic runs — no flow-mods, a
/// `role_rejected` journal entry, and the connection is dropped.
#[test]
fn stale_generation_controller_is_fenced_over_tcp() {
    let topo = Arc::new(generators::linear(1, 2));
    let dir = tmp("fence-store");

    // The switch was mastered at generation 9 by the real leader before
    // this controller ever shows up.
    let mut sw = mk_switch(1);
    sw.handle_controller_bytes(
        SimTime::ZERO,
        &Message::RoleRequest(RoleMsg {
            role: ControllerRole::Master,
            generation_id: 9,
        })
        .encode(1),
    )
    .unwrap();

    let obs = Obs::new();
    let server_node = &topo.hosts()[0];
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server_node.switch.dpid(), server_node.port)],
        ..SavConfig::default()
    };
    let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    let app = SavApp::with_store(topo.clone(), config, store);
    let counters = app.counters.clone();
    let mut ctrl = Controller::new(vec![Box::new(app) as Box<dyn App>]);
    ctrl.set_master_generation(3); // stale: 3 < 9
    ctrl.set_obs(obs.clone());

    let server = SouthboundServer::bind("127.0.0.1:0", fast_server_config(), ctrl).unwrap();
    let (d_tx, _d_rx) = channel();
    let client = client::spawn(server.local_addr(), sw, fast_client_config(3), vec![], d_tx);

    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl.lock().stats.role_rejections >= 1
        }),
        "the switch must refuse the stale generation"
    );
    assert!(
        ctrl.lock().ready_dpids().is_empty(),
        "a fenced controller must never reach ready"
    );
    assert_eq!(
        counters.get("reconciled_installed"),
        0,
        "no flow-mod may originate from a fenced controller"
    );
    assert!(
        obs.journal.tail_jsonl(20).contains("role_rejected"),
        "the rejection must be journalled"
    );

    client.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failover availability must not depend on the deposed ex-leader closing
/// its listener promptly: a socket that still *accepts* but never serves
/// (it hangs up without asserting Master) must not capture the switch in
/// a redial loop. The dialer rotates past it and finds the real leader.
#[test]
fn switch_rotates_past_an_accepting_but_dead_controller() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // The zombie: accepts every dial, says nothing, hangs up.
    let zombie = TcpListener::bind("127.0.0.1:0").unwrap();
    let zombie_addr = zombie.local_addr().unwrap();
    zombie.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let zombie_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match zombie.accept() {
                    Ok((conn, _)) => drop(conn),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })
    };

    // The real leader on the second address in the failover list.
    let topo = Arc::new(generators::linear(1, 2));
    let dir = tmp("rotate-store");
    let server_node = &topo.hosts()[0];
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server_node.switch.dpid(), server_node.port)],
        ..SavConfig::default()
    };
    let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    let app = SavApp::with_store(topo.clone(), config, store);
    let mut ctrl = Controller::new(vec![Box::new(app) as Box<dyn App>]);
    ctrl.set_master_generation(1);
    let server = SouthboundServer::bind("127.0.0.1:0", fast_server_config(), ctrl).unwrap();

    // The switch dials the zombie first.
    let (d_tx, _d_rx) = channel();
    let client = client::spawn_multi(
        vec![zombie_addr, server.local_addr()],
        mk_switch(1),
        fast_client_config(11),
        vec![],
        d_tx,
    );

    let ctrl = server.controller();
    assert!(
        wait_for(Duration::from_secs(10), || {
            ctrl.lock().ready_dpids().len() == 1
        }),
        "the dialer must rotate past the dead-but-accepting controller"
    );
    assert!(
        client.metrics().stats().reconnects >= 1,
        "at least one failed attempt against the zombie preceded success"
    );

    stop.store(true, Ordering::Relaxed);
    zombie_thread.join().unwrap();
    client.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
