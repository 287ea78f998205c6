//! DHCP-snooping SAV, end to end over the data plane: bindings are learned
//! from a real DORA exchange crossing the switches, enforced immediately,
//! and retired with the lease. Includes the rogue-DHCP-server defence.

use sav_baselines::Mechanism;
use sav_bench::scenario::build_testbed;
use sav_bench::ScenarioOpts;
use sav_controller::testbed::TestbedCmd;
use sav_core::SavApp;
use sav_dataplane::host::{DhcpServerState, HostApp, SpoofMode};
use sav_net::addr::Ipv4Cidr;
use sav_obs::Obs;
use sav_sim::{SimDuration, SimTime};
use sav_topo::generators as topogen;
use sav_topo::Topology;
use sav_traffic::tag::{self, TrafficClass};
use std::sync::Arc;

const LEASE_SECS: u32 = 30;

/// One edge switch, six hosts: host 0 is the DHCP server, the rest boot
/// unaddressed.
fn dhcp_testbed(
    rogue_server: Option<usize>,
) -> (Arc<Topology>, sav_controller::testbed::Testbed, Ipv4Cidr) {
    let topo = Arc::new(topogen::linear(1, 6));
    let pool: Ipv4Cidr = "10.0.0.0/24".parse().unwrap();
    let server_node = &topo.hosts()[0];
    let trusted = (server_node.switch.dpid(), server_node.port);
    let mut opts = ScenarioOpts {
        seed_arp: false, // DHCP scenario must resolve for real
        sav_overrides: Box::new(move |cfg| {
            cfg.static_plan = false;
            cfg.trusted_dhcp_ports = vec![trusted];
        }),
        ..Default::default()
    };
    opts.host_app = Box::new(move |h| {
        if h.id.0 == 0 {
            HostApp::DhcpServer(DhcpServerState::new(pool, 100, LEASE_SECS))
        } else if Some(h.id.0) == rogue_server {
            // The rogue hands out poisoned addresses from a foreign range.
            HostApp::DhcpServer(DhcpServerState::new(
                "172.16.66.0/24".parse().unwrap(),
                1,
                3600,
            ))
        } else {
            HostApp::Sink
        }
    });
    let mut tb = build_testbed(&topo, Mechanism::SdnSav, opts);
    tb.connect_control_plane();
    (topo, tb, pool)
}

#[test]
fn dora_learns_binding_and_enforces_it() {
    let (_topo, mut tb, pool) = dhcp_testbed(None);
    let obs = Obs::with_tracing();
    tb.controller_mut().set_obs(obs.clone());
    tb.controller_mut()
        .with_app::<SavApp, _>(|a| a.set_obs(obs.clone()))
        .unwrap();
    tb.run_until(SimTime::from_millis(100));

    // Hosts 1 and 2 acquire addresses.
    tb.schedule(
        SimTime::from_millis(200),
        TestbedCmd::DhcpDiscover { host: 1 },
    );
    tb.schedule(
        SimTime::from_millis(400),
        TestbedCmd::DhcpDiscover { host: 2 },
    );
    tb.run_until(SimTime::from_secs(2));

    let ip1 = tb.host(1).ip;
    let ip2 = tb.host(2).ip;
    assert!(pool.contains(ip1), "host 1 bound via DORA: {ip1}");
    assert!(pool.contains(ip2), "host 2 bound via DORA: {ip2}");
    assert_ne!(ip1, ip2);

    // The SAV app holds both bindings.
    let n = tb
        .controller_mut()
        .with_app::<SavApp, _>(|a| (a.bindings().len(), a.stats.dhcp_acks))
        .unwrap();
    assert_eq!(n.0, 2, "two snooped bindings");
    assert_eq!(n.1, 2, "two ACKs seen");
    // Every DORA exchange completes a causal trace (packet-in → barrier ack).
    assert_eq!(
        (obs.traces.completed(), obs.traces.abandoned()),
        (2, 0),
        "one completed trace per DORA exchange"
    );

    // Host 1 → host 2 honest traffic passes.
    tb.schedule(
        SimTime::from_secs(2),
        TestbedCmd::SendUdp {
            host: 1,
            dst_ip: ip2,
            src_port: 1000,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Legit, 1, 32),
            spoof: SpoofMode::None,
        },
    );
    // Host 1 spoofing an unbound pool address is dropped.
    tb.schedule(
        SimTime::from_secs(2),
        TestbedCmd::SendUdp {
            host: 1,
            dst_ip: ip2,
            src_port: 1000,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Spoofed, 2, 32),
            spoof: SpoofMode::Ipv4(pool.nth(200).unwrap()),
        },
    );
    // Host 3 (never DHCPed, no binding) cannot talk at all.
    tb.schedule(
        SimTime::from_secs(2),
        TestbedCmd::SendUdp {
            host: 3,
            dst_ip: ip2,
            src_port: 1000,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Spoofed, 3, 32),
            spoof: SpoofMode::None,
        },
    );
    tb.run_until(SimTime::from_secs(4));

    let classes: Vec<_> = tb
        .deliveries
        .iter()
        .filter(|d| d.host == 2 && d.delivery.dst_port == 7)
        .filter_map(|d| tag::parse(&d.delivery.payload))
        .collect();
    assert_eq!(classes.len(), 1, "exactly the honest datagram arrives");
    assert_eq!(classes[0].0, TrafficClass::Legit);
}

#[test]
fn lease_expiry_revokes_the_binding() {
    let (_topo, mut tb, pool) = dhcp_testbed(None);
    tb.run_until(SimTime::from_millis(100));
    tb.schedule(
        SimTime::from_millis(200),
        TestbedCmd::DhcpDiscover { host: 1 },
    );
    tb.schedule(
        SimTime::from_millis(300),
        TestbedCmd::DhcpDiscover { host: 2 },
    );
    tb.run_until(SimTime::from_secs(2));
    let ip1 = tb.host(1).ip;
    let ip2 = tb.host(2).ip;
    assert!(pool.contains(ip1));

    // Within the lease: traffic passes.
    tb.schedule(
        SimTime::from_secs(3),
        TestbedCmd::SendUdp {
            host: 1,
            dst_ip: ip2,
            src_port: 1,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Legit, 10, 32),
            spoof: SpoofMode::None,
        },
    );
    // Far beyond the lease: the allow rule hard-timed-out, binding gone.
    let after = SimTime::from_secs(u64::from(LEASE_SECS) + 5);
    tb.schedule(
        after,
        TestbedCmd::SendUdp {
            host: 1,
            dst_ip: ip2,
            src_port: 1,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Legit, 11, 32),
            spoof: SpoofMode::None,
        },
    );
    tb.run_until(after + SimDuration::from_secs(2));

    let got: Vec<u32> = tb
        .deliveries
        .iter()
        .filter(|d| d.host == 2 && d.delivery.dst_port == 7)
        .filter_map(|d| tag::parse(&d.delivery.payload).map(|(_, id)| id))
        .collect();
    assert!(got.contains(&10), "in-lease traffic must pass");
    assert!(
        !got.contains(&11),
        "post-lease traffic must be dropped until re-DHCP"
    );
    let expired = tb
        .controller_mut()
        .with_app::<SavApp, _>(|a| a.stats.bindings_expired)
        .unwrap();
    assert!(expired >= 1, "binding expiry observed via FLOW_REMOVED");
}

#[test]
fn release_revokes_immediately() {
    let (_topo, mut tb, _pool) = dhcp_testbed(None);
    tb.run_until(SimTime::from_millis(100));
    tb.schedule(
        SimTime::from_millis(200),
        TestbedCmd::DhcpDiscover { host: 1 },
    );
    tb.schedule(
        SimTime::from_millis(300),
        TestbedCmd::DhcpDiscover { host: 2 },
    );
    tb.run_until(SimTime::from_secs(2));
    let ip1 = tb.host(1).ip;
    let ip2 = tb.host(2).ip;

    tb.schedule(SimTime::from_secs(2), TestbedCmd::DhcpRelease { host: 1 });
    // After release, packets with the released source are spoofing.
    tb.schedule(
        SimTime::from_secs(3),
        TestbedCmd::SendUdp {
            host: 1,
            dst_ip: ip2,
            src_port: 1,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Spoofed, 20, 32),
            spoof: SpoofMode::Ipv4(ip1), // its own *former* address
        },
    );
    tb.run_until(SimTime::from_secs(5));
    let leaked = tb.deliveries.iter().any(|d| {
        d.host == 2
            && matches!(
                tag::parse(&d.delivery.payload),
                Some((TrafficClass::Spoofed, 20))
            )
    });
    assert!(!leaked, "released address must not pass validation");
    let releases = tb
        .controller_mut()
        .with_app::<SavApp, _>(|a| a.stats.dhcp_releases)
        .unwrap();
    assert_eq!(releases, 1);
}

#[test]
fn rogue_dhcp_server_cannot_poison_clients() {
    // Host 5 runs a rogue DHCP server on an untrusted port. Its OFFER/ACK
    // messages fail source validation at its own edge port and die there.
    let (_topo, mut tb, pool) = dhcp_testbed(Some(5));
    tb.run_until(SimTime::from_millis(100));
    tb.schedule(
        SimTime::from_millis(200),
        TestbedCmd::DhcpDiscover { host: 1 },
    );
    tb.run_until(SimTime::from_secs(3));
    let ip1 = tb.host(1).ip;
    assert!(
        pool.contains(ip1),
        "client must bind via the trusted server, got {ip1}"
    );
    assert!(
        !Ipv4Cidr::new("172.16.66.0".parse().unwrap(), 24).contains(ip1),
        "rogue pool must never reach the client"
    );
}

#[test]
fn unused_code_note_clients_start_with_plan_ip() {
    // Documenting a scenario boundary: build_testbed assigns planned IPs;
    // the DHCP flows above *override* them on ACK. The pre-DORA planned IP
    // is unusable anyway because the static plan is disabled (no binding).
    let (_topo, mut tb, _pool) = dhcp_testbed(None);
    tb.run_until(SimTime::from_millis(100));
    let ip3 = tb.host(3).ip;
    let ip2 = tb.host(2).ip;
    tb.schedule(
        SimTime::from_millis(200),
        TestbedCmd::SendUdp {
            host: 3,
            dst_ip: ip2,
            src_port: 1,
            dst_port: 7,
            payload: tag::payload(TrafficClass::Spoofed, 30, 32),
            spoof: SpoofMode::None,
        },
    );
    tb.run_until(SimTime::from_secs(1));
    let leaked = tb.deliveries.iter().any(|d| {
        d.host == 2
            && matches!(
                tag::parse(&d.delivery.payload),
                Some((TrafficClass::Spoofed, 30))
            )
    });
    assert!(
        !leaked,
        "pre-DORA host has no binding: {ip3} must be blocked"
    );
}
