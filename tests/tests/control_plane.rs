//! Control plane end to end across the real OpenFlow byte channels: SAV
//! filtering under the default configuration, and a larger-scale smoke run
//! with a replay-determinism check.

use sav_baselines::Mechanism;
use sav_bench::{run_mechanism, ScenarioOpts};
use sav_controller::apps::L2RoutingApp;
use sav_controller::testbed::{Testbed, TestbedConfig};
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig};
use sav_dataplane::host::{HostApp, HostConfig};
use sav_sim::{SimDuration, SimTime};
use sav_topo::generators as topogen;
use sav_topo::routes::Routes;
use sav_traffic::generators as trafficgen;
use std::sync::Arc;

#[test]
fn default_sav_blocks_spoofing() {
    let topo = Arc::new(topogen::linear(2, 2));
    let routes = Arc::new(Routes::compute(&topo));
    let apps: Vec<Box<dyn sav_controller::App>> = vec![
        Box::new(SavApp::new(topo.clone(), SavConfig::default())),
        Box::new(L2RoutingApp::new(topo.clone(), routes.clone())),
    ];
    let mut tb = Testbed::new(
        topo.clone(),
        routes,
        Controller::new(apps),
        TestbedConfig::default(),
        |h| HostConfig {
            mac: h.mac,
            ip: h.ip,
            app: HostApp::Sink,
        },
    );
    tb.seed_all_arp();
    tb.connect_control_plane();
    tb.run_until(SimTime::from_millis(200));
    tb.schedule(
        SimTime::from_millis(300),
        sav_controller::testbed::TestbedCmd::SendUdp {
            host: 0,
            dst_ip: topo.hosts()[3].ip,
            src_port: 1,
            dst_port: 7,
            payload: b"spoof".to_vec(),
            spoof: sav_dataplane::host::SpoofMode::Ipv4("198.51.100.1".parse().unwrap()),
        },
    );
    tb.run_until(SimTime::from_secs(1));
    assert!(tb.deliveries.iter().all(|d| d.delivery.payload != b"spoof"));
}

#[test]
fn large_campus_smoke() {
    // 19 switches / 128 hosts / mixed traffic: the system converges,
    // filters perfectly, and stays deterministic at scale.
    let topo = Arc::new(topogen::campus(16, 8));
    assert_eq!(topo.hosts().len(), 128);
    let all: Vec<usize> = (0..topo.hosts().len()).collect();
    let legit = trafficgen::legit_uniform(&topo, &all, 2.0, SimDuration::from_secs(1), 64, 5001);
    let attack = trafficgen::spoof_attack(
        &topo,
        &[0, 31, 64, 100],
        trafficgen::SpoofStrategy::ExistingNeighbor,
        25.0,
        SimDuration::from_secs(1),
        None,
        5002,
    );
    let schedule = legit.merge(attack);
    let out = run_mechanism(&topo, Mechanism::SdnSav, &schedule, ScenarioOpts::default());
    assert!(out.legit_delivered_frac() > 0.99);
    assert_eq!(out.spoofed_delivered, 0);
    // Rule state: every edge carries its 8 hosts + overhead, nothing more.
    assert!(out.max_table0_rules() <= 8 + 5);
    // Convergence equipment check: all 19 switches answered the handshake.
    let mut tb = out.testbed;
    assert_eq!(tb.controller_mut().ready_dpids().len(), 19);
}

#[test]
fn paired_runs_are_bit_identical() {
    let topo = Arc::new(topogen::campus(4, 4));
    let all: Vec<usize> = (0..topo.hosts().len()).collect();
    let schedule =
        trafficgen::legit_uniform(&topo, &all, 10.0, SimDuration::from_secs(1), 64, 9001);
    let run = || {
        let out = run_mechanism(&topo, Mechanism::SdnSav, &schedule, ScenarioOpts::default());
        let r = out.testbed.report();
        (
            r.events,
            r.deliveries,
            r.controller.flow_mods,
            r.controller.packet_ins,
            out.legit_delivered,
        )
    };
    assert_eq!(run(), run(), "identical seeds must replay identically");
}

fn _assert_traits(tb: &Testbed) {
    // Compile-time check that the testbed stays inspectable.
    let _ = tb.topology();
}
