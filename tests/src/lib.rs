//! # sav-integration-tests — helpers shared by the workspace-level tests
//!
//! The actual tests live in `tests/tests/*.rs`; this library carries the
//! common scenario shorthand and, in [`live`], the loopback-TCP harness.

#![forbid(unsafe_code)]

pub mod live;

use sav_baselines::Mechanism;
use sav_bench::{run_mechanism, Outcome, ScenarioOpts};
use sav_sim::SimDuration;
use sav_topo::Topology;
use sav_traffic::generators as trafficgen;
use sav_traffic::Schedule;
use std::sync::Arc;

/// A standard mixed workload: background legit traffic plus one attacker
/// per strategy, all seeded.
pub fn mixed_workload(topo: &Topology, seed: u64) -> Schedule {
    let all: Vec<usize> = (0..topo.hosts().len()).collect();
    let legit = trafficgen::legit_uniform(topo, &all, 5.0, SimDuration::from_secs(2), 64, seed);
    let atk1 = trafficgen::spoof_attack(
        topo,
        &[0],
        trafficgen::SpoofStrategy::RandomRoutable,
        20.0,
        SimDuration::from_secs(2),
        None,
        seed + 1,
    );
    let atk2 = trafficgen::spoof_attack(
        topo,
        &[1],
        trafficgen::SpoofStrategy::SameSubnet,
        20.0,
        SimDuration::from_secs(2),
        None,
        seed + 2,
    );
    let atk3 = trafficgen::spoof_attack(
        topo,
        &[2],
        trafficgen::SpoofStrategy::ExistingNeighbor,
        20.0,
        SimDuration::from_secs(2),
        None,
        seed + 3,
    );
    legit.merge(atk1).merge(atk2).merge(atk3)
}

/// Run a mechanism over the standard workload with default options.
pub fn run_default(topo: &Arc<Topology>, mechanism: Mechanism, schedule: &Schedule) -> Outcome {
    run_mechanism(topo, mechanism, schedule, ScenarioOpts::default())
}
