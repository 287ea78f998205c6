//! # sav-controller — the SDN controller framework and testbed
//!
//! The control-plane substrate the SAV application (in `sav-core`) runs on:
//!
//! * [`controller`] — [`controller::Controller`]: per-switch connection
//!   state machines (HELLO / FEATURES handshake over real encoded bytes),
//!   event dispatch to a chain of [`app::App`]s, and outbound message
//!   collection.
//! * [`app`] — the application trait and [`app::Ctx`], the handle apps use
//!   to install flows, send packet-outs and read the network view.
//! * [`apps`] — [`apps::L2RoutingApp`], the forwarding application every
//!   scenario uses: proactive destination-MAC forwarding over shortest
//!   paths and proxy-ARP with tree-flooding fallback. (The DHCP server that
//!   SAV's DHCP-snooping mode observes runs as a data-plane host.)
//! * [`testbed`] — the deterministic full-network simulation: switches,
//!   hosts, control channels with latency, link latencies, a command
//!   interface for workloads, and measurement taps.
//!
//! ## Table layout convention
//!
//! Apps share the switch pipeline by convention (documented here, enforced
//! nowhere — exactly like real controller platforms):
//!
//! | table | owner | content |
//! |---|---|---|
//! | 0 | SAV / baseline filter | allow/deny source-validation rules; a priority-1 `goto:1` bridge installed by the forwarding app |
//! | 1 | forwarding | destination-MAC unicast + broadcast/miss punts |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod controller;
pub mod testbed;

pub use app::{App, Ctx};
pub use controller::{ConnId, Controller, ControllerOutput, ControllerStats};
pub use testbed::{Testbed, TestbedCmd, TestbedConfig, TestbedReport};

/// Table 0: source-address validation (or its baseline stand-ins).
pub const TABLE_SAV: u8 = 0;
/// Table 1: L2 forwarding.
pub const TABLE_FWD: u8 = 1;
/// Priority of the forwarding app's table-0 bridge rule.
pub const PRIO_BRIDGE: u16 = 1;
