//! # sav-core — Source Address Validation for Software Defined Networks
//!
//! The paper's contribution: an SDN controller application that enforces
//! SAV (RFC 2827 ingress filtering, SAVI-style binding enforcement) by
//! compiling a **binding table** — `IP ↔ (switch, port, MAC)` — into
//! OpenFlow rules at the network edge, and keeping those rules current as
//! the network changes (DHCP churn, host migration, link events).
//!
//! ## Mechanism
//!
//! Table 0 of every switch is the validation table (the forwarding app
//! bridges it at priority 1). The SAV app overlays:
//!
//! | priority | where | match | action |
//! |---|---|---|---|
//! | 40000 `PRIO_ALLOW` | edge | `(in_port, [eth_src,] ipv4_src)` per binding | `goto` forwarding |
//! | 37000 `PRIO_DHCP_TRUST` | DHCP server port | `udp 67→68` | copy to controller + `goto` |
//! | 36000 `PRIO_DHCP_CLIENT` | edge | `udp 68→67` | copy to controller + `goto` |
//! | 35000 `PRIO_ISAV_DENY` | border ports | `ipv4_src ∈ internal prefix` | drop |
//! | 30000 `PRIO_TRUNK` | trunk ports | `in_port` | `goto` forwarding |
//! | 20000 `PRIO_OSAV_DENY` | edge | `eth_type=IPv4` | drop (proactive) / punt (reactive & FCFS) |
//!
//! Everything else (ARP in particular) falls through the priority-1 bridge.
//! Binding sources: the **static plan**, **DHCP snooping** (the copy rules
//! above observe the real DORA exchange crossing the data plane, including
//! the server ACK — rogue-DHCP ACKs from untrusted ports never reach
//! clients because they fail source validation), and **FCFS** (first
//! packet claims the address, SAVI §FCFS style). Migration is handled by
//! gratuitous-ARP tracking: the binding moves, the old rule is deleted,
//! the new one installed.
//!
//! ## One rule pipeline
//!
//! ```text
//! bindings ──► cover policy ──► desired rule set ──► delta vs. installed
//! ```
//!
//! [`binding`] is the table; [`compiler`] owns the single definition of
//! "the rules a port should hold" — a pure function of the port's bindings
//! and the cover policy [`SavConfig`] selects (per-host, TCAM-budgeted,
//! exact-cover, subnet-prefix) — and the per-port cache that turns each
//! binding change into a minimal flow-mod delta; [`aggregate`] computes
//! the exact CIDR covers; [`rules`] renders each decision into a
//! `FlowMod` (pure constructors, unit-testable without a controller).
//! [`SavApp`] is the controller application feeding the pipeline from
//! DHCP snooping, FCFS punts and ARP, and shipping its deltas — at
//! switch-up as one batch, after a restart as a reconciliation diff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod app;
pub mod binding;
pub mod compiler;
pub mod poller;
pub mod rules;

pub use app::{BorderConfig, SavApp, SavConfig, SavMode, SavStats};
pub use binding::{Binding, BindingChange, BindingSource, BindingTable};
pub use compiler::RuleCompiler;
pub use poller::{SavRecord, SpoofSource, StatsPollerApp};

/// Priority of per-binding allow rules.
pub const PRIO_ALLOW: u16 = 40_000;
/// Priority of the trusted DHCP-server snoop/permit rule.
pub const PRIO_DHCP_TRUST: u16 = 37_000;
/// Priority of the DHCP client permit (lets unbound hosts run DORA).
pub const PRIO_DHCP_CLIENT: u16 = 36_000;
/// Priority of inbound-SAV denies at border ports.
pub const PRIO_ISAV_DENY: u16 = 35_000;
/// Priority of trunk pass-through rules.
pub const PRIO_TRUNK: u16 = 30_000;
/// Priority of the edge default deny (outbound SAV).
pub const PRIO_OSAV_DENY: u16 = 20_000;
/// Cookie tag marking rules owned by the SAV app (upper 16 bits).
pub const SAV_COOKIE: u64 = 0x5a56_0000_0000_0000;
/// Mask isolating the ownership tag of [`SAV_COOKIE`] — the cookie filter
/// used when reconciling installed rules after a controller restart.
pub const SAV_COOKIE_MASK: u64 = 0xffff_0000_0000_0000;
