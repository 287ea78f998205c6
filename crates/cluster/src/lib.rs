//! # sav-cluster — hot-standby controller replication with role fencing
//!
//! The paper's controller is a single point of failure: when it dies, DHCP
//! snooping stops, bindings age out, and the dataplane either fails open
//! (spoofing returns) or fails closed (legitimate hosts lose service).
//! This crate removes that single point without changing the trust model:
//!
//! * [`ClusterNode`] — two or more controller processes form a
//!   replication group over a tiny length-framed TCP peer protocol
//!   ([`proto`]). The leader streams every durable binding-table WAL
//!   record to the standbys, so each follower keeps a **hot, durable
//!   replica** (its own [`sav_store::BindingStore`]) that is
//!   byte-equivalent to the leader's log.
//! * [`Election`] — deterministic lease-based election with no external
//!   coordination: the lowest alive node id leads, and every claim bumps
//!   a monotonically increasing generation.
//! * **Role fencing** — the generation is asserted to switches via
//!   OF1.3 `ROLE_REQUEST{MASTER, generation_id}`. Switches reject stale
//!   generations, so even a partitioned ex-leader that still *believes*
//!   it leads cannot program flows. Safety rests on the switch-side
//!   fence, not on the election being perfect.
//!
//! On takeover the promoted standby takes its replica
//! ([`ClusterHandle::take_store`]), hydrates the SAV app from it — the
//! same replay path a standalone controller uses after a restart — and
//! reconciles the switches' flow tables against the replicated bindings.
//! Failover therefore never *widens* filtering: a binding the old leader
//! had not yet replicated fails closed (the host re-DHCPs), never open.
//!
//! Threading model matches `sav-channel`'s client: `std::net` + OS
//! threads + `std::sync::mpsc` channels, no async runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod node;
pub mod proto;

pub use election::{Election, Role, Transition};
pub use node::{ClusterConfig, ClusterEvent, ClusterHandle, ClusterNode};
pub use proto::{PeerDeframer, PeerMsg, ProtoError, MAX_FRAME, PROTO_VERSION};
