//! [`SavApp`] — the SAV controller application.
//!
//! Ties the binding table and the rule compiler to the controller event
//! stream: seeds static bindings at switch-up, snoops DHCP through the
//! copy rules, claims FCFS bindings from punted first packets, validates
//! reactively when configured, tracks migrations via (gratuitous) ARP, and
//! retires state when rules time out or ports die.
//!
//! With a [`BindingStore`] attached ([`SavApp::with_store`]) the table is
//! durable: every mutation appends a WAL record before the derived rule
//! change ships, and after a controller restart the recovered table is
//! *reconciled* against each switch's installed SAV rules (flow-stats diff
//! by cookie) instead of blindly re-pushed — strays deleted, missing rules
//! installed, matching rules kept with their switch-side timers intact.

use crate::binding::{Binding, BindingChange, BindingSource, BindingTable};
use crate::compiler::RuleCompiler;
use crate::rules;
use crate::{SAV_COOKIE, SAV_COOKIE_MASK};
use sav_controller::app::{App, Ctx, Disposition};
use sav_metrics::Counters;
use sav_net::addr::{Ipv6Cidr, MacAddr};
use sav_net::dhcpv4::{DhcpMessageType, DhcpRepr, DHCP_SERVER_PORT};
use sav_net::packet::{L4Info, ParsedPacket};
use sav_obs::{EventKind, Obs, Severity, Span, TraceId, TraceStageGuard};
use sav_openflow::consts::port as ofport;
use sav_openflow::messages::{
    FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, FlowStatsEntry, FlowStatsRequest,
    Message, MultipartReplyBody, MultipartRequestBody, PacketIn, PacketOut, PortStatus,
};
use sav_openflow::oxm::OxmMatch;
use sav_openflow::prelude::Action;
use sav_sim::{SimDuration, SimTime};
use sav_store::{BindingRecord, BindingStore, RecordSource, WalOp};
use sav_topo::{SwitchId, SwitchRole, Topology};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn to_record(b: &Binding) -> BindingRecord {
    BindingRecord {
        ip: b.ip,
        mac: b.mac,
        dpid: b.dpid,
        port: b.port,
        source: match b.source {
            BindingSource::Static => RecordSource::Static,
            BindingSource::Dhcp => RecordSource::Dhcp,
            BindingSource::Fcfs => RecordSource::Fcfs,
        },
        expires: b.expires,
    }
}

fn source_label(s: BindingSource) -> &'static str {
    match s {
        BindingSource::Static => "static",
        BindingSource::Dhcp => "dhcp",
        BindingSource::Fcfs => "fcfs",
    }
}

fn from_record(r: &BindingRecord) -> Binding {
    Binding {
        ip: r.ip,
        mac: r.mac,
        dpid: r.dpid,
        port: r.port,
        source: match r.source {
            RecordSource::Static => BindingSource::Static,
            RecordSource::Dhcp => BindingSource::Dhcp,
            RecordSource::Fcfs => BindingSource::Fcfs,
        },
        expires: r.expires,
    }
}

/// Proactive rules vs. per-packet controller validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SavMode {
    /// Compile bindings to flow rules; the data plane filters at line rate.
    Proactive,
    /// Punt unmatched sources to the controller and validate each packet —
    /// the strawman the proactive design is evaluated against.
    Reactive,
}

/// Configuration of the SAV application.
#[derive(Debug, Clone)]
pub struct SavConfig {
    /// Proactive or reactive enforcement.
    pub mode: SavMode,
    /// Seed bindings from the topology's static address plan at switch-up.
    pub static_plan: bool,
    /// Learn bindings from snooped DHCP.
    pub dhcp_snooping: bool,
    /// First-come-first-served claiming of unbound sources.
    pub fcfs: bool,
    /// Include `eth_src` in allow rules (binds IP to MAC, not just port).
    pub match_mac: bool,
    /// Cover each port's bound addresses with *prefix* allows instead of
    /// per-host rules: one rule per address-plan subnet holding a binding.
    /// Selects the compiler's cover policy (see [`crate::compiler`]);
    /// overrides `tcam_budget`.
    pub aggregate: bool,
    /// With `aggregate`: use the minimal *exact* CIDR cover of the port's
    /// bound addresses ([`crate::aggregate::exact_cover`]) instead of the
    /// whole subnet — no unassigned address passes, dense blocks still
    /// merge. Equivalent to a TCAM budget of zero.
    pub aggregate_exact: bool,
    /// Enforce outbound SAV at edge switches.
    pub outbound: bool,
    /// Enforce inbound SAV at border switches.
    pub inbound: bool,
    /// Idle timeout (seconds) of FCFS and reactive allow rules.
    pub dynamic_idle_timeout: u16,
    /// Trusted DHCP server attachment points `(dpid, port)`.
    pub trusted_dhcp_ports: Vec<(u64, u32)>,
    /// Restrict enforcement to these ASes (`None` = everywhere). Models
    /// partial deployment: e.g. only the attacker's network deploys SAV in
    /// the reflection case study.
    pub enforced_ases: Option<Vec<u32>>,
    /// IPv6 prefixes internal to each enforced network: every border port
    /// gets an `isav_deny_v6` per prefix, alongside the IPv4 denies derived
    /// from the topology's subnet plan (the v6 address plan is static
    /// configuration, as noted in [`rules::binding_allow_v6`]).
    pub internal_v6_prefixes: Vec<Ipv6Cidr>,
    /// Enable the anti-amplification border guard (the `sav-border` crate)
    /// with this configuration. `None` leaves the rule set byte-identical
    /// to a guard-less deployment.
    pub border: Option<BorderConfig>,
    /// Per-port TCAM budget for adaptive aggregation. A port's host allows
    /// are compressed into the exact CIDR cover of its bound addresses once
    /// their count *exceeds* this budget, and split back toward host rules
    /// when releases/migrations shrink the set. `None` (the default) keeps
    /// pure per-host rules.
    pub tcam_budget: Option<usize>,
}

/// Configuration of the anti-amplification border guard. Lives in sav-core
/// so [`SavConfig`] can carry it; the enforcement app consuming it is
/// `sav_border::BorderGuardApp` (sav-border depends on sav-core, not the
/// other way around).
#[derive(Debug, Clone)]
pub struct BorderConfig {
    /// `N`: quarantine a source once response bytes exceed `N×` its
    /// received bytes (RFC 9000 §8 uses 3).
    pub amplification_limit: u64,
    /// Never quarantine before this many response bytes (absorbs a single
    /// fat first response).
    pub grace_bytes: u64,
    /// Poll ticks of clean bidirectional exchange before a source is
    /// validated (exempt).
    pub validation_polls: u32,
    /// Minimum cumulative inbound bytes before validation.
    pub validation_min_bytes: u64,
    /// Poll ticks without inbound traffic after which an earned validation
    /// lapses back to unvalidated (0 = never; allowlist entries never lapse).
    pub validation_idle_polls: u32,
    /// First-offense quarantine, seconds.
    pub quarantine_base_secs: u16,
    /// Ceiling of the exponential re-offense escalation, seconds.
    pub quarantine_max_secs: u16,
    /// Idle timeout on the per-source count rules: an idle source's rules
    /// expire at the switch and its controller state is evicted with them.
    pub count_idle_secs: u16,
    /// Hard cap on tracked sources per border table; sources past the cap
    /// are not admitted, bounding state under spoofed source scans.
    pub max_sources: usize,
    /// Sources exempted up front (peering partners, monitoring probes).
    pub allowlist: Vec<Ipv4Addr>,
    /// Observability handle for guard events, counters, and gauges.
    pub obs: Option<Obs>,
}

impl Default for BorderConfig {
    fn default() -> Self {
        BorderConfig {
            amplification_limit: 3,
            grace_bytes: 1500,
            validation_polls: 5,
            validation_min_bytes: 10_000,
            validation_idle_polls: 40,
            quarantine_base_secs: 10,
            quarantine_max_secs: 600,
            count_idle_secs: 60,
            max_sources: 1024,
            allowlist: vec![],
            obs: None,
        }
    }
}

impl Default for SavConfig {
    fn default() -> Self {
        SavConfig {
            mode: SavMode::Proactive,
            static_plan: true,
            dhcp_snooping: true,
            fcfs: false,
            match_mac: true,
            aggregate: false,
            aggregate_exact: false,
            outbound: true,
            inbound: true,
            dynamic_idle_timeout: 60,
            trusted_dhcp_ports: vec![],
            enforced_ases: None,
            internal_v6_prefixes: vec![],
            border: None,
            tcam_budget: None,
        }
    }
}

/// Counters for the evaluation harness.
#[derive(Debug, Default, Clone, Copy)]
pub struct SavStats {
    /// Bindings added (any source).
    pub bindings_added: u64,
    /// Bindings that moved to a new attachment.
    pub bindings_moved: u64,
    /// Bindings dropped on rule expiry.
    pub bindings_expired: u64,
    /// Upserts refused because the address is held by another MAC.
    pub conflicts: u64,
    /// DHCP ACKs snooped into bindings.
    pub dhcp_acks: u64,
    /// DHCP releases processed.
    pub dhcp_releases: u64,
    /// Packets punted by the validation table.
    pub punts: u64,
    /// Punted packets validated and re-injected.
    pub punts_allowed: u64,
    /// Punted packets rejected as spoofed.
    pub punts_denied: u64,
    /// FCFS bindings claimed.
    pub fcfs_claims: u64,
    /// Migrations detected via ARP.
    pub migrations: u64,
    /// ARP messages whose sender contradicted an existing binding.
    pub arp_spoofs: u64,
    /// SAV flow-mods sent (rule-churn metric).
    pub rules_installed: u64,
    /// SAV rule deletions sent.
    pub rules_deleted: u64,
}

/// Why a binding leaves the table: decides its WAL record, whether it counts
/// as an expiry, and whether the switch already dropped its host rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gone {
    Released,
    PortDown,
    LeaseExpired,
    RuleTimedOut,
}

/// The SAV application. Place it *before* the forwarding app in the chain
/// so it can consume validation punts.
pub struct SavApp {
    topo: Arc<Topology>,
    config: SavConfig,
    bindings: BindingTable,
    /// Last seen client attachment from snooped client DHCP messages.
    dhcp_pending: HashMap<MacAddr, (u64, u32)>,
    /// Trunk ports per dpid (punts from these are transit, never claims).
    trunks: HashMap<u64, HashSet<u32>>,
    /// Counters.
    pub stats: SavStats,
    /// Durable store; every binding mutation is WAL-logged when present.
    store: Option<BindingStore>,
    /// True when this app was hydrated from a store — switch-ups then
    /// reconcile against installed rules instead of blindly re-pushing.
    recovered: bool,
    /// Switches with an outstanding reconciliation flow-stats request.
    reconciling: HashSet<u64>,
    /// Shared counters (`reconciled_kept` / `reconciled_deleted` /
    /// `reconciled_installed`, `wal_append_errors`).
    pub counters: Counters,
    /// Observability handle (events, spans, gauges); absent by default so
    /// the hot paths cost one branch per site when unobserved.
    obs: Option<Obs>,
    /// Switches currently up (drives the `sav_connected_switches` gauge).
    connected: HashSet<u64>,
    /// Incremental compiler: per-(dpid, port) mirror + installed-rule cache
    /// emitting minimal deltas. Owns every proactive allow rule, whatever
    /// the aggregation policy.
    compiler: RuleCompiler,
    /// Causal trace of the binding currently mid-upsert, with the dpid its
    /// enforcement lands on; stage hooks attach to it while set.
    active_trace: Option<(TraceId, u64)>,
    /// Whether the active trace already fenced its flow-mods with a traced
    /// barrier (completion then rides on the barrier ack).
    trace_barrier_sent: bool,
    /// Trace clock captured at packet-in entry, so a trace minted during
    /// DHCP snooping starts at the packet's arrival, not the ACK decision.
    pktin_ns: Option<u64>,
}

impl SavApp {
    /// Build the app for a topology (no durability).
    pub fn new(topo: Arc<Topology>, config: SavConfig) -> SavApp {
        let trunks = topo
            .switches()
            .iter()
            .map(|s| (s.id.dpid(), topo.trunk_ports(s.id).into_iter().collect()))
            .collect();
        let compiler = RuleCompiler::for_config(&config, &topo);
        SavApp {
            topo,
            config,
            bindings: BindingTable::new(),
            dhcp_pending: HashMap::new(),
            trunks,
            stats: SavStats::default(),
            store: None,
            recovered: false,
            reconciling: HashSet::new(),
            counters: Counters::new(),
            obs: None,
            connected: HashSet::new(),
            compiler,
            active_trace: None,
            trace_barrier_sent: false,
            pktin_ns: None,
        }
    }

    /// Attach an observability handle: binding and rule lifecycle events
    /// land in its journal, instrumented paths in its trace histograms,
    /// table sizes in its gauges.
    pub fn with_obs(mut self, obs: Obs) -> SavApp {
        self.set_obs(obs);
        self
    }

    /// Non-consuming variant of [`SavApp::with_obs`], for apps already
    /// wired into a controller (e.g. behind `Controller::with_app`).
    pub fn set_obs(&mut self, obs: Obs) {
        if let Some(store) = &mut self.store {
            store.set_obs(obs.clone());
        }
        self.obs = Some(obs);
        self.refresh_gauges();
    }

    /// Build the app over a durable [`BindingStore`], hydrating the binding
    /// table from the recovered image. Switches connecting afterwards are
    /// reconciled: the app asks each for its installed SAV rules and diffs
    /// them against the recovered table rather than re-pushing everything.
    pub fn with_store(topo: Arc<Topology>, config: SavConfig, store: BindingStore) -> SavApp {
        let mut app = SavApp::new(topo, config);
        for rec in store.bindings().values() {
            // Hydration replays durable state; it is not a new mutation, so
            // nothing is logged back to the WAL.
            app.bindings.upsert(from_record(rec), SimTime::ZERO);
        }
        app.counters
            .add("recovered_bindings", app.bindings.len() as u64);
        app.store = Some(store);
        app.recovered = true;
        app
    }

    /// Read access to the binding table.
    pub fn bindings(&self) -> &BindingTable {
        &self.bindings
    }

    /// The app's configuration.
    pub fn config(&self) -> &SavConfig {
        &self.config
    }

    /// The durable store, if one is attached.
    pub fn store(&self) -> Option<&BindingStore> {
        self.store.as_ref()
    }

    /// Apply one binding upsert through the full pipeline — WAL, events,
    /// stats, and the derived flow-mod delta into `ctx` — returning what
    /// the table did. The programmatic twin of the DHCP/FCFS/ARP learning
    /// paths, for operator tooling and the differential test harness.
    pub fn upsert_binding(&mut self, ctx: &mut Ctx, b: Binding) -> BindingChange {
        let now = ctx.now();
        self.apply_upsert(ctx, b, now)
    }

    /// Remove the binding for `ip` (operator action or programmatic
    /// release) and retire its rules — under a TCAM budget a release inside
    /// a covered block splits the cover. Returns the removed binding.
    pub fn release_binding(&mut self, ctx: &mut Ctx, ip: Ipv4Addr) -> Option<Binding> {
        let b = *self.bindings.get(ip)?;
        self.drop_bindings(ctx, &[b], Gone::Released);
        Some(b)
    }

    /// Sweep lease-expired bindings out of the table and retire their
    /// rules, returning how many died. Cover rules carry no switch-side
    /// timers (one rule stands for many leases), so under any policy that
    /// can emit them [`App::on_poll`] drives this sweep; under pure
    /// per-host rules the switch's own `FlowRemoved` remains the expiry
    /// signal and the sweep finds at most bindings whose rules are about to
    /// report the same thing.
    pub fn sweep_expired(&mut self, ctx: &mut Ctx) -> usize {
        let dead = self.bindings.expire(ctx.now());
        self.drop_bindings(ctx, &dead, Gone::LeaseExpired);
        dead.len()
    }

    /// Take `gone` out of the table: WAL record, expiry count, journal
    /// event, and the rule delta their ports now need — the one exit path
    /// of every binding.
    fn drop_bindings(&mut self, ctx: &mut Ctx, gone: &[Binding], why: Gone) {
        let now = ctx.now();
        for b in gone {
            self.bindings.remove(b.ip);
            self.log_op(match why {
                Gone::Released | Gone::PortDown => WalOp::Remove(b.ip),
                Gone::LeaseExpired | Gone::RuleTimedOut => WalOp::Expire(b.ip),
            });
            if why != Gone::Released {
                self.stats.bindings_expired += 1;
            }
            self.emit(Severity::Info, || EventKind::BindingExpired {
                ip: b.ip.to_string(),
                dpid: b.dpid,
            });
            if self.compiler_active() {
                let delta = match why {
                    // The switch already dropped the rule; evict it from
                    // the cache without a delete.
                    Gone::RuleTimedOut => self.compiler.rule_expired(b, now),
                    _ => self.compiler.unbind(b, now),
                };
                self.ship_delta(ctx, b.dpid, delta);
            }
        }
        if !gone.is_empty() {
            self.refresh_gauges();
        }
    }

    /// Allow rules the incremental compiler believes are installed across
    /// all switches (hosts + covers) — the TCAM-occupancy metric the
    /// budget bounds per port.
    pub fn compiled_rule_count(&self) -> usize {
        self.compiler.installed_total()
    }

    /// Append one op to the WAL (no-op without a store). Append failures
    /// are counted, not fatal: enforcement must survive a full disk.
    fn log_op(&mut self, op: WalOp) {
        let _trace = if self.store.is_some() {
            self.trace_stage("wal_fsync")
        } else {
            None
        };
        if let Some(store) = &mut self.store {
            let _span = self.obs.as_ref().map(|o| o.span("wal_append"));
            if store.append(&op).is_err() {
                self.counters.incr("wal_append_errors");
                if let Some(obs) = &self.obs {
                    obs.event(
                        Severity::Error,
                        EventKind::WalError {
                            op: format!("{op:?}"),
                        },
                    );
                }
            } else if let Some(obs) = &self.obs {
                obs.gauges.set("sav_wal_bytes", store.wal_len() as f64);
            }
        }
    }

    /// Journal an event if observed (the closure defers payload
    /// formatting, so unobserved apps never allocate for it).
    fn emit(&self, severity: Severity, kind: impl FnOnce() -> EventKind) {
        if let Some(obs) = &self.obs {
            obs.event(severity, kind());
        }
    }

    /// Count and journal a punt verdict of "spoofed" (the reactive-path
    /// analogue of the proactive deny rule's drop counter).
    fn note_spoof_punt(&mut self, dpid: u64, port: u32) {
        self.stats.punts_denied += 1;
        if let Some(obs) = &self.obs {
            obs.counters.incr("sav_spoof_dropped_total");
            obs.counters
                .incr(format!("sav_spoof_dropped_total{{dpid=\"{dpid}\"}}"));
            obs.event(
                Severity::Warn,
                EventKind::SpoofDrop {
                    dpid,
                    port,
                    packets: 1,
                },
            );
        }
    }

    /// Start a trace span if observed.
    fn span(&self, name: &'static str) -> Option<Span> {
        self.obs.as_ref().map(|o| o.span(name))
    }

    /// Mint a causal trace for a binding about to be upserted on `dpid`.
    /// The trace starts at the packet-in that revealed the host (captured
    /// in [`on_packet_in`](App::on_packet_in)), and its first stage —
    /// `packet_in` — covers parse + snoop up to this decision point.
    fn begin_trace(&mut self, ip: Ipv4Addr, dpid: u64) {
        let Some(obs) = &self.obs else { return };
        if !obs.traces.enabled() {
            return;
        }
        let started = self.pktin_ns.take().unwrap_or_else(|| obs.traces.now_ns());
        if let Some(trace) = obs.traces.begin(ip.to_string(), dpid, started) {
            obs.traces
                .stage(trace, "packet_in", started, obs.traces.now_ns());
            self.active_trace = Some((trace, dpid));
            self.trace_barrier_sent = false;
        }
    }

    /// Deactivate the current trace. If no traced barrier went out (empty
    /// delta: refresh, conflict, reactive mode), the trace completes here
    /// instead of leaking open forever.
    fn finish_trace(&mut self) {
        let Some((trace, _)) = self.active_trace.take() else {
            return;
        };
        if !self.trace_barrier_sent {
            if let Some(obs) = &self.obs {
                obs.complete_trace(trace);
            }
        }
        self.trace_barrier_sent = false;
    }

    /// RAII stage on the active trace (`None` when no trace is active —
    /// the common, zero-cost case).
    fn trace_stage(&self, stage: &'static str) -> Option<TraceStageGuard> {
        let (trace, _) = self.active_trace?;
        let obs = self.obs.as_ref()?;
        Some(obs.traces.stage_guard(trace, stage))
    }

    /// Fence the active trace's flow-mods with a traced `BarrierRequest`
    /// on `dpid`: the barrier ack closes the trace. At most one per trace,
    /// and only on the switch the binding anchors to (a `Moved` binding
    /// also retires rules elsewhere — those don't define enforcement).
    fn fence_trace(&mut self, ctx: &mut Ctx, dpid: u64) -> bool {
        let Some((trace, trace_dpid)) = self.active_trace else {
            return false;
        };
        if self.trace_barrier_sent || trace_dpid != dpid {
            return false;
        }
        if let Some(obs) = &self.obs {
            obs.traces.stage_open(trace, "barrier_ack");
        }
        ctx.send_traced_barrier(dpid, trace);
        self.trace_barrier_sent = true;
        true
    }

    /// Re-publish the binding-table and connectivity gauges.
    fn refresh_gauges(&self) {
        let Some(obs) = &self.obs else { return };
        obs.gauges.set("sav_bindings", self.bindings.len() as f64);
        obs.gauges
            .set("sav_connected_switches", self.connected.len() as f64);
        let mut per_switch: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for b in self.bindings.iter() {
            *per_switch.entry(b.dpid).or_default() += 1;
        }
        for s in self.topo.switches() {
            let dpid = s.id.dpid();
            let n = per_switch.get(&dpid).copied().unwrap_or(0);
            obs.gauges
                .set(format!("sav_bindings{{dpid=\"{dpid}\"}}"), n as f64);
        }
    }

    fn is_trunk(&self, dpid: u64, port: u32) -> bool {
        self.trunks
            .get(&dpid)
            .map(|t| t.contains(&port))
            .unwrap_or(false)
    }

    fn punt_mode(&self) -> bool {
        self.config.mode == SavMode::Reactive || self.config.fcfs
    }

    /// A recovered controller reconciles each switch's installed rules
    /// against the desired set instead of blindly re-pushing. Reactive mode
    /// holds no proactive allows to reconcile.
    fn reconcile_enabled(&self) -> bool {
        self.recovered && self.compiler_active()
    }

    /// The binding-independent rules of an edge switch: trunk
    /// pass-throughs, the default deny, and the DHCP snoop rules.
    fn edge_base_rules(&self, sid: SwitchId) -> Vec<FlowMod> {
        let dpid = sid.dpid();
        let trunks = self.topo.trunk_ports(sid);
        let mut out: Vec<FlowMod> = trunks.into_iter().map(rules::trunk_allow).collect();
        out.push(rules::edge_default_deny(self.punt_mode()));
        if self.config.dhcp_snooping {
            out.push(rules::dhcp_client_permit());
            let trusted = self.config.trusted_dhcp_ports.iter();
            out.extend(
                trusted
                    .filter(|(d, _)| *d == dpid)
                    .map(|&(_, port)| rules::dhcp_server_trust(port)),
            );
        }
        out
    }

    /// The reconciliation target: every SAV rule this edge switch *should*
    /// have right now — the base rules plus the compiler's rule set for
    /// the current binding table, which the compiler adopts as installed
    /// (the diff about to ship makes it so): the next binding change is
    /// then an incremental delta, not a blind reinstall. Exactly what the
    /// incremental path leaves behind, so reconciliation keeps (not
    /// churns) a recovered cover.
    fn desired_edge_rules(&mut self, dpid: u64, now: SimTime) -> Vec<FlowMod> {
        let Some(sid) = SwitchId::from_dpid(dpid) else {
            return Vec::new();
        };
        let on_switch: Vec<Binding> = self.bindings.on_switch(dpid).copied().collect();
        self.compiler.prime_switch(dpid, &on_switch);
        let mut out = self.edge_base_rules(sid);
        out.extend(self.compiler.installed_rules(dpid, now));
        out
    }

    /// Diff the switch's installed SAV rules against the desired set:
    /// delete strays, install what's missing, leave matches untouched
    /// (their switch-side timers kept running through the outage, which is
    /// exactly the remaining lifetime the lease has).
    fn reconcile_rules(&mut self, ctx: &mut Ctx, dpid: u64, entries: &[FlowStatsEntry]) {
        let now = ctx.now();
        let desired = {
            let _span = self.span("rule_compile");
            self.desired_edge_rules(dpid, now)
        };
        // Hash join on (match, priority, cookie): index what the switch
        // holds, probe it with what it should hold; a hit consumes the
        // entry, and once none are left nothing more can match.
        let mut held: HashMap<(&OxmMatch, u16, u64), usize> = entries
            .iter()
            .enumerate()
            // Not ours — never touch other apps' rules.
            .filter(|(_, e)| e.cookie & SAV_COOKIE_MASK == SAV_COOKIE)
            .map(|(i, e)| ((&e.match_, e.priority, e.cookie), i))
            .collect();
        let ours = held.len();
        let missing: Vec<bool> = desired
            .iter()
            .map(|fm| {
                held.is_empty() || held.remove(&(&fm.match_, fm.priority, fm.cookie)).is_none()
            })
            .collect();
        // Strays: installed but no longer justified by any binding (e.g.
        // released or superseded during the outage — or a rule this
        // recovered table never knew). Deleted in the switch's own order.
        let mut strays: Vec<usize> = held.into_values().collect();
        strays.sort_unstable();
        let (kept, deleted) = (ours - strays.len(), strays.len());
        let installed = missing.iter().filter(|m| **m).count();
        for e in strays.into_iter().map(|i| &entries[i]) {
            ctx.install(
                dpid,
                FlowMod {
                    priority: e.priority,
                    table_id: e.table_id,
                    command: FlowModCommand::DeleteStrict,
                    ..FlowMod::add(e.match_.clone())
                },
            );
        }
        for (fm, _) in desired.into_iter().zip(missing).filter(|(_, m)| *m) {
            ctx.install(dpid, fm);
        }
        self.stats.rules_deleted += deleted as u64;
        self.stats.rules_installed += installed as u64;
        self.counters.add("reconciled_kept", kept as u64);
        self.counters.add("reconciled_deleted", deleted as u64);
        self.counters.add("reconciled_installed", installed as u64);
    }

    /// RFC 6620-style prefix guard: FCFS may only claim addresses within a
    /// prefix that is actually assigned to the claiming switch's segment.
    /// Without this, the first spoofed packet would legitimize any foreign
    /// source.
    fn fcfs_prefix_ok(&self, dpid: u64, ip: Ipv4Addr) -> bool {
        let Some(sid) = SwitchId::from_dpid(dpid) else {
            return false;
        };
        self.topo.hosts_on(sid).any(|h| h.subnet.contains(ip))
    }

    /// The compiler owns every proactive allow rule. Reactive mode keeps
    /// the table, not the rules: it installs allows per validated punt.
    fn compiler_active(&self) -> bool {
        self.config.mode == SavMode::Proactive
    }

    /// Ship a compiled delta to `dpid`: count and journal each mod, then
    /// fence multi-mod batches with a barrier so the switch applies the
    /// whole transition before any later control message.
    fn ship_delta(&mut self, ctx: &mut Ctx, dpid: u64, delta: Vec<FlowMod>) {
        if delta.is_empty() {
            return;
        }
        let batched = delta.len() > 1;
        let send_stage = self.trace_stage("send");
        for fm in delta {
            if fm.command == FlowModCommand::Add {
                self.stats.rules_installed += 1;
                self.emit(Severity::Info, || EventKind::RuleInstalled {
                    dpid,
                    cookie: fm.cookie,
                    priority: fm.priority,
                });
                if let Some(obs) = &self.obs {
                    obs.counters.incr("sav_rules_installed_total");
                }
            } else {
                self.stats.rules_deleted += 1;
                self.emit(Severity::Info, || EventKind::RuleDeleted {
                    dpid,
                    cookie: fm.cookie,
                });
                if let Some(obs) = &self.obs {
                    obs.counters.incr("sav_rules_deleted_total");
                }
            }
            ctx.install(dpid, fm);
        }
        drop(send_stage);
        // A traced upsert always fences (even a single mod — the ack is
        // what proves enforcement); the untraced path keeps its
        // batched-only barrier, so disabled tracing emits byte-identical
        // message streams.
        if !self.fence_trace(ctx, dpid) && batched {
            ctx.send(dpid, Message::BarrierRequest);
        }
    }

    /// Place (or refresh) the rules `b` needs: a minimal delta — zero mods
    /// for a no-op refresh, a cover re-derivation when the policy says so.
    fn place_rules(&mut self, ctx: &mut Ctx, b: &Binding, now: SimTime) {
        if !self.compiler_active() {
            return;
        }
        let delta = {
            let _span = self.span("rule_compile");
            let _trace = self.trace_stage("compile");
            self.compiler.bind(b, now)
        };
        self.ship_delta(ctx, b.dpid, delta);
    }

    /// Retire the rules `b` no longer justifies: the host-rule delete, the
    /// split of the cover it sat in, or the delete of a prefix it was the
    /// last binding under.
    fn retire_rules(&mut self, ctx: &mut Ctx, b: &Binding, now: SimTime) {
        if !self.compiler_active() {
            return;
        }
        let delta = self.compiler.unbind(b, now);
        self.ship_delta(ctx, b.dpid, delta);
    }

    /// Seed the static address plan of `sid` into the binding *table*; the
    /// rules follow as one switch-wide batch or out of the reconciliation
    /// diff, not one flow-mod round-trip per host. A refresh is not
    /// journaled: a static seed carries no lease, and every switch-up
    /// re-derives it from the topology anyway.
    fn seed_static_plan(&mut self, ctx: &mut Ctx, sid: SwitchId) {
        let dpid = sid.dpid();
        let now = ctx.now();
        let seeds: Vec<Binding> = self
            .topo
            .hosts_on(sid)
            .map(|h| Binding {
                ip: h.ip,
                mac: h.mac,
                dpid,
                port: h.port,
                source: BindingSource::Static,
                expires: None,
            })
            .collect();
        for b in seeds {
            match self.bindings.upsert(b, now) {
                BindingChange::Added => {
                    self.log_op(WalOp::Upsert(to_record(&b)));
                    self.stats.bindings_added += 1;
                    self.emit(Severity::Info, || EventKind::BindingLearned {
                        ip: b.ip.to_string(),
                        mac: b.mac.to_string(),
                        dpid: b.dpid,
                        port: b.port,
                        source: source_label(b.source),
                    });
                }
                BindingChange::Refreshed => {}
                BindingChange::Moved(old) => {
                    self.log_op(WalOp::Migrate(to_record(&b)));
                    self.stats.bindings_moved += 1;
                    if old.dpid != dpid {
                        self.retire_rules(ctx, &old, now);
                    }
                }
                BindingChange::Conflict(_) => self.stats.conflicts += 1,
            }
        }
    }

    fn apply_upsert(&mut self, ctx: &mut Ctx, b: Binding, now: SimTime) -> BindingChange {
        let change = self.bindings.upsert(b, now);
        match &change {
            BindingChange::Added => {
                self.log_op(WalOp::Upsert(to_record(&b)));
                self.stats.bindings_added += 1;
                // Journaled before the derived rule install so the event
                // order reads cause → effect.
                self.emit(Severity::Info, || EventKind::BindingLearned {
                    ip: b.ip.to_string(),
                    mac: b.mac.to_string(),
                    dpid: b.dpid,
                    port: b.port,
                    source: source_label(b.source),
                });
                self.place_rules(ctx, &b, now);
            }
            BindingChange::Refreshed => {
                // Logged even though the location is unchanged: a refresh
                // carries a new lease expiry that recovery must see.
                self.log_op(WalOp::Upsert(to_record(&b)));
                // Re-derive the port's rules: a refresh that changes no
                // match field or lease emits nothing; a renewed lease
                // re-Adds the same match, refreshing the hard timeout.
                self.place_rules(ctx, &b, now);
            }
            BindingChange::Moved(old) => {
                self.log_op(WalOp::Migrate(to_record(&b)));
                self.stats.bindings_moved += 1;
                let old = *old;
                self.emit(Severity::Info, || EventKind::BindingMigrated {
                    ip: b.ip.to_string(),
                    from_dpid: old.dpid,
                    from_port: old.port,
                    dpid: b.dpid,
                    port: b.port,
                });
                // An in-place takeover (same port, new MAC) is a single
                // port delta — the compiler strict-deletes the old-MAC rule
                // and adds the new one itself. A genuine move also retires
                // the old attachment's rules first.
                if (old.dpid, old.port) != (b.dpid, b.port) {
                    self.retire_rules(ctx, &old, now);
                }
                self.place_rules(ctx, &b, now);
            }
            BindingChange::Conflict(_) => {
                self.stats.conflicts += 1;
                self.emit(Severity::Warn, || EventKind::BindingConflict {
                    ip: b.ip.to_string(),
                    dpid: b.dpid,
                    port: b.port,
                });
            }
        }
        self.refresh_gauges();
        change
    }

    fn snoop_dhcp(
        &mut self,
        ctx: &mut Ctx,
        dpid: u64,
        in_port: u32,
        parsed: &ParsedPacket,
        pi: &PacketIn,
    ) {
        let _span = self.span("dhcp_handle");
        let Some(payload) = parsed.l4_payload(&pi.data) else {
            return;
        };
        let Ok(msg) = DhcpRepr::parse(payload) else {
            return;
        };
        let from_client = matches!(
            parsed.l4,
            Some(L4Info::Udp { dst, .. }) if dst == DHCP_SERVER_PORT
        );
        if from_client {
            // Copies of the broadcast arrive from every edge switch the
            // flood crosses; only the true attachment (non-trunk port)
            // defines the client's location.
            if !self.is_trunk(dpid, in_port) {
                self.dhcp_pending.insert(msg.client_mac, (dpid, in_port));
                if msg.message_type == DhcpMessageType::Release {
                    self.stats.dhcp_releases += 1;
                    if let Some(b) = self
                        .bindings
                        .get(msg.client_ip)
                        .copied()
                        .filter(|b| b.mac == msg.client_mac)
                    {
                        self.drop_bindings(ctx, &[b], Gone::Released);
                    }
                }
            }
            return;
        }
        // Server → client. The copy rule only exists on the trusted port,
        // but be defensive anyway.
        if !self.config.trusted_dhcp_ports.contains(&(dpid, in_port)) {
            return;
        }
        if msg.message_type == DhcpMessageType::Ack {
            let Some(&(client_dpid, client_port)) = self.dhcp_pending.get(&msg.client_mac) else {
                return;
            };
            self.stats.dhcp_acks += 1;
            let lease = msg.lease_secs.unwrap_or(3600);
            let b = Binding {
                ip: msg.your_ip,
                mac: msg.client_mac,
                dpid: client_dpid,
                port: client_port,
                source: BindingSource::Dhcp,
                expires: Some(ctx.now() + SimDuration::from_secs(u64::from(lease))),
            };
            let now = ctx.now();
            self.begin_trace(b.ip, b.dpid);
            self.apply_upsert(ctx, b, now);
            self.finish_trace();
        }
    }

    fn handle_punt(
        &mut self,
        ctx: &mut Ctx,
        dpid: u64,
        in_port: u32,
        pi: &PacketIn,
        parsed: &ParsedPacket,
    ) {
        self.stats.punts += 1;
        let Some(ip) = parsed.ipv4_src() else {
            self.note_spoof_punt(dpid, in_port);
            return;
        };
        let mac = parsed.ethernet.src;
        let now = ctx.now();
        match self.bindings.get(ip).copied() {
            Some(b)
                if b.dpid == dpid
                    && b.port == in_port
                    && (!self.config.match_mac || b.mac == mac) =>
            {
                // Legitimate source that has no rule yet (reactive mode, or
                // a proactive race). Install a dynamic allow and re-inject.
                self.stats.punts_allowed += 1;
                if self.config.mode == SavMode::Reactive {
                    ctx.install(
                        dpid,
                        rules::binding_allow(
                            &b,
                            self.config.match_mac,
                            self.config.dynamic_idle_timeout,
                            0,
                        ),
                    );
                    self.stats.rules_installed += 1;
                }
                self.reinject(ctx, dpid, in_port, pi);
            }
            Some(_) => {
                self.note_spoof_punt(dpid, in_port);
            }
            None if self.config.fcfs
                && !self.is_trunk(dpid, in_port)
                && self.fcfs_prefix_ok(dpid, ip) =>
            {
                // First come, first served: the source claims the address.
                self.stats.fcfs_claims += 1;
                let b = Binding {
                    ip,
                    mac,
                    dpid,
                    port: in_port,
                    source: BindingSource::Fcfs,
                    expires: None,
                };
                if matches!(
                    self.apply_upsert(ctx, b, now),
                    BindingChange::Added | BindingChange::Moved(_) | BindingChange::Refreshed
                ) {
                    self.stats.punts_allowed += 1;
                    self.reinject(ctx, dpid, in_port, pi);
                } else {
                    self.note_spoof_punt(dpid, in_port);
                }
            }
            None => {
                self.note_spoof_punt(dpid, in_port);
            }
        }
    }

    fn reinject(&self, ctx: &mut Ctx, dpid: u64, in_port: u32, pi: &PacketIn) {
        // Re-run the pipeline; the freshly installed allow (or trunk rule)
        // now matches. Flow-mod and packet-out share the ordered control
        // channel, so no barrier is needed in this simulator.
        let msg = PacketOut {
            buffer_id: pi.buffer_id,
            in_port,
            actions: vec![Action::output(ofport::TABLE)],
            data: if pi.buffer_id == sav_openflow::consts::NO_BUFFER {
                pi.data.clone()
            } else {
                vec![]
            },
        };
        ctx.send(dpid, sav_openflow::messages::Message::PacketOut(msg));
    }

    fn handle_arp(&mut self, ctx: &mut Ctx, dpid: u64, in_port: u32, parsed: &ParsedPacket) {
        let Some(arp) = parsed.arp else {
            return;
        };
        if arp.sender_ip == Ipv4Addr::UNSPECIFIED || self.is_trunk(dpid, in_port) {
            return;
        }
        let now = ctx.now();
        match self.bindings.get(arp.sender_ip).copied() {
            Some(b) if b.mac == arp.sender_mac && (b.dpid, b.port) != (dpid, in_port) => {
                // The host moved: rebind and update rules.
                self.stats.migrations += 1;
                let mut nb = b;
                nb.dpid = dpid;
                nb.port = in_port;
                self.apply_upsert(ctx, nb, now);
            }
            Some(_) => {
                self.stats.arp_spoofs += 1;
            }
            None if self.config.fcfs && self.fcfs_prefix_ok(dpid, arp.sender_ip) => {
                self.stats.fcfs_claims += 1;
                let b = Binding {
                    ip: arp.sender_ip,
                    mac: arp.sender_mac,
                    dpid,
                    port: in_port,
                    source: BindingSource::Fcfs,
                    expires: None,
                };
                self.apply_upsert(ctx, b, now);
            }
            None => {}
        }
    }
}

impl App for SavApp {
    fn name(&self) -> &'static str {
        "sdn-sav"
    }

    fn on_switch_up(&mut self, ctx: &mut Ctx, dpid: u64) {
        if self.connected.insert(dpid) {
            self.emit(Severity::Info, || EventKind::SwitchUp { dpid });
            if let Some(obs) = &self.obs {
                obs.gauges
                    .set("sav_connected_switches", self.connected.len() as f64);
            }
        }
        let Some(sid) = SwitchId::from_dpid(dpid) else {
            return;
        };
        let node = self.topo.switch(sid).clone();
        if let Some(ases) = &self.config.enforced_ases {
            if !ases.contains(&node.as_id) {
                return; // this network has not deployed SAV
            }
        }
        // Inbound SAV at borders.
        if self.config.inbound && node.role == SwitchRole::Border {
            for port in self.topo.border_ports(sid) {
                for prefix in self.topo.subnets_of_as(node.as_id) {
                    ctx.install(dpid, rules::isav_deny(port, prefix));
                    self.stats.rules_installed += 1;
                }
                for &prefix in &self.config.internal_v6_prefixes {
                    ctx.install(dpid, rules::isav_deny_v6(port, prefix));
                    self.stats.rules_installed += 1;
                }
            }
        }
        // Outbound SAV at edges.
        if !(self.config.outbound && node.role == SwitchRole::Edge) {
            return;
        }
        // A recovered controller asks the switch what it actually has — the
        // rule pushes come out of the flow-stats diff, not a blind
        // re-install.
        let reconcile = self.reconcile_enabled();
        if !reconcile {
            for fm in self.edge_base_rules(sid) {
                ctx.install(dpid, fm);
                self.stats.rules_installed += 1;
            }
        }
        if self.config.static_plan {
            self.seed_static_plan(ctx, sid);
        }
        self.refresh_gauges();
        if reconcile {
            self.reconciling.insert(dpid);
            ctx.send(
                dpid,
                Message::MultipartRequest(MultipartRequestBody::Flow(FlowStatsRequest {
                    table_id: 0,
                    cookie: SAV_COOKIE,
                    cookie_mask: SAV_COOKIE_MASK,
                    ..FlowStatsRequest::default()
                })),
            );
            return;
        }
        if self.compiler_active() {
            // The switch (re)connected with a table we must assume fresh:
            // rebuild its compiled state from scratch and push it as one
            // fenced batch — covering the static seeds above plus anything
            // learned dynamically before a reconnect.
            let now = ctx.now();
            let delta = {
                let _span = self.span("rule_compile");
                self.compiler.forget_switch(dpid);
                let on_switch: Vec<Binding> = self.bindings.on_switch(dpid).copied().collect();
                for b in &on_switch {
                    self.compiler.stage(b);
                }
                self.compiler.sync_switch(dpid, now)
            };
            self.ship_delta(ctx, dpid, delta);
        }
    }

    fn on_switch_down(&mut self, _ctx: &mut Ctx, dpid: u64) {
        if self.connected.remove(&dpid) {
            self.emit(Severity::Warn, || EventKind::SwitchDown { dpid });
            if let Some(obs) = &self.obs {
                obs.gauges
                    .set("sav_connected_switches", self.connected.len() as f64);
            }
        }
    }

    fn on_packet_in(&mut self, ctx: &mut Ctx, dpid: u64, pi: &PacketIn) -> Disposition {
        let _span = self.span("on_packet_in");
        // Stamp the arrival on the trace clock: if this packet-in turns
        // out to be the DHCP ACK that mints a binding, its causal trace
        // starts here, not at the snoop decision.
        if let Some(obs) = &self.obs {
            if obs.traces.enabled() {
                self.pktin_ns = Some(obs.traces.now_ns());
            }
        }
        let Some(in_port) = pi.in_port() else {
            return Disposition::Continue;
        };
        let Ok(parsed) = ParsedPacket::parse(&pi.data) else {
            return Disposition::Continue;
        };
        if parsed.arp.is_some() {
            self.handle_arp(ctx, dpid, in_port, &parsed);
            return Disposition::Continue; // forwarding may flood/proxy it
        }
        if self.config.dhcp_snooping && parsed.is_dhcp() {
            self.snoop_dhcp(ctx, dpid, in_port, &parsed, pi);
            return Disposition::Continue; // forwarding still floods DORA
        }
        // Validation punts are identified by the deny rule's cookie.
        if pi.cookie == SAV_COOKIE | 0xdead {
            self.handle_punt(ctx, dpid, in_port, pi, &parsed);
            return Disposition::Consumed;
        }
        Disposition::Continue
    }

    fn on_flow_removed(&mut self, ctx: &mut Ctx, dpid: u64, fr: &FlowRemoved) {
        if fr.cookie & SAV_COOKIE_MASK != SAV_COOKIE {
            return;
        }
        // Other SAV-tagged rules (the border guard's deny/count rules) also
        // carry an IP in the low 32 bits; only kind 0 — binding allow —
        // may be read as a binding expiry.
        if (fr.cookie >> 32) & 0xffff != 0 {
            return;
        }
        if fr.reason == FlowRemovedReason::Delete {
            return; // our own deletion
        }
        let ip = Ipv4Addr::from((fr.cookie & 0xffff_ffff) as u32);
        if let Some(b) = self.bindings.get(ip).copied() {
            if b.dpid != dpid {
                return;
            }
            // A rule timing out retires the binding only when the binding's
            // lifecycle is tied to that rule: FCFS bindings die on idle,
            // DHCP bindings on the lease (hard) timeout. Static bindings
            // outlive any rule (e.g. a reactive dynamic rule idling out
            // must not revoke the host's authorization).
            let retire = match (b.source, fr.reason) {
                (BindingSource::Static, _) => false,
                (BindingSource::Dhcp, FlowRemovedReason::HardTimeout) => true,
                (BindingSource::Dhcp, _) => false,
                (BindingSource::Fcfs, _) => true,
            };
            if retire {
                // Under a budget the shrunken set may re-derive the port's
                // cover.
                self.drop_bindings(ctx, &[b], Gone::RuleTimedOut);
            }
        }
    }

    fn on_stats_reply(&mut self, ctx: &mut Ctx, dpid: u64, body: &MultipartReplyBody) {
        let MultipartReplyBody::Flow(entries) = body else {
            return;
        };
        if !self.reconciling.remove(&dpid) {
            return;
        }
        self.reconcile_rules(ctx, dpid, entries);
    }

    fn on_port_status(&mut self, ctx: &mut Ctx, dpid: u64, ps: &PortStatus) {
        if ps.desc.is_up() {
            return;
        }
        let port = ps.desc.port_no;
        // FCFS bindings die with their port; DHCP/static bindings persist
        // (the host may reappear elsewhere and migrate its binding).
        let doomed: Vec<Binding> = self
            .bindings
            .iter()
            .filter(|b| b.dpid == dpid && b.port == port && b.source == BindingSource::Fcfs)
            .copied()
            .collect();
        self.drop_bindings(ctx, &doomed, Gone::PortDown);
    }

    fn on_poll(&mut self, ctx: &mut Ctx, _dpid: u64) {
        // Covers carry no switch-side timers, so lease expiry under any
        // policy that can emit them is controller-driven. Under pure
        // per-host rules the switch's FlowRemoved stays the sole expiry
        // signal.
        if self.compiler.emits_timerless_rules() {
            self.sweep_expired(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sav_openflow::messages::{Message, PacketInReason};
    use sav_openflow::oxm::{OxmField, OxmMatch};
    use sav_topo::generators;

    fn mk(config: SavConfig) -> (Arc<Topology>, SavApp) {
        let topo = Arc::new(generators::linear(2, 2));
        let app = SavApp::new(topo.clone(), config);
        (topo, app)
    }

    fn flow_mods(ctx: Ctx) -> Vec<(u64, sav_openflow::messages::FlowMod)> {
        ctx.take()
            .into_iter()
            .filter_map(|(d, m)| match m {
                Message::FlowMod(fm) => Some((d, fm)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn switch_up_installs_edge_rule_set() {
        let (topo, mut app) = mk(SavConfig::default());
        let dpid = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        let fms = flow_mods(ctx);
        // 1 trunk + 1 deny + 1 dhcp client + 2 static bindings = 5.
        assert_eq!(fms.len(), 5);
        let allows: Vec<_> = fms
            .iter()
            .filter(|(_, fm)| fm.priority == crate::PRIO_ALLOW)
            .collect();
        assert_eq!(allows.len(), 2);
        for (_, fm) in &allows {
            assert!(fm.match_.validate_prerequisites().is_ok());
        }
        assert!(fms
            .iter()
            .any(|(_, fm)| fm.priority == crate::PRIO_OSAV_DENY && fm.instructions.is_empty()));
        assert_eq!(app.bindings().len(), 2);
    }

    #[test]
    fn reactive_mode_installs_no_allows_but_punting_deny() {
        let (topo, mut app) = mk(SavConfig {
            mode: SavMode::Reactive,
            ..SavConfig::default()
        });
        let dpid = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        let fms = flow_mods(ctx);
        assert!(fms.iter().all(|(_, fm)| fm.priority != crate::PRIO_ALLOW));
        let deny = fms
            .iter()
            .find(|(_, fm)| fm.priority == crate::PRIO_OSAV_DENY)
            .unwrap();
        assert!(!deny.1.instructions.is_empty(), "reactive deny punts");
        // Bindings still seeded for validation.
        assert_eq!(app.bindings().len(), 2);
    }

    #[test]
    fn aggregate_mode_installs_one_prefix_rule_per_port() {
        let (topo, mut app) = mk(SavConfig {
            aggregate: true,
            ..SavConfig::default()
        });
        let dpid = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        let fms = flow_mods(ctx);
        let allows: Vec<_> = fms
            .iter()
            .filter(|(_, fm)| fm.priority == crate::PRIO_ALLOW)
            .collect();
        // linear(2,2): each host has its own port, so 2 ports → 2 prefix rules,
        // each carrying a masked ipv4_src.
        assert_eq!(allows.len(), 2);
        for (_, fm) in allows {
            assert!(fm
                .match_
                .fields()
                .iter()
                .any(|f| matches!(f, OxmField::Ipv4Src(_, Some(_)))));
        }
    }

    fn punt_packet_in(topo: &Topology, host_idx: usize, spoof_ip: Option<&str>) -> (u64, PacketIn) {
        let h = &topo.hosts()[host_idx];
        let src_ip: Ipv4Addr = spoof_ip.map(|s| s.parse().unwrap()).unwrap_or(h.ip);
        let udp = sav_net::udp::UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let ip =
            sav_net::ipv4::Ipv4Repr::udp(src_ip, "10.0.1.10".parse().unwrap(), udp.buffer_len());
        let eth = sav_net::ethernet::EthernetRepr {
            src: h.mac,
            dst: MacAddr::from_index(999),
            ethertype: sav_net::ethernet::EtherType::Ipv4,
        };
        let frame = sav_net::builder::build_ipv4_udp(&eth, &ip, &udp, b"");
        (
            h.switch.dpid(),
            PacketIn {
                buffer_id: sav_openflow::consts::NO_BUFFER,
                total_len: frame.len() as u16,
                reason: PacketInReason::Action,
                table_id: 0,
                cookie: SAV_COOKIE | 0xdead,
                match_: OxmMatch::new().with(OxmField::InPort(h.port)),
                data: frame,
            },
        )
    }

    #[test]
    fn reactive_punt_validates_and_reinjects() {
        let (topo, mut app) = mk(SavConfig {
            mode: SavMode::Reactive,
            ..SavConfig::default()
        });
        let dpid0 = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        drop(ctx.take());

        // Legitimate punt: allowed, rule installed, packet re-injected.
        let (dpid, pi) = punt_packet_in(&topo, 0, None);
        let mut ctx = Ctx::new(SimTime::from_millis(1));
        let disp = app.on_packet_in(&mut ctx, dpid, &pi);
        assert_eq!(disp, Disposition::Consumed);
        assert_eq!(app.stats.punts_allowed, 1);
        let msgs = ctx.take();
        assert!(msgs.iter().any(|(_, m)| matches!(m, Message::FlowMod(fm)
            if fm.priority == crate::PRIO_ALLOW && fm.idle_timeout == 60)));
        assert!(msgs.iter().any(|(_, m)| matches!(m, Message::PacketOut(po)
            if po.actions == vec![Action::output(ofport::TABLE)])));

        // Spoofed punt: denied, nothing sent.
        let (dpid, pi) = punt_packet_in(&topo, 0, Some("10.0.1.11"));
        let mut ctx = Ctx::new(SimTime::from_millis(2));
        app.on_packet_in(&mut ctx, dpid, &pi);
        assert_eq!(app.stats.punts_denied, 1);
        assert!(ctx.take().is_empty());
    }

    #[test]
    fn fcfs_claims_then_blocks_thief() {
        let (topo, mut app) = mk(SavConfig {
            static_plan: false,
            fcfs: true,
            ..SavConfig::default()
        });
        let dpid0 = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        drop(ctx.take());
        assert_eq!(app.bindings().len(), 0);

        // Host 0's first packet claims its address.
        let (dpid, pi) = punt_packet_in(&topo, 0, None);
        let mut ctx = Ctx::new(SimTime::from_millis(1));
        app.on_packet_in(&mut ctx, dpid, &pi);
        assert_eq!(app.stats.fcfs_claims, 1);
        assert_eq!(app.bindings().len(), 1);

        // Host 1 spoofing host 0's address from its own port: conflict.
        let h0_ip = topo.hosts()[0].ip;
        let (dpid, pi) = punt_packet_in(&topo, 1, Some(&h0_ip.to_string()));
        let mut ctx = Ctx::new(SimTime::from_millis(2));
        app.on_packet_in(&mut ctx, dpid, &pi);
        assert_eq!(app.stats.punts_denied, 1);
        assert_eq!(app.bindings().get(h0_ip).unwrap().mac, topo.hosts()[0].mac);
    }

    #[test]
    fn arp_migration_moves_binding_and_rules() {
        let (topo, mut app) = mk(SavConfig::default());
        let dpid0 = topo.switches()[0].id.dpid();
        let dpid1 = topo.switches()[1].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        app.on_switch_up(&mut ctx, dpid1);
        drop(ctx.take());

        let h0 = &topo.hosts()[0];
        let garp = sav_net::arp::ArpRepr {
            op: sav_net::arp::ArpOp::Request,
            sender_mac: h0.mac,
            sender_ip: h0.ip,
            target_mac: MacAddr::ZERO,
            target_ip: h0.ip,
        };
        let frame = sav_net::builder::build_arp(&garp);
        let pi = PacketIn {
            buffer_id: sav_openflow::consts::NO_BUFFER,
            total_len: frame.len() as u16,
            reason: PacketInReason::NoMatch,
            table_id: 1,
            cookie: 0,
            match_: OxmMatch::new().with(OxmField::InPort(42)),
            data: frame,
        };
        let mut ctx = Ctx::new(SimTime::from_millis(5));
        app.on_packet_in(&mut ctx, dpid1, &pi);
        assert_eq!(app.stats.migrations, 1);
        let b = app.bindings().get(h0.ip).unwrap();
        assert_eq!((b.dpid, b.port), (dpid1, 42));
        let fms = flow_mods(ctx);
        // One delete on the old switch, one add on the new one.
        assert!(fms.iter().any(|(d, fm)| *d == dpid0
            && fm.command == sav_openflow::messages::FlowModCommand::DeleteStrict));
        assert!(fms.iter().any(|(d, fm)| *d == dpid1
            && fm.command == sav_openflow::messages::FlowModCommand::Add
            && fm.priority == crate::PRIO_ALLOW));
    }

    #[test]
    fn arp_from_wrong_mac_is_flagged_not_migrated() {
        let (topo, mut app) = mk(SavConfig::default());
        let dpid0 = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        drop(ctx.take());
        let h0 = &topo.hosts()[0];
        let spoofed = sav_net::arp::ArpRepr {
            op: sav_net::arp::ArpOp::Request,
            sender_mac: MacAddr::from_index(666),
            sender_ip: h0.ip,
            target_mac: MacAddr::ZERO,
            target_ip: h0.ip,
        };
        let frame = sav_net::builder::build_arp(&spoofed);
        let pi = PacketIn {
            buffer_id: sav_openflow::consts::NO_BUFFER,
            total_len: frame.len() as u16,
            reason: PacketInReason::NoMatch,
            table_id: 1,
            cookie: 0,
            match_: OxmMatch::new().with(OxmField::InPort(9)),
            data: frame,
        };
        let mut ctx = Ctx::new(SimTime::from_millis(5));
        app.on_packet_in(&mut ctx, dpid0, &pi);
        assert_eq!(app.stats.arp_spoofs, 1);
        assert_eq!(app.stats.migrations, 0);
        assert_eq!(app.bindings().get(h0.ip).unwrap().mac, h0.mac);
    }

    #[test]
    fn flow_removed_expires_binding_per_lifecycle() {
        let (topo, mut app) = mk(SavConfig::default());
        let dpid0 = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        drop(ctx.take());
        // Overlay a DHCP binding on a fresh address.
        let db = Binding {
            ip: "10.0.0.99".parse().unwrap(),
            mac: MacAddr::from_index(99),
            dpid: dpid0,
            port: 42,
            source: BindingSource::Dhcp,
            expires: Some(SimTime::from_secs(100)),
        };
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.apply_upsert(&mut ctx, db, SimTime::ZERO);
        drop(ctx.take());

        let fr_of = |b: &Binding, reason| FlowRemoved {
            cookie: rules::allow_cookie(b),
            priority: crate::PRIO_ALLOW,
            reason,
            table_id: 0,
            duration_sec: 100,
            duration_nsec: 0,
            idle_timeout: 0,
            hard_timeout: 100,
            packet_count: 5,
            byte_count: 500,
            match_: OxmMatch::new(),
        };

        // DHCP binding dies on its lease (hard) timeout.
        let fr = fr_of(&db, FlowRemovedReason::HardTimeout);
        app.on_flow_removed(&mut Ctx::new(SimTime::from_secs(100)), dpid0, &fr);
        assert!(app.bindings().get(db.ip).is_none());
        assert_eq!(app.stats.bindings_expired, 1);

        // Static bindings survive any rule removal (e.g. a reactive
        // dynamic rule idling out).
        let h0 = &topo.hosts()[0];
        let sb = *app.bindings().get(h0.ip).unwrap();
        let fr = fr_of(&sb, FlowRemovedReason::IdleTimeout);
        app.on_flow_removed(&mut Ctx::new(SimTime::from_secs(1)), dpid0, &fr);
        assert!(
            app.bindings().get(h0.ip).is_some(),
            "static binding survives"
        );

        // Delete-reason removals (our own) never expire bindings.
        let fr = fr_of(&sb, FlowRemovedReason::Delete);
        app.on_flow_removed(&mut Ctx::new(SimTime::from_secs(1)), dpid0, &fr);
        assert!(app.bindings().get(h0.ip).is_some());
        assert_eq!(app.stats.bindings_expired, 1);
    }

    #[test]
    fn flow_removed_ignores_non_binding_sav_cookies() {
        // Border guard rules are SAV-tagged and carry an IP in the low 32
        // bits too; their expiry must never be read as a binding expiry.
        let (topo, mut app) = mk(SavConfig::default());
        let dpid0 = topo.switches()[0].id.dpid();
        app.on_switch_up(&mut Ctx::new(SimTime::ZERO), dpid0);
        let h0 = &topo.hosts()[0];
        let fcfs = Binding {
            ip: h0.ip,
            mac: h0.mac,
            dpid: dpid0,
            port: 1,
            source: BindingSource::Fcfs,
            expires: None,
        };
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.apply_upsert(&mut ctx, fcfs, SimTime::ZERO);
        drop(ctx.take());

        // A border deny rule for the same address hard-times-out: FCFS
        // bindings die on any expiry reason, so this is the dangerous case.
        for kind in [0xb00du64, 0xb00e, 0xb001, 0xb002, 0xffff] {
            let fr = FlowRemoved {
                cookie: SAV_COOKIE | (kind << 32) | u64::from(u32::from(h0.ip)),
                priority: 34_000,
                reason: FlowRemovedReason::HardTimeout,
                table_id: 0,
                duration_sec: 10,
                duration_nsec: 0,
                idle_timeout: 0,
                hard_timeout: 10,
                packet_count: 0,
                byte_count: 0,
                match_: OxmMatch::new(),
            };
            app.on_flow_removed(&mut Ctx::new(SimTime::from_secs(10)), dpid0, &fr);
        }
        assert!(
            app.bindings().get(h0.ip).is_some(),
            "border-kind cookie must not retire the binding"
        );
        assert_eq!(app.stats.bindings_expired, 0);

        // The genuine binding cookie (kind 0) still works.
        let b = *app.bindings().get(h0.ip).unwrap();
        let fr = FlowRemoved {
            cookie: rules::allow_cookie(&b),
            priority: crate::PRIO_ALLOW,
            reason: FlowRemovedReason::IdleTimeout,
            table_id: 0,
            duration_sec: 10,
            duration_nsec: 0,
            idle_timeout: 60,
            hard_timeout: 0,
            packet_count: 0,
            byte_count: 0,
            match_: OxmMatch::new(),
        };
        app.on_flow_removed(&mut Ctx::new(SimTime::from_secs(10)), dpid0, &fr);
        assert!(app.bindings().get(h0.ip).is_none());
        assert_eq!(app.stats.bindings_expired, 1);
    }

    #[test]
    fn isav_rules_on_border_switches() {
        let m = generators::multi_as(2, 2);
        let topo = Arc::new(m.topo);
        let mut app = SavApp::new(topo.clone(), SavConfig::default());
        let (border, _) = m.borders[0];
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, border.dpid());
        let fms = flow_mods(ctx);
        // One internal prefix, one border port → one iSAV deny rule.
        assert_eq!(fms.len(), 1);
        assert_eq!(fms[0].1.priority, crate::PRIO_ISAV_DENY);
        assert!(fms[0].1.instructions.is_empty());
    }

    #[test]
    fn isav_rules_cover_multihomed_borders_and_all_internal_subnets() {
        // A dual-homed border in front of two internal subnets gets a deny
        // per (border port, internal prefix) pair — the internal cross-link
        // and the edge links get none.
        let mut t = Topology::new();
        let b = t.add_switch("b", SwitchRole::Border, 0);
        let e1 = t.add_switch("e1", SwitchRole::Edge, 0);
        let e2 = t.add_switch("e2", SwitchRole::Edge, 0);
        let up1 = t.add_switch("up1", SwitchRole::Core, 1);
        let up2 = t.add_switch("up2", SwitchRole::Core, 2);
        t.link_switches(b, e1); // b:1, internal
        t.link_switches(b, e2); // b:2, internal
        t.link_switches(b, up1); // b:3, cross-AS
        t.link_switches(b, up2); // b:4, cross-AS
        t.attach_host(
            "h1",
            e1,
            "10.0.1.5".parse().unwrap(),
            "10.0.1.0/24".parse().unwrap(),
        );
        t.attach_host(
            "h2",
            e2,
            "10.0.2.5".parse().unwrap(),
            "10.0.2.0/24".parse().unwrap(),
        );
        let dpid = b.dpid();
        let mut app = SavApp::new(Arc::new(t), SavConfig::default());
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        let fms = flow_mods(ctx);
        assert_eq!(fms.len(), 4, "2 border ports × 2 internal subnets");
        let ports: std::collections::HashSet<u32> = fms
            .iter()
            .filter_map(|(_, fm)| fm.match_.in_port())
            .collect();
        assert_eq!(ports, [3, 4].into(), "only the cross-AS ports");
        for (_, fm) in &fms {
            assert_eq!(fm.priority, crate::PRIO_ISAV_DENY);
            assert!(fm.instructions.is_empty());
            assert!(fm.match_.validate_prerequisites().is_ok());
        }
    }

    #[test]
    fn isav_v6_rules_follow_the_configured_internal_prefixes() {
        let m = generators::multi_as(2, 2);
        let topo = Arc::new(m.topo);
        let cfg = SavConfig {
            internal_v6_prefixes: vec![
                "2001:db8:1::/48".parse().unwrap(),
                "2001:db8:2::/48".parse().unwrap(),
            ],
            ..SavConfig::default()
        };
        let mut app = SavApp::new(topo.clone(), cfg.clone());
        let (border, edge) = m.borders[0];
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, border.dpid());
        let fms = flow_mods(ctx);
        // One v4 subnet + two v6 prefixes, on the single border port.
        assert_eq!(fms.len(), 3);
        let v6: Vec<_> = fms
            .iter()
            .filter(|(_, fm)| {
                fm.match_
                    .fields()
                    .iter()
                    .any(|f| matches!(f, OxmField::EthType(0x86dd)))
            })
            .collect();
        assert_eq!(v6.len(), 2, "one isav_deny_v6 per configured prefix");
        for (_, fm) in v6 {
            assert_eq!(fm.priority, crate::PRIO_ISAV_DENY);
            assert!(fm.instructions.is_empty());
            assert_eq!(fm.cookie, SAV_COOKIE | 0x615a5);
            assert!(fm.match_.validate_prerequisites().is_ok());
        }
        // The v6 denies are a border-only concern: the AS's edge switch
        // installs its usual outbound rule set but no iSAV denies.
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, edge.dpid());
        assert!(flow_mods(ctx)
            .iter()
            .all(|(_, fm)| fm.priority != crate::PRIO_ISAV_DENY));
    }

    fn entry_of(fm: &sav_openflow::messages::FlowMod) -> FlowStatsEntry {
        FlowStatsEntry {
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
        }
    }

    #[test]
    fn recovered_app_reconciles_instead_of_blind_push() {
        let dir = std::env::temp_dir().join(format!(
            "sav-app-reconcile-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let topo = Arc::new(generators::linear(2, 2));
        let dpid = topo.switches()[0].id.dpid();

        // First life: empty store. Switch-up sends a cookie-filtered flow
        // stats request instead of pushing rules.
        let store = BindingStore::open(&dir, sav_store::StoreConfig::default()).unwrap();
        let mut app = SavApp::with_store(topo.clone(), SavConfig::default(), store);
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        let msgs = ctx.take();
        assert_eq!(msgs.len(), 1, "reconcile path sends only the request");
        assert!(matches!(
            &msgs[0].1,
            Message::MultipartRequest(MultipartRequestBody::Flow(req))
                if req.cookie == SAV_COOKIE && req.cookie_mask == crate::SAV_COOKIE_MASK
        ));
        // An empty switch means everything is missing — the diff installs
        // the full edge rule set (trunk + deny + dhcp client + 2 statics).
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_stats_reply(&mut ctx, dpid, &MultipartReplyBody::Flow(vec![]));
        assert_eq!(flow_mods(ctx).len(), 5);
        assert_eq!(app.counters.get("reconciled_installed"), 5);
        assert_eq!(app.counters.get("reconciled_kept"), 0);

        // A DHCP client binds — appended to the WAL.
        let db = Binding {
            ip: "10.0.0.77".parse().unwrap(),
            mac: MacAddr::from_index(77),
            dpid,
            port: 42,
            source: BindingSource::Dhcp,
            expires: Some(SimTime::from_secs(600)),
        };
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.apply_upsert(&mut ctx, db, SimTime::ZERO);
        drop(ctx.take());
        drop(app); // crash: no orderly shutdown

        // Second life: recovery hydrates statics + the DHCP binding.
        let store = BindingStore::open(&dir, sav_store::StoreConfig::default()).unwrap();
        assert_eq!(store.recovery_report().recovered_bindings, 3);
        let mut app = SavApp::with_store(topo.clone(), SavConfig::default(), store);
        assert_eq!(app.bindings().len(), 3);
        assert!(app.bindings().get(db.ip).is_some(), "DHCP binding survived");
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        drop(ctx.take());

        // The switch reports everything desired except one rule (missing),
        // plus one allow no binding justifies (stray).
        let desired = app.desired_edge_rules(dpid, SimTime::ZERO);
        let mut entries: Vec<FlowStatsEntry> = desired.iter().map(entry_of).collect();
        let missing = entries.pop().unwrap();
        let stray = Binding {
            ip: "10.0.0.250".parse().unwrap(),
            mac: MacAddr::from_index(250),
            dpid,
            port: 9,
            source: BindingSource::Fcfs,
            expires: None,
        };
        let stray_fm = rules::binding_allow(&stray, true, 60, 0);
        entries.push(entry_of(&stray_fm));

        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_stats_reply(&mut ctx, dpid, &MultipartReplyBody::Flow(entries));
        let fms = flow_mods(ctx);
        assert_eq!(fms.len(), 2, "one delete + one install, nothing else");
        assert!(fms.iter().any(|(_, fm)| {
            fm.command == sav_openflow::messages::FlowModCommand::DeleteStrict
                && fm.match_ == stray_fm.match_
        }));
        assert!(fms.iter().any(|(_, fm)| {
            fm.command == sav_openflow::messages::FlowModCommand::Add && fm.match_ == missing.match_
        }));
        assert_eq!(
            app.counters.get("reconciled_kept"),
            (desired.len() - 1) as u64
        );
        assert_eq!(app.counters.get("reconciled_deleted"), 1);
        assert_eq!(app.counters.get("reconciled_installed"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_and_expiry_reach_the_wal() {
        let dir = std::env::temp_dir().join(format!(
            "sav-app-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let topo = Arc::new(generators::linear(2, 2));
        let dpid = topo.switches()[0].id.dpid();
        let store = BindingStore::open(&dir, sav_store::StoreConfig::default()).unwrap();
        let mut app = SavApp::with_store(
            topo.clone(),
            SavConfig {
                static_plan: false,
                ..SavConfig::default()
            },
            store,
        );
        let db = Binding {
            ip: "10.0.0.50".parse().unwrap(),
            mac: MacAddr::from_index(50),
            dpid,
            port: 7,
            source: BindingSource::Dhcp,
            expires: Some(SimTime::from_secs(60)),
        };
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.apply_upsert(&mut ctx, db, SimTime::ZERO);
        drop(ctx.take());
        // Lease hard-timeout retires the binding — and the WAL hears it.
        let fr = FlowRemoved {
            cookie: rules::allow_cookie(&db),
            priority: crate::PRIO_ALLOW,
            reason: FlowRemovedReason::HardTimeout,
            table_id: 0,
            duration_sec: 60,
            duration_nsec: 0,
            idle_timeout: 0,
            hard_timeout: 60,
            packet_count: 1,
            byte_count: 100,
            match_: OxmMatch::new(),
        };
        app.on_flow_removed(&mut Ctx::new(SimTime::from_secs(60)), dpid, &fr);
        drop(app);
        let store = BindingStore::open(&dir, sav_store::StoreConfig::default()).unwrap();
        assert_eq!(store.recovery_report().wal_ops_replayed, 2);
        assert!(
            store.bindings().is_empty(),
            "expired binding must not resurrect"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn port_down_kills_fcfs_bindings_only() {
        let (topo, mut app) = mk(SavConfig {
            static_plan: true,
            fcfs: true,
            ..SavConfig::default()
        });
        let dpid0 = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        drop(ctx.take());
        // Add one FCFS binding on port 77.
        let fb = Binding {
            ip: "10.0.0.200".parse().unwrap(),
            mac: MacAddr::from_index(200),
            dpid: dpid0,
            port: 77,
            source: BindingSource::Fcfs,
            expires: None,
        };
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.apply_upsert(&mut ctx, fb, SimTime::ZERO);
        drop(ctx.take());
        let before = app.bindings().len();

        let mut desc = sav_openflow::ports::PortDesc::new(77, MacAddr::from_index(1));
        desc.state = sav_openflow::ports::PortState::LINK_DOWN;
        let ps = PortStatus {
            reason: sav_openflow::messages::PortStatusReason::Modify,
            desc,
        };
        let mut ctx = Ctx::new(SimTime::from_secs(1));
        app.on_port_status(&mut ctx, dpid0, &ps);
        assert_eq!(app.bindings().len(), before - 1);
        assert!(app.bindings().get("10.0.0.200".parse().unwrap()).is_none());
        // Static bindings survived.
        assert!(app.bindings().get(topo.hosts()[0].ip).is_some());
    }

    #[test]
    fn noop_refresh_emits_zero_flow_mods() {
        let (topo, mut app) = mk(SavConfig::default());
        let dpid = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        drop(ctx.take());
        let installed = app.stats.rules_installed;

        // Re-upserting every seeded binding unchanged is a refresh: the
        // compiled state already matches, so nothing reaches the switch.
        let live: Vec<Binding> = app.bindings().iter().copied().collect();
        for b in live {
            let mut ctx = Ctx::new(SimTime::from_secs(1));
            let change = app.upsert_binding(&mut ctx, b);
            assert_eq!(change, BindingChange::Refreshed);
            assert!(ctx.take().is_empty(), "no-op refresh must ship nothing");
        }
        assert_eq!(app.stats.rules_installed, installed);
    }

    #[test]
    fn budgeted_port_compresses_and_splits_on_release() {
        let (topo, mut app) = mk(SavConfig {
            static_plan: false,
            tcam_budget: Some(2),
            ..SavConfig::default()
        });
        let dpid = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        drop(ctx.take());

        // Bind a complete /30 onto one port: 4 hosts over budget 2.
        for i in 0..4u32 {
            let b = Binding {
                ip: Ipv4Addr::from(0x0a00_0a00 + i),
                mac: MacAddr::from_index(u64::from(i) + 1),
                dpid,
                port: 1,
                source: BindingSource::Dhcp,
                expires: Some(SimTime::from_secs(600)),
            };
            let mut ctx = Ctx::new(SimTime::ZERO);
            app.upsert_binding(&mut ctx, b);
            drop(ctx.take());
        }
        // Hosts collapsed into one /30 cover rule.
        assert_eq!(app.compiled_rule_count(), 1);

        // Releasing an inside address splits the cover back apart —
        // 10.0.10.0, .1, .3 need /31 + /32.
        let mut ctx = Ctx::new(SimTime::from_secs(1));
        let got = app.release_binding(&mut ctx, "10.0.10.2".parse().unwrap());
        assert!(got.is_some());
        let mods: Vec<_> = ctx
            .take()
            .into_iter()
            .filter_map(|(_, m)| match m {
                Message::FlowMod(fm) => Some(fm),
                _ => None,
            })
            .collect();
        assert!(!mods.is_empty());
        assert_eq!(app.compiled_rule_count(), 2);
        // Every mod stays inside the SAV cookie space so restart
        // reconciliation and the stats poller keep working unchanged.
        for fm in &mods {
            assert_eq!(fm.cookie & crate::SAV_COOKIE_MASK, crate::SAV_COOKIE);
        }
    }

    fn dhcp_binding(ip: u32, dpid: u64, port: u32, lease_secs: u64) -> Binding {
        Binding {
            ip: Ipv4Addr::from(ip),
            mac: MacAddr::from_index(u64::from(ip & 0xff) + 1),
            dpid,
            port,
            source: BindingSource::Dhcp,
            expires: Some(SimTime::from_secs(lease_secs)),
        }
    }

    fn is_prefix_rule(fm: &FlowMod, port: u32, command: FlowModCommand) -> bool {
        let masked = |f: &OxmField| matches!(f, OxmField::Ipv4Src(_, Some(_)));
        fm.command == command
            && fm.match_.in_port() == Some(port)
            && fm.match_.fields().iter().any(masked)
    }

    #[test]
    fn aggregate_mode_deletes_a_vacated_ports_prefix() {
        let (topo, mut app) = mk(SavConfig {
            aggregate: true,
            ..SavConfig::default()
        });
        let (dpid0, dpid1) = (topo.switches()[0].id.dpid(), topo.switches()[1].id.dpid());
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid0);
        app.on_switch_up(&mut ctx, dpid1);
        drop(ctx.take());
        let rules_before = app.compiled_rule_count();

        // Host 0 migrates to a fresh port on the other switch: its old
        // port holds no binding any more, so its prefix must go.
        let h0 = &topo.hosts()[0];
        let mut moved = *app.bindings().get(h0.ip).unwrap();
        (moved.dpid, moved.port) = (dpid1, 42);
        let mut ctx = Ctx::new(SimTime::from_secs(1));
        assert!(matches!(
            app.upsert_binding(&mut ctx, moved),
            BindingChange::Moved(_)
        ));
        let fms = flow_mods(ctx);
        assert_eq!(fms.len(), 2, "one delete, one add: {fms:?}");
        assert!(fms.iter().any(
            |(d, fm)| *d == dpid0 && is_prefix_rule(fm, h0.port, FlowModCommand::DeleteStrict)
        ));
        assert!(fms
            .iter()
            .any(|(d, fm)| *d == dpid1 && is_prefix_rule(fm, 42, FlowModCommand::Add)));
        assert_eq!(app.compiled_rule_count(), rules_before);

        // Releasing it empties the new port too.
        let mut ctx = Ctx::new(SimTime::from_secs(2));
        app.release_binding(&mut ctx, h0.ip).unwrap();
        let fms = flow_mods(ctx);
        assert_eq!(fms.len(), 1);
        assert!(fms[0].0 == dpid1 && is_prefix_rule(&fms[0].1, 42, FlowModCommand::DeleteStrict));
        assert_eq!(app.compiled_rule_count(), rules_before - 1);
    }

    #[test]
    fn exact_aggregate_splits_a_cover_on_release_and_sweeps_leases_on_poll() {
        let (topo, mut app) = mk(SavConfig {
            static_plan: false,
            aggregate: true,
            aggregate_exact: true,
            ..SavConfig::default()
        });
        let dpid = topo.switches()[0].id.dpid();
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, dpid);
        // A complete /30 learned over DHCP: .1 on a 10 s lease, the rest
        // on 600 s.
        for i in 0..4u32 {
            let lease = if i == 1 { 10 } else { 600 };
            app.upsert_binding(&mut ctx, dhcp_binding(0x0a00_0a00 + i, dpid, 1, lease));
        }
        drop(ctx.take());
        assert_eq!(app.compiled_rule_count(), 1, "one /30 cover");

        // A release inside the block splits it: .0, .1, .3 → /31 + /32.
        let mut ctx = Ctx::new(SimTime::from_secs(1));
        app.release_binding(&mut ctx, "10.0.10.2".parse().unwrap())
            .unwrap();
        let fms = flow_mods(ctx);
        assert_eq!(fms.len(), 3, "two fragments in, the /30 out: {fms:?}");
        assert!(is_prefix_rule(&fms[2].1, 1, FlowModCommand::DeleteStrict));
        assert_eq!(app.compiled_rule_count(), 2);

        // Covers carry no switch timers, so the poll hook sweeps the lease:
        // nothing at 5 s, .1 gone at 11 s and its /31 re-derived to .0/32.
        let mut ctx = Ctx::new(SimTime::from_secs(5));
        app.on_poll(&mut ctx, dpid);
        assert!(ctx.take().is_empty());
        let mut ctx = Ctx::new(SimTime::from_secs(11));
        app.on_poll(&mut ctx, dpid);
        assert!(app.bindings().get("10.0.10.1".parse().unwrap()).is_none());
        assert_eq!(app.stats.bindings_expired, 1);
        let fms = flow_mods(ctx);
        assert_eq!(
            fms.iter().map(|(_, fm)| fm.clone()).collect::<Vec<_>>(),
            vec![
                rules::cover_allow(1, "10.0.10.0/32".parse().unwrap()),
                rules::cover_delete(1, "10.0.10.0/31".parse().unwrap()),
            ]
        );
    }

    #[test]
    fn aggregate_mode_admits_every_subnet_bound_on_a_shared_port() {
        // Two hosts of different subnets behind one port (an unmanaged
        // downstream segment): each subnet needs its own prefix rule.
        let mut t = Topology::new();
        let s = t.add_switch("s1", SwitchRole::Edge, 0);
        let subnets = ["10.0.1.0/24", "10.0.2.0/24"];
        for (i, subnet) in subnets.iter().enumerate() {
            let subnet: sav_net::addr::Ipv4Cidr = subnet.parse().unwrap();
            t.attach_host_at(&format!("h{i}"), s, 5, subnet.nth(10).unwrap(), subnet);
        }
        let topo = Arc::new(t);
        let mut app = SavApp::new(
            topo.clone(),
            SavConfig {
                aggregate: true,
                ..SavConfig::default()
            },
        );
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.on_switch_up(&mut ctx, s.dpid());
        let mut table0 = sav_dataplane::flow_table::FlowTable::new(1024);
        for (_, fm) in flow_mods(ctx) {
            table0.add(&fm, SimTime::ZERO);
        }
        let mut passes = |mac: MacAddr, src: Ipv4Addr| {
            let udp = sav_net::udp::UdpRepr {
                src_port: 1,
                dst_port: 2,
                payload_len: 0,
            };
            let dst = "10.0.9.9".parse().unwrap();
            let ip = sav_net::ipv4::Ipv4Repr::udp(src, dst, udp.buffer_len());
            let eth = sav_net::ethernet::EthernetRepr {
                src: mac,
                dst: MacAddr::from_index(999),
                ethertype: sav_net::ethernet::EtherType::Ipv4,
            };
            let frame = sav_net::builder::build_ipv4_udp(&eth, &ip, &udp, b"");
            let packet = ParsedPacket::parse(&frame).unwrap();
            let ctx = sav_dataplane::MatchContext {
                in_port: 5,
                packet: &packet,
            };
            let (instructions, _) = table0.lookup(&ctx, SimTime::ZERO, frame.len()).unwrap();
            !instructions.is_empty() // the default deny's list is empty
        };
        for h in topo.hosts() {
            assert!(passes(h.mac, h.ip), "{} is bound and must pass", h.ip);
        }
        let outsider = "10.0.3.10".parse().unwrap();
        assert!(!passes(topo.hosts()[0].mac, outsider));
    }
}
