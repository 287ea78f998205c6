//! The rule compiler: the **one** definition of "the rules a port should
//! hold", and the per-`(switch, port)` cache that turns binding changes into
//! **minimal flow-mod deltas**.
//!
//! One pipeline serves every proactive configuration:
//!
//! ```text
//! bindings ──► cover policy ──► desired rule set ──► delta vs. installed
//! ```
//!
//! Every `(dpid, port)` carries a mirror of its bindings plus the rule set
//! the switch is believed to hold. A binding change re-derives the port's
//! **desired** set (`desired_specs`) as a pure function of the mirror and
//! the policy, and emits only the difference, adds before deletes, so a
//! legitimately bound source is never without a matching rule
//! mid-transition.
//!
//! The policy (`CoverPolicy`, resolved from [`SavConfig`] in
//! [`RuleCompiler::for_config`] and nowhere else) is the only thing that
//! differs between granularities — per-host, TCAM-budgeted, exact-cover and
//! subnet-prefix are all "choose a cover for this port's bound addresses":
//!
//! | `SavConfig` | policy | a port's rules |
//! |---|---|---|
//! | default | `Hosts { budget: None }` | one host allow per binding |
//! | `tcam_budget: Some(n)` | `Hosts { budget: Some(n) }` | hosts up to `n`, past it the minimal exact CIDR cover ([`crate::aggregate::budgeted_cover`]) |
//! | `aggregate` + `aggregate_exact` | `Hosts { budget: Some(0) }` | always the exact cover |
//! | `aggregate` | `Subnet(plan)` | one prefix per plan subnet that holds a binding |
//!
//! Because the desired set is **pure** — no hysteresis, no dependence on
//! the order changes arrived in — the incremental output always converges
//! to exactly what a from-scratch [`RuleCompiler::compile_port`] of the
//! final binding table produces: releasing the last binding off a port
//! deletes its prefix, a release inside a cover splits it. That equivalence
//! is the contract the differential suite in `tests/proptests.rs` enforces
//! for every policy.
//!
//! Host rules keep the kind-0 `SAV_COOKIE | ip` cookie (readable by
//! `on_flow_removed` and the stats poller) and carry the lease as switch
//! timers; covers carry the kind-`0xffff` prefix cookie both consumers
//! ignore and **no** timers — one rule stands for many leases — so any
//! policy that can emit them ([`RuleCompiler::emits_timerless_rules`]) has
//! its leases swept by the controller instead.

use crate::aggregate;
use crate::binding::{Binding, BindingSource};
use crate::rules;
use crate::SavConfig;
use sav_net::addr::{Ipv4Cidr, MacAddr};
use sav_openflow::messages::FlowMod;
use sav_sim::SimTime;
use sav_topo::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// How a port's bound addresses are covered by allow rules.
#[derive(Debug)]
enum CoverPolicy {
    /// One host rule per binding while they fit in `budget`; past it, the
    /// minimal exact CIDR cover. `None` never covers, `Some(0)` always does.
    Hosts { budget: Option<usize> },
    /// One prefix rule per address-plan subnet holding a binding: the
    /// coarse mode for ports fronting an unmanaged segment — fewest rules,
    /// but same-subnet spoofing on that port goes undetected.
    Subnet(Vec<Ipv4Cidr>),
}

/// What the switch holds for one host rule — everything whose change
/// requires touching the switch, and everything the rule renders from. The
/// lifecycle is the **absolute** lease expiry, not the encoded
/// `hard_timeout`: re-deriving the same lease at a later `now` yields a
/// smaller countdown but identical switch state, and must not read as a
/// change (a no-op refresh emits nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostSpec {
    /// `None` when MAC matching is off — the rule's shape is then
    /// independent of the binding's MAC, and a takeover must not churn it.
    mac: Option<MacAddr>,
    source: BindingSource,
    expires: Option<SimTime>,
}

/// The allow rules of one port. Host rules are keyed by address and covers
/// by prefix, so a host identity can only ever hold a host shape.
#[derive(Debug, Default)]
struct RuleSet {
    hosts: BTreeMap<Ipv4Addr, HostSpec>,
    covers: BTreeSet<Ipv4Cidr>,
}

impl RuleSet {
    fn len(&self) -> usize {
        self.hosts.len() + self.covers.len()
    }
}

#[derive(Debug, Default)]
struct PortState {
    /// Mirror of the binding table restricted to this port.
    bindings: BTreeMap<Ipv4Addr, Binding>,
    /// What the switch is believed to hold for this port.
    installed: RuleSet,
}

/// The desired rule set of one port, derived purely from the binding
/// mirror and the policy — the single definition of a port's rules.
fn desired_specs(
    bindings: &BTreeMap<Ipv4Addr, Binding>,
    policy: &CoverPolicy,
    match_mac: bool,
) -> RuleSet {
    let covers = match policy {
        CoverPolicy::Hosts { budget } => {
            let ips: Vec<Ipv4Addr> = bindings.keys().copied().collect();
            aggregate::budgeted_cover(&ips, *budget)
        }
        // A bound address outside the plan keeps an exact /32: a bound
        // source is never dropped for want of a subnet.
        CoverPolicy::Subnet(plan) => Some(
            bindings
                .keys()
                .map(|&ip| {
                    let subnet = plan.iter().find(|c| c.contains(ip));
                    subnet.copied().unwrap_or_else(|| Ipv4Cidr::host(ip))
                })
                .collect(),
        ),
    };
    match covers {
        Some(covers) => RuleSet {
            covers: covers.into_iter().collect(),
            ..RuleSet::default()
        },
        None => RuleSet {
            hosts: bindings
                .values()
                .map(|b| {
                    let spec = HostSpec {
                        mac: match_mac.then_some(b.mac),
                        source: b.source,
                        expires: b.expires,
                    };
                    (b.ip, spec)
                })
                .collect(),
            ..RuleSet::default()
        },
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct RuleCompiler {
    match_mac: bool,
    dynamic_idle_timeout: u16,
    policy: CoverPolicy,
    ports: BTreeMap<(u64, u32), PortState>,
}

impl RuleCompiler {
    /// A per-host compiler with no cached state; `budget` is the per-port
    /// TCAM budget past which a port compresses to its exact cover.
    pub fn new(match_mac: bool, dynamic_idle_timeout: u16, budget: Option<usize>) -> RuleCompiler {
        RuleCompiler::with_policy(
            match_mac,
            dynamic_idle_timeout,
            CoverPolicy::Hosts { budget },
        )
    }

    /// The compiler `config` asks for — the one place the aggregation
    /// knobs are read. `aggregate` overrides `tcam_budget`; its subnet
    /// policy takes the address plan from `topo`.
    pub fn for_config(config: &SavConfig, topo: &Topology) -> RuleCompiler {
        let policy = match (config.aggregate, config.aggregate_exact) {
            (false, _) => CoverPolicy::Hosts {
                budget: config.tcam_budget,
            },
            (true, true) => CoverPolicy::Hosts { budget: Some(0) },
            (true, false) => {
                CoverPolicy::Subnet(topo.subnets().into_iter().map(|(c, _)| c).collect())
            }
        };
        RuleCompiler::with_policy(config.match_mac, config.dynamic_idle_timeout, policy)
    }

    fn with_policy(
        match_mac: bool,
        dynamic_idle_timeout: u16,
        policy: CoverPolicy,
    ) -> RuleCompiler {
        RuleCompiler {
            match_mac,
            dynamic_idle_timeout,
            policy,
            ports: BTreeMap::new(),
        }
    }

    /// True if this policy can compile a port to covers, which carry no
    /// switch-side timers: lease expiry must then be driven by the
    /// controller (`SavApp::sweep_expired`), not by `FlowRemoved`.
    pub fn emits_timerless_rules(&self) -> bool {
        !matches!(self.policy, CoverPolicy::Hosts { budget: None })
    }

    /// Mirror-only upsert: record the binding without computing a delta.
    /// Used for bulk seeding at switch-up; follow with [`sync_switch`].
    ///
    /// [`sync_switch`]: RuleCompiler::sync_switch
    pub fn stage(&mut self, b: &Binding) {
        self.ports
            .entry((b.dpid, b.port))
            .or_default()
            .bindings
            .insert(b.ip, *b);
    }

    /// Upsert `b` and return the flow-mod delta for its port. Unchanged
    /// shape (a no-op refresh) returns an empty delta.
    pub fn bind(&mut self, b: &Binding, now: SimTime) -> Vec<FlowMod> {
        self.stage(b);
        self.sync_port(b.dpid, b.port, now)
    }

    /// Remove `b` and return the delta — the host-rule delete, or the
    /// cover split/re-derivation when the port is aggregated.
    pub fn unbind(&mut self, b: &Binding, now: SimTime) -> Vec<FlowMod> {
        if let Some(state) = self.ports.get_mut(&(b.dpid, b.port)) {
            state.bindings.remove(&b.ip);
        }
        self.sync_port(b.dpid, b.port, now)
    }

    /// The switch itself already removed `b`'s host rule (idle or hard
    /// timeout): evict it from the mirror *and* the installed cache, so no
    /// delete is emitted for a rule that is already gone.
    pub fn rule_expired(&mut self, b: &Binding, now: SimTime) -> Vec<FlowMod> {
        if let Some(state) = self.ports.get_mut(&(b.dpid, b.port)) {
            state.bindings.remove(&b.ip);
            state.installed.hosts.remove(&b.ip);
        }
        self.sync_port(b.dpid, b.port, now)
    }

    /// Sync every staged port of `dpid`: the delta bringing the switch from
    /// whatever the cache says it holds to the desired state.
    pub fn sync_switch(&mut self, dpid: u64, now: SimTime) -> Vec<FlowMod> {
        let ports: Vec<u32> = self
            .ports
            .range((dpid, 0)..=(dpid, u32::MAX))
            .map(|((_, p), _)| *p)
            .collect();
        let mut out = Vec::new();
        for p in ports {
            out.extend(self.sync_port(dpid, p, now));
        }
        out
    }

    /// Drop all cached state for `dpid` — the switch (re)connected and its
    /// table will be rebuilt or reconciled from scratch.
    pub fn forget_switch(&mut self, dpid: u64) {
        self.ports.retain(|(d, _), _| *d != dpid);
    }

    /// Adopt `bindings` as `dpid`'s mirror and mark the derived rule set as
    /// already installed, emitting nothing: the post-reconciliation
    /// handoff, where the flow-stats diff just brought the switch to
    /// exactly the desired state.
    pub fn prime_switch(&mut self, dpid: u64, bindings: &[Binding]) {
        self.forget_switch(dpid);
        for b in bindings {
            self.stage(b);
        }
        for (_, state) in self.ports.range_mut((dpid, 0)..=(dpid, u32::MAX)) {
            state.installed = desired_specs(&state.bindings, &self.policy, self.match_mac);
        }
    }

    /// Number of allow rules the cache believes `dpid` holds.
    pub fn installed_on(&self, dpid: u64) -> usize {
        self.ports
            .range((dpid, 0)..=(dpid, u32::MAX))
            .map(|(_, s)| s.installed.len())
            .sum()
    }

    /// Total allow rules believed installed across all switches.
    pub fn installed_total(&self) -> usize {
        self.ports.values().map(|s| s.installed.len()).sum()
    }

    /// From-scratch compile of one port's bindings — the desired set,
    /// rendered. The differential suite holds the incremental path's net
    /// effect to exactly this output.
    pub fn compile_port(
        &self,
        bindings: &BTreeMap<Ipv4Addr, Binding>,
        now: SimTime,
    ) -> Vec<FlowMod> {
        let Some(port) = bindings.values().next().map(|b| b.port) else {
            return Vec::new();
        };
        let want = desired_specs(bindings, &self.policy, self.match_mac);
        self.render(port, &want, now).collect()
    }

    /// Every allow rule the cache believes `dpid` holds, rendered — after
    /// [`prime_switch`], the reconciliation target.
    ///
    /// [`prime_switch`]: RuleCompiler::prime_switch
    pub fn installed_rules(&self, dpid: u64, now: SimTime) -> Vec<FlowMod> {
        self.ports
            .range((dpid, 0)..=(dpid, u32::MAX))
            .flat_map(|((_, port), state)| self.render(*port, &state.installed, now))
            .collect()
    }

    fn render<'a>(
        &'a self,
        port: u32,
        set: &'a RuleSet,
        now: SimTime,
    ) -> impl Iterator<Item = FlowMod> + 'a {
        let hosts = set.hosts.iter();
        hosts
            .map(move |(ip, spec)| self.host_add(port, *ip, spec, now))
            .chain(set.covers.iter().map(move |c| rules::cover_allow(port, *c)))
    }

    /// The binding fields a host rule's match, cookie and timeouts derive
    /// from; the rest is a placeholder (and the MAC too, when MAC matching
    /// is off).
    fn host_binding(port: u32, ip: Ipv4Addr, spec: &HostSpec) -> Binding {
        Binding {
            ip,
            mac: spec.mac.unwrap_or(MacAddr::ZERO),
            dpid: 0,
            port,
            source: spec.source,
            expires: spec.expires,
        }
    }

    /// The per-host allow with lifecycle timeouts: static never expires,
    /// DHCP carries the remaining lease as a hard timeout, FCFS idles out.
    fn host_add(&self, port: u32, ip: Ipv4Addr, spec: &HostSpec, now: SimTime) -> FlowMod {
        let (idle, hard) = match spec.source {
            BindingSource::Static => (0, 0),
            BindingSource::Dhcp => {
                let remaining = spec
                    .expires
                    .map(|t| t.saturating_since(now).as_secs_f64().ceil() as u64)
                    .unwrap_or(0);
                (0, remaining.min(u64::from(u16::MAX)) as u16)
            }
            BindingSource::Fcfs => (self.dynamic_idle_timeout, 0),
        };
        let b = Self::host_binding(port, ip, spec);
        rules::binding_allow(&b, self.match_mac, idle, hard)
    }

    fn host_delete(&self, port: u32, ip: Ipv4Addr, old: &HostSpec) -> FlowMod {
        rules::binding_delete(&Self::host_binding(port, ip, old), self.match_mac)
    }

    /// Diff one port's desired rules against the cache and emit the delta.
    fn sync_port(&mut self, dpid: u64, port: u32, now: SimTime) -> Vec<FlowMod> {
        let Some(state) = self.ports.get(&(dpid, port)) else {
            return Vec::new();
        };
        let desired = desired_specs(&state.bindings, &self.policy, self.match_mac);
        let have = &state.installed;
        let mut adds = Vec::new();
        let mut dels = Vec::new();
        for (ip, spec) in &desired.hosts {
            match have.hosts.get(ip) {
                Some(old) if old == spec => continue,
                // Same identity, new shape. A MAC change under eth_src
                // matching alters the *match*, so the old rule must be
                // strict-deleted; lease/source changes keep the match, and
                // the Add alone replaces the entry (resetting its timers,
                // which is exactly what a renewed lease wants).
                Some(old) if old.mac != spec.mac => dels.push(self.host_delete(port, *ip, old)),
                _ => {}
            }
            adds.push(self.host_add(port, *ip, spec, now));
        }
        for c in desired.covers.difference(&have.covers) {
            adds.push(rules::cover_allow(port, *c));
        }
        for (ip, old) in &have.hosts {
            if !desired.hosts.contains_key(ip) {
                dels.push(self.host_delete(port, *ip, old));
            }
        }
        for c in have.covers.difference(&desired.covers) {
            dels.push(rules::cover_delete(port, *c));
        }
        // Adds before deletes: a host→cover or cover→host transition never
        // opens a window in which a bound source has no matching rule.
        let mut out = adds;
        out.append(&mut dels);
        let state = self
            .ports
            .get_mut(&(dpid, port))
            .expect("port state exists");
        state.installed = desired;
        if state.bindings.is_empty() {
            self.ports.remove(&(dpid, port));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SAV_COOKIE;
    use sav_openflow::messages::FlowModCommand;

    fn b(ip: &str, mac: u64, port: u32) -> Binding {
        Binding {
            ip: ip.parse().unwrap(),
            mac: MacAddr::from_index(mac),
            dpid: 1,
            port,
            source: BindingSource::Static,
            expires: None,
        }
    }

    fn adds(delta: &[FlowMod]) -> usize {
        delta
            .iter()
            .filter(|fm| fm.command == FlowModCommand::Add)
            .count()
    }

    fn dels(delta: &[FlowMod]) -> usize {
        delta
            .iter()
            .filter(|fm| fm.command == FlowModCommand::DeleteStrict)
            .count()
    }

    #[test]
    fn bind_emits_one_add_and_noop_rebind_emits_nothing() {
        let mut c = RuleCompiler::new(true, 60, None);
        let x = b("10.0.0.1", 1, 7);
        let d = c.bind(&x, SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 0));
        assert_eq!(d[0].cookie, SAV_COOKIE | u64::from(u32::from(x.ip)));
        // Identical shape at a later instant: nothing to do.
        let d = c.bind(&x, SimTime::from_secs(30));
        assert!(d.is_empty(), "no-op rebind must ship nothing");
    }

    #[test]
    fn mac_takeover_strict_deletes_the_old_match() {
        let mut c = RuleCompiler::new(true, 60, None);
        let x = b("10.0.0.1", 1, 7);
        c.bind(&x, SimTime::ZERO);
        let mut y = x;
        y.mac = MacAddr::from_index(2);
        let d = c.bind(&y, SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 1));
        // Without MAC matching the match is unchanged — Add alone replaces.
        let mut c = RuleCompiler::new(false, 60, None);
        c.bind(&x, SimTime::ZERO);
        let d = c.bind(&y, SimTime::ZERO);
        assert!(
            d.is_empty(),
            "mac is not in the match nor the spec-relevant timeouts"
        );
    }

    #[test]
    fn lease_renewal_re_adds_without_delete() {
        let mut c = RuleCompiler::new(true, 60, None);
        let mut x = b("10.0.0.1", 1, 7);
        x.source = BindingSource::Dhcp;
        x.expires = Some(SimTime::from_secs(100));
        c.bind(&x, SimTime::ZERO);
        // Same lease, later now: the countdown differs but the switch state
        // doesn't — no delta.
        assert!(c.bind(&x, SimTime::from_secs(40)).is_empty());
        // Renewed lease: one Add, no delete (same match replaces).
        x.expires = Some(SimTime::from_secs(500));
        let d = c.bind(&x, SimTime::from_secs(40));
        assert_eq!((adds(&d), dels(&d)), (1, 0));
        assert_eq!(d[0].hard_timeout, 460);
    }

    #[test]
    fn crossing_the_budget_swaps_hosts_for_covers_adds_first() {
        let mut c = RuleCompiler::new(true, 60, Some(2));
        c.bind(&b("10.0.0.0", 1, 7), SimTime::ZERO);
        let d = c.bind(&b("10.0.0.1", 2, 7), SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 0), "at the budget: still hosts");
        // One past the budget: the exact cover replaces the host rules.
        let d = c.bind(&b("10.0.0.2", 3, 7), SimTime::ZERO);
        assert_eq!(adds(&d), 2, "10.0.0.0/31 + 10.0.0.2/32");
        assert_eq!(dels(&d), 2, "both host rules retired");
        // Make-before-break: every add precedes every delete.
        let first_del = d
            .iter()
            .position(|f| f.command == FlowModCommand::DeleteStrict);
        let last_add = d.iter().rposition(|f| f.command == FlowModCommand::Add);
        assert!(last_add < first_del, "adds ship before deletes");
        assert_eq!(c.installed_on(1), 2);
    }

    #[test]
    fn release_inside_a_cover_splits_it() {
        let mut c = RuleCompiler::new(true, 60, Some(2));
        for (i, ip) in ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]
            .iter()
            .enumerate()
        {
            c.bind(&b(ip, i as u64, 7), SimTime::ZERO);
        }
        assert_eq!(c.installed_on(1), 1, "four dense hosts → one /30 cover");
        // Releasing an interior address forces the split: the /30 is
        // replaced by the exact cover of the three survivors.
        let d = c.unbind(&b("10.0.0.1", 1, 7), SimTime::ZERO);
        assert_eq!(adds(&d), 2, "10.0.0.0/32 + 10.0.0.2/31");
        assert_eq!(dels(&d), 1, "the /30 cover");
        assert_eq!(c.installed_on(1), 2);
        // Cover cookies carry the network address for attribution and the
        // 0xffff kind so binding-expiry logic ignores them.
        for fm in d.iter().filter(|f| f.command == FlowModCommand::Add) {
            assert_eq!((fm.cookie >> 32) & 0xffff, 0xffff);
        }
    }

    #[test]
    fn rule_expired_evicts_silently() {
        let mut c = RuleCompiler::new(true, 60, None);
        let x = b("10.0.0.1", 1, 7);
        c.bind(&x, SimTime::ZERO);
        let d = c.rule_expired(&x, SimTime::ZERO);
        assert!(d.is_empty(), "the switch already dropped the rule");
        assert_eq!(c.installed_total(), 0);
    }

    #[test]
    fn prime_switch_adopts_without_emitting() {
        let mut c = RuleCompiler::new(true, 60, Some(1));
        let bs = vec![b("10.0.0.0", 1, 7), b("10.0.0.1", 2, 7)];
        c.prime_switch(1, &bs);
        assert_eq!(c.installed_on(1), 1, "two hosts over budget → one /31");
        // Syncing right after priming finds nothing to do.
        assert!(c.sync_switch(1, SimTime::ZERO).is_empty());
    }

    #[test]
    fn subnet_policy_holds_one_prefix_per_bound_subnet() {
        let plan = vec![
            "10.0.0.0/24".parse().unwrap(),
            "10.0.1.0/24".parse().unwrap(),
        ];
        let mut c = RuleCompiler::with_policy(true, 60, CoverPolicy::Subnet(plan));
        let d = c.bind(&b("10.0.0.10", 1, 7), SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 0));
        assert_eq!(d[0], rules::cover_allow(7, "10.0.0.0/24".parse().unwrap()));
        // A second host under the same subnet is already admitted.
        assert!(c.bind(&b("10.0.0.11", 2, 7), SimTime::ZERO).is_empty());
        // A second subnet on the same (shared) port gets its own prefix,
        // and an address outside the plan an exact /32.
        let d = c.bind(&b("10.0.1.10", 3, 7), SimTime::ZERO);
        assert_eq!(
            d,
            vec![rules::cover_allow(7, "10.0.1.0/24".parse().unwrap())]
        );
        let d = c.bind(&b("192.0.2.1", 4, 7), SimTime::ZERO);
        assert_eq!(
            d,
            vec![rules::cover_allow(7, "192.0.2.1/32".parse().unwrap())]
        );
        assert_eq!(c.installed_on(1), 3);
        // The prefix outlives all but the last binding under it.
        assert!(c.unbind(&b("10.0.0.10", 1, 7), SimTime::ZERO).is_empty());
        let d = c.unbind(&b("10.0.0.11", 2, 7), SimTime::ZERO);
        assert_eq!(
            d,
            vec![rules::cover_delete(7, "10.0.0.0/24".parse().unwrap())]
        );
        assert_eq!(c.installed_on(1), 2);
    }

    #[test]
    fn exact_policy_covers_from_the_first_binding_and_retires_the_last() {
        // `aggregate_exact` is a budget of zero: never a host rule.
        let mut c = RuleCompiler::new(true, 60, Some(0));
        let d = c.bind(&b("10.0.0.4", 1, 7), SimTime::ZERO);
        assert_eq!(
            d,
            vec![rules::cover_allow(7, "10.0.0.4/32".parse().unwrap())]
        );
        let d = c.bind(&b("10.0.0.5", 2, 7), SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 1), "/32 grows into the /31");
        // A release inside the block splits it; the last one empties the port.
        let d = c.unbind(&b("10.0.0.4", 1, 7), SimTime::ZERO);
        assert_eq!(
            d,
            vec![
                rules::cover_allow(7, "10.0.0.5/32".parse().unwrap()),
                rules::cover_delete(7, "10.0.0.4/31".parse().unwrap()),
            ]
        );
        let d = c.unbind(&b("10.0.0.5", 2, 7), SimTime::ZERO);
        assert_eq!(
            d,
            vec![rules::cover_delete(7, "10.0.0.5/32".parse().unwrap())]
        );
        assert_eq!(c.installed_total(), 0);
        assert!(c.emits_timerless_rules());
        assert!(!RuleCompiler::new(true, 60, None).emits_timerless_rules());
    }
}
