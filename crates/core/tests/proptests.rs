//! Property-based tests for the binding table (single-holder invariant,
//! precedence lattice) and the **differential compiler suite**: the
//! incremental rule compiler must leave a switch holding exactly what a
//! from-scratch wholesale compile of the final binding table produces, for
//! any operation sequence under every cover policy — per-host, TCAM-budgeted,
//! exact-cover and subnet-prefix.

use proptest::prelude::*;
use sav_controller::app::{App, Ctx};
use sav_core::binding::{Binding, BindingChange, BindingSource, BindingTable};
use sav_core::{RuleCompiler, SavApp, SavConfig};
use sav_net::addr::MacAddr;
use sav_openflow::messages::{FlowModCommand, Message, PortStatus, PortStatusReason};
use sav_openflow::ports::{PortDesc, PortState};
use sav_sim::SimTime;
use sav_topo::{SwitchRole, Topology};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Upsert(Binding),
    Remove(Ipv4Addr),
    Expire(u64),
}

fn arb_binding() -> impl Strategy<Value = Binding> {
    (
        0u32..8, // small IP space to force collisions
        0u64..6, // small MAC space
        1u64..4, // dpid
        1u32..5, // port
        0u8..3,  // source
        proptest::option::of(0u64..100),
    )
        .prop_map(|(ip, mac, dpid, port, src, exp)| Binding {
            ip: Ipv4Addr::from(0x0a000000 + ip),
            mac: MacAddr::from_index(mac),
            dpid,
            port,
            source: match src {
                0 => BindingSource::Fcfs,
                1 => BindingSource::Dhcp,
                _ => BindingSource::Static,
            },
            expires: exp.map(SimTime::from_secs),
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_binding().prop_map(Op::Upsert),
        1 => (0u32..8).prop_map(|ip| Op::Remove(Ipv4Addr::from(0x0a000000 + ip))),
        1 => (0u64..100).prop_map(Op::Expire),
    ]
}

fn rank(s: BindingSource) -> u8 {
    match s {
        BindingSource::Fcfs => 0,
        BindingSource::Dhcp => 1,
        BindingSource::Static => 2,
    }
}

proptest! {
    /// After any operation sequence: one binding per IP, and every
    /// surviving binding is traceable to an accepted upsert.
    #[test]
    fn single_holder_invariant(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut table = BindingTable::new();
        // Shadow model: ip -> binding, maintained by the documented rules.
        let mut model: HashMap<Ipv4Addr, Binding> = HashMap::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Upsert(b) => {
                    let change = table.upsert(b, now);
                    // Update the model with the same semantics.
                    match model.get(&b.ip).copied() {
                        None => {
                            model.insert(b.ip, b);
                            prop_assert_eq!(change, BindingChange::Added);
                        }
                        Some(old) => {
                            let old_expired =
                                old.expires.map(|t| now >= t).unwrap_or(false);
                            if old.mac == b.mac
                                || old_expired
                                || rank(b.source) > rank(old.source)
                            {
                                model.insert(b.ip, b);
                                prop_assert!(matches!(
                                    change,
                                    BindingChange::Moved(_) | BindingChange::Refreshed
                                ));
                            } else {
                                prop_assert!(matches!(change, BindingChange::Conflict(_)));
                            }
                        }
                    }
                }
                Op::Remove(ip) => {
                    let got = table.remove(ip);
                    let want = model.remove(&ip);
                    prop_assert_eq!(got, want);
                }
                Op::Expire(secs) => {
                    // Time is monotone within a run.
                    now = now.max(SimTime::from_secs(secs));
                    let mut dead = table.expire(now);
                    let mut model_dead: Vec<Binding> = model
                        .values()
                        .filter(|b| b.expires.map(|t| now >= t).unwrap_or(false))
                        .copied()
                        .collect();
                    for b in &model_dead {
                        model.remove(&b.ip);
                    }
                    dead.sort_by_key(|b| b.ip);
                    model_dead.sort_by_key(|b| b.ip);
                    prop_assert_eq!(dead, model_dead);
                }
            }
            // Invariants after every step.
            prop_assert_eq!(table.len(), model.len());
            for b in table.iter() {
                prop_assert_eq!(model.get(&b.ip), Some(b));
            }
        }
    }

    /// `next_expiry` is exactly the minimum expiry of live bindings.
    #[test]
    fn next_expiry_is_min(bindings in proptest::collection::vec(arb_binding(), 0..20)) {
        let mut table = BindingTable::new();
        for mut b in bindings {
            // Unique IPs to avoid precedence interactions in this test.
            b.ip = Ipv4Addr::from(u32::from(b.ip) + table.len() as u32 * 256);
            table.upsert(b, SimTime::ZERO);
        }
        let want = table.iter().filter_map(|b| b.expires).min();
        prop_assert_eq!(table.next_expiry(), want);
    }

    /// The exact CIDR cover covers precisely the input set, with no
    /// mergeable siblings left.
    #[test]
    fn exact_cover_is_exact_and_minimal(
        raw in proptest::collection::vec(0u32..512, 0..64),
    ) {
        use sav_core::aggregate::{covered, exact_cover};
        let addrs: Vec<Ipv4Addr> = raw
            .iter()
            .map(|&i| Ipv4Addr::from(0x0a000000 + i))
            .collect();
        let mut uniq: Vec<Ipv4Addr> = addrs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let cover = exact_cover(&addrs);
        // Exactness: every input address covered, nothing else.
        prop_assert_eq!(covered(&cover), uniq.len() as u64);
        for a in &uniq {
            prop_assert!(cover.iter().any(|p| p.contains(*a)), "missing {a}");
        }
        // Disjoint + sorted.
        for w in cover.windows(2) {
            prop_assert!(w[0] < w[1]);
            prop_assert!(!w[0].contains_prefix(&w[1]) && !w[1].contains_prefix(&w[0]));
        }
        // Minimality: no sibling pair remains.
        for i in 0..cover.len() {
            for j in i + 1..cover.len() {
                prop_assert!(!cover[i].is_sibling(&cover[j]), "mergeable pair left");
            }
        }
    }

    /// on_switch filtering partitions the table.
    #[test]
    fn on_switch_partitions(bindings in proptest::collection::vec(arb_binding(), 0..30)) {
        let mut table = BindingTable::new();
        for mut b in bindings {
            b.ip = Ipv4Addr::from(u32::from(b.ip) + table.len() as u32 * 256);
            table.upsert(b, SimTime::ZERO);
        }
        let total: usize = (0..8).map(|d| table.on_switch(d).count()).sum();
        prop_assert_eq!(total, table.len());
    }
}

// ---------------------------------------------------------------------------
// Differential compiler suite
// ---------------------------------------------------------------------------

/// Operations the incremental compiler must track: binding churn from every
/// lifecycle path the app exposes, under any cover policy.
#[derive(Debug, Clone)]
enum CompilerOp {
    /// DHCP ack / static seed / FCFS claim / migration — all land here.
    Upsert(Binding),
    /// DHCP release.
    Release(Ipv4Addr),
    /// Advance the clock and run the controller-driven expiry sweep.
    Sweep(u64),
    /// Link down: FCFS bindings on the port die.
    PortDown(u64, u32),
}

fn arb_compiler_op() -> impl Strategy<Value = CompilerOp> {
    prop_oneof![
        6 => arb_binding().prop_map(CompilerOp::Upsert),
        2 => (0u32..8).prop_map(|ip| CompilerOp::Release(Ipv4Addr::from(0x0a000000 + ip))),
        1 => (0u64..100).prop_map(CompilerOp::Sweep),
        1 => ((1u64..4), (1u32..5)).prop_map(|(d, p)| CompilerOp::PortDown(d, p)),
    ]
}

/// A switch's table as the differential suite models it: the incremental
/// deltas folded in emission order. Timeouts are deliberately not part of
/// the key or value — equivalence is on the (match, priority, cookie) set.
type FlowTable = HashMap<(u64, u16, String), u64>;

fn fold_delta(table: &mut FlowTable, msgs: Vec<(u64, Message)>) {
    for (dpid, msg) in msgs {
        let Message::FlowMod(fm) = msg else {
            // Barrier fences between deltas carry no table state.
            continue;
        };
        let key = (dpid, fm.priority, format!("{:?}", fm.match_));
        match fm.command {
            FlowModCommand::Add => {
                table.insert(key, fm.cookie);
            }
            FlowModCommand::DeleteStrict => {
                table.remove(&key);
            }
            other => panic!("incremental deltas are Add/DeleteStrict only, got {other:?}"),
        }
    }
}

/// An address plan that splits [`arb_binding`]'s eight addresses three
/// ways for the subnet policy: `.0–.3` and `.4–.5` fall in two different
/// subnets, `.6–.7` in none.
fn two_subnet_plan() -> Topology {
    let mut t = Topology::new();
    let s = t.add_switch("s1", SwitchRole::Edge, 0);
    for (name, ip, subnet) in [
        ("a", "10.0.0.1", "10.0.0.0/30"),
        ("b", "10.0.0.4", "10.0.0.4/31"),
    ] {
        t.attach_host(name, s, ip.parse().unwrap(), subnet.parse().unwrap());
    }
    t
}

proptest! {
    /// **Differential property**: drive `SavApp` through an arbitrary
    /// binding-churn sequence under an arbitrary cover policy — per-host,
    /// budget 1/2/4/8, exact (budget 0, `aggregate_exact`) or subnet
    /// (`aggregate`, over [`two_subnet_plan`]) — folding every emitted
    /// flow-mod delta into a model switch table. The folded table
    /// must be semantically identical — same (match, priority, cookie)
    /// set — to a from-scratch wholesale compile of the final binding
    /// table. Also checks, in sequence, that a no-op refresh of every
    /// surviving binding ships zero flow-mods.
    #[test]
    fn incremental_compiler_matches_wholesale(
        ops in proptest::collection::vec(arb_compiler_op(), 1..80),
        policy_sel in 0usize..7,
    ) {
        let topo = Arc::new(two_subnet_plan());
        let (tcam_budget, aggregate, aggregate_exact) = [
            (None, false, false),
            (Some(1), false, false),
            (Some(2), false, false),
            (Some(4), false, false),
            (Some(8), false, false),
            (None, true, true),
            (None, true, false),
        ][policy_sel];
        let config = SavConfig {
            static_plan: false,
            dhcp_snooping: false,
            tcam_budget,
            aggregate,
            aggregate_exact,
            ..SavConfig::default()
        };
        let reference = RuleCompiler::for_config(&config, &topo);
        let mut app = SavApp::new(topo, config);
        let mut table = FlowTable::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                CompilerOp::Upsert(b) => {
                    let mut ctx = Ctx::new(now);
                    app.upsert_binding(&mut ctx, b);
                    fold_delta(&mut table, ctx.take());
                }
                CompilerOp::Release(ip) => {
                    let mut ctx = Ctx::new(now);
                    app.release_binding(&mut ctx, ip);
                    fold_delta(&mut table, ctx.take());
                }
                CompilerOp::Sweep(secs) => {
                    now = now.max(SimTime::from_secs(secs));
                    let mut ctx = Ctx::new(now);
                    app.sweep_expired(&mut ctx);
                    fold_delta(&mut table, ctx.take());
                }
                CompilerOp::PortDown(dpid, port) => {
                    let mut desc = PortDesc::new(port, MacAddr::from_index(1));
                    desc.state = PortState::LINK_DOWN;
                    let ps = PortStatus {
                        reason: PortStatusReason::Modify,
                        desc,
                    };
                    let mut ctx = Ctx::new(now);
                    app.on_port_status(&mut ctx, dpid, &ps);
                    fold_delta(&mut table, ctx.take());
                }
            }
        }

        // Satellite check: re-upserting any live binding unchanged is a
        // refresh and must emit nothing — cached or covered alike.
        let live: Vec<Binding> = app.bindings().iter().copied().collect();
        for b in live {
            let mut ctx = Ctx::new(now);
            let change = app.upsert_binding(&mut ctx, b);
            prop_assert_eq!(change, BindingChange::Refreshed);
            let leftover = ctx.take();
            prop_assert!(
                leftover.is_empty(),
                "no-op refresh of {} emitted {} messages",
                b.ip,
                leftover.len()
            );
        }

        // Wholesale compile of the final binding table, per (dpid, port).
        let mut by_port: BTreeMap<(u64, u32), BTreeMap<Ipv4Addr, Binding>> = BTreeMap::new();
        for b in app.bindings().iter() {
            by_port.entry((b.dpid, b.port)).or_default().insert(b.ip, *b);
        }
        let mut expected = FlowTable::new();
        for ((dpid, _port), bs) in &by_port {
            for fm in reference.compile_port(bs, now) {
                expected.insert((*dpid, fm.priority, format!("{:?}", fm.match_)), fm.cookie);
            }
        }
        prop_assert_eq!(table, expected);

        // Cache bookkeeping agrees with what the model switch holds.
        prop_assert_eq!(app.compiled_rule_count(), expected.len());
    }
}
