//! Rule shapes: the pure constructors for every flow entry the SAV app
//! installs — one binding or one cover prefix in, one `FlowMod` out.
//!
//! Kept free of controller state so each shape is a unit-testable function.
//! *Which* of these a port should hold is decided in [`crate::compiler`];
//! this module only renders the decision.

use crate::binding::Binding;
use crate::{
    PRIO_ALLOW, PRIO_DHCP_CLIENT, PRIO_DHCP_TRUST, PRIO_ISAV_DENY, PRIO_OSAV_DENY, PRIO_TRUNK,
    SAV_COOKIE,
};
use sav_controller::TABLE_FWD;
use sav_net::addr::Ipv4Cidr;
use sav_net::dhcpv4::{DHCP_CLIENT_PORT, DHCP_SERVER_PORT};
use sav_openflow::consts::{flow_mod_flags, port as ofport};
use sav_openflow::messages::{FlowMod, FlowModCommand};
use sav_openflow::oxm::{OxmField, OxmMatch};
use sav_openflow::prelude::{Action, Instruction};

/// Cookie for a binding's allow rule (tagged with the low IP bits so flow
/// stats are attributable).
pub fn allow_cookie(b: &Binding) -> u64 {
    SAV_COOKIE | u64::from(u32::from(b.ip))
}

fn allow_match(b: &Binding, match_mac: bool) -> OxmMatch {
    let mut m = OxmMatch::new()
        .with(OxmField::InPort(b.port))
        .with(OxmField::EthType(0x0800));
    if match_mac {
        m.push(OxmField::EthSrc(b.mac, None));
    }
    m.with(OxmField::Ipv4Src(b.ip, None))
}

/// The allow rule for one binding: `(in_port, [eth_src,] ipv4_src)` →
/// continue to forwarding. `idle_timeout`/`hard_timeout` control lifecycle
/// (FCFS idle expiry; DHCP lease hard expiry); `SEND_FLOW_REM` is always
/// set so the app hears about expiry.
pub fn binding_allow(
    b: &Binding,
    match_mac: bool,
    idle_timeout: u16,
    hard_timeout: u16,
) -> FlowMod {
    FlowMod {
        priority: PRIO_ALLOW,
        cookie: allow_cookie(b),
        idle_timeout,
        hard_timeout,
        flags: flow_mod_flags::SEND_FLOW_REM,
        instructions: vec![Instruction::GotoTable(TABLE_FWD)],
        ..FlowMod::add(allow_match(b, match_mac))
    }
}

/// Strict delete for a binding's allow rule.
pub fn binding_delete(b: &Binding, match_mac: bool) -> FlowMod {
    FlowMod {
        priority: PRIO_ALLOW,
        cookie: allow_cookie(b),
        command: FlowModCommand::DeleteStrict,
        ..FlowMod::add(allow_match(b, match_mac))
    }
}

/// `(in_port, ipv4_src ∈ prefix)` — the match of every prefix-granular rule.
fn prefix_match(port: u32, prefix: Ipv4Cidr) -> OxmMatch {
    OxmMatch::new()
        .with(OxmField::InPort(port))
        .with(OxmField::EthType(0x0800))
        .with(OxmField::Ipv4Src(prefix.network(), Some(prefix.netmask())))
}

/// Cookie for a cover rule: the `0xffff` kind (so binding-expiry logic and
/// the stats poller's per-binding records ignore it) plus the cover's
/// network address in the low 32 bits for attribution. Disjoint covers
/// have distinct networks, so every cover on a port gets a unique cookie.
pub fn cover_cookie(prefix: Ipv4Cidr) -> u64 {
    SAV_COOKIE | 0x0000_ffff_0000_0000 | u64::from(u32::from(prefix.network()))
}

/// Cover allow: every source within `prefix` entering `port` passes. No
/// timeouts and no `SEND_FLOW_REM` — covered bindings expire under
/// controller control (`SavApp::sweep_expired`), not switch timers, since
/// one rule stands for many leases.
pub fn cover_allow(port: u32, prefix: Ipv4Cidr) -> FlowMod {
    FlowMod {
        priority: PRIO_ALLOW,
        cookie: cover_cookie(prefix),
        instructions: vec![Instruction::GotoTable(TABLE_FWD)],
        ..FlowMod::add(prefix_match(port, prefix))
    }
}

/// Strict delete for a cover rule.
pub fn cover_delete(port: u32, prefix: Ipv4Cidr) -> FlowMod {
    FlowMod {
        priority: PRIO_ALLOW,
        cookie: cover_cookie(prefix),
        command: FlowModCommand::DeleteStrict,
        ..FlowMod::add(prefix_match(port, prefix))
    }
}

/// Trunk pass-through: traffic arriving from another switch was validated
/// at its own edge.
pub fn trunk_allow(port: u32) -> FlowMod {
    FlowMod {
        priority: PRIO_TRUNK,
        cookie: SAV_COOKIE,
        instructions: vec![Instruction::GotoTable(TABLE_FWD)],
        ..FlowMod::add(OxmMatch::new().with(OxmField::InPort(port)))
    }
}

/// The edge default deny for IPv4 (outbound SAV). In proactive mode the
/// action list is empty → drop; with `punt` the packet goes to the
/// controller instead (reactive validation and FCFS claiming).
pub fn edge_default_deny(punt: bool) -> FlowMod {
    let instructions = if punt {
        vec![Instruction::ApplyActions(vec![Action::output(
            ofport::CONTROLLER,
        )])]
    } else {
        vec![] // no instructions = drop at end of pipeline
    };
    FlowMod {
        priority: PRIO_OSAV_DENY,
        cookie: SAV_COOKIE | 0xdead,
        instructions,
        ..FlowMod::add(OxmMatch::new().with(OxmField::EthType(0x0800)))
    }
}

/// Inbound-SAV deny at a border port: packets arriving *from outside* that
/// claim a source inside `internal` are impossible and dropped.
pub fn isav_deny(border_port: u32, internal: Ipv4Cidr) -> FlowMod {
    FlowMod {
        priority: PRIO_ISAV_DENY,
        cookie: SAV_COOKIE | 0x15a5,
        instructions: vec![],
        ..FlowMod::add(prefix_match(border_port, internal))
    }
}

/// DHCP client permit + snoop: `udp 68→67` is punted to the controller,
/// which snoops it and forwards it (hop-by-hop flooding). Punt-only — a
/// `goto` here would let the forwarding table's broadcast punt generate a
/// second copy per switch and duplicate the flood exponentially.
pub fn dhcp_client_permit() -> FlowMod {
    FlowMod {
        priority: PRIO_DHCP_CLIENT,
        cookie: SAV_COOKIE | 0xdc,
        instructions: vec![Instruction::ApplyActions(vec![Action::output(
            ofport::CONTROLLER,
        )])],
        ..FlowMod::add(
            OxmMatch::new()
                .with(OxmField::EthType(0x0800))
                .with(OxmField::IpProto(17))
                .with(OxmField::UdpSrc(DHCP_CLIENT_PORT))
                .with(OxmField::UdpDst(DHCP_SERVER_PORT)),
        )
    }
}

/// Trusted-server snoop: `udp 67→68` arriving on the *configured server
/// port* is copied to the controller (lease learning) and allowed. Server
/// messages from any other port get no such rule — they fall through to
/// source validation and die, which is the rogue-DHCP defence. Punt-only:
/// the controller unicasts the reply toward the client.
pub fn dhcp_server_trust(server_port: u32) -> FlowMod {
    FlowMod {
        priority: PRIO_DHCP_TRUST,
        cookie: SAV_COOKIE | 0xd5,
        instructions: vec![Instruction::ApplyActions(vec![Action::output(
            ofport::CONTROLLER,
        )])],
        ..FlowMod::add(
            OxmMatch::new()
                .with(OxmField::InPort(server_port))
                .with(OxmField::EthType(0x0800))
                .with(OxmField::IpProto(17))
                .with(OxmField::UdpSrc(DHCP_SERVER_PORT))
                .with(OxmField::UdpDst(DHCP_CLIENT_PORT)),
        )
    }
}

/// IPv6 variant of the binding allow: `(in_port, [eth_src,] ipv6_src)` →
/// forwarding. The binding table and dynamics engine are IPv4-first (as is
/// the paper); these compiler entry points plus the dataplane's full IPv6
/// OXM support make the v6 rule set available to deployments that manage
/// v6 bindings statically (SLAAC/DHCPv6 snooping is future work, noted in
/// DESIGN.md).
pub fn binding_allow_v6(
    port: u32,
    mac: Option<sav_net::addr::MacAddr>,
    ip: std::net::Ipv6Addr,
) -> FlowMod {
    let mut m = OxmMatch::new()
        .with(OxmField::InPort(port))
        .with(OxmField::EthType(0x86dd));
    if let Some(mac) = mac {
        m.push(OxmField::EthSrc(mac, None));
    }
    m.push(OxmField::Ipv6Src(ip, None));
    FlowMod {
        priority: PRIO_ALLOW,
        cookie: SAV_COOKIE | 0x6666,
        flags: flow_mod_flags::SEND_FLOW_REM,
        instructions: vec![Instruction::GotoTable(TABLE_FWD)],
        ..FlowMod::add(m)
    }
}

/// IPv6 edge default deny (outbound SAV for v6 traffic).
pub fn edge_default_deny_v6() -> FlowMod {
    FlowMod {
        priority: PRIO_OSAV_DENY,
        cookie: SAV_COOKIE | 0x6dead,
        instructions: vec![],
        ..FlowMod::add(OxmMatch::new().with(OxmField::EthType(0x86dd)))
    }
}

/// IPv6 inbound-SAV deny at a border port for an internal prefix.
pub fn isav_deny_v6(border_port: u32, internal: sav_net::addr::Ipv6Cidr) -> FlowMod {
    let mask = if internal.prefix_len() == 0 {
        std::net::Ipv6Addr::UNSPECIFIED
    } else {
        std::net::Ipv6Addr::from(u128::MAX << (128 - u32::from(internal.prefix_len())))
    };
    FlowMod {
        priority: PRIO_ISAV_DENY,
        cookie: SAV_COOKIE | 0x615a5,
        instructions: vec![],
        ..FlowMod::add(
            OxmMatch::new()
                .with(OxmField::InPort(border_port))
                .with(OxmField::EthType(0x86dd))
                .with(OxmField::Ipv6Src(internal.network(), Some(mask))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::BindingSource;
    use sav_net::addr::MacAddr;

    fn b() -> Binding {
        Binding {
            ip: "10.0.1.5".parse().unwrap(),
            mac: MacAddr::from_index(5),
            dpid: 3,
            port: 7,
            source: BindingSource::Dhcp,
            expires: None,
        }
    }

    #[test]
    fn allow_rule_shape() {
        let fm = binding_allow(&b(), true, 0, 300);
        assert_eq!(fm.priority, PRIO_ALLOW);
        assert_eq!(fm.table_id, 0);
        assert_eq!(fm.hard_timeout, 300);
        assert_eq!(fm.flags & flow_mod_flags::SEND_FLOW_REM, 1);
        assert!(fm.match_.validate_prerequisites().is_ok());
        assert_eq!(fm.match_.in_port(), Some(7));
        assert_eq!(fm.instructions, vec![Instruction::GotoTable(TABLE_FWD)]);
        assert_eq!(
            fm.match_.fields().len(),
            4,
            "in_port, eth_type, eth_src, ipv4_src"
        );
        // Without MAC matching the eth_src field disappears.
        let fm = binding_allow(&b(), false, 0, 0);
        assert_eq!(fm.match_.fields().len(), 3);
    }

    #[test]
    fn delete_matches_allow_exactly() {
        let add = binding_allow(&b(), true, 0, 0);
        let del = binding_delete(&b(), true);
        assert_eq!(del.command, FlowModCommand::DeleteStrict);
        assert_eq!(del.priority, add.priority);
        assert_eq!(del.match_, add.match_);
    }

    #[test]
    fn cookies_are_tagged_and_attributable() {
        let fm = binding_allow(&b(), true, 0, 0);
        assert_eq!(fm.cookie & 0xffff_0000_0000_0000, SAV_COOKIE);
        assert_eq!(
            (fm.cookie & 0xffff_ffff) as u32,
            u32::from("10.0.1.5".parse::<std::net::Ipv4Addr>().unwrap())
        );
    }

    #[test]
    fn prefix_allow_masks() {
        let fm = cover_allow(4, "10.0.1.0/24".parse().unwrap());
        assert!(fm.match_.validate_prerequisites().is_ok());
        let has_masked = fm.match_.fields().iter().any(|f| {
            matches!(f, OxmField::Ipv4Src(ip, Some(mask))
                if *ip == "10.0.1.0".parse::<std::net::Ipv4Addr>().unwrap()
                && *mask == "255.255.255.0".parse::<std::net::Ipv4Addr>().unwrap())
        });
        assert!(has_masked);
    }

    #[test]
    fn default_deny_drop_vs_punt() {
        let drop = edge_default_deny(false);
        assert!(drop.instructions.is_empty());
        let punt = edge_default_deny(true);
        assert!(matches!(
            &punt.instructions[0],
            Instruction::ApplyActions(a) if a[0] == Action::output(ofport::CONTROLLER)
        ));
        assert_eq!(drop.priority, PRIO_OSAV_DENY);
    }

    #[test]
    fn isav_deny_shape() {
        let fm = isav_deny(2, "10.0.0.0/16".parse().unwrap());
        assert_eq!(fm.priority, PRIO_ISAV_DENY);
        assert!(fm.instructions.is_empty());
        assert_eq!(fm.match_.in_port(), Some(2));
        assert!(fm.match_.validate_prerequisites().is_ok());
    }

    #[test]
    fn dhcp_rules_punt_without_goto() {
        for fm in [dhcp_client_permit(), dhcp_server_trust(9)] {
            assert!(fm.match_.validate_prerequisites().is_ok());
            assert_eq!(fm.instructions.len(), 1, "punt-only, no goto");
            assert!(matches!(
                &fm.instructions[0],
                Instruction::ApplyActions(a) if a[0] == Action::output(ofport::CONTROLLER)
            ));
        }
        assert_eq!(dhcp_server_trust(9).match_.in_port(), Some(9));
        assert_eq!(dhcp_client_permit().match_.in_port(), None);
    }

    #[test]
    fn v6_rules_shape() {
        let fm = binding_allow_v6(
            3,
            Some(MacAddr::from_index(1)),
            "2001:db8::5".parse().unwrap(),
        );
        assert!(fm.match_.validate_prerequisites().is_ok());
        assert_eq!(fm.priority, PRIO_ALLOW);
        assert_eq!(fm.match_.fields().len(), 4);
        let fm = binding_allow_v6(3, None, "2001:db8::5".parse().unwrap());
        assert_eq!(fm.match_.fields().len(), 3);
        let deny = edge_default_deny_v6();
        assert!(deny.instructions.is_empty());
        let isav = isav_deny_v6(2, "2001:db8::/32".parse().unwrap());
        assert!(isav.match_.validate_prerequisites().is_ok());
        assert_eq!(isav.match_.in_port(), Some(2));
    }

    #[test]
    fn trunk_allow_is_port_only() {
        let fm = trunk_allow(1);
        assert_eq!(fm.match_.fields().len(), 1);
        assert_eq!(fm.priority, PRIO_TRUNK);
    }
}
