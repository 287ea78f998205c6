//! The seeded workload generator: hosts, address blocks, the op stream,
//! its Poisson schedule, and the expected state the oracle checks against.
//!
//! Everything here derives from `--seed`; the program under test sees only
//! the PACKET_IN bytes a real switch core punted for the generated frames.

use crate::spec::{Mix, Workload};
use sav_core::rules;
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::prelude::*;
use sav_openflow::messages::Message;
use sav_openflow::ports::PortDesc;
use sav_sim::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

/// The trusted DHCP server port of every switch.
pub const TRUSTED_PORT: u32 = 1;
/// Lease every ACK grants; no phase lasts that long, so nothing expires.
const LEASE_SECS: u32 = 3600;
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 255, 255, 1);
/// Ops between two ops on one host that travel on different connections
/// (a join at home after a release elsewhere, any migrate). The server
/// reads its sockets in no fixed order, so only time keeps such a pair in
/// order: at the highest rate this is a third of a second of backlog.
const CROSS_GAP: u32 = 2048;
/// Random draws before an op kind gives up on finding a settled host.
const DRAWS: usize = 16;

/// Where a host is attached: `(switch index, port)`.
pub type Loc = (u16, u32);

#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
    /// The access port whose address block the host's IP belongs to.
    pub home: Loc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Join,
    Release,
    Migrate,
}

/// What must hold in a switch's table 0 for an op to count as enforced:
/// an honest probe of the op's host on `(sw, port)` passes or is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    pub sw: u16,
    pub port: u32,
    pub pass: bool,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub host: u32,
    /// The switch whose control connection carries the PACKET_INs.
    pub sw: u16,
    /// Scheduled send time from the start of the phase (open loop).
    pub due_ns: u64,
    /// The PACKET_INs, back to back; taken when the op is sent.
    pub bytes: Vec<u8>,
    /// First on `sw` itself; a migrate adds the deny on the old switch.
    pub checks: [Option<Check>; 2],
}

/// Build a UDP frame carrying `msg` as a DHCP payload.
fn dhcp_frame(eth: EthernetRepr, src_ip: Ipv4Addr, msg: &DhcpRepr, from_client: bool) -> Vec<u8> {
    let payload = msg.to_bytes();
    let (src_port, dst_port) = if from_client { (68, 67) } else { (67, 68) };
    let udp = UdpRepr {
        src_port,
        dst_port,
        payload_len: payload.len(),
    };
    let ip = Ipv4Repr::udp(src_ip, Ipv4Addr::BROADCAST, udp.buffer_len());
    build_ipv4_udp(&eth, &ip, &udp, &payload)
}

/// A data frame claiming `(mac, ip)` as its source: the oracle's probe.
pub fn probe_frame(mac: MacAddr, ip: Ipv4Addr) -> Vec<u8> {
    let payload = [0u8; 18];
    let udp = UdpRepr {
        src_port: 40_000,
        dst_port: 9,
        payload_len: payload.len(),
    };
    let ipr = Ipv4Repr::udp(ip, Ipv4Addr::new(10, 255, 255, 254), udp.buffer_len());
    let eth = EthernetRepr {
        src: mac,
        dst: MacAddr::from_index(0xfffe),
        ethertype: EtherType::Ipv4,
    };
    build_ipv4_udp(&eth, &ipr, &udp, &payload)
}

/// Ports of every fleet switch: the trusted port and the access ports.
pub fn switch_ports(dpid: u64, access_ports: u32) -> Vec<PortDesc> {
    (1..=access_ports + 1)
        .map(|p| PortDesc::new(p, MacAddr::from_index((dpid << 16) | u64::from(p))))
        .collect()
}

pub struct Plan {
    pub hosts: Vec<Host>,
    /// Expected attachment of each host after every op generated so far.
    pub loc: Vec<Option<Loc>>,
    /// Where a host was last bound, for the released-host spoof probes.
    pub last_loc: Vec<Option<Loc>>,
    unbound: Vec<u32>,
    bound: Vec<u32>,
    /// Per host: the connection its last op was sent on and the number of
    /// ops generated before it. Ops on one connection reach the
    /// controller in order; an op that follows on another connection
    /// must not overtake, so it waits [`CROSS_GAP`] ops.
    last: Vec<(u16, u32)>,
    made: u32,
    switches: u16,
    access_ports: u32,
    rng: SimRng,
    /// A switch core holding only the base rules; it punts every DHCP
    /// frame the generator feeds it, which gives the PACKET_IN bytes.
    punt: OpenFlowSwitch,
    server_mac: MacAddr,
    dhcp_xid: u32,
    /// Time spent inside the punt switch, and frames punted.
    pub punt_ns: u64,
    pub punt_frames: u64,
}

impl Plan {
    /// `hosts_per_port` addresses per access port, all unbound. Blocks are
    /// aligned to the next power of two so a full block is one CIDR.
    pub fn new(w: &Workload, seed: u64, label: &str, hosts_per_port: usize) -> Plan {
        let mut rng = SimRng::new(seed).fork(w.name).fork(label);
        let stride = hosts_per_port.next_power_of_two().max(4) as u32;
        // The seed moves the whole plan inside 10.0.0.0/8, keeping blocks
        // aligned; 10.255.255.0/24 is left to the server and probes.
        let ports_total = w.switches as u32 * w.access_ports;
        let span = ports_total * stride;
        let slack = ((0x00ff_0000u32).saturating_sub(span)) / stride;
        let base = 0x0a00_0000u32 + rng.below(u64::from(slack.max(1))) as u32 * stride;
        let mut hosts = Vec::with_capacity(ports_total as usize * hosts_per_port);
        for sw in 0..w.switches as u16 {
            for p in 0..w.access_ports {
                let block = base + (u32::from(sw) * w.access_ports + p) * stride;
                for i in 0..hosts_per_port as u32 {
                    // Locally administered unicast; the host index keeps
                    // MACs unique, the random byte makes seeds differ.
                    let n = (hosts.len() as u32).to_be_bytes();
                    hosts.push(Host {
                        mac: MacAddr([0x02, rng.bits32() as u8, n[0], n[1], n[2], n[3]]),
                        ip: Ipv4Addr::from(block + i),
                        home: (sw, p + 2),
                    });
                }
            }
        }
        let mut unbound: Vec<u32> = (0..hosts.len() as u32).collect();
        rng.shuffle(&mut unbound);
        let mut punt = OpenFlowSwitch::new(
            SwitchConfig::new(0xffff),
            switch_ports(0xffff, w.access_ports),
        );
        for fm in [
            rules::edge_default_deny(false),
            rules::dhcp_client_permit(),
            rules::dhcp_server_trust(TRUSTED_PORT),
        ] {
            punt.handle_message(SimTime::ZERO, Message::FlowMod(fm), 0);
        }
        let n = hosts.len();
        Plan {
            hosts,
            loc: vec![None; n],
            last_loc: vec![None; n],
            unbound,
            bound: Vec::new(),
            last: vec![(0, 0); n],
            made: CROSS_GAP,
            switches: w.switches as u16,
            access_ports: w.access_ports,
            rng,
            punt,
            server_mac: MacAddr::from_index(0xd4c9),
            dhcp_xid: 0,
            punt_ns: 0,
            punt_frames: 0,
        }
    }

    #[cfg(test)]
    pub fn bound_count(&self) -> usize {
        self.loc.iter().filter(|l| l.is_some()).count()
    }

    /// The PACKET_IN the punt switch emits for `frame` arriving on `port`.
    fn punted(&mut self, port: u32, frame: Vec<u8>, into: &mut Vec<u8>) {
        let t0 = crate::stats::now_ns();
        let out = self.punt.receive_frame(SimTime::ZERO, port, frame);
        self.punt_ns += crate::stats::now_ns() - t0;
        self.punt_frames += 1;
        assert_eq!(out.to_controller.len(), 1, "a DHCP frame is punted once");
        into.extend_from_slice(&out.to_controller[0]);
    }

    /// REQUEST on the client's port, then the ACK on the trusted port.
    fn request_and_ack(&mut self, host: Host, port: u32) -> Vec<u8> {
        self.dhcp_xid = self.dhcp_xid.wrapping_add(1);
        let mut req = DhcpRepr::client(DhcpMessageType::Request, self.dhcp_xid, host.mac);
        req.requested_ip = Some(host.ip);
        req.server_id = Some(SERVER_IP);
        let client_eth = EthernetRepr {
            src: host.mac,
            dst: MacAddr::BROADCAST,
            ethertype: EtherType::Ipv4,
        };
        let mut ack = DhcpRepr::client(DhcpMessageType::Ack, self.dhcp_xid, host.mac);
        ack.your_ip = host.ip;
        ack.server_id = Some(SERVER_IP);
        ack.lease_secs = Some(LEASE_SECS);
        let server_eth = EthernetRepr {
            src: self.server_mac,
            dst: host.mac,
            ethertype: EtherType::Ipv4,
        };
        let mut bytes = Vec::with_capacity(800);
        let frame = dhcp_frame(client_eth, Ipv4Addr::UNSPECIFIED, &req, true);
        self.punted(port, frame, &mut bytes);
        let frame = dhcp_frame(server_eth, SERVER_IP, &ack, false);
        self.punted(TRUSTED_PORT, frame, &mut bytes);
        bytes
    }

    fn release(&mut self, host: Host, port: u32) -> Vec<u8> {
        self.dhcp_xid = self.dhcp_xid.wrapping_add(1);
        let mut rel = DhcpRepr::client(DhcpMessageType::Release, self.dhcp_xid, host.mac);
        rel.client_ip = host.ip;
        rel.server_id = Some(SERVER_IP);
        let eth = EthernetRepr {
            src: host.mac,
            dst: self.server_mac,
            ethertype: EtherType::Ipv4,
        };
        let mut bytes = Vec::with_capacity(400);
        let frame = dhcp_frame(eth, host.ip, &rel, true);
        self.punted(port, frame, &mut bytes);
        bytes
    }

    /// May an op for host `h` go out on connection `conn` now?
    fn settled(&self, h: u32, conn: u16) -> bool {
        let (last_conn, at) = self.last[h as usize];
        last_conn == conn || self.made - at >= CROSS_GAP
    }

    /// Take a random host out of the bound or the unbound pool for which
    /// `ok` holds; a few draws, then none.
    fn draw(&mut self, bound: bool, ok: impl Fn(&Plan, u32) -> bool) -> Option<u32> {
        for _ in 0..DRAWS {
            let len = if bound {
                self.bound.len()
            } else {
                self.unbound.len()
            };
            if len == 0 {
                return None;
            }
            let i = self.rng.index(len);
            let h = if bound {
                self.bound[i]
            } else {
                self.unbound[i]
            };
            if ok(self, h) {
                let pool = if bound {
                    &mut self.bound
                } else {
                    &mut self.unbound
                };
                return Some(pool.swap_remove(i));
            }
        }
        None
    }

    fn made_op(
        &mut self,
        kind: OpKind,
        h: u32,
        sw: u16,
        bytes: Vec<u8>,
        checks: [Option<Check>; 2],
    ) -> Op {
        self.last[h as usize] = (sw, self.made);
        self.made += 1;
        Op {
            kind,
            host: h,
            sw,
            due_ns: 0,
            bytes,
            checks,
        }
    }

    /// Join host `h` (already out of the unbound pool) at its home port.
    fn join(&mut self, h: u32) -> Op {
        let host = self.hosts[h as usize];
        let (sw, port) = host.home;
        let bytes = self.request_and_ack(host, port);
        self.loc[h as usize] = Some((sw, port));
        self.bound.push(h);
        let pass = Check {
            sw,
            port,
            pass: true,
        };
        self.made_op(OpKind::Join, h, sw, bytes, [Some(pass), None])
    }

    /// Release host `h` (already out of the bound pool). It travels on
    /// the connection that bound the host where it is, so it is always in
    /// order.
    fn release_host(&mut self, h: u32) -> Op {
        let host = self.hosts[h as usize];
        let (sw, port) = self.loc[h as usize].take().expect("bound host has a place");
        let bytes = self.release(host, port);
        self.last_loc[h as usize] = Some((sw, port));
        self.unbound.push(h);
        let deny = Check {
            sw,
            port,
            pass: false,
        };
        self.made_op(OpKind::Release, h, sw, bytes, [Some(deny), None])
    }

    /// Generate the next op of `kind`. A kind with no settled host to act
    /// on becomes a release, and a release with nothing bound a join.
    pub fn op(&mut self, kind: OpKind) -> Op {
        if kind == OpKind::Join {
            if let Some(h) = self.draw(false, |p, h| p.settled(h, p.hosts[h as usize].home.0)) {
                return self.join(h);
            }
        }
        if kind == OpKind::Migrate {
            if let Some(h) = self.draw(true, |p, h| p.made - p.last[h as usize].1 >= CROSS_GAP) {
                let host = self.hosts[h as usize];
                let old = self.loc[h as usize].expect("bound host has a place");
                let new = loop {
                    let sw = self.rng.index(usize::from(self.switches)) as u16;
                    let port = 2 + self.rng.below(u64::from(self.access_ports)) as u32;
                    if (sw, port) != old {
                        break (sw, port);
                    }
                };
                let bytes = self.request_and_ack(host, new.1);
                self.loc[h as usize] = Some(new);
                self.last_loc[h as usize] = Some(old);
                self.bound.push(h);
                let pass = Check {
                    sw: new.0,
                    port: new.1,
                    pass: true,
                };
                let deny = Check {
                    sw: old.0,
                    port: old.1,
                    pass: false,
                };
                return self.made_op(OpKind::Migrate, h, new.0, bytes, [Some(pass), Some(deny)]);
            }
        }
        if let Some(h) = self.draw(true, |_, _| true) {
            return self.release_host(h);
        }
        let h = self
            .draw(false, |p, h| p.settled(h, p.hosts[h as usize].home.0))
            .expect("the host pool is large enough for the op stream");
        self.join(h)
    }

    /// A join of an unbound host whose home is on switch `sw`, for the
    /// probe that follows a restart. Everything sent before it has been
    /// waited for, so any unbound host will do.
    pub fn join_on(&mut self, sw: u16) -> Op {
        let i = self
            .unbound
            .iter()
            .position(|&h| self.hosts[h as usize].home.0 == sw)
            .expect("every switch keeps unbound hosts for the recover probes");
        let h = self.unbound.swap_remove(i);
        self.join(h)
    }

    /// `n` ops drawn from `mix`.
    pub fn ops(&mut self, n: usize, mix: Mix) -> Vec<Op> {
        assert_eq!(mix.join + mix.release + mix.migrate, 100);
        (0..n)
            .map(|_| {
                let r = self.rng.below(100) as u32;
                let kind = if r < mix.join {
                    OpKind::Join
                } else if r < mix.join + mix.release {
                    OpKind::Release
                } else {
                    OpKind::Migrate
                };
                self.op(kind)
            })
            .collect()
    }

    /// Joins of `per_port` random hosts of every access port (the preload).
    pub fn preload(&mut self, per_port: usize) -> Vec<Op> {
        let mut left = vec![per_port; usize::from(self.switches) * self.access_ports as usize];
        let access_ports = self.access_ports as usize;
        let slot = |h: &Host| usize::from(h.home.0) * access_ports + (h.home.1 - 2) as usize;
        // `unbound` is already in seeded random order.
        let (chosen, rest): (Vec<u32>, Vec<u32>) = self.unbound.iter().partition(|&&h| {
            let s = slot(&self.hosts[h as usize]);
            let take = left[s] > 0;
            left[s] -= usize::from(take);
            take
        });
        self.unbound = rest;
        let ops = chosen.into_iter().map(|h| self.join(h)).collect();
        // The preload is waited for before any phase: nothing to overtake.
        self.made += CROSS_GAP;
        ops
    }

    /// Stamp `ops` with a Poisson schedule of `rate` per second and drop
    /// the ones due after `secs`.
    pub fn schedule(&mut self, ops: &mut Vec<Op>, rate: f64, secs: f64) {
        let mean = SimDuration::from_secs_f64(1.0 / rate);
        let end = (secs * 1e9) as u64;
        let mut t = 0u64;
        let mut keep = ops.len();
        for (i, op) in ops.iter_mut().enumerate() {
            t += self.rng.exp_duration(mean).as_nanos();
            if t >= end {
                keep = i;
                break;
            }
            op.due_ns = t;
        }
        // Ops past the end were generated but are never sent: undo them.
        for op in ops.drain(keep..).rev() {
            self.undo(&op);
        }
    }

    /// Roll the expected state back over an op that will not be sent.
    fn undo(&mut self, op: &Op) {
        let h = op.host;
        let moved = |from: &mut Vec<u32>, to: &mut Vec<u32>| {
            let i = from
                .iter()
                .rposition(|&x| x == h)
                .expect("the op put it there");
            to.push(from.swap_remove(i));
        };
        match op.kind {
            OpKind::Join => {
                self.loc[h as usize] = None;
                moved(&mut self.bound, &mut self.unbound);
            }
            OpKind::Release => {
                self.loc[h as usize] = self.last_loc[h as usize];
                moved(&mut self.unbound, &mut self.bound);
            }
            OpKind::Migrate => {
                let deny = op.checks[1].expect("migrate has an old place");
                self.loc[h as usize] = Some((deny.sw, deny.port));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn stream(seed: u64) -> Vec<u8> {
        let w = &WORKLOADS[2]; // churn_dense: all three op kinds
        let mut plan = Plan::new(w, seed, "t", 24);
        let mut ops = plan.preload(8);
        let mut more = plan.ops(400, w.mix);
        plan.schedule(&mut more, 5000.0, 0.05);
        ops.extend(more);
        let mut out = Vec::new();
        for op in &ops {
            out.extend_from_slice(&op.due_ns.to_le_bytes());
            out.extend_from_slice(&op.sw.to_le_bytes());
            out.extend_from_slice(&op.bytes);
        }
        assert!(ops.iter().any(|o| o.kind == OpKind::Migrate));
        assert!(ops.iter().any(|o| o.kind == OpKind::Release));
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn ops_on_one_host_change_connection_only_after_the_gap() {
        let w = &WORKLOADS[2];
        let mut plan = Plan::new(w, 11, "t", 1024 + 128);
        let pre = plan.preload(1024);
        let ops = plan.ops(12_000, w.mix);
        assert!(ops.iter().filter(|o| o.kind == OpKind::Migrate).count() > 1000);
        // Preloaded hosts count as touched before the stream starts.
        let mut last: Vec<Option<(u16, usize)>> = vec![None; plan.hosts.len()];
        for op in &pre {
            last[op.host as usize] = Some((op.sw, 0));
        }
        for (i, op) in ops.iter().enumerate() {
            let at = i + CROSS_GAP as usize;
            if let Some((sw, before)) = last[op.host as usize] {
                assert!(
                    sw == op.sw || at - before >= CROSS_GAP as usize,
                    "op {i} follows op {before} of its host on another connection"
                );
            }
            last[op.host as usize] = Some((op.sw, at));
        }
    }

    #[test]
    fn expected_state_follows_the_ops_that_are_sent() {
        let w = &WORKLOADS[2];
        let mut plan = Plan::new(w, 3, "t", 24);
        let pre = plan.preload(8);
        assert_eq!(pre.len(), 8 * w.switches * w.access_ports as usize);
        assert_eq!(plan.bound_count(), pre.len());
        let mut ops = plan.ops(300, w.mix);
        plan.schedule(&mut ops, 1000.0, 0.1);
        assert!(ops.len() < 300 && !ops.is_empty());
        let mut loc: Vec<Option<Loc>> = vec![None; plan.hosts.len()];
        for op in pre.iter().chain(&ops) {
            let first = op.checks[0].expect("every op has a check");
            loc[op.host as usize] = first.pass.then_some((first.sw, first.port));
        }
        assert_eq!(loc, plan.loc);
        assert!(ops.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
    }
}
