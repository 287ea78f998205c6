//! The switch fleet: real `OpenFlowSwitch` cores on one `sav_poll::Poller`,
//! driven by the generator thread over loopback TCP.
//!
//! The fleet decides when an op is *enforced*: after every chunk of
//! controller bytes a switch core has applied, the pending ops of that
//! switch are probed with an honest frame through `receive_frame`.

use crate::plan::{probe_frame, switch_ports, Check, Host, Op, TRUSTED_PORT};
use crate::stats::now_ns;
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::addr::MacAddr;
use sav_openflow::messages::{FlowMod, Message};
use sav_openflow::oxm::OxmMatch;
use sav_openflow::prelude::{Action, Instruction};
use sav_poll::{Events, Interest, Outbox, PollEvent, Poller, Token};
use sav_sim::SimTime;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::Duration;

/// Blocking connects per batch; stays under the default listen backlog,
/// so no SYN is dropped and retransmitted a second later.
const CONNECT_BATCH: usize = 64;
/// Events taken per poller wait. Small, so that a burst of replies on
/// many connections cannot keep an open loop from its next due time for
/// longer than a few hundred microseconds; level triggering re-reports
/// the rest.
const EVENTS_PER_WAIT: usize = 32;
/// Base rules SavApp installs on an edge switch with DHCP snooping on and
/// one trusted port: default deny, client permit, server trust.
pub const BASE_RULES: usize = 3;

/// An op whose every check now holds.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub op: u32,
    /// When the read that carried the deciding bytes returned.
    pub read_ns: u64,
    /// When the switch core had applied them.
    pub applied_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    op: u32,
    host: u32,
    port: u32,
    pass: bool,
}

struct Conn {
    stream: Option<TcpStream>,
    sw: OpenFlowSwitch,
    outbox: Outbox,
    want_write: bool,
    /// The controller's greeting has arrived on the current socket.
    greeted: bool,
    /// Checks caused by ops sent on this connection: the controller
    /// handles those in order, so only the head can be the next to hold.
    fifo: VecDeque<Pending>,
    /// Checks caused by ops sent on another connection (the old place of
    /// a migrate): they may hold at any time.
    loose: Vec<Pending>,
}

pub struct Fleet {
    poller: Poller,
    events: Events,
    fired: Vec<PollEvent>,
    conns: Vec<Conn>,
    buf: Vec<u8>,
    /// Checks still open per op of the current batch.
    left: Vec<u8>,
    /// Per host, the last op of the batch sent for it (id + 1; 0 = none).
    last_op: Vec<u32>,
    /// Ops overtaken by a later op on the same host before they were seen
    /// enforced. The generator keeps ops on one host hundreds of ops
    /// apart, so this only happens behind a long stall, when both reach
    /// the switch in one read: the earlier op's probe can then never hold
    /// (its host has moved on), and it counts as enforced when its turn
    /// comes — late, as it is.
    overtaken: Vec<bool>,
    pub done: Vec<Done>,
    pub outstanding: usize,
    /// Bytes read off every socket since the last [`Fleet::connect`].
    pub bytes_in: u64,
}

fn sim_now() -> SimTime {
    SimTime::from_nanos(now_ns())
}

/// Table 1 forwards whatever table 0 lets through, so a frame that passes
/// SAV is one the switch transmits.
fn passes(sw: &mut OpenFlowSwitch, port: u32, mac: MacAddr, ip: Ipv4Addr) -> bool {
    let out = sw.receive_frame(sim_now(), port, probe_frame(mac, ip));
    !out.tx.is_empty()
}

impl Fleet {
    pub fn new(switches: usize, access_ports: u32) -> io::Result<Fleet> {
        let conns = (1..=switches as u64)
            .map(|dpid| {
                let mut sw =
                    OpenFlowSwitch::new(SwitchConfig::new(dpid), switch_ports(dpid, access_ports));
                // Table 1 stands in for forwarding: whatever table 0 lets
                // through leaves on the uplink, so a probe that passes SAV
                // is told from one that is dropped by its transmission.
                let forward = FlowMod {
                    table_id: 1,
                    priority: 0,
                    instructions: vec![Instruction::ApplyActions(vec![Action::output(
                        TRUSTED_PORT,
                    )])],
                    ..FlowMod::add(OxmMatch::new())
                };
                sw.handle_message(SimTime::ZERO, Message::FlowMod(forward), 0);
                Conn {
                    stream: None,
                    sw,
                    outbox: Outbox::new(),
                    want_write: false,
                    greeted: false,
                    fifo: VecDeque::new(),
                    loose: Vec::new(),
                }
            })
            .collect();
        Ok(Fleet {
            poller: Poller::new(EVENTS_PER_WAIT)?,
            events: Events::with_capacity(EVENTS_PER_WAIT),
            fired: Vec::new(),
            conns,
            buf: vec![0u8; 256 * 1024],
            left: Vec::new(),
            last_op: Vec::new(),
            overtaken: Vec::new(),
            done: Vec::new(),
            outstanding: 0,
            bytes_in: 0,
        })
    }

    /// Dial `addr` from every switch (dropping any old socket) and send
    /// the HELLO; the handshake completes under [`Fleet::service`].
    pub fn connect(&mut self, addr: SocketAddr, hosts: &[Host]) -> io::Result<()> {
        self.bytes_in = 0;
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if let Some(old) = c.stream.take() {
                let _ = self.poller.deregister(&old);
            }
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            self.poller
                .register(&stream, Token(i), Interest::READABLE)?;
            c.stream = Some(stream);
            c.outbox = Outbox::new();
            c.want_write = false;
            c.greeted = false;
            let hello = c.sw.on_control_reconnect();
            c.outbox.push(hello);
            self.drain(i);
            if (i + 1) % CONNECT_BATCH == 0 || i + 1 == self.conns.len() {
                // The greeting shows the server has accepted the socket.
                let t0 = now_ns();
                while self.conns[..=i]
                    .iter()
                    .any(|c| !c.greeted && c.stream.is_some())
                {
                    if now_ns() - t0 > 10_000_000_000 {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "no greeting"));
                    }
                    self.service(hosts, Some(Duration::from_millis(1)))?;
                }
            }
        }
        Ok(())
    }

    /// Drop every socket, as the switches see a dead controller.
    pub fn disconnect(&mut self) {
        for c in &mut self.conns {
            if let Some(s) = c.stream.take() {
                let _ = self.poller.deregister(&s);
            }
        }
    }

    /// Flows in table 0 of every switch (all of them are SAV's).
    pub fn table0_flows(&self) -> usize {
        self.conns.iter().map(|c| c.sw.flow_count(0)).sum()
    }

    pub fn table0_max(&self) -> usize {
        self.conns
            .iter()
            .map(|c| c.sw.flow_count(0))
            .max()
            .unwrap_or(0)
    }

    pub fn have_base_rules(&self) -> bool {
        self.conns.iter().all(|c| c.sw.flow_count(0) >= BASE_RULES)
    }

    /// Start a batch of `n` ops on `hosts` hosts: op ids index it from zero.
    pub fn begin(&mut self, n: usize, hosts: usize) {
        self.left.clear();
        self.left.resize(n, 0);
        self.overtaken.clear();
        self.overtaken.resize(n, false);
        self.last_op.clear();
        self.last_op.resize(hosts, 0);
        self.done.clear();
        self.outstanding = 0;
        for c in &mut self.conns {
            c.fifo.clear();
            c.loose.clear();
        }
    }

    /// Write the op's PACKET_INs and queue its checks. Returns the time
    /// the write returned.
    pub fn send(&mut self, id: u32, op: &mut Op) -> u64 {
        let i = usize::from(op.sw);
        self.conns[i].outbox.push(std::mem::take(&mut op.bytes));
        self.drain(i);
        let sent = now_ns();
        let last = std::mem::replace(&mut self.last_op[op.host as usize], id + 1);
        if last > 0 && self.left[last as usize - 1] > 0 {
            self.overtaken[last as usize - 1] = true;
        }
        for (k, check) in op.checks.iter().flatten().enumerate() {
            let Check { sw, port, pass } = *check;
            let p = Pending {
                op: id,
                host: op.host,
                port,
                pass,
            };
            let c = &mut self.conns[usize::from(sw)];
            if k == 0 {
                c.fifo.push_back(p);
            } else {
                c.loose.push(p);
            }
            self.left[id as usize] += 1;
        }
        self.outstanding += 1;
        sent
    }

    /// Does a frame from `(mac, ip)` entering `port` pass table 0?
    pub fn probe(&mut self, sw: u16, port: u32, mac: MacAddr, ip: Ipv4Addr) -> bool {
        passes(&mut self.conns[usize::from(sw)].sw, port, mac, ip)
    }

    fn drain(&mut self, i: usize) {
        let c = &mut self.conns[i];
        let Some(stream) = c.stream.as_mut() else {
            return;
        };
        match c.outbox.drain(stream) {
            Ok(d) => {
                if d.blocked && !c.want_write {
                    c.want_write = true;
                    let _ = self.poller.modify(&*stream, Token(i), Interest::BOTH);
                } else if !d.blocked && c.want_write {
                    c.want_write = false;
                    let _ = self.poller.modify(&*stream, Token(i), Interest::READABLE);
                }
            }
            Err(_) => self.close(i),
        }
    }

    fn close(&mut self, i: usize) {
        if let Some(s) = self.conns[i].stream.take() {
            let _ = self.poller.deregister(&s);
        }
    }

    /// Record every pending check of switch `i` that holds now.
    fn settle(&mut self, i: usize, hosts: &[Host], read_ns: u64, applied_ns: u64) {
        let c = &mut self.conns[i];
        let mut settled = Vec::new();
        let overtaken = &self.overtaken;
        let holds = |sw: &mut OpenFlowSwitch, p: &Pending| {
            if overtaken[p.op as usize] {
                return true;
            }
            let h = hosts[p.host as usize];
            passes(sw, p.port, h.mac, h.ip) == p.pass
        };
        while let Some(p) = c.fifo.front() {
            if !holds(&mut c.sw, p) {
                break;
            }
            settled.push(p.op);
            c.fifo.pop_front();
        }
        let sw = &mut c.sw;
        c.loose.retain(|p| {
            let ok = holds(sw, p);
            if ok {
                settled.push(p.op);
            }
            !ok
        });
        for op in settled {
            self.left[op as usize] -= 1;
            if self.left[op as usize] == 0 {
                self.outstanding -= 1;
                self.done.push(Done {
                    op,
                    read_ns,
                    applied_ns,
                });
            }
        }
    }

    fn read(&mut self, i: usize, hosts: &[Host]) {
        loop {
            let c = &mut self.conns[i];
            let Some(stream) = c.stream.as_mut() else {
                return;
            };
            match stream.read(&mut self.buf) {
                Ok(0) => return self.close(i),
                Ok(n) => {
                    c.greeted = true;
                    self.bytes_in += n as u64;
                    let read_ns = now_ns();
                    let Ok(out) = c.sw.handle_controller_bytes(sim_now(), &self.buf[..n]) else {
                        return self.close(i);
                    };
                    let applied_ns = now_ns();
                    for frame in out.to_controller {
                        c.outbox.push(frame);
                    }
                    let pending = !c.fifo.is_empty() || !c.loose.is_empty();
                    if !c.outbox.is_empty() {
                        self.drain(i);
                    }
                    if pending {
                        self.settle(i, hosts, read_ns, applied_ns);
                    }
                    if n < self.buf.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close(i),
            }
        }
    }

    /// One poller wait of at most `timeout` and everything it woke.
    pub fn service(&mut self, hosts: &[Host], timeout: Option<Duration>) -> io::Result<()> {
        self.poller.wait(&mut self.events, timeout)?;
        self.fired.clear();
        self.fired.extend(self.events.iter().copied());
        for k in 0..self.fired.len() {
            let ev = self.fired[k];
            let i = ev.token.0;
            if ev.readable || ev.error || ev.hangup {
                self.read(i, hosts);
            }
            if ev.writable {
                self.drain(i);
            }
        }
        Ok(())
    }

    /// One wait that ends by `deadline_ns`. The poller's timeout is whole
    /// milliseconds and an open loop's due times are not, so with less
    /// than a millisecond left the wait returns at once and the caller's
    /// loop spins.
    pub fn service_until(&mut self, hosts: &[Host], deadline_ns: u64) -> io::Result<()> {
        let left = deadline_ns.saturating_sub(now_ns());
        let timeout = Duration::from_millis(left / 1_000_000);
        self.service(hosts, Some(timeout))
    }
}
