//! [`Testbed`] — a deterministic full-network simulation.
//!
//! Wires together everything below it: `sav-dataplane` switches and hosts
//! built from a `sav-topo` [`Topology`], a [`Controller`] with its app
//! chain, control channels and data links with configurable latencies, and
//! an event queue from `sav-sim`. Every control interaction crosses the
//! real OpenFlow codec as bytes; every data-plane interaction is a real
//! Ethernet frame.
//!
//! Workloads drive the testbed through [`TestbedCmd`]s scheduled at virtual
//! times; measurements come out as [`DeliveryRecord`]s (what reached which
//! host, when) plus the controller/switch counters.

use crate::controller::{Controller, ControllerOutput, ControllerStats};
use sav_dataplane::host::{Delivery, Host, HostConfig, SpoofMode};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig, SwitchOutput};
use sav_net::addr::MacAddr;
use sav_openflow::ports::PortDesc;
use sav_sim::{EventQueue, SimDuration, SimTime};
use sav_topo::routes::Routes;
use sav_topo::{HostNode, SwitchId, Topology};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Unconnected spare ports per switch, available for host migration.
pub const SPARE_PORTS: u32 = 8;

/// Latency model and switch sizing.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Host ↔ edge-switch link latency.
    pub host_link_latency: SimDuration,
    /// Switch ↔ switch link latency.
    pub switch_link_latency: SimDuration,
    /// Switch ↔ controller channel latency (one way).
    pub control_latency: SimDuration,
    /// Per-table flow capacity of every switch.
    pub table_capacity: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            host_link_latency: SimDuration::from_micros(10),
            switch_link_latency: SimDuration::from_micros(50),
            control_latency: SimDuration::from_micros(200),
            table_capacity: 8192,
        }
    }
}

/// A workload action applied to the running network.
#[derive(Debug, Clone)]
pub enum TestbedCmd {
    /// Host sends a UDP datagram (optionally spoofed).
    SendUdp {
        /// Sending host index.
        host: usize,
        /// Destination IP.
        dst_ip: Ipv4Addr,
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Payload bytes (workloads embed their tags here).
        payload: Vec<u8>,
        /// Source falsification, if any.
        spoof: SpoofMode,
    },
    /// Host starts a DHCP exchange.
    DhcpDiscover {
        /// Host index.
        host: usize,
    },
    /// Host releases its DHCP address.
    DhcpRelease {
        /// Host index.
        host: usize,
    },
    /// Physically move a host to a spare port of another switch. The old
    /// port goes link-down; the host announces itself with a gratuitous ARP
    /// from the new port.
    MoveHost {
        /// Host index.
        host: usize,
        /// Target switch index.
        to_switch: usize,
    },
    /// Flip a port's link state.
    SetPortUp {
        /// Switch index.
        switch: usize,
        /// Port number.
        port: u32,
        /// Desired state.
        up: bool,
    },
}

/// One datagram delivered to a host application.
#[derive(Debug, Clone)]
pub struct DeliveryRecord {
    /// Virtual arrival time.
    pub time: SimTime,
    /// Receiving host index.
    pub host: usize,
    /// The delivery itself.
    pub delivery: Delivery,
}

/// Summary counters after a run.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// Virtual end time.
    pub end_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// Controller counters.
    pub controller: ControllerStats,
    /// Total flows installed per switch (index-aligned).
    pub flows_per_switch: Vec<usize>,
    /// Deliveries recorded.
    pub deliveries: usize,
}

enum Ev {
    Cmd(TestbedCmd),
    /// Frame arriving at a switch port.
    ToSwitch {
        sw: usize,
        port: u32,
        frame: Vec<u8>,
    },
    /// Frame arriving at a host.
    ToHost {
        host: usize,
        frame: Vec<u8>,
    },
    /// Control bytes arriving at the controller from switch `sw`.
    CtrlRx {
        sw: usize,
        bytes: Vec<u8>,
    },
    /// Control bytes arriving at switch `sw` from the controller.
    SwitchRx {
        sw: usize,
        bytes: Vec<u8>,
    },
    /// Flow-expiry sweep at a switch.
    Sweep {
        sw: usize,
    },
}

/// The assembled simulation.
pub struct Testbed {
    topo: Arc<Topology>,
    #[allow(dead_code)]
    routes: Arc<Routes>,
    config: TestbedConfig,
    switches: Vec<OpenFlowSwitch>,
    hosts: Vec<Host>,
    host_attach: Vec<(usize, u32)>,
    used_ports: Vec<HashSet<u32>>,
    controller: Controller,
    events: EventQueue<Ev>,
    sweep_scheduled: Vec<Option<SimTime>>,
    next_dhcp_xid: u32,
    events_processed: u64,
    /// All datagrams delivered to host applications, in arrival order.
    pub deliveries: Vec<DeliveryRecord>,
    /// Frames injected via SendUdp.
    pub frames_sent: u64,
}

impl Testbed {
    /// Assemble a testbed. `host_init` builds each host's runtime config
    /// from its topology node (choose apps, override the planned IP for
    /// DHCP scenarios, pre-seed ARP in the caller afterwards if desired).
    pub fn new(
        topo: Arc<Topology>,
        routes: Arc<Routes>,
        controller: Controller,
        config: TestbedConfig,
        mut host_init: impl FnMut(&HostNode) -> HostConfig,
    ) -> Testbed {
        let mut switches = Vec::new();
        let mut used_ports = Vec::new();
        for s in topo.switches() {
            let n = topo.port_count(s.id) + SPARE_PORTS;
            let ports: Vec<PortDesc> = (1..=n)
                .map(|p| {
                    PortDesc::new(
                        p,
                        MacAddr::from_index(0xff00_0000 + s.id.dpid() * 256 + u64::from(p)),
                    )
                })
                .collect();
            let mut cfg = SwitchConfig::new(s.id.dpid());
            cfg.max_entries_per_table = config.table_capacity;
            switches.push(OpenFlowSwitch::new(cfg, ports));
            let mut used: HashSet<u32> = topo.trunk_ports(s.id).into_iter().collect();
            used.extend(topo.host_ports(s.id));
            used_ports.push(used);
        }
        let hosts: Vec<Host> = topo
            .hosts()
            .iter()
            .map(|h| Host::new(host_init(h)))
            .collect();
        let host_attach = topo.hosts().iter().map(|h| (h.switch.0, h.port)).collect();
        let n_sw = switches.len();
        Testbed {
            topo,
            routes,
            config,
            switches,
            hosts,
            host_attach,
            used_ports,
            controller,
            events: EventQueue::new(),
            sweep_scheduled: vec![None; n_sw],
            next_dhcp_xid: 1,
            events_processed: 0,
            deliveries: Vec::new(),
            frames_sent: 0,
        }
    }

    /// Connect every switch's control channel at time zero. Call once
    /// before the first `run_until`.
    pub fn connect_control_plane(&mut self) {
        for sw in 0..self.switches.len() {
            let greet = self.controller.on_connect(sw);
            self.events.push(
                SimTime::ZERO + self.config.control_latency,
                Ev::SwitchRx { sw, bytes: greet },
            );
            let hello = self.switches[sw].hello();
            self.events.push(
                SimTime::ZERO + self.config.control_latency,
                Ev::CtrlRx { sw, bytes: hello },
            );
        }
    }

    /// Schedule a workload command.
    pub fn schedule(&mut self, at: SimTime, cmd: TestbedCmd) {
        self.events.push(at, Ev::Cmd(cmd));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Pre-seed every host's ARP cache with the full static plan (skips
    /// resolution traffic in experiments that are not about ARP).
    pub fn seed_all_arp(&mut self) {
        let entries: Vec<(Ipv4Addr, MacAddr)> =
            self.topo.hosts().iter().map(|h| (h.ip, h.mac)).collect();
        for host in &mut self.hosts {
            for (ip, mac) in &entries {
                host.learn_arp(*ip, *mac);
            }
        }
    }

    /// Drive the simulation until `horizon` (inclusive) or quiescence.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.events_processed;
        while let Some(t) = self.events.peek_time() {
            if t > horizon {
                break;
            }
            let (now, ev) = self.events.pop().expect("peeked event");
            self.events_processed += 1;
            self.handle(now, ev);
        }
        self.events_processed - start
    }

    /// Summarize the run so far.
    pub fn report(&self) -> TestbedReport {
        TestbedReport {
            end_time: self.events.now(),
            events: self.events_processed,
            controller: self.controller.stats,
            flows_per_switch: self.switches.iter().map(|s| s.total_flows()).collect(),
            deliveries: self.deliveries.len(),
        }
    }

    /// Borrow a switch (assertions, stats).
    pub fn switch(&self, i: usize) -> &OpenFlowSwitch {
        &self.switches[i]
    }

    /// Borrow a host.
    pub fn host(&self, i: usize) -> &Host {
        &self.hosts[i]
    }

    /// Borrow the controller (e.g. `with_app` for app state).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// The topology this testbed was built from.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Where a host is currently attached: `(switch index, port)`.
    pub fn attachment(&self, host: usize) -> (usize, u32) {
        self.host_attach[host]
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Cmd(cmd) => self.handle_cmd(now, cmd),
            Ev::ToSwitch { sw, port, frame } => {
                let out = self.switches[sw].receive_frame(now, port, frame);
                self.route_switch_output(now, sw, out);
                self.maybe_schedule_sweep(now, sw);
            }
            Ev::ToHost { host, frame } => {
                let out = self.hosts[host].on_frame(&frame);
                for d in out.delivered {
                    self.deliveries.push(DeliveryRecord {
                        time: now,
                        host,
                        delivery: d,
                    });
                }
                for f in out.tx {
                    self.host_tx(now, host, f);
                }
            }
            Ev::CtrlRx { sw, bytes } => match self.controller.on_bytes(now, sw, &bytes) {
                Ok(out) => self.route_controller_output(now, out),
                Err(_) => {
                    let out = self.controller.on_disconnect(now, sw);
                    self.route_controller_output(now, out);
                }
            },
            Ev::SwitchRx { sw, bytes } => {
                match self.switches[sw].handle_controller_bytes(now, &bytes) {
                    Ok(out) => {
                        self.route_switch_output(now, sw, out);
                        self.maybe_schedule_sweep(now, sw);
                    }
                    Err(_) => { /* poisoned control stream: drop silently */ }
                }
            }
            Ev::Sweep { sw } => {
                self.sweep_scheduled[sw] = None;
                let out = self.switches[sw].tick(now);
                self.route_switch_output(now, sw, out);
                self.maybe_schedule_sweep(now, sw);
            }
        }
    }

    fn handle_cmd(&mut self, now: SimTime, cmd: TestbedCmd) {
        match cmd {
            TestbedCmd::SendUdp {
                host,
                dst_ip,
                src_port,
                dst_port,
                payload,
                spoof,
            } => {
                self.frames_sent += 1;
                let out = self.hosts[host].send_udp(dst_ip, src_port, dst_port, &payload, spoof);
                for f in out.tx {
                    self.host_tx(now, host, f);
                }
            }
            TestbedCmd::DhcpDiscover { host } => {
                let xid = self.next_dhcp_xid;
                self.next_dhcp_xid += 1;
                let out = self.hosts[host].dhcp_discover(xid);
                for f in out.tx {
                    self.host_tx(now, host, f);
                }
            }
            TestbedCmd::DhcpRelease { host } => {
                let xid = self.next_dhcp_xid;
                self.next_dhcp_xid += 1;
                let out = self.hosts[host].dhcp_release(xid);
                for f in out.tx {
                    self.host_tx(now, host, f);
                }
            }
            TestbedCmd::MoveHost { host, to_switch } => {
                let (old_sw, old_port) = self.host_attach[host];
                // Old port goes down; PORT_STATUS flows to the controller.
                let out = self.switches[old_sw].set_port_up(now, old_port, false);
                self.route_switch_output(now, old_sw, out);
                self.used_ports[old_sw].remove(&old_port);
                // Claim a spare port on the target switch.
                let new_port = self.switches[to_switch]
                    .port_numbers()
                    .into_iter()
                    .find(|p| !self.used_ports[to_switch].contains(p))
                    .expect("no spare port left for migration");
                self.used_ports[to_switch].insert(new_port);
                // Make sure it is up (it may have been downed by an earlier move).
                let out = self.switches[to_switch].set_port_up(now, new_port, true);
                self.route_switch_output(now, to_switch, out);
                self.host_attach[host] = (to_switch, new_port);
                // Gratuitous ARP from the new location announces the move.
                let h = &self.hosts[host];
                let garp = sav_net::arp::ArpRepr {
                    op: sav_net::arp::ArpOp::Request,
                    sender_mac: h.mac,
                    sender_ip: h.ip,
                    target_mac: MacAddr::ZERO,
                    target_ip: h.ip,
                };
                let frame = sav_net::builder::build_arp(&garp);
                self.host_tx(now, host, frame);
            }
            TestbedCmd::SetPortUp { switch, port, up } => {
                let out = self.switches[switch].set_port_up(now, port, up);
                self.route_switch_output(now, switch, out);
            }
        }
    }

    fn host_tx(&mut self, now: SimTime, host: usize, frame: Vec<u8>) {
        let (sw, port) = self.host_attach[host];
        self.events.push(
            now + self.config.host_link_latency,
            Ev::ToSwitch { sw, port, frame },
        );
    }

    fn route_switch_output(&mut self, now: SimTime, sw: usize, out: SwitchOutput) {
        for bytes in out.to_controller {
            self.events
                .push(now + self.config.control_latency, Ev::CtrlRx { sw, bytes });
        }
        for (port, frame) in out.tx {
            // Inter-switch link?
            if let Some((peer, peer_port)) = self.topo.switch_peer(SwitchId(sw), port) {
                self.events.push(
                    now + self.config.switch_link_latency,
                    Ev::ToSwitch {
                        sw: peer.0,
                        port: peer_port,
                        frame,
                    },
                );
                continue;
            }
            // Host attachment (dynamic — includes migrated hosts). Shared
            // ports behave like a hub: every attached host receives the
            // frame and filters by MAC itself.
            let listeners: Vec<usize> = self
                .host_attach
                .iter()
                .enumerate()
                .filter(|(_, &(s, p))| s == sw && p == port)
                .map(|(i, _)| i)
                .collect();
            for host in listeners {
                self.events.push(
                    now + self.config.host_link_latency,
                    Ev::ToHost {
                        host,
                        frame: frame.clone(),
                    },
                );
            }
            // Unconnected spare port: the frame vanishes.
        }
    }

    fn route_controller_output(&mut self, now: SimTime, out: ControllerOutput) {
        for (conn, bytes) in out.to_switch {
            self.events.push(
                now + self.config.control_latency,
                Ev::SwitchRx { sw: conn, bytes },
            );
        }
    }

    fn maybe_schedule_sweep(&mut self, now: SimTime, sw: usize) {
        let Some(t) = self.switches[sw].next_expiry() else {
            return;
        };
        let t = t.max(now);
        match self.sweep_scheduled[sw] {
            Some(existing) if existing <= t => {}
            _ => {
                self.sweep_scheduled[sw] = Some(t);
                self.events.push(t, Ev::Sweep { sw });
            }
        }
    }

    /// Fire one controller poll tick ([`crate::Controller::poll_tick`]):
    /// every app's `on_poll` runs for every ready switch and the resulting
    /// requests (stats poller multiparts, etc.) are routed to the switches.
    /// Replies come back through the normal event flow — interleave with
    /// `run_until` to model a periodic poll interval.
    pub fn poll_tick(&mut self, now: SimTime) {
        let out = self.controller.poll_tick(now);
        self.route_controller_output(now, out);
    }

    /// Drive workload commands directly through the app-visible controller
    /// send path (used by SAV apps that need to pre-install static config).
    pub fn controller_send(
        &mut self,
        now: SimTime,
        msgs: Vec<(u64, sav_openflow::messages::Message)>,
    ) {
        let mut out = ControllerOutput::default();
        self.controller.send_all(msgs, &mut out);
        self.route_controller_output(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::L2RoutingApp;
    use sav_dataplane::host::HostApp;
    use sav_topo::generators;

    fn mk_testbed(topo: Topology) -> Testbed {
        let topo = Arc::new(topo);
        let routes = Arc::new(Routes::compute(&topo));
        let ctrl = Controller::new(vec![Box::new(L2RoutingApp::new(
            topo.clone(),
            routes.clone(),
        ))]);
        Testbed::new(topo, routes, ctrl, TestbedConfig::default(), |h| {
            HostConfig {
                mac: h.mac,
                ip: h.ip,
                app: HostApp::UdpEcho { port: 7 },
            }
        })
    }

    fn settle(tb: &mut Testbed) {
        tb.connect_control_plane();
        tb.run_until(SimTime::from_millis(100));
    }

    #[test]
    fn control_plane_converges() {
        let mut tb = mk_testbed(generators::linear(3, 2));
        settle(&mut tb);
        assert_eq!(tb.controller_mut().ready_dpids().len(), 3);
        // Every switch got its proactive rules: bridge + hosts + bcast + miss.
        for i in 0..3 {
            assert!(tb.switch(i).total_flows() >= 6 + 3);
        }
    }

    #[test]
    fn end_to_end_udp_echo_same_switch() {
        let mut tb = mk_testbed(generators::linear(1, 2));
        settle(&mut tb);
        let dst = tb.topology().hosts()[1].ip;
        tb.schedule(
            SimTime::from_millis(200),
            TestbedCmd::SendUdp {
                host: 0,
                dst_ip: dst,
                src_port: 5000,
                dst_port: 7,
                payload: b"ping".to_vec(),
                spoof: SpoofMode::None,
            },
        );
        tb.run_until(SimTime::from_secs(1));
        // Request delivered to host 1, echo delivered back to host 0.
        assert_eq!(tb.deliveries.len(), 2, "request + echo");
        assert_eq!(tb.deliveries[0].host, 1);
        assert_eq!(tb.deliveries[0].delivery.payload, b"ping");
        assert_eq!(tb.deliveries[1].host, 0);
        assert_eq!(tb.deliveries[1].delivery.payload, b"ping");
    }

    #[test]
    fn end_to_end_udp_echo_across_switches() {
        let mut tb = mk_testbed(generators::campus(4, 2));
        settle(&mut tb);
        let topo = tb.topology();
        // Pick hosts on different edges.
        let h_src = 0;
        let h_dst = topo.hosts().len() - 1;
        assert_ne!(topo.hosts()[h_src].switch, topo.hosts()[h_dst].switch);
        let dst_ip = topo.hosts()[h_dst].ip;
        tb.schedule(
            SimTime::from_millis(200),
            TestbedCmd::SendUdp {
                host: h_src,
                dst_ip,
                src_port: 1234,
                dst_port: 7,
                payload: b"hello-campus".to_vec(),
                spoof: SpoofMode::None,
            },
        );
        tb.run_until(SimTime::from_secs(1));
        assert_eq!(tb.deliveries.len(), 2);
        assert_eq!(tb.deliveries[0].host, h_dst);
        assert_eq!(tb.deliveries[1].host, h_src);
    }

    #[test]
    fn arp_is_proxied_not_flooded_for_known_hosts() {
        let mut tb = mk_testbed(generators::linear(2, 2));
        settle(&mut tb);
        // No seeded ARP: host 0 must resolve host 2's IP (different switch).
        let dst_ip = tb.topology().hosts()[2].ip;
        tb.schedule(
            SimTime::from_millis(200),
            TestbedCmd::SendUdp {
                host: 0,
                dst_ip,
                src_port: 1,
                dst_port: 7,
                payload: b"x".to_vec(),
                spoof: SpoofMode::None,
            },
        );
        tb.run_until(SimTime::from_secs(1));
        assert_eq!(tb.deliveries.len(), 2, "resolution then delivery + echo");
        let proxied = tb
            .controller_mut()
            .with_app::<L2RoutingApp, _>(|a| a.stats.arps_proxied)
            .unwrap();
        // One resolution by the sender, one by the echo responder.
        assert_eq!(proxied, 2);
    }

    #[test]
    fn dhcp_end_to_end_over_dataplane() {
        // Host 0 is the DHCP server; host 1 boots unaddressed.
        let topo = generators::linear(1, 2);
        let pool: sav_net::addr::Ipv4Cidr = "10.0.0.0/24".parse().unwrap();
        let topo = Arc::new(topo);
        let routes = Arc::new(Routes::compute(&topo));
        let ctrl = Controller::new(vec![Box::new(L2RoutingApp::new(
            topo.clone(),
            routes.clone(),
        ))]);
        let mut tb = Testbed::new(topo.clone(), routes, ctrl, TestbedConfig::default(), |h| {
            if h.id.0 == 0 {
                HostConfig {
                    mac: h.mac,
                    ip: h.ip,
                    app: HostApp::DhcpServer(sav_dataplane::host::DhcpServerState::new(
                        pool, 100, 3600,
                    )),
                }
            } else {
                HostConfig {
                    mac: h.mac,
                    ip: Ipv4Addr::UNSPECIFIED,
                    app: HostApp::Sink,
                }
            }
        });
        tb.connect_control_plane();
        tb.run_until(SimTime::from_millis(100));
        tb.schedule(
            SimTime::from_millis(200),
            TestbedCmd::DhcpDiscover { host: 1 },
        );
        tb.run_until(SimTime::from_secs(2));
        assert_eq!(
            tb.host(1).ip,
            pool.nth(100).unwrap(),
            "client bound via data-plane DORA"
        );
    }

    #[test]
    fn migration_updates_forwarding() {
        let mut tb = mk_testbed(generators::linear(3, 2));
        settle(&mut tb);
        let dst_ip = tb.topology().hosts()[0].ip;
        // Move host 0 from switch 0 to switch 2.
        tb.schedule(
            SimTime::from_millis(200),
            TestbedCmd::MoveHost {
                host: 0,
                to_switch: 2,
            },
        );
        // After the move, host 5 (on switch 2) sends to host 0.
        tb.schedule(
            SimTime::from_millis(400),
            TestbedCmd::SendUdp {
                host: 5,
                dst_ip,
                src_port: 9,
                dst_port: 7,
                payload: b"after-move".to_vec(),
                spoof: SpoofMode::None,
            },
        );
        tb.run_until(SimTime::from_secs(2));
        assert_eq!(tb.attachment(0).0, 2);
        let got: Vec<&DeliveryRecord> = tb
            .deliveries
            .iter()
            .filter(|d| d.host == 0 && d.delivery.payload == b"after-move")
            .collect();
        assert_eq!(got.len(), 1, "traffic reaches the migrated host");
        let migrations = tb
            .controller_mut()
            .with_app::<L2RoutingApp, _>(|a| a.stats.migrations)
            .unwrap();
        assert_eq!(migrations, 1);
    }

    #[test]
    fn determinism_same_seedless_run() {
        let run = || {
            let mut tb = mk_testbed(generators::campus(4, 3));
            settle(&mut tb);
            let dst = tb.topology().hosts()[5].ip;
            for i in 0..5 {
                tb.schedule(
                    SimTime::from_millis(200 + i * 10),
                    TestbedCmd::SendUdp {
                        host: 0,
                        dst_ip: dst,
                        src_port: 40000 + i as u16,
                        dst_port: 7,
                        payload: vec![i as u8],
                        spoof: SpoofMode::None,
                    },
                );
            }
            tb.run_until(SimTime::from_secs(2));
            let r = tb.report();
            (r.events, r.deliveries, r.flows_per_switch.clone())
        };
        assert_eq!(run(), run());
    }
}
