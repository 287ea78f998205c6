//! Switch-side TCP transport: dial the controller, keep dialing.
//!
//! [`spawn`] runs an [`OpenFlowSwitch`] behind a real `TcpStream` on its
//! own thread. The loop replays the handshake through the sans-IO switch
//! core on every (re-)connection — [`OpenFlowSwitch::on_control_reconnect`]
//! resets the stream state, the controller's `on_switch_up` re-installs SAV
//! rules, so recovery needs no manual re-binding. Connection attempts back
//! off exponentially with seeded jitter ([`crate::backoff`]), and every
//! outgoing write passes through the connection's [`FaultPlan`].

use crate::backoff::BackoffPolicy;
use crate::fault::{FaultPlan, WriteDecision};
use crate::metrics::ChannelMetrics;
use sav_dataplane::switch::{OpenFlowSwitch, SwitchOutput};
use sav_openflow::messages::ControllerRole;
use sav_sim::SimTime;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Frames a switch's injector queue holds before it sheds. The loop drains
/// the queue between socket reads, so a serving switch stays far below
/// it; a switch that is dialing (not serving) stops draining, and this is
/// how much ingress traffic it buffers for its reconnect. Past it,
/// [`ClientHandle::inject`] and frames crossing a [`Link`] are dropped and
/// counted in [`crate::ChannelStats::frames_dropped`].
pub const INJECT_QUEUE_DEPTH: usize = 4096;

/// Tuning for one switch's control channel.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Reconnect schedule.
    pub backoff: BackoffPolicy,
    /// Fault injection applied to every outgoing write.
    pub fault: FaultPlan,
    /// Socket read timeout (bounds the event-loop latency).
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            backoff: BackoffPolicy::default(),
            fault: FaultPlan::none(),
            read_timeout: Duration::from_millis(10),
        }
    }
}

/// A point-to-point data-plane wire: frames leaving `local_port` arrive at
/// the peer injector as `(peer_port, frame)`.
pub struct Link {
    /// Egress port on this switch.
    pub local_port: u32,
    /// The peer switch's frame injector.
    pub peer: SyncSender<(u32, Vec<u8>)>,
    /// Ingress port on the peer switch.
    pub peer_port: u32,
}

/// Handle to a running switch-side channel.
pub struct ClientHandle {
    stop: Arc<AtomicBool>,
    drop_now: Arc<AtomicBool>,
    injector: SyncSender<(u32, Vec<u8>)>,
    metrics: ChannelMetrics,
    thread: Option<thread::JoinHandle<()>>,
}

impl ClientHandle {
    /// The frame injector: a frame sent on it arrives on the given port.
    /// A plain `send` blocks while the queue is full.
    pub fn injector(&self) -> SyncSender<(u32, Vec<u8>)> {
        self.injector.clone()
    }

    /// Inject a data-plane frame as if it arrived on `port`, without
    /// blocking: past [`INJECT_QUEUE_DEPTH`] the frame is dropped and
    /// counted. False = dropped.
    pub fn inject(&self, port: u32, frame: Vec<u8>) -> bool {
        shed_send(&self.injector, &self.metrics, (port, frame))
    }

    /// This connection's transport metrics.
    pub fn metrics(&self) -> ChannelMetrics {
        self.metrics.clone()
    }

    /// Abruptly sever the current TCP connection (no goodbye), simulating
    /// a switch crash. The client then reconnects with backoff.
    pub fn drop_connection(&self) {
        self.drop_now.store(true, Ordering::Relaxed);
    }

    /// Stop the loop and join the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClientHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Start a switch dialing `addr`. Frames the pipeline emits on a port in
/// `links` cross to the peer switch; frames on any other port go to
/// `delivered` (host-facing delivery, observable by tests).
pub fn spawn(
    addr: SocketAddr,
    switch: OpenFlowSwitch,
    config: ClientConfig,
    links: Vec<Link>,
    delivered: Sender<(u32, Vec<u8>)>,
) -> ClientHandle {
    spawn_multi(vec![addr], switch, config, links, delivered)
}

/// Start a switch with a controller failover list: `addrs` are tried in
/// rotation. While a connection is serving (a controller asserted Master
/// on it) the switch stays put; any connection that dies without having
/// reached that point — unreachable address, refused dial, or an accepted
/// connection that was role-rejected or hung up mid-handshake — advances
/// the dialer to the next address. A deposed ex-leader whose listener is
/// still bound therefore cannot capture the switch in a redial loop; the
/// real leader is found within one backoff cycle. Panics if `addrs` is
/// empty.
pub fn spawn_multi(
    addrs: Vec<SocketAddr>,
    switch: OpenFlowSwitch,
    config: ClientConfig,
    links: Vec<Link>,
    delivered: Sender<(u32, Vec<u8>)>,
) -> ClientHandle {
    assert!(!addrs.is_empty(), "need at least one controller address");
    let stop = Arc::new(AtomicBool::new(false));
    let drop_now = Arc::new(AtomicBool::new(false));
    let metrics = ChannelMetrics::new();
    let (inject_tx, inject_rx) = sync_channel::<(u32, Vec<u8>)>(INJECT_QUEUE_DEPTH);
    let thread = {
        let stop = stop.clone();
        let drop_now = drop_now.clone();
        let metrics = metrics.clone();
        thread::spawn(move || {
            ClientLoop {
                addrs,
                switch,
                config,
                links,
                delivered,
                inject_rx,
                stop,
                drop_now,
                metrics,
                started: Instant::now(),
            }
            .run()
        })
    };
    ClientHandle {
        stop,
        drop_now,
        injector: inject_tx,
        metrics,
        thread: Some(thread),
    }
}

struct ClientLoop {
    addrs: Vec<SocketAddr>,
    switch: OpenFlowSwitch,
    config: ClientConfig,
    links: Vec<Link>,
    delivered: Sender<(u32, Vec<u8>)>,
    inject_rx: Receiver<(u32, Vec<u8>)>,
    stop: Arc<AtomicBool>,
    drop_now: Arc<AtomicBool>,
    metrics: ChannelMetrics,
    started: Instant,
}

/// Queue `item` without blocking; a full queue drops it and counts the
/// drop. False = dropped (a disconnected peer also counts as not sent,
/// but is not a shed).
fn shed_send<T>(tx: &SyncSender<T>, metrics: &ChannelMetrics, item: T) -> bool {
    match tx.try_send(item) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            metrics.add_frames_dropped(1);
            false
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// Why the per-connection serve loop ended.
enum ConnEnd {
    /// Reconnect (peer closed, poisoned stream, injected reset, crash).
    Retry {
        /// True if this connection reached a serving state (the
        /// controller asserted Master on it). Governs failover rotation:
        /// a connection that never got there counts against its address.
        ready: bool,
    },
    /// The handle asked the whole client to stop.
    Stopped,
}

impl ClientLoop {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    fn run(mut self) {
        let mut backoff = self.config.backoff.start();
        let mut fault = self.config.fault.clone();
        let mut connections = 0u64;
        let mut which = 0usize;
        while !self.stop.load(Ordering::Relaxed) {
            let addr = self.addrs[which % self.addrs.len()];
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    // This controller is unreachable; rotate to the next
                    // one in the failover list after the backoff sleep.
                    which = which.wrapping_add(1);
                    if !self.sleep_interruptibly(backoff.next_delay()) {
                        return;
                    }
                    continue;
                }
            };
            backoff.reset();
            connections += 1;
            if connections > 1 {
                self.metrics.add_reconnect();
            }
            match self.serve(stream, &mut fault) {
                ConnEnd::Stopped => return,
                ConnEnd::Retry { ready } => {
                    if !ready {
                        // Accepted but never served — e.g. a deposed
                        // ex-leader's listener that role-rejects and hangs
                        // up. Try the next controller, don't redial this
                        // one forever.
                        which = which.wrapping_add(1);
                    }
                    if !self.sleep_interruptibly(backoff.next_delay()) {
                        return;
                    }
                }
            }
        }
    }

    /// Sleep in slices so `stop` stays responsive; false = stop requested.
    fn sleep_interruptibly(&self, total: Duration) -> bool {
        let deadline = Instant::now() + total;
        while Instant::now() < deadline {
            if self.stop.load(Ordering::Relaxed) {
                return false;
            }
            thread::sleep(Duration::from_millis(5).min(total));
        }
        true
    }

    fn serve(&mut self, mut stream: TcpStream, fault: &mut FaultPlan) -> ConnEnd {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        // `on_control_reconnect` reset the role to Equal; the connection
        // counts as serving once this controller asserts Master over it.
        let mut ready = false;
        let hello = self.switch.on_control_reconnect();
        if !self.write_faulty(&mut stream, fault, hello) {
            return ConnEnd::Retry { ready };
        }
        let mut buf = [0u8; 8192];
        loop {
            if self.stop.load(Ordering::Relaxed) {
                let _ = stream.shutdown(Shutdown::Both);
                return ConnEnd::Stopped;
            }
            if self.drop_now.swap(false, Ordering::Relaxed) {
                // Simulated crash: cut the socket with no farewell.
                let _ = stream.shutdown(Shutdown::Both);
                return ConnEnd::Retry { ready };
            }
            // Data plane first: frames waiting at ports.
            while let Ok((port, frame)) = self.inject_rx.try_recv() {
                let out = self.switch.receive_frame(self.now(), port, frame);
                if !self.route(&mut stream, fault, out) {
                    return ConnEnd::Retry { ready };
                }
            }
            // Control plane: bytes from the controller.
            match stream.read(&mut buf) {
                Ok(0) => return ConnEnd::Retry { ready },
                Ok(n) => {
                    self.metrics.add_bytes_in(n as u64);
                    match self.switch.handle_controller_bytes(self.now(), &buf[..n]) {
                        Ok(out) => {
                            ready |= self.switch.role() == ControllerRole::Master;
                            if !self.route(&mut stream, fault, out) {
                                return ConnEnd::Retry { ready };
                            }
                        }
                        Err(e) => {
                            if let Some(bye) = self.switch.goodbye(e) {
                                let _ = self.write_faulty(&mut stream, fault, bye);
                            }
                            let _ = stream.shutdown(Shutdown::Both);
                            return ConnEnd::Retry { ready };
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return ConnEnd::Retry { ready },
            }
        }
    }

    /// Send a switch output batch: control bytes up the socket, data frames
    /// across links or to delivery. False = connection must be retried.
    fn route(&mut self, stream: &mut TcpStream, fault: &mut FaultPlan, out: SwitchOutput) -> bool {
        for bytes in out.to_controller {
            if !self.write_faulty(stream, fault, bytes) {
                return false;
            }
        }
        for (port, frame) in out.tx {
            match self.links.iter().find(|l| l.local_port == port) {
                Some(link) => {
                    shed_send(&link.peer, &self.metrics, (link.peer_port, frame));
                }
                None => {
                    let _ = self.delivered.send((port, frame));
                }
            }
        }
        true
    }

    /// Write through the fault plan. False = the connection was reset
    /// (injected or real I/O failure) and must be retried.
    fn write_faulty(&self, stream: &mut TcpStream, fault: &mut FaultPlan, bytes: Vec<u8>) -> bool {
        self.metrics.add_msgs_out(1);
        if let Some(d) = fault.delay() {
            thread::sleep(d);
        }
        match fault.on_write(&bytes) {
            WriteDecision::Reset => {
                let _ = stream.shutdown(Shutdown::Both);
                false
            }
            WriteDecision::Chunks(chunks) => {
                for chunk in chunks {
                    if stream.write_all(&chunk).is_err() {
                        return false;
                    }
                    self.metrics.add_bytes_out(chunk.len() as u64);
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_send_counts_only_full_queue_drops() {
        let metrics = ChannelMetrics::new();
        let (tx, rx) = sync_channel(1);
        assert!(shed_send(&tx, &metrics, 1));
        assert!(!shed_send(&tx, &metrics, 2), "full: shed");
        assert_eq!(metrics.stats().frames_dropped, 1);
        drop(rx);
        assert!(!shed_send(&tx, &metrics, 3), "disconnected: not sent");
        assert_eq!(metrics.stats().frames_dropped, 1, "but not a shed");
    }
}
