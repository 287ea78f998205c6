//! The live loopback harness: switches dial a real `SouthboundServer` over
//! TCP through `sav-channel`, and the test thread ferries frames between
//! the switches' ports and simulated hosts.
//!
//! The machine running CI may have a single CPU, so every wait is a
//! deadline-polled condition rather than a fixed sleep.

use sav_channel::backoff::BackoffPolicy;
use sav_channel::client::ClientConfig;
use sav_channel::fault::FaultPlan;
use sav_channel::server::ServerConfig;
use sav_dataplane::host::{Delivery, Host};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::prelude::MacAddr;
use sav_openflow::ports::PortDesc;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::{Duration, Instant};

/// A fresh, empty scratch directory unique to this test process and `tag`.
pub fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sav-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A loopback address with a port that was free a moment ago.
pub fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// A switch with ports `1..=nports`, each with a MAC derived from `dpid`.
pub fn mk_switch(dpid: u64, nports: u32) -> OpenFlowSwitch {
    let ports = (1..=nports)
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
}

/// Fast keepalive settings so liveness tests finish quickly.
pub fn fast_server_config() -> ServerConfig {
    ServerConfig {
        echo_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(400),
        outbound_queue: 64,
        write_stall_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

/// A dialer that retries fast (20 ms base, 200 ms cap) and injects no faults.
pub fn fast_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        backoff: BackoffPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_millis(200),
            seed,
        },
        fault: FaultPlan::none(),
        read_timeout: Duration::from_millis(5),
    }
}

/// One switch's edge: its frame injector, its host-side deliveries, and the
/// simulated hosts hanging off its access ports.
pub struct Edge {
    /// Frames pushed in here enter the switch on the given port.
    pub injector: SyncSender<(u32, Vec<u8>)>,
    /// Frames the switch sent out of its ports.
    pub delivered_rx: Receiver<(u32, Vec<u8>)>,
    /// Access port → the host attached to it.
    pub hosts: HashMap<u32, Host>,
    /// Trunk port → `(peer edge index, peer's trunk port)`: frames leaving
    /// on the trunk enter the peer switch there. Empty on a lone switch.
    pub trunks: HashMap<u32, (usize, u32)>,
}

/// Move frames until the data plane goes quiet: host-port deliveries feed
/// the attached host state machines (whose responses are re-injected), and
/// trunk-port frames cross to the peer switch. Returns every
/// application-level delivery observed as `(edge, port, delivery)`.
pub fn pump(edges: &mut [Edge]) -> Vec<(usize, u32, Delivery)> {
    let mut out = Vec::new();
    let mut moved = true;
    while moved {
        moved = false;
        for i in 0..edges.len() {
            while let Ok((port, frame)) = edges[i].delivered_rx.try_recv() {
                moved = true;
                if let Some(&(peer, peer_port)) = edges[i].trunks.get(&port) {
                    edges[peer].injector.send((peer_port, frame)).unwrap();
                    continue;
                }
                if let Some(host) = edges[i].hosts.get_mut(&port) {
                    let ho = host.on_frame(&frame);
                    for tx in ho.tx {
                        edges[i].injector.send((port, tx)).unwrap();
                    }
                    for d in ho.delivered {
                        out.push((i, port, d));
                    }
                }
            }
        }
    }
    out
}

/// Pump the data plane until `cond` holds (checked after each pump round)
/// or `timeout` passes; accumulated deliveries go into `sink`.
pub fn pump_until(
    edges: &mut [Edge],
    sink: &mut Vec<(usize, u32, Delivery)>,
    timeout: Duration,
    mut cond: impl FnMut(&[Edge], &[(usize, u32, Delivery)]) -> bool,
) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        sink.extend(pump(edges));
        if cond(edges, sink) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Keep pumping for `dur` and return every delivery seen meanwhile.
pub fn pump_for(edges: &mut [Edge], dur: Duration) -> Vec<(usize, u32, Delivery)> {
    let mut sink = Vec::new();
    pump_until(edges, &mut sink, dur, |_, _| false);
    sink
}

/// Poll `cond` until it holds or `timeout` passes; false on timeout.
pub fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}
