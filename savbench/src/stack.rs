//! The program under test, stood up as an operator would run it: the real
//! `SouthboundServer` (one event-loop thread) around a `Controller` whose
//! only app is `SavApp`, with `Obs::new()` on server, app and store.

use crate::plan::TRUSTED_PORT;
use crate::spec::Workload;
use crate::stats::now_ns;
use sav_channel::{ServerConfig, SouthboundServer};
use sav_controller::{Controller, ControllerStats};
use sav_core::{SavApp, SavConfig, SavStats};
use sav_metrics::Counters;
use sav_obs::Obs;
use sav_store::{BindingStore, StoreConfig};
use sav_topo::{SwitchRole, Topology};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Edge switches only: no links, no static hosts.
pub fn topology(w: &Workload) -> Arc<Topology> {
    let mut t = Topology::new();
    for i in 0..w.switches {
        t.add_switch(&format!("e{i}"), SwitchRole::Edge, 0);
    }
    Arc::new(t)
}

pub fn sav_config(w: &Workload) -> SavConfig {
    SavConfig {
        static_plan: false,
        trusted_dhcp_ports: (1..=w.switches as u64)
            .map(|dpid| (dpid, TRUSTED_PORT))
            .collect(),
        tcam_budget: w.tcam_budget,
        ..SavConfig::default()
    }
}

pub fn store_config(w: &Workload) -> Option<StoreConfig> {
    w.store.map(|fsync| StoreConfig {
        fsync,
        ..StoreConfig::default()
    })
}

/// The SAV app with `obs` attached, over the store at `dir` when the
/// workload has one. Also returns how long `BindingStore::open` took.
pub fn sav_app(
    w: &Workload,
    topo: &Arc<Topology>,
    dir: &Path,
    obs: &Obs,
) -> io::Result<(SavApp, f64)> {
    let (app, open_ms) = match store_config(w) {
        Some(cfg) => {
            let t0 = now_ns();
            let store = BindingStore::open(dir, cfg)?;
            let open_ms = (now_ns() - t0) as f64 / 1e6;
            (
                SavApp::with_store(topo.clone(), sav_config(w), store),
                open_ms,
            )
        }
        None => (SavApp::new(topo.clone(), sav_config(w)), 0.0),
    };
    Ok((app.with_obs(obs.clone()), open_ms))
}

pub struct Stack {
    server: SouthboundServer,
    pub addr: SocketAddr,
    pub obs: Obs,
    /// `SavApp::counters` (reconcile totals), shared with the app.
    pub app_counters: Counters,
    pub store_dir: PathBuf,
    pub store_open_ms: f64,
}

impl Stack {
    /// Bind on `addr` (`None`: an ephemeral loopback port; `Some`: the
    /// address a dead predecessor held) and start serving.
    pub fn stand_up(
        w: &Workload,
        topo: &Arc<Topology>,
        store_dir: &Path,
        addr: Option<SocketAddr>,
    ) -> io::Result<Stack> {
        let obs = Obs::new();
        let config = ServerConfig {
            echo_interval: Duration::from_secs(1),
            liveness_timeout: Duration::from_secs(30),
            obs: Some(obs.clone()),
            ..ServerConfig::default()
        };
        let (app, store_open_ms) = sav_app(w, topo, store_dir, &obs)?;
        let app_counters = app.counters.clone();
        // std sets SO_REUSEADDR, and `kill` joined the predecessor's loop
        // (closing its listener), so its address binds at once.
        let server = SouthboundServer::bind(
            addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            config,
            Controller::new(vec![Box::new(app)]),
        )?;
        Ok(Stack {
            addr: server.local_addr(),
            server,
            obs,
            app_counters,
            store_dir: store_dir.to_path_buf(),
            store_open_ms,
        })
    }

    /// Kill the controller: the loop thread is joined and every socket
    /// closed; the store is dropped without a sync.
    pub fn kill(self) {
        drop(self.server);
    }

    pub fn controller_stats(&self) -> ControllerStats {
        self.server.controller().lock().stats
    }

    pub fn ready_switches(&self) -> usize {
        self.server.controller().lock().ready_dpids().len()
    }

    pub fn with_app<R>(&self, f: impl FnOnce(&mut SavApp) -> R) -> R {
        self.server
            .controller()
            .lock()
            .with_app::<SavApp, R>(f)
            .expect("SavApp is in the chain")
    }

    pub fn sav_stats(&self) -> SavStats {
        self.with_app(|a| a.stats)
    }

    /// Wire bytes in and out and the deepest outbound queue, over the
    /// first `conns` connections the server accepted.
    pub fn wire(&self, conns: usize) -> (u64, u64, usize) {
        let mut total = (0, 0, 0);
        for conn in 0..conns {
            if let Some(m) = self.server.conn_metrics(conn) {
                let s = m.stats();
                total.0 += s.bytes_in;
                total.1 += s.bytes_out;
                total.2 = total.2.max(s.queue_hwm);
            }
        }
        total
    }

    pub fn server(&self) -> &SouthboundServer {
        &self.server
    }
}
