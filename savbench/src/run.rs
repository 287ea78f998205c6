//! One workload, one process: stand the stack up, drive the phases,
//! check the oracle after each, and collect what the metrics need.

use crate::fleet::Fleet;
use crate::plan::{Host, Loc, Op, OpKind, Plan};
use crate::spec::{Workload, CLOSED_SHARE, HI_SHARE, LATE_NS, LO_SHARE};
use crate::stack::{store_config, topology, Stack};
use crate::stats::{self, now_ns};
use crate::trace::SpanLog;
use sav_controller::ControllerStats;
use sav_net::addr::MacAddr;
use sav_store::BindingStore;
use sav_topo::Topology;
use std::collections::HashMap;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// How long after the last due time an open loop still waits for ops.
const GRACE_NS: u64 = 2_000_000_000;
/// A closed loop or a wait that makes no progress for this long is dead.
const STALL_NS: u64 = 10_000_000_000;
/// Ops an open loop's window holds on average, and how many stretches a
/// closed loop's completions are cut into. A window this short (a tenth
/// to half a second) often passes without a stall of the machine, and
/// still has thirty ops beyond its p95.
pub const WINDOW_OPS: f64 = 640.0;
pub const CLOSED_WINDOWS: usize = 16;
/// Where across a phase's windows a latency is read: an eighth of the
/// windows are better. Over ten seeds this repeated best of the median,
/// the quartile, the eighth and the minimum.
const QUIET: f64 = 0.125;
/// Ops in flight while preloading.
const PRELOAD_WINDOW: usize = 64;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

/// A live stack with its fleet and the generator state that matches it.
pub struct Live {
    pub stack: Stack,
    pub fleet: Fleet,
    pub plan: Plan,
    /// Bindings the controller should hold: all bound hosts with a store,
    /// only those joined in this life without one.
    pub known: usize,
}

/// Counters read on both sides of a driven stretch.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    at_ns: u64,
    ctrl: ControllerStats,
    wakeups: u64,
    ctrl_cpu_s: f64,
    fleet_cpu_s: f64,
    wire_bytes: u64,
}

/// What the program and the generator used while a phase was driven: the
/// differences of two [`Snapshot`]s, summed over the phase's rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub wall_s: f64,
    /// CPU seconds of the `sav-southbound` loop thread.
    pub ctrl_cpu_s: f64,
    /// CPU seconds of the generator (main) thread.
    pub fleet_cpu_s: f64,
    pub wakeups: u64,
    pub rx_msgs: u64,
    pub tx_msgs: u64,
    pub flow_mods: u64,
    pub wire_bytes: u64,
    /// Most threads alive at the end of a round.
    pub threads: usize,
}

impl Usage {
    fn between(a: &Snapshot, b: &Snapshot) -> Usage {
        Usage {
            wall_s: (b.at_ns - a.at_ns) as f64 / 1e9,
            ctrl_cpu_s: b.ctrl_cpu_s - a.ctrl_cpu_s,
            fleet_cpu_s: b.fleet_cpu_s - a.fleet_cpu_s,
            wakeups: b.wakeups - a.wakeups,
            rx_msgs: b.ctrl.rx_messages - a.ctrl.rx_messages,
            tx_msgs: b.ctrl.tx_messages - a.ctrl.tx_messages,
            flow_mods: b.ctrl.flow_mods - a.ctrl.flow_mods,
            wire_bytes: b.wire_bytes - a.wire_bytes,
            threads: stats::thread_count(),
        }
    }

    fn add(&mut self, o: &Usage) {
        self.wall_s += o.wall_s;
        self.ctrl_cpu_s += o.ctrl_cpu_s;
        self.fleet_cpu_s += o.fleet_cpu_s;
        self.wakeups += o.wakeups;
        self.rx_msgs += o.rx_msgs;
        self.tx_msgs += o.tx_msgs;
        self.flow_mods += o.flow_mods;
        self.wire_bytes += o.wire_bytes;
        self.threads = self.threads.max(o.threads);
    }
}

/// Ops of one stretch of a phase: an open loop's window of due times, or
/// a closed loop's run of consecutive completions.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Due → enforced, sorted, microseconds; an op never enforced counts
    /// with the whole grace period.
    pub tte_us: Vec<f64>,
    pub late: usize,
    /// Ops enforced per second over the stretch (closed loop only).
    pub per_s: f64,
}

/// The outcome of one driven phase.
///
/// The metrics of a phase are taken over its windows, not over the whole
/// sample: on a shared two-core machine a run meets stalls of tens of
/// milliseconds and slow spells of seconds that are not the program's
/// (the generator or the loop thread loses its core, the disk is busy for
/// another tenant), and one such stall moves a tail percentile taken over
/// the whole phase by an order of magnitude. The disturbance is one-sided
/// — it only ever makes an op later — so a latency metric is read off the
/// *quiet* windows, at [`QUIET`]. What the program does to every op moves
/// every window and shows; what the machine does to some windows does not.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: usize,
    pub enforced: usize,
    /// Enforced later than [`LATE_NS`] after the due time, or never.
    pub late: usize,
    /// Due → enforced over the whole phase, sorted, microseconds
    /// (enforced ops only): what the printed summary line shows.
    pub tte_us: Vec<f64>,
    /// Due → write returned, sorted, microseconds.
    pub lag_us: Vec<f64>,
    pub windows: Vec<Window>,
    pub usage: Usage,
    pub backlog_max: f64,
}

impl Phase {
    /// Append another round of the same phase.
    pub fn absorb(&mut self, round: Phase) {
        self.attempted += round.attempted;
        self.enforced += round.enforced;
        self.late += round.late;
        self.tte_us.extend(round.tte_us);
        self.tte_us.sort_by(f64::total_cmp);
        self.lag_us.extend(round.lag_us);
        self.lag_us.sort_by(f64::total_cmp);
        self.windows.extend(round.windows);
        self.usage.add(&round.usage);
        self.backlog_max = self.backlog_max.max(round.backlog_max);
    }

    fn over_windows(&self, q: f64, f: impl Fn(&Window) -> f64) -> f64 {
        let mut v: Vec<f64> = self.windows.iter().map(f).collect();
        stats::quantile_of(&mut v, q)
    }

    /// The `q`-quantile of tte in the quiet windows: the value an eighth
    /// of the windows are better than (nearest rank).
    pub fn tte_us(&self, q: f64) -> f64 {
        self.over_windows(QUIET, |w| stats::quantile(&w.tte_us, q))
    }

    /// Median over the stretches of the enforcement rate (closed loop).
    /// Not the quiet eighth: where a stretch ends is up to the last of
    /// many ops in flight, which can make a stretch look faster than the
    /// program is; nothing can make an op look faster.
    pub fn per_s(&self) -> f64 {
        self.over_windows(0.5, |w| w.per_s)
    }
}

/// Median over `windows` of each window's share of on-time ops.
pub fn on_time_share<'a>(windows: impl Iterator<Item = &'a Window>) -> f64 {
    let mut v: Vec<f64> = windows
        .map(|w| 1.0 - w.late as f64 / w.tte_us.len().max(1) as f64)
        .collect();
    stats::median(&mut v)
}

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Send each op at its due time, whatever is still in flight; cut the
    /// result into windows of this many nanoseconds of due time.
    Open(u64),
    /// Keep `.0` ops in flight, in stream order; cut the result into `.1`
    /// stretches of consecutive completions.
    Closed(usize, usize),
}

pub struct Runner {
    pub w: Workload,
    pub args: Args,
    pub topo: Arc<Topology>,
    data: PathBuf,
    pub setup_s: Vec<f64>,
    pub prep_s: f64,
    pub punt_ns: u64,
    pub punt_frames: u64,
    /// Read off every stack as it is retired: the worst seen.
    pub echo_p99_us: f64,
    pub handshake_ms_p99: f64,
    pub queue_hwm: usize,
    pub table_len_max: usize,
    /// Compiled allow rules per binding, on the last stack that had any.
    pub rules_per_binding: f64,
    pub problems: Vec<String>,
}

/// `<dir of the executable>/savbench-data`: inside the build directory,
/// so on the checkout's file system and never in a tmpfs.
pub fn data_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("savbench-data")
}

impl Drop for Runner {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data);
    }
}

impl Runner {
    pub fn new(w: &Workload, args: Args) -> Runner {
        let mut w = *w;
        if args.smoke {
            // Same code paths, a fraction of the state.
            w.switches = w.switches.min(8);
            w.preload_per_port = w.preload_per_port.min(80);
            w.spare_per_port = w.spare_per_port.min(16);
            w.recover_cycles = 2;
            w.between_cycles = w.between_cycles.min(32);
        }
        let data = data_root().join(format!("{}-{}-{}", w.name, std::process::id(), args.seed));
        let _ = std::fs::remove_dir_all(&data);
        Runner {
            topo: topology(&w),
            w,
            args,
            data,
            setup_s: Vec::new(),
            prep_s: 0.0,
            punt_ns: 0,
            punt_frames: 0,
            echo_p99_us: 0.0,
            handshake_ms_p99: 0.0,
            queue_hwm: 0,
            table_len_max: 0,
            rules_per_binding: 0.0,
            problems: Vec::new(),
        }
    }

    /// Read the transport's own measurements off a stack, then kill it
    /// and delete its store.
    pub fn retire(&mut self, live: Live) {
        let m = live.stack.server().server_metrics();
        self.echo_p99_us = self.echo_p99_us.max(m.echo_rtt().quantile(0.99) * 1e6);
        self.handshake_ms_p99 = self
            .handshake_ms_p99
            .max(m.handshake_latency().quantile(0.99) * 1e3);
        self.queue_hwm = self.queue_hwm.max(live.stack.wire(self.w.switches).2);
        self.table_len_max = self.table_len_max.max(live.fleet.table0_max());
        self.punt_ns += live.plan.punt_ns;
        self.punt_frames += live.plan.punt_frames;
        let (rules, bindings) = live
            .stack
            .with_app(|a| (a.compiled_rule_count(), a.bindings().len()));
        if bindings > 0 {
            self.rules_per_binding = rules as f64 / bindings as f64;
        }
        let dir = live.stack.store_dir.clone();
        live.stack.kill();
        let _ = std::fs::remove_dir_all(dir);
    }

    pub fn data_dir(&self) -> &Path {
        &self.data
    }

    pub fn lo_secs(&self) -> f64 {
        self.args.seconds * LO_SHARE
    }

    pub fn hi_secs(&self) -> f64 {
        self.args.seconds * HI_SHARE
    }

    pub fn closed_ops(&self) -> usize {
        (self.w.closed_rate * self.args.seconds * CLOSED_SHARE) as usize
    }

    pub fn recover_ops(&self) -> usize {
        self.w.recover_cycles * (self.w.between_cycles + self.w.switches)
    }

    /// Ops to generate for an open loop of `rate` over `secs`, with room
    /// for the Poisson count to run over its mean.
    pub fn open_ops(rate: f64, secs: f64) -> usize {
        let mean = rate * secs;
        (mean + 6.0 * mean.sqrt()) as usize + 16
    }

    /// Addresses an access port needs for a stretch of `ops` ops: the
    /// preload, the holes, and room for every join of a workload that
    /// never releases.
    pub fn hosts_per_port(&self, ops: usize) -> usize {
        let w = &self.w;
        let ports = w.switches * w.access_ports as usize;
        let joins = if w.mix.release == 0 { ops } else { 0 };
        w.preload_per_port + w.spare_per_port + joins.div_ceil(ports) + 1
    }

    /// Stand a fresh stack up for a phase that will issue `ops` ops:
    /// server, fleet, handshakes, base rules, and the workload's preload.
    /// The time it takes (less the generator's own preparation) is one
    /// `setup_s` sample.
    pub fn stand_up(&mut self, label: &str, ops: usize) -> io::Result<Live> {
        let t0 = now_ns();
        let w = self.w;
        let p0 = now_ns();
        let plan = Plan::new(&w, self.args.seed, label, self.hosts_per_port(ops));
        let mut prep = now_ns() - p0;
        let stack = Stack::stand_up(&w, &self.topo, &self.data.join(label), None)?;
        let mut fleet = Fleet::new(w.switches, w.access_ports)?;
        fleet.connect(stack.addr, &plan.hosts)?;
        let mut live = Live {
            stack,
            fleet,
            plan,
            known: 0,
        };
        self.wait("handshakes and base rules", &mut live, |l| {
            l.fleet.have_base_rules() && l.stack.ready_switches() == w.switches
        })?;
        if w.preload_per_port > 0 {
            let p0 = now_ns();
            let mut ops = live.plan.preload(w.preload_per_port);
            prep += now_ns() - p0;
            let pre = self.drive(&mut live, &mut ops, Mode::Closed(PRELOAD_WINDOW, 1), None)?;
            if pre.enforced != pre.attempted {
                self.problems.push(format!(
                    "{label}: preload enforced {} of {}",
                    pre.enforced, pre.attempted
                ));
            }
        }
        self.prep_s += prep as f64 / 1e9;
        self.setup_s.push((now_ns() - t0 - prep) as f64 / 1e9);
        Ok(live)
    }

    /// Service the fleet until `cond` holds.
    fn wait(
        &mut self,
        what: &str,
        live: &mut Live,
        mut cond: impl FnMut(&mut Live) -> bool,
    ) -> io::Result<()> {
        let t0 = now_ns();
        while !cond(live) {
            if now_ns() - t0 > STALL_NS {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{}: timed out waiting for {what}", self.w.name),
                ));
            }
            live.fleet
                .service(&live.plan.hosts, Some(Duration::from_millis(1)))?;
        }
        Ok(())
    }

    fn snapshot(&self, live: &Live) -> Snapshot {
        let (bytes_in, bytes_out, _) = live.stack.wire(self.w.switches);
        Snapshot {
            at_ns: now_ns(),
            ctrl: live.stack.controller_stats(),
            wakeups: live.stack.obs.counters.get("sav_poll_wakeups_total"),
            ctrl_cpu_s: stats::thread_cpu_s("sav-southbound").unwrap_or(0.0),
            fleet_cpu_s: stats::thread_cpu_s("savbench").unwrap_or(0.0),
            wire_bytes: bytes_in + bytes_out,
        }
    }

    /// Send `ops` through the live stack and wait for their enforcement.
    /// With `spans`, every op also leaves its fleet-side span tree.
    pub fn drive(
        &mut self,
        live: &mut Live,
        ops: &mut [Op],
        mode: Mode,
        mut spans: Option<&mut SpanLog>,
    ) -> io::Result<Phase> {
        let n = ops.len();
        let before = self.snapshot(live);
        let mut phase = Phase {
            attempted: n,
            ..Phase::default()
        };
        live.fleet.begin(n, live.plan.hosts.len());
        let mut due = vec![0u64; n];
        let mut sent = vec![0u64; n];
        // Per op: when it was enforced (0 = not yet); and the order.
        let mut applied = vec![0u64; n];
        let mut order = Vec::with_capacity(n);
        let mut next = 0;
        let mut last_progress = now_ns();
        let mut polls = 0u32;
        // Leave the first due time a moment ahead, so the first op is not
        // late by the time this function took to start.
        let start = now_ns() + 200_000;
        let end = match mode {
            Mode::Open(_) => start + ops.last().map_or(0, |o| o.due_ns) + GRACE_NS,
            Mode::Closed(..) => u64::MAX,
        };
        loop {
            let now = now_ns();
            loop {
                let ready = next < n
                    && match mode {
                        Mode::Open(_) => start + ops[next].due_ns <= now_ns(),
                        Mode::Closed(in_flight, _) => live.fleet.outstanding < in_flight,
                    };
                if !ready {
                    break;
                }
                due[next] = match mode {
                    Mode::Open(_) => start + ops[next].due_ns,
                    Mode::Closed(..) => now_ns(),
                };
                sent[next] = live.fleet.send(next as u32, &mut ops[next]);
                next += 1;
            }
            for d in live.fleet.done.drain(..) {
                let i = d.op as usize;
                last_progress = d.applied_ns;
                applied[i] = d.applied_ns;
                order.push(d.op);
                phase.enforced += 1;
                phase.lag_us.push((sent[i] - due[i]) as f64 / 1e3);
                let tte = d.applied_ns.saturating_sub(due[i]);
                phase.tte_us.push(tte as f64 / 1e3);
                if let Some(log) = spans.as_deref_mut() {
                    log.op_tree(d.op, due[i], sent[i], d.read_ns, d.applied_ns);
                }
            }
            if (next == n && live.fleet.outstanding == 0) || now > end {
                break;
            }
            if matches!(mode, Mode::Closed(..))
                && now.saturating_sub(last_progress.max(start)) > STALL_NS
            {
                break;
            }
            polls += 1;
            if self.args.trace && polls.is_multiple_of(256) {
                let g = live.stack.obs.gauges.get("sav_southbound_backlog_bytes");
                phase.backlog_max = phase.backlog_max.max(g.unwrap_or(0.0));
            }
            let wake = match mode {
                Mode::Open(_) if next < n => start + ops[next].due_ns,
                _ => now + 50_000_000,
            };
            live.fleet.service_until(&live.plan.hosts, wake.min(end))?;
        }
        phase.windows = match mode {
            Mode::Open(window_ns) => {
                let count = ops.last().map_or(0, |o| o.due_ns / window_ns) as usize + 1;
                let mut windows = vec![Window::default(); count];
                for i in 0..n {
                    let w = &mut windows[((due[i] - start) / window_ns) as usize];
                    let tte = match applied[i] {
                        0 => GRACE_NS,
                        at => at.saturating_sub(due[i]),
                    };
                    w.late += usize::from(tte > LATE_NS);
                    w.tte_us.push(tte as f64 / 1e3);
                }
                windows
            }
            Mode::Closed(_, stretches) => {
                let per = order.len().div_ceil(stretches).max(1);
                let mut from = start;
                order
                    .chunks(per)
                    .map(|chunk| {
                        let to = chunk
                            .iter()
                            .map(|&i| applied[i as usize])
                            .max()
                            .unwrap_or(from);
                        let per_s = chunk.len() as f64 * 1e9 / (to - from).max(1) as f64;
                        from = to;
                        Window {
                            tte_us: chunk
                                .iter()
                                .map(|&i| (applied[i as usize] - due[i as usize]) as f64 / 1e3)
                                .collect(),
                            late: 0,
                            per_s,
                        }
                    })
                    .collect()
            }
        };
        for w in &mut phase.windows {
            w.tte_us.sort_by(f64::total_cmp);
        }
        // An op never enforced is late by definition. A closed loop queues
        // behind its own ops in flight: there only a lost op is late.
        phase.late = match mode {
            Mode::Open(_) => phase.windows.iter().map(|w| w.late).sum(),
            Mode::Closed(..) => n - phase.enforced,
        };
        phase.tte_us.sort_by(f64::total_cmp);
        phase.lag_us.sort_by(f64::total_cmp);
        phase.usage = Usage::between(&before, &self.snapshot(live));
        let joined = ops.iter().filter(|o| o.kind == OpKind::Join).count();
        let released = ops.iter().filter(|o| o.kind == OpKind::Release).count();
        live.known = (live.known + joined).saturating_sub(released);
        Ok(phase)
    }

    /// The oracle: switch tables, the controller's table and the durable
    /// image must all equal the generator's expected state.
    pub fn check(&mut self, label: &str, live: &mut Live) {
        let mut bad = Vec::new();
        let hosts: &[Host] = &live.plan.hosts;
        let mut spoof_samples = 0;
        for (h, host) in hosts.iter().enumerate() {
            match (live.plan.loc[h], live.plan.last_loc[h]) {
                (Some((sw, port)), _) => {
                    if !live.fleet.probe(sw, port, host.mac, host.ip) {
                        bad.push(format!("bound {} dropped on s{sw} p{port}", host.ip));
                    }
                    // The same source on the neighbouring port is a spoof.
                    if spoof_samples < 256 {
                        spoof_samples += 1;
                        let other = 2 + (port - 1) % self.w.access_ports;
                        if other != port && live.fleet.probe(sw, other, host.mac, host.ip) {
                            bad.push(format!("{} passes on foreign port p{other}", host.ip));
                        }
                    }
                }
                (None, Some((sw, port))) => {
                    if live.fleet.probe(sw, port, host.mac, host.ip) {
                        bad.push(format!("released {} still passes on s{sw}", host.ip));
                    }
                }
                (None, None) => {
                    // Never bound: sample a few on their home port.
                    let (sw, port) = host.home;
                    if h % 64 == 0 && live.fleet.probe(sw, port, host.mac, host.ip) {
                        bad.push(format!("never-bound {} passes on s{sw}", host.ip));
                    }
                }
            }
        }
        let expected: HashMap<Ipv4Addr, (MacAddr, Loc)> = hosts
            .iter()
            .zip(&live.plan.loc)
            .filter_map(|(h, l)| l.map(|l| (h.ip, (h.mac, l))))
            .collect();
        let durable = self.w.store.is_some();
        let (len, wrong) = live.stack.with_app(|app| {
            let wrong = app
                .bindings()
                .iter()
                .filter(|b| {
                    let place = (b.dpid as u16 - 1, b.port);
                    expected.get(&b.ip) != Some(&(b.mac, place))
                })
                .count();
            (app.bindings().len(), wrong)
        });
        if len != live.known || wrong != 0 || (durable && len != expected.len()) {
            bad.push(format!(
                "controller holds {len} bindings ({wrong} wrong), oracle {} ({} known)",
                expected.len(),
                live.known
            ));
        }
        if durable {
            if let Err(e) = self.check_store(&live.stack.store_dir, &expected) {
                bad.push(e);
            }
        }
        if !bad.is_empty() {
            bad.truncate(5);
            self.problems.push(format!("{label}: {}", bad.join("; ")));
        }
    }

    /// Reopen a copy of the store directory: it must recover exactly the
    /// oracle's set.
    fn check_store(
        &self,
        dir: &Path,
        expected: &HashMap<Ipv4Addr, (MacAddr, Loc)>,
    ) -> Result<(), String> {
        let copy = dir.with_extension("copy");
        let res = (|| -> io::Result<Result<(), String>> {
            std::fs::create_dir_all(&copy)?;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
            }
            let cfg = store_config(&self.w).expect("durable workload");
            let store = BindingStore::open(&copy, cfg)?;
            let wrong = store
                .bindings()
                .values()
                .filter(|r| expected.get(&r.ip) != Some(&(r.mac, (r.dpid as u16 - 1, r.port))))
                .count();
            Ok(if wrong != 0 || store.bindings().len() != expected.len() {
                Err(format!(
                    "store recovers {} bindings ({wrong} wrong), oracle {}",
                    store.bindings().len(),
                    expected.len()
                ))
            } else {
                Ok(())
            })
        })();
        let _ = std::fs::remove_dir_all(&copy);
        res.unwrap_or_else(|e| Err(format!("store copy: {e}")))
    }

    /// Crash-and-recover cycles: kill the controller, bring a new one up
    /// on the same address from the store, let every switch reconnect and
    /// be reconciled, then enforce one fresh join on every switch.
    /// Returns the cycle times in milliseconds and the recovery detail.
    pub fn recover(&mut self, mut live: Live) -> io::Result<(Live, Recovery)> {
        let w = self.w;
        let mut rec = Recovery::default();
        for cycle in 0..w.recover_cycles {
            let mut between = live.plan.ops(w.between_cycles, w.mix);
            let mut probes: Vec<Op> = (0..w.switches as u16)
                .map(|sw| live.plan.join_on(sw))
                .collect();
            let gap = self.drive(&mut live, &mut between, Mode::Closed(w.switches, 1), None)?;
            rec.attempted += gap.attempted;
            rec.lost += gap.attempted - gap.enforced;

            // Crash at a quiet moment: an op counts as enforced at its
            // first rule, and the deletes of a re-derived cover may still
            // be in the socket. A crash that loses them is survivable
            // (reconciliation deletes the strays) but not repeatable.
            self.wait("the last flow-mods", &mut live, |l| {
                l.fleet.bytes_in == l.stack.wire(w.switches).1
            })?;
            let entries = live.fleet.table0_flows();
            let Live {
                stack,
                mut fleet,
                plan,
                known,
            } = live;
            let (addr, dir) = (stack.addr, stack.store_dir.clone());
            let t0 = now_ns();
            stack.kill();
            fleet.disconnect();
            let stack = Stack::stand_up(&w, &self.topo, &dir, Some(addr))?;
            rec.store_open_ms.push(stack.store_open_ms);
            fleet.connect(addr, &plan.hosts)?;
            live = Live {
                stack,
                fleet,
                plan,
                // Without a store the new controller knows nothing.
                known: if w.store.is_some() { known } else { 0 },
            };
            let durable = w.store.is_some();
            self.wait("reconnect and reconcile", &mut live, |l| {
                if durable {
                    let c = &l.stack.app_counters;
                    (c.get("reconciled_kept") + c.get("reconciled_deleted")) as usize >= entries
                } else {
                    l.stack.obs.gauges.get("sav_connected_switches") == Some(w.switches as f64)
                }
            })?;
            rec.reconciled_ms.push((now_ns() - t0) as f64 / 1e6);
            let probe = self.drive(&mut live, &mut probes, Mode::Closed(w.switches, 1), None)?;
            rec.cycle_ms.push((now_ns() - t0) as f64 / 1e6);
            rec.attempted += probe.attempted;
            rec.lost += probe.attempted - probe.enforced;

            if durable {
                let c = &live.stack.app_counters;
                let (kept, installed, deleted) = (
                    c.get("reconciled_kept") as usize,
                    c.get("reconciled_installed"),
                    c.get("reconciled_deleted"),
                );
                let acks = live.stack.sav_stats().dhcp_acks as usize;
                if kept != entries || installed != 0 || deleted != 0 || acks != w.switches {
                    self.problems.push(format!(
                        "recover cycle {cycle}: kept {kept} of {entries}, installed {installed}, \
                         deleted {deleted}, {acks} DHCP ACKs for {} probe joins",
                        w.switches
                    ));
                }
            }
            let hs = live.stack.server().server_metrics().handshake_latency();
            self.handshake_ms_p99 = self.handshake_ms_p99.max(hs.quantile(0.99) * 1e3);
            self.check(&format!("recover cycle {cycle}"), &mut live);
        }
        Ok((live, rec))
    }
}

/// What the recover cycles measured.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Kill → one fresh join enforced on every switch, per cycle.
    pub cycle_ms: Vec<f64>,
    /// Kill → every switch reconnected and reconciled, per cycle.
    pub reconciled_ms: Vec<f64>,
    pub store_open_ms: Vec<f64>,
    pub attempted: usize,
    /// Ops of the cycles (between-cycle ops and probe joins) never enforced.
    pub lost: usize,
}
