//! Runs the phases of a workload in order, turns what they measured into
//! the named metrics, and prints them: a `name unit value (n=…)` line each
//! and one JSON object on the last line.

use crate::plan::Plan;
use crate::run::{
    on_time_share, Args, Mode, Phase, Recovery, Runner, Window, CLOSED_WINDOWS, WINDOW_OPS,
};
use crate::spec::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{self, highest_percentile, median, now_ns, quantile};
use crate::trace::{layer_pass, Layers, SpanLog};
use std::collections::BTreeMap;
use std::io;
use std::process::{Command, ExitCode, Stdio};

/// Ops the layer pass replays at most; every one costs the store two
/// appends (one inside the whole controller, one timed on its own).
const LAYER_PASS_OPS: usize = 4000;

/// Name → (value, unit, samples behind it).
type Metrics = BTreeMap<&'static str, (f64, &'static str, usize)>;

/// The four timed parts of a run.
struct Timed {
    lo: Phase,
    hi: Phase,
    closed: Phase,
    recovery: Recovery,
}

/// Whether every window of a phase runs on a stack of its own. A
/// joins-only workload grows its tables as it goes, so the windows of one
/// long run are not alike and no statistic over them is steady; its
/// stand-up is a few milliseconds, so each window gets a fresh stack and
/// all windows see the same growth. A workload with a preload is
/// stationary by its mix and pays its preload once per phase.
fn fresh_per_window(w: &Workload) -> bool {
    w.preload_per_port == 0
}

/// One stretch of a phase on a fresh stack: generate, drive, check,
/// tear down.
fn round(
    r: &mut Runner,
    label: &str,
    n: usize,
    schedule: Option<(f64, f64)>,
    mode: Mode,
    spans: Option<&mut SpanLog>,
) -> io::Result<Phase> {
    let mut live = r.stand_up(label, n)?;
    let t0 = now_ns();
    let mut ops = live.plan.ops(n, r.w.mix);
    if let Some((rate, secs)) = schedule {
        live.plan.schedule(&mut ops, rate, secs);
    }
    r.prep_s += (now_ns() - t0) as f64 / 1e9;
    let phase = r.drive(&mut live, &mut ops, mode, spans)?;
    r.check(label, &mut live);
    r.retire(live);
    Ok(phase)
}

/// Length of a window of an open loop at `rate`, in seconds.
fn window_secs(rate: f64, secs: f64) -> f64 {
    (WINDOW_OPS / rate).min(secs)
}

/// An open-loop phase of `secs` seconds in windows of [`WINDOW_OPS`] ops.
fn open_phase(
    r: &mut Runner,
    label: &str,
    rate: f64,
    secs: f64,
    mut spans: Option<&mut SpanLog>,
) -> io::Result<Phase> {
    let window = window_secs(rate, secs);
    if !fresh_per_window(&r.w) {
        let n = Runner::open_ops(rate, secs);
        let mode = Mode::Open((window * 1e9) as u64);
        return round(r, label, n, Some((rate, secs)), mode, spans);
    }
    let windows = (secs / window).round().max(1.0) as usize;
    let mut phase = Phase::default();
    for i in 0..windows {
        let n = Runner::open_ops(rate, window);
        let mode = Mode::Open(u64::MAX);
        let spans = spans.as_deref_mut();
        phase.absorb(round(
            r,
            &format!("{label}-{i}"),
            n,
            Some((rate, window)),
            mode,
            spans,
        )?);
    }
    Ok(phase)
}

fn timed_phases(r: &mut Runner) -> io::Result<Timed> {
    let w = r.w;
    let lo = open_phase(r, "lo", w.lo_rate, r.lo_secs(), None)?;
    let hi = open_phase(r, "hi", w.hi_rate, r.hi_secs(), None)?;

    let n = r.closed_ops();
    let closed = if fresh_per_window(&w) {
        let mut phase = Phase::default();
        for i in 0..CLOSED_WINDOWS {
            let mode = Mode::Closed(w.switches, 1);
            let label = format!("closed-{i}");
            phase.absorb(round(r, &label, n / CLOSED_WINDOWS, None, mode, None)?);
        }
        phase
    } else {
        let mode = Mode::Closed(w.switches, CLOSED_WINDOWS);
        round(r, "closed", n, None, mode, None)?
    };

    let live = r.stand_up("recover", r.recover_ops())?;
    let (live, recovery) = r.recover(live)?;
    r.retire(live);
    Ok(Timed {
        lo,
        hi,
        closed,
        recovery,
    })
}

fn end_to_end(r: &Runner, t: &Timed) -> Metrics {
    let mut m = Metrics::new();
    let mut setups = r.setup_s.clone();
    m.insert("setup_s", (median(&mut setups), "s", setups.len()));
    for (phase, p50, p95) in [
        (&t.lo, "tte_p50_us_lo", "tte_p95_us_lo"),
        (&t.hi, "tte_p50_us_hi", "tte_p95_us_hi"),
    ] {
        let n = phase.attempted;
        m.insert(p50, (phase.tte_us(0.5), "us", n));
        m.insert(p95, (phase.tte_us(0.95), "us", n));
    }
    m.insert(
        "capacity_per_s",
        (t.closed.per_s(), "1/s", t.closed.enforced),
    );
    let on_time = on_time_share(t.lo.windows.iter().chain(&t.hi.windows));
    let attempted = t.lo.attempted + t.hi.attempted;
    m.insert("on_time_share", (on_time, "ratio", attempted));
    let mut cycles = t.recovery.cycle_ms.clone();
    m.insert("recover_ms_p50", (median(&mut cycles), "ms", cycles.len()));
    m.insert("peak_rss_mb", (stats::peak_rss_mib(), "MiB", 1));
    m
}

/// Per-op rate of a counter over a phase.
fn per_op(phase: &Phase, delta: u64) -> f64 {
    delta as f64 / phase.enforced.max(1) as f64
}

fn per_layer(r: &Runner, t: &Timed, layers: &Layers, traced_lo: &Phase) -> Metrics {
    let c = &t.closed;
    let u = &c.usage;
    let tte_lo = t.lo.tte_us(0.5);
    let tte_traced = traced_lo.tte_us(0.5);
    let mut recover_open = t.recovery.store_open_ms.clone();
    let values: [(&'static str, f64); 47] = [
        (
            "poll.drain_ns_per_frame",
            layers.ns_per_msg_out("poll.drain"),
        ),
        ("poll.wakeups_per_op", per_op(c, u.wakeups)),
        (
            "poll.frames_per_wakeup",
            u.rx_msgs as f64 / u.wakeups.max(1) as f64,
        ),
        (
            "channel.ctrl_cpu_us_per_op",
            u.ctrl_cpu_s * 1e6 / c.enforced.max(1) as f64,
        ),
        (
            "channel.ctrl_busy_share_hi",
            t.hi.usage.ctrl_cpu_s / t.hi.usage.wall_s,
        ),
        ("channel.queue_depth_max", r.queue_hwm as f64),
        (
            "channel.backlog_bytes_max",
            t.lo.backlog_max.max(t.hi.backlog_max).max(c.backlog_max),
        ),
        ("channel.echo_rtt_us_p99", r.echo_p99_us),
        ("channel.handshake_ms_p99", r.handshake_ms_p99),
        ("channel.transport_gap_us", tte_lo - layers.sum_us()),
        (
            "openflow.deframe_ns_per_msg",
            layers.ns_per_msg_in("openflow.deframe"),
        ),
        (
            "openflow.decode_ns_per_msg",
            layers.ns_per_msg_in("openflow.decode"),
        ),
        (
            "openflow.encode_ns_per_msg",
            layers.ns_per_msg_out("openflow.encode"),
        ),
        (
            "openflow.decode_allocs_per_msg",
            layers.decode_allocs_per_msg,
        ),
        (
            "openflow.encode_allocs_per_msg",
            layers.encode_allocs_per_msg,
        ),
        ("openflow.wire_bytes_per_op", per_op(c, u.wire_bytes)),
        ("openflow.multipart_decode_us", layers.multipart_decode_us),
        ("net.parse_ns_per_pkt", layers.ns_per_msg_in("net.parse")),
        ("controller.on_bytes_us_per_op", layers.on_bytes_us_per_op),
        (
            "controller.self_us_per_op",
            layers.us("controller.on_bytes"),
        ),
        ("controller.allocs_per_op", layers.controller_allocs_per_op),
        ("controller.msgs_in_per_op", per_op(c, u.rx_msgs)),
        ("controller.msgs_out_per_op", per_op(c, u.tx_msgs)),
        ("core.upsert_ns_per_op", layers.us("core.upsert") * 1e3),
        ("core.compile_us_per_op", layers.us("core.compile")),
        ("core.mods_per_op", per_op(c, u.flow_mods)),
        ("core.rules_per_binding", r.rules_per_binding),
        ("core.prime_ms", layers.prime_ms),
        ("store.append_us_p50", layers.append_us_p50),
        ("store.append_us_p99", layers.append_us_p99),
        ("store.wal_bytes_per_op", layers.wal_bytes_per_op),
        ("store.compactions", layers.compactions as f64),
        ("store.compact_ms_max", layers.compact_ms_max),
        ("store.recover_ms", median(&mut recover_open)),
        ("obs.incr_ns_per_call", layers.incr_ns),
        ("obs.span_ns_per_call", layers.span_ns),
        (
            "dataplane.apply_us_per_mod",
            layers.us("dataplane.apply") * layers.ops as f64 / layers.msgs_out.max(1) as f64,
        ),
        (
            "dataplane.punt_ns_per_frame",
            r.punt_ns as f64 / r.punt_frames.max(1) as f64,
        ),
        ("dataplane.table_len_max", r.table_len_max as f64),
        ("dataplane.stats_reply_ms", layers.stats_reply_ms),
        ("gen.lag_us_p99", quantile(&t.lo.lag_us, 0.99)),
        ("gen.fleet_busy_share", u.fleet_cpu_s / u.wall_s),
        ("gen.trace_overhead_share", (tte_traced - tte_lo) / tte_lo),
        ("layers.sum_us", layers.sum_us()),
        ("layers.tte_p50_us_lo", tte_lo),
        ("gen.threads", u.threads as f64),
        ("gen.prep_s", r.prep_s),
    ];
    let mut m = Metrics::new();
    for ((name, value), spec) in values.into_iter().zip(PER_LAYER) {
        assert_eq!(name, spec.name, "per-layer tables out of step");
        m.insert(name, (value, spec.unit, layers.ops));
    }
    m
}

/// The layer table of the traced run, with its reconciliation line.
fn print_layer_table(w: &Workload, layers: &Layers, tte_lo: f64) {
    println!(
        "# {} layer pass: {} ops, self time per op",
        w.name, layers.ops
    );
    for (name, us) in &layers.self_us_per_op {
        if *name != "op" {
            println!("#   {name:<24} {us:>10.3} us");
        }
    }
    println!(
        "# reconciliation: layers (controller.on_bytes + poll.drain + dataplane.apply) \
         {:.1} us vs tte_p50_us_lo {:.1} us; gap {:.1} us = channel.transport_gap_us \
         (socket hops and wakeups)",
        layers.sum_us(),
        tte_lo,
        tte_lo - layers.sum_us()
    );
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit, _))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run one workload in this process and print its result. `Ok(false)`
/// means the oracle found a mismatch.
pub fn run_workload(w: &Workload, args: Args) -> io::Result<bool> {
    let mut r = Runner::new(w, args);
    let w = r.w;
    println!("# savbench {}: {}", w.name, w.why);
    println!(
        "# seed {}, {} s, {} switches x {} access ports; traffic crosses the host loopback only; \
         store under {}; {} CPUs",
        r.args.seed,
        r.args.seconds,
        w.switches,
        w.access_ports,
        r.data_dir().display(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let t = timed_phases(&mut r)?;

    for (label, p) in [("lo", &t.lo), ("hi", &t.hi), ("closed", &t.closed)] {
        let (top, q) = highest_percentile(p.tte_us.len());
        println!(
            "# {label}: {} attempted, {} enforced, {} late; whole phase: tte p50 {:.1} us, {top} \
             {:.1} us (n={}); gen lag p99 {:.1} us; busy: sav-southbound {:.2}, savbench {:.2}",
            p.attempted,
            p.enforced,
            p.late,
            quantile(&p.tte_us, 0.5),
            quantile(&p.tte_us, q),
            p.tte_us.len(),
            quantile(&p.lag_us, 0.99),
            p.usage.ctrl_cpu_s / p.usage.wall_s,
            p.usage.fleet_cpu_s / p.usage.wall_s,
        );
        let series = |f: &dyn Fn(&Window) -> f64| {
            let v: Vec<String> = p.windows.iter().map(|w| format!("{:.0}", f(w))).collect();
            v.join(" ")
        };
        if label == "closed" {
            println!("#   enforced/s per stretch: {}", series(&|w| w.per_s));
        } else {
            println!(
                "#   p50 us per window: {}",
                series(&|w| quantile(&w.tte_us, 0.5))
            );
            println!(
                "#   p95 us per window: {}",
                series(&|w| quantile(&w.tte_us, 0.95))
            );
            println!("#   ops per window: {}", series(&|w| w.tte_us.len() as f64));
        }
    }
    println!(
        "# recover: cycles {:?} ms; reconciled after {:?} ms",
        t.recovery
            .cycle_ms
            .iter()
            .map(|v| v.round())
            .collect::<Vec<_>>(),
        t.recovery
            .reconciled_ms
            .iter()
            .map(|v| v.round())
            .collect::<Vec<_>>(),
    );
    let lag_ok = quantile(&t.lo.lag_us, 0.99) <= 1000.0;
    let c = &t.closed;
    let fleet_ok = c.usage.fleet_cpu_s <= c.usage.ctrl_cpu_s;
    println!(
        "# generator valid: {} (lag p99 in lo within 1 ms: {lag_ok}; fleet no busier than \
         sav-southbound in closed: {fleet_ok}); threads while driving: {}",
        lag_ok && fleet_ok,
        c.usage.threads
    );

    let attempted = t.lo.attempted + t.hi.attempted + t.closed.attempted + t.recovery.attempted;
    // Failed: never enforced. An op enforced late is counted by
    // `on_time_share`, not here.
    let lost = |p: &Phase| p.attempted - p.enforced;
    let failed = lost(&t.lo) + lost(&t.hi) + lost(c) + t.recovery.lost;
    let metrics = if r.args.trace {
        traced(&mut r, &t)?
    } else {
        end_to_end(&r, &t)
    };
    for p in &r.problems {
        println!("# MISMATCH {p}");
    }
    for (name, (value, unit, n)) in &metrics {
        println!("{name} {unit} {value} (n={n})");
    }
    let correct = r.problems.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The traced part of a `--trace 1` run: the `lo` phase again with
/// fleet-side spans, then the layer pass over the same seeded stream.
fn traced(r: &mut Runner, t: &Timed) -> io::Result<Metrics> {
    let w = r.w;
    let mut spans = SpanLog::default();
    let traced_lo = open_phase(r, "lo", w.lo_rate, r.lo_secs(), Some(&mut spans))?;

    // The stream of the first `lo` window: what a fresh stack sees.
    let (label, secs) = if fresh_per_window(&w) {
        ("lo-0", window_secs(w.lo_rate, r.lo_secs()))
    } else {
        ("lo", r.lo_secs())
    };
    let n = Runner::open_ops(w.lo_rate, secs).min(LAYER_PASS_OPS);
    let mut plan = Plan::new(&w, r.args.seed, label, r.hosts_per_port(n));
    let preload = plan.preload(w.preload_per_port);
    let ops = plan.ops(n, w.mix);
    let dir = r.data_dir().join("layers");
    let (layers, layer_spans) = layer_pass(&w, &plan, &preload, &ops, &dir)?;
    let base = spans.spans.len() as u32;
    spans
        .spans
        .extend(layer_spans.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));

    let tte_lo = t.lo.tte_us(0.5);
    print_layer_table(&w, &layers, tte_lo);
    let out = r
        .args
        .trace_out
        .clone()
        .unwrap_or_else(|| crate::run::data_root().join(format!("trace-{}.jsonl", w.name)));
    spans.write_jsonl(&out)?;
    println!("# {} spans written to {}", spans.spans.len(), out.display());
    Ok(per_layer(r, t, &layers, &traced_lo))
}

/// Pull `"name": {"value": X` out of a result line this program printed.
fn value_of(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `all`: every workload in a process of its own (so `VmHWM` is per
/// workload), `repeat` sets on consecutive seeds, and with two or more
/// sets the relative difference of every metric against its bound.
pub fn run_all(args: &Args, repeat: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut sets: Vec<BTreeMap<&'static str, String>> = Vec::new();
    let mut ok = true;
    for set in 0..repeat {
        let mut results = BTreeMap::new();
        for w in &WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &(args.seed + set as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(out) = &args.trace_out {
                let mut name = out.file_stem().unwrap_or_default().to_os_string();
                name.push(format!("-{}", w.name));
                if let Some(ext) = out.extension() {
                    name.push(".");
                    name.push(ext);
                }
                cmd.arg("--trace-out").arg(out.with_file_name(name));
            }
            let child = cmd.spawn().and_then(|c| c.wait_with_output());
            let Ok(out) = child else {
                eprintln!("savbench: cannot run {}", w.name);
                ok = false;
                continue;
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            ok &= out.status.success();
            if let Some(last) = text.lines().last() {
                results.insert(w.name, last.to_string());
            }
        }
        sets.push(results);
    }
    if let [first, second, ..] = &sets[..] {
        println!("# repeat: set 2 (seed + 1) against set 1, relative to set 1, beside the bound");
        for w in &WORKLOADS {
            let (Some(a), Some(b)) = (first.get(w.name), second.get(w.name)) else {
                continue;
            };
            for e in &END_TO_END {
                let (Some(x), Some(y)) = (value_of(a, e.name), value_of(b, e.name)) else {
                    continue;
                };
                let worse = match e.better {
                    Better::Lower => (y - x) / x,
                    Better::Higher => (x - y) / x,
                };
                let verdict = if worse <= e.bound {
                    "within"
                } else {
                    "OUTSIDE"
                };
                println!(
                    "# repeat {} {}: {x} -> {y} {}, worse by {:+.4}, bound {} ({verdict})",
                    w.name, e.name, e.unit, worse, e.bound
                );
            }
        }
    }
    let all: Vec<String> = sets
        .last()
        .map(|s| {
            s.iter()
                .map(|(w, json)| format!("\"{w}\": {json}"))
                .collect()
        })
        .unwrap_or_default();
    println!("{{{}}}", all.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_value_of() {
        let mut m = Metrics::new();
        m.insert("setup_s", (0.0123456789, "s", 3));
        m.insert("capacity_per_s", (4567.25, "1/s", 10));
        let json = json_line(true, 10, 0, &m);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(value_of(&json, "setup_s"), Some(0.0123456789));
        assert_eq!(value_of(&json, "capacity_per_s"), Some(4567.25));
        assert_eq!(value_of(&json, "absent"), None);
    }

    /// `BENCHMARK.json` repeats the tables in `spec.rs`; the driver reads
    /// the file, the program the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "workload {} differs", w.name);
            assert!(w.why.len() <= 200);
        }
        for e in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                e.better.as_str(),
                e.bound
            );
            assert!(
                text.contains(&entry),
                "end-to-end metric {} differs",
                e.name
            );
        }
        for p in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                p.name,
                p.unit,
                p.better.as_str()
            );
            assert!(text.contains(&entry), "per-layer metric {} differs", p.name);
        }
        assert_eq!(text.matches("\"why\"").count(), WORKLOADS.len());
        assert_eq!(text.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    /// Every workload end to end at smoke size, all checks on, both with
    /// and without the traced run.
    #[test]
    fn smoke_runs_pass_the_oracle() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let args = Args {
                seed: 40 + i as u64,
                seconds: 0.5,
                trace: i % 2 == 0,
                smoke: true,
                trace_out: None,
            };
            assert!(
                run_workload(w, args).unwrap(),
                "{} failed its oracle",
                w.name
            );
        }
    }
}
