//! **fig_c10k** — southbound scaling: one `SouthboundServer` event loop
//! versus {256, 1k, 4k, 10k} concurrent switch connections, measuring
//! p50/p99 ECHO keepalive RTT and accept-to-FEATURES_REPLY handshake
//! latency at each scale point.
//!
//! Topology of the measurement: the bench process hosts the server (the
//! system under test). The switch side runs in a **child process** — this
//! binary re-executed with `SAV_C10K_CLIENT` set — driving N sans-IO
//! [`OpenFlowSwitch`] cores over one `sav-poll` event loop of its own.
//! Two processes because the container's fd hard cap (20k) cannot hold
//! both ends of 10k sockets in one process; a child also keeps the
//! client's work off the server's allocator and locks.
//!
//! Modes:
//! * default — full {256, 1k, 4k, 10k} sweep; writes `results/fig_c10k.csv`
//!   and `results/bench_fig_c10k.json` and appends the `sb_*` southbound
//!   row to `results/trajectory.json` (commit the diff).
//! * `C10K_CHECK=1` — CI gate: {256, 4k} only; asserts p99 echo RTT at 4k
//!   stays within 2× the 256-connection point (subject to a 10 ms absolute
//!   noise floor on shared single-core runners), full readiness, zero
//!   keepalive deaths, and the `sb_*` trajectory gate. Writes nothing.
//! * `C10K_SOAK=1` — CI smoke: 512 connections held ~10 s under live
//!   keepalives; asserts zero disconnects and flat server RSS.

use sav_bench::{results_dir, write_json, write_result, Metrics, Trajectory};
use sav_channel::{ServerConfig, SouthboundServer};
use sav_controller::Controller;
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_metrics::Table;
use sav_net::addr::MacAddr;
use sav_openflow::ports::PortDesc;
use sav_poll::{Events, Interest, Outbox, Poller, Slab, Token};
use sav_sim::SimTime;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Re-exec marker: `"<addr> <count>"` puts this binary in client mode.
const ENV_CLIENT: &str = "SAV_C10K_CLIENT";

/// Keepalive cadence during measurement. One second keeps the per-second
/// echo load proportional to the connection count without the 10k point
/// degenerating into a throughput bench.
const ECHO_INTERVAL: Duration = Duration::from_millis(1000);
/// Echo-RTT measurement window after the reset: ~3 samples per connection.
const MEASURE_WINDOW: Duration = Duration::from_millis(3500);
/// Windows measured per scale point; the quietest (lowest p99) is kept.
const MEASURE_WINDOWS: usize = 2;
/// Blocking connects per client batch. Stays under the kernel's default
/// listen backlog (128) so no SYN ever waits out a retransmit timer.
const CONNECT_BATCH: usize = 100;

fn server_config() -> ServerConfig {
    ServerConfig {
        echo_interval: ECHO_INTERVAL,
        // Generous: the client event loop may lag whole batches behind
        // during the connect phase on a single-core runner.
        liveness_timeout: Duration::from_secs(30),
        outbound_queue: 1024,
        write_stall_timeout: Duration::from_secs(5),
        stats_poll_interval: None,
        obs: None,
    }
}

// ---------------------------------------------------------------------------
// Client mode: N switch cores on one readiness loop in a child process.
// ---------------------------------------------------------------------------

struct ClientConn {
    stream: TcpStream,
    sw: OpenFlowSwitch,
    outbox: Outbox,
    want_write: bool,
}

fn mk_switch(dpid: u64) -> OpenFlowSwitch {
    let ports = (1..=2)
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
}

fn run_client(spec: &str) {
    let mut parts = spec.split_whitespace();
    let addr: SocketAddr = parts.next().expect("client addr").parse().expect("addr");
    let count: usize = parts.next().expect("client count").parse().expect("count");

    let started = Instant::now();
    let mut poller = Poller::new(1024).expect("client poller");
    let mut events = Events::with_capacity(1024);
    let mut conns: Slab<ClientConn> = Slab::new();
    let mut buf = vec![0u8; 64 * 1024];

    let mut dialed = 0;
    while dialed < count {
        let batch = (count - dialed).min(CONNECT_BATCH);
        for _ in 0..batch {
            dialed += 1;
            let stream = connect_with_retry(addr);
            stream.set_nodelay(true).expect("nodelay");
            let mut sw = mk_switch(dialed as u64);
            let hello = sw.hello();
            let mut conn = ClientConn {
                stream,
                sw,
                outbox: Outbox::new(),
                want_write: false,
            };
            conn.outbox.push(hello);
            let key = conns.insert(conn);
            let io = conns.get_mut(key).expect("just inserted");
            io.stream.set_nonblocking(true).expect("nonblocking");
            poller
                .register(&io.stream, Token(key), Interest::READABLE)
                .expect("register");
            drain_client(&mut poller, &mut conns, key);
        }
        // Service the loop between batches so handshakes complete while
        // later batches dial — the server is never left talking to a wall.
        service(
            &mut poller,
            &mut events,
            &mut conns,
            &mut buf,
            started,
            Duration::from_millis(50),
        );
    }

    // Steady state: answer echoes until the server closes every socket
    // (scale point over) or a hard self-destruct deadline passes.
    while !conns.is_empty() && started.elapsed() < Duration::from_secs(300) {
        service(
            &mut poller,
            &mut events,
            &mut conns,
            &mut buf,
            started,
            Duration::from_millis(200),
        );
    }
}

fn connect_with_retry(addr: SocketAddr) -> TcpStream {
    let mut delay = Duration::from_millis(10);
    for _ in 0..8 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
    }
    TcpStream::connect(addr).expect("connect after retries")
}

/// One bounded pass over the client poller: read, feed the switch core,
/// queue its replies, drain outboxes.
fn service(
    poller: &mut Poller,
    events: &mut Events,
    conns: &mut Slab<ClientConn>,
    buf: &mut [u8],
    started: Instant,
    budget: Duration,
) {
    let deadline = Instant::now() + budget;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        if poller.wait(events, Some(deadline - now)).is_err() {
            return;
        }
        let fired: Vec<_> = events.iter().copied().collect();
        for ev in fired {
            let key = ev.token.0;
            if !conns.contains(key) {
                continue;
            }
            let mut close = false;
            if ev.readable || ev.error || ev.hangup {
                close = read_client(conns, key, buf, started);
                // Replies the switch core just queued (echo replies, the
                // handshake's FEATURES_REPLY) go out on the same wakeup.
                if !close {
                    drain_client(poller, conns, key);
                }
            } else if ev.writable {
                drain_client(poller, conns, key);
            }
            if close {
                if let Some(io) = conns.get(key) {
                    let _ = poller.deregister(&io.stream);
                }
                conns.remove(key);
            }
        }
    }
}

/// Read until `WouldBlock`, replaying bytes through the sans-IO switch
/// core (which answers ECHO and the handshake itself). True = close.
fn read_client(conns: &mut Slab<ClientConn>, key: usize, buf: &mut [u8], started: Instant) -> bool {
    let mut replies: Vec<Vec<u8>> = Vec::new();
    let close = loop {
        let Some(io) = conns.get_mut(key) else {
            return false;
        };
        match io.stream.read(buf) {
            Ok(0) => break true,
            Ok(n) => {
                let now = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
                match io.sw.handle_controller_bytes(now, &buf[..n]) {
                    Ok(out) => replies.extend(out.to_controller),
                    Err(_) => break true,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break true,
        }
    };
    if close {
        return true;
    }
    if let Some(io) = conns.get_mut(key) {
        for frame in replies {
            io.outbox.push(frame);
        }
    }
    false
}

/// Drain a client outbox under the single-writer rule; arm or disarm
/// write interest to mirror whether the socket pushed back.
fn drain_client(poller: &mut Poller, conns: &mut Slab<ClientConn>, key: usize) {
    let Some(io) = conns.get_mut(key) else {
        return;
    };
    let Ok(drained) = io.outbox.drain(&mut io.stream) else {
        let _ = poller.deregister(&io.stream);
        conns.remove(key);
        return;
    };
    if drained.blocked && !io.want_write {
        io.want_write = true;
        let _ = poller.modify(&io.stream, Token(key), Interest::BOTH);
    } else if !drained.blocked && io.want_write && io.outbox.is_empty() {
        io.want_write = false;
        let _ = poller.modify(&io.stream, Token(key), Interest::READABLE);
    }
}

// ---------------------------------------------------------------------------
// Server mode: the measurement harness.
// ---------------------------------------------------------------------------

struct Point {
    conns: usize,
    echo_p50_ms: f64,
    echo_p99_ms: f64,
    echo_samples: u64,
    handshake_p50_ms: f64,
    handshake_p99_ms: f64,
    dead_declared: u64,
}

fn spawn_client(addr: SocketAddr, count: usize) -> Child {
    Command::new(std::env::current_exe().expect("current_exe"))
        .env(ENV_CLIENT, format!("{addr} {count}"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn client child")
}

/// Stand up a fresh server, connect `n` switches from a child process,
/// wait for full readiness, then measure a steady-state echo window.
fn run_point(n: usize) -> Point {
    let server = SouthboundServer::bind("127.0.0.1:0", server_config(), Controller::new(vec![]))
        .expect("bind southbound server");
    let mut child = spawn_client(server.local_addr(), n);

    // Readiness = the controller completed HELLO → FEATURES_REPLY (→ Ready)
    // for every switch. Handshake latency accumulates during this phase.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let ready = server.controller().lock().ready_dpids().len();
        if ready >= n {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {ready}/{n} switches ready within the connect deadline"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let sm = server.server_metrics();
    let handshake = sm.handshake_latency();

    // Scope echo RTT to steady state: let connect churn settle, discard
    // samples taken during it, then measure clean windows. Wall-clock
    // noise on a shared single-core runner is one-sided (a co-scheduled
    // burst only ever inflates the tail), so keep the quietest window —
    // the same capability-not-scheduler-luck rationale as the trajectory
    // bench.
    std::thread::sleep(Duration::from_millis(500));
    let mut echo = None;
    for _ in 0..MEASURE_WINDOWS {
        sm.reset_echo_rtt();
        std::thread::sleep(MEASURE_WINDOW);
        let w = sm.echo_rtt();
        let quieter = echo
            .as_ref()
            .is_none_or(|best: &sav_metrics::Histogram| w.quantile(0.99) < best.quantile(0.99));
        if quieter {
            echo = Some(w);
        }
    }
    let echo = echo.expect("at least one measure window");
    let dead = sm.stats().dead_declared;
    let still_ready = server.controller().lock().ready_dpids().len();
    assert_eq!(
        still_ready, n,
        "connections dropped during the measure window"
    );

    let _ = child.kill();
    let _ = child.wait();
    server.shutdown();

    Point {
        conns: n,
        echo_p50_ms: echo.quantile(0.5) * 1e3,
        echo_p99_ms: echo.quantile(0.99) * 1e3,
        echo_samples: echo.count(),
        handshake_p50_ms: handshake.quantile(0.5) * 1e3,
        handshake_p99_ms: handshake.quantile(0.99) * 1e3,
        dead_declared: dead,
    }
}

/// Server RSS in KiB from `/proc/self/status` (0 where unavailable).
fn rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Soak smoke: hold 512 connections ~10 s under live keepalives; nothing
/// may disconnect and the server's RSS must stay flat (no per-echo or
/// per-wakeup allocation leak).
fn run_soak() {
    const SOAK_CONNS: usize = 512;
    let config = ServerConfig {
        echo_interval: Duration::from_millis(200),
        ..server_config()
    };
    let server = SouthboundServer::bind("127.0.0.1:0", config, Controller::new(vec![]))
        .expect("bind southbound server");
    let mut child = spawn_client(server.local_addr(), SOAK_CONNS);

    let deadline = Instant::now() + Duration::from_secs(60);
    while server.controller().lock().ready_dpids().len() < SOAK_CONNS {
        assert!(Instant::now() < deadline, "soak connect phase timed out");
        std::thread::sleep(Duration::from_millis(50));
    }
    let sm = server.server_metrics();
    std::thread::sleep(Duration::from_secs(2)); // settle allocator churn
    let rss_start = rss_kib();
    let echo_start = sm.echo_rtt().count();
    std::thread::sleep(Duration::from_secs(10));
    let rss_end = rss_kib();
    let echo_end = sm.echo_rtt().count();

    let ready = server.controller().lock().ready_dpids().len();
    let dead = sm.stats().dead_declared;
    let _ = child.kill();
    let _ = child.wait();
    server.shutdown();

    assert_eq!(ready, SOAK_CONNS, "soak: connections dropped");
    assert_eq!(dead, 0, "soak: keepalive deaths");
    assert!(
        echo_end > echo_start,
        "soak: keepalives must stay live ({echo_start} -> {echo_end} RTT samples)"
    );
    let grown_kib = rss_end.saturating_sub(rss_start);
    assert!(
        rss_start == 0 || grown_kib < 16 * 1024,
        "soak: server RSS grew {grown_kib} KiB over 10 s (start {rss_start} KiB)"
    );
    println!(
        "[soak passed: {SOAK_CONNS} conns, {} RTT samples, rss {rss_start} -> {rss_end} KiB]",
        echo_end - echo_start
    );
}

fn sb_metrics(points: &[Point]) -> Metrics {
    let mut m = Metrics::new();
    for p in points {
        let tag = match p.conns {
            256 => "256",
            1000 => "1k",
            4000 => "4k",
            10000 => "10k",
            _ => continue,
        };
        m.insert(format!("sb_echo_p50_ms_{tag}"), p.echo_p50_ms);
        m.insert(format!("sb_echo_p99_ms_{tag}"), p.echo_p99_ms);
        m.insert(format!("sb_handshake_p99_ms_{tag}"), p.handshake_p99_ms);
    }
    m
}

fn main() {
    if let Ok(spec) = std::env::var(ENV_CLIENT) {
        run_client(&spec);
        return;
    }
    let check = std::env::var("C10K_CHECK").is_ok();
    if std::env::var("C10K_SOAK").is_ok() {
        run_soak();
        return;
    }

    let scales: &[usize] = if check {
        &[256, 4000]
    } else {
        &[256, 1000, 4000, 10000]
    };
    println!(
        "fig_c10k: one southbound event loop vs concurrent switches{}\n",
        if check { " [check mode]" } else { "" }
    );

    let mut table = Table::new(
        "fig_c10k: southbound scaling (one event-loop thread)",
        &[
            "conns",
            "echo_p50_ms",
            "echo_p99_ms",
            "echo_samples",
            "handshake_p50_ms",
            "handshake_p99_ms",
            "dead_declared",
        ],
    );
    let mut points = Vec::new();
    for &n in scales {
        let p = run_point(n);
        println!(
            "  {:>6} conns: echo p50 {:.3} ms p99 {:.3} ms ({} samples), \
             handshake p50 {:.3} ms p99 {:.3} ms",
            p.conns,
            p.echo_p50_ms,
            p.echo_p99_ms,
            p.echo_samples,
            p.handshake_p50_ms,
            p.handshake_p99_ms
        );
        assert_eq!(p.dead_declared, 0, "keepalive deaths at {n} connections");
        table.row(&[
            p.conns.to_string(),
            format!("{:.4}", p.echo_p50_ms),
            format!("{:.4}", p.echo_p99_ms),
            p.echo_samples.to_string(),
            format!("{:.4}", p.handshake_p50_ms),
            format!("{:.4}", p.handshake_p99_ms),
            p.dead_declared.to_string(),
        ]);
        points.push(p);
    }
    println!("\n{}", table.to_ascii());

    // Scaling assertion: p99 echo RTT at 4k within 2× of the 256-conn
    // point, with an absolute floor — on a shared single-core runner both
    // quantiles sit in scheduler-noise territory, and a sub-10 ms p99 at
    // 4k connections is a pass by any reading of the claim.
    let p256 = points.iter().find(|p| p.conns == 256).expect("256 point");
    let p4k = points.iter().find(|p| p.conns == 4000).expect("4k point");
    let bound = (2.0 * p256.echo_p99_ms).max(10.0);
    assert!(
        p4k.echo_p99_ms <= bound,
        "p99 echo RTT degraded 256 -> 4k: {:.3} ms -> {:.3} ms (bound {:.3} ms)",
        p256.echo_p99_ms,
        p4k.echo_p99_ms,
        bound
    );
    println!(
        "[scaling holds: p99 {:.3} ms @256 -> {:.3} ms @4k (bound {:.3} ms)]",
        p256.echo_p99_ms, p4k.echo_p99_ms, bound
    );

    let current = sb_metrics(&points);
    let path = results_dir().join("trajectory.json");
    if check {
        if let Err(failures) = Trajectory::check(&path, &current) {
            eprintln!("southbound trajectory gate FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("[southbound trajectory gate passed]");
        return;
    }

    write_result("fig_c10k.csv", &table.to_csv());
    write_json("fig_c10k", &table);
    let mut trajectory = Trajectory::load(&path);
    // The southbound row: merge new sb_* metrics into the baseline (new
    // metrics have no baseline to regress from — this sets one) and
    // append the run.
    if let Some(base) = &mut trajectory.baseline {
        for (k, v) in &current {
            base.entry(k.clone()).or_insert(*v);
        }
    }
    trajectory.append_run(current);
    trajectory.save(&path).expect("write trajectory.json");
    println!("[saved {} — commit the diff]", path.display());
}
