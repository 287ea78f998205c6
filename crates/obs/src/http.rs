//! A std-only HTTP/1.1 exposition endpoint.
//!
//! Serves `GET /metrics` (Prometheus text format), `GET /events?n=K`
//! (the newest `K` journal events as JSONL, filterable with `sev=` and
//! `kind=`), `GET /traces?n=K` (completed causal traces as JSONL), and
//! `GET /healthz`. Malformed query parameters are a 400, not a silent
//! full tail. One accept thread handles requests inline — scrape traffic
//! is a request every few seconds, not a web workload — and every
//! response closes its connection, so no keep-alive state machine is
//! needed.

use crate::event::{EventKind, Severity};
use crate::prom::encode_prometheus;
use crate::Obs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const DEFAULT_EVENT_TAIL: usize = 256;
const MAX_REQUEST_BYTES: usize = 8192;
/// Pause after a failed `accept` (EMFILE, ECONNABORTED, …) before the
/// listener tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// A running exposition endpoint.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve the given handle.
    pub fn bind(addr: impl ToSocketAddrs, obs: Obs) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        obs.counters.add("sav_obs_accept_errors_total", 0);
        let thread = {
            let stop = stop.clone();
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &obs),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => {
                            // Never abandon the listener: count, journal,
                            // pause, and keep serving.
                            obs.counters.incr("sav_obs_accept_errors_total");
                            obs.event(
                                Severity::Error,
                                EventKind::AcceptError {
                                    error: e.to_string(),
                                },
                            );
                            thread::sleep(ACCEPT_RETRY);
                        }
                    }
                }
            })
        };
        Ok(ObsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address to scrape.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_one(mut stream: TcpStream, obs: &Obs) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nonblocking(false);
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the header terminator; GET requests carry no body.
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let (status, content_type, body) = route(request.lines().next().unwrap_or(""), obs);
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Method Not Allowed",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn route(request_line: &str, obs: &Obs) -> (u16, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return (405, "text/plain", "method not allowed\n".to_string());
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => (200, "text/plain; version=0.0.4", encode_prometheus(obs)),
        "/events" => match events_body(query, obs) {
            Ok(body) => (200, "application/x-ndjson", body),
            Err(msg) => (400, "text/plain", msg),
        },
        "/traces" => match parse_tail(query) {
            Ok(n) => (200, "application/x-ndjson", obs.traces.tail_jsonl(n)),
            Err(msg) => (400, "text/plain", msg),
        },
        "/" | "/healthz" => (200, "text/plain", healthz_body(obs)),
        _ => (404, "text/plain", "not found\n".to_string()),
    }
}

/// Parse `n=` out of a query string; absent means the default tail,
/// malformed is an error (a typo'd limit must not dump the full tail).
fn parse_tail(query: &str) -> Result<usize, String> {
    match query.split('&').find_map(|kv| kv.strip_prefix("n=")) {
        None => Ok(DEFAULT_EVENT_TAIL),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad request: n={v} is not a count\n")),
    }
}

/// `/events` body: `n=` tail limit plus optional `sev=` (minimum
/// severity: debug/info/warn/error) and `kind=` (exact event name)
/// filters. Any malformed value is a 400.
fn events_body(query: &str, obs: &Obs) -> Result<String, String> {
    let n = parse_tail(query)?;
    let mut min_sev = None;
    let mut kind = None;
    for kv in query.split('&') {
        if let Some(v) = kv.strip_prefix("sev=") {
            min_sev = Some(
                Severity::from_label(v)
                    .ok_or_else(|| format!("bad request: sev={v} is not a severity\n"))?,
            );
        } else if let Some(v) = kv.strip_prefix("kind=") {
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
                return Err(format!("bad request: kind={v} is not an event name\n"));
            }
            kind = Some(v);
        }
    }
    Ok(obs.journal.tail_filtered_jsonl(n, min_sev, kind))
}

/// Health body: plain `ok` for a standalone controller; when clustering is
/// active (a `sav_cluster_role` gauge exists) the current role rides
/// along, so an external health check — or the failover demo — can tell
/// master from standby with one GET. Gauge values follow the OpenFlow
/// role encoding: 2 = master, 3 = slave (standby).
fn healthz_body(obs: &Obs) -> String {
    let role = obs
        .gauges
        .snapshot()
        .into_iter()
        .find(|(k, _)| k.starts_with("sav_cluster_role"))
        .map(|(_, v)| match v as i64 {
            2 => "master",
            3 => "standby",
            _ => "candidate",
        });
    match role {
        Some(role) => format!("ok role={role}\n"),
        None => "ok\n".to_string(),
    }
}

/// Minimal blocking HTTP GET against `addr` — the scrape client used by
/// the integration tests and the live-controller smoke check. Returns
/// `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Severity};

    #[test]
    fn serves_metrics_events_and_404() {
        let obs = Obs::with_tracing();
        obs.counters.add("sav_test_total", 2);
        obs.event(Severity::Info, EventKind::SwitchUp { dpid: 9 });
        obs.event(
            Severity::Warn,
            EventKind::SpoofDrop {
                dpid: 9,
                port: 1,
                packets: 3,
            },
        );
        let server = ObsServer::bind("127.0.0.1:0", obs).unwrap();
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("sav_test_total 2"), "{body}");

        let (status, body) = http_get(addr, "/events?n=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1, "tail limited to 1: {body}");
        assert!(body.contains("\"event\":\"spoof_drop\""));

        let (status, body) = http_get(addr, "/events").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2);
        assert!(body.lines().next().unwrap().contains("switch_up"));

        let (status, _) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn event_filters_and_bad_queries() {
        let obs = Obs::new();
        obs.event(Severity::Info, EventKind::SwitchUp { dpid: 1 });
        obs.event(Severity::Info, EventKind::SwitchUp { dpid: 2 });
        obs.event(
            Severity::Warn,
            EventKind::SpoofDrop {
                dpid: 2,
                port: 3,
                packets: 9,
            },
        );
        let server = ObsServer::bind("127.0.0.1:0", obs).unwrap();
        let addr = server.local_addr();

        // sev= keeps only events at or above the given severity.
        let (status, body) = http_get(addr, "/events?sev=warn").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.contains("spoof_drop"));

        // kind= filters by exact event name; composes with n=.
        let (status, body) = http_get(addr, "/events?kind=switch_up&n=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.contains("\"dpid\":2"), "newest switch_up: {body}");

        // Malformed query params are a 400, not a silent full tail.
        for bad in [
            "/events?n=bogus",
            "/events?sev=loud",
            "/events?kind=Spoof-Drop",
        ] {
            let (status, body) = http_get(addr, bad).unwrap();
            assert_eq!(status, 400, "{bad} must 400, got {status}: {body}");
            assert!(body.starts_with("bad request"), "{body}");
        }
        server.shutdown();
    }

    #[test]
    fn serves_completed_traces_as_jsonl() {
        let obs = Obs::with_tracing();
        for i in 0..3u64 {
            let id = obs
                .traces
                .begin(format!("10.0.0.{i}"), 1, obs.traces.now_ns())
                .unwrap();
            obs.traces.stage_open(id, "barrier_ack");
            obs.complete_trace(id);
        }
        let server = ObsServer::bind("127.0.0.1:0", obs).unwrap();
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/traces?n=2").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2, "{body}");
        assert!(body.contains("\"ip\":\"10.0.0.2\""), "newest kept: {body}");
        assert!(body.contains("\"stage\":\"barrier_ack\""));

        let (status, body) = http_get(addr, "/traces?n=nope").unwrap();
        assert_eq!(status, 400, "{body}");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_cluster_role() {
        let obs = Obs::new();
        let server = ObsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
        let addr = server.local_addr();

        let (_, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(body, "ok\n", "standalone controller: no role suffix");

        obs.gauges.set("sav_cluster_role{node=\"1\"}", 3.0);
        let (_, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(body, "ok role=standby\n");

        obs.gauges.set("sav_cluster_role{node=\"1\"}", 2.0);
        let (_, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(body, "ok role=master\n");
        server.shutdown();
    }
}
