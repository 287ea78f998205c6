//! The traced run: spans kept in memory and written as JSONL at exit, and
//! the single-threaded layer pass that times each crate's public calls.

use crate::plan::{Host, Op, OpKind, Plan};
use crate::spec::Workload;
use crate::stack::{sav_app, sav_config, store_config, topology};
use crate::stats::{allocs, now_ns, quantile_of};
use sav_controller::{Controller, ControllerOutput};
use sav_core::{Binding, BindingSource, BindingTable, RuleCompiler, SAV_COOKIE, SAV_COOKIE_MASK};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::dhcpv4::DhcpRepr;
use sav_net::packet::ParsedPacket;
use sav_obs::Obs;
use sav_openflow::framing::Deframer;
use sav_openflow::messages::{FlowMod, FlowStatsRequest, Message, MultipartRequestBody};
use sav_poll::Outbox;
use sav_sim::{SimDuration, SimTime};
use sav_store::{BindingRecord, BindingStore, RecordSource, WalOp};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one run, in memory until [`SpanLog::write_jsonl`].
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        parent: Option<u32>,
        op: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// The fleet-side tree of one op: due → enforced, split at the write
    /// and at the read that carried the deciding bytes.
    pub fn op_tree(&mut self, op: u32, due: u64, sent: u64, read: u64, applied: u64) {
        let root = self.push(None, op, "op", due, applied);
        self.push(Some(root), op, "fleet.send", due, sent);
        self.push(Some(root), op, "wire_ctrl", sent, read.max(sent));
        self.push(Some(root), op, "dataplane.apply", read.max(sent), applied);
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        parent: Option<u32>,
        op: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let t0 = now_ns();
        let r = f();
        (self.push(parent, op, name, t0, now_ns()), r)
    }

    /// Self time per span name: each span's duration less the durations
    /// of its direct children, summed; with the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by_name
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What the layer pass measured, per call unless named otherwise.
#[derive(Debug, Default)]
pub struct Layers {
    pub ops: usize,
    pub msgs_in: usize,
    pub msgs_out: usize,
    /// Mean self time per op of every span name, microseconds.
    pub self_us_per_op: BTreeMap<&'static str, f64>,
    pub on_bytes_us_per_op: f64,
    pub controller_allocs_per_op: f64,
    pub decode_allocs_per_msg: f64,
    pub encode_allocs_per_msg: f64,
    pub append_us_p50: f64,
    pub append_us_p99: f64,
    pub wal_bytes_per_op: f64,
    pub compactions: usize,
    pub compact_ms_max: f64,
    pub prime_ms: f64,
    pub stats_reply_ms: f64,
    pub multipart_decode_us: f64,
    pub incr_ns: f64,
    pub span_ns: f64,
}

impl Layers {
    /// Mean self time per op of the spans called `name`, microseconds.
    pub fn us(&self, name: &str) -> f64 {
        self.self_us_per_op.get(name).copied().unwrap_or(0.0)
    }

    /// Per-message cost of a span that ran once per op.
    pub fn ns_per_msg_in(&self, name: &str) -> f64 {
        self.us(name) * 1e3 * self.ops as f64 / self.msgs_in.max(1) as f64
    }

    pub fn ns_per_msg_out(&self, name: &str) -> f64 {
        self.us(name) * 1e3 * self.ops as f64 / self.msgs_out.max(1) as f64
    }

    /// The blocking steps of one op outside the sockets: the controller's
    /// whole `on_bytes`, the outbox drain and the switch's apply.
    pub fn sum_us(&self) -> f64 {
        self.on_bytes_us_per_op + self.us("poll.drain") + self.us("dataplane.apply")
    }
}

/// The binding an op asks for, as the app would build it.
fn binding_of(host: &Host, sw: u16, port: u32, now: SimTime) -> Binding {
    Binding {
        ip: host.ip,
        mac: host.mac,
        dpid: u64::from(sw) + 1,
        port,
        source: BindingSource::Dhcp,
        expires: Some(now + SimDuration::from_secs(3600)),
    }
}

fn record_of(b: &Binding) -> BindingRecord {
    BindingRecord {
        ip: b.ip,
        mac: b.mac,
        dpid: b.dpid,
        port: b.port,
        source: RecordSource::Dhcp,
        expires: b.expires,
    }
}

/// Replicas of every layer, fed the same op stream one call at a time.
struct Bench {
    ctrl: Controller,
    switches: Vec<OpenFlowSwitch>,
    deframers: Vec<Deframer>,
    table: BindingTable,
    store: Option<BindingStore>,
    compiler: RuleCompiler,
    outbox: Outbox,
    tx: TcpStream,
    rx: TcpStream,
    sink: Vec<u8>,
    log: SpanLog,
    xid: u32,
    append_us: Vec<f64>,
    wal_bytes: u64,
    compactions: usize,
    compact_ms_max: f64,
    decode_allocs: u64,
    encode_allocs: u64,
    ctrl_allocs: u64,
    msgs_in: usize,
    msgs_out: usize,
    on_bytes_ns: u64,
}

impl Bench {
    /// Deliver controller output to the switch replicas, answering until
    /// the exchange goes quiet (handshake, reconcile).
    fn settle(&mut self, mut out: ControllerOutput) {
        while !out.to_switch.is_empty() {
            let mut next = ControllerOutput::default();
            for (conn, bytes) in out.to_switch {
                let replies = self.switches[conn]
                    .handle_controller_bytes(SimTime::ZERO, &bytes)
                    .expect("controller bytes decode");
                for r in replies.to_controller {
                    let o = self
                        .ctrl
                        .on_bytes(SimTime::ZERO, conn, &r)
                        .expect("switch bytes decode");
                    next.to_switch.extend(o.to_switch);
                }
            }
            out = next;
        }
    }

    fn step(&mut self, id: u32, op: &Op, hosts: &[Host], timed: bool) {
        let now = SimTime::from_nanos(now_ns());
        let conn = usize::from(op.sw);
        let host = &hosts[op.host as usize];
        let mut scratch = SpanLog::default();
        let log = if timed { &mut self.log } else { &mut scratch };
        let root = log.push(None, id, "op", now_ns(), now_ns());

        // The whole controller, as the event loop calls it.
        let a0 = allocs();
        let (on_bytes, out) = log.time(Some(root), id, "controller.on_bytes", || {
            self.ctrl
                .on_bytes(now, conn, &op.bytes)
                .expect("generated bytes decode")
        });
        let ctrl_allocs = allocs() - a0;
        let on_bytes_ns =
            log.spans[on_bytes as usize].end_ns - log.spans[on_bytes as usize].start_ns;

        // The same work again, one public call per layer. These spans are
        // re-executions caused by the `on_bytes` span, so they hang under
        // it although their clock times fall after its end.
        let parent = Some(on_bytes);
        let (_, frames) = log.time(parent, id, "openflow.deframe", || {
            let d = &mut self.deframers[conn];
            d.push(&op.bytes).expect("frames");
            let mut frames = Vec::new();
            while let Some(f) = d.next_frame().expect("frames") {
                frames.push(f);
            }
            frames
        });
        let mut msgs = Vec::with_capacity(frames.len());
        let a0 = allocs();
        log.time(parent, id, "openflow.decode", || {
            for f in &frames {
                msgs.push(Message::decode(f).expect("decodes").0);
            }
        });
        let decode_allocs = allocs() - a0;
        log.time(parent, id, "net.parse", || {
            for m in &msgs {
                let Message::PacketIn(pi) = m else { continue };
                let parsed = ParsedPacket::parse(&pi.data).expect("parses");
                let payload = parsed.l4_payload(&pi.data).expect("udp payload");
                std::hint::black_box(DhcpRepr::parse(payload).expect("dhcp"));
            }
        });
        let first = op.checks[0].expect("every op has a check");
        let b = binding_of(host, first.sw, first.port, now);
        let old = op.checks[1].map(|c| binding_of(host, c.sw, c.port, now));
        log.time(parent, id, "core.upsert", || match op.kind {
            OpKind::Release => {
                std::hint::black_box(self.table.remove(b.ip));
            }
            _ => {
                std::hint::black_box(self.table.upsert(b, now));
            }
        });
        if let Some(store) = &mut self.store {
            let wal_op = match op.kind {
                OpKind::Join => WalOp::Upsert(record_of(&b)),
                OpKind::Release => WalOp::Remove(b.ip),
                OpKind::Migrate => WalOp::Migrate(record_of(&b)),
            };
            let before = (store.wal_len(), store.wal_records());
            let (s, _) = log.time(parent, id, "store.append", || {
                store.append(&wal_op).expect("append")
            });
            if timed {
                let span = log.spans[s as usize];
                let us = (span.end_ns - span.start_ns) as f64 / 1e3;
                self.append_us.push(us);
                if store.wal_records() <= before.1 {
                    self.compactions += 1;
                    self.compact_ms_max = self.compact_ms_max.max(us / 1e3);
                } else {
                    self.wal_bytes += store.wal_len() - before.0;
                }
            }
        }
        let (_, mods) = log.time(parent, id, "core.compile", || -> Vec<(u64, FlowMod)> {
            let mut mods = Vec::new();
            match op.kind {
                OpKind::Release => {
                    mods.extend(
                        self.compiler
                            .unbind(&b, now)
                            .into_iter()
                            .map(|m| (b.dpid, m)),
                    );
                }
                _ => {
                    if let Some(old) = &old {
                        let d = self.compiler.unbind(old, now);
                        mods.extend(d.into_iter().map(|m| (old.dpid, m)));
                    }
                    mods.extend(self.compiler.bind(&b, now).into_iter().map(|m| (b.dpid, m)));
                }
            }
            mods
        });
        let a0 = allocs();
        log.time(parent, id, "openflow.encode", || {
            for (_, fm) in mods {
                self.xid = self.xid.wrapping_add(1);
                std::hint::black_box(Message::FlowMod(fm).encode(self.xid));
            }
        });
        let encode_allocs = allocs() - a0;

        // Downstream of the controller: outbox → socket → switch core.
        let n_out = out.to_switch.len();
        let mut to_switch = Vec::with_capacity(n_out);
        log.time(Some(root), id, "poll.drain", || {
            for (c, bytes) in out.to_switch {
                to_switch.push((c, bytes.clone()));
                self.outbox.push(bytes);
            }
            self.outbox.drain(&mut self.tx).expect("loopback write");
        });
        while matches!(self.rx.read(&mut self.sink), Ok(n) if n > 0) {}
        log.time(Some(root), id, "dataplane.apply", || {
            for (c, bytes) in &to_switch {
                self.switches[*c]
                    .handle_controller_bytes(now, bytes)
                    .expect("controller bytes decode");
            }
        });
        let end = now_ns();
        log.spans[root as usize].end_ns = end;
        if timed {
            self.msgs_in += frames.len();
            self.msgs_out += n_out;
            self.decode_allocs += decode_allocs;
            self.encode_allocs += encode_allocs;
            self.ctrl_allocs += ctrl_allocs;
            self.on_bytes_ns += on_bytes_ns;
        }
    }
}

/// Replay `preload` (untimed) and `ops` (timed) through every layer's
/// public functions on one thread. `dir` holds the two replica stores.
pub fn layer_pass(
    w: &Workload,
    plan: &Plan,
    preload: &[Op],
    ops: &[Op],
    dir: &Path,
) -> io::Result<(Layers, SpanLog)> {
    let topo = topology(w);
    let obs = Obs::new();
    let (app, _) = sav_app(w, &topo, &dir.join("whole"), &obs)?;
    let mut ctrl = Controller::new(vec![Box::new(app)]);
    ctrl.set_obs(obs.clone());
    let store = match store_config(w) {
        Some(cfg) => Some(BindingStore::open(dir.join("parts"), cfg)?),
        None => None,
    };
    let cfg = sav_config(w);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let mut bench = Bench {
        ctrl,
        switches: (1..=w.switches as u64)
            .map(|dpid| {
                OpenFlowSwitch::new(
                    SwitchConfig::new(dpid),
                    crate::plan::switch_ports(dpid, w.access_ports),
                )
            })
            .collect(),
        deframers: (0..w.switches).map(|_| Deframer::new()).collect(),
        table: BindingTable::new(),
        store,
        compiler: RuleCompiler::new(cfg.match_mac, cfg.dynamic_idle_timeout, cfg.tcam_budget),
        outbox: Outbox::new(),
        tx,
        rx,
        sink: vec![0u8; 256 * 1024],
        log: SpanLog::default(),
        xid: 0,
        append_us: Vec::new(),
        wal_bytes: 0,
        compactions: 0,
        compact_ms_max: 0.0,
        decode_allocs: 0,
        encode_allocs: 0,
        ctrl_allocs: 0,
        msgs_in: 0,
        msgs_out: 0,
        on_bytes_ns: 0,
    };
    // Handshake every replica switch, sans-IO.
    for conn in 0..w.switches {
        let greeting = bench.ctrl.on_connect(conn);
        let hello = bench.switches[conn].hello();
        let mut out = bench
            .ctrl
            .on_bytes(SimTime::ZERO, conn, &hello)
            .expect("hello decodes");
        out.to_switch.insert(0, (conn, greeting));
        bench.settle(out);
    }
    for (i, op) in preload.iter().enumerate() {
        bench.step(i as u32, op, &plan.hosts, false);
    }
    for (i, op) in ops.iter().enumerate() {
        bench.step(i as u32, op, &plan.hosts, true);
    }

    let n = ops.len().max(1) as f64;
    let mut layers = Layers {
        ops: ops.len(),
        msgs_in: bench.msgs_in,
        msgs_out: bench.msgs_out,
        on_bytes_us_per_op: bench.on_bytes_ns as f64 / 1e3 / n,
        controller_allocs_per_op: bench.ctrl_allocs as f64 / n,
        decode_allocs_per_msg: bench.decode_allocs as f64 / bench.msgs_in.max(1) as f64,
        encode_allocs_per_msg: bench.encode_allocs as f64 / bench.msgs_out.max(1) as f64,
        wal_bytes_per_op: bench.wal_bytes as f64 / n,
        compactions: bench.compactions,
        compact_ms_max: bench.compact_ms_max,
        ..Layers::default()
    };
    if !bench.append_us.is_empty() {
        layers.append_us_p50 = quantile_of(&mut bench.append_us, 0.5);
        layers.append_us_p99 = quantile_of(&mut bench.append_us, 0.99);
    }
    for (name, (_, ns)) in bench.log.self_times() {
        layers.self_us_per_op.insert(name, ns as f64 / 1e3 / n);
    }

    // The recovery-side calls, on the state the replay left behind.
    let on: Vec<Vec<Binding>> = (1..=w.switches as u64)
        .map(|dpid| bench.table.on_switch(dpid).copied().collect())
        .collect();
    let mut fresh = RuleCompiler::new(cfg.match_mac, cfg.dynamic_idle_timeout, cfg.tcam_budget);
    let t0 = now_ns();
    for (i, bindings) in on.iter().enumerate() {
        fresh.prime_switch(i as u64 + 1, bindings);
    }
    layers.prime_ms = (now_ns() - t0) as f64 / 1e6;
    let biggest = bench
        .switches
        .iter_mut()
        .max_by_key(|s| s.flow_count(0))
        .expect("at least one switch");
    let request = Message::MultipartRequest(MultipartRequestBody::Flow(FlowStatsRequest {
        table_id: 0,
        cookie: SAV_COOKIE,
        cookie_mask: SAV_COOKIE_MASK,
        ..FlowStatsRequest::default()
    }));
    let t0 = now_ns();
    let reply = biggest
        .handle_message(SimTime::ZERO, request, 1)
        .to_controller;
    layers.stats_reply_ms = (now_ns() - t0) as f64 / 1e6;
    if let Some(bytes) = reply.first().filter(|b| b.len() <= usize::from(u16::MAX)) {
        let t0 = now_ns();
        std::hint::black_box(Message::decode(bytes).expect("reply decodes"));
        layers.multipart_decode_us = (now_ns() - t0) as f64 / 1e3;
    }

    // What one counter bump and one disabled span cost an instrumented
    // call site.
    const CALLS: u32 = 100_000;
    let t0 = now_ns();
    for _ in 0..CALLS {
        obs.counters.incr("savbench_probe_total");
    }
    layers.incr_ns = (now_ns() - t0) as f64 / f64::from(CALLS);
    let t0 = now_ns();
    for _ in 0..CALLS {
        drop(std::hint::black_box(obs.span("savbench_probe")));
    }
    layers.span_ns = (now_ns() - t0) as f64 / f64::from(CALLS);
    Ok((layers, bench.log))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_less_direct_children() {
        let mut log = SpanLog::default();
        let root = log.push(None, 0, "op", 0, 100);
        let mid = log.push(Some(root), 0, "mid", 10, 70);
        log.push(Some(mid), 0, "leaf", 20, 50);
        log.push(Some(mid), 0, "leaf", 50, 60);
        let root2 = log.push(None, 1, "op", 100, 110);
        // Children that cover more than the parent clamp its self time.
        log.push(Some(root2), 1, "mid", 0, 30);
        let t = log.self_times();
        assert_eq!(t["op"], (2, 40));
        assert_eq!(t["mid"], (2, 20 + 30));
        assert_eq!(t["leaf"], (2, 40));
    }

    #[test]
    fn op_tree_children_tile_the_root() {
        let mut log = SpanLog::default();
        log.op_tree(7, 100, 130, 400, 450);
        let t = log.self_times();
        assert_eq!(t["op"], (1, 0));
        assert_eq!(
            t["fleet.send"].1 + t["wire_ctrl"].1 + t["dataplane.apply"].1,
            350
        );
        assert!(log.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::default();
        log.op_tree(1, 0, 1, 2, 3);
        let path = crate::run::data_root().join(format!("trace-test-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
