//! The fixed part of the benchmark: workloads, phase rates and the metric
//! tables `BENCHMARK.json` repeats (a unit test keeps the two in step).

use sav_store::FsyncPolicy;

/// Percentages of the three op kinds; they sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub join: u32,
    pub release: u32,
    pub migrate: u32,
}

/// One workload. Rates are ops per second offered by the open loop; they
/// are constants sized once against the baseline capacity (README.md) and
/// never adapted at run time.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub switches: usize,
    /// Access ports per switch (ports `2..`); port 1 is the trusted DHCP
    /// server port.
    pub access_ports: u32,
    pub store: Option<FsyncPolicy>,
    pub tcam_budget: Option<usize>,
    /// Bindings joined per access port in set-up, before any phase.
    pub preload_per_port: usize,
    /// Unbound addresses kept per access port beside the preload and the
    /// hosts a phase needs (the holes of a dense block).
    pub spare_per_port: usize,
    pub mix: Mix,
    /// Open-loop rate of the `lo` phase: the loop thread is about a
    /// quarter busy.
    pub lo_rate: f64,
    /// Open-loop rate of the `hi` phase: the loop thread is about half
    /// busy. (An open loop costs the loop thread more per op than the
    /// closed loop's batches do, so this is less than half of
    /// `capacity_per_s`.)
    pub hi_rate: f64,
    /// Ops of the `closed` phase per second of its share of `--seconds`
    /// (about the baseline capacity, so the phase lasts about its share).
    pub closed_rate: f64,
    /// Crash-and-recover cycles after the closed phase.
    pub recover_cycles: usize,
    /// Ops between two recover cycles, so recovery replays a WAL tail.
    pub between_cycles: usize,
}

const JOINS: Mix = Mix {
    join: 100,
    release: 0,
    migrate: 0,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "join_durable",
        why: "production shape: 16 switches, joins into a WAL fsynced per append, so sav-store does most of the work",
        switches: 16,
        access_ports: 47,
        store: Some(FsyncPolicy::Always),
        tcam_budget: None,
        preload_per_port: 0,
        spare_per_port: 0,
        mix: JOINS,
        lo_rate: 1000.0,
        hi_rate: 2000.0,
        closed_rate: 4000.0,
        recover_cycles: 15,
        between_cycles: 64,
    },
    Workload {
        name: "join_storm",
        why: "power-restore flash crowd: 256 switches, no store, so sav-poll, sav-channel, sav-openflow and sav-controller do the work",
        switches: 256,
        access_ports: 47,
        store: None,
        tcam_budget: None,
        preload_per_port: 0,
        spare_per_port: 0,
        mix: JOINS,
        lo_rate: 3000.0,
        hi_rate: 7000.0,
        closed_rate: 8000.0,
        recover_cycles: 15,
        between_cycles: 256,
    },
    Workload {
        name: "churn_dense",
        why: "wireless-AP ports, 1024 hosts each under a TCAM budget: join/release/migrate make sav-core re-derive and re-aggregate a whole port per op",
        switches: 4,
        access_ports: 1,
        store: Some(FsyncPolicy::OnCompact),
        tcam_budget: Some(64),
        preload_per_port: 1024,
        spare_per_port: 128,
        mix: Mix {
            join: 40,
            release: 40,
            migrate: 20,
        },
        lo_rate: 900.0,
        hi_rate: 1900.0,
        closed_rate: 5500.0,
        recover_cycles: 15,
        between_cycles: 128,
    },
    Workload {
        name: "restart_reconcile",
        why: "recovery of a large table: store read back, the biggest flow-stats replies decoded and reconciled; the layers of the other workloads used the other way round",
        switches: 16,
        access_ports: 16,
        store: Some(FsyncPolicy::OnCompact),
        tcam_budget: None,
        preload_per_port: 32,
        spare_per_port: 8,
        mix: Mix {
            join: 50,
            release: 50,
            migrate: 0,
        },
        lo_rate: 2000.0,
        hi_rate: 3400.0,
        closed_rate: 10000.0,
        recover_cycles: 15,
        between_cycles: 256,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Shares of `--seconds` the three timed phases take.
pub const LO_SHARE: f64 = 0.4;
pub const HI_SHARE: f64 = 0.4;
pub const CLOSED_SHARE: f64 = 0.2;

/// An op enforced later than this after its due time counts as late.
pub const LATE_NS: u64 = 50_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tte_p50_us_lo",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tte_p95_us_lo",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tte_p50_us_hi",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tte_p95_us_hi",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "capacity_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "on_time_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "recover_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// One per-layer metric. README.md has the table of which end-to-end
/// metric each is predicted to move, on which workload.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` carries it on; the program has no use for it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 47] = [
    lower("poll.drain_ns_per_frame", "ns"),
    lower("poll.wakeups_per_op", "count"),
    higher("poll.frames_per_wakeup", "count"),
    lower("channel.ctrl_cpu_us_per_op", "us"),
    lower("channel.ctrl_busy_share_hi", "ratio"),
    lower("channel.queue_depth_max", "count"),
    lower("channel.backlog_bytes_max", "bytes"),
    lower("channel.echo_rtt_us_p99", "us"),
    lower("channel.handshake_ms_p99", "ms"),
    lower("channel.transport_gap_us", "us"),
    lower("openflow.deframe_ns_per_msg", "ns"),
    lower("openflow.decode_ns_per_msg", "ns"),
    lower("openflow.encode_ns_per_msg", "ns"),
    lower("openflow.decode_allocs_per_msg", "count"),
    lower("openflow.encode_allocs_per_msg", "count"),
    lower("openflow.wire_bytes_per_op", "bytes"),
    lower("openflow.multipart_decode_us", "us"),
    lower("net.parse_ns_per_pkt", "ns"),
    lower("controller.on_bytes_us_per_op", "us"),
    lower("controller.self_us_per_op", "us"),
    lower("controller.allocs_per_op", "count"),
    lower("controller.msgs_in_per_op", "count"),
    lower("controller.msgs_out_per_op", "count"),
    lower("core.upsert_ns_per_op", "ns"),
    lower("core.compile_us_per_op", "us"),
    lower("core.mods_per_op", "count"),
    lower("core.rules_per_binding", "ratio"),
    lower("core.prime_ms", "ms"),
    lower("store.append_us_p50", "us"),
    lower("store.append_us_p99", "us"),
    lower("store.wal_bytes_per_op", "bytes"),
    lower("store.compactions", "count"),
    lower("store.compact_ms_max", "ms"),
    lower("store.recover_ms", "ms"),
    lower("obs.incr_ns_per_call", "ns"),
    lower("obs.span_ns_per_call", "ns"),
    lower("dataplane.apply_us_per_mod", "us"),
    lower("dataplane.punt_ns_per_frame", "ns"),
    lower("dataplane.table_len_max", "count"),
    lower("dataplane.stats_reply_ms", "ms"),
    lower("gen.lag_us_p99", "us"),
    lower("gen.fleet_busy_share", "ratio"),
    lower("gen.trace_overhead_share", "ratio"),
    lower("layers.sum_us", "us"),
    lower("layers.tte_p50_us_lo", "us"),
    lower("gen.threads", "count"),
    lower("gen.prep_s", "s"),
];
