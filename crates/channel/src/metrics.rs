//! Per-connection channel metrics, shared between transport threads.

use parking_lot::Mutex;
use sav_metrics::Histogram;
use std::sync::Arc;

/// Snapshot of one connection's transport counters.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Raw bytes read off the socket.
    pub bytes_in: u64,
    /// Raw bytes written to the socket.
    pub bytes_out: u64,
    /// Complete OpenFlow messages parsed from the inbound stream.
    pub msgs_in: u64,
    /// OpenFlow messages queued for writing.
    pub msgs_out: u64,
    /// High-water mark of the outbound queue depth.
    pub queue_hwm: usize,
    /// Times this endpoint (re-)established its connection.
    pub reconnects: u64,
    /// Switches declared dead by the keepalive deadline (server side).
    pub dead_declared: u64,
    /// Data-plane frames shed at a full injector queue (client side).
    pub frames_dropped: u64,
}

/// Thread-shared metrics handle: counters plus an echo-RTT histogram.
#[derive(Clone, Default)]
pub struct ChannelMetrics {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    stats: ChannelStats,
    echo_rtt: Histogram,
    handshake_latency: Histogram,
}

impl ChannelMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> ChannelMetrics {
        ChannelMetrics::default()
    }

    /// Record bytes read off the socket.
    pub fn add_bytes_in(&self, n: u64) {
        self.inner.lock().stats.bytes_in += n;
    }

    /// Record bytes written to the socket.
    pub fn add_bytes_out(&self, n: u64) {
        self.inner.lock().stats.bytes_out += n;
    }

    /// Record messages parsed from the inbound stream.
    pub fn add_msgs_in(&self, n: u64) {
        self.inner.lock().stats.msgs_in += n;
    }

    /// Record messages queued for writing.
    pub fn add_msgs_out(&self, n: u64) {
        self.inner.lock().stats.msgs_out += n;
    }

    /// Observe the outbound queue depth (keeps the high-water mark).
    pub fn observe_queue_depth(&self, depth: usize) {
        let mut g = self.inner.lock();
        if depth > g.stats.queue_hwm {
            g.stats.queue_hwm = depth;
        }
    }

    /// Record a successful (re-)connection.
    pub fn add_reconnect(&self) {
        self.inner.lock().stats.reconnects += 1;
    }

    /// Record a keepalive-deadline death verdict.
    pub fn add_dead_declared(&self) {
        self.inner.lock().stats.dead_declared += 1;
    }

    /// Record data-plane frames shed at a full queue.
    pub fn add_frames_dropped(&self, n: u64) {
        self.inner.lock().stats.frames_dropped += n;
    }

    /// Record one echo round-trip time, in seconds.
    pub fn record_echo_rtt(&self, rtt_secs: f64) {
        self.inner.lock().echo_rtt.record(rtt_secs);
    }

    /// Record one accept-to-ready handshake latency, in seconds.
    pub fn record_handshake_latency(&self, secs: f64) {
        self.inner.lock().handshake_latency.record(secs);
    }

    /// Copy out the counters.
    pub fn stats(&self) -> ChannelStats {
        self.inner.lock().stats.clone()
    }

    /// Copy out the echo RTT histogram.
    pub fn echo_rtt(&self) -> Histogram {
        self.inner.lock().echo_rtt.clone()
    }

    /// Copy out the accept-to-ready handshake latency histogram.
    pub fn handshake_latency(&self) -> Histogram {
        self.inner.lock().handshake_latency.clone()
    }

    /// Discard accumulated echo RTT samples. Benches use this to scope a
    /// measurement window to steady state (post-connect churn excluded).
    pub fn reset_echo_rtt(&self) {
        self.inner.lock().echo_rtt = Histogram::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = ChannelMetrics::new();
        m.add_bytes_in(10);
        m.add_bytes_out(4);
        m.add_msgs_in(2);
        m.add_msgs_out(1);
        m.observe_queue_depth(3);
        m.observe_queue_depth(1); // does not lower the high-water mark
        m.add_reconnect();
        m.record_echo_rtt(0.002);
        let s = m.stats();
        assert_eq!(s.bytes_in, 10);
        assert_eq!(s.bytes_out, 4);
        assert_eq!(s.msgs_in, 2);
        assert_eq!(s.msgs_out, 1);
        assert_eq!(s.queue_hwm, 3);
        assert_eq!(s.reconnects, 1);
        assert_eq!(m.echo_rtt().count(), 1);
        // Clones share state (it's the thread-sharing handle).
        let m2 = m.clone();
        m2.add_bytes_in(5);
        assert_eq!(m.stats().bytes_in, 15);
    }
}
