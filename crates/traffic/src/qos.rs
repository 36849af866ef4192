//! Per-flow QoS accounting: loss, delay, jitter, throughput.

use mtnet_metrics::{Histogram, Summary};
use mtnet_sim::{SimDuration, SimTime};

/// Tracks the QoS of one flow from sequence numbers and timestamps.
///
/// * **Loss** — sent vs received counts (sequence numbers make duplicates
///   and reordering visible).
/// * **One-way delay** — histogram of nanosecond delays.
/// * **Jitter** — RFC 3550 §6.4.1 interarrival jitter: a running estimate
///   `J += (|D| - J) / 16` over consecutive delay differences.
/// * **Throughput** — received payload bytes over the observation window.
///
/// ```
/// use mtnet_traffic::FlowQos;
/// use mtnet_sim::{SimTime, SimDuration};
///
/// let mut q = FlowQos::new();
/// q.record_sent(0, SimTime::ZERO, 160);
/// q.record_received(0, SimTime::ZERO, SimTime::from_millis(40), 160);
/// q.record_sent(1, SimTime::from_millis(20), 160);
/// // packet 1 lost
/// let report = q.report(SimDuration::from_secs(1));
/// assert_eq!(report.sent, 2);
/// assert_eq!(report.received, 1);
/// assert_eq!(report.loss_rate, 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowQos {
    sent: u64,
    received: u64,
    duplicates: u64,
    out_of_order: u64,
    bytes_received: u64,
    delay_ns: Histogram,
    jitter_ns: f64,
    last_delay_ns: Option<i128>,
    highest_seq_received: Option<u64>,
    delay_summary: Summary,
}

/// A finished flow's QoS figures, as reported by experiments.
#[derive(Debug, Clone, Copy)]
pub struct QosReport {
    /// Packets sent by the source.
    pub sent: u64,
    /// Distinct packets delivered.
    pub received: u64,
    /// Fraction of sent packets never delivered.
    pub loss_rate: f64,
    /// Mean one-way delay in milliseconds.
    pub mean_delay_ms: f64,
    /// 95th-percentile one-way delay in milliseconds.
    pub p95_delay_ms: f64,
    /// Final RFC 3550 jitter estimate in milliseconds.
    pub jitter_ms: f64,
    /// Goodput in bits per second over the observation window.
    pub throughput_bps: f64,
    /// Packets delivered more than once.
    pub duplicates: u64,
    /// Packets delivered behind a higher sequence number.
    pub out_of_order: u64,
}

impl FlowQos {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        FlowQos::default()
    }

    /// Records a packet leaving the source.
    pub fn record_sent(&mut self, _seq: u64, _at: SimTime, _bytes: u32) {
        self.sent += 1;
    }

    /// Records a packet arriving at the sink.
    ///
    /// `sent_at`/`received_at` compute the one-way delay; `seq` drives
    /// loss, duplicate and reordering detection.
    pub fn record_received(
        &mut self,
        seq: u64,
        sent_at: SimTime,
        received_at: SimTime,
        bytes: u32,
    ) {
        if let Some(delay) = self.record_received_compact(seq, sent_at, received_at, bytes) {
            self.delay_ns.record(delay.as_nanos());
            self.delay_summary.record(delay.as_millis_f64());
        }
    }

    /// [`FlowQos::record_received`] minus the per-flow delay
    /// distribution: counts, bytes and jitter update exactly as usual,
    /// but the delay histogram and summary stay empty. Returns the
    /// one-way delay when the packet counted as delivered (`None` for a
    /// duplicate), so the caller can stream it into a shared world-level
    /// accumulator instead — the aggregate-QoS mode metro-scale worlds
    /// use to keep per-flow trackers at a constant few hundred bytes.
    pub fn record_received_compact(
        &mut self,
        seq: u64,
        sent_at: SimTime,
        received_at: SimTime,
        bytes: u32,
    ) -> Option<SimDuration> {
        match self.highest_seq_received {
            Some(h) if seq == h => {
                self.duplicates += 1;
                return None;
            }
            Some(h) if seq < h => {
                self.out_of_order += 1;
                // Still counts as delivered.
            }
            _ => self.highest_seq_received = Some(seq),
        }
        if self.highest_seq_received.is_none_or(|h| seq > h) {
            self.highest_seq_received = Some(seq);
        }
        self.received += 1;
        self.bytes_received += u64::from(bytes);

        let delay = received_at.saturating_since(sent_at);

        // RFC 3550 jitter: J += (|D(i-1,i)| - J) / 16 where D is the
        // difference of one-way delays (transit times) of consecutive
        // received packets.
        let delay_ns = i128::from(delay.as_nanos());
        if let Some(prev) = self.last_delay_ns {
            let d = (delay_ns - prev).unsigned_abs() as f64;
            self.jitter_ns += (d - self.jitter_ns) / 16.0;
        }
        self.last_delay_ns = Some(delay_ns);
        Some(delay)
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Current loss fraction.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - (self.received.min(self.sent) as f64 / self.sent as f64)
        }
    }

    /// Overwrites the sent-side counters from `other`, keeping every
    /// receive-side figure untouched. Used when the send and receive
    /// ends of one flow were tracked by different halves of the same
    /// world (sharded execution): the sink half's tracker adopts the
    /// source half's sent count and the result equals a single
    /// tracker that saw both ends.
    pub fn adopt_sent(&mut self, other: &FlowQos) {
        self.sent = other.sent;
    }

    /// Merges another tracker (e.g. summing per-handoff windows).
    pub fn merge(&mut self, other: &FlowQos) {
        self.sent += other.sent;
        self.received += other.received;
        self.duplicates += other.duplicates;
        self.out_of_order += other.out_of_order;
        self.bytes_received += other.bytes_received;
        self.delay_ns.merge(&other.delay_ns);
        self.delay_summary.merge(&other.delay_summary);
        // Jitter: keep the max of the two running estimates (conservative).
        self.jitter_ns = self.jitter_ns.max(other.jitter_ns);
    }

    /// Produces the final report over an observation window of `window`.
    pub fn report(&self, window: SimDuration) -> QosReport {
        let secs = window.as_secs_f64();
        QosReport {
            sent: self.sent,
            received: self.received,
            loss_rate: self.loss_rate(),
            mean_delay_ms: self.delay_summary.mean(),
            p95_delay_ms: self
                .delay_ns
                .percentile(95.0)
                .map_or(0.0, |ns| ns as f64 / 1e6),
            jitter_ms: self.jitter_ns / 1e6,
            throughput_bps: if secs > 0.0 {
                self.bytes_received as f64 * 8.0 / secs
            } else {
                0.0
            },
            duplicates: self.duplicates,
            out_of_order: self.out_of_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn no_loss_perfect_flow() {
        let mut q = FlowQos::new();
        for seq in 0..100u64 {
            let t = ms(seq * 20);
            q.record_sent(seq, t, 160);
            q.record_received(seq, t, t + SimDuration::from_millis(50), 160);
        }
        let r = q.report(SimDuration::from_secs(2));
        assert_eq!(r.sent, 100);
        assert_eq!(r.received, 100);
        assert_eq!(r.loss_rate, 0.0);
        assert!((r.mean_delay_ms - 50.0).abs() < 1e-9);
        // Constant delay => zero jitter.
        assert_eq!(r.jitter_ms, 0.0);
        // 100 * 160 B * 8 / 2 s = 64 kbit/s
        assert!((r.throughput_bps - 64_000.0).abs() < 1.0);
    }

    #[test]
    fn loss_detected() {
        let mut q = FlowQos::new();
        for seq in 0..10u64 {
            q.record_sent(seq, ms(seq), 100);
            if seq % 2 == 0 {
                q.record_received(seq, ms(seq), ms(seq + 5), 100);
            }
        }
        assert_eq!(q.loss_rate(), 0.5);
    }

    #[test]
    fn duplicates_not_double_counted() {
        let mut q = FlowQos::new();
        q.record_sent(0, ms(0), 100);
        q.record_received(0, ms(0), ms(5), 100);
        q.record_received(0, ms(0), ms(6), 100);
        let r = q.report(SimDuration::from_secs(1));
        assert_eq!(r.received, 1);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.loss_rate, 0.0);
    }

    #[test]
    fn reordering_detected_but_counted_delivered() {
        let mut q = FlowQos::new();
        for seq in [0u64, 2, 1, 3] {
            q.record_sent(seq, ms(seq * 10), 100);
        }
        q.record_received(0, ms(0), ms(5), 100);
        q.record_received(2, ms(20), ms(26), 100);
        q.record_received(1, ms(10), ms(27), 100); // late
        q.record_received(3, ms(30), ms(35), 100);
        let r = q.report(SimDuration::from_secs(1));
        assert_eq!(r.received, 4);
        assert_eq!(r.out_of_order, 1);
        assert_eq!(r.loss_rate, 0.0);
    }

    #[test]
    fn jitter_rises_with_variable_delay() {
        let mut steady = FlowQos::new();
        let mut jumpy = FlowQos::new();
        for seq in 0..64u64 {
            let t = ms(seq * 20);
            steady.record_sent(seq, t, 100);
            steady.record_received(seq, t, t + SimDuration::from_millis(40), 100);
            jumpy.record_sent(seq, t, 100);
            let d = if seq % 2 == 0 { 20 } else { 80 };
            jumpy.record_received(seq, t, t + SimDuration::from_millis(d), 100);
        }
        assert_eq!(steady.report(SimDuration::from_secs(2)).jitter_ms, 0.0);
        let j = jumpy.report(SimDuration::from_secs(2)).jitter_ms;
        // D alternates ±60 ms; RFC 3550 converges toward 60.
        assert!(j > 30.0, "jitter {j} too small");
    }

    #[test]
    fn p95_reflects_tail() {
        let mut q = FlowQos::new();
        for seq in 0..100u64 {
            let t = ms(seq);
            q.record_sent(seq, t, 100);
            let d = if seq < 95 { 10 } else { 200 };
            q.record_received(seq, t, t + SimDuration::from_millis(d), 100);
        }
        let r = q.report(SimDuration::from_secs(1));
        assert!(
            r.p95_delay_ms <= 15.0,
            "p95 {} should be near 10",
            r.p95_delay_ms
        );
        assert!(r.mean_delay_ms > 10.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FlowQos::new();
        let mut b = FlowQos::new();
        a.record_sent(0, ms(0), 100);
        a.record_received(0, ms(0), ms(10), 100);
        b.record_sent(1, ms(20), 100);
        let mut m = FlowQos::new();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.sent(), 2);
        assert_eq!(m.received(), 1);
        assert_eq!(m.loss_rate(), 0.5);
    }

    #[test]
    fn adopt_sent_reunites_a_split_flow() {
        // Source end tracked by one half, sink end by the other.
        let mut source_end = FlowQos::new();
        let mut sink_end = FlowQos::new();
        for seq in 0..10u64 {
            source_end.record_sent(seq, ms(seq * 20), 160);
            if seq < 7 {
                sink_end.record_received(seq, ms(seq * 20), ms(seq * 20 + 40), 160);
            }
        }
        sink_end.adopt_sent(&source_end);
        let r = sink_end.report(SimDuration::from_secs(1));
        assert_eq!(r.sent, 10);
        assert_eq!(r.received, 7);
        assert!((r.loss_rate - 0.3).abs() < 1e-12);
        assert!(r.mean_delay_ms > 0.0, "receive side untouched");
    }

    #[test]
    fn compact_matches_full_except_delay_distribution() {
        let mut full = FlowQos::new();
        let mut compact = FlowQos::new();
        for seq in [0u64, 1, 1, 3, 2] {
            let t = ms(seq * 20);
            let d = SimDuration::from_millis(10 + seq * 7);
            full.record_sent(seq, t, 120);
            compact.record_sent(seq, t, 120);
            full.record_received(seq, t, t + d, 120);
            let returned = compact.record_received_compact(seq, t, t + d, 120);
            // Duplicates return None; delivered packets return the delay.
            if seq == 1 && compact.duplicates > 0 && returned.is_none() {
                continue;
            }
            assert_eq!(returned, Some(d));
        }
        let f = full.report(SimDuration::from_secs(1));
        let c = compact.report(SimDuration::from_secs(1));
        assert_eq!(c.sent, f.sent);
        assert_eq!(c.received, f.received);
        assert_eq!(c.duplicates, f.duplicates);
        assert_eq!(c.out_of_order, f.out_of_order);
        assert_eq!(c.jitter_ms, f.jitter_ms);
        assert_eq!(c.throughput_bps, f.throughput_bps);
        // The per-flow delay distribution is the one thing compact skips.
        assert_eq!(c.mean_delay_ms, 0.0);
        assert_eq!(c.p95_delay_ms, 0.0);
        assert!(f.mean_delay_ms > 0.0);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = FlowQos::new().report(SimDuration::ZERO);
        assert_eq!(r.sent, 0);
        assert_eq!(r.loss_rate, 0.0);
        assert_eq!(r.throughput_bps, 0.0);
        assert_eq!(r.p95_delay_ms, 0.0);
    }
}
