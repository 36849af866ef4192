//! Aggregated experiment results: QoS, handoff and signaling statistics.

use crate::handoff::HandoffType;
use mtnet_metrics::{FixedHistogram, Summary};
use mtnet_net::FlowId;
use mtnet_sim::SimDuration;
use mtnet_traffic::{FlowQos, QosReport};
use std::collections::BTreeMap;

/// Why a data packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// No downlink routing state (caches expired / never installed).
    NoRoute,
    /// Delivered over the air to a cell the node had already left.
    WirelessDetached,
    /// Drop-tail queue overflow on a wired link.
    QueueOverflow,
    /// The Home Agent had no binding for the destination.
    NoBinding,
    /// The packet arrived while the node was being paged (idle, no route).
    Paging,
}

impl std::fmt::Display for DropCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropCause::NoRoute => "no-route",
            DropCause::WirelessDetached => "wireless-detached",
            DropCause::QueueOverflow => "queue-overflow",
            DropCause::NoBinding => "no-binding",
            DropCause::Paging => "paging",
        };
        f.write_str(s)
    }
}

/// Signaling-overhead counters (control messages, not data).
#[derive(Debug, Clone, Default)]
pub struct SignalingStats {
    /// Periodic Location Messages (§3.1).
    pub location_messages: u64,
    /// Update Location Messages (post-handoff).
    pub update_messages: u64,
    /// Delete Location Messages.
    pub delete_messages: u64,
    /// Cellular IP route-update packets.
    pub route_updates: u64,
    /// Cellular IP paging-update packets.
    pub paging_updates: u64,
    /// Pages transmitted (directed hops + flood fan-out).
    pub page_messages: u64,
    /// Mobile IP registration requests sent by nodes.
    pub mip_requests: u64,
    /// Mobile IP replies delivered.
    pub mip_replies: u64,
    /// RSMC → HA/CN movement notifications (§4).
    pub rsmc_notifications: u64,
    /// Handoff request/accept/reject messages.
    pub handoff_messages: u64,
    /// Total control bytes on the wire.
    pub control_bytes: u64,
}

impl SignalingStats {
    /// Total control messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.location_messages
            + self.update_messages
            + self.delete_messages
            + self.route_updates
            + self.paging_updates
            + self.page_messages
            + self.mip_requests
            + self.mip_replies
            + self.rsmc_notifications
            + self.handoff_messages
    }
}

/// Handoff statistics.
#[derive(Debug, Clone, Default)]
pub struct HandoffStats {
    /// Completed handoffs by procedure type.
    pub completed: BTreeMap<HandoffType, u64>,
    /// Handoff latency (decision → route/binding restored), per type, ms.
    pub latency_ms: BTreeMap<HandoffType, Summary>,
    /// Attempts rejected by admission control (primary target full).
    pub rejected: u64,
    /// Rejections recovered by the other-tier fallback (§3.2).
    pub fallback_used: u64,
    /// Handoffs back to the just-left cell within the ping-pong window.
    pub ping_pong: u64,
    /// Measurement rounds with no usable cell at all.
    pub outage_samples: u64,
}

impl HandoffStats {
    /// Total completed handoffs.
    pub fn total(&self) -> u64 {
        self.completed.values().sum()
    }

    /// Latency summary across every type.
    pub fn latency_all(&self) -> Summary {
        let mut all = Summary::new();
        for s in self.latency_ms.values() {
            all.merge(s);
        }
        all
    }
}

/// Fault-injection activity and resilience metrics.
///
/// All-zero (the default) when the scenario injects no faults, and in that
/// case omitted from [`SimReport::fingerprint`] entirely — fault
/// accounting is strictly opt-in, so fault-free fingerprints are
/// byte-identical to those produced before the subsystem existed.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Cell-outage transitions applied (downs + restores).
    pub cell_transitions: u64,
    /// Wired-link flap transitions applied (downs + restores).
    pub link_transitions: u64,
    /// RSMC crash events applied.
    pub rsmc_kills: u64,
    /// RSMC standby takeovers completed.
    pub rsmc_takeovers: u64,
    /// Satellite eclipse transitions applied (starts + ends).
    pub eclipse_transitions: u64,
    /// Data packets lost while at least one injected fault was active.
    pub outage_drops: u64,
    /// Mobile IP registration requests sent while a fault was active or a
    /// restore was still awaiting its first delivery — the
    /// re-registration storm a failover triggers.
    pub reregistrations: u64,
    /// Recovery latency per restoring transition: time from the restore to
    /// the next successful data delivery anywhere in the world, ms.
    pub recovery_latency_ms: Summary,
}

impl FaultStats {
    /// True when no fault machinery ever fired.
    fn is_quiet(&self) -> bool {
        self.cell_transitions == 0
            && self.link_transitions == 0
            && self.rsmc_kills == 0
            && self.rsmc_takeovers == 0
            && self.eclipse_transitions == 0
            && self.outage_drops == 0
            && self.reregistrations == 0
            && self.recovery_latency_ms.count() == 0
    }

    /// Total fault transitions of every category (CI smoke's "nonzero
    /// fault events fired" assertion).
    pub fn total_transitions(&self) -> u64 {
        self.cell_transitions
            + self.link_transitions
            + self.rsmc_kills
            + self.rsmc_takeovers
            + self.eclipse_transitions
    }
}

/// World-level streaming delay accumulator for aggregate-QoS mode.
///
/// Metro-scale worlds keep per-flow trackers compact (no per-flow delay
/// distribution — see [`mtnet_traffic::FlowQos::record_received_compact`])
/// and stream every delivered packet's one-way delay into this single
/// constant-memory pair instead: a fixed-bucket histogram for
/// percentiles and a Welford summary for the mean and its confidence
/// interval. Total metric state is O(1) in events and subscribers.
#[derive(Debug, Clone)]
pub struct AggregateQos {
    /// One-way delay histogram, 1-ms buckets over 0–2048 ms.
    pub delay_ms: FixedHistogram,
    /// Online mean/variance of the same delays (drives the 95% CI).
    pub delay_summary: Summary,
}

impl AggregateQos {
    /// Millisecond range of the delay histogram (1-ms resolution).
    pub const DELAY_UPPER_MS: f64 = 2048.0;

    /// Creates an empty accumulator.
    pub fn new() -> Self {
        AggregateQos {
            delay_ms: FixedHistogram::new(Self::DELAY_UPPER_MS),
            delay_summary: Summary::new(),
        }
    }

    /// Streams one delivered packet's one-way delay (milliseconds).
    #[inline]
    pub fn record(&mut self, delay_ms: f64) {
        self.delay_ms.record(delay_ms);
        self.delay_summary.record(delay_ms);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.delay_summary.count()
    }
}

impl Default for AggregateQos {
    fn default() -> Self {
        AggregateQos::new()
    }
}

/// Everything one simulation run produces.
#[derive(Debug, Default, Clone)]
pub struct SimReport {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-flow QoS trackers (finalized by [`SimReport::flow_reports`]).
    pub flows: Vec<(FlowId, FlowQos)>,
    /// Handoff statistics.
    pub handoffs: HandoffStats,
    /// Signaling overhead.
    pub signaling: SignalingStats,
    /// Data-packet drops by cause.
    pub drops: BTreeMap<DropCause, u64>,
    /// Fault-injection activity (all-zero unless the spec injects faults).
    pub faults: FaultStats,
    /// New-call admissions blocked (channel pools).
    pub calls_blocked: u64,
    /// New-call admissions accepted.
    pub calls_accepted: u64,
    /// Events executed by the simulator (run-cost metric).
    pub events_processed: u64,
    /// World-level delay accumulator; `Some` only in aggregate-QoS mode
    /// (metro-scale worlds). Strictly opt-in: `None` leaves the
    /// fingerprint byte-identical to reports predating the field.
    pub aggregate: Option<AggregateQos>,
}

impl SimReport {
    /// Per-flow QoS reports.
    pub fn flow_reports(&self) -> Vec<(FlowId, QosReport)> {
        self.flows
            .iter()
            .map(|(id, q)| (*id, q.report(self.duration)))
            .collect()
    }

    /// All flows merged into one QoS report.
    pub fn aggregate_qos(&self) -> QosReport {
        let mut merged = FlowQos::new();
        for (_, q) in &self.flows {
            merged.merge(q);
        }
        merged.report(self.duration)
    }

    /// Total data drops of all causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Records a drop.
    pub fn count_drop(&mut self, cause: DropCause) {
        *self.drops.entry(cause).or_insert(0) += 1;
    }

    /// A bit-exact textual digest of every metric in the report.
    ///
    /// Floats are rendered as their IEEE-754 bit patterns (hex), so two
    /// fingerprints are equal **iff** the runs produced identical metrics
    /// down to the last ulp — the determinism contract the parallel batch
    /// runner is tested against (`tests/determinism.rs`): same master
    /// seed, any thread count, byte-identical fingerprint.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        fn bits(x: f64) -> String {
            format!("{:016x}", x.to_bits())
        }
        fn summary_line(s: &Summary) -> String {
            format!(
                "n={} mean={} var={} min={} max={}",
                s.count(),
                bits(s.mean()),
                bits(s.sample_variance()),
                bits(s.min().unwrap_or(0.0)),
                bits(s.max().unwrap_or(0.0)),
            )
        }
        let mut out = String::new();
        let _ = writeln!(out, "duration_ns={}", self.duration.as_nanos());
        let _ = writeln!(out, "events={}", self.events_processed);
        for (flow, report) in self.flow_reports() {
            let _ = writeln!(
                out,
                "flow {}: sent={} recv={} dup={} ooo={} loss={} delay={} p95={} jitter={} tput={}",
                flow.0,
                report.sent,
                report.received,
                report.duplicates,
                report.out_of_order,
                bits(report.loss_rate),
                bits(report.mean_delay_ms),
                bits(report.p95_delay_ms),
                bits(report.jitter_ms),
                bits(report.throughput_bps),
            );
        }
        for (ht, count) in &self.handoffs.completed {
            let _ = writeln!(out, "handoff {ht}: {count}");
        }
        for (ht, lat) in &self.handoffs.latency_ms {
            let _ = writeln!(out, "latency {ht}: {}", summary_line(lat));
        }
        let h = &self.handoffs;
        let _ = writeln!(
            out,
            "handoffs: rejected={} fallback={} pingpong={} outages={}",
            h.rejected, h.fallback_used, h.ping_pong, h.outage_samples
        );
        let s = &self.signaling;
        let _ = writeln!(
            out,
            "signaling: loc={} upd={} del={} route={} paging={} page={} mipreq={} miprep={} rsmc={} ho={} bytes={}",
            s.location_messages,
            s.update_messages,
            s.delete_messages,
            s.route_updates,
            s.paging_updates,
            s.page_messages,
            s.mip_requests,
            s.mip_replies,
            s.rsmc_notifications,
            s.handoff_messages,
            s.control_bytes,
        );
        for (cause, count) in &self.drops {
            let _ = writeln!(out, "drop {cause}: {count}");
        }
        let _ = writeln!(
            out,
            "calls: accepted={} blocked={}",
            self.calls_accepted, self.calls_blocked
        );
        // Fault section only when the machinery fired: fault-free runs
        // (including runs of specs with an *empty* faults section) must
        // fingerprint identically to pre-fault-subsystem runs.
        if !self.faults.is_quiet() {
            let f = &self.faults;
            let _ = writeln!(
                out,
                "faults: cells={} links={} kills={} takeovers={} eclipses={} outage_drops={} rereg={}",
                f.cell_transitions,
                f.link_transitions,
                f.rsmc_kills,
                f.rsmc_takeovers,
                f.eclipse_transitions,
                f.outage_drops,
                f.reregistrations,
            );
            let _ = writeln!(
                out,
                "fault recovery: {}",
                summary_line(&f.recovery_latency_ms)
            );
        }
        // Aggregate-QoS section, appended last and only when the mode is
        // on — per-flow-mode fingerprints stay byte-identical to those
        // produced before the accumulator existed.
        if let Some(agg) = &self.aggregate {
            let _ = writeln!(out, "aggregate delay: {}", summary_line(&agg.delay_summary));
            let p = |q: f64| bits(agg.delay_ms.percentile(q).unwrap_or(0.0));
            let _ = writeln!(
                out,
                "aggregate delay pcts: p50={} p95={} p99={}",
                p(50.0),
                p(95.0),
                p(99.0),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtnet_sim::SimTime;

    #[test]
    fn aggregate_merges_flows() {
        let mut r = SimReport {
            duration: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut q1 = FlowQos::new();
        q1.record_sent(0, SimTime::ZERO, 100);
        q1.record_received(0, SimTime::ZERO, SimTime::from_millis(5), 100);
        let mut q2 = FlowQos::new();
        q2.record_sent(0, SimTime::ZERO, 100);
        r.flows.push((FlowId(1), q1));
        r.flows.push((FlowId(2), q2));
        let agg = r.aggregate_qos();
        assert_eq!(agg.sent, 2);
        assert_eq!(agg.received, 1);
        assert_eq!(agg.loss_rate, 0.5);
        assert_eq!(r.flow_reports().len(), 2);
    }

    #[test]
    fn drop_accounting() {
        let mut r = SimReport::default();
        r.count_drop(DropCause::NoRoute);
        r.count_drop(DropCause::NoRoute);
        r.count_drop(DropCause::WirelessDetached);
        assert_eq!(r.total_drops(), 3);
        assert_eq!(r.drops[&DropCause::NoRoute], 2);
        assert_eq!(DropCause::NoRoute.to_string(), "no-route");
    }

    #[test]
    fn handoff_totals_and_latency() {
        let mut h = HandoffStats::default();
        *h.completed
            .entry(HandoffType::IntraMicroToMicro)
            .or_insert(0) += 3;
        *h.completed
            .entry(HandoffType::InterDomainSameUpper)
            .or_insert(0) += 1;
        h.latency_ms
            .entry(HandoffType::IntraMicroToMicro)
            .or_insert_with(Summary::new)
            .extend([10.0, 20.0]);
        h.latency_ms
            .entry(HandoffType::InterDomainSameUpper)
            .or_insert_with(Summary::new)
            .extend([100.0]);
        assert_eq!(h.total(), 4);
        let all = h.latency_all();
        assert_eq!(all.count(), 3);
        assert!((all.mean() - (10.0 + 20.0 + 100.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn signaling_totals() {
        let s = SignalingStats {
            location_messages: 5,
            route_updates: 10,
            ..Default::default()
        };
        assert_eq!(s.total_messages(), 15);
    }

    #[test]
    fn fingerprint_is_total_and_sensitive() {
        let mut r = SimReport {
            duration: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut q = FlowQos::new();
        q.record_sent(0, SimTime::ZERO, 100);
        q.record_received(0, SimTime::ZERO, SimTime::from_millis(5), 100);
        r.flows.push((FlowId(1), q));
        r.count_drop(DropCause::NoRoute);
        r.signaling.route_updates = 3;
        let a = r.fingerprint();
        assert_eq!(a, r.fingerprint(), "fingerprint is a pure function");
        assert!(a.contains("flow 1"), "{a}");
        assert!(a.contains("drop no-route: 1"), "{a}");
        // Any metric change must move the fingerprint.
        r.signaling.route_updates += 1;
        assert_ne!(a, r.fingerprint());
    }

    #[test]
    fn fault_section_is_strictly_opt_in() {
        let mut r = SimReport::default();
        let quiet = r.fingerprint();
        assert!(
            !quiet.contains("faults:"),
            "quiet fault stats must leave the fingerprint untouched: {quiet}"
        );
        assert!(r.faults.is_quiet());
        r.faults.cell_transitions = 2;
        r.faults.outage_drops = 7;
        r.faults.recovery_latency_ms.extend([12.5]);
        assert!(!r.faults.is_quiet());
        assert_eq!(r.faults.total_transitions(), 2);
        let loud = r.fingerprint();
        assert!(loud.contains("faults: cells=2"), "{loud}");
        assert!(loud.contains("fault recovery: n=1"), "{loud}");
        assert!(loud.starts_with(&quiet), "fault lines append, not reorder");
    }

    #[test]
    fn aggregate_section_is_strictly_opt_in() {
        let mut r = SimReport::default();
        let plain = r.fingerprint();
        assert!(
            !plain.contains("aggregate delay"),
            "per-flow mode must leave the fingerprint untouched: {plain}"
        );
        let mut agg = AggregateQos::new();
        agg.record(12.0);
        agg.record(40.0);
        assert_eq!(agg.count(), 2);
        r.aggregate = Some(agg);
        let loud = r.fingerprint();
        assert!(loud.contains("aggregate delay: n=2"), "{loud}");
        assert!(loud.contains("aggregate delay pcts:"), "{loud}");
        assert!(
            loud.starts_with(&plain),
            "aggregate lines append, not reorder"
        );
    }
}
