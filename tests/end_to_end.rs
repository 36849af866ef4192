//! End-to-end scenario tests: full worlds, every architecture, asserting
//! the reproduction's headline shapes (the claims recorded in
//! `EXPERIMENTS.md`). These are the slowest tests in the suite; they use
//! moderate windows and release-friendly populations.

use mtnet_core::{ArchKind, ScenarioSpec};

#[test]
fn all_architectures_deliver_traffic() {
    for arch in [
        ArchKind::multi_tier(),
        ArchKind::multi_tier_hard(),
        ArchKind::multi_tier_no_rsmc(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ] {
        let r = ScenarioSpec::small_city()
            .with_raw_seed(1)
            .with_arch(arch)
            .with_duration_s(45.0)
            .run(0);
        let q = r.aggregate_qos();
        assert!(q.sent > 1000, "{}: traffic generated", arch.label());
        assert!(
            q.loss_rate < 0.5,
            "{}: catastrophic loss {:.3} (drops {:?})",
            arch.label(),
            q.loss_rate,
            r.drops
        );
        assert!(
            q.received <= q.sent,
            "{}: accounting sane (dups filtered)",
            arch.label()
        );
    }
}

#[test]
fn multi_tier_beats_pure_mobile_ip_on_delay() {
    // Triangle routing vs RSMC route optimization (the E2/E10 shape).
    let base = ScenarioSpec::small_city()
        .with_raw_seed(2)
        .with_duration_s(60.0);
    let multi = base.run(0).aggregate_qos();
    let pure = base
        .with_arch(ArchKind::PureMobileIp)
        .run(0)
        .aggregate_qos();
    assert!(
        multi.mean_delay_ms + 10.0 < pure.mean_delay_ms,
        "optimized {:.1}ms should be well under triangle {:.1}ms",
        multi.mean_delay_ms,
        pure.mean_delay_ms
    );
}

#[test]
fn multi_tier_beats_flat_cip_for_fast_nodes() {
    // The macro umbrella is the whole point of the multi-tier design
    // (the E11 shape): fast nodes outrun a micro-only deployment.
    let base = ScenarioSpec::small_city()
        .with_raw_seed(3)
        .with_population(0, 0, 2)
        .with_duration_s(120.0);
    let multi = base.run(0);
    let flat = base.with_arch(ArchKind::FlatCellularIp).run(0);
    assert!(
        multi.aggregate_qos().loss_rate < flat.aggregate_qos().loss_rate,
        "multi-tier loss {:.4} must beat flat CIP {:.4}",
        multi.aggregate_qos().loss_rate,
        flat.aggregate_qos().loss_rate
    );
    assert!(
        multi.handoffs.outage_samples < flat.handoffs.outage_samples,
        "macro umbrella covers the inter-domain gaps"
    );
}

#[test]
fn rsmc_reduces_delay_vs_no_rsmc() {
    let base = ScenarioSpec::small_city()
        .with_raw_seed(4)
        .with_duration_s(60.0);
    let with = base.run(0).aggregate_qos();
    let without = base
        .with_arch(ArchKind::multi_tier_no_rsmc())
        .run(0)
        .aggregate_qos();
    assert!(
        with.mean_delay_ms < without.mean_delay_ms,
        "RSMC CN-notification should cut delay: {:.1} !< {:.1}",
        with.mean_delay_ms,
        without.mean_delay_ms
    );
}

#[test]
fn handoff_reports_are_internally_consistent() {
    let r = ScenarioSpec::small_city()
        .with_raw_seed(5)
        .with_population(4, 2, 2)
        .with_duration_s(120.0)
        .run(0);
    // Every latency sample belongs to a completed handoff type.
    for (ht, summary) in &r.handoffs.latency_ms {
        let completed = r.handoffs.completed.get(ht).copied().unwrap_or(0);
        assert!(
            summary.count() <= completed,
            "{ht}: {} latency samples but only {completed} completions",
            summary.count()
        );
    }
    // Signaling per handoff is finite and positive when handoffs happened.
    if r.handoffs.total() > 0 {
        assert!(r.signaling_per_handoff() > 0.0);
    }
}

#[test]
fn longer_runs_do_not_leak_state() {
    // Soft state must stay bounded: run long, verify caches swept.
    let r = ScenarioSpec::single_domain()
        .with_raw_seed(6)
        .with_duration_s(240.0)
        .run(0);
    let q = r.aggregate_qos();
    assert!(
        q.loss_rate < 0.05,
        "steady state stays healthy: {:.4}",
        q.loss_rate
    );
    // Events scale linearly-ish with time; a leak would explode this.
    assert!(
        r.events_processed < 3_000_000,
        "event count sane: {}",
        r.events_processed
    );
}

#[test]
fn seeded_reproducibility_across_architectures() {
    for arch in [ArchKind::multi_tier(), ArchKind::FlatCellularIp] {
        let spec = ScenarioSpec::commute_corridor()
            .with_raw_seed(9)
            .with_arch(arch)
            .with_duration_s(30.0);
        let (a, b) = (spec.run(0), spec.run(0));
        assert_eq!(a.events_processed, b.events_processed, "{}", arch.label());
        assert_eq!(
            a.aggregate_qos().received,
            b.aggregate_qos().received,
            "{}",
            arch.label()
        );
    }
}
