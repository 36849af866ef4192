//! Multimedia during handoff: the paper's headline claim, demonstrated.
//!
//! A cyclist carries a voice + video session along a street of micro
//! cells, handing off every couple of minutes. We run the identical
//! workload under hard handoff and under the proposed semisoft + RSMC
//! scheme and compare what the media streams experienced.
//!
//! ```text
//! cargo run -p mtnet-bench --example multimedia_handoff --release
//! ```

use mtnet_core::{ArchKind, ScenarioSpec};

fn main() {
    let secs = 400.0;
    let base = ScenarioSpec::single_domain()
        .with_raw_seed(7)
        .with_population(0, 4, 0)
        .with_duration_s(secs);

    println!("four cyclists, voice+video, {secs:.0} s simulated\n");
    println!(
        "{:<22} {:>9} {:>9} {:>10} {:>11} {:>11}",
        "scheme", "handoffs", "loss %", "jitter ms", "lost pkts", "duplicates"
    );
    for arch in [ArchKind::multi_tier_hard(), ArchKind::multi_tier()] {
        let report = base.clone().with_arch(arch).run(0);
        let q = report.aggregate_qos();
        println!(
            "{:<22} {:>9} {:>9.3} {:>10.2} {:>11} {:>11}",
            arch.label(),
            report.handoffs.total(),
            q.loss_rate * 100.0,
            q.jitter_ms,
            q.sent - q.received,
            q.duplicates,
        );
    }
    println!(
        "\nsemisoft trades a few duplicated packets (bicast during the\n\
         handoff window) for packets that hard handoff would have dropped\n\
         on the abandoned branch — the paper's §2.2.2/§5 argument."
    );
}
