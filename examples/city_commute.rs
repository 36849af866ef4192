//! A commuter's day: one vehicle crosses three administrative domains at
//! highway speed while on a voice call, exercising every tier of the
//! paper's mobility management — speed-based macro-tier assignment,
//! intra-domain handoffs, and both inter-domain procedures (same upper BS,
//! Fig 3.2, and different upper BS, Fig 3.3).
//!
//! ```text
//! cargo run -p mtnet-bench --example city_commute --release
//! ```

use mtnet_core::{ArchKind, ScenarioSpec};

fn main() {
    // Domains 0 and 1 share an upper BS; domain 2 stands alone, so the
    // 1→2 boundary forces the expensive home-network procedure.
    let secs = 720.0; // one full out-and-back across the 9 km corridor
    let base = ScenarioSpec::small_city()
        .with_raw_seed(99)
        .with_population(0, 0, 2)
        .with_duration_s(secs);

    println!("two commuters, 9 km corridor, 3 domains, {secs:.0} s simulated\n");
    for arch in [ArchKind::multi_tier(), ArchKind::PureMobileIp] {
        let report = base.clone().with_arch(arch).run(0);
        let q = report.aggregate_qos();
        println!("=== {} ===", arch.label());
        println!(
            "voice loss {:.3}%  mean delay {:.1} ms  registrations {}",
            q.loss_rate * 100.0,
            q.mean_delay_ms,
            report.signaling.mip_requests
        );
        for (htype, count) in &report.handoffs.completed {
            let lat = report
                .handoffs
                .latency_ms
                .get(htype)
                .map(|s| format!("{:.0} ms", s.mean()))
                .unwrap_or_else(|| "-".into());
            println!("  {htype}: {count} (restore latency {lat})");
        }
        println!();
    }
    println!(
        "the same-upper crossing resolves over the shared upper BS in\n\
         milliseconds; the different-upper crossing pays the home-network\n\
         round trip — exactly the Fig 3.2 vs Fig 3.3 distinction."
    );
}
