//! Idle-mode economics: Cellular IP's active/idle split in action.
//!
//! A web-browsing population is mostly idle (think times dwarf fetch
//! times). Idle nodes send only coarse paging updates; the first packet of
//! each new fetch may need a page. This example shows the signaling the
//! idle machinery saves and what paging costs in exchange.
//!
//! ```text
//! cargo run -p mtnet-bench --example paging_idle --release
//! ```

use mtnet_core::{ArchKind, ScenarioSpec};

fn main() {
    let secs = 600.0;
    // Web-only traffic (the preset's every-fourth-node web flows, voice
    // and video off): long idle gaps between bursts.
    let base = ScenarioSpec {
        voice_every: 0,
        video_every: 0,
        ..ScenarioSpec::single_domain()
    }
    .with_raw_seed(5)
    .with_population(6, 0, 0)
    .with_duration_s(secs);

    println!("six browsing pedestrians, {secs:.0} s simulated\n");
    for arch in [ArchKind::multi_tier(), ArchKind::multi_tier_no_rsmc()] {
        let report = base.clone().with_arch(arch).run(0);
        let q = report.aggregate_qos();
        println!("=== {} ===", arch.label());
        println!("web goodput          : {:.0} bit/s", q.throughput_bps);
        println!("loss                 : {:.3}%", q.loss_rate * 100.0);
        println!("route updates (active): {}", report.signaling.route_updates);
        println!(
            "paging updates (idle) : {}",
            report.signaling.paging_updates
        );
        println!("pages transmitted     : {}", report.signaling.page_messages);
        println!(
            "paging drops          : {}",
            report
                .drops
                .get(&mtnet_core::report::DropCause::Paging)
                .copied()
                .unwrap_or(0)
        );
        let ru_rate = report.signaling.route_updates as f64 / secs;
        println!("route updates/s       : {ru_rate:.2} (an always-active node sends 1.0)\n");
    }
    println!(
        "idle nodes keep only coarse paging state; the first packet of a\n\
         fetch is answered from the RSMC's combined location cache (left)\n\
         or must fall back to Cellular IP paging (right) — §2.2.2 folded\n\
         into the RSMC by §4."
    );
}
