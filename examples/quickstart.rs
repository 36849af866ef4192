//! Quickstart: build the paper's multi-tier architecture, run a minute of
//! simulated multimedia traffic, and print the QoS report.
//!
//! ```text
//! cargo run -p mtnet-bench --example quickstart
//! ```

use mtnet_core::ScenarioSpec;

fn main() {
    // The standard three-domain city: domains 0 and 1 share an upper-layer
    // BS (the paper's R3), domain 2 stands alone; pedestrians walk the
    // street rows, vehicles shuttle the corridor. Everyone carries a voice
    // call; every third node streams video.
    let spec = ScenarioSpec::small_city()
        .with_raw_seed(42)
        .with_duration_s(60.0);
    println!(
        "running `{}` over {} domains ({} m corridor)…",
        spec.arch.label(),
        spec.n_domains,
        spec.corridor_width()
    );

    let report = spec.run(0);

    let qos = report.aggregate_qos();
    println!("\n--- aggregate QoS over 60 simulated seconds ---");
    println!("packets sent       : {}", qos.sent);
    println!("packets delivered  : {}", qos.received);
    println!("loss rate          : {:.3}%", qos.loss_rate * 100.0);
    println!("mean one-way delay : {:.1} ms", qos.mean_delay_ms);
    println!("p95 one-way delay  : {:.1} ms", qos.p95_delay_ms);
    println!("jitter (RFC 3550)  : {:.2} ms", qos.jitter_ms);

    println!("\n--- mobility ---");
    for (htype, count) in &report.handoffs.completed {
        println!("{htype}: {count}");
    }
    println!("ping-pong handoffs : {}", report.handoffs.ping_pong);

    println!("\n--- signaling overhead ---");
    println!(
        "location messages  : {}",
        report.signaling.location_messages
    );
    println!("route updates      : {}", report.signaling.route_updates);
    println!("MIP registrations  : {}", report.signaling.mip_requests);
    println!(
        "RSMC notifications : {}",
        report.signaling.rsmc_notifications
    );
    println!("control bytes      : {}", report.signaling.control_bytes);

    println!("\nper-flow QoS:");
    for (flow, q) in report.flow_reports() {
        println!(
            "  {flow}: sent={} loss={:.3}% delay={:.1}ms",
            q.sent,
            q.loss_rate * 100.0,
            q.mean_delay_ms
        );
    }
}
