//! Workload loading and one checked world run.
//!
//! A workload is a directory of `.mtspec` files under `workloads/`; its
//! worlds run one after another in file-name order (a closed loop: the
//! next world starts when the previous one ends). The master seed is the
//! harness's `--seed`; every spec derives its world seed from it through
//! a `seed = path …` line, so the same seed gives the same inputs.

use crate::measure::{fnv1a, FNV_OFFSET};
use crate::trace::{span, MaybeTracer};
use mtnet_core::world::run_sharded;
use mtnet_core::{ScenarioSpec, SimReport};
use mtnet_sim::SimDuration;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// One world of a workload: the spec file's text and its parsed form.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// File name inside the workload directory.
    pub file: String,
    /// The text handed to `ScenarioSpec::parse` on every repeat.
    pub text: String,
    /// The parsed spec (shape source for the layer replays).
    pub spec: ScenarioSpec,
    /// `parse(render(spec)) == spec`; a world whose spec does not
    /// round-trip fails every run.
    pub round_trips: bool,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Directory name under `workloads/`.
    pub name: String,
    /// Its worlds, in run order.
    pub worlds: Vec<WorldSpec>,
}

impl Workload {
    /// Threads the workload runs on: its largest `shards` value (the
    /// shard layer runs one OS thread per shard, nothing else spawns).
    pub fn threads(&self) -> u32 {
        self.worlds.iter().map(|w| w.spec.shards).max().unwrap_or(1)
    }

    /// Simulated seconds one repeat covers.
    pub fn sim_seconds(&self) -> f64 {
        self.worlds.iter().map(|w| w.spec.duration_s).sum()
    }
}

/// Loads `root/workloads/<name>/*.mtspec`. `smoke_duration_s` shortens
/// every world to that many simulated seconds (the harness tests' size)
/// by appending one `duration_s` line — the format's "last key wins".
pub fn load(root: &Path, name: &str, smoke_duration_s: Option<f64>) -> Result<Workload, String> {
    let dir = root.join("workloads").join(name);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mtspec"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .mtspec files", dir.display()));
    }
    let mut worlds = Vec::new();
    for path in files {
        let mut text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(secs) = smoke_duration_s {
            text.push_str(&format!("duration_s = {secs:?}\n"));
        }
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let round_trips = ScenarioSpec::parse(&spec.render()).as_ref() == Ok(&spec);
        worlds.push(WorldSpec {
            file: path
                .file_name()
                .expect("listed file has a name")
                .to_string_lossy()
                .into_owned(),
            text,
            spec,
            round_trips,
        });
    }
    Ok(Workload {
        name: name.to_string(),
        worlds,
    })
}

/// The exact counts one world's report carries, by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `sim.events`
    pub events: u64,
    /// `traffic.pkts_sent`
    pub pkts_sent: u64,
    /// `traffic.pkts_received`
    pub pkts_received: u64,
    /// `net.drops`
    pub drops: u64,
    /// `core.handoffs`
    pub handoffs: u64,
    /// `core.handoff_rejects`
    pub handoff_rejects: u64,
    /// `core.calls_blocked`
    pub calls_blocked: u64,
    /// `core.signaling_msgs`
    pub signaling_msgs: u64,
    /// `core.location_msgs`
    pub location_msgs: u64,
    /// `core.rsmc_notifications`
    pub rsmc_notifications: u64,
    /// `cellularip.route_updates`
    pub route_updates: u64,
    /// `cellularip.paging_updates`
    pub paging_updates: u64,
    /// `mobileip.registrations`
    pub registrations: u64,
}

impl Counts {
    fn of(report: &SimReport) -> Counts {
        Counts {
            events: report.events_processed,
            pkts_sent: report.flows.iter().map(|(_, q)| q.sent()).sum(),
            pkts_received: report.flows.iter().map(|(_, q)| q.received()).sum(),
            drops: report.total_drops(),
            handoffs: report.handoffs.total(),
            handoff_rejects: report.handoffs.rejected,
            calls_blocked: report.calls_blocked,
            signaling_msgs: report.signaling.total_messages(),
            location_msgs: report.signaling.location_messages,
            rsmc_notifications: report.signaling.rsmc_notifications,
            route_updates: report.signaling.route_updates,
            paging_updates: report.signaling.paging_updates,
            registrations: report.signaling.mip_requests,
        }
    }

    /// Every count under its metric name.
    pub fn named(&self) -> [(&'static str, u64); 13] {
        [
            ("sim.events", self.events),
            ("traffic.pkts_sent", self.pkts_sent),
            ("traffic.pkts_received", self.pkts_received),
            ("net.drops", self.drops),
            ("core.handoffs", self.handoffs),
            ("core.handoff_rejects", self.handoff_rejects),
            ("core.calls_blocked", self.calls_blocked),
            ("core.signaling_msgs", self.signaling_msgs),
            ("core.location_msgs", self.location_msgs),
            ("core.rsmc_notifications", self.rsmc_notifications),
            ("cellularip.route_updates", self.route_updates),
            ("cellularip.paging_updates", self.paging_updates),
            ("mobileip.registrations", self.registrations),
        ]
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.pkts_sent += o.pkts_sent;
        self.pkts_received += o.pkts_received;
        self.drops += o.drops;
        self.handoffs += o.handoffs;
        self.handoff_rejects += o.handoff_rejects;
        self.calls_blocked += o.calls_blocked;
        self.signaling_msgs += o.signaling_msgs;
        self.location_msgs += o.location_msgs;
        self.rsmc_notifications += o.rsmc_notifications;
        self.route_updates += o.route_updates;
        self.paging_updates += o.paging_updates;
        self.registrations += o.registrations;
    }
}

/// What one world run took and produced.
#[derive(Debug, Clone)]
pub struct WorldRun {
    /// `ScenarioSpec::parse` wall, seconds.
    pub parse_s: f64,
    /// `ScenarioSpec::build` wall, seconds.
    pub build_s: f64,
    /// Run-phase wall, seconds.
    pub run_s: f64,
    /// `SimReport::fingerprint` wall, seconds.
    pub fingerprint_s: f64,
    /// Hash of the fingerprint text.
    pub digest: u64,
    /// The report's exact counts.
    pub counts: Counts,
    /// Conservation checks that failed (empty on a sound run).
    pub violations: Vec<String>,
}

/// The sanity checks every report must pass; see README "Failures".
fn violations(report: &SimReport, counts: &Counts) -> Vec<String> {
    let mut out = Vec::new();
    if report.events_processed == 0 {
        out.push("no events processed".to_string());
    }
    for (flow, qos) in &report.flows {
        // In-order deliveries carry distinct sequence numbers, so there
        // are at most `sent` of them. An out-of-order arrival may be a
        // late semisoft-bicast duplicate, which `FlowQos` counts as
        // delivered (only a duplicate of the *highest* sequence number is
        // recognised as one), so those are allowed on top.
        let late = qos.report(report.duration).out_of_order;
        if qos.received() > qos.sent() + late {
            out.push(format!(
                "flow {flow}: received {} > sent {} + out-of-order {late}",
                qos.received(),
                qos.sent()
            ));
        }
    }
    if counts.drops > counts.pkts_sent {
        out.push(format!(
            "drops {} > packets sent {}",
            counts.drops, counts.pkts_sent
        ));
    }
    out
}

/// Runs one world once: parse, build, run, fingerprint, checks — each
/// boundary timed (and spanned when `tracer` is on). `sequential` forces
/// `shards = 1` on the parsed spec: `metro_busy_x2`'s reference twin.
/// A panic anywhere inside comes back as `Err` with its message.
pub fn run_world(
    world: &WorldSpec,
    seed: u64,
    sequential: bool,
    tracer: &mut MaybeTracer<'_>,
    parent: Option<usize>,
) -> Result<WorldRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut spec = span(tracer, "parse", parent, || {
            ScenarioSpec::parse(&world.text).expect("spec parsed at load")
        });
        if sequential {
            spec.shards = 1;
        }
        let t1 = Instant::now();
        let built = span(tracer, "build", parent, || spec.build(seed));
        let t2 = Instant::now();
        let duration = SimDuration::from_secs_f64(spec.duration_s);
        let report = span(tracer, "run", parent, || {
            if spec.shards > 1 {
                // The first replica is the world built above (so set-up
                // time means the same on every workload); the shard layer
                // builds the others itself, inside the run phase, where
                // their cost belongs.
                let first = Cell::new(Some(built));
                run_sharded(
                    || first.take().unwrap_or_else(|| spec.build(seed)),
                    duration,
                    spec.shards,
                )
            } else {
                built.run(duration)
            }
        });
        let t3 = Instant::now();
        let digest = span(tracer, "fingerprint", parent, || {
            fnv1a(FNV_OFFSET, report.fingerprint().as_bytes())
        });
        let t4 = Instant::now();
        let counts = Counts::of(&report);
        WorldRun {
            parse_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            run_s: (t3 - t2).as_secs_f64(),
            fingerprint_s: (t4 - t3).as_secs_f64(),
            digest,
            violations: violations(&report, &counts),
            counts,
        }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One pass over every world of a workload.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Per world, in run order.
    pub worlds: Vec<Result<WorldRun, String>>,
    /// Wall of the whole pass, checks included, seconds.
    pub wall_s: f64,
}

impl Repeat {
    fn sum(&self, f: impl Fn(&WorldRun) -> f64) -> f64 {
        self.worlds.iter().flatten().map(f).sum()
    }

    /// Set-up wall: spec parse + build for every world.
    pub fn setup_s(&self) -> f64 {
        self.sum(|w| w.parse_s + w.build_s)
    }

    /// Run-phase wall summed over the worlds.
    pub fn run_s(&self) -> f64 {
        self.sum(|w| w.run_s)
    }

    /// Per-world fingerprint hashes (0 for a world that panicked).
    pub fn digests(&self) -> Vec<u64> {
        self.worlds
            .iter()
            .map(|w| w.as_ref().map_or(0, |w| w.digest))
            .collect()
    }

    /// Counts summed over the worlds.
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for w in self.worlds.iter().flatten() {
            total.add(&w.counts);
        }
        total
    }
}

/// Runs every world of `workload` once, in order.
pub fn run_repeat(
    workload: &Workload,
    seed: u64,
    sequential: bool,
    tracer: &mut MaybeTracer<'_>,
) -> Repeat {
    let start = Instant::now();
    let root = tracer.as_mut().map(|t| t.begin("repeat", None));
    let worlds = workload
        .worlds
        .iter()
        .map(|w| run_world(w, seed, sequential, tracer, root))
        .collect();
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.end(id);
    }
    Repeat {
        worlds,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The workload's results digest: a hash over its worlds' fingerprint
/// hashes, as 16 hex digits.
pub fn results_digest(digests: &[u64]) -> String {
    let h = digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()));
    format!("{h:016x}")
}
