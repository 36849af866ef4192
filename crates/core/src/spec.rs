//! Declarative scenario specifications and their canonical text format.
//!
//! A [`ScenarioSpec`] **fully** describes one simulation run — tier
//! layout and cell geometry, mobility mix with speed profiles, traffic
//! mix, protocol knobs, duration and seed derivation — as plain data.
//! [`ScenarioSpec::build`] is the single world-assembly path: the presets,
//! every experiment runner and every sweep cell go through it, so a run
//! is reproducible from `(canonical spec text, master seed)` alone. That
//! pair is exactly what the sweep engine's content-addressed result store
//! keys on.
//!
//! The text format is a deliberately small hand-rolled `key = value`
//! line format (the vendored `serde` is marker-only, so there is no
//! derive-based serializer to lean on): [`ScenarioSpec::render`] emits
//! the canonical form — every field, fixed order, round-trip-exact
//! floats — and [`ScenarioSpec::parse`] reads it back such that
//! `parse(render(s)) == s` for every valid spec. [`ScenarioSpec::set`]
//! applies one `key = value` assignment and is shared by the parser and
//! the sweep engine's axis expansion, so an axis can sweep any field the
//! format names.
//!
//! ```
//! use mtnet_core::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::commute_corridor().with_seed_path("demo", "arm", 0);
//! let text = spec.render();
//! assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
//! let report = spec.with_duration_s(20.0).run(42);
//! assert!(report.aggregate_qos().sent > 0);
//! ```

use crate::handoff::{DecisionConfig, HandoffFactors};
use crate::report::{RunReport, SimReport};
use crate::scenario::ArchKind;
use crate::world::{DomainSpec, FlowKind, LoadCurve, World, WorldBuilder, WorldConfig};
use mtnet_cellularip::HandoffKind;
use mtnet_mobility::{LinearCommute, Point, RandomWaypoint, Rect, SpeedClass};
use mtnet_radio::CellKind;
use mtnet_sim::rng::seed_for_path;
use mtnet_sim::SimDuration;

/// How a spec's world seed is derived at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedSpec {
    /// A literal 64-bit seed; the master seed is ignored.
    Raw(u64),
    /// A label path plus replication index resolved against the master
    /// seed via [`mtnet_sim::rng::seed_for_path`] — the derivation
    /// experiment arms (`["E10", arm]`) and sweep cells
    /// (`["sweep", family, cell]`) share.
    Path {
        /// Label segments, outermost first.
        path: Vec<String>,
        /// Replication index within the path's namespace.
        replication: u64,
    },
}

impl SeedSpec {
    /// The world seed this spec resolves to under `master_seed`.
    pub fn resolve(&self, master_seed: u64) -> u64 {
        match self {
            SeedSpec::Raw(seed) => *seed,
            SeedSpec::Path { path, replication } => seed_for_path(master_seed, path, *replication),
        }
    }

    /// The replication index (0 for raw seeds).
    pub fn replication(&self) -> u64 {
        match self {
            SeedSpec::Raw(_) => 0,
            SeedSpec::Path { replication, .. } => *replication,
        }
    }
}

/// One administrative cell-outage window: the BS stops answering every
/// measurement path from `start_s` to `end_s`, then comes back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutage {
    /// Cell id, in build order: each domain allocates its macro (or
    /// satellite) cell first, then its micro row left to right; a shared
    /// upper BS claims one id when its region first appears.
    pub cell: u32,
    /// Outage start, seconds of simulated time.
    pub start_s: f64,
    /// Restore time, seconds (must exceed `start_s`).
    pub end_s: f64,
}

/// A periodic up/down flap schedule for one domain's wide-area uplink
/// (the Internet ↔ RSMC duplex link pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlap {
    /// Domain index whose uplink flaps (the satellite overlay, when
    /// deployed, is the last domain).
    pub domain: u32,
    /// Nominal time of the first down transition, seconds.
    pub start_s: f64,
    /// Flap period, seconds.
    pub period_s: f64,
    /// Fraction of each period spent down, strictly inside (0, 1).
    pub duty: f64,
    /// Per-transition jitter bound, seconds: every down/up edge shifts
    /// late by a seeded uniform draw in `[0, jitter_s)`. Must stay below
    /// `period_s * min(duty, 1 - duty)` so the edge stream remains
    /// strictly ordered and paired.
    pub jitter_s: f64,
    /// Number of down/up cycles.
    pub count: u32,
}

/// An RSMC crash, optionally followed by a standby takeover.
///
/// While dead the RSMC answers nothing — registrations, replies and
/// inter-domain updates addressed to it die at the gateway, and its
/// location/authentication soft state is flushed (the standby starts
/// cold). Plain packet routing through the gateway router survives: the
/// fault is control-plane death, not a line cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsmcFailover {
    /// Domain index whose RSMC dies.
    pub domain: u32,
    /// Crash time, seconds.
    pub at_s: f64,
    /// Standby takeover delay, seconds after the crash; `None` keeps the
    /// RSMC dead for the rest of the run.
    pub takeover_s: Option<f64>,
}

/// A satellite eclipse window: every satellite-tier cell stops answering
/// RSSI probes from `start_s` to `end_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EclipseWindow {
    /// Eclipse start, seconds.
    pub start_s: f64,
    /// Eclipse end, seconds (must exceed `start_s`).
    pub end_s: f64,
}

/// The spec's fault-injection section: deterministic infrastructure
/// failure schedules compiled into the world's fault plan at build time.
///
/// Empty by default, rendered only when non-empty — a spec with an empty
/// `faults` section is byte-identical (text and fingerprint) to one that
/// predates the subsystem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// BS outage windows.
    pub cell_outages: Vec<CellOutage>,
    /// Wired-uplink flap schedules.
    pub link_flaps: Vec<LinkFlap>,
    /// RSMC crash / takeover events.
    pub rsmc_failovers: Vec<RsmcFailover>,
    /// Satellite eclipse windows.
    pub eclipses: Vec<EclipseWindow>,
}

impl FaultSpec {
    /// True when no fault of any category is scheduled.
    pub fn is_empty(&self) -> bool {
        self.cell_outages.is_empty()
            && self.link_flaps.is_empty()
            && self.rsmc_failovers.is_empty()
            && self.eclipses.is_empty()
    }

    /// Consistency checks against the spec's domain count (the satellite
    /// overlay counts as one extra domain).
    fn validate(&self, total_domains: u32) -> Result<(), SpecError> {
        for o in &self.cell_outages {
            let ok = o.start_s.is_finite()
                && o.end_s.is_finite()
                && o.start_s >= 0.0
                && o.start_s < o.end_s;
            if !ok {
                return Err(err(format!(
                    "cell outage for cell {} needs finite 0 <= start < end",
                    o.cell
                )));
            }
        }
        for f in &self.link_flaps {
            if f.domain >= total_domains {
                return Err(err(format!(
                    "link flap domain {} out of range ({total_domains} domains)",
                    f.domain
                )));
            }
            if f.count == 0 {
                return Err(err("link flap count must be >= 1"));
            }
            let finite = f.start_s.is_finite()
                && f.period_s.is_finite()
                && f.duty.is_finite()
                && f.jitter_s.is_finite();
            if !finite
                || f.start_s < 0.0
                || f.period_s <= 0.0
                || !(f.duty > 0.0 && f.duty < 1.0)
                || f.jitter_s < 0.0
            {
                return Err(err(
                    "link flap needs start >= 0, period > 0, duty in (0,1), jitter >= 0, all finite",
                ));
            }
            // Jittered edges must stay inside their half-period, so the
            // expanded down/up stream is strictly monotone and paired.
            if f.jitter_s >= f.period_s * f.duty.min(1.0 - f.duty) {
                return Err(err(
                    "link flap jitter must be < period * min(duty, 1-duty) to keep edges ordered",
                ));
            }
        }
        for r in &self.rsmc_failovers {
            if r.domain >= total_domains {
                return Err(err(format!(
                    "rsmc failover domain {} out of range ({total_domains} domains)",
                    r.domain
                )));
            }
            if !(r.at_s.is_finite() && r.at_s >= 0.0) {
                return Err(err("rsmc failover time must be non-negative and finite"));
            }
            if let Some(t) = r.takeover_s {
                if !(t.is_finite() && t > 0.0) {
                    return Err(err("rsmc takeover delay must be positive and finite"));
                }
            }
        }
        for e in &self.eclipses {
            let ok = e.start_s.is_finite()
                && e.end_s.is_finite()
                && e.start_s >= 0.0
                && e.start_s < e.end_s;
            if !ok {
                return Err(err("eclipse window needs finite 0 <= start < end"));
            }
        }
        Ok(())
    }
}

/// A complete, declarative description of one simulation run.
///
/// Defaults (via the presets and [`ScenarioSpec::base`]) reproduce the
/// paper's geometry: 3 km domain strips, a street row at y = 1500 m,
/// 400 m micro spacing, pedestrians pausing 10 s, cyclists at 6 m/s,
/// highway vehicles at 25 m/s.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario family name (store keys, sweep labels, tables).
    pub name: String,
    /// Seed derivation.
    pub seed: SeedSpec,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Architecture under test.
    pub arch: ArchKind,
    /// Domains laid out left to right.
    pub n_domains: u32,
    /// Street-row cells per domain.
    pub micro_per_domain: u32,
    /// Tier of the street-row cells (micro, or pico for dense-urban).
    pub micro_kind: CellKind,
    /// Spacing between adjacent street-row BSs, meters.
    pub micro_spacing_m: f64,
    /// Width of one domain strip, meters.
    pub domain_width_m: f64,
    /// The street row's y coordinate, meters.
    pub street_y_m: f64,
    /// Consecutive domain pairs share an upper BS (Fig 3.2); `false`
    /// makes every inter-domain handoff the Fig 3.3 different-upper case.
    pub share_upper: bool,
    /// Remove the middle domain's macro radio (rural coverage hole).
    pub macro_hole: bool,
    /// Add a satellite overlay domain covering the whole corridor.
    pub satellite: bool,
    /// Walking users wandering one domain's street row.
    pub pedestrians: u32,
    /// Cyclists shuttling along one domain's street row.
    pub cyclists: u32,
    /// Highway vehicles shuttling across the whole corridor.
    pub vehicles: u32,
    /// Speed class of the pedestrian random-waypoint population.
    pub pedestrian_class: SpeedClass,
    /// Pedestrian pause at each waypoint, seconds.
    pub pedestrian_pause_s: f64,
    /// Cyclist shuttle speed, m/s (below the tier threshold keeps them
    /// micro-tier customers).
    pub cyclist_speed_mps: f64,
    /// Vehicle shuttle speed, m/s.
    pub vehicle_speed_mps: f64,
    /// Every n-th node gets a voice flow (1 = all, 0 = none).
    pub voice_every: u32,
    /// Every n-th node gets a video flow (1 = all, 0 = none).
    pub video_every: u32,
    /// Every n-th node gets a web flow (1 = all, 0 = none).
    pub web_every: u32,
    /// §3.2 decision factors.
    pub factors: HandoffFactors,
    /// Overrides the Cellular IP route-update period, ms.
    pub route_update_ms: Option<u64>,
    /// Overrides the semisoft bicast delay, ms (no effect on hard
    /// handoff architectures).
    pub semisoft_delay_ms: Option<u64>,
    /// Overrides the cell-table record time-limitation, ms.
    pub table_lifetime_ms: Option<u64>,
    /// Overrides the idle-node paging-update period, ms.
    pub paging_update_ms: Option<u64>,
    /// Overrides the mobility measurement period, ms. Metro-scale worlds
    /// stretch this (5 s and up) so a million slow pedestrians don't
    /// burn the event budget re-measuring RSSI five times a second.
    pub move_sample_ms: Option<u64>,
    /// Overrides the §3.1 Location Message period, ms.
    pub location_update_ms: Option<u64>,
    /// World-level aggregate QoS: per-flow delay distributions collapse
    /// into one constant-memory accumulator (see
    /// `mtnet_core::report::AggregateQos`). Off by default; rendered
    /// only when on, so pre-metro canonical texts are unchanged.
    pub aggregate_qos: bool,
    /// Commute-hour load curve `(period_s, off_peak_factor)`: flow
    /// inter-arrival gaps stretch by up to `off_peak_factor` at the
    /// period edges and run at full rate at the mid-period peak. A pure
    /// function of simulated time, so determinism is untouched. `None`
    /// (the default) leaves traffic flat.
    pub load_curve: Option<(f64, f64)>,
    /// Metro admission semantics: nodes without flows camp at paging
    /// level instead of holding a traffic channel, so channel pools are
    /// sized by the *active* population (Cellular IP's idle state). Off
    /// by default — every node competes for a channel, the behaviour
    /// E1–E13 are pinned to — and rendered only when on.
    pub idle_camping: bool,
    /// Intra-world parallel shards (1 = sequential engine). Any value
    /// produces byte-identical results; see [`crate::world::shard`].
    pub shards: u32,
    /// Fault-injection schedules (empty by default; see [`FaultSpec`]).
    pub faults: FaultSpec,
}

/// A parse/assignment error: which line (1-based, 0 for non-line errors)
/// and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number within the parsed text, 0 when not line-bound.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for SpecError {}

fn err(message: impl Into<String>) -> SpecError {
    SpecError {
        line: 0,
        message: message.into(),
    }
}

/// Quotes a string for the spec format (`"` and `\` escaped).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// [`tokens`] with `none` meaning "no entries" — every `fault.*` key
/// accepts it so a sweep axis can carry an off arm.
fn fault_tokens(value: &str) -> Result<Vec<String>, SpecError> {
    if value.trim() == "none" {
        return Ok(Vec::new());
    }
    tokens(value)
}

/// Splits a value into whitespace-separated tokens, honoring quoting.
fn tokens(value: &str) -> Result<Vec<String>, SpecError> {
    let mut out = Vec::new();
    let mut chars = value.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut tok = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some(e @ ('"' | '\\')) => tok.push(e),
                        _ => return Err(err("bad escape in quoted string")),
                    },
                    Some('"') => break,
                    Some(c) => tok.push(c),
                    None => return Err(err("unterminated quoted string")),
                }
            }
            out.push(tok);
        } else {
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                tok.push(c);
                chars.next();
            }
            out.push(tok);
        }
    }
    Ok(out)
}

/// The single string a quoted value must contain.
fn one_string(value: &str) -> Result<String, SpecError> {
    let toks = tokens(value)?;
    match <[String; 1]>::try_from(toks) {
        Ok([s]) => Ok(s),
        Err(toks) => Err(err(format!(
            "expected one string, got {} tokens",
            toks.len()
        ))),
    }
}

fn parse_bool(value: &str) -> Result<bool, SpecError> {
    match value {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        other => Err(err(format!("expected on/off, got {other:?}"))),
    }
}

fn parse_f64(value: &str) -> Result<f64, SpecError> {
    value
        .parse::<f64>()
        .map_err(|_| err(format!("expected a number, got {value:?}")))
}

fn parse_u32(value: &str) -> Result<u32, SpecError> {
    value
        .parse::<u32>()
        .map_err(|_| err(format!("expected a non-negative integer, got {value:?}")))
}

fn parse_opt_ms(value: &str) -> Result<Option<u64>, SpecError> {
    if value == "none" {
        return Ok(None);
    }
    value
        .parse::<u64>()
        .map(Some)
        .map_err(|_| err(format!("expected milliseconds or none, got {value:?}")))
}

fn render_opt_ms(v: Option<u64>) -> String {
    v.map_or_else(|| "none".into(), |ms| ms.to_string())
}

/// Header line of the canonical format.
const HEADER: &str = "mtnet-spec v1";

impl ScenarioSpec {
    /// The neutral base every preset starts from: one empty domain of the
    /// paper's geometry, multi-tier architecture, no population, voice on
    /// every node, all three decision factors, no overrides.
    pub fn base() -> ScenarioSpec {
        ScenarioSpec {
            name: "custom".into(),
            seed: SeedSpec::Raw(0),
            duration_s: 300.0,
            arch: ArchKind::multi_tier(),
            n_domains: 1,
            micro_per_domain: 4,
            micro_kind: CellKind::Micro,
            micro_spacing_m: 400.0,
            domain_width_m: 3_000.0,
            street_y_m: 1_500.0,
            share_upper: true,
            macro_hole: false,
            satellite: false,
            pedestrians: 0,
            cyclists: 0,
            vehicles: 0,
            pedestrian_class: SpeedClass::Pedestrian,
            pedestrian_pause_s: 10.0,
            cyclist_speed_mps: 6.0,
            vehicle_speed_mps: 25.0,
            voice_every: 1,
            video_every: 0,
            web_every: 0,
            factors: HandoffFactors::all(),
            route_update_ms: None,
            semisoft_delay_ms: None,
            table_lifetime_ms: None,
            paging_update_ms: None,
            move_sample_ms: None,
            location_update_ms: None,
            aggregate_qos: false,
            load_curve: None,
            idle_camping: false,
            shards: 1,
            faults: FaultSpec::default(),
        }
    }

    // ------------------------------------------------------------------
    // Presets: the paper's scenario families…
    // ------------------------------------------------------------------

    /// The standard three-domain city: domains 0 and 1 share an upper BS
    /// (exercising Fig 3.2), domain 2 stands alone (Fig 3.3), mixed
    /// pedestrian/vehicle population, voice + video traffic.
    pub fn small_city() -> ScenarioSpec {
        ScenarioSpec {
            name: "small-city".into(),
            n_domains: 3,
            pedestrians: 6,
            vehicles: 3,
            video_every: 3,
            ..ScenarioSpec::base()
        }
    }

    /// The two-domain corridor with a single commuting vehicle
    /// (Figs 3.2/3.3).
    pub fn commute_corridor() -> ScenarioSpec {
        ScenarioSpec {
            name: "commute-corridor".into(),
            n_domains: 2,
            pedestrians: 2,
            vehicles: 1,
            ..ScenarioSpec::base()
        }
    }

    /// A single dense domain: intra-domain handoffs only (Fig 3.4).
    pub fn single_domain() -> ScenarioSpec {
        ScenarioSpec {
            name: "single-domain".into(),
            n_domains: 1,
            micro_per_domain: 6,
            pedestrians: 4,
            cyclists: 4,
            video_every: 3,
            web_every: 4,
            ..ScenarioSpec::base()
        }
    }

    /// The rural corridor whose middle domain has no macro radio.
    pub fn rural_corridor() -> ScenarioSpec {
        ScenarioSpec {
            name: "rural-corridor".into(),
            macro_hole: true,
            pedestrians: 0,
            vehicles: 2,
            ..ScenarioSpec::small_city()
        }
    }

    // ------------------------------------------------------------------
    // …and the families the paper never measured.
    // ------------------------------------------------------------------

    /// Dense-urban pico saturation: one domain whose street row is ten
    /// pico cells at 80 m spacing, packed with 116 slow users. Pico
    /// footprints are ~50 m, so only the street core is pico-served; the
    /// overflow lands on the single 64-channel macro umbrella, which
    /// cannot carry a hundred calls — admission control, the resources
    /// factor and the other-tier fallback all engage, a regime the
    /// paper's suburban geometry never stresses.
    pub fn dense_urban() -> ScenarioSpec {
        ScenarioSpec {
            name: "dense-urban".into(),
            n_domains: 1,
            micro_per_domain: 10,
            micro_kind: CellKind::Pico,
            micro_spacing_m: 80.0,
            pedestrians: 110,
            cyclists: 6,
            video_every: 3,
            web_every: 4,
            ..ScenarioSpec::base()
        }
    }

    /// Highway commute at the macro/satellite boundary: a four-domain
    /// corridor whose middle macro is dark, crossed by six 30 m/s
    /// vehicles under a satellite overlay — every handoff is at the
    /// macro↔satellite tier boundary the paper's Fig 2.1 sketches but
    /// never measures.
    pub fn highway_satellite() -> ScenarioSpec {
        ScenarioSpec {
            name: "highway-satellite".into(),
            n_domains: 4,
            macro_hole: true,
            satellite: true,
            vehicles: 6,
            vehicle_speed_mps: 30.0,
            video_every: 3,
            duration_s: 400.0,
            ..ScenarioSpec::base()
        }
    }

    /// Mixed voice/video/data overload: the small-city geometry with a
    /// triple-role population where **every** node runs voice + video +
    /// web simultaneously — link queues and channel pools both saturate.
    pub fn overload_mix() -> ScenarioSpec {
        ScenarioSpec {
            name: "overload-mix".into(),
            n_domains: 3,
            pedestrians: 8,
            cyclists: 4,
            vehicles: 4,
            voice_every: 1,
            video_every: 1,
            web_every: 1,
            ..ScenarioSpec::base()
        }
    }

    /// The metro tier (E14): 248 pico-dense domains under one satellite
    /// overlay — ~2,500 cells — carrying a million pedestrian
    /// subscribers of whom only the 1-in-100 with a voice flow are ever
    /// traffic-active. Maintenance periods stretch to metro scale (5 s
    /// move samples, 60 s location/paging), world-level aggregate QoS
    /// replaces per-flow delay histograms, and a diurnal load curve
    /// stretches arrival gaps 4x off-peak. This is the O(active) stress
    /// case: state and throughput must be governed by the active set,
    /// not the subscriber count.
    ///
    /// At full scale this builds a ~10^6-node world; use
    /// [`ScenarioSpec::metro_smoke`] (or the E14 Quick arm) for CI-sized
    /// runs.
    pub fn metro() -> ScenarioSpec {
        ScenarioSpec {
            name: "metro".into(),
            duration_s: 120.0,
            n_domains: 248,
            micro_per_domain: 8,
            micro_kind: CellKind::Pico,
            micro_spacing_m: 200.0,
            satellite: true,
            pedestrians: 1_000_000,
            voice_every: 100,
            route_update_ms: Some(5_000),
            paging_update_ms: Some(60_000),
            move_sample_ms: Some(5_000),
            location_update_ms: Some(60_000),
            aggregate_qos: true,
            load_curve: Some((120.0, 4.0)),
            idle_camping: true,
            ..ScenarioSpec::base()
        }
    }

    /// The metro family at CI scale: identical knobs, two orders of
    /// magnitude fewer nodes (10k over 8 domains). Same code paths —
    /// SoA tables, aggregate QoS, load curve, modular stagger — small
    /// enough for a smoke test.
    pub fn metro_smoke() -> ScenarioSpec {
        ScenarioSpec {
            n_domains: 8,
            pedestrians: 10_000,
            load_curve: Some((12.0, 4.0)),
            ..ScenarioSpec::metro()
        }
    }

    /// Every named scenario family, for CLI listings.
    pub fn families() -> [(&'static str, fn() -> ScenarioSpec); 8] {
        [
            ("small-city", ScenarioSpec::small_city),
            ("commute-corridor", ScenarioSpec::commute_corridor),
            ("single-domain", ScenarioSpec::single_domain),
            ("rural-corridor", ScenarioSpec::rural_corridor),
            ("dense-urban", ScenarioSpec::dense_urban),
            ("highway-satellite", ScenarioSpec::highway_satellite),
            ("overload-mix", ScenarioSpec::overload_mix),
            ("metro", ScenarioSpec::metro),
        ]
    }

    /// Looks up a named family preset.
    pub fn family(name: &str) -> Option<ScenarioSpec> {
        ScenarioSpec::families()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f())
    }

    // ------------------------------------------------------------------
    // Builder-style adjustments.
    // ------------------------------------------------------------------

    /// Replaces the architecture.
    pub fn with_arch(mut self, arch: ArchKind) -> ScenarioSpec {
        self.arch = arch;
        self
    }

    /// Replaces the seed with a literal value.
    pub fn with_raw_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = SeedSpec::Raw(seed);
        self
    }

    /// Replaces the seed with the standard two-segment experiment path
    /// (`(experiment, arm, replication)` — resolves to the same seed as
    /// [`mtnet_sim::rng::replication_seed`]).
    pub fn with_seed_path(mut self, experiment: &str, arm: &str, replication: u64) -> ScenarioSpec {
        self.seed = SeedSpec::Path {
            path: vec![experiment.into(), arm.into()],
            replication,
        };
        self
    }

    /// Replaces the simulated duration.
    pub fn with_duration_s(mut self, secs: f64) -> ScenarioSpec {
        self.duration_s = secs;
        self
    }

    /// Replaces the population counts.
    pub fn with_population(
        mut self,
        pedestrians: u32,
        cyclists: u32,
        vehicles: u32,
    ) -> ScenarioSpec {
        self.pedestrians = pedestrians;
        self.cyclists = cyclists;
        self.vehicles = vehicles;
        self
    }

    /// Replaces the decision factors.
    pub fn with_factors(mut self, factors: HandoffFactors) -> ScenarioSpec {
        self.factors = factors;
        self
    }

    /// Overrides the route-update period.
    pub fn with_route_update_ms(mut self, ms: u64) -> ScenarioSpec {
        self.route_update_ms = Some(ms);
        self
    }

    /// Overrides the semisoft bicast delay.
    pub fn with_semisoft_delay_ms(mut self, ms: u64) -> ScenarioSpec {
        self.semisoft_delay_ms = Some(ms);
        self
    }

    /// Gives every domain its own upper BS.
    pub fn without_shared_upper(mut self) -> ScenarioSpec {
        self.share_upper = false;
        self
    }

    /// Adds the satellite overlay.
    pub fn with_satellite(mut self) -> ScenarioSpec {
        self.satellite = true;
        self
    }

    /// Replaces the fault-injection schedules.
    pub fn with_faults(mut self, faults: FaultSpec) -> ScenarioSpec {
        self.faults = faults;
        self
    }

    /// Sets the intra-world shard count (1 = sequential engine). Results
    /// are byte-identical at any value; see [`crate::world::shard`].
    pub fn with_shards(mut self, shards: u32) -> ScenarioSpec {
        self.shards = shards;
        self
    }

    // ------------------------------------------------------------------
    // Canonical text format.
    // ------------------------------------------------------------------

    /// Renders the canonical text: every field, fixed order, exact
    /// round-trip floats. The content-addressed result store keys on this
    /// text (plus the master seed), so two specs share a store slot iff
    /// they are field-for-field equal.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "name = {}", quote(&self.name));
        match &self.seed {
            SeedSpec::Raw(seed) => {
                let _ = writeln!(out, "seed = raw {seed}");
            }
            SeedSpec::Path { path, replication } => {
                let segs: Vec<String> = path.iter().map(|s| quote(s)).collect();
                let _ = writeln!(out, "seed = path {} rep {replication}", segs.join(" "));
            }
        }
        let _ = writeln!(out, "duration_s = {:?}", self.duration_s);
        let _ = writeln!(out, "arch = {}", self.arch.canonical());
        let _ = writeln!(out, "domains = {}", self.n_domains);
        let _ = writeln!(out, "micro_per_domain = {}", self.micro_per_domain);
        let _ = writeln!(out, "micro_kind = {}", self.micro_kind);
        let _ = writeln!(out, "micro_spacing_m = {:?}", self.micro_spacing_m);
        let _ = writeln!(out, "domain_width_m = {:?}", self.domain_width_m);
        let _ = writeln!(out, "street_y_m = {:?}", self.street_y_m);
        let _ = writeln!(
            out,
            "share_upper = {}",
            if self.share_upper { "on" } else { "off" }
        );
        let _ = writeln!(
            out,
            "macro_hole = {}",
            if self.macro_hole { "on" } else { "off" }
        );
        let _ = writeln!(
            out,
            "satellite = {}",
            if self.satellite { "on" } else { "off" }
        );
        let _ = writeln!(out, "pedestrians = {}", self.pedestrians);
        let _ = writeln!(out, "cyclists = {}", self.cyclists);
        let _ = writeln!(out, "vehicles = {}", self.vehicles);
        let _ = writeln!(out, "pedestrian_class = {}", self.pedestrian_class);
        let _ = writeln!(out, "pedestrian_pause_s = {:?}", self.pedestrian_pause_s);
        let _ = writeln!(out, "cyclist_speed_mps = {:?}", self.cyclist_speed_mps);
        let _ = writeln!(out, "vehicle_speed_mps = {:?}", self.vehicle_speed_mps);
        let _ = writeln!(out, "voice_every = {}", self.voice_every);
        let _ = writeln!(out, "video_every = {}", self.video_every);
        let _ = writeln!(out, "web_every = {}", self.web_every);
        let _ = writeln!(out, "factors = {}", self.factors.canonical());
        let _ = writeln!(
            out,
            "route_update_ms = {}",
            render_opt_ms(self.route_update_ms)
        );
        let _ = writeln!(
            out,
            "semisoft_delay_ms = {}",
            render_opt_ms(self.semisoft_delay_ms)
        );
        let _ = writeln!(
            out,
            "table_lifetime_ms = {}",
            render_opt_ms(self.table_lifetime_ms)
        );
        let _ = writeln!(
            out,
            "paging_update_ms = {}",
            render_opt_ms(self.paging_update_ms)
        );
        // The metro-tier knobs render only when set, so pre-metro
        // canonical texts (and their store keys) are byte-identical to
        // those produced before the E14 family existed.
        if let Some(ms) = self.move_sample_ms {
            let _ = writeln!(out, "move_sample_ms = {ms}");
        }
        if let Some(ms) = self.location_update_ms {
            let _ = writeln!(out, "location_update_ms = {ms}");
        }
        if self.aggregate_qos {
            let _ = writeln!(out, "aggregate_qos = on");
        }
        if self.idle_camping {
            let _ = writeln!(out, "idle_camping = on");
        }
        if let Some((period_s, factor)) = self.load_curve {
            let _ = writeln!(out, "load_curve = {period_s:?}:{factor:?}");
        }
        // The shard count renders only when sharding is requested, so
        // single-shard canonical texts (and their store keys) are
        // byte-identical to those produced before the parallel engine
        // existed.
        if self.shards != 1 {
            let _ = writeln!(out, "shards = {}", self.shards);
        }
        // Fault lines render only when non-empty, so fault-free canonical
        // texts (and their store keys) are byte-identical to those
        // produced before the fault subsystem existed.
        if !self.faults.cell_outages.is_empty() {
            let toks: Vec<String> = self
                .faults
                .cell_outages
                .iter()
                .map(|o| format!("{}:{:?}:{:?}", o.cell, o.start_s, o.end_s))
                .collect();
            let _ = writeln!(out, "fault.cell_outages = {}", toks.join(" "));
        }
        if !self.faults.link_flaps.is_empty() {
            let toks: Vec<String> = self
                .faults
                .link_flaps
                .iter()
                .map(|f| {
                    format!(
                        "{}:{:?}:{:?}:{:?}:{:?}:{}",
                        f.domain, f.start_s, f.period_s, f.duty, f.jitter_s, f.count
                    )
                })
                .collect();
            let _ = writeln!(out, "fault.link_flaps = {}", toks.join(" "));
        }
        if !self.faults.rsmc_failovers.is_empty() {
            let toks: Vec<String> = self
                .faults
                .rsmc_failovers
                .iter()
                .map(|r| {
                    let takeover = r
                        .takeover_s
                        .map_or_else(|| "none".to_string(), |t| format!("{t:?}"));
                    format!("{}:{:?}:{takeover}", r.domain, r.at_s)
                })
                .collect();
            let _ = writeln!(out, "fault.rsmc_failover = {}", toks.join(" "));
        }
        if !self.faults.eclipses.is_empty() {
            let toks: Vec<String> = self
                .faults
                .eclipses
                .iter()
                .map(|e| format!("{:?}:{:?}", e.start_s, e.end_s))
                .collect();
            let _ = writeln!(out, "fault.eclipses = {}", toks.join(" "));
        }
        out
    }

    /// Parses a spec text (canonical or hand-written: blank lines and
    /// `#` comments are allowed, keys may repeat — last wins).
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                Some((_, l)) if l.trim().is_empty() || l.trim_start().starts_with('#') => continue,
                Some((_, l)) => break l.trim(),
                None => return Err(err("empty spec text")),
            }
        };
        if header != HEADER {
            return Err(err(format!("expected header {HEADER:?}, got {header:?}")));
        }
        let mut spec = ScenarioSpec::base();
        for (idx, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| SpecError {
                line: idx + 1,
                message: format!("expected key = value, got {line:?}"),
            })?;
            spec.set(key.trim(), value.trim()).map_err(|mut e| {
                e.line = idx + 1;
                e
            })?;
        }
        spec.validate().map_err(|mut e| {
            e.line = 0;
            e
        })?;
        Ok(spec)
    }

    /// Applies one `key = value` assignment — the operation the parser
    /// and sweep-axis expansion share. Keys are exactly the canonical
    /// render keys.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "name" => self.name = one_string(value)?,
            "seed" => {
                let toks = tokens(value)?;
                match toks.split_first() {
                    Some((kind, rest)) if kind == "raw" => {
                        let [seed] = rest else {
                            return Err(err("seed = raw <u64>"));
                        };
                        self.seed =
                            SeedSpec::Raw(seed.parse().map_err(|_| err("seed = raw <u64>"))?);
                    }
                    Some((kind, rest)) if kind == "path" => {
                        let Some(rep_pos) = rest.iter().rposition(|t| t == "rep") else {
                            return Err(err("seed = path <segments…> rep <u64>"));
                        };
                        let (segs, rep) = rest.split_at(rep_pos);
                        let [_, rep_val] = rep else {
                            return Err(err("seed = path <segments…> rep <u64>"));
                        };
                        if segs.is_empty() {
                            return Err(err("seed path needs at least one segment"));
                        }
                        self.seed = SeedSpec::Path {
                            path: segs.to_vec(),
                            replication: rep_val
                                .parse()
                                .map_err(|_| err("seed = path <segments…> rep <u64>"))?,
                        };
                    }
                    _ => return Err(err("seed = raw <u64> | path <segments…> rep <u64>")),
                }
            }
            "duration_s" => self.duration_s = parse_f64(value)?,
            "arch" => {
                self.arch = ArchKind::parse_label(value)
                    .ok_or_else(|| err(format!("unknown architecture {value:?}")))?;
            }
            "domains" => self.n_domains = parse_u32(value)?,
            "micro_per_domain" => self.micro_per_domain = parse_u32(value)?,
            "micro_kind" => {
                self.micro_kind = CellKind::parse_label(value)
                    .ok_or_else(|| err(format!("unknown cell kind {value:?}")))?;
            }
            "micro_spacing_m" => self.micro_spacing_m = parse_f64(value)?,
            "domain_width_m" => self.domain_width_m = parse_f64(value)?,
            "street_y_m" => self.street_y_m = parse_f64(value)?,
            "share_upper" => self.share_upper = parse_bool(value)?,
            "macro_hole" => self.macro_hole = parse_bool(value)?,
            "satellite" => self.satellite = parse_bool(value)?,
            "pedestrians" => self.pedestrians = parse_u32(value)?,
            "cyclists" => self.cyclists = parse_u32(value)?,
            "vehicles" => self.vehicles = parse_u32(value)?,
            "pedestrian_class" => {
                self.pedestrian_class = SpeedClass::parse_label(value)
                    .ok_or_else(|| err(format!("unknown speed class {value:?}")))?;
            }
            "pedestrian_pause_s" => self.pedestrian_pause_s = parse_f64(value)?,
            "cyclist_speed_mps" => self.cyclist_speed_mps = parse_f64(value)?,
            "vehicle_speed_mps" => self.vehicle_speed_mps = parse_f64(value)?,
            "voice_every" => self.voice_every = parse_u32(value)?,
            "video_every" => self.video_every = parse_u32(value)?,
            "web_every" => self.web_every = parse_u32(value)?,
            "factors" => {
                self.factors = HandoffFactors::parse_label(value)
                    .ok_or_else(|| err(format!("unknown factor set {value:?}")))?;
            }
            "route_update_ms" => self.route_update_ms = parse_opt_ms(value)?,
            "semisoft_delay_ms" => self.semisoft_delay_ms = parse_opt_ms(value)?,
            "table_lifetime_ms" => self.table_lifetime_ms = parse_opt_ms(value)?,
            "paging_update_ms" => self.paging_update_ms = parse_opt_ms(value)?,
            "move_sample_ms" => self.move_sample_ms = parse_opt_ms(value)?,
            "location_update_ms" => self.location_update_ms = parse_opt_ms(value)?,
            "aggregate_qos" => self.aggregate_qos = parse_bool(value)?,
            "idle_camping" => self.idle_camping = parse_bool(value)?,
            "load_curve" => {
                if value == "none" {
                    self.load_curve = None;
                } else {
                    let Some((period, factor)) = value.split_once(':') else {
                        return Err(err("load_curve = <period_s>:<off_peak_factor> | none"));
                    };
                    self.load_curve = Some((parse_f64(period)?, parse_f64(factor)?));
                }
            }
            "shards" => self.shards = parse_u32(value)?,
            "faults" => {
                // Sweep-axis escape hatch: clear every schedule at once.
                if value != "none" {
                    return Err(err(
                        "faults = none clears all schedules; use fault.* keys to add them",
                    ));
                }
                self.faults = FaultSpec::default();
            }
            // Each fault.* key also accepts `none` to clear just that
            // schedule — the natural "off" arm of a sweep axis.
            "fault.cell_outages" => {
                let mut outages = Vec::new();
                for tok in fault_tokens(value)? {
                    let parts: Vec<&str> = tok.split(':').collect();
                    let [cell, start, end] = parts[..] else {
                        return Err(err("fault.cell_outages = <cell>:<start_s>:<end_s> …"));
                    };
                    outages.push(CellOutage {
                        cell: parse_u32(cell)?,
                        start_s: parse_f64(start)?,
                        end_s: parse_f64(end)?,
                    });
                }
                self.faults.cell_outages = outages;
            }
            "fault.link_flaps" => {
                let mut flaps = Vec::new();
                for tok in fault_tokens(value)? {
                    let parts: Vec<&str> = tok.split(':').collect();
                    let [domain, start, period, duty, jitter, count] = parts[..] else {
                        return Err(err("fault.link_flaps = \
                             <domain>:<start_s>:<period_s>:<duty>:<jitter_s>:<count> …"));
                    };
                    flaps.push(LinkFlap {
                        domain: parse_u32(domain)?,
                        start_s: parse_f64(start)?,
                        period_s: parse_f64(period)?,
                        duty: parse_f64(duty)?,
                        jitter_s: parse_f64(jitter)?,
                        count: parse_u32(count)?,
                    });
                }
                self.faults.link_flaps = flaps;
            }
            "fault.rsmc_failover" => {
                let mut failovers = Vec::new();
                for tok in fault_tokens(value)? {
                    let parts: Vec<&str> = tok.split(':').collect();
                    let [domain, at, takeover] = parts[..] else {
                        return Err(err(
                            "fault.rsmc_failover = <domain>:<at_s>:<takeover_s|none> …",
                        ));
                    };
                    failovers.push(RsmcFailover {
                        domain: parse_u32(domain)?,
                        at_s: parse_f64(at)?,
                        takeover_s: if takeover == "none" {
                            None
                        } else {
                            Some(parse_f64(takeover)?)
                        },
                    });
                }
                self.faults.rsmc_failovers = failovers;
            }
            "fault.eclipses" => {
                let mut eclipses = Vec::new();
                for tok in fault_tokens(value)? {
                    let parts: Vec<&str> = tok.split(':').collect();
                    let [start, end] = parts[..] else {
                        return Err(err("fault.eclipses = <start_s>:<end_s> …"));
                    };
                    eclipses.push(EclipseWindow {
                        start_s: parse_f64(start)?,
                        end_s: parse_f64(end)?,
                    });
                }
                self.faults.eclipses = eclipses;
            }
            other => return Err(err(format!("unknown key {other:?}"))),
        }
        Ok(())
    }

    /// Checks internal consistency (positive geometry and duration, the
    /// /24 home-subnet population cap, finite numbers).
    pub fn validate(&self) -> Result<(), SpecError> {
        let finite_pos = [
            ("duration_s", self.duration_s),
            ("micro_spacing_m", self.micro_spacing_m),
            ("domain_width_m", self.domain_width_m),
            ("cyclist_speed_mps", self.cyclist_speed_mps),
            ("vehicle_speed_mps", self.vehicle_speed_mps),
        ];
        for (name, v) in finite_pos {
            if !(v.is_finite() && v > 0.0) {
                return Err(err(format!("{name} must be positive and finite")));
            }
        }
        if !self.street_y_m.is_finite() {
            return Err(err("street_y_m must be finite"));
        }
        if !(self.pedestrian_pause_s.is_finite() && self.pedestrian_pause_s >= 0.0) {
            return Err(err("pedestrian_pause_s must be non-negative and finite"));
        }
        if self.n_domains == 0 {
            return Err(err("domains must be >= 1"));
        }
        if self.shards == 0 {
            return Err(err("shards must be >= 1"));
        }
        // Home addresses are allocated arithmetically, 250 per /24 under
        // the (widened-as-needed) 10/8 home prefix — see
        // `crate::world::mn::home_addr`. 16M is the last population whose
        // subnet octets stay inside that prefix.
        const MAX_POPULATION: u64 = 16_000_000;
        let population =
            u64::from(self.pedestrians) + u64::from(self.cyclists) + u64::from(self.vehicles);
        if population > MAX_POPULATION {
            return Err(err(format!(
                "population {population} exceeds the {MAX_POPULATION}-node home address space"
            )));
        }
        for (name, v) in [
            ("move_sample_ms", self.move_sample_ms),
            ("location_update_ms", self.location_update_ms),
        ] {
            if v == Some(0) {
                return Err(err(format!("{name} must be >= 1 (a zero period hangs)")));
            }
        }
        if let Some((period_s, factor)) = self.load_curve {
            if !(period_s.is_finite() && period_s > 0.0) {
                return Err(err("load_curve period must be positive and finite"));
            }
            if !(factor.is_finite() && factor >= 1.0) {
                return Err(err("load_curve off-peak factor must be >= 1 and finite"));
            }
        }
        self.faults
            .validate(self.n_domains + u32::from(self.satellite))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // World assembly — the single construction path.
    // ------------------------------------------------------------------

    /// Total width of the deployed corridor, meters.
    pub fn corridor_width(&self) -> f64 {
        f64::from(self.n_domains) * self.domain_width_m
    }

    /// The world seed under `master_seed`.
    pub fn resolve_seed(&self, master_seed: u64) -> u64 {
        self.seed.resolve(master_seed)
    }

    /// Builds the world this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScenarioSpec::validate`].
    pub fn build(&self, master_seed: u64) -> World {
        if let Err(e) = self.validate() {
            panic!("invalid scenario spec {:?}: {e}", self.name);
        }
        let mut cfg = WorldConfig {
            seed: self.resolve_seed(master_seed),
            factors: self.factors,
            decision: DecisionConfig::default(),
            ..WorldConfig::default()
        };
        self.arch.apply(&mut cfg);
        if let Some(ms) = self.route_update_ms {
            cfg.route_update_period = Some(SimDuration::from_millis(ms));
        }
        if let Some(ms) = self.semisoft_delay_ms {
            if matches!(cfg.handoff_kind, HandoffKind::Semisoft { .. }) {
                cfg.handoff_kind = HandoffKind::Semisoft {
                    delay: SimDuration::from_millis(ms),
                };
            }
        }
        if let Some(ms) = self.table_lifetime_ms {
            cfg.table_lifetime = SimDuration::from_millis(ms);
        }
        if let Some(ms) = self.paging_update_ms {
            cfg.cip_timers.paging_update = SimDuration::from_millis(ms);
        }
        if let Some(ms) = self.move_sample_ms {
            cfg.move_sample = SimDuration::from_millis(ms);
        }
        if let Some(ms) = self.location_update_ms {
            cfg.location_period = SimDuration::from_millis(ms);
        }
        cfg.aggregate_qos = self.aggregate_qos;
        cfg.idle_camping = self.idle_camping;
        if let Some((period_s, factor)) = self.load_curve {
            cfg.load_curve = Some(LoadCurve {
                period: SimDuration::from_secs_f64(period_s),
                off_peak_factor: factor,
            });
        }
        let n_domains = self.n_domains as usize;
        let width = self.domain_width_m;
        let street_y = self.street_y_m;
        let mut b = WorldBuilder::new(cfg);
        for d in 0..n_domains {
            // Consecutive pairs share a region/upper BS: (0,1), (2,3), …
            // unless sharing is disabled (every domain its own upper).
            let region = if self.share_upper {
                (d / 2) as u32
            } else {
                d as u32
            };
            let paired = if self.share_upper {
                d + 1 < n_domains || d % 2 == 1
            } else {
                true
            };
            b.add_domain(DomainSpec {
                center: Point::new(width / 2.0 + d as f64 * width, street_y),
                n_micro: self.micro_per_domain as usize,
                micro_spacing: self.micro_spacing_m,
                micro_kind: self.micro_kind,
                region: paired.then_some(region),
                macro_radio: !(self.macro_hole && d == n_domains / 2),
                satellite: false,
            });
        }
        if self.satellite {
            // One LEO footprint over the whole corridor, its own domain.
            b.add_domain(DomainSpec {
                center: Point::new(self.corridor_width() / 2.0, street_y),
                n_micro: 0,
                micro_spacing: self.micro_spacing_m,
                micro_kind: self.micro_kind,
                region: None,
                macro_radio: true,
                satellite: true,
            });
        }
        let every = |n: u32, i: usize| n > 0 && i.is_multiple_of(n as usize);
        let flow_plan = |i: usize| {
            let mut flows = Vec::new();
            if every(self.voice_every, i) {
                flows.push(FlowKind::Voice);
            }
            if every(self.video_every, i) {
                flows.push(FlowKind::Video);
            }
            if every(self.web_every, i) {
                flows.push(FlowKind::Web);
            }
            flows
        };
        b.reserve_mns(self.pedestrians as usize + self.cyclists as usize + self.vehicles as usize);
        let mut idx = 0usize;
        for p in 0..self.pedestrians as usize {
            // Pedestrians wander the street row of one domain.
            let d = p % n_domains;
            let cx = width / 2.0 + d as f64 * width;
            let area = Rect::new(
                Point::new(cx - 800.0, street_y - 250.0),
                Point::new(cx + 800.0, street_y + 250.0),
            );
            let start = Point::new(cx - 600.0 + (p as f64 * 163.0) % 1200.0, street_y);
            let model = RandomWaypoint::new(area, self.pedestrian_class)
                .with_pause(SimDuration::from_secs_f64(self.pedestrian_pause_s))
                .with_start(start);
            b.add_mn(Box::new(model), &flow_plan(idx));
            idx += 1;
        }
        for c in 0..self.cyclists as usize {
            // Cyclists shuttle along the micro row of one domain.
            let d = c % n_domains;
            let cx = width / 2.0 + d as f64 * width;
            let span = self.micro_spacing_m * (self.micro_per_domain.saturating_sub(1)) as f64;
            let y = street_y + 20.0 * (c as f64);
            let model = LinearCommute::new(
                Point::new(cx - span / 2.0, y),
                Point::new(cx + span / 2.0, y),
                self.cyclist_speed_mps,
            )
            .round_trip();
            b.add_mn(Box::new(model), &flow_plan(idx));
            idx += 1;
        }
        for v in 0..self.vehicles as usize {
            // Vehicles shuttle the whole corridor at highway speed.
            let y = street_y + 50.0 * (v as f64 - 1.0);
            let model = LinearCommute::new(
                Point::new(400.0, y),
                Point::new(self.corridor_width() - 400.0, y),
                self.vehicle_speed_mps,
            )
            .round_trip();
            b.add_mn(Box::new(model), &flow_plan(idx));
            idx += 1;
        }
        let mut world = b.build();
        // Fault schedules compile against the concrete world (cell ids,
        // link ids, domain indices) — and against the resolved world
        // seed, so the jitter draws are part of the determinism contract.
        world.install_fault_plan(&self.faults);
        world
    }

    /// Builds and runs for the spec's duration. The spec's shard count
    /// selects between the sequential engine and the conservative-window
    /// parallel engine; both produce byte-identical reports.
    pub fn run(&self, master_seed: u64) -> SimReport {
        let duration = SimDuration::from_secs_f64(self.duration_s);
        if self.shards > 1 {
            crate::world::run_sharded(|| self.build(master_seed), duration, self.shards)
        } else {
            self.build(master_seed).run(duration)
        }
    }

    /// Builds and runs, wrapping the result with the run's identity
    /// (spec name, resolved seed, replication).
    pub fn run_report(&self, master_seed: u64) -> RunReport {
        RunReport {
            label: self.name.clone(),
            seed: self.resolve_seed(master_seed),
            replication: self.seed.replication(),
            report: self.run(master_seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_render_parse_roundtrip() {
        for (name, preset) in ScenarioSpec::families() {
            let spec = preset().with_seed_path("test", name, 2);
            let text = spec.render();
            let back = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, spec, "{name} round-trip");
        }
    }

    #[test]
    fn parse_accepts_comments_and_repeats() {
        let text =
            format!("\n# a comment\n{HEADER}\n\ndomains = 2\n# again\ndomains = 4\nname = \"x\"\n");
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.n_domains, 4, "last assignment wins");
        assert_eq!(spec.name, "x");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ScenarioSpec::parse("").is_err(), "empty");
        assert!(ScenarioSpec::parse("not a header\n").is_err(), "header");
        let bad_key = format!("{HEADER}\nnonsense = 3\n");
        let e = ScenarioSpec::parse(&bad_key).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        let bad_value = format!("{HEADER}\ndomains = many\n");
        assert!(ScenarioSpec::parse(&bad_value).is_err());
        let invalid = format!("{HEADER}\ndomains = 0\n");
        assert!(ScenarioSpec::parse(&invalid).is_err(), "validation runs");
    }

    #[test]
    fn quoting_roundtrips_awkward_names() {
        for name in ["with space", "quo\"te", "back\\slash", "all three (paper)"] {
            let mut spec = ScenarioSpec::base();
            spec.name = name.into();
            spec.seed = SeedSpec::Path {
                path: vec!["E12".into(), name.into()],
                replication: 1,
            };
            let back = ScenarioSpec::parse(&spec.render()).unwrap();
            assert_eq!(back, spec, "{name:?}");
        }
    }

    #[test]
    fn seed_path_resolves_like_replication_seed() {
        let spec = ScenarioSpec::small_city().with_seed_path("E10", "multi-tier+rsmc", 1);
        assert_eq!(
            spec.resolve_seed(42),
            mtnet_sim::rng::replication_seed(42, "E10", "multi-tier+rsmc", 1)
        );
        assert_eq!(spec.seed.replication(), 1);
        assert_eq!(ScenarioSpec::base().with_raw_seed(7).resolve_seed(42), 7);
    }

    #[test]
    fn set_is_the_sweep_axis_surface() {
        let mut spec = ScenarioSpec::small_city();
        spec.set("arch", "flat-cellular-ip").unwrap();
        spec.set("micro_kind", "pico").unwrap();
        spec.set("route_update_ms", "2000").unwrap();
        spec.set("route_update_ms", "none").unwrap();
        assert_eq!(spec.arch, ArchKind::FlatCellularIp);
        assert_eq!(spec.micro_kind, CellKind::Pico);
        assert_eq!(spec.route_update_ms, None);
        assert!(spec.set("warp_factor", "9").is_err());
    }

    fn faulted_spec() -> ScenarioSpec {
        ScenarioSpec::small_city().with_faults(FaultSpec {
            cell_outages: vec![CellOutage {
                cell: 2,
                start_s: 10.0,
                end_s: 30.5,
            }],
            link_flaps: vec![LinkFlap {
                domain: 1,
                start_s: 5.0,
                period_s: 20.0,
                duty: 0.25,
                jitter_s: 1.5,
                count: 3,
            }],
            rsmc_failovers: vec![
                RsmcFailover {
                    domain: 0,
                    at_s: 40.0,
                    takeover_s: Some(12.0),
                },
                RsmcFailover {
                    domain: 2,
                    at_s: 60.0,
                    takeover_s: None,
                },
            ],
            eclipses: vec![EclipseWindow {
                start_s: 100.0,
                end_s: 140.0,
            }],
        })
    }

    #[test]
    fn faults_render_parse_roundtrip() {
        let spec = faulted_spec();
        let text = spec.render();
        assert!(text.contains("fault.cell_outages = 2:10.0:30.5"), "{text}");
        assert!(
            text.contains("fault.link_flaps = 1:5.0:20.0:0.25:1.5:3"),
            "{text}"
        );
        assert!(
            text.contains("fault.rsmc_failover = 0:40.0:12.0 2:60.0:none"),
            "{text}"
        );
        assert!(text.contains("fault.eclipses = 100.0:140.0"), "{text}");
        let back = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn empty_faults_render_nothing() {
        let spec = ScenarioSpec::small_city();
        assert!(spec.faults.is_empty());
        assert!(!spec.render().contains("fault"), "empty section is silent");
        // `faults = none` clears schedules without leaving a trace.
        let mut faulted = faulted_spec();
        faulted.set("faults", "none").unwrap();
        assert_eq!(faulted.render(), spec.render());
    }

    #[test]
    fn fault_validation_rejects_bad_schedules() {
        let mut spec = ScenarioSpec::small_city();
        spec.faults.cell_outages = vec![CellOutage {
            cell: 0,
            start_s: 30.0,
            end_s: 10.0,
        }];
        assert!(spec.validate().is_err(), "inverted window");
        spec.faults.cell_outages.clear();
        spec.faults.link_flaps = vec![LinkFlap {
            domain: 99,
            start_s: 0.0,
            period_s: 10.0,
            duty: 0.5,
            jitter_s: 0.0,
            count: 1,
        }];
        assert!(spec.validate().is_err(), "domain out of range");
        spec.faults.link_flaps[0].domain = 0;
        spec.faults.link_flaps[0].jitter_s = 5.0;
        assert!(spec.validate().is_err(), "jitter >= half-period");
        spec.faults.link_flaps[0].jitter_s = 4.9;
        assert!(spec.validate().is_ok());
        spec.faults.rsmc_failovers = vec![RsmcFailover {
            domain: 0,
            at_s: 10.0,
            takeover_s: Some(0.0),
        }];
        assert!(spec.validate().is_err(), "zero takeover delay");
    }

    #[test]
    fn fault_keys_are_sweep_axes() {
        let mut spec = ScenarioSpec::small_city();
        spec.set("fault.cell_outages", "1:5.0:9.0 3:20.0:25.0")
            .unwrap();
        assert_eq!(spec.faults.cell_outages.len(), 2);
        assert_eq!(spec.faults.cell_outages[1].cell, 3);
        spec.set("fault.rsmc_failover", "0:15.0:none").unwrap();
        assert_eq!(spec.faults.rsmc_failovers[0].takeover_s, None);
        assert!(spec.set("fault.link_flaps", "not-a-flap").is_err());
        assert!(spec.set("faults", "all-of-them").is_err());
        // Per-key `none` clears just that schedule — the off arm of a
        // sweep axis.
        spec.set("fault.cell_outages", "none").unwrap();
        assert!(spec.faults.cell_outages.is_empty());
        assert_eq!(spec.faults.rsmc_failovers.len(), 1, "others untouched");
        spec.set("fault.rsmc_failover", "none").unwrap();
        assert!(spec.faults.is_empty());
    }

    #[test]
    fn validate_catches_population_cap() {
        let mut spec = ScenarioSpec::base();
        // 251 used to overflow the single home /24; dense arithmetic
        // allocation (250 per /24 under 10/8) carries it — and a million
        // more — without a map.
        spec.pedestrians = 251;
        assert!(spec.validate().is_ok());
        spec.pedestrians = 16_000_000;
        assert!(spec.validate().is_ok());
        spec.pedestrians = 16_000_001;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn metro_knobs_render_parse_roundtrip_and_stay_opt_in() {
        // Default specs render none of the metro keys — pre-metro
        // canonical texts (and store keys) are unchanged.
        let plain = ScenarioSpec::small_city().render();
        for key in [
            "move_sample_ms",
            "location_update_ms",
            "aggregate_qos",
            "load_curve",
            "idle_camping",
        ] {
            assert!(!plain.contains(key), "{key} leaked into a default spec");
        }
        let spec = ScenarioSpec::metro().with_seed_path("E14", "metro", 0);
        let text = spec.render();
        assert!(text.contains("move_sample_ms = 5000"), "{text}");
        assert!(text.contains("location_update_ms = 60000"), "{text}");
        assert!(text.contains("aggregate_qos = on"), "{text}");
        assert!(text.contains("idle_camping = on"), "{text}");
        assert!(text.contains("load_curve = 120.0:4.0"), "{text}");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn metro_knobs_are_sweep_axes_and_validated() {
        let mut spec = ScenarioSpec::small_city();
        spec.set("aggregate_qos", "on").unwrap();
        spec.set("move_sample_ms", "5000").unwrap();
        spec.set("load_curve", "600.0:3.0").unwrap();
        assert!(spec.aggregate_qos);
        assert_eq!(spec.load_curve, Some((600.0, 3.0)));
        assert!(spec.validate().is_ok());
        spec.set("load_curve", "none").unwrap();
        assert_eq!(spec.load_curve, None);
        assert!(spec.set("load_curve", "sinusoid").is_err());

        spec.move_sample_ms = Some(0);
        assert!(spec.validate().is_err(), "zero period");
        spec.move_sample_ms = None;
        spec.load_curve = Some((0.0, 2.0));
        assert!(spec.validate().is_err(), "zero curve period");
        spec.load_curve = Some((60.0, 0.5));
        assert!(spec.validate().is_err(), "sub-1 factor speeds traffic up");
    }

    #[test]
    fn metro_smoke_runs_with_aggregate_qos() {
        // A miniature metro arm (same knobs, tiny population) exercises
        // the modular stagger (> 250 nodes), aggregate QoS and the load
        // curve end to end.
        let spec = ScenarioSpec {
            n_domains: 2,
            pedestrians: 500,
            voice_every: 25,
            load_curve: Some((10.0, 4.0)),
            ..ScenarioSpec::metro()
        }
        .with_duration_s(10.0)
        .with_seed_path("test", "metro-mini", 0);
        let report = spec.run(42);
        let agg = report.aggregate.as_ref().expect("aggregate enabled");
        assert!(agg.count() > 0, "no delivered packets recorded");
        assert!(report.fingerprint().contains("aggregate delay:"));
    }

    #[test]
    fn new_families_build_and_run() {
        for (name, preset) in [
            (
                "dense-urban",
                ScenarioSpec::dense_urban as fn() -> ScenarioSpec,
            ),
            ("highway-satellite", ScenarioSpec::highway_satellite),
            ("overload-mix", ScenarioSpec::overload_mix),
        ] {
            let report = preset()
                .with_seed_path("smoke", name, 0)
                .with_duration_s(15.0)
                .run(42);
            let q = report.aggregate_qos();
            assert!(q.sent > 0, "{name}: no traffic");
        }
    }

    #[test]
    fn arch_canonical_is_bijective() {
        let all = [
            ArchKind::multi_tier(),
            ArchKind::multi_tier_hard(),
            ArchKind::multi_tier_no_rsmc(),
            ArchKind::MultiTier {
                rsmc: false,
                semisoft: false,
            },
            ArchKind::PureMobileIp,
            ArchKind::FlatCellularIp,
        ];
        let forms: std::collections::HashSet<&str> = all.iter().map(|a| a.canonical()).collect();
        assert_eq!(forms.len(), all.len());
        for a in all {
            assert_eq!(ArchKind::parse_label(a.canonical()), Some(a));
        }
    }

    #[test]
    fn factors_canonical_roundtrip() {
        for speed in [false, true] {
            for signal in [false, true] {
                for resources in [false, true] {
                    let f = HandoffFactors {
                        speed,
                        signal,
                        resources,
                    };
                    assert_eq!(HandoffFactors::parse_label(&f.canonical()), Some(f));
                }
            }
        }
        assert_eq!(HandoffFactors::parse_label("speed+speed"), None);
    }
}
