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
//! The text format is the `key = value` line format of [`crate::kv`]
//! (the vendored `serde` is marker-only, so there is no derive-based
//! serializer to lean on). Every key is declared once, in this module's
//! `SPEC` field table — key, field, value kind with its legal range,
//! rendered always or only when set — and [`ScenarioSpec::render`],
//! [`ScenarioSpec::parse`], [`ScenarioSpec::set`] and the per-key half
//! of [`ScenarioSpec::validate`] are `kv`'s generic loops over it:
//! `render` emits the canonical form — every field, fixed order,
//! round-trip-exact floats — `parse` reads it back such that
//! `parse(render(s)) == s` for every valid spec, and `set` applies one
//! assignment for the parser and the sweep engine's axis expansion
//! alike, so an axis can sweep any field the format names and no key
//! can miss its range check.
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
pub use crate::kv::Error as SpecError;
use crate::kv::Kind::{Codec, Millis, Quoted, Switch, F64, U32};
use crate::kv::Presence::{Always, Never, NonDefault};
use crate::kv::{err, field, quote, tokens, Real, Record};
use crate::lens;
use crate::report::{RunReport, SimReport};
use crate::scenario::ArchKind;
use crate::world::{DomainSpec, FlowKind, LoadCurve, World, WorldBuilder, WorldConfig};
use mtnet_cellularip::HandoffKind;
use mtnet_mobility::{LinearCommute, Point, RandomWaypoint, Rect, SpeedClass};
use mtnet_radio::CellKind;
use mtnet_sim::rng::seed_for_path;
use mtnet_sim::SimDuration;
use std::ops::RangeInclusive;

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

/// Parses a `fault.*` list: `none`, or whitespace-separated entries of
/// `:`-separated parts — every schedule accepts `none` so a sweep axis
/// can carry an off arm.
fn entries<E>(value: &str, entry: fn(&[&str]) -> Option<E>) -> Option<Vec<E>> {
    if value == "none" {
        return Some(Vec::new());
    }
    let parts = |tok: &String| entry(&tok.split(':').collect::<Vec<_>>());
    tokens(value)?.iter().map(parts).collect()
}

/// Renders a `fault.*` list the way [`entries`] reads it.
fn entries_text<E>(list: &[E], entry: fn(&E) -> String) -> String {
    if list.is_empty() {
        return "none".into();
    }
    list.iter().map(entry).collect::<Vec<_>>().join(" ")
}

impl CellOutage {
    fn parse(parts: &[&str]) -> Option<CellOutage> {
        let [cell, start, end] = parts else {
            return None;
        };
        Some(CellOutage {
            cell: cell.parse().ok()?,
            start_s: start.parse().ok()?,
            end_s: end.parse().ok()?,
        })
    }

    fn text(&self) -> String {
        format!("{}:{:?}:{:?}", self.cell, self.start_s, self.end_s)
    }
}

impl LinkFlap {
    fn parse(parts: &[&str]) -> Option<LinkFlap> {
        let [domain, start, period, duty, jitter, count] = parts else {
            return None;
        };
        Some(LinkFlap {
            domain: domain.parse().ok()?,
            start_s: start.parse().ok()?,
            period_s: period.parse().ok()?,
            duty: duty.parse().ok()?,
            jitter_s: jitter.parse().ok()?,
            count: count.parse().ok()?,
        })
    }

    fn text(&self) -> String {
        format!(
            "{}:{:?}:{:?}:{:?}:{:?}:{}",
            self.domain, self.start_s, self.period_s, self.duty, self.jitter_s, self.count
        )
    }
}

impl RsmcFailover {
    fn parse(parts: &[&str]) -> Option<RsmcFailover> {
        let [domain, at, takeover] = parts else {
            return None;
        };
        Some(RsmcFailover {
            domain: domain.parse().ok()?,
            at_s: at.parse().ok()?,
            takeover_s: match *takeover {
                "none" => None,
                t => Some(t.parse().ok()?),
            },
        })
    }

    fn text(&self) -> String {
        let takeover = self
            .takeover_s
            .map_or_else(|| "none".to_string(), |t| format!("{t:?}"));
        format!("{}:{:?}:{takeover}", self.domain, self.at_s)
    }
}

impl EclipseWindow {
    fn parse(parts: &[&str]) -> Option<EclipseWindow> {
        let [start, end] = parts else {
            return None;
        };
        Some(EclipseWindow {
            start_s: start.parse().ok()?,
            end_s: end.parse().ok()?,
        })
    }

    fn text(&self) -> String {
        format!("{:?}:{:?}", self.start_s, self.end_s)
    }
}

fn parse_seed(spec: &mut ScenarioSpec, value: &str) -> Option<()> {
    let toks = tokens(value)?;
    spec.seed = match toks.split_first()? {
        (kind, [seed]) if kind == "raw" => SeedSpec::Raw(seed.parse().ok()?),
        (kind, [path @ .., rep, n]) if kind == "path" && rep == "rep" && !path.is_empty() => {
            SeedSpec::Path {
                path: path.to_vec(),
                replication: n.parse().ok()?,
            }
        }
        _ => return None,
    };
    Some(())
}

fn parse_load_curve(spec: &mut ScenarioSpec, value: &str) -> Option<()> {
    spec.load_curve = match value {
        "none" => None,
        curve => {
            let (period, factor) = curve.split_once(':')?;
            Some((period.parse().ok()?, factor.parse().ok()?))
        }
    };
    Some(())
}

fn seed_text(spec: &ScenarioSpec) -> String {
    match &spec.seed {
        SeedSpec::Raw(seed) => format!("raw {seed}"),
        SeedSpec::Path { path, replication } => {
            let segs: Vec<String> = path.iter().map(|s| quote(s)).collect();
            format!("path {} rep {replication}", segs.join(" "))
        }
    }
}

/// The codec of a field whose type has a `parse_label`; `$text` renders
/// the label it reads.
macro_rules! label {
    ($field:ident: $ty:ty, $grammar:literal, $text:expr) => {
        Codec {
            grammar: $grammar,
            parse: |s, v| {
                s.$field = <$ty>::parse_label(v)?;
                Some(())
            },
            text: $text,
        }
    };
}

/// The codec of one `fault.*` schedule.
macro_rules! schedule {
    ($field:ident: $ty:ty, $grammar:literal) => {
        Codec {
            grammar: $grammar,
            parse: |s, v| {
                s.faults.$field = entries(v, <$ty>::parse)?;
                Some(())
            },
            text: |s| entries_text(&s.faults.$field, <$ty>::text),
        }
    };
}

/// Any `u32`.
const ANY: RangeInclusive<u32> = 0..=u32::MAX;

/// The spec's field table: the one declaration that `render`, `parse`,
/// `set`, the per-key half of `validate` and the key table of
/// EXPERIMENTS.md § sweeps are derived from. Rendering order is table
/// order. Keys after `paging_update_ms` arrived with later subsystems
/// (metro tier, sharding, faults) and render only when set, so canonical
/// texts — and store keys — written before them are unchanged.
#[rustfmt::skip]
static SPEC: Record<ScenarioSpec> = Record {
    header: "mtnet-spec v1",
    comments: true,
    init: ScenarioSpec::base,
    fields: &[
        field("name", Always, Quoted(lens!(name))),
        field("seed", Always, Codec {
            grammar: "raw <u64> | path <segment>… rep <u64>", parse: parse_seed, text: seed_text,
        }),
        field("duration_s", Always, F64(lens!(duration_s), Real::Positive)),
        field("arch", Always, label!(arch: ArchKind, "multi-tier+rsmc | multi-tier(hard) | \
            multi-tier-no-rsmc | multi-tier-no-rsmc(hard) | pure-mobile-ip | flat-cellular-ip",
            |s| s.arch.canonical().into())),
        // The satellite overlay takes the last `u8` domain index, and a
        // street row's BS addresses are `20.d.1.(i+1)`.
        field("domains", Always, U32(lens!(n_domains), 1..=255)),
        field("micro_per_domain", Always, U32(lens!(micro_per_domain), 0..=255)),
        field("micro_kind", Always, label!(micro_kind: CellKind,
            "pico | micro | macro | satellite", |s| s.micro_kind.to_string())),
        field("micro_spacing_m", Always, F64(lens!(micro_spacing_m), Real::Positive)),
        field("domain_width_m", Always, F64(lens!(domain_width_m), Real::Positive)),
        field("street_y_m", Always, F64(lens!(street_y_m), Real::Finite)),
        field("share_upper", Always, Switch(lens!(share_upper))),
        field("macro_hole", Always, Switch(lens!(macro_hole))),
        field("satellite", Always, Switch(lens!(satellite))),
        field("pedestrians", Always, U32(lens!(pedestrians), ANY)),
        field("cyclists", Always, U32(lens!(cyclists), ANY)),
        field("vehicles", Always, U32(lens!(vehicles), ANY)),
        field("pedestrian_class", Always,
            label!(pedestrian_class: SpeedClass, "pedestrian | urban-vehicle | highway",
                |s| s.pedestrian_class.to_string())),
        field("pedestrian_pause_s", Always, F64(lens!(pedestrian_pause_s), Real::NonNegative)),
        field("cyclist_speed_mps", Always, F64(lens!(cyclist_speed_mps), Real::Positive)),
        field("vehicle_speed_mps", Always, F64(lens!(vehicle_speed_mps), Real::Positive)),
        field("voice_every", Always, U32(lens!(voice_every), ANY)),
        field("video_every", Always, U32(lens!(video_every), ANY)),
        field("web_every", Always, U32(lens!(web_every), ANY)),
        field("factors", Always,
            label!(factors: HandoffFactors, "speed+signal+resources | any subset | none",
                |s| s.factors.canonical())),
        // A zero period re-arms its timer at the same instant forever; a
        // zero semisoft delay is an immediate switch and legal.
        field("route_update_ms", Always, Millis(lens!(route_update_ms), 1)),
        field("semisoft_delay_ms", Always, Millis(lens!(semisoft_delay_ms), 0)),
        field("table_lifetime_ms", Always, Millis(lens!(table_lifetime_ms), 1)),
        field("paging_update_ms", Always, Millis(lens!(paging_update_ms), 1)),
        field("move_sample_ms", NonDefault, Millis(lens!(move_sample_ms), 1)),
        field("location_update_ms", NonDefault, Millis(lens!(location_update_ms), 1)),
        field("aggregate_qos", NonDefault, Switch(lens!(aggregate_qos))),
        field("idle_camping", NonDefault, Switch(lens!(idle_camping))),
        field("load_curve", NonDefault, Codec {
            grammar: "<period_s>:<off_peak_factor> | none", parse: parse_load_curve,
            text: |s| s.load_curve.map_or_else(|| "none".into(), |(p, f)| format!("{p:?}:{f:?}")),
        }),
        field("shards", NonDefault, U32(lens!(shards), 1..=u32::MAX)),
        // Sweep-axis escape hatch: clears every schedule at once.
        field("faults", Never, Codec {
            grammar: "none (the fault.* keys add schedules)",
            parse: |s, v| (v == "none").then(|| s.faults = FaultSpec::default()),
            text: |_| "none".into(),
        }),
        field("fault.cell_outages", NonDefault,
            schedule!(cell_outages: CellOutage, "<cell>:<start_s>:<end_s> … | none")),
        field("fault.link_flaps", NonDefault, schedule!(link_flaps: LinkFlap,
            "<domain>:<start_s>:<period_s>:<duty>:<jitter_s>:<count> … | none")),
        field("fault.rsmc_failover", NonDefault,
            schedule!(rsmc_failovers: RsmcFailover, "<domain>:<at_s>:<takeover_s|none> … | none")),
        field("fault.eclipses", NonDefault,
            schedule!(eclipses: EclipseWindow, "<start_s>:<end_s> … | none")),
    ],
    blocks: &[],
};

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
    // Canonical text format: generic loops over the `SPEC` field table.
    // ------------------------------------------------------------------

    /// Renders the canonical text: every field, fixed order, exact
    /// round-trip floats. The content-addressed result store keys on this
    /// text (plus the master seed), so two specs share a store slot iff
    /// they are field-for-field equal.
    pub fn render(&self) -> String {
        SPEC.render(self)
    }

    /// Parses a spec text (canonical or hand-written: blank lines and
    /// `#` comments are allowed, keys may repeat — last wins).
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let spec = SPEC.parse(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Applies one `key = value` assignment — the operation the parser
    /// and sweep-axis expansion share. Keys are exactly the canonical
    /// render keys; a value outside its key's range is an error here.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        SPEC.set(self, key, value)
    }

    /// Checks internal consistency: every key within its declared range
    /// (fields are public, so [`ScenarioSpec::set`] may not have seen
    /// them), then the cross-field rules — the home-address population
    /// cap, the load curve, the fault schedules against the domain count.
    pub fn validate(&self) -> Result<(), SpecError> {
        SPEC.check(self)?;
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
        if let Some((period_s, factor)) = self.load_curve {
            if !(period_s.is_finite() && period_s > 0.0) {
                return Err(err("load_curve period must be positive and finite"));
            }
            if !(factor.is_finite() && factor >= 1.0) {
                return Err(err("load_curve off-peak factor must be >= 1 and finite"));
            }
        }
        self.faults
            .validate(self.n_domains + u32::from(self.satellite))
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
        // Pedestrians wander the street row of one domain: one shared
        // random-waypoint model per domain (its area, the speed class, the
        // pause), so a pedestrian is its start point and its own row.
        let street_row = |d: usize| {
            let cx = width / 2.0 + d as f64 * width;
            Rect::new(
                Point::new(cx - 800.0, street_y - 250.0),
                Point::new(cx + 800.0, street_y + 250.0),
            )
        };
        let walks: Vec<_> = (0..n_domains.min(self.pedestrians as usize))
            .map(|d| {
                let walk = RandomWaypoint::new(street_row(d), self.pedestrian_class)
                    .with_pause(SimDuration::from_secs_f64(self.pedestrian_pause_s));
                b.add_model(Box::new(walk))
            })
            .collect();
        let mut idx = 0usize;
        for p in 0..self.pedestrians as usize {
            let d = p % n_domains;
            let cx = width / 2.0 + d as f64 * width;
            let start = Point::new(cx - 600.0 + (p as f64 * 163.0) % 1200.0, street_y);
            b.add_mn(walks[d], street_row(d).clamp(start), &flow_plan(idx));
            idx += 1;
        }
        for c in 0..self.cyclists as usize {
            // Cyclists shuttle along the micro row of one domain.
            let d = c % n_domains;
            let cx = width / 2.0 + d as f64 * width;
            let span = self.micro_spacing_m * (self.micro_per_domain.saturating_sub(1)) as f64;
            let y = street_y + 20.0 * (c as f64);
            let from = Point::new(cx - span / 2.0, y);
            let to = Point::new(cx + span / 2.0, y);
            let ride = LinearCommute::new(from, to, self.cyclist_speed_mps).round_trip();
            let model = b.add_model(Box::new(ride));
            b.add_mn(model, from, &flow_plan(idx));
            idx += 1;
        }
        for v in 0..self.vehicles as usize {
            // Vehicles shuttle the whole corridor at highway speed.
            let y = street_y + 50.0 * (v as f64 - 1.0);
            let from = Point::new(400.0, y);
            let to = Point::new(self.corridor_width() - 400.0, y);
            let drive = LinearCommute::new(from, to, self.vehicle_speed_mps).round_trip();
            let model = b.add_model(Box::new(drive));
            b.add_mn(model, from, &flow_plan(idx));
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

    const HEADER: &str = SPEC.header;

    /// The key table of EXPERIMENTS.md § Scenario sweeps, regenerated.
    fn key_table() -> String {
        let mut rows = String::from("| key | value | rendered |\n|---|---|---|\n");
        for f in SPEC.fields {
            let rendered = match f.presence {
                Always => "always",
                NonDefault => "when set",
                _ => "never",
            };
            let kind = f.kind.describe().replace('|', "\\|");
            rows += &format!("| `{}` | `{kind}` | {rendered} |\n", f.key);
        }
        rows
    }

    #[test]
    fn experiments_md_key_table_is_the_field_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
        let table = key_table();
        assert!(
            doc.contains(&table),
            "EXPERIMENTS.md drifted; fresh table:\n{table}"
        );
    }

    #[test]
    fn every_integer_key_runs_at_its_declared_bounds() {
        // The bounds come from the table, so no key can be left out. The
        // population keys stop at 1000 nodes: their cap is the 16M
        // home-address space, a cross-field rule, not a per-key range.
        for f in SPEC.fields {
            let (lo, hi) = match &f.kind {
                U32(_, range) => (u64::from(*range.start()), u64::from(*range.end())),
                Millis(_, min) => (*min, u64::MAX),
                _ => continue,
            };
            let hi = match f.key {
                "pedestrians" | "cyclists" | "vehicles" => 1_000,
                _ => hi,
            };
            for value in [lo, hi] {
                let mut spec = ScenarioSpec::small_city().with_duration_s(1.0);
                spec.set(f.key, &value.to_string())
                    .unwrap_or_else(|e| panic!("{e}"));
                spec.validate().unwrap_or_else(|e| panic!("{e}"));
                let report = spec.run(42);
                assert!(report.events_processed > 0, "{} = {value}", f.key);
            }
        }
    }

    #[test]
    fn out_of_range_values_are_errors_naming_the_key() {
        // Each of these used to hang (`uplink_one` re-arming at the same
        // instant), panic (`SoftStateCache` lifetime 0) or wrap a `u8`
        // address octet into another domain's prefix.
        for (key, value) in [
            ("route_update_ms", "0"),
            ("paging_update_ms", "0"),
            ("table_lifetime_ms", "0"),
            ("domains", "300"),
            ("micro_per_domain", "300"),
        ] {
            let mut spec = ScenarioSpec::small_city();
            let e = spec.set(key, value).expect_err(key);
            assert!(e.message.contains(key), "{e}");
            // A direct field write is caught by `validate` all the same.
            let e = spec.validate().expect_err(key);
            assert!(e.message.contains(key), "{e}");
            let text = format!("{HEADER}\n{key} = {value}\n");
            let e = ScenarioSpec::parse(&text).expect_err(key);
            assert!(e.line == 2 && e.message.contains(key), "{e}");
        }
        let mut spec = ScenarioSpec::small_city();
        spec.set("semisoft_delay_ms", "0")
            .expect("an immediate switch is legal");
        assert!(spec.validate().is_ok());
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
