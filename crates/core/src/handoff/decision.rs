//! The tier-selection decision: "three kinds of factor are considered to
//! decide the suitable tier that MN should hop. The first is the speed of
//! MN, the power of signal from BS is considered also, and the last is the
//! resources of BS." (§3.2)
//!
//! The engine is a pure function of its measurements, so it is fully
//! unit-testable and the factors can be ablated independently (experiment
//! E12).

use crate::tier::Tier;
use mtnet_radio::CellId;
use serde::{Deserialize, Serialize};

/// Which of the three §3.2 factors the engine consults. Disabling factors
/// reproduces the ablation arms of experiment E12; the paper's scheme is
/// [`HandoffFactors::all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandoffFactors {
    /// Factor 1: the speed of the MN steers tier preference.
    pub speed: bool,
    /// Factor 2: the power of signal from the BS (with hysteresis).
    pub signal: bool,
    /// Factor 3: the resources of the BS (free channels, with fallback to
    /// the other tier when the preferred tier is full).
    pub resources: bool,
}

impl HandoffFactors {
    /// The paper's full scheme: all three factors.
    pub fn all() -> Self {
        HandoffFactors {
            speed: true,
            signal: true,
            resources: true,
        }
    }

    /// Signal-only (classic single-tier strongest-server handoff).
    pub fn signal_only() -> Self {
        HandoffFactors {
            speed: false,
            signal: true,
            resources: false,
        }
    }

    /// Canonical textual form for scenario-spec files: the enabled factors
    /// joined with `+` (`"speed+signal+resources"`), or `"none"`.
    pub fn canonical(&self) -> String {
        let parts: Vec<&str> = [
            ("speed", self.speed),
            ("signal", self.signal),
            ("resources", self.resources),
        ]
        .iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| *name)
        .collect();
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join("+")
        }
    }

    /// Parses the [`HandoffFactors::canonical`] form.
    pub fn parse_label(s: &str) -> Option<HandoffFactors> {
        let mut f = HandoffFactors {
            speed: false,
            signal: false,
            resources: false,
        };
        if s == "none" {
            return Some(f);
        }
        for part in s.split('+') {
            match part {
                "speed" if !f.speed => f.speed = true,
                "signal" if !f.signal => f.signal = true,
                "resources" if !f.resources => f.resources = true,
                _ => return None,
            }
        }
        Some(f)
    }
}

impl Default for HandoffFactors {
    fn default() -> Self {
        Self::all()
    }
}

/// Decision thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionConfig {
    /// A candidate must beat the current cell by this margin (dB) to
    /// trigger a same-tier handoff (ping-pong suppression).
    pub hysteresis_db: f64,
    /// Below this RSSI (dBm) a cell is unusable.
    pub min_rssi_dbm: f64,
    /// A cell with a lower free-channel ratio than this is considered
    /// resource-exhausted when factor 3 is enabled.
    pub min_free_ratio: f64,
    /// Speed (m/s) above which the macro tier is preferred (factor 1).
    pub speed_threshold_mps: f64,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            hysteresis_db: 4.0,
            min_rssi_dbm: -95.0,
            min_free_ratio: 0.05,
            speed_threshold_mps: Tier::SPEED_THRESHOLD_MPS,
        }
    }
}

/// One measured candidate cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The cell.
    pub cell: CellId,
    /// Its tier.
    pub tier: Tier,
    /// Received power at the MN, dBm.
    pub rssi_dbm: f64,
    /// Free-channel ratio in `[0, 1]`.
    pub free_ratio: f64,
}

/// The MN's current attachment, as seen in the same measurement round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentAttachment {
    /// The serving cell.
    pub cell: CellId,
    /// Its tier.
    pub tier: Tier,
    /// Its current RSSI at the MN, dBm (`None` if out of coverage).
    pub rssi_dbm: Option<f64>,
}

/// What the engine decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HandoffDecision {
    /// Keep the current attachment.
    Stay,
    /// Hand off to `target`; if the target rejects (no channel), retry with
    /// `fallback` (the other tier), per §3.2's fallback rules.
    Handoff {
        /// Primary target cell.
        target: CellId,
        /// Tier of the primary target.
        tier: Tier,
        /// Other-tier fallback if the primary rejects; never the serving
        /// cell.
        fallback: Option<CellId>,
    },
    /// No usable cell at all (coverage hole): the node is in outage.
    Outage,
}

/// The conditions under which [`HandoffEngine::decide`] keeps a node on
/// its serving cell, from [`HandoffEngine::stay_guard`]: the serving cell
/// reads at least `floor_dbm`, it is strictly louder than every other
/// audible cell of tier `rivals`, and no cell of tier `silent` is audible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StayGuard {
    /// The tier whose every other audible cell must be quieter.
    pub rivals: Tier,
    /// The tier that must be inaudible, if any.
    pub silent: Option<Tier>,
    /// The usability floor, dBm.
    pub floor_dbm: f64,
}

/// The decision engine (one per scenario; stateless between calls).
#[derive(Debug, Clone, Copy, Default)]
pub struct HandoffEngine {
    config: DecisionConfig,
    factors: HandoffFactors,
}

impl HandoffEngine {
    /// Creates an engine with the given thresholds and factor set.
    pub fn new(config: DecisionConfig, factors: HandoffFactors) -> Self {
        HandoffEngine { config, factors }
    }

    /// Factor 1 — speed chooses the preferred tier. With the factor
    /// disabled the node prefers to stay in its current tier (or micro,
    /// the bandwidth-rich default the paper switches toward).
    fn preferred_tier(&self, speed_mps: f64, current: Option<Tier>) -> Tier {
        if self.factors.speed {
            if speed_mps > self.config.speed_threshold_mps {
                Tier::Macro
            } else {
                Tier::Micro
            }
        } else {
            current.unwrap_or(Tier::Micro)
        }
    }

    /// What must hold of a round's measurements for [`HandoffEngine::decide`]
    /// to answer [`HandoffDecision::Stay`] on a node at `speed_mps` served
    /// by a cell of tier `serving` with `serving_free_ratio` of its
    /// channels free, in a world that deploys the tiers `deploys` admits
    /// (no cell of any other tier is a candidate). `None` when no such
    /// guard is sound: without the signal factor the pick ranks by load,
    /// and a serving cell that is resource-exhausted or of an undeployed
    /// tier is no usable candidate.
    ///
    /// The serving cell stays when it is the best usable cell of the tier
    /// `decide` ranks first: with the serving tier preferred that is the
    /// serving tier itself; otherwise the preferred tier must have no
    /// usable cell, which its silence (or its absence from the
    /// deployment) proves, and the serving tier comes next. Either way the
    /// serving cell must be usable (at least `floor_dbm`) and strictly
    /// louder than every other audible cell of `rivals`.
    pub fn stay_guard(
        &self,
        speed_mps: f64,
        serving: Tier,
        serving_free_ratio: f64,
        deploys: impl Fn(Tier) -> bool,
    ) -> Option<StayGuard> {
        if !self.factors.signal
            || (self.factors.resources && serving_free_ratio < self.config.min_free_ratio)
            || !deploys(serving)
        {
            return None;
        }
        let preferred = self.preferred_tier(speed_mps, Some(serving));
        Some(StayGuard {
            rivals: serving,
            silent: (preferred != serving && deploys(preferred)).then_some(preferred),
            floor_dbm: self.config.min_rssi_dbm,
        })
    }

    /// Best usable candidate within a tier, honoring the signal and
    /// resource factors.
    fn best_in_tier(&self, tier: Tier, candidates: &[Candidate]) -> Option<Candidate> {
        let usable = candidates.iter().filter(|c| {
            c.tier == tier
                && c.rssi_dbm >= self.config.min_rssi_dbm
                && (!self.factors.resources || c.free_ratio >= self.config.min_free_ratio)
        });
        if self.factors.signal {
            usable.max_by(|a, b| {
                a.rssi_dbm
                    .total_cmp(&b.rssi_dbm)
                    .then_with(|| b.cell.cmp(&a.cell))
            })
        } else {
            // Without the signal factor the node just picks the least
            // loaded audible cell (resource factor), or the first.
            usable.max_by(|a, b| {
                a.free_ratio
                    .total_cmp(&b.free_ratio)
                    .then_with(|| b.cell.cmp(&a.cell))
            })
        }
        .copied()
    }

    /// Runs the §3.2 decision for one measurement round.
    ///
    /// `speed_mps` is the node's current speed; `current` its attachment
    /// (if any); `candidates` every audible cell (typically from
    /// `CellMap::measure_batch`).
    pub fn decide(
        &self,
        speed_mps: f64,
        current: Option<CurrentAttachment>,
        candidates: &[Candidate],
    ) -> HandoffDecision {
        let preferred = self.preferred_tier(speed_mps, current.map(|c| c.tier));
        let primary = self.best_in_tier(preferred, candidates);
        let alternate = self.best_in_tier(preferred.other(), candidates);
        let (best, fallback) = match (primary, alternate) {
            (Some(p), a) => (p, a),
            (None, Some(a)) => (a, None),
            (None, None) => {
                // Nothing usable under the enabled constraints; as a last
                // resort take the strongest raw candidate (a full cell is
                // better than an outage), else report outage.
                let Some(any) = candidates
                    .iter()
                    .filter(|c| c.rssi_dbm >= self.config.min_rssi_dbm)
                    .max_by(|a, b| a.rssi_dbm.total_cmp(&b.rssi_dbm))
                else {
                    return HandoffDecision::Outage;
                };
                return self.against_current(current, *any, None);
            }
        };
        // The fallback is never the serving cell: a rejected handoff does
        // not retry onto the cell it leaves.
        let fallback = fallback
            .map(|c| c.cell)
            .filter(|&f| current.is_none_or(|cur| cur.cell != f));
        self.against_current(current, best, fallback)
    }

    /// Compares the chosen target with the current attachment and applies
    /// hysteresis.
    fn against_current(
        &self,
        current: Option<CurrentAttachment>,
        best: Candidate,
        fallback: Option<CellId>,
    ) -> HandoffDecision {
        let handoff = HandoffDecision::Handoff {
            target: best.cell,
            tier: best.tier,
            fallback,
        };
        // Unattached: always take the best cell.
        let Some(cur) = current else {
            return handoff;
        };
        if best.cell == cur.cell {
            return HandoffDecision::Stay;
        }
        // Factor 2's hysteresis rule holds a same-tier move back. It does
        // not apply once coverage is lost (the node must move), nor to a
        // tier change (speed or resource driven: the tiers' power classes
        // differ by construction).
        let held_back = self.factors.signal
            && best.tier == cur.tier
            && cur.rssi_dbm.is_some_and(|r| {
                r >= self.config.min_rssi_dbm && best.rssi_dbm < r + self.config.hysteresis_db
            });
        if held_back {
            HandoffDecision::Stay
        } else {
            handoff
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro(id: u32, rssi: f64, free: f64) -> Candidate {
        Candidate {
            cell: CellId(id),
            tier: Tier::Micro,
            rssi_dbm: rssi,
            free_ratio: free,
        }
    }

    fn mac(id: u32, rssi: f64, free: f64) -> Candidate {
        Candidate {
            cell: CellId(id),
            tier: Tier::Macro,
            rssi_dbm: rssi,
            free_ratio: free,
        }
    }

    fn cur(id: u32, tier: Tier, rssi: f64) -> Option<CurrentAttachment> {
        Some(CurrentAttachment {
            cell: CellId(id),
            tier,
            rssi_dbm: Some(rssi),
        })
    }

    fn engine() -> HandoffEngine {
        HandoffEngine::new(DecisionConfig::default(), HandoffFactors::all())
    }

    #[test]
    fn pedestrian_prefers_micro() {
        let d = engine().decide(1.0, None, &[micro(1, -70.0, 0.9), mac(100, -50.0, 0.9)]);
        assert_eq!(
            d,
            HandoffDecision::Handoff {
                target: CellId(1),
                tier: Tier::Micro,
                fallback: Some(CellId(100))
            }
        );
    }

    #[test]
    fn vehicle_prefers_macro() {
        let d = engine().decide(25.0, None, &[micro(1, -50.0, 0.9), mac(100, -80.0, 0.9)]);
        assert_eq!(
            d,
            HandoffDecision::Handoff {
                target: CellId(100),
                tier: Tier::Macro,
                fallback: Some(CellId(1))
            }
        );
    }

    #[test]
    fn stays_on_current_best() {
        let d = engine().decide(
            1.0,
            cur(1, Tier::Micro, -60.0),
            &[micro(1, -60.0, 0.9), micro(2, -75.0, 0.9)],
        );
        assert_eq!(d, HandoffDecision::Stay);
    }

    #[test]
    fn hysteresis_blocks_marginal_switch() {
        // Cell 2 is 2 dB better — below the 4 dB hysteresis.
        let d = engine().decide(
            1.0,
            cur(1, Tier::Micro, -62.0),
            &[micro(1, -62.0, 0.9), micro(2, -60.0, 0.9)],
        );
        assert_eq!(d, HandoffDecision::Stay);
        // 6 dB better → switch.
        let d2 = engine().decide(
            1.0,
            cur(1, Tier::Micro, -66.0),
            &[micro(1, -66.0, 0.9), micro(2, -60.0, 0.9)],
        );
        assert!(matches!(d2, HandoffDecision::Handoff { target, .. } if target == CellId(2)));
    }

    #[test]
    fn coverage_loss_overrides_hysteresis() {
        let d = engine().decide(
            1.0,
            Some(CurrentAttachment {
                cell: CellId(1),
                tier: Tier::Micro,
                rssi_dbm: None,
            }),
            &[micro(2, -90.0, 0.9)],
        );
        assert!(matches!(d, HandoffDecision::Handoff { target, .. } if target == CellId(2)));
    }

    #[test]
    fn resource_exhaustion_falls_back_to_other_tier() {
        // Preferred micro tier is full (factor 3): macro wins directly.
        let d = engine().decide(
            1.0,
            cur(1, Tier::Micro, -60.0),
            &[
                micro(1, -60.0, 0.0),
                micro(2, -58.0, 0.01),
                mac(100, -70.0, 0.5),
            ],
        );
        assert_eq!(
            d,
            HandoffDecision::Handoff {
                target: CellId(100),
                tier: Tier::Macro,
                fallback: None
            }
        );
    }

    #[test]
    fn resource_factor_disabled_ignores_load() {
        let e = HandoffEngine::new(
            DecisionConfig::default(),
            HandoffFactors {
                speed: true,
                signal: true,
                resources: false,
            },
        );
        let d = e.decide(1.0, None, &[micro(1, -60.0, 0.0), mac(100, -50.0, 0.9)]);
        assert!(matches!(d, HandoffDecision::Handoff { target, .. } if target == CellId(1)));
    }

    #[test]
    fn speed_factor_disabled_keeps_tier() {
        let e = HandoffEngine::new(
            DecisionConfig::default(),
            HandoffFactors {
                speed: false,
                signal: true,
                resources: true,
            },
        );
        // Fast node on micro stays micro-preferring without factor 1.
        let d = e.decide(
            30.0,
            cur(1, Tier::Micro, -60.0),
            &[micro(1, -60.0, 0.9), mac(100, -50.0, 0.9)],
        );
        assert_eq!(d, HandoffDecision::Stay);
    }

    #[test]
    fn signal_factor_disabled_prefers_load() {
        let e = HandoffEngine::new(
            DecisionConfig::default(),
            HandoffFactors {
                speed: true,
                signal: false,
                resources: true,
            },
        );
        let d = e.decide(1.0, None, &[micro(1, -50.0, 0.2), micro(2, -80.0, 0.9)]);
        assert!(
            matches!(d, HandoffDecision::Handoff { target, .. } if target == CellId(2)),
            "without signal factor the least-loaded cell wins: {d:?}"
        );
    }

    #[test]
    fn below_sensitivity_cells_unusable() {
        let d = engine().decide(1.0, None, &[micro(1, -99.0, 0.9)]);
        assert_eq!(d, HandoffDecision::Outage);
    }

    #[test]
    fn full_cells_better_than_outage() {
        // Everything is resource-exhausted, but audible: attach anyway.
        let d = engine().decide(1.0, None, &[micro(1, -70.0, 0.0), mac(2, -80.0, 0.0)]);
        assert!(matches!(d, HandoffDecision::Handoff { target, .. } if target == CellId(1)));
    }

    #[test]
    fn empty_candidates_is_outage() {
        assert_eq!(engine().decide(1.0, None, &[]), HandoffDecision::Outage);
    }

    #[test]
    fn tier_change_skips_hysteresis() {
        // Node slows down: prefers micro even though macro signal is fine.
        let d = engine().decide(
            1.0,
            cur(100, Tier::Macro, -50.0),
            &[micro(1, -75.0, 0.9), mac(100, -50.0, 0.9)],
        );
        assert!(matches!(
            d,
            HandoffDecision::Handoff { target, tier: Tier::Micro, .. } if target == CellId(1)
        ));
    }

    #[test]
    fn fallback_is_never_the_serving_cell() {
        // A slow macro-served node is steered to micro; the other tier's
        // best cell is the one it is leaving.
        let d = engine().decide(
            1.0,
            cur(100, Tier::Macro, -50.0),
            &[micro(1, -70.0, 0.9), mac(100, -50.0, 0.9)],
        );
        assert_eq!(
            d,
            HandoffDecision::Handoff {
                target: CellId(1),
                tier: Tier::Micro,
                fallback: None
            }
        );
    }

    #[test]
    fn stay_guard_names_the_tiers_decide_ranks_first() {
        let both = |_: Tier| true;
        let e = engine();
        let guard = |speed, serving, free| e.stay_guard(speed, serving, free, both);
        let g = guard(1.0, Tier::Micro, 0.9).expect("a guard");
        assert_eq!((g.rivals, g.silent), (Tier::Micro, None));
        assert_eq!(g.floor_dbm, DecisionConfig::default().min_rssi_dbm);
        // A walker on the macro tier stays only while no micro cell is
        // audible: the preferred tier must be silent.
        let g = guard(1.0, Tier::Macro, 0.9).expect("a guard");
        assert_eq!((g.rivals, g.silent), (Tier::Macro, Some(Tier::Micro)));
        // ...unless the architecture deploys no micro tier at all.
        let macro_only = e.stay_guard(1.0, Tier::Macro, 0.9, |t| t == Tier::Macro);
        assert_eq!(macro_only.map(|g| g.silent), Some(None));
        // No guard for an exhausted serving cell, an undeployed serving
        // tier, or ranking by load.
        assert_eq!(guard(1.0, Tier::Micro, 0.0), None);
        assert_eq!(
            e.stay_guard(1.0, Tier::Micro, 0.9, |t| t == Tier::Macro),
            None
        );
        let by_load = HandoffEngine::new(
            DecisionConfig::default(),
            HandoffFactors::parse_label("speed+resources").unwrap(),
        );
        assert_eq!(by_load.stay_guard(1.0, Tier::Micro, 0.9, both), None);
        // Without the speed factor the serving tier is the preferred one.
        let no_speed = HandoffEngine::new(
            DecisionConfig::default(),
            HandoffFactors::parse_label("signal+resources").unwrap(),
        );
        let g = no_speed
            .stay_guard(30.0, Tier::Micro, 0.9, both)
            .expect("a guard");
        assert_eq!(g.silent, None);
    }

    #[test]
    fn deterministic_tie_break_by_cell_id() {
        let d = engine().decide(1.0, None, &[micro(2, -60.0, 0.9), micro(1, -60.0, 0.9)]);
        assert!(matches!(d, HandoffDecision::Handoff { target, .. } if target == CellId(1)));
    }
}
