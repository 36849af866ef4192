//! The architectures under comparison: the paper's proposal and its two
//! baselines. Geographies and populations are
//! [`crate::spec::ScenarioSpec`] presets.

use crate::world::WorldConfig;
use mtnet_cellularip::HandoffKind;

/// Which architecture an experiment arm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// The paper's proposal: Mobile IP macro-tier + Cellular IP micro-tier
    /// with per-domain RSMCs (§4).
    MultiTier {
        /// RSMC active (location cache + HA/CN notification). `false`
        /// gives the "hierarchy without RSMC" ablation.
        rsmc: bool,
        /// Semisoft micro-tier handoff; `false` = hard handoff.
        semisoft: bool,
    },
    /// Baseline: Mobile IP only, macro cells, every BS an FA, full
    /// registration on every handoff (§2.2.1).
    PureMobileIp,
    /// Baseline: flat Cellular IP micro-tier only, one gateway per domain,
    /// no macro umbrella (§2.2.2).
    FlatCellularIp,
}

impl ArchKind {
    /// The paper's full architecture.
    pub fn multi_tier() -> ArchKind {
        ArchKind::MultiTier {
            rsmc: true,
            semisoft: true,
        }
    }

    /// The paper's architecture with hard handoff (Fig 2.4 comparison).
    pub fn multi_tier_hard() -> ArchKind {
        ArchKind::MultiTier {
            rsmc: true,
            semisoft: false,
        }
    }

    /// Hierarchy without the RSMC (E9 ablation).
    pub fn multi_tier_no_rsmc() -> ArchKind {
        ArchKind::MultiTier {
            rsmc: false,
            semisoft: true,
        }
    }

    /// Canonical, bijective textual form for scenario-spec files. Unlike
    /// [`ArchKind::label`] (a display label that collapses the two
    /// no-RSMC variants), every architecture renders distinctly, so
    /// `parse_label(canonical(a)) == a` for all values.
    pub fn canonical(&self) -> &'static str {
        match self {
            ArchKind::MultiTier {
                rsmc: false,
                semisoft: false,
            } => "multi-tier-no-rsmc(hard)",
            other => other.label(),
        }
    }

    /// Parses either canonical form or display label.
    pub fn parse_label(s: &str) -> Option<ArchKind> {
        match s {
            "multi-tier+rsmc" => Some(ArchKind::multi_tier()),
            "multi-tier(hard)" => Some(ArchKind::multi_tier_hard()),
            "multi-tier-no-rsmc" => Some(ArchKind::multi_tier_no_rsmc()),
            "multi-tier-no-rsmc(hard)" => Some(ArchKind::MultiTier {
                rsmc: false,
                semisoft: false,
            }),
            "pure-mobile-ip" => Some(ArchKind::PureMobileIp),
            "flat-cellular-ip" => Some(ArchKind::FlatCellularIp),
            _ => None,
        }
    }

    /// Short display label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArchKind::MultiTier {
                rsmc: true,
                semisoft: true,
            } => "multi-tier+rsmc",
            ArchKind::MultiTier {
                rsmc: true,
                semisoft: false,
            } => "multi-tier(hard)",
            ArchKind::MultiTier { rsmc: false, .. } => "multi-tier-no-rsmc",
            ArchKind::PureMobileIp => "pure-mobile-ip",
            ArchKind::FlatCellularIp => "flat-cellular-ip",
        }
    }

    pub(crate) fn apply(self, cfg: &mut WorldConfig) {
        match self {
            ArchKind::MultiTier { rsmc, semisoft } => {
                cfg.has_macro = true;
                cfg.has_micro = true;
                cfg.mip_only = false;
                cfg.rsmc_enabled = rsmc;
                cfg.notify_cn = rsmc;
                cfg.handoff_kind = if semisoft {
                    HandoffKind::default_semisoft()
                } else {
                    HandoffKind::Hard
                };
            }
            ArchKind::PureMobileIp => {
                cfg.has_macro = true;
                cfg.has_micro = false;
                cfg.mip_only = true;
                cfg.rsmc_enabled = false;
                cfg.notify_cn = false;
                cfg.handoff_kind = HandoffKind::Hard;
            }
            ArchKind::FlatCellularIp => {
                cfg.has_macro = false;
                cfg.has_micro = true;
                cfg.mip_only = false;
                cfg.rsmc_enabled = false;
                cfg.notify_cn = false;
                cfg.handoff_kind = HandoffKind::Hard;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn presets_build() {
        for s in [
            ScenarioSpec::small_city().with_raw_seed(1),
            ScenarioSpec::commute_corridor().with_raw_seed(2),
            ScenarioSpec::single_domain().with_raw_seed(3),
        ] {
            let w = s.build(0);
            let dbg = format!("{w:?}");
            assert!(dbg.contains("World"), "{dbg}");
        }
    }

    #[test]
    fn arch_labels_distinct() {
        let labels: std::collections::HashSet<&str> = [
            ArchKind::multi_tier(),
            ArchKind::multi_tier_hard(),
            ArchKind::multi_tier_no_rsmc(),
            ArchKind::PureMobileIp,
            ArchKind::FlatCellularIp,
        ]
        .iter()
        .map(|a| a.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn corridor_width_scales() {
        assert_eq!(ScenarioSpec::small_city().corridor_width(), 9_000.0);
        assert_eq!(ScenarioSpec::commute_corridor().corridor_width(), 6_000.0);
    }

    #[test]
    fn smoke_run_multi_tier() {
        let report = ScenarioSpec::commute_corridor()
            .with_raw_seed(7)
            .with_duration_s(20.0)
            .run(0);
        let qos = report.aggregate_qos();
        assert!(qos.sent > 100, "traffic flowed: {} sent", qos.sent);
        assert!(
            qos.received > 0,
            "packets delivered; drops: {:?}",
            report.drops
        );
        assert!(
            qos.loss_rate < 0.9,
            "loss {:.3} suspiciously total",
            qos.loss_rate
        );
    }

    #[test]
    fn smoke_run_baselines() {
        for arch in [ArchKind::PureMobileIp, ArchKind::FlatCellularIp] {
            let report = ScenarioSpec::commute_corridor()
                .with_raw_seed(7)
                .with_arch(arch)
                .with_duration_s(15.0)
                .run(0);
            let qos = report.aggregate_qos();
            assert!(qos.sent > 50, "{}: no traffic", arch.label());
            assert!(
                qos.received > 0,
                "{}: nothing delivered, drops {:?}",
                arch.label(),
                report.drops
            );
        }
    }

    #[test]
    fn vehicles_cause_handoffs() {
        // The corridor is 6 km; at 25 m/s the shuttle crosses the domain
        // boundary around t = 104 s and returns around t = 344 s.
        let report = ScenarioSpec::commute_corridor()
            .with_raw_seed(11)
            .with_duration_s(250.0)
            .run(0);
        assert!(
            report.handoffs.total() >= 2,
            "a 25 m/s shuttle must hand off: {:?}",
            report.handoffs.completed
        );
        assert!(
            report
                .handoffs
                .completed
                .keys()
                .any(|t| t.is_inter_domain()),
            "domain boundary crossing must register: {:?}",
            report.handoffs.completed
        );
    }

    #[test]
    fn cyclists_generate_micro_micro_handoffs() {
        let report = ScenarioSpec::single_domain()
            .with_raw_seed(5)
            .with_duration_s(200.0)
            .run(0);
        let micro_micro = report
            .handoffs
            .completed
            .get(&crate::handoff::HandoffType::IntraMicroToMicro)
            .copied()
            .unwrap_or(0);
        assert!(
            micro_micro >= 4,
            "cyclists crossing the street row must hand off micro-to-micro: {:?}",
            report.handoffs.completed
        );
    }
}
