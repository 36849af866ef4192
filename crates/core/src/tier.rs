//! The two managed tiers of the proposed architecture.
//!
//! The paper's cellular hierarchy has three levels (pico, micro, macro) but
//! "the focused facilities of mobility management and handoff strategy are
//! separated into micro-cell and macro-cell" (§4): Cellular IP runs in the
//! micro-tier, Mobile IP in the macro-tier. Pico cells, where deployed,
//! are managed exactly like micro cells (they join the same Cellular IP
//! tree), so the mobility machinery only distinguishes these two tiers.

use mtnet_radio::CellKind;
use std::fmt;

/// A mobility-management tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Micro-tier: micro (and pico) cells under Cellular IP.
    Micro,
    /// Macro-tier: macro cells under Mobile IP.
    Macro,
}

impl Tier {
    /// The tier managing a given radio cell kind.
    ///
    /// Satellite cells are treated as macro-tier (they are the outermost
    /// umbrella of Fig 2.1 and, like macro cells, are Mobile IP-managed).
    pub fn of_cell(kind: CellKind) -> Tier {
        match kind {
            CellKind::Pico | CellKind::Micro => Tier::Micro,
            CellKind::Macro | CellKind::Satellite => Tier::Macro,
        }
    }

    /// The other tier.
    pub fn other(self) -> Tier {
        match self {
            Tier::Micro => Tier::Macro,
            Tier::Macro => Tier::Micro,
        }
    }

    /// Speed threshold above which the handoff strategy prefers this tier's
    /// complement: nodes faster than this belong in the macro tier (they
    /// would otherwise hand off between micro cells too often), slower
    /// nodes in the micro tier (where bandwidth is plentiful). The value —
    /// about a brisk cycling speed — follows the multi-tier speed-sensitive
    /// assignment literature the paper builds on (refs \[6]\[7]).
    pub const SPEED_THRESHOLD_MPS: f64 = 8.0;

    /// The tier a node moving at `speed_mps` should prefer, considering
    /// only the speed factor of §3.2.
    pub fn preferred_for_speed(speed_mps: f64) -> Tier {
        if speed_mps > Self::SPEED_THRESHOLD_MPS {
            Tier::Macro
        } else {
            Tier::Micro
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Micro => f.write_str("micro"),
            Tier::Macro => f.write_str("macro"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_kind_mapping() {
        assert_eq!(Tier::of_cell(CellKind::Pico), Tier::Micro);
        assert_eq!(Tier::of_cell(CellKind::Micro), Tier::Micro);
        assert_eq!(Tier::of_cell(CellKind::Macro), Tier::Macro);
        assert_eq!(Tier::of_cell(CellKind::Satellite), Tier::Macro);
    }

    #[test]
    fn other_is_involution() {
        for t in [Tier::Micro, Tier::Macro] {
            assert_eq!(t.other().other(), t);
            assert_ne!(t.other(), t);
        }
    }

    #[test]
    fn speed_preference() {
        assert_eq!(Tier::preferred_for_speed(1.0), Tier::Micro, "pedestrian");
        assert_eq!(Tier::preferred_for_speed(30.0), Tier::Macro, "highway");
        // Threshold itself stays micro (strictly-greater comparison).
        assert_eq!(
            Tier::preferred_for_speed(Tier::SPEED_THRESHOLD_MPS),
            Tier::Micro
        );
    }

    #[test]
    fn display() {
        assert_eq!(Tier::Micro.to_string(), "micro");
        assert_eq!(Tier::Macro.to_string(), "macro");
    }
}
