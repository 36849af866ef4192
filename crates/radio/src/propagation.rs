//! Log-distance path loss, one exponent per tier.

use crate::cell::CellKind;

/// Log-distance path-loss model:
///
/// `PL(d) = PL(1 m) + 10·n·log10(d / 1 m)`
///
/// Every world computes received power as `tx − PL(d)` with the
/// receiving tier's exponent (see [`PathLoss::of`]); there is no
/// shadowing term, so a handoff point follows from geometry alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    /// Path-loss exponent (2 free space … 4 dense urban).
    pub exponent: f64,
    /// Reference loss at 1 m, in dB.
    pub ref_loss_db: f64,
}

impl PathLoss {
    /// The model of one tier: its exponent over 40 dB at 1 m.
    pub fn of(kind: CellKind) -> Self {
        PathLoss {
            exponent: kind.path_loss_exponent(),
            ref_loss_db: 40.0,
        }
    }

    /// Mean path loss at distance `d` meters.
    pub fn mean_loss_db(&self, d: f64) -> f64 {
        let d = d.max(1.0); // inside 1 m, use the reference loss
        self.ref_loss_db + 10.0 * self.exponent * d.log10()
    }

    /// The distance at which mean received power falls to `threshold_dbm`
    /// for a transmitter at `tx_power_dbm` — the effective cell edge.
    pub fn range_for_threshold(&self, tx_power_dbm: f64, threshold_dbm: f64) -> f64 {
        // tx - ref - 10 n log10(d) = thr  =>  d = 10^((tx - ref - thr)/(10 n))
        let margin = tx_power_dbm - self.ref_loss_db - threshold_dbm;
        10f64.powf(margin / (10.0 * self.exponent))
    }
}

/// Receiver sensitivity floor used across the reproduction, in dBm.
/// Signals below this are treated as "no coverage".
pub const SENSITIVITY_DBM: f64 = -100.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn model(exponent: f64) -> PathLoss {
        PathLoss {
            exponent,
            ref_loss_db: 40.0,
        }
    }

    #[test]
    fn loss_increases_with_distance() {
        let pl = model(3.0);
        let l10 = pl.mean_loss_db(10.0);
        let l100 = pl.mean_loss_db(100.0);
        let l1000 = pl.mean_loss_db(1000.0);
        assert!(l10 < l100 && l100 < l1000);
        // 10x distance at n=3 adds exactly 30 dB.
        assert!((l100 - l10 - 30.0).abs() < 1e-9);
        assert!((l1000 - l100 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn sub_meter_clamps_to_reference() {
        let pl = model(3.0);
        assert_eq!(pl.mean_loss_db(0.0), pl.ref_loss_db);
        assert_eq!(pl.mean_loss_db(0.5), pl.ref_loss_db);
        assert_eq!(pl.mean_loss_db(1.0), pl.ref_loss_db);
    }

    #[test]
    fn range_for_threshold_inverts_loss() {
        for kind in CellKind::ALL {
            let pl = PathLoss::of(kind);
            let d = pl.range_for_threshold(kind.tx_power_dbm(), SENSITIVITY_DBM);
            let rx = kind.tx_power_dbm() - pl.mean_loss_db(d);
            assert!(
                (rx - SENSITIVITY_DBM).abs() < 0.01,
                "{kind} rx at range: {rx}"
            );
        }
    }

    #[test]
    fn higher_exponent_shrinks_range() {
        let loose = model(2.5).range_for_threshold(30.0, -90.0);
        let dense = model(4.0).range_for_threshold(30.0, -90.0);
        assert!(dense < loose);
    }
}
