//! The RSSI d² pre-filter sweep over structure-of-arrays position and
//! radius lanes.
//!
//! A plain scalar loop on purpose: explicit 4- and 8-wide chunk sweeps
//! measured no different from it end to end on any workload
//! (EXPERIMENTS.md § Performance, rung 1).
//!
//! The hit decision is written as `!(d2 > r2)`, so a boundary-exact entry
//! (d² == r²) and a NaN distance are both admitted: the sweep is a
//! conservative pre-filter, and survivors are re-checked by the exact
//! scalar tail (`hypot`/path loss/`total_cmp`) in [`crate::CellMap`].

/// Sweeps the SoA position/radius lanes and calls `on_hit(i)` for every
/// index whose widened squared-radius bound admits the query point, in
/// ascending index order.
#[inline]
pub(crate) fn sweep_scalar(
    xs: &[f64],
    ys: &[f64],
    r2s: &[f64],
    px: f64,
    py: f64,
    mut on_hit: impl FnMut(usize),
) {
    debug_assert!(ys.len() == xs.len() && r2s.len() == xs.len());
    for i in 0..xs.len() {
        let dx = xs[i] - px;
        let dy = ys[i] - py;
        if !(dx * dx + dy * dy > r2s[i]) {
            on_hit(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(xs: &[f64], ys: &[f64], r2s: &[f64], px: f64, py: f64) -> Vec<usize> {
        let mut out = Vec::new();
        sweep_scalar(xs, ys, r2s, px, py, |i| out.push(i));
        out
    }

    #[test]
    fn boundary_exact_distance_is_admitted() {
        // Distance² identical to the bound: the filter keeps `!(d2 > r2)`.
        let (xs, ys, r2s) = (vec![3.0], vec![4.0], vec![25.0]);
        assert_eq!(collect(&xs, &ys, &r2s, 0.0, 0.0), [0]);
    }

    #[test]
    fn hits_arrive_in_ascending_index_order() {
        let n = 23;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys = vec![0.0; n];
        let r2s = vec![1e9; n];
        let hits = collect(&xs, &ys, &r2s, 0.0, 0.0);
        assert_eq!(hits, (0..n).collect::<Vec<_>>());
    }
}
