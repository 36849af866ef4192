//! The parameter-sweep plan: grid/list expansion of scenario-spec axes
//! into cells, and the table every view of a grid renders. The lease
//! workers of [`crate::coord`] drain the cells into the resumable
//! [`crate::store::ResultStore`].
//!
//! A sweep is a base [`ScenarioSpec`] (a named family or a parsed spec
//! file) plus a list of **axes** — `key=v1,v2,…` assignments over any
//! key the spec text format names (see `ScenarioSpec::set`). Cells are
//! the Cartesian product of the axes times the replication count; each
//! cell's seed is derived from the `["sweep", family, assignments]` path
//! (`mtnet_sim::rng::seed_for_path`), so a cell's random numbers depend
//! only on its own coordinates — never on which other cells the sweep
//! happens to contain, which is what makes grid *extension* resumable:
//! old cells keep their store slots, new cells compute fresh.
//!
//! Numeric axes support range syntax `lo..hi..step` (inclusive ends),
//! e.g. `domains=1..4..1` or `pedestrian_pause_s=0.1..0.4..0.1`. Float ranges
//! are generated by index multiplication (`lo + k*step`), never by
//! repeated addition, so the endpoint cell is neither dropped nor
//! duplicated when `(hi-lo)/step` is not exactly representable. List
//! values may be double-quoted to carry literal `,` or `..`.

use crate::store::{MetricValue, StoredRun, METRICS};
use crate::Effort;
use mtnet_core::spec::{ScenarioSpec, SeedSpec};
use mtnet_metrics::Table;
use mtnet_sim::runner::parse_count;

/// Most cells one sweep may expand to — grid points times
/// replications, and so also the most values one axis may hold. Sizes
/// are counted with checked arithmetic before anything is allocated, so
/// a hostile range or `--reps` is refused instead of aborting the
/// process on a failed allocation.
const MAX_SWEEP_CELLS: u64 = 100_000;

/// Validates the `--reps` count: a positive integer.
pub fn parse_reps(value: &str) -> Result<u64, String> {
    match parse_count::<u64>(value) {
        Some(n) if n >= 1 => Ok(n),
        _ => Err(format!("--reps needs a positive integer, got {value:?}")),
    }
}

/// Validates the `--seed` master seed: a non-negative integer.
pub fn parse_seed(value: &str) -> Result<u64, String> {
    parse_count(value).ok_or_else(|| format!("--seed needs a non-negative integer, got {value:?}"))
}

/// One sweep axis: a spec key and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// A key of the spec text format (`arch`, `domains`, …).
    pub key: String,
    /// The values the axis enumerates, in order.
    pub values: Vec<String>,
}

/// Parses an `--axis` argument: `key=v1,v2,…` or `key=lo..hi..step`.
pub fn parse_axis(arg: &str) -> Result<Axis, String> {
    let (key, values) = arg
        .split_once('=')
        .ok_or_else(|| format!("axis {arg:?} is not key=v1,v2,…"))?;
    let key = key.trim();
    if key.is_empty() {
        return Err(format!("axis {arg:?} has an empty key"));
    }
    let values = values.trim();
    // Quoted values are always a list (the quotes may hide `..`); an
    // unquoted, comma-free value containing `..` is a range.
    let is_range = values.contains("..") && !values.contains(',') && !values.contains('"');
    let expanded: Vec<String> = if is_range {
        expand_range(arg, key, values)?
    } else {
        split_list(arg, values)?
    };
    if expanded.is_empty() {
        return Err(format!("axis {arg:?} has no values"));
    }
    Ok(Axis {
        key: key.to_string(),
        values: expanded,
    })
}

/// Expands `lo..hi..step` (both ends inclusive, step defaults to 1).
/// Integer ranges enumerate exactly; float ranges generate each value by
/// index multiplication `lo + k*step` — repeated addition would drift
/// and drop or duplicate the endpoint cell when `(hi-lo)/step` is not
/// exactly representable (e.g. `0.1..0.4..0.1` must yield 4 cells).
fn expand_range(arg: &str, key: &str, values: &str) -> Result<Vec<String>, String> {
    let (lo, rest) = values.split_once("..").expect("caller checked for ..");
    let (hi, step) = rest.split_once("..").unwrap_or((rest, "1"));
    let (lo, hi, step) = (lo.trim(), hi.trim(), step.trim());
    let too_many =
        || format!("axis {arg:?}: {key} must be a range of at most {MAX_SWEEP_CELLS} values");
    if let (Ok(lo), Ok(hi), Ok(step)) = (lo.parse::<i64>(), hi.parse::<i64>(), step.parse::<i64>())
    {
        if step <= 0 {
            return Err(format!("axis {arg:?}: step must be positive"));
        }
        // In i128 the span of any two i64s is exact.
        let span = i128::from(hi) - i128::from(lo);
        if span / i128::from(step) >= i128::from(MAX_SWEEP_CELLS) {
            return Err(too_many());
        }
        return Ok((lo..=hi)
            .step_by(step as usize)
            .map(|v| v.to_string())
            .collect());
    }
    let parse = |s: &str, what| {
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("axis {arg:?}: {what} {s:?} is not a number"))
    };
    let (flo, fhi, fstep) = (parse(lo, "start")?, parse(hi, "end")?, parse(step, "step")?);
    if !(fstep > 0.0) {
        return Err(format!("axis {arg:?}: step must be positive"));
    }
    // Cell count from the rounded span, values from the index — the
    // 1e-9 relative slack admits spans like (0.4-0.1)/0.1 = 2.9999…96.
    let span = (fhi - flo) / fstep;
    if span < 0.0 {
        return Ok(Vec::new());
    }
    if span + 1e-9 >= MAX_SWEEP_CELLS as f64 {
        return Err(too_many());
    }
    let count = (span + 1e-9).floor() as u64 + 1;
    // Render with the precision the user wrote, so 0.1+2*0.1 prints as
    // "0.3", not "0.30000000000000004".
    let decimals = decimal_places(lo).max(decimal_places(step));
    Ok((0..count)
        .map(|k| format!("{:.*}", decimals, flo + k as f64 * fstep))
        .collect())
}

/// Digits after the `.` in a numeric literal, for stable range rendering.
fn decimal_places(s: &str) -> usize {
    s.split_once('.').map_or(0, |(_, frac)| frac.len())
}

/// Splits a comma-separated value list. Double quotes protect literal
/// `,` (and `..`) inside a value; the quotes themselves are stripped.
/// Whitespace around unquoted values is trimmed.
fn split_list(arg: &str, values: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let flush = |cur: &mut String, out: &mut Vec<String>| {
        let v = cur.trim();
        if !v.is_empty() {
            out.push(v.to_string());
        }
        cur.clear();
    };
    for c in values.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => flush(&mut cur, &mut out),
            _ => cur.push(c),
        }
    }
    if in_quotes {
        return Err(format!("axis {arg:?} has an unterminated quote"));
    }
    flush(&mut cur, &mut out);
    Ok(out)
}

/// A fully-described sweep: base spec, axes, replication count, effort.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Family name (labels, seed paths, summary lines).
    pub family: String,
    /// The spec every cell starts from. Its `duration_s` is scaled by
    /// [`SweepPlan::effort`] after axis assignment.
    pub base: ScenarioSpec,
    /// Grid axes; empty means a single cell (the base itself).
    pub axes: Vec<Axis>,
    /// Independent replications per grid point (≥ 1).
    pub replications: u64,
    /// Duration scaling applied to every cell.
    pub effort: Effort,
}

/// One expanded cell: the axis assignments and the ready-to-run spec.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// `key=value` assignments in axis order.
    pub assignments: Vec<(String, String)>,
    /// Replication index.
    pub replication: u64,
    /// Display / store label: assignments plus `rep=n`.
    pub label: String,
    /// The cell's spec (assignments applied, duration scaled, sweep seed
    /// path installed).
    pub spec: ScenarioSpec,
}

impl SweepPlan {
    /// Expands the Cartesian product of the axes times the replication
    /// count, in axis-major order (later axes vary fastest, replications
    /// innermost).
    pub fn cells(&self) -> Result<Vec<SweepCell>, String> {
        if self.replications == 0 {
            return Err("replications must be >= 1".into());
        }
        let mut points: u64 = 1;
        for axis in &self.axes {
            points = points
                .checked_mul(axis.values.len() as u64)
                .filter(|&n| n <= MAX_SWEEP_CELLS)
                .ok_or_else(|| {
                    format!(
                        "{} must be narrower: the grid would pass {MAX_SWEEP_CELLS} cells",
                        axis.key
                    )
                })?;
        }
        if points.saturating_mul(self.replications) > MAX_SWEEP_CELLS {
            return Err(format!(
                "--reps must be at most {} for {points} grid point(s), got {}",
                MAX_SWEEP_CELLS / points,
                self.replications
            ));
        }
        let mut grid: Vec<Vec<(String, String)>> = vec![Vec::new()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(grid.len() * axis.values.len());
            for prefix in &grid {
                for value in &axis.values {
                    let mut assignments = prefix.clone();
                    assignments.push((axis.key.clone(), value.clone()));
                    next.push(assignments);
                }
            }
            grid = next;
        }
        for axis in &self.axes {
            // A seed axis would be silently overwritten by the sweep's own
            // path derivation below — reject it loudly instead of running
            // cells whose labels claim seeds they never used.
            if axis.key == "seed" {
                return Err(
                    "\"seed\" cannot be a sweep axis: cell seeds derive from the \
                            [sweep, family, assignments] path (vary --seed or --reps instead)"
                        .into(),
                );
            }
        }
        let mut cells = Vec::with_capacity(grid.len() * self.replications as usize);
        for assignments in grid {
            let point_label = if assignments.is_empty() {
                "base".to_string()
            } else {
                assignments
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            for rep in 0..self.replications {
                let mut spec = self.base.clone();
                for (key, value) in &assignments {
                    spec.set(key, value)
                        .map_err(|e| format!("cell {point_label}: {e}"))?;
                }
                spec.duration_s = self.effort.secs(spec.duration_s);
                // The seed path names only the cell's own coordinates, so
                // extending the grid or adding replications never reseeds
                // existing cells.
                spec.seed = SeedSpec::Path {
                    path: vec!["sweep".into(), self.family.clone(), point_label.clone()],
                    replication: rep,
                };
                spec.validate()
                    .map_err(|e| format!("cell {point_label}: {e}"))?;
                cells.push(SweepCell {
                    assignments: assignments.clone(),
                    replication: rep,
                    label: format!("{point_label} rep={rep}"),
                    spec,
                });
            }
        }
        Ok(cells)
    }
}

pub(crate) fn fmt_metric(run: &StoredRun, name: &str) -> String {
    match run.metric(name) {
        Some(MetricValue::U(v)) => v.to_string(),
        Some(MetricValue::F(v)) if name == "loss_rate" => format!("{:.3}%", v * 100.0),
        Some(MetricValue::F(v)) => format!("{v:.1}"),
        None => "-".into(),
    }
}

/// The header every sweep table shares: the axis keys (or `cell` for an
/// axis-free plan), the count column (`rep` per cell, `n` per grid
/// point), the metric columns, then `extra`.
pub(crate) fn grid_table(plan: &SweepPlan, count: &str, extra: &[&str]) -> Table {
    let mut header: Vec<String> = plan.axes.iter().map(|a| a.key.clone()).collect();
    if header.is_empty() {
        header.push("cell".into());
    }
    header.push(count.into());
    let metrics = METRICS.iter().map(|(name, _)| name);
    header.extend(metrics.chain(extra).map(|m| m.to_string()));
    Table::new(header)
}

/// One row under [`grid_table`]: the axis values (or `base`), the count
/// column, one text per [`METRICS`] column, then `extra`.
pub(crate) fn grid_row(
    assignments: &[(String, String)],
    count: String,
    metrics: impl IntoIterator<Item = String>,
    extra: Option<String>,
) -> Vec<String> {
    let mut row: Vec<String> = if assignments.is_empty() {
        vec!["base".into()]
    } else {
        assignments.iter().map(|(_, v)| v.clone()).collect()
    };
    row.push(count);
    row.extend(metrics);
    row.extend(extra);
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_list_and_range_parse() {
        let a = parse_axis("arch=multi-tier+rsmc, flat-cellular-ip").unwrap();
        assert_eq!(a.key, "arch");
        assert_eq!(a.values, vec!["multi-tier+rsmc", "flat-cellular-ip"]);
        let r = parse_axis("domains=1..4..1").unwrap();
        assert_eq!(r.values, vec!["1", "2", "3", "4"]);
        let s = parse_axis("route_update_ms=500..2500..1000").unwrap();
        assert_eq!(s.values, vec!["500", "1500", "2500"]);
        assert!(parse_axis("noequals").is_err());
        assert!(parse_axis("x=").is_err());
        assert!(parse_axis("x=1..5..0").is_err());
        // Sizes are counted before anything is allocated: the ceiling
        // itself expands, one past it is refused naming the key.
        let full = parse_axis(&format!("x=1..{MAX_SWEEP_CELLS}")).unwrap();
        assert_eq!(full.values.len() as u64, MAX_SWEEP_CELLS);
        for hostile in [
            "domains=1..1000000000000",
            &format!("domains=0..{MAX_SWEEP_CELLS}"),
            "domains=-9223372036854775808..9223372036854775807",
            "domains=0.0..1e300..1e-300",
        ] {
            let err = parse_axis(hostile).unwrap_err();
            assert!(err.contains("domains must be"), "{hostile}: {err}");
        }
    }

    #[test]
    fn float_range_hits_the_endpoint_exactly_once() {
        // (0.4-0.1)/0.1 is 2.9999…96 in f64; repeated addition would
        // overshoot and drop the 0.4 cell. Index multiplication keeps it.
        let a = parse_axis("pedestrian_pause_s=0.1..0.4..0.1").unwrap();
        assert_eq!(a.values, vec!["0.1", "0.2", "0.3", "0.4"]);
        let b = parse_axis("pedestrian_pause_s=0.25..1.0..0.25").unwrap();
        assert_eq!(b.values, vec!["0.25", "0.50", "0.75", "1.00"]);
        // Mixed int/float bounds take the float path.
        let c = parse_axis("x=1..2..0.5").unwrap();
        assert_eq!(c.values, vec!["1.0", "1.5", "2.0"]);
        // A zero-span float range is a single cell.
        let d = parse_axis("x=0.3..0.3..0.1").unwrap();
        assert_eq!(d.values, vec!["0.3"]);
        let err = parse_axis("x=0.1..0.4..0.0").unwrap_err();
        assert!(err.contains("step must be positive"), "{err}");
        let err = parse_axis("x=0.1..nan..0.1").unwrap_err();
        assert!(err.contains('x'), "{err}");
    }

    #[test]
    fn list_values_trim_whitespace_around_commas() {
        let a = parse_axis("arch=a, b ,  c").unwrap();
        assert_eq!(a.values, vec!["a", "b", "c"]);
    }

    #[test]
    fn quoted_values_protect_commas_and_dots() {
        let a = parse_axis(r#"label="a,b",c"#).unwrap();
        assert_eq!(a.values, vec!["a,b", "c"]);
        // Quotes hide `..` from range detection: this is a 1-value list.
        let b = parse_axis(r#"label="1..4""#).unwrap();
        assert_eq!(b.values, vec!["1..4"]);
        let err = parse_axis(r#"label="unterminated"#).unwrap_err();
        assert!(err.contains("label") && err.contains("quote"), "{err}");
    }

    #[test]
    fn empty_value_list_is_rejected_naming_the_axis() {
        let err = parse_axis("domains=").unwrap_err();
        assert!(err.contains("domains"), "{err}");
        let err = parse_axis("domains= , ,").unwrap_err();
        assert!(
            err.contains("domains") && err.contains("no values"),
            "{err}"
        );
    }

    #[test]
    fn zero_replications_is_rejected() {
        let plan = SweepPlan {
            family: "x".into(),
            base: ScenarioSpec::small_city(),
            axes: vec![],
            replications: 0,
            effort: Effort::Quick,
        };
        let err = plan.cells().unwrap_err();
        assert!(err.contains("replications"), "{err}");
        // Too many is refused as early as none: checked counts, no
        // allocation, and the message names the flag or the axis.
        for replications in [1_000_000_000_000, u64::MAX] {
            let err = SweepPlan {
                replications,
                ..plan.clone()
            }
            .cells()
            .unwrap_err();
            assert!(err.contains("--reps must be"), "{err}");
        }
        let wide = SweepPlan {
            axes: vec![
                parse_axis("domains=1..1000").unwrap(),
                parse_axis("route_update_ms=1..1000").unwrap(),
            ],
            replications: 1,
            ..plan
        };
        let err = wide.cells().unwrap_err();
        assert!(err.contains("route_update_ms must be"), "{err}");
    }

    #[test]
    fn cells_expand_the_grid_with_stable_seeds() {
        let plan = SweepPlan {
            family: "dense-urban".into(),
            base: ScenarioSpec::dense_urban(),
            axes: vec![
                parse_axis("arch=multi-tier+rsmc,flat-cellular-ip").unwrap(),
                parse_axis("domains=1,2").unwrap(),
            ],
            replications: 2,
            effort: Effort::Quick,
        };
        let cells = plan.cells().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Later axes vary fastest, replications innermost.
        assert_eq!(cells[0].label, "arch=multi-tier+rsmc,domains=1 rep=0");
        assert_eq!(cells[1].label, "arch=multi-tier+rsmc,domains=1 rep=1");
        assert_eq!(cells[2].label, "arch=multi-tier+rsmc,domains=2 rep=0");
        // Effort scaled the family's 300 s to the quick 30 s.
        assert_eq!(cells[0].spec.duration_s, 30.0);
        // A cell's seed is a function of its own coordinates only: the
        // same cell inside a *larger* plan resolves identically.
        let bigger = SweepPlan {
            replications: 3,
            ..plan.clone()
        };
        let again = bigger.cells().unwrap();
        assert_eq!(
            cells[0].spec.resolve_seed(42),
            again[0].spec.resolve_seed(42)
        );
        // …and distinct cells get distinct seeds.
        let seeds: std::collections::HashSet<u64> =
            cells.iter().map(|c| c.spec.resolve_seed(42)).collect();
        assert_eq!(seeds.len(), cells.len());
    }

    #[test]
    fn seed_axis_is_rejected() {
        let plan = SweepPlan {
            family: "x".into(),
            base: ScenarioSpec::small_city(),
            axes: vec![parse_axis("seed=raw 1,raw 2").unwrap()],
            replications: 1,
            effort: Effort::Quick,
        };
        let err = plan.cells().unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn bad_axis_key_is_a_cell_error() {
        let plan = SweepPlan {
            family: "x".into(),
            base: ScenarioSpec::small_city(),
            axes: vec![parse_axis("warp=1,2").unwrap()],
            replications: 1,
            effort: Effort::Quick,
        };
        let err = plan.cells().unwrap_err();
        assert!(err.contains("warp"), "{err}");
        // …and so is a value outside its key's range: these five used to
        // expand into cells that hang, panic or alias address prefixes.
        for axis in [
            "route_update_ms=1000,0",
            "paging_update_ms=0",
            "table_lifetime_ms=0",
            "domains=300",
            "micro_per_domain=300",
        ] {
            let axes = vec![parse_axis(axis).unwrap()];
            let err = SweepPlan {
                axes,
                ..plan.clone()
            }
            .cells()
            .unwrap_err();
            let key = axis.split('=').next().unwrap();
            assert!(err.contains(key) && err.contains("must be"), "{err}");
        }
    }
}
