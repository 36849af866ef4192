//! Cell placement and best-server selection.

use crate::cell::{Cell, CellId, CellKind};
use crate::lanes;
use crate::propagation::{PathLoss, SENSITIVITY_DBM};
use mtnet_mobility::Point;
use mtnet_sim::FxHashMap;

/// Squared pre-filter radius for a cell footprint, conservatively
/// widened: the cheap dx²+dy² lane carries at most a few ulp of error
/// against the exact `hypot`, so the bound grows by 1e-9 relative —
/// orders of magnitude beyond any rounding — and survivors are
/// re-checked exactly. Cells rejected by this bound are *definitely*
/// outside the footprint. Shared by every SoA the lane sweep runs over
/// so the pre-filter admits the same set everywhere.
fn widened_r2(radius_m: f64) -> f64 {
    let r = radius_m * (1.0 + 1e-9);
    r * r
}

/// Squared ground distance between two points, in the pre-filter's own
/// arithmetic (`dx² + dy²`, no `hypot`).
fn dist2(a: Point, b: Point) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

/// Relative margin [`CellMap::certifies_stay`] puts on a squared distance
/// before it trusts a comparison the scan makes on `hypot`: a few ulp of
/// `dx² + dy²` rounding sit many orders of magnitude below it.
const CERT_D2_MARGIN: f64 = 1e-9;

/// Margin, in dB, [`CellMap::certifies_stay`] puts between two received
/// powers it compares through bounds rather than through the scan's own
/// `log10`: rounding moves those by ~1e-14 dB.
const CERT_DB_MARGIN: f64 = 1e-6;

/// Per-kind received-power bounds behind [`CellMap::certifies_stay`]:
/// one inline slot per [`CellKind`] (indexed `kind as usize`), computed
/// once per map, so a certificate costs no `log10` and no allocation.
#[derive(Debug, Clone, Copy)]
struct KindBounds {
    /// The power a cell of the kind reads at its footprint edge, the
    /// least any receiver inside the footprint reads.
    edge_dbm: [f64; 4],
    /// `tx − PL(max(altitude, 1 m))`, the most any receiver reads: the
    /// slant range is never below the altitude, and the loss clamps at
    /// 1 m.
    ceiling_dbm: [f64; 4],
}

impl KindBounds {
    fn new() -> Self {
        let of = |f: fn(CellKind) -> f64| CellKind::ALL.map(f);
        KindBounds {
            edge_dbm: of(|k| CellMap::rssi_from_ground(k, k.radius_m())),
            ceiling_dbm: of(|k| k.tx_power_dbm() - PathLoss::of(k).mean_loss_db(k.altitude_m())),
        }
    }
}

/// One signal measurement of a cell at a location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The measured cell.
    pub cell: CellId,
    /// Its tier.
    pub kind: CellKind,
    /// Received power in dBm.
    pub rssi_dbm: f64,
    /// Fraction of free channels in `[0, 1]` at measurement time.
    pub free_ratio: f64,
}

/// Uniform-grid spatial index over cell footprints.
///
/// Each cell is registered in every grid bucket its footprint's bounding
/// square overlaps, so a point query only inspects the one bucket
/// containing the point (any cell covering the point necessarily overlaps
/// that bucket). Tiers whose footprint dwarfs the bucket size (the
/// satellite overlay's 500 km) would bloat the grid, so cells beyond
/// [`GridIndex::BROAD_RADIUS_M`] go to a flat `broad` list that every
/// query scans — there are at most a handful of those per deployment.
#[derive(Debug, Clone, Default)]
struct GridIndex {
    buckets: FxHashMap<(i32, i32), BucketSoa>,
    broad: Vec<CellId>,
}

/// One grid bucket's members as flat position/radius lanes plus the id
/// column, so a point query's candidate filter runs the same sweep as
/// [`CellMap::measure_batch`] instead of chasing `Cell` structs.
#[derive(Debug, Clone, Default)]
struct BucketSoa {
    x: Vec<f64>,
    y: Vec<f64>,
    filter_r2: Vec<f64>,
    id: Vec<CellId>,
}

impl BucketSoa {
    fn push(&mut self, cell: &Cell) {
        self.x.push(cell.center().x);
        self.y.push(cell.center().y);
        self.filter_r2.push(widened_r2(cell.radius_m()));
        self.id.push(cell.id());
    }
}

impl GridIndex {
    /// Bucket edge length. Sized so a micro cell (300 m) lands in ~4
    /// buckets and a macro cell (2 km) in ~25.
    const BUCKET_M: f64 = 1_000.0;
    /// Cells with footprints beyond this radius skip the grid.
    const BROAD_RADIUS_M: f64 = 4_000.0;

    fn bucket_of(p: Point) -> (i32, i32) {
        (
            (p.x / Self::BUCKET_M).floor() as i32,
            (p.y / Self::BUCKET_M).floor() as i32,
        )
    }

    fn insert(&mut self, cell: &Cell) {
        let r = cell.radius_m();
        if r > Self::BROAD_RADIUS_M {
            self.broad.push(cell.id());
            return;
        }
        let c = cell.center();
        let (bx0, by0) = Self::bucket_of(Point::new(c.x - r, c.y - r));
        let (bx1, by1) = Self::bucket_of(Point::new(c.x + r, c.y + r));
        for bx in bx0..=bx1 {
            for by in by0..=by1 {
                self.buckets.entry((bx, by)).or_default().push(cell);
            }
        }
    }

    /// Calls `f` with every cell whose footprint can contain `at` (a
    /// superset: callers still make the exact coverage check). Bucket
    /// members go through the d² pre-filter — an id is only reported
    /// when its widened radius bound admits `at` — while the handful of
    /// broad cells are always reported, in registration order after the
    /// bucket.
    fn for_each_candidate(&self, at: Point, mut f: impl FnMut(CellId)) {
        if let Some(b) = self.buckets.get(&Self::bucket_of(at)) {
            lanes::sweep_scalar(&b.x, &b.y, &b.filter_r2, at.x, at.y, |i| f(b.id[i]));
        }
        for &id in &self.broad {
            f(id);
        }
    }
}

/// All cells of a deployment plus the propagation model: answers "which
/// cells can a node at point P hear, and how loudly?".
///
/// This is the measurement substrate for the paper's handoff decision
/// (§3.2): the decision engine combines these measurements with node speed.
/// Point queries go through a uniform grid index so only cells whose footprint
/// can contain the query point are inspected — the full scan survives as
/// [`CellMap::measure_full_scan`], the reference implementation the
/// property tests hold the grid against.
#[derive(Debug, Clone)]
pub struct CellMap {
    /// Cells indexed densely by id (`None` in gaps) — the per-packet
    /// `cell`/`rssi_dbm` probes are array reads.
    cells: Vec<Option<Cell>>,
    /// Number of `Some` entries in `cells`.
    count: usize,
    /// Administrative outage flags, dense by id (fault injection: BS
    /// outages, satellite eclipses). A downed cell stays placed — its
    /// geometry, channels and grid entries survive — but every
    /// measurement path reports it silent until restored.
    down: Vec<bool>,
    grid: GridIndex,
    /// Structure-of-arrays mirror of the static per-cell fields, in id
    /// order — the batched measurement path streams these flat lanes
    /// instead of hopping between `Cell` structs (which drag their
    /// channel pools through the cache).
    soa: CellSoa,
    /// Per-kind power bounds for [`CellMap::certifies_stay`].
    bounds: KindBounds,
}

/// Structure-of-arrays mirror for [`CellMap::measure_batch`]: one flat
/// `f64` lane per static field, swept by [`crate::lanes`].
#[derive(Debug, Default, Clone)]
struct CellSoa {
    x: Vec<f64>,
    y: Vec<f64>,
    /// Squared nominal radius with a conservative margin, the pre-filter
    /// bound (see [`widened_r2`]).
    filter_r2: Vec<f64>,
    id: Vec<CellId>,
    kind: Vec<CellKind>,
}

impl CellSoa {
    fn push(&mut self, cell: &Cell) {
        self.x.push(cell.center().x);
        self.y.push(cell.center().y);
        self.filter_r2.push(widened_r2(cell.radius_m()));
        self.id.push(cell.id());
        self.kind.push(cell.kind());
    }
}

impl CellMap {
    /// Largest deployment [`CellMap::measure_batch`] still full-sweeps;
    /// bigger maps route batch measurements through the spatial grid
    /// (bit-identical — see [`CellMap::measure_batch`]).
    const BATCH_FULL_SWEEP_MAX: usize = 256;

    /// Creates an empty map, the only constructor. A cell's received
    /// power follows its tier's [`PathLoss::of`] with no shadowing term,
    /// so handoff points are reproducible from geometry. The name is
    /// older than that: a shadowed constructor once stood beside it,
    /// and the repository benchmark still calls this one by name.
    pub fn without_shadowing() -> Self {
        CellMap {
            cells: Vec::new(),
            count: 0,
            down: Vec::new(),
            grid: GridIndex::default(),
            soa: CellSoa::default(),
            bounds: KindBounds::new(),
        }
    }

    /// Adds a cell.
    ///
    /// # Panics
    ///
    /// Panics on duplicate cell ids.
    pub fn add(&mut self, cell: Cell) -> CellId {
        let id = cell.id();
        let idx = id.0 as usize;
        if self.cells.len() <= idx {
            self.cells.resize_with(idx + 1, || None);
            self.down.resize(idx + 1, false);
        }
        assert!(self.cells[idx].is_none(), "duplicate cell id {id}");
        self.grid.insert(&cell);
        self.soa.push(&cell);
        self.cells[idx] = Some(cell);
        self.count += 1;
        id
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Shared access to a cell (O(1) array read).
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.0 as usize)?.as_ref()
    }

    /// Mutable access to a cell (channel pool updates).
    pub fn cell_mut(&mut self, id: CellId) -> Option<&mut Cell> {
        self.cells.get_mut(id.0 as usize)?.as_mut()
    }

    /// Iterates over all cells in id order (deterministic: dense storage
    /// is already id-ordered).
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().flatten()
    }

    /// Sets a cell's administrative outage state. While down, the cell is
    /// invisible to every measurement path — the `measure_one`-derived
    /// scans, [`CellMap::measure_batch`], and the per-packet
    /// [`CellMap::rssi_if_covered`] probe all report silence — so a cell
    /// is never simultaneously "placed" and "audible-while-failed".
    /// Returns whether the state changed.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is unknown.
    pub fn set_cell_down(&mut self, id: CellId, down: bool) -> bool {
        assert!(
            self.cell(id).is_some(),
            "set_cell_down: unknown cell id {id}"
        );
        let slot = &mut self.down[id.0 as usize];
        let changed = *slot != down;
        *slot = down;
        changed
    }

    /// Received power of a `kind` cell, in dBm, at a receiver `ground`
    /// meters from its base station (the coverage check pays the `hypot`;
    /// this reuses it). The loss runs over the slant range for an orbital
    /// transmitter.
    fn rssi_from_ground(kind: CellKind, ground: f64) -> f64 {
        let d = if kind.altitude_m() > 0.0 {
            ground.hypot(kind.altitude_m())
        } else {
            ground
        };
        kind.tx_power_dbm() - PathLoss::of(kind).mean_loss_db(d)
    }

    /// Received power at `at` when `at` lies inside the cell's nominal
    /// footprint, `None` otherwise (or for unknown ids). One distance
    /// computation serves both the coverage check and the path loss —
    /// the per-packet air-interface reachability probe.
    pub fn rssi_if_covered(&self, cell: CellId, at: Point) -> Option<f64> {
        let c = self.cell(cell)?;
        if self.down[cell.0 as usize] {
            return None;
        }
        let ground = c.center().distance(at);
        if ground > c.radius_m() {
            return None;
        }
        Some(Self::rssi_from_ground(c.kind(), ground))
    }

    /// One audible-cell measurement, or `None` if the cell fails the tier
    /// filter, footprint check, or sensitivity floor.
    fn measure_one(&self, cell: CellId, at: Point, tier: Option<CellKind>) -> Option<Measurement> {
        let c = self.cell(cell).expect("indexed cell exists");
        if self.down[cell.0 as usize] {
            return None;
        }
        if !tier.is_none_or(|t| c.kind() == t) {
            return None;
        }
        let ground = c.center().distance(at);
        if ground > c.radius_m() {
            return None;
        }
        let m = Measurement {
            cell,
            kind: c.kind(),
            rssi_dbm: Self::rssi_from_ground(c.kind(), ground),
            free_ratio: c.free_resource_ratio(),
        };
        (m.rssi_dbm >= SENSITIVITY_DBM).then_some(m)
    }

    /// Measures every audible cell at `at` (RSSI above the sensitivity
    /// floor **and** inside the nominal footprint) through the spatial
    /// grid, sorted strongest first, into `out` (cleared first). `tier`
    /// restricts the scan to one tier.
    fn measure_into(&self, at: Point, tier: Option<CellKind>, out: &mut Vec<Measurement>) {
        out.clear();
        self.grid.for_each_candidate(at, |id| {
            out.extend(self.measure_one(id, at, tier));
        });
        out.sort_by(|a, b| b.rssi_dbm.total_cmp(&a.rssi_dbm).then(a.cell.cmp(&b.cell)));
    }

    /// Measures every audible cell at `at` (RSSI above the sensitivity
    /// floor **and** inside the nominal footprint), sorted strongest
    /// first, into `out` (cleared first). `tier` restricts the scan to
    /// one tier. A caller that keeps `out` pays no allocation per scan
    /// once it has grown to the deployment's audible-cell count.
    ///
    /// Up to `BATCH_FULL_SWEEP_MAX` cells it evaluates every cell's
    /// coverage in one pass over flat structure-of-arrays lanes (x, y,
    /// squared radius), then runs the exact scalar radio math only for
    /// the handful of cells whose footprint can contain `at`; past that
    /// it walks the spatial grid. Output is identical to
    /// [`CellMap::measure_full_scan`] bit for bit on both paths: the
    /// sweep is a *conservative* pre-filter (its radius bound is widened
    /// far beyond its few-ulp rounding slack, so it never rejects a
    /// covered cell), and every survivor goes through the same
    /// `hypot`/path-loss arithmetic and the same `total_cmp` sort.
    /// Property tests hold each path against the full scan; the world
    /// uses this one for the per-sample handoff scans.
    pub fn measure_batch(&self, at: Point, tier: Option<CellKind>, out: &mut Vec<Measurement>) {
        // Metro-scale deployments: past a few hundred cells the full SoA
        // sweep loses to the spatial grid (the sweep is O(cells) per
        // sample; the grid visits one bucket plus the broad list). The
        // two paths are property-tested bit-identical, so the cutover is
        // purely a speed decision.
        if self.soa.id.len() > Self::BATCH_FULL_SWEEP_MAX {
            self.measure_into(at, tier, out);
            return;
        }
        out.clear();
        let n = self.soa.id.len();
        lanes::sweep_scalar(
            &self.soa.x[..n],
            &self.soa.y[..n],
            &self.soa.filter_r2[..n],
            at.x,
            at.y,
            |i| {
                // Exact scalar path for the survivors — same ops, same
                // bits as `measure_one` (including the outage gate).
                if self.down[self.soa.id[i].0 as usize] {
                    return;
                }
                if !tier.is_none_or(|t| self.soa.kind[i] == t) {
                    return;
                }
                let c = self.cell(self.soa.id[i]).expect("soa mirrors cells");
                let ground = c.center().distance(at);
                if ground > c.radius_m() {
                    return;
                }
                let m = Measurement {
                    cell: c.id(),
                    kind: c.kind(),
                    rssi_dbm: Self::rssi_from_ground(c.kind(), ground),
                    free_ratio: c.free_resource_ratio(),
                };
                if m.rssi_dbm >= SENSITIVITY_DBM {
                    out.push(m);
                }
            },
        );
        out.sort_by(|a, b| b.rssi_dbm.total_cmp(&a.rssi_dbm).then(a.cell.cmp(&b.cell)));
    }

    /// Reference implementation of [`CellMap::measure_batch`] that scans
    /// every cell instead of using the spatial index; not for hot paths.
    /// Both paths of [`CellMap::measure_batch`] are held against it by
    /// `grid_measure_equals_full_scan` and `measure_batch_equals_full_scan`
    /// (`tests/properties.rs`).
    pub fn measure_full_scan(&self, at: Point, tier: Option<CellKind>) -> Vec<Measurement> {
        let mut out: Vec<Measurement> = self
            .cells()
            .filter_map(|c| self.measure_one(c.id(), at, tier))
            .collect();
        out.sort_by(|a, b| b.rssi_dbm.total_cmp(&a.rssi_dbm).then(a.cell.cmp(&b.cell)));
        out
    }

    /// `true` if `candidate` outranks `best` in the
    /// [`CellMap::measure_batch`] sort order (strongest RSSI first, lowest id on ties).
    fn outranks(candidate: &Measurement, best: &Measurement) -> bool {
        match candidate.rssi_dbm.total_cmp(&best.rssi_dbm) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => candidate.cell < best.cell,
            std::cmp::Ordering::Less => false,
        }
    }

    /// Strongest audible cell at `at`, optionally restricted to one tier.
    /// Single pre-filtered pass over the grid bucket, no allocation.
    pub fn best_cell(&self, at: Point, tier: Option<CellKind>) -> Option<CellId> {
        let mut best: Option<Measurement> = None;
        self.grid.for_each_candidate(at, |id| {
            if let Some(m) = self.measure_one(id, at, tier) {
                if best.as_ref().is_none_or(|b| Self::outranks(&m, b)) {
                    best = Some(m);
                }
            }
        });
        best.map(|m| m.cell)
    }

    /// Proves, from squared distances and per-kind bounds alone, what the
    /// full scan ([`CellMap::measure_full_scan`], and so
    /// [`CellMap::measure_batch`]) would show at `at`: `serving` is audible
    /// and reads at least `floor_dbm`, it is strictly louder than every
    /// other audible cell whose kind is `rival`, and no cell whose kind is
    /// `silent` is audible. One walk of the grid bucket, no `hypot`, no
    /// `log10`, no sort and no allocation. `false` means "not proven",
    /// never "not so".
    ///
    /// Exact against the scan's arithmetic, because every comparison it
    /// trusts has a margin far beyond rounding (1e-9 relative on d²,
    /// 1e-6 dB on powers):
    /// - `serving` is up, inside its footprint with the d² margin, and
    ///   reads at least its kind's footprint-edge power, which must clear
    ///   `floor_dbm` and the sensitivity floor by the dB margin;
    /// - a down cell is no candidate, and a cell outside its footprint by
    ///   the pre-filter's margin is silent;
    /// - a rival of `serving`'s kind is quieter when it is farther by the
    ///   d² margin from `at` than `max(d_serving, 1 m)`: the loss is
    ///   monotone in distance and clamps at 1 m, where two cells tie and
    ///   the lower id wins. This holds for ground cells only; over a
    ///   satellite's slant range a ground-distance margin vanishes in
    ///   rounding;
    /// - any rival is quieter when its kind's ceiling (its power at
    ///   `max(altitude, 1 m)`, the least slant range there is) lies below
    ///   `serving`'s edge power by the dB margin.
    ///
    /// Any other rival, and any silent-kind cell inside its footprint,
    /// makes the answer `false`.
    pub fn certifies_stay(
        &self,
        serving: CellId,
        at: Point,
        floor_dbm: f64,
        rival: impl Fn(CellKind) -> bool,
        silent: impl Fn(CellKind) -> bool,
    ) -> bool {
        let Some(s) = self.cell(serving) else {
            return false;
        };
        let kind = s.kind();
        if self.down[serving.0 as usize] || silent(kind) {
            return false;
        }
        let d2 = dist2(s.center(), at);
        let r = kind.radius_m();
        // Asked as "inside?", so a NaN position proves nothing.
        let inside = d2 * (1.0 + CERT_D2_MARGIN) <= r * r;
        let edge = self.bounds.edge_dbm[kind as usize];
        let usable = edge >= floor_dbm + CERT_DB_MARGIN && edge >= SENSITIVITY_DBM + CERT_DB_MARGIN;
        if !inside || !usable {
            return false;
        }
        let nearer = d2.max(1.0) * (1.0 + CERT_D2_MARGIN);
        let ground = kind.altitude_m() == 0.0;
        let mut holds = true;
        self.grid.for_each_candidate(at, |id| {
            if !holds || id == serving || self.down[id.0 as usize] {
                return;
            }
            let c = self.cell(id).expect("indexed cell exists");
            let k = c.kind();
            let must_be_silent = silent(k);
            if !must_be_silent && !rival(k) {
                return;
            }
            let d2_c = dist2(c.center(), at);
            if d2_c > widened_r2(c.radius_m()) {
                return;
            }
            holds = !must_be_silent
                && ((k == kind && ground && d2_c > nearer)
                    || self.bounds.ceiling_dbm[k as usize] < edge - CERT_DB_MARGIN);
        });
        holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtnet_net::NodeId;

    /// The grid path's answer, as `measure_batch` gives it past
    /// `BATCH_FULL_SWEEP_MAX` cells.
    fn measure(map: &CellMap, at: Point, tier: Option<CellKind>) -> Vec<Measurement> {
        let mut out = Vec::new();
        map.measure_into(at, tier, &mut out);
        out
    }

    /// Two micro cells 400 m apart plus a macro umbrella.
    fn two_micro_one_macro() -> CellMap {
        let mut map = CellMap::without_shadowing();
        map.add(Cell::new(
            CellId(0),
            CellKind::Micro,
            Point::new(0.0, 0.0),
            NodeId(0),
        ));
        map.add(Cell::new(
            CellId(1),
            CellKind::Micro,
            Point::new(400.0, 0.0),
            NodeId(1),
        ));
        map.add(Cell::new(
            CellId(2),
            CellKind::Macro,
            Point::new(200.0, 0.0),
            NodeId(2),
        ));
        map
    }

    #[test]
    fn best_cell_follows_position() {
        let map = two_micro_one_macro();
        assert_eq!(
            map.best_cell(Point::new(10.0, 0.0), Some(CellKind::Micro)),
            Some(CellId(0))
        );
        assert_eq!(
            map.best_cell(Point::new(390.0, 0.0), Some(CellKind::Micro)),
            Some(CellId(1))
        );
    }

    #[test]
    fn tier_filter_restricts() {
        let map = two_micro_one_macro();
        assert_eq!(
            map.best_cell(Point::new(200.0, 0.0), Some(CellKind::Macro)),
            Some(CellId(2))
        );
        // At the midpoint both micros are 200 m away — equidistant but both
        // within footprint; macro is right there and louder.
        let all = measure(&map, Point::new(200.0, 0.0), None);
        assert_eq!(all.first().unwrap().cell, CellId(2));
    }

    #[test]
    fn out_of_coverage_is_empty() {
        let map = two_micro_one_macro();
        let far = Point::new(50_000.0, 0.0);
        assert!(measure(&map, far, None).is_empty());
        assert_eq!(map.best_cell(far, None), None);
    }

    #[test]
    fn footprint_limits_micro_but_not_macro() {
        let map = two_micro_one_macro();
        let p = Point::new(800.0, 0.0); // 400 m past micro-1, inside macro
        let m = measure(&map, p, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].cell, CellId(2));
    }

    #[test]
    fn measurements_sorted_strongest_first() {
        let map = two_micro_one_macro();
        let m = measure(&map, Point::new(100.0, 0.0), None);
        assert!(m.windows(2).all(|w| w[0].rssi_dbm >= w[1].rssi_dbm));
    }

    #[test]
    fn free_ratio_reflects_channel_pool() {
        let mut map = two_micro_one_macro();
        let c = map.cell_mut(CellId(0)).unwrap();
        c.channels_mut().admit(crate::CallKind::New).unwrap();
        let m = measure(&map, Point::new(10.0, 0.0), Some(CellKind::Micro));
        assert!(m[0].free_ratio < 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn duplicate_id_rejected() {
        let mut map = CellMap::without_shadowing();
        map.add(Cell::new(
            CellId(0),
            CellKind::Pico,
            Point::new(0.0, 0.0),
            NodeId(0),
        ));
        map.add(Cell::new(
            CellId(0),
            CellKind::Pico,
            Point::new(0.0, 0.0),
            NodeId(1),
        ));
    }

    #[test]
    fn len_and_iteration_order() {
        let map = two_micro_one_macro();
        assert_eq!(map.len(), 3);
        let ids: Vec<CellId> = map.cells().map(|c| c.id()).collect();
        assert_eq!(ids, vec![CellId(0), CellId(1), CellId(2)]);
    }

    #[test]
    fn downed_cell_is_silent_on_every_measurement_path() {
        let mut map = two_micro_one_macro();
        let p = Point::new(10.0, 0.0);
        assert!(!map.down[0]);
        assert!(map.set_cell_down(CellId(0), true));
        assert!(!map.set_cell_down(CellId(0), true), "no-op repeat");
        assert!(map.down[0]);
        // All scan paths agree the cell is gone…
        let full = map.measure_full_scan(p, None);
        let grid = measure(&map, p, None);
        let mut batch = Vec::new();
        map.measure_batch(p, None, &mut batch);
        assert_eq!(full, grid);
        assert_eq!(full, batch);
        assert!(full.iter().all(|m| m.cell != CellId(0)));
        // …including the per-packet probe and best-cell selection…
        assert_eq!(map.rssi_if_covered(CellId(0), p), None);
        assert_ne!(map.best_cell(p, Some(CellKind::Micro)), Some(CellId(0)));
        // …while the cell itself stays placed (geometry + channels).
        assert!(map.cell(CellId(0)).is_some());
        assert_eq!(map.len(), 3);
        // Restoration brings it back verbatim.
        assert!(map.set_cell_down(CellId(0), false));
        assert_eq!(map.best_cell(p, Some(CellKind::Micro)), Some(CellId(0)));
        assert!(map.rssi_if_covered(CellId(0), p).is_some());
    }

    /// A deployment where the bucket pre-filter and the broad
    /// (satellite) list both participate: a 7×5 micro lattice under
    /// three macros and one satellite overlay.
    fn lattice_with_overlay() -> CellMap {
        let mut map = CellMap::without_shadowing();
        let mut next = 0u32;
        let mut add = |map: &mut CellMap, kind, p| {
            let id = CellId(next);
            next += 1;
            map.add(Cell::new(id, kind, p, NodeId(id.0)));
        };
        for gx in 0..7 {
            for gy in 0..5 {
                add(
                    &mut map,
                    CellKind::Micro,
                    Point::new(f64::from(gx) * 320.0, f64::from(gy) * 320.0),
                );
            }
        }
        for gx in 0..3 {
            add(
                &mut map,
                CellKind::Macro,
                Point::new(f64::from(gx) * 900.0, 600.0),
            );
        }
        add(&mut map, CellKind::Satellite, Point::new(1_000.0, 800.0));
        map
    }

    #[test]
    fn every_query_path_matches_the_full_scan() {
        let mut map = lattice_with_overlay();
        // An outage exercises the down-gate inside the survivor tail.
        map.set_cell_down(CellId(12), true);
        let mut batch = Vec::new();
        let mut grid = Vec::new();
        for step in 0..60 {
            let at = Point::new(f64::from(step) * 37.5 - 100.0, f64::from(step % 7) * 151.0);
            for tier in [None, Some(CellKind::Micro), Some(CellKind::Macro)] {
                let reference = map.measure_full_scan(at, tier);
                map.measure_batch(at, tier, &mut batch);
                assert_eq!(batch, reference, "batch at {at:?}");
                map.measure_into(at, tier, &mut grid);
                assert_eq!(grid, reference, "grid at {at:?}");
                assert_eq!(
                    map.best_cell(at, tier),
                    reference.first().map(|m| m.cell),
                    "best cell at {at:?}"
                );
            }
        }
    }

    /// The one propagation model, pinned: each tier's received power is
    /// `tx − (40 + 10·n·log10 d)` over the ground range (the slant range
    /// for the satellite), bit for bit on the per-packet probe and in the
    /// scan.
    #[test]
    fn received_power_is_the_tier_log_distance_model() {
        let center = Point::new(1_000.0, -500.0);
        for kind in CellKind::ALL {
            let mut map = CellMap::without_shadowing();
            let id = map.add(Cell::new(CellId(3), kind, center, NodeId(0)));
            for f in [0.1, 0.5, 0.99] {
                let r = f * kind.radius_m();
                let at = Point::new(center.x + 0.6 * r, center.y - 0.8 * r);
                let ground = center.distance(at);
                let d = if kind == CellKind::Satellite {
                    ground.hypot(kind.altitude_m())
                } else {
                    ground
                };
                let want =
                    kind.tx_power_dbm() - (40.0 + 10.0 * kind.path_loss_exponent() * d.log10());
                let probe = map.rssi_if_covered(id, at).expect("inside the footprint");
                assert_eq!(probe.to_bits(), want.to_bits(), "{kind} probe at {at:?}");
                let scan = map.measure_full_scan(at, None);
                assert_eq!(scan.len(), 1, "{kind} audible at {at:?}");
                assert_eq!(
                    scan[0].rssi_dbm.to_bits(),
                    want.to_bits(),
                    "{kind} scan at {at:?}"
                );
            }
        }
    }
}
