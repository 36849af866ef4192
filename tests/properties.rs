//! Property-based tests on core data structures and invariants
//! (proptest). Each property encodes something the reproduction's
//! correctness rests on.

use mtnet_cellularip::{CipConfig, CipNetwork, CipTree, HandoffKind, SoftStateCache};
use mtnet_core::handoff::{
    Candidate, CurrentAttachment, DecisionConfig, HandoffDecision, HandoffEngine, HandoffFactors,
};
use mtnet_core::tier::Tier;
use mtnet_metrics::{Histogram, Summary};
use mtnet_mobility::Point;
use mtnet_net::{Addr, LinkConfig, NodeId, Prefix, RouteCache, RoutingTable, Topology};
use mtnet_radio::{CallKind, Cell, CellId, CellKind, CellMap, ChannelPool};
use mtnet_sim::{Context, LaneId, Model, RngStream, Scheduler, SimDuration, SimTime, Simulator};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Three-variant event for the tie-draining property: a wave must stop
/// at a variant boundary, so the payload needs more than one. `C` is a
/// periodic timer on a scheduler lane, re-armed until it counts down to
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TieEv {
    A(u64),
    B(u64),
    C(u64),
}

/// The period of the lane-borne events in the tie and claim properties:
/// on their 64 µs grid, so lane ticks tie with heap events.
const LANE_PERIOD: SimDuration = SimDuration::from_micros(128);

/// The last representable instant: a horizon no run reaches.
const END: SimTime = SimTime::from_nanos(u64::MAX);

/// The number of events `sim` holds.
fn pending<M: Model>(sim: &Simulator<M>) -> usize {
    let mut n = 0;
    sim.for_each_pending(|_| n += 1);
    n
}

/// Logs every handled event and fans out follow-ups on a coarse time
/// grid, so same-instant ties of both variants keep forming. With
/// `drain` set the handler takes the same-variant ties that follow and
/// runs them itself, in order; without, the run loop pops them one by
/// one. Everything else is identical, so the two must be
/// indistinguishable from outside.
struct TieModel {
    drain: bool,
    trace: Vec<(SimTime, TieEv)>,
    /// Members per dispatch (all ones when not draining).
    waves: Vec<usize>,
    /// `C`'s lane.
    lane: LaneId,
}

impl TieModel {
    fn one(&mut self, ctx: &mut Context<'_, TieEv>, ev: TieEv) {
        self.trace.push((ctx.now(), ev));
        let n = match ev {
            TieEv::A(n) | TieEv::B(n) => n,
            TieEv::C(n) => {
                if n > 0 {
                    ctx.rearm(self.lane, n as u32 - 1);
                }
                return;
            }
        };
        if n >= 4 {
            // Two children: the low bit picks the variant, the next two
            // the delay in 64 µs slots (0 = same instant).
            for child in [n / 2, n / 3] {
                let next = if child % 2 == 0 {
                    TieEv::A(child / 2)
                } else {
                    TieEv::B(child / 2)
                };
                ctx.schedule_in(SimDuration::from_micros(64 * (child / 2 % 4)), next);
            }
        }
    }
}

impl Model for TieModel {
    type Event = TieEv;
    fn handle_event(&mut self, ctx: &mut Context<'_, TieEv>, ev: TieEv) {
        let variant = std::mem::discriminant(&ev);
        let mut wave = vec![ev];
        if self.drain {
            while let Some(tie) = ctx.take_tie_if(|e| std::mem::discriminant(e) == variant) {
                wave.push(tie);
            }
        }
        self.waves.push(wave.len());
        for ev in wave {
            self.one(ctx, ev);
        }
    }
}

/// The reference for the scheduler's `(time, seq)` order: a `std` binary
/// heap of `(time, seq, payload)` plus the clock. `seq` is unique, so the
/// payload never decides an ordering.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
    now: SimTime,
}

impl HeapModel {
    fn schedule_in(&mut self, delay: SimDuration, event: usize) {
        let key = (self.now + delay, self.next_seq, event);
        self.heap.push(Reverse(key));
        self.next_seq += 1;
    }

    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, usize)> {
        let &Reverse((time, _, event)) = self.heap.peek()?;
        if time > horizon {
            return None;
        }
        self.heap.pop();
        self.now = time;
        Some((time, event))
    }

    fn pop_tie_if(&mut self, pred: impl FnOnce(&usize) -> bool) -> Option<usize> {
        let &Reverse((time, _, event)) = self.heap.peek()?;
        if time != self.now || !pred(&event) {
            return None;
        }
        self.heap.pop();
        Some(event)
    }
}

/// What handling event `n` schedules: up to two children, one in four
/// at this same instant (so ties with `now` keep forming) and the rest
/// scattered over the next 256 µs, and for two events in three a
/// zero-delay continuation scheduled last.
fn claim_fanout(n: usize) -> (Vec<(SimDuration, usize)>, Option<usize>) {
    if n < 4 {
        return (Vec::new(), None);
    }
    let delay = |child: usize| match child % 4 {
        0 => SimDuration::ZERO,
        _ => SimDuration::from_micros(child as u64 * 13 % 256),
    };
    let later = [n / 2, n / 3]
        .into_iter()
        .filter(|child| child % 5 != 0)
        .map(|child| (delay(child), child))
        .collect();
    (later, (n % 3 != 0).then_some(n / 2 + 1))
}

/// Events from here up are lane ticks in the claim property: tick `id`
/// is the event `LANE_EV + id`, re-armed with `id - 1` until zero.
const LANE_EV: usize = 1 << 20;

/// Logs every handled event and fans out per [`claim_fanout`]; the
/// continuation goes through `Context::claim_now`, and when the claim
/// stands the handler runs it itself instead of scheduling it. Lane
/// ticks only re-arm.
#[derive(Default)]
struct ClaimModel {
    trace: Vec<(SimTime, usize)>,
    claimed: u64,
    refused: u64,
    lane: LaneId,
}

impl Model for ClaimModel {
    type Event = usize;
    fn handle_event(&mut self, ctx: &mut Context<'_, usize>, ev: usize) {
        let mut next = Some(ev);
        while let Some(ev) = next.take() {
            self.trace.push((ctx.now(), ev));
            if ev >= LANE_EV {
                if ev > LANE_EV {
                    ctx.rearm(self.lane, (ev - LANE_EV - 1) as u32);
                }
                break;
            }
            let (later, continuation) = claim_fanout(ev);
            for (delay, child) in later {
                ctx.schedule_in(delay, child);
            }
            let Some(child) = continuation else { break };
            if ctx.claim_now() {
                self.claimed += 1;
                next = Some(child);
            } else {
                self.refused += 1;
                ctx.schedule_now(child);
            }
        }
    }
}

// ---------------------------------------------------------------
// Stay certificates: whenever `CellMap::certifies_stay` holds, the full
// scan shows what it claims — the serving cell first among the rival
// kinds in the scan's order, at or above the floor, and no silent-kind
// cell audible. Random clustered deployments of picos, micros and macros
// under one satellite, some cells down; the predicate must also fire on
// at least a fifth of the draws, or the property says nothing.
// ---------------------------------------------------------------

/// The kinds of `tier`, as a membership mask over `CellKind::ALL`.
fn tier_kinds(tier: Tier) -> [bool; 4] {
    CellKind::ALL.map(|k| Tier::of_cell(k) == tier)
}

/// A random kind mask.
fn any_kinds(rng: &mut TestRng) -> [bool; 4] {
    let bits = rng.below(16);
    [0, 1, 2, 3].map(|b| bits >> b & 1 == 1)
}

/// What the full scan says of a certified draw, `Err` naming the first
/// claim it contradicts.
fn scan_backs_the_certificate(
    map: &CellMap,
    serving: CellId,
    at: Point,
    floor_dbm: f64,
    rival: [bool; 4],
    silent: [bool; 4],
) -> Result<(), String> {
    let scan = map.measure_full_scan(at, None);
    let Some(s) = scan.iter().find(|m| m.cell == serving) else {
        return Err(format!("{serving} is silent at {at:?}: {scan:?}"));
    };
    if s.rssi_dbm < floor_dbm {
        return Err(format!(
            "{serving} reads {} below the floor {floor_dbm}",
            s.rssi_dbm
        ));
    }
    let first = scan
        .iter()
        .find(|m| m.cell == serving || rival[m.kind as usize])
        .expect("the serving cell is in the scan");
    if first.cell != serving {
        return Err(format!(
            "{} outranks {serving} at {at:?}: {scan:?}",
            first.cell
        ));
    }
    if let Some(loud) = scan.iter().find(|m| silent[m.kind as usize]) {
        return Err(format!(
            "silent-kind {} is audible at {at:?}: {scan:?}",
            loud.cell
        ));
    }
    Ok(())
}

#[test]
fn a_certified_stay_is_what_the_full_scan_shows() {
    let seed = proptest::test_runner::seed_from_env();
    let (mut fired, mut drawn) = (0u32, 0u32);
    for case in 0..proptest::test_runner::cases_from_env() {
        let mut rng = TestRng::for_case(seed, "a_certified_stay_is_what_the_full_scan_shows", case);
        let coord = |rng: &mut TestRng, span: f64| (rng.unit_f64() * 2.0 - 1.0) * span;
        let anchors: Vec<Point> = (0..3)
            .map(|_| Point::new(coord(&mut rng, 3_000.0), coord(&mut rng, 3_000.0)))
            .collect();
        let n = 4 + rng.below(25) as u32;
        let satellite = rng.below(u64::from(n) + 1) as u32;
        let mut map = CellMap::without_shadowing();
        let mut cells = Vec::new();
        for id in 0..=n {
            let (kind, at) = if id == satellite {
                let at = Point::new(coord(&mut rng, 3_000.0), coord(&mut rng, 3_000.0));
                (CellKind::Satellite, at)
            } else {
                let kind = [
                    CellKind::Pico,
                    CellKind::Pico,
                    CellKind::Micro,
                    CellKind::Macro,
                ][rng.below(4) as usize];
                let a = anchors[rng.below(3) as usize];
                (
                    kind,
                    Point::new(
                        a.x + coord(&mut rng, 1_000.0),
                        a.y + coord(&mut rng, 1_000.0),
                    ),
                )
            };
            map.add(Cell::new(CellId(id), kind, at, NodeId(id)));
            if rng.below(8) == 0 {
                map.set_cell_down(CellId(id), true);
            }
            cells.push((kind, at));
        }
        for _ in 0..64 {
            let s = rng.below(cells.len() as u64) as u32;
            let (kind, center) = cells[s as usize];
            let at = if rng.below(8) == 0 {
                Point::new(coord(&mut rng, 4_000.0), coord(&mut rng, 4_000.0))
            } else {
                // Near the serving cell, a little past its edge at most.
                let r = kind.radius_m().min(2_500.0) * 1.05 * rng.unit_f64();
                let theta = std::f64::consts::TAU * rng.unit_f64();
                Point::new(center.x + r * theta.cos(), center.y + r * theta.sin())
            };
            let floor_dbm = -100.0 + 14.0 * rng.unit_f64();
            // Mostly as the world asks (rivals: the serving tier; silent:
            // nothing or the other tier), sometimes any masks at all.
            let tier = Tier::of_cell(kind);
            let rival = if rng.below(4) == 0 {
                any_kinds(&mut rng)
            } else {
                tier_kinds(tier)
            };
            let silent = match rng.below(8) {
                0..=4 => [false; 4],
                5..=6 => tier_kinds(tier.other()),
                _ => any_kinds(&mut rng),
            };
            drawn += 1;
            let certified = map.certifies_stay(
                CellId(s),
                at,
                floor_dbm,
                |k| rival[k as usize],
                |k| silent[k as usize],
            );
            if certified {
                fired += 1;
                if let Err(e) =
                    scan_backs_the_certificate(&map, CellId(s), at, floor_dbm, rival, silent)
                {
                    panic!("case {case} (seed {seed}): a certified stay the scan contradicts: {e}");
                }
            }
        }
    }
    assert!(
        fired * 5 >= drawn,
        "the certificate fired on {fired} of {drawn} draws, under a fifth"
    );
}

/// Ties the scan breaks on id where a distance margin cannot see them: a
/// serving cell with the higher id is not the scan's best, however much
/// nearer it is. Two cells of one kind within 1 m of the node read the
/// same clamped power; two satellites whose ground distances differ by
/// 1e-9 relative read the same power over an 800 km slant range.
#[test]
fn near_ties_are_not_certified() {
    for (kind, x, s_x, at) in [
        (CellKind::Pico, 0.0, 0.5, Point::new(0.3, 0.0)),
        (
            CellKind::Satellite,
            10.000_000_01,
            10.0,
            Point::new(0.0, 0.0),
        ),
    ] {
        let mut map = CellMap::without_shadowing();
        map.add(Cell::new(CellId(0), kind, Point::new(x, 0.0), NodeId(0)));
        map.add(Cell::new(CellId(1), kind, Point::new(s_x, 0.0), NodeId(1)));
        let scan = map.measure_full_scan(at, None);
        assert_eq!(scan[0].rssi_dbm, scan[1].rssi_dbm, "{kind}");
        assert_eq!(scan[0].cell, CellId(0), "{kind}");
        assert!(
            !map.certifies_stay(CellId(1), at, -100.0, |_| true, |_| false),
            "{kind}"
        );
    }
}

/// `best_cell` is the head of the full scan at `at`, over all tiers and
/// over the one tier `pick` names (mod 4).
fn best_cell_heads_the_full_scan(
    map: &CellMap,
    at: Point,
    pick: usize,
) -> Result<(), TestCaseError> {
    for tier in [None, Some(CellKind::ALL[pick % 4])] {
        let head = map.measure_full_scan(at, tier).first().map(|m| m.cell);
        prop_assert_eq!(
            map.best_cell(at, tier),
            head,
            "at {:?}, tier {:?}",
            at,
            tier
        );
    }
    Ok(())
}

/// `bs`'s uplink path `[bs, …, gateway]`, from the tree's parent links.
fn uplink(tree: &CipTree, bs: NodeId) -> Vec<NodeId> {
    std::iter::successors(Some(bs), |&n| tree.parent(n)).collect()
}

proptest! {
    // ---------------------------------------------------------------
    // Radio grid index: bucketed measurement is observationally
    // identical to the full scan it replaced — same cells, same RSSIs,
    // same order — on arbitrary layouts and probe points.
    // ---------------------------------------------------------------
    #[test]
    fn grid_measure_equals_full_scan(
        cells in prop::collection::vec(
            (-20_000.0f64..20_000.0, -20_000.0f64..20_000.0, 0usize..4),
            0..40,
        ),
        probes in prop::collection::vec(
            (-25_000.0f64..25_000.0, -25_000.0f64..25_000.0),
            1..20,
        ),
        tier_filter in 0usize..5,
    ) {
        let kinds = [CellKind::Pico, CellKind::Micro, CellKind::Macro, CellKind::Satellite];
        let mut map = CellMap::without_shadowing();
        for (i, &(x, y, k)) in cells.iter().enumerate() {
            map.add(Cell::new(
                CellId(i as u32),
                kinds[k],
                Point::new(x, y),
                NodeId(i as u32),
            ));
        }
        // Past 256 cells `measure_batch` walks the grid: pad the map with
        // pico cells far outside every probe's reach.
        for i in cells.len()..cells.len() + 257 {
            let far = Point::new(1.0e6 + 100.0 * i as f64, 1.0e6);
            map.add(Cell::new(CellId(i as u32), CellKind::Pico, far, NodeId(i as u32)));
        }
        let tier = kinds.get(tier_filter).copied(); // index 4 → None (all tiers)
        let mut grid = Vec::new();
        for &(px, py) in &probes {
            let at = Point::new(px, py);
            map.measure_batch(at, tier, &mut grid);
            let scan = map.measure_full_scan(at, tier);
            prop_assert_eq!(&grid, &scan, "grid and scan disagree at {:?}", at);
            best_cell_heads_the_full_scan(&map, at, tier_filter)?;
        }
    }

    // ---------------------------------------------------------------
    // RouteCache: cached next hops, hop counts and delays are identical
    // to the per-call Dijkstra on arbitrary topologies — including after
    // mutations that must invalidate the cache.
    // ---------------------------------------------------------------
    #[test]
    fn route_cache_equals_naive_dijkstra(
        edges in prop::collection::vec((0u32..12, 0u32..12, 1u64..50), 0..40),
        extra_edges in prop::collection::vec((0u32..14, 0u32..14, 1u64..50), 1..10),
    ) {
        let n = 12u32;
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(Addr(0x0a00_0000 | i));
        }
        let add = |topo: &mut Topology, a: u32, b: u32, ms: u64| {
            if a != b {
                topo.add_link(NodeId(a), NodeId(b), LinkConfig {
                    propagation: SimDuration::from_millis(ms),
                    ..LinkConfig::backbone()
                });
            }
        };
        for &(a, b, ms) in &edges {
            add(&mut topo, a, b, ms);
        }
        let mut cache = RouteCache::new();
        let check = |topo: &Topology, cache: &mut RouteCache| {
            let n = topo.node_count() as u32;
            for s in 0..n {
                for d in 0..n {
                    let (s, d) = (NodeId(s), NodeId(d));
                    prop_assert_eq!(cache.next_hop(topo, s, d), topo.next_hop_on_path(s, d));
                }
            }
            Ok(())
        };
        check(&topo, &mut cache)?;
        // Mutate: add two nodes and more links; the same cache object must
        // lazily invalidate and agree again.
        topo.add_node(Addr(0x0a00_0000 | 12));
        topo.add_node(Addr(0x0a00_0000 | 13));
        for &(a, b, ms) in &extra_edges {
            add(&mut topo, a, b, ms);
        }
        check(&topo, &mut cache)?;
    }

    // ---------------------------------------------------------------
    // Scheduler: events fire in (time, insertion) order, never lost.
    // ---------------------------------------------------------------
    #[test]
    fn scheduler_total_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        let mut last = (SimTime::ZERO, 0usize);
        while let Some(e) = q.pop() {
            let t = q.now();
            let i = e.into_event();
            // Non-decreasing time; FIFO among equal times.
            prop_assert!(t > last.0 || (t == last.0 && (i > last.1 || popped.is_empty())));
            last = (t, i);
            popped.push(i);
        }
        prop_assert_eq!(popped.len(), times.len(), "no event lost");
    }

    // ---------------------------------------------------------------
    // Addressing: prefixes contain exactly their subnet.
    // ---------------------------------------------------------------
    #[test]
    fn prefix_membership(addr_bits in any::<u32>(), len in 0u8..=32) {
        let a = Addr(addr_bits);
        let p = Prefix::new(a, len);
        prop_assert!(p.contains(a), "an address is inside its own prefix");
        // Flipping any bit inside the mask leaves membership intact;
        // flipping a masked bit breaks it.
        if len > 0 {
            let flipped = Addr(addr_bits ^ (1 << (32 - len)));
            prop_assert!(!p.contains(flipped), "network-bit flip escapes /{}", len);
        }
        if len < 32 {
            let flipped = Addr(addr_bits ^ 1u32.checked_shl(31 - u32::from(len)).unwrap_or(1) >> (31 - u32::from(len)));
            let host_flipped = Addr(addr_bits ^ 1);
            prop_assert!(p.contains(host_flipped) || len == 32);
            let _ = flipped;
        }
    }

    // ---------------------------------------------------------------
    // Routing: LPM always returns the most specific matching prefix.
    // ---------------------------------------------------------------
    #[test]
    fn lpm_most_specific_wins(
        base in any::<u32>(),
        lens in prop::collection::btree_set(1u8..=32, 1..6),
    ) {
        let mut table = RoutingTable::new();
        let addr = Addr(base);
        for (i, &len) in lens.iter().enumerate() {
            table.insert(Prefix::new(addr, len), NodeId(i as u32));
        }
        let expect = lens.len() as u32 - 1; // longest inserted is last index
        prop_assert_eq!(table.lookup(addr), Some(NodeId(expect)));
    }

    // ---------------------------------------------------------------
    // Soft state: entries live exactly `lifetime` past the last refresh.
    // ---------------------------------------------------------------
    #[test]
    fn soft_state_expiry(
        lifetime_ms in 1u64..10_000,
        probe_ms in 0u64..20_000,
    ) {
        let mut c: SoftStateCache<u8, u8> =
            SoftStateCache::new(SimDuration::from_millis(lifetime_ms));
        c.refresh(1, 7, SimTime::ZERO);
        let alive = c.get(&1, SimTime::from_millis(probe_ms)).is_some();
        prop_assert_eq!(alive, probe_ms < lifetime_ms);
    }

    // ---------------------------------------------------------------
    // CIP tree: the crossover is a common ancestor of both nodes and the
    // deepest such node.
    // ---------------------------------------------------------------
    #[test]
    fn crossover_is_deepest_common_ancestor(
        shape in prop::collection::vec(0usize..6, 1..24),
        pick in any::<(prop::sample::Index, prop::sample::Index)>(),
    ) {
        // Build a random tree: node i+1 attaches under a previous node.
        let mut tree = CipTree::new(NodeId(0));
        let mut nodes = vec![NodeId(0)];
        for (i, &p) in shape.iter().enumerate() {
            let parent = nodes[p % nodes.len()];
            let id = NodeId(i as u32 + 1);
            tree.add_bs(id, parent);
            nodes.push(id);
        }
        let a = nodes[pick.0.index(nodes.len())];
        let b = nodes[pick.1.index(nodes.len())];
        let x = tree.crossover(a, b);
        let (path_a, path_b) = (uplink(&tree, a), uplink(&tree, b));
        prop_assert!(path_a.contains(&x) && path_b.contains(&x), "common ancestor");
        // No strictly deeper common node exists.
        for n in &path_a {
            if path_b.contains(n) {
                prop_assert!(tree.depth(*n) <= tree.depth(x));
            }
        }
    }

    // ---------------------------------------------------------------
    // CIP route update: the climb from the attach BS re-points exactly
    // the uplink path (each node on it maps the node to its child on the
    // path, the BS to itself) and refreshes or drops nothing else, with
    // earlier updates of other nodes and of the same one in the caches.
    // ---------------------------------------------------------------
    #[test]
    fn route_update_repoints_exactly_the_uplink(
        shape in prop::collection::vec(0usize..6, 1..24),
        earlier in prop::collection::vec(
            any::<(prop::sample::Index, prop::sample::Index)>(),
            0..8,
        ),
        pick in any::<(prop::sample::Index, prop::sample::Index)>(),
    ) {
        let config = CipConfig::default();
        let mut net = CipNetwork::new(NodeId(0), config);
        let mut nodes = vec![NodeId(0)];
        for (i, &p) in shape.iter().enumerate() {
            let parent = nodes[p % nodes.len()];
            let id = NodeId(i as u32 + 1);
            net.add_bs(id, parent);
            nodes.push(id);
        }
        let mns: Vec<Addr> = (1..=3).map(|i| Addr::from_octets(20, 0, 1, i)).collect();
        for (k, (m, b)) in earlier.iter().enumerate() {
            let (m, b) = (mns[m.index(mns.len())], nodes[b.index(nodes.len())]);
            net.route_update(m, b, SimTime::from_millis(k as u64));
        }
        let now = SimTime::from_millis(100);
        // Past every earlier entry's lifetime, only what `now` refreshed lives.
        let late = now + config.timers.route_cache_lifetime() - SimDuration::from_millis(1);
        let entries = |net: &CipNetwork, t: SimTime| -> Vec<Option<NodeId>> {
            nodes
                .iter()
                .flat_map(|&n| mns.iter().map(move |&m| (n, m)))
                .map(|(n, m)| net.next_hop(n, m, t))
                .collect()
        };
        let before = entries(&net, now);
        let (mn, bs) = (mns[pick.0.index(mns.len())], nodes[pick.1.index(nodes.len())]);
        let path = uplink(net.tree(), bs);
        prop_assert_eq!(net.route_update(mn, bs, now), path.len());
        let (after, after_late) = (entries(&net, now), entries(&net, late));
        for (i, &node) in nodes.iter().enumerate() {
            for (j, &m) in mns.iter().enumerate() {
                let k = i * mns.len() + j;
                let child = match path.iter().position(|&n| n == node) {
                    Some(at) if m == mn => Some(path[at.saturating_sub(1)]),
                    _ => None,
                };
                let expect = child.or(before[k]);
                prop_assert_eq!(after[k], expect, "{} for {} at {:?}", node, m, now);
                prop_assert_eq!(after_late[k], child, "{} for {} at {:?}", node, m, late);
            }
        }
    }

    // ---------------------------------------------------------------
    // Handoff loss windows: semisoft never exceeds hard.
    // ---------------------------------------------------------------
    #[test]
    fn semisoft_never_worse_than_hard(
        shape in prop::collection::vec(0usize..4, 2..16),
        pick in any::<(prop::sample::Index, prop::sample::Index)>(),
        per_hop_ms in 1u64..50,
        delay_ms in 0u64..500,
    ) {
        let mut tree = CipTree::new(NodeId(0));
        let mut nodes = vec![NodeId(0)];
        for (i, &p) in shape.iter().enumerate() {
            let parent = nodes[p % nodes.len()];
            let id = NodeId(i as u32 + 1);
            tree.add_bs(id, parent);
            nodes.push(id);
        }
        let a = nodes[pick.0.index(nodes.len())];
        let b = nodes[pick.1.index(nodes.len())];
        let hop = SimDuration::from_millis(per_hop_ms);
        let hard = HandoffKind::Hard.loss_window(&tree, a, b, hop);
        let semi = HandoffKind::Semisoft { delay: SimDuration::from_millis(delay_ms) }
            .loss_window(&tree, a, b, hop);
        prop_assert!(semi <= hard);
    }

    // ---------------------------------------------------------------
    // Channel pools: occupancy never exceeds capacity; guard channels
    // keep handoff admission at least as permissive as new-call admission.
    // ---------------------------------------------------------------
    #[test]
    fn channel_pool_invariants(ops in prop::collection::vec(any::<(bool, bool)>(), 1..200)) {
        let mut pool = ChannelPool::new(10, 3);
        for (is_admit, is_handoff) in ops {
            if is_admit {
                let kind = if is_handoff { CallKind::Handoff } else { CallKind::New };
                // Admission permissiveness: if a new call would be
                // admitted, a handoff must be too.
                if pool.can_admit(CallKind::New) {
                    prop_assert!(pool.can_admit(CallKind::Handoff));
                }
                let _ = pool.admit(kind);
            } else if pool.free() < 10 {
                pool.release();
            }
            // `free` is `total - in_use`: it would underflow first.
            prop_assert!(pool.free() <= 10);
            let ratio = pool.free_ratio();
            prop_assert!((0.0..=1.0).contains(&ratio));
        }
    }

    // ---------------------------------------------------------------
    // Metrics: Summary merge is observation-order independent.
    // ---------------------------------------------------------------
    #[test]
    fn summary_merge_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..50),
        ys in prop::collection::vec(-1e6f64..1e6, 0..50),
    ) {
        let mut ab = Summary::from_iter(xs.iter().copied());
        ab.merge(&Summary::from_iter(ys.iter().copied()));
        let all = Summary::from_iter(xs.iter().chain(ys.iter()).copied());
        prop_assert_eq!(ab.count(), all.count());
        if ab.count() > 0 {
            prop_assert!((ab.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((ab.sample_variance() - all.sample_variance()).abs() < 1e-3);
        }
    }

    // ---------------------------------------------------------------
    // Histogram: percentile is monotone and bounded by extrema.
    // ---------------------------------------------------------------
    #[test]
    fn histogram_percentile_monotone(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0;
        for pct in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let p = h.percentile(pct).unwrap();
            prop_assert!(p >= last, "p{} = {} < previous {}", pct, p, last);
            prop_assert!(p >= *values.iter().min().unwrap());
            prop_assert!(p <= *values.iter().max().unwrap());
            last = p;
        }
    }

    // ---------------------------------------------------------------
    // RNG streams: derivation is deterministic and label-sensitive.
    // ---------------------------------------------------------------
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = RngStream::derive(seed, &label);
        let mut b = RngStream::derive(seed, &label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    // ---------------------------------------------------------------
    // Handoff decision: never proposes a cell below the sensitivity
    // floor, and `Stay` only when currently attached.
    // ---------------------------------------------------------------
    #[test]
    fn decision_sanity(
        speed in 0.0f64..40.0,
        rssis in prop::collection::vec(-120.0f64..-40.0, 0..8),
        free in prop::collection::vec(0.0f64..=1.0, 0..8),
    ) {
        let n = rssis.len().min(free.len());
        let candidates: Vec<Candidate> = (0..n)
            .map(|i| Candidate {
                cell: CellId(i as u32),
                tier: if i % 2 == 0 { Tier::Micro } else { Tier::Macro },
                rssi_dbm: rssis[i],
                free_ratio: free[i],
            })
            .collect();
        let engine = HandoffEngine::new(DecisionConfig::default(), HandoffFactors::all());
        match engine.decide(speed, None, &candidates) {
            HandoffDecision::Stay => prop_assert!(false, "cannot stay when unattached"),
            HandoffDecision::Outage => {
                prop_assert!(
                    candidates.iter().all(|c| c.rssi_dbm < DecisionConfig::default().min_rssi_dbm),
                    "outage only when nothing is audible"
                );
            }
            HandoffDecision::Handoff { target, .. } => {
                let cand = candidates.iter().find(|c| c.cell == target).unwrap();
                prop_assert!(cand.rssi_dbm >= DecisionConfig::default().min_rssi_dbm);
            }
        }
        // With a current attachment the engine never proposes the same cell.
        if !candidates.is_empty() {
            let cur = CurrentAttachment {
                cell: candidates[0].cell,
                tier: candidates[0].tier,
                rssi_dbm: Some(candidates[0].rssi_dbm),
            };
            if let HandoffDecision::Handoff { target, .. } =
                engine.decide(speed, Some(cur), &candidates)
            {
                prop_assert_ne!(target, cur.cell, "handoff to self is a Stay");
            }
        }
    }

    // ---------------------------------------------------------------
    // Seed splitting: distinct (experiment, architecture, replication)
    // tuples never share a stream, and derivation is order-independent.
    // ---------------------------------------------------------------
    #[test]
    fn seed_tuples_never_collide(
        master in any::<u64>(),
        exp in "[a-z0-9_]{1,10}",
        arch in "[a-z0-9_]{1,10}",
        rep in 0u64..10_000,
        other_rep in 0u64..10_000,
    ) {
        let seed = |m: u64, e: &str, a: &str, r: u64| mtnet_sim::rng::seed_for_path(m, &[e, a], r);
        let base = seed(master, &exp, &arch, rep);
        if rep != other_rep {
            prop_assert_ne!(base, seed(master, &exp, &arch, other_rep),
                "replication index must move the seed");
        }
        // Any label perturbation moves the seed.
        prop_assert_ne!(base, seed(master, &format!("{exp}x"), &arch, rep));
        prop_assert_ne!(base, seed(master, &exp, &format!("{arch}x"), rep));
        prop_assert_ne!(base, seed(master.wrapping_add(1), &exp, &arch, rep));
        if exp != arch {
            prop_assert_ne!(base, seed(master, &arch, &exp, rep),
                "experiment and architecture positions are not interchangeable");
        }
        // Streams from distinct tuples decorrelate (not just the seeds).
        let stream = |arch: &str| {
            RngStream::from_seed(mtnet_sim::SeedTree::new(master).label(&exp).label(arch).index(rep).seed())
        };
        let (mut a, mut b) = (stream(&arch), stream(&format!("{arch}x")));
        let equal_draws = (0..16).filter(|_| a.next_f64() == b.next_f64()).count();
        prop_assert_eq!(equal_draws, 0, "sibling streams must not track each other");
    }

    #[test]
    fn seed_derivation_is_order_independent(
        master in any::<u64>(),
        exp in "[a-z]{1,8}",
        arch_a in "[a-z]{1,8}",
        arch_b in "[a-z]{1,8}",
        reps in 1u64..32,
    ) {
        use mtnet_sim::SeedTree;
        // The seed of (exp, arch_a, reps) is the same whether it is
        // derived first, last, or after materializing every sibling —
        // derivation never mutates shared state.
        let direct = SeedTree::new(master).label(&exp).label(&arch_a).index(reps).seed();
        let root = SeedTree::new(master).label(&exp);
        let mut sibling_seeds = Vec::new();
        for rep in 0..reps {
            sibling_seeds.push(root.label(&arch_b).index(rep).seed());
            sibling_seeds.push(root.label(&arch_a).index(rep).seed());
        }
        let after = root.label(&arch_a).index(reps).seed();
        prop_assert_eq!(direct, after, "sibling derivations perturbed a seed");
        let unique: std::collections::BTreeSet<u64> = sibling_seeds.iter().copied().collect();
        let expected = if arch_a == arch_b { reps } else { 2 * reps };
        prop_assert_eq!(unique.len() as u64, expected, "sibling seeds collided");
    }

    // ---------------------------------------------------------------
    // Batch runner: thread count never changes results or their order.
    // ---------------------------------------------------------------
    #[test]
    fn batch_runner_thread_invariant(
        jobs in prop::collection::vec(any::<u64>(), 0..48),
        threads in 2usize..8,
    ) {
        use mtnet_sim::BatchRunner;
        let work = |i: usize, j: u64| {
            j.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ (i as u64)
        };
        let seq = BatchRunner::new(1).run(jobs.clone(), work);
        let par = BatchRunner::new(threads).run(jobs, work);
        prop_assert_eq!(seq, par);
    }

    // ---------------------------------------------------------------
    // Scheduler reference: `Scheduler` — its heap, the lanes beside it
    // and the merge of the two — behaves as one `std` binary heap over
    // `(time, seq, payload)` holding every push, on arbitrary schedule /
    // pop / pop-at-or-before / pop-tie-if interleavings: same pop order
    // (including `seq` FIFO ties), same tie verdicts, same horizon
    // verdicts, same lengths, same clock, same peeked times. Two or three
    // periodic-timer lanes take part: initial ticks pushed in random
    // order before the first read, re-arms one period on, and pushes at
    // any time — those landing before a lane's back must fall back to
    // the scheduler's heap. To the model a lane push is a push.
    // Up to 6 000 initial ticks: a lane's launch set spans one to three
    // 1 024-tick blocks, the last one partial, so the first read's sort
    // merges across block boundaries, an odd run count included.
    // ---------------------------------------------------------------
    #[test]
    fn scheduler_equals_a_binary_heap_model(
        periods in prop::collection::vec(1u64..2_000, 2..4),
        initial in prop::collection::vec((any::<u64>(), 0u64..4_000_000), 0..6_000),
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..400,)
    ) {
        let mut cal = Scheduler::new();
        let mut model = HeapModel::default();
        // Periods in 1 µs steps up to 2 ms: a lane tick ties with the
        // 64 µs grid below, and with other lanes, now and then.
        let lanes: Vec<(LaneId, SimDuration)> = periods
            .iter()
            .map(|&us| {
                let period = SimDuration::from_micros(us);
                (cal.add_lane(period, |id| id as usize), period)
            })
            .collect();
        let lane = |raw: u64| lanes[(raw % lanes.len() as u64) as usize];
        // Initial ticks carry payloads past every op index.
        for (payload, &(raw, ns)) in (ops.len()..).zip(&initial) {
            let d = SimDuration::from_nanos(ns / 64 * 64);
            cal.schedule_lane_at(lane(raw).0, SimTime::ZERO + d, payload as u32);
            model.schedule_in(d, payload);
        }
        for (i, &(op, raw)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    let d = match op {
                        // Near future, µs..ms range.
                        0 => SimDuration::from_nanos((raw % 1_000_000) / 64 * 64),
                        // Coarse grid, zero delay included: same-instant
                        // ties form, some with the last popped event.
                        1 => SimDuration::from_micros(64 * (raw % 4)),
                        // Far future, up to 20 s: a tail that stays
                        // queued while near-future pops run ahead of it.
                        _ => SimDuration::from_nanos(raw % 20_000_000_000),
                    };
                    cal.schedule_in(d, i);
                    model.schedule_in(d, i);
                }
                // Pop and compare everything observable.
                3 => {
                    let got = cal.pop().map(|e| (cal.now(), e.into_event()));
                    prop_assert_eq!(got, model.pop_at_or_before(END));
                }
                // Bounded pop at an arbitrary horizon past now.
                4 => {
                    let h = cal.now() + SimDuration::from_nanos(raw % 2_000_000);
                    prop_assert_eq!(
                        cal.pop_at_or_before(h).map(|e| (cal.now(), e.into_event())),
                        model.pop_at_or_before(h),
                        "horizon verdicts diverged"
                    );
                }
                // Tie pop under a random predicate on the payload: taken
                // only at the instant of the last pop, in seq order.
                5 => {
                    let pred = |e: &usize| (*e as u64 ^ raw) % 3 != 0;
                    prop_assert_eq!(cal.pop_tie_if(pred), model.pop_tie_if(pred), "tie verdicts diverged");
                }
                // A re-arm: one lane period from now.
                6 => {
                    let (id, period) = lane(raw);
                    cal.rearm(id, i as u32);
                    model.schedule_in(period, i);
                }
                // A lane push anywhere in the next 2 ms, often before
                // the lane's back.
                _ => {
                    let d = SimDuration::from_nanos((raw >> 8) % 2_000_000 / 64 * 64);
                    cal.schedule_lane_at(lane(raw).0, cal.now() + d, i as u32);
                    model.schedule_in(d, i);
                }
            }
            prop_assert_eq!(cal.len(), model.heap.len(), "len diverged after op {}", i);
            prop_assert_eq!(cal.now(), model.now, "now diverged after op {}", i);
        }
        // Drain both: the tails must match event for event.
        prop_assert_eq!(cal.peek_time(), model.heap.peek().map(|e| e.0.0));
        loop {
            let got = cal.pop().map(|e| (cal.now(), e.into_event()));
            prop_assert_eq!(got, model.pop_at_or_before(END), "tails diverged");
            if got.is_none() {
                break;
            }
        }
    }

    // ---------------------------------------------------------------
    // Tie draining: a handler that takes its same-variant, same-instant
    // ties through `Context::take_tie_if` and runs them itself is
    // indistinguishable from the run loop popping them one by one — same
    // trace, same counters, same clock — over random tie-heavy schedules
    // cut by horizons, one event class riding a scheduler lane. A wave
    // never crosses a variant boundary or a later instant; what it
    // leaves stays queued and a later `run_until` resumes it.
    // ---------------------------------------------------------------
    #[test]
    fn tie_draining_equals_serial_dispatch(
        initial in prop::collection::vec((0u64..6, any::<u64>()), 1..40),
        cuts in prop::collection::vec(0u64..400, 0..12),
    ) {
        use mtnet_sim::RunOutcome;
        let start = |drain: bool| {
            let lane = LaneId::default();
            let mut sim = Simulator::new(TieModel { drain, trace: vec![], waves: vec![], lane });
            sim.model_mut().lane = sim.add_lane(LANE_PERIOD, |id| TieEv::C(u64::from(id)));
            for &(slot, raw) in &initial {
                let (n, at) = (raw % 512, SimTime::ZERO + SimDuration::from_micros(64 * slot));
                match raw % 3 {
                    0 => sim.schedule_at(at, TieEv::A(n)),
                    1 => sim.schedule_at(at, TieEv::B(n)),
                    _ => sim.schedule_lane_at(sim.model().lane, at, (n % 6) as u32),
                }
            }
            sim
        };
        let (mut serial, mut drained) = (start(false), start(true));
        // Run both through the same sequence of horizon cuts, then to
        // completion; compare everything observable at each stop.
        let cuts = cuts.iter().map(|&us| SimTime::ZERO + SimDuration::from_micros(us));
        for (k, horizon) in cuts.chain([END]).enumerate() {
            let outcome = serial.run_until(horizon);
            prop_assert_eq!(drained.run_until(horizon), outcome, "outcome diverged at stop {}", k);
            prop_assert_eq!(&drained.model().trace, &serial.model().trace, "trace diverged at stop {}", k);
            prop_assert_eq!(drained.events_processed(), serial.events_processed());
            prop_assert_eq!(pending(&drained), pending(&serial));
            prop_assert_eq!(drained.now(), serial.now());
        }
        prop_assert_eq!(serial.run_until(END), RunOutcome::QueueEmpty);
        // Every event was dispatched exactly once, and each wave is one
        // variant at one instant.
        let model = drained.model();
        prop_assert_eq!(model.waves.iter().sum::<usize>(), model.trace.len());
        let mut at = 0;
        for &n in &model.waves {
            let wave = &model.trace[at..at + n];
            prop_assert!(wave.iter().all(|(t, e)| {
                *t == wave[0].0 && std::mem::discriminant(e) == std::mem::discriminant(&wave[0].1)
            }), "a wave mixed variants or instants: {:?}", wave);
            at += n;
        }
        prop_assert!(serial.model().waves.iter().all(|&n| n == 1));
    }

    // ---------------------------------------------------------------
    // Claimed continuations: a handler that runs its zero-delay
    // continuation itself whenever `Context::claim_now` says it would be
    // the very next dispatch is indistinguishable from the reference
    // heap popping every event one by one — same trace, same event
    // count, same clock — over random tie-heavy schedules cut by
    // horizons, lane ticks among them. A tie already queued at `now` —
    // in the heap or at a lane head — must refuse the claim, and
    // nothing else may: the verdicts are checked against the heap's own
    // view of what is pending.
    // ---------------------------------------------------------------
    #[test]
    fn claimed_continuations_equal_the_reference_heap(
        initial in prop::collection::vec((0u64..6, any::<u64>()), 1..40),
        cuts in prop::collection::vec(0u64..400, 0..12),
    ) {
        let mut sim = Simulator::new(ClaimModel::default());
        sim.model_mut().lane = sim.add_lane(LANE_PERIOD, |id| LANE_EV + id as usize);
        let mut heap = HeapModel::default();
        for &(slot, raw) in &initial {
            let at = SimDuration::from_micros(64 * slot);
            if raw % 4 == 0 {
                let id = (raw >> 2) % 6;
                sim.schedule_lane_at(sim.model().lane, SimTime::ZERO + at, id as u32);
                heap.schedule_in(at, LANE_EV + id as usize);
            } else {
                sim.schedule_at(SimTime::ZERO + at, (raw % 512) as usize);
                heap.schedule_in(at, (raw % 512) as usize);
            }
        }
        let mut trace = Vec::new();
        let (mut claimable, mut blocked) = (0u64, 0u64);
        let cuts = cuts.iter().map(|&us| SimTime::ZERO + SimDuration::from_micros(us));
        for (k, horizon) in cuts.chain([END]).enumerate() {
            sim.run_until(horizon);
            while let Some((time, ev)) = heap.pop_at_or_before(horizon) {
                trace.push((time, ev));
                if ev >= LANE_EV {
                    if ev > LANE_EV {
                        heap.schedule_in(LANE_PERIOD, ev - 1);
                    }
                    continue;
                }
                let (later, continuation) = claim_fanout(ev);
                for (delay, child) in later {
                    heap.schedule_in(delay, child);
                }
                if let Some(child) = continuation {
                    let tie_at_now = heap.heap.peek().is_some_and(|e| e.0.0 <= heap.now);
                    blocked += u64::from(tie_at_now);
                    claimable += u64::from(!tie_at_now);
                    heap.schedule_in(SimDuration::ZERO, child);
                }
            }
            prop_assert_eq!(&sim.model().trace, &trace, "trace diverged at stop {}", k);
            prop_assert_eq!(sim.events_processed(), trace.len() as u64);
            prop_assert_eq!(pending(&sim), heap.heap.len());
            prop_assert_eq!(sim.now(), heap.now);
        }
        prop_assert_eq!(sim.model().claimed, claimable, "a claim stood or fell wrongly");
        prop_assert_eq!(sim.model().refused, blocked);
    }

    // ---------------------------------------------------------------
    // Batched RSSI: the structure-of-arrays sweep is bit-identical to
    // the full scan (and the grid) on arbitrary layouts.
    // ---------------------------------------------------------------
    #[test]
    fn measure_batch_equals_full_scan(
        cells in prop::collection::vec(
            (-20_000.0f64..20_000.0, -20_000.0f64..20_000.0, 0usize..4),
            0..40,
        ),
        probes in prop::collection::vec(
            (-25_000.0f64..25_000.0, -25_000.0f64..25_000.0),
            1..16,
        ),
        tier_filter in 0usize..5,
    ) {
        let kinds = [CellKind::Pico, CellKind::Micro, CellKind::Macro, CellKind::Satellite];
        let mut map = CellMap::without_shadowing();
        for (i, &(x, y, k)) in cells.iter().enumerate() {
            map.add(Cell::new(
                CellId(i as u32),
                kinds[k],
                Point::new(x, y),
                NodeId(i as u32),
            ));
        }
        let tier = kinds.get(tier_filter).copied(); // index 4 → None (all tiers)
        let mut batch = Vec::new();
        for &(px, py) in &probes {
            let at = Point::new(px, py);
            map.measure_batch(at, tier, &mut batch);
            let scan = map.measure_full_scan(at, tier);
            prop_assert_eq!(&batch, &scan, "batch and scan disagree at {:?}", at);
            best_cell_heads_the_full_scan(&map, at, tier_filter)?;
        }
    }
}

proptest! {
    // ---------------------------------------------------------------
    // Scenario-spec text format: the canonical rendering is lossless.
    // parse(render(spec)) == spec over arbitrary field combinations —
    // including awkward names (spaces, quotes, backslashes), arbitrary
    // seed paths, raw-bit floats, and every enum variant. This is the
    // contract the content-addressed sweep store keys on.
    // ---------------------------------------------------------------
    #[test]
    fn scenario_spec_text_roundtrips(
        identity in (
            "[a-zA-Z0-9 _()+\"\\\\]{0,12}",
            0u8..2,
            0u64..u64::MAX,
            proptest::collection::vec("[a-zA-Z0-9 /+\"\\\\]{1,10}", 1..4),
            0u64..1000,
        ),
        shape in (
            0.5f64..5000.0,
            0usize..6,
            1u32..6,
            0u32..12,
            0usize..4,
            10.0f64..2000.0,
        ),
        geometry in (
            500.0f64..10_000.0,
            -500.0f64..5000.0,
            0u8..2,
            0u8..2,
            0u8..2,
        ),
        population in (
            0u32..30,
            0u32..30,
            0u32..30,
            0usize..3,
            0.0f64..100.0,
            0.5f64..20.0,
        ),
        traffic in (
            1.0f64..50.0,
            0u32..5,
            0u32..5,
            0u32..5,
            0u8..8,
        ),
        overrides in (
            (0u8..2, 1u64..100_000),
            (0u8..2, 1u64..100_000),
            (0u8..2, 1u64..100_000),
            (0u8..2, 1u64..100_000),
        ),
        fault_shapes in (
            prop::collection::vec((0u32..40, 0.0f64..500.0, 0.001f64..200.0), 0..3),
            prop::collection::vec(
                (0u32..100, 0.0f64..500.0, 0.5f64..60.0, 0.05f64..0.95, 0.0f64..0.99, 1u32..5),
                0..3,
            ),
            prop::collection::vec((0u32..100, 0.0f64..500.0, 0u8..2, 0.001f64..60.0), 0..3),
            prop::collection::vec((0.0f64..500.0, 0.001f64..200.0), 0..2),
        ),
    ) {
        let (name, seed_kind, raw_seed, segments, replication) = identity;
        let (duration_s, arch_pick, n_domains, micro_per_domain, micro_kind_pick, spacing) = shape;
        let (width, street_y, share_upper, macro_hole, satellite) = geometry;
        let (pedestrians, cyclists, vehicles, class_pick, pause, cyclist_speed) = population;
        let (vehicle_speed, voice_every, video_every, web_every, factors_bits) = traffic;
        let (route_ms, semisoft_ms, lifetime_ms, paging_ms) = overrides;
        let (outage_shapes, flap_shapes, failover_shapes, eclipse_shapes) = fault_shapes;
        use mtnet_core::scenario::ArchKind;
        use mtnet_core::spec::{
            CellOutage, EclipseWindow, FaultSpec, LinkFlap, RsmcFailover, ScenarioSpec, SeedSpec,
        };

        let archs = [
            ArchKind::multi_tier(),
            ArchKind::multi_tier_hard(),
            ArchKind::multi_tier_no_rsmc(),
            ArchKind::MultiTier { rsmc: false, semisoft: false },
            ArchKind::PureMobileIp,
            ArchKind::FlatCellularIp,
        ];
        let opt = |(on, ms): (u8, u64)| (on == 1).then_some(ms);
        // Arbitrary-but-valid fault schedules: windows are nonempty, flap
        // domains stay in range, and jitter respects the validation bound
        // jitter < period * min(duty, 1 - duty).
        let faults = FaultSpec {
            cell_outages: outage_shapes
                .iter()
                .map(|&(cell, start_s, width_s)| CellOutage {
                    cell,
                    start_s,
                    end_s: start_s + width_s,
                })
                .collect(),
            link_flaps: flap_shapes
                .iter()
                .map(|&(dom, start_s, period_s, duty, jitter_frac, count)| LinkFlap {
                    domain: dom % n_domains,
                    start_s,
                    period_s,
                    duty,
                    jitter_s: jitter_frac * period_s * duty.min(1.0 - duty),
                    count,
                })
                .collect(),
            rsmc_failovers: failover_shapes
                .iter()
                .map(|&(dom, at_s, has_takeover, takeover_s)| RsmcFailover {
                    domain: dom % n_domains,
                    at_s,
                    takeover_s: (has_takeover == 1).then_some(takeover_s),
                })
                .collect(),
            eclipses: eclipse_shapes
                .iter()
                .map(|&(start_s, width_s)| EclipseWindow {
                    start_s,
                    end_s: start_s + width_s,
                })
                .collect(),
        };
        let spec = ScenarioSpec {
            name,
            seed: if seed_kind == 0 {
                SeedSpec::Raw(raw_seed)
            } else {
                SeedSpec::Path { path: segments, replication }
            },
            duration_s,
            arch: archs[arch_pick],
            n_domains,
            micro_per_domain,
            micro_kind: CellKind::ALL[micro_kind_pick],
            micro_spacing_m: spacing,
            domain_width_m: width,
            street_y_m: street_y,
            share_upper: share_upper == 1,
            macro_hole: macro_hole == 1,
            satellite: satellite == 1,
            pedestrians,
            cyclists,
            vehicles,
            pedestrian_class: {
                use mtnet_mobility::SpeedClass::*;
                [Pedestrian, UrbanVehicle, Highway][class_pick]
            },
            pedestrian_pause_s: pause,
            cyclist_speed_mps: cyclist_speed,
            vehicle_speed_mps: vehicle_speed,
            voice_every,
            video_every,
            web_every,
            factors: HandoffFactors {
                speed: factors_bits & 1 != 0,
                signal: factors_bits & 2 != 0,
                resources: factors_bits & 4 != 0,
            },
            route_update_ms: opt(route_ms),
            semisoft_delay_ms: opt(semisoft_ms),
            table_lifetime_ms: opt(lifetime_ms),
            paging_update_ms: opt(paging_ms),
            // Metro keys, derived like `shards`: raw_seed bits cover both
            // the elided (default) and rendered forms of each.
            move_sample_ms: (raw_seed & 1 != 0).then_some(raw_seed % 9_000 + 1),
            location_update_ms: (raw_seed & 2 != 0).then_some(raw_seed % 90_000 + 1),
            aggregate_qos: raw_seed & 4 != 0,
            idle_camping: raw_seed & 8 != 0,
            load_curve: (raw_seed & 16 != 0)
                .then_some(((raw_seed % 300 + 1) as f64, (raw_seed % 13 + 2) as f64 * 0.5)),
            // Derived, not a fresh strategy: covers both the elided
            // (shards = 1) and rendered (shards > 1) forms.
            shards: (raw_seed % 4 + 1) as u32,
            faults,
        };
        let text = spec.render();
        let back = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        prop_assert_eq!(&back, &spec, "round-trip drifted\n{}", text);
        // Rendering is canonical: a second render of the parsed value is
        // byte-identical, so the store key is stable across round trips.
        prop_assert_eq!(back.render(), text);
    }

    // ---------------------------------------------------------------
    // Link flaps: under the spec validation bound
    // jitter < period * min(duty, 1 - duty), the expanded edge stream is
    // strictly monotone and down/up edges pair exactly — for ANY jitter
    // draws in [0, 1). This is the invariant the fault engine's plan
    // compiler relies on (its draws come from a seeded child stream).
    // ---------------------------------------------------------------
    #[test]
    fn link_flap_edges_are_monotone_and_paired(
        start_s in 0.0f64..1000.0,
        period_s in 0.01f64..500.0,
        duty in 0.01f64..0.99,
        jitter_frac in 0.0f64..0.999,
        count in 1u32..50,
        draws in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 50),
    ) {
        let jitter_s = jitter_frac * period_s * duty.min(1.0 - duty);
        let mut edges = Vec::new();
        for k in 0..count {
            let (j_down, j_up) = draws[k as usize];
            let base = start_s + f64::from(k) * period_s;
            edges.push((base + j_down * jitter_s, true));
            edges.push((base + duty * period_s + j_up * jitter_s, false));
        }
        let mut down_open = false;
        for (i, w) in edges.windows(2).enumerate() {
            prop_assert!(
                w[0].0 < w[1].0,
                "edge {i} not strictly before its successor: {edges:?}"
            );
        }
        for &(_, down) in &edges {
            prop_assert_ne!(down, down_open, "unpaired edge in {:?}", &edges);
            down_open = down;
        }
        prop_assert!(!down_open, "stream must end restored");
    }

    // ---------------------------------------------------------------
    // Cell outages: arbitrary down/up toggle sequences never leave the
    // CellMap inconsistent — a downed cell stays enumerable (present)
    // but silent on every measurement path (absent from coverage), an
    // up cell measures exactly as if the outage never happened, and
    // `set_cell_down` reports exactly the real state changes.
    // ---------------------------------------------------------------
    #[test]
    fn cell_outage_toggles_keep_cellmap_consistent(
        cells in prop::collection::vec(
            (-10_000.0f64..10_000.0, -10_000.0f64..10_000.0, 0usize..4),
            1..12,
        ),
        toggles in prop::collection::vec((0usize..12, any::<bool>()), 1..40),
        probe in (-12_000.0f64..12_000.0, -12_000.0f64..12_000.0),
    ) {
        let kinds = [CellKind::Pico, CellKind::Micro, CellKind::Macro, CellKind::Satellite];
        let mut map = CellMap::without_shadowing();
        let mut reference = CellMap::without_shadowing();
        for (i, &(x, y, k)) in cells.iter().enumerate() {
            let cell = Cell::new(CellId(i as u32), kinds[k], Point::new(x, y), NodeId(i as u32));
            map.add(cell.clone());
            reference.add(cell);
        }
        let at = Point::new(probe.0, probe.1);
        let mut down = vec![false; cells.len()];
        for &(pick, to_down) in &toggles {
            let idx = pick % cells.len();
            let id = CellId(idx as u32);
            let changed = map.set_cell_down(id, to_down);
            prop_assert_eq!(changed, down[idx] != to_down, "change report lies");
            down[idx] = to_down;
            // Present: every cell stays enumerable regardless of state.
            prop_assert_eq!(map.cells().count(), cells.len());
            // Absent from coverage: measurements see exactly the up set.
            let mut measured = Vec::new();
            map.measure_batch(at, None, &mut measured);
            for m in &measured {
                prop_assert!(!down[m.cell.0 as usize], "downed cell answered a probe");
            }
            let mut expected_up = Vec::new();
            reference.measure_batch(at, None, &mut expected_up);
            let expected_up: Vec<_> = expected_up
                .into_iter()
                .filter(|m| !down[m.cell.0 as usize])
                .collect();
            prop_assert_eq!(&measured, &expected_up, "up cells must measure unperturbed");
            for (i, &d) in down.iter().enumerate() {
                let rssi = map.rssi_if_covered(CellId(i as u32), at);
                if d {
                    prop_assert!(rssi.is_none(), "downed cell covered the probe");
                } else {
                    prop_assert_eq!(rssi, reference.rssi_if_covered(CellId(i as u32), at));
                }
            }
        }
    }
}
