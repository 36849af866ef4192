//! The mobility-model trait and lazily materialized trajectories.

use crate::geometry::Point;
use mtnet_sim::{RngStream, SimDuration, SimTime};
use std::num::NonZeroU64;

/// One straight constant-speed segment of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// Start position.
    pub from: Point,
    /// End position.
    pub to: Point,
    /// Leg duration (movement plus any trailing pause).
    pub duration: SimDuration,
    /// Movement speed during the leg in m/s (0 for pauses).
    pub speed: f64,
}

impl Leg {
    /// A stationary leg at `at` for `duration`.
    pub fn pause(at: Point, duration: SimDuration) -> Leg {
        Leg {
            from: at,
            to: at,
            duration,
            speed: 0.0,
        }
    }

    /// A movement leg between two points at `speed` m/s.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite.
    pub fn travel(from: Point, to: Point, speed: f64) -> Leg {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        let duration = SimDuration::from_secs_f64(from.distance(to) / speed);
        Leg {
            from,
            to,
            duration,
            speed,
        }
    }

    /// Position `elapsed` into the leg.
    fn position_at(&self, elapsed: SimDuration) -> Point {
        if self.duration.is_zero() {
            return self.to;
        }
        let t = elapsed.as_secs_f64() / self.duration.as_secs_f64();
        self.from.lerp(self.to, t)
    }
}

/// A generator of consecutive trajectory legs.
///
/// A model is a **parameter set**: immutable, and shared by every node
/// that walks it. What makes one walker differ from another lives with
/// the walker — its start point (read once, by [`LegCursor::at`]), its
/// `RngStream`, and one `phase` word of progress through the model.
/// Implementations must be deterministic given those: all randomness
/// comes from the stream, all memory between legs from `phase`.
pub trait MobilityModel {
    /// Produces the next leg, starting at `current`, where the previous
    /// leg ended (the walker's start point for the first leg).
    ///
    /// `phase` is the walker's own progress word, zero before its first
    /// leg; the model reads and advances it (a pause toggle, a direction
    /// bit, a script index) and keeps nothing else between calls.
    fn next_leg(&self, current: Point, phase: &mut u32, rng: &mut RngStream) -> Leg;

    /// The model's default start point: where [`Trajectory::new`]
    /// starts its walker.
    fn start(&self) -> Point;
}

/// Shortest time a leg occupies on the trajectory's clock: zero-length
/// legs would stall materialization forever.
const MIN_LEG: SimDuration = SimDuration::from_millis(1);

/// The leg a trajectory is currently on.
#[derive(Debug, Clone, Copy)]
struct CurrentLeg {
    leg: Leg,
    /// End of the leg in simulated nanoseconds. Every leg occupies at
    /// least [`MIN_LEG`], so an end is never zero — which is what lets
    /// [`Walk`] keep its start point without spending a byte on the tag.
    /// The start is derived (`end − max(duration, MIN_LEG)`), exact short
    /// of the clock saturating at its last instant (584 simulated years).
    end: NonZeroU64,
}

impl CurrentLeg {
    /// Pulls the leg that follows one ending at `start` in `from`.
    fn pull<M: MobilityModel + ?Sized>(
        from: Point,
        start: SimTime,
        model: &M,
        phase: &mut u32,
        rng: &mut RngStream,
    ) -> CurrentLeg {
        let leg = model.next_leg(from, phase, rng);
        let end = start + leg.duration.max(MIN_LEG);
        CurrentLeg {
            leg,
            end: NonZeroU64::new(end.as_nanos()).expect("a leg ends after it starts"),
        }
    }

    fn end(&self) -> SimTime {
        SimTime::from_nanos(self.end.get())
    }

    fn start(&self) -> SimTime {
        self.end() - self.leg.duration.max(MIN_LEG)
    }
}

/// Where a cursor stands: at its start point until the first query
/// pulls a leg, on a leg from then on. Explicit state: a first leg of
/// zero duration starting at time zero is a legal leg, not an empty
/// cursor.
#[derive(Debug, Clone, Copy)]
enum Walk {
    At(Point),
    On(CurrentLeg),
}

/// The moving part of a trajectory: the one leg that covers the latest
/// query, without the model that generates legs. 56 bytes and `Copy`, so
/// a population table can keep it inline in a hot row and the shared
/// model in a table that only leg rollover reads.
///
/// Queries are **per-cursor non-decreasing** in time. A same-instant
/// re-query and a backwards query *inside the current leg* stay exact;
/// a query before the current leg's start is a caller bug (the leg that
/// covered it is gone) and trips a debug assertion. Nothing accumulates:
/// a rollover overwrites the leg in place, so memory per trajectory is
/// constant by construction.
#[derive(Debug, Clone, Copy)]
pub struct LegCursor {
    walk: Walk,
}

const _: () = assert!(std::mem::size_of::<LegCursor>() == 56);

impl LegCursor {
    /// A cursor standing at `start`: its first query pulls the first leg
    /// from there, at time zero.
    pub const fn at(start: Point) -> Self {
        LegCursor {
            walk: Walk::At(start),
        }
    }

    /// Position and instantaneous speed (m/s) at time `t`, pulling legs
    /// from `model` until one ends strictly after `t`. `phase` and `rng`
    /// are the walker's own and must be the same pair on every call (the
    /// model may be shared with any number of other cursors); none of the
    /// three is touched while `t` stays inside the current leg.
    #[inline]
    pub fn sample<M: MobilityModel + ?Sized>(
        &mut self,
        t: SimTime,
        model: &M,
        phase: &mut u32,
        rng: &mut RngStream,
    ) -> (Point, f64) {
        let cur = match self.walk {
            Walk::On(cur) if t < cur.end() => cur,
            _ => self.roll_to(t, model, phase, rng),
        };
        let start = cur.start();
        debug_assert!(
            t >= start,
            "trajectory query at {t:?} is before the current leg \
             (start {start:?}): queries must be non-decreasing"
        );
        (
            cur.leg.position_at(t.saturating_since(start)),
            cur.leg.speed,
        )
    }

    /// Leg rollover: replaces the current leg until one covers `t`. The
    /// first leg starts at time zero from the cursor's start point, every
    /// later one where and when its predecessor ended.
    #[cold]
    fn roll_to<M: MobilityModel + ?Sized>(
        &mut self,
        t: SimTime,
        model: &M,
        phase: &mut u32,
        rng: &mut RngStream,
    ) -> CurrentLeg {
        let mut cur = match self.walk {
            Walk::On(cur) => cur,
            Walk::At(start) => CurrentLeg::pull(start, SimTime::ZERO, model, phase, rng),
        };
        while cur.end() <= t {
            cur = CurrentLeg::pull(cur.leg.to, cur.end(), model, phase, rng);
        }
        self.walk = Walk::On(cur);
        cur
    }
}

/// A trajectory: a [`MobilityModel`] of its own, the phase word and the
/// [`LegCursor`] walking it from the model's start, with position and
/// speed queries at per-trajectory non-decreasing times (see
/// [`LegCursor`] for the exact contract). A world keeps the cursor in its
/// own rows and the model in a shared table; only tests and the
/// repository benchmark's replay walk a `Trajectory`. Its `Debug` shows
/// the phase word and the cursor, not the boxed model.
pub struct Trajectory {
    model: Box<dyn MobilityModel + Send>,
    phase: u32,
    cursor: LegCursor,
}

impl std::fmt::Debug for Trajectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trajectory")
            .field("phase", &self.phase)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

impl Trajectory {
    /// Wraps a model into a trajectory with no leg materialized yet.
    pub fn new(model: Box<dyn MobilityModel + Send>) -> Self {
        Trajectory {
            cursor: LegCursor::at(model.start()),
            phase: 0,
            model,
        }
    }

    /// Position and instantaneous speed (m/s) at time `t`, from one leg
    /// lookup.
    #[inline]
    pub fn sample(&mut self, t: SimTime, rng: &mut RngStream) -> (Point, f64) {
        self.cursor.sample(t, &*self.model, &mut self.phase, rng)
    }

    /// Position at time `t` (materializing legs as needed).
    pub fn position(&mut self, t: SimTime, rng: &mut RngStream) -> Point {
        self.sample(t, rng).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commute::LinearCommute;
    use crate::geometry::Rect;
    use crate::speed::SpeedClass;
    use crate::waypoint::RandomWaypoint;
    use proptest::prelude::*;

    fn rng() -> RngStream {
        RngStream::derive(1, "trajectory-test")
    }

    #[test]
    fn leg_travel_duration() {
        let l = Leg::travel(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 10.0);
        assert_eq!(l.duration, SimDuration::from_secs(10));
        assert_eq!(
            l.position_at(SimDuration::from_secs(5)),
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            l.position_at(SimDuration::from_secs(20)),
            Point::new(100.0, 0.0)
        );
    }

    #[test]
    fn leg_pause_stays_put() {
        let l = Leg::pause(Point::new(7.0, 7.0), SimDuration::from_secs(3));
        assert_eq!(l.speed, 0.0);
        assert_eq!(
            l.position_at(SimDuration::from_secs(1)),
            Point::new(7.0, 7.0)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn leg_zero_speed_rejected() {
        Leg::travel(Point::new(0.0, 0.0), Point::new(1.0, 0.0), 0.0);
    }

    /// A scripted model emitting fixed legs, for deterministic tests; the
    /// phase word is the walker's index into the script.
    #[derive(Clone)]
    struct Scripted {
        legs: Vec<Leg>,
    }

    /// A node parked at `at`, one hour-long pause after another.
    fn parked(at: Point) -> Scripted {
        Scripted {
            legs: vec![Leg::pause(at, SimDuration::from_secs(3600))],
        }
    }

    impl MobilityModel for Scripted {
        fn next_leg(&self, _c: Point, phase: &mut u32, _r: &mut RngStream) -> Leg {
            let leg = self.legs[*phase as usize % self.legs.len()];
            *phase += 1;
            leg
        }
        fn start(&self) -> Point {
            self.legs[0].from
        }
    }

    #[test]
    fn trajectory_interpolates_across_legs() {
        let legs = vec![
            Leg::travel(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 10.0), // 10 s
            Leg::pause(Point::new(100.0, 0.0), SimDuration::from_secs(5)),   // 5 s
            Leg::travel(Point::new(100.0, 0.0), Point::new(100.0, 50.0), 5.0), // 10 s
        ];
        let mut traj = Trajectory::new(Box::new(Scripted { legs }));
        let mut r = rng();
        // Position and speed together, at non-decreasing times: one per leg.
        for (secs, pos, speed) in [
            (5, Point::new(50.0, 0.0), 10.0),
            (12, Point::new(100.0, 0.0), 0.0),
            (20, Point::new(100.0, 25.0), 5.0),
        ] {
            let t = SimTime::from_secs(secs);
            assert_eq!(traj.sample(t, &mut r), (pos, speed), "at {t:?}");
            assert_eq!(traj.position(t, &mut r), pos, "position at {t:?}");
            assert_eq!(traj.sample(t, &mut r).1, speed, "speed at {t:?}");
        }
    }

    #[test]
    fn backwards_queries_use_cache() {
        let legs = vec![Leg::travel(
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            1.0,
        )];
        let mut traj = Trajectory::new(Box::new(Scripted { legs }));
        let mut r = rng();
        let late = traj.position(SimTime::from_secs(90), &mut r);
        let early = traj.position(SimTime::from_secs(10), &mut r);
        assert!((late.x - 90.0).abs() < 1e-9);
        assert!((early.x - 10.0).abs() < 1e-9);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before the current leg")]
    fn query_before_the_current_leg_is_a_caller_bug() {
        let legs = vec![
            Leg::travel(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 10.0), // 10 s
            Leg::pause(Point::new(100.0, 0.0), SimDuration::from_secs(5)),
        ];
        let mut traj = Trajectory::new(Box::new(Scripted { legs }));
        let mut r = rng();
        traj.position(SimTime::from_secs(12), &mut r);
        traj.position(SimTime::from_secs(5), &mut r);
    }

    #[test]
    fn zero_length_first_leg_is_pulled_once() {
        // "Nothing materialized yet" must be explicit state: a first leg of
        // zero duration starting at time zero looks exactly like an empty
        // cursor to anything that infers emptiness from the leg's fields.
        let here = Point::new(3.0, 4.0);
        let there = Point::new(3.0, 5.0);
        let model = Scripted {
            legs: vec![
                Leg::pause(here, SimDuration::ZERO),
                Leg::travel(here, there, 1000.0), // 1 ms
                Leg::pause(there, SimDuration::from_secs(1)),
            ],
        };
        let mut cursor = LegCursor::at(model.start());
        let (mut phase, mut r) = (0, rng());
        let us = |micros: u64| SimTime::from_nanos(micros * 1000);
        for (t, pulled, pos, speed) in [
            (us(0), 1, here, 0.0),
            (us(0), 1, here, 0.0),
            (us(500), 1, here, 0.0), // still inside the 1 ms floor
            (us(1000), 2, here, 1000.0),
            (us(2000), 3, there, 0.0),
        ] {
            assert_eq!(
                cursor.sample(t, &model, &mut phase, &mut r),
                (pos, speed),
                "at {t:?}"
            );
            assert_eq!(phase, pulled, "legs pulled by {t:?}");
        }
        // The last leg ends 1 s after it began: no pull before then.
        let end = us(2000) + SimDuration::from_secs(1);
        let just_before = SimTime::from_nanos(end.as_nanos() - 1);
        assert_eq!(
            cursor.sample(just_before, &model, &mut phase, &mut r),
            (there, 0.0)
        );
        assert_eq!(phase, 3, "no leg pulled before {end:?}");
        cursor.sample(end, &model, &mut phase, &mut r);
        assert_eq!(phase, 4, "the next leg pulled at {end:?}");
    }

    #[test]
    fn dense_and_sparse_queries_answer_bit_exact() {
        let mk = || {
            Trajectory::new(Box::new(
                RandomWaypoint::new(
                    Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
                    SpeedClass::Pedestrian,
                )
                .with_pause(SimDuration::from_secs(5)),
            ))
        };
        let (mut dense, mut sparse) = (mk(), mk());
        let (mut rd, mut rs) = (rng(), rng());
        // Dense queries land many times in every leg; sparse checkpoint
        // queries skip thousands of legs at a stride. Both must pull
        // identical legs and answer bit for bit.
        for secs in 0..=20_000u64 {
            let t = SimTime::from_secs(secs);
            let p = dense.position(t, &mut rd);
            if secs % 1000 == 0 {
                assert_eq!(p, sparse.position(t, &mut rs), "position at {t:?}");
                assert_eq!(
                    dense.sample(t, &mut rd).1,
                    sparse.sample(t, &mut rs).1,
                    "speed at {t:?}"
                );
            }
        }
        assert_eq!(rd, rs, "both consumed the same draws");
        // Constant memory per trajectory: the model box, the phase word and
        // one inline leg, no heap-side history to grow with simulated time.
        assert!(std::mem::size_of::<Trajectory>() <= 80);
    }

    #[test]
    fn debug_reports_cache() {
        let mut traj = Trajectory::new(Box::new(parked(Point::new(0.0, 0.0))));
        let mut r = rng();
        traj.position(SimTime::from_secs(1), &mut r);
        let shown = format!("{traj:?}");
        assert!(shown.contains("cursor"), "got: {shown}");
        assert!(shown.contains("3600"), "got: {shown}");
    }

    /// The retired `Vec`-of-legs trajectory, kept as the reference the
    /// cursor is checked against: every leg ever pulled stays cached and
    /// each query is a binary search over the cumulative end times.
    struct Oracle<M> {
        model: M,
        phase: u32,
        ends: Vec<SimTime>,
        legs: Vec<Leg>,
    }

    impl<M: MobilityModel> Oracle<M> {
        fn new(model: M) -> Self {
            Oracle {
                model,
                phase: 0,
                ends: Vec::new(),
                legs: Vec::new(),
            }
        }

        fn sample(&mut self, t: SimTime, rng: &mut RngStream) -> (Point, f64) {
            let mut horizon = self.ends.last().copied().unwrap_or(SimTime::ZERO);
            while horizon <= t {
                let current = self
                    .legs
                    .last()
                    .map(|l| l.to)
                    .unwrap_or_else(|| self.model.start());
                let leg = self.model.next_leg(current, &mut self.phase, rng);
                horizon += leg.duration.max(SimDuration::from_millis(1));
                self.ends.push(horizon);
                self.legs.push(leg);
            }
            let i = self.ends.partition_point(|e| *e <= t);
            let start = if i == 0 {
                SimTime::ZERO
            } else {
                self.ends[i - 1]
            };
            let leg = &self.legs[i];
            (leg.position_at(t.saturating_since(start)), leg.speed)
        }
    }

    /// Runs one non-decreasing query schedule through the cursor and the
    /// oracle over clones of `model`; answers and RNG states must match
    /// bit for bit.
    fn check_against_oracle<M>(model: M, seed: u64, steps_ms: &[u64]) -> Result<(), TestCaseError>
    where
        M: MobilityModel + Clone,
    {
        let mut oracle = Oracle::new(model.clone());
        let (mut cursor, mut phase) = (LegCursor::at(model.start()), 0);
        let mut rc = RngStream::derive(seed, "cursor-vs-oracle");
        let mut ro = rc.clone();
        let mut t = SimTime::ZERO;
        for &step in steps_ms {
            t += SimDuration::from_millis(step);
            let got = cursor.sample(t, &model, &mut phase, &mut rc);
            let want = oracle.sample(t, &mut ro);
            prop_assert_eq!(got.0.x.to_bits(), want.0.x.to_bits(), "x at {t:?}");
            prop_assert_eq!(got.0.y.to_bits(), want.0.y.to_bits(), "y at {t:?}");
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "speed at {t:?}");
            prop_assert_eq!(&rc, &ro, "rng state at {t:?}");
        }
        Ok(())
    }

    /// A drawn `(kind, gap)` pair as the milliseconds between two
    /// consecutive queries: a repeated instant, the dense 1 s cadence, a
    /// sparse 1000 s checkpoint, or an arbitrary gap.
    fn step_ms((kind, gap): (u8, u64)) -> u64 {
        match kind {
            0 => 0,
            1 => 1_000,
            2 => 1_000_000,
            _ => gap,
        }
    }

    /// Whole-second legs of differing speeds, so queries land exactly on
    /// boundaries where the two neighbours answer differently, and a
    /// zero-length leg in mid-trajectory.
    fn script() -> Scripted {
        let (a, b) = (Point::new(0.0, 0.0), Point::new(30.0, 0.0));
        Scripted {
            legs: vec![
                Leg::travel(a, b, 10.0),
                Leg::pause(b, SimDuration::from_secs(2)),
                Leg::pause(b, SimDuration::ZERO),
                Leg::travel(b, a, 30.0),
            ],
        }
    }

    /// Runs one walker per start over the one `model` they share — each
    /// with its own cursor, phase word and stream — against independent
    /// [`Trajectory`]s over per-walker copies (`copy(start)` is `model`
    /// starting there), querying whichever walker each draw names at a
    /// global non-decreasing clock. Answers and RNG states must match bit
    /// for bit: sharing a model must be unobservable.
    fn check_sharing<M>(
        model: &M,
        copy: impl Fn(Point) -> M,
        starts: &[Point],
        seed: u64,
        draws: &[(usize, u64)],
    ) -> Result<(), TestCaseError>
    where
        M: MobilityModel + Send + 'static,
    {
        let stream = |k: usize| RngStream::derive(seed, &format!("walker{k}"));
        let mut walkers: Vec<(LegCursor, u32, RngStream)> = (0..starts.len())
            .map(|k| (LegCursor::at(starts[k]), 0, stream(k)))
            .collect();
        let mut own: Vec<(Trajectory, RngStream)> = (0..starts.len())
            .map(|k| (Trajectory::new(Box::new(copy(starts[k]))), stream(k)))
            .collect();
        let mut t = SimTime::ZERO;
        for &(k, step) in draws {
            t += SimDuration::from_millis(step);
            let k = k % starts.len();
            let (cursor, phase, rc) = &mut walkers[k];
            let got = cursor.sample(t, model, phase, rc);
            let (traj, ro) = &mut own[k];
            let want = traj.sample(t, ro);
            prop_assert_eq!(
                got.0.x.to_bits(),
                want.0.x.to_bits(),
                "walker {} x at {:?}",
                k,
                t
            );
            prop_assert_eq!(
                got.0.y.to_bits(),
                want.0.y.to_bits(),
                "walker {} y at {:?}",
                k,
                t
            );
            prop_assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "walker {} speed at {:?}",
                k,
                t
            );
            prop_assert_eq!(&*rc, &*ro, "walker {} rng state at {:?}", k, t);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn cursor_matches_the_vec_of_legs_oracle(
            seed in any::<u64>(),
            draws in prop::collection::vec((0u8..4, 1u64..5_000_000), 1..200),
        ) {
            let steps: Vec<u64> = draws.into_iter().map(step_ms).collect();
            let area = Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
            let rwp = RandomWaypoint::new(area, SpeedClass::Pedestrian);
            check_against_oracle(rwp.clone(), seed, &steps)?;
            check_against_oracle(rwp.with_pause(SimDuration::from_secs(5)), seed, &steps)?;
            // 500 m at 50 m/s: 10 s legs, so the 1 s cadence lands exactly on
            // leg boundaries.
            let commute = LinearCommute::new(Point::new(0.0, 0.0), Point::new(300.0, 400.0), 50.0);
            check_against_oracle(commute.round_trip(), seed, &steps)?;
            check_against_oracle(parked(Point::new(5.0, 5.0)), seed, &steps)?;
            check_against_oracle(script(), seed, &steps)?;
        }

        #[test]
        fn walkers_sharing_a_model_match_walkers_with_their_own(
            seed in any::<u64>(),
            n in 2usize..6,
            draws in prop::collection::vec((0usize..6, 0u8..4, 1u64..5_000_000), 1..300),
        ) {
            let draws: Vec<(usize, u64)> =
                draws.into_iter().map(|(k, kind, gap)| (k, step_ms((kind, gap)))).collect();
            // Random waypoint: every walker starts somewhere else.
            let area = Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
            let mut at = RngStream::derive(seed, "starts");
            let starts: Vec<Point> = (0..n)
                .map(|_| Point::new(at.uniform(0.0, 1000.0), at.uniform(0.0, 1000.0)))
                .collect();
            for pause in [SimDuration::ZERO, SimDuration::from_secs(5)] {
                let rwp = RandomWaypoint::new(area, SpeedClass::Pedestrian).with_pause(pause);
                check_sharing(&rwp, |s| rwp.clone().with_start(s), &starts, seed, &draws)?;
            }
            // The rest start where their parameters say.
            let (a, b) = (Point::new(0.0, 0.0), Point::new(300.0, 400.0));
            let one_way = LinearCommute::new(a, b, 50.0);
            let round_trip = one_way.clone().round_trip();
            check_sharing(&one_way, |_| one_way.clone(), &vec![a; n], seed, &draws)?;
            check_sharing(&round_trip, |_| round_trip.clone(), &vec![a; n], seed, &draws)?;
            let here = Point::new(5.0, 5.0);
            let parked_here = parked(here);
            check_sharing(&parked_here, parked, &vec![here; n], seed, &draws)?;
            let scripted = script();
            let from = scripted.start();
            check_sharing(&scripted, |_| scripted.clone(), &vec![from; n], seed, &draws)?;
        }
    }
}
