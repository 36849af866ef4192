//! Straight-line commute trajectories for controlled handoff experiments.

use crate::geometry::Point;
use crate::model::{Leg, MobilityModel};
use mtnet_sim::{RngStream, SimDuration};

/// A constant-speed straight path from `from` to `to`, then parked at the
/// destination. Used by the inter-domain handoff experiments (Figs 3.2–3.3)
/// where the node must cross cell and domain boundaries at a known time.
///
/// With [`LinearCommute::round_trip`], the node shuttles back and forth
/// forever — handy for generating a steady stream of handoffs.
///
/// The walker's phase word says which endpoint its next leg departs: 0
/// for `from`, 1 for `to` (where a one-way commute stays parked).
#[derive(Debug, Clone)]
pub struct LinearCommute {
    from: Point,
    to: Point,
    speed: f64,
    round_trip: bool,
}

impl LinearCommute {
    /// Creates a one-way commute.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite, or if the endpoints
    /// coincide.
    pub fn new(from: Point, to: Point, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        assert!(from.distance(to) > 1e-9, "endpoints must differ");
        LinearCommute {
            from,
            to,
            speed,
            round_trip: false,
        }
    }

    /// Makes the node shuttle back and forth indefinitely.
    pub fn round_trip(mut self) -> Self {
        self.round_trip = true;
        self
    }

    /// Travel time for one leg.
    pub fn leg_duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.from.distance(self.to) / self.speed)
    }

    /// The configured speed in m/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }
}

impl MobilityModel for LinearCommute {
    fn next_leg(&self, _current: Point, phase: &mut u32, _rng: &mut RngStream) -> Leg {
        // Legs run between the exact endpoints: `current` may differ from
        // them by floating error.
        let outbound = *phase == 0;
        if self.round_trip {
            *phase = u32::from(outbound);
            let (a, b) = if outbound {
                (self.from, self.to)
            } else {
                (self.to, self.from)
            };
            return Leg::travel(a, b, self.speed);
        }
        *phase = 1;
        if outbound {
            Leg::travel(self.from, self.to, self.speed)
        } else {
            Leg::pause(self.to, SimDuration::from_secs(3600))
        }
    }

    fn start(&self) -> Point {
        self.from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trajectory;
    use mtnet_sim::SimTime;

    fn rng() -> RngStream {
        RngStream::derive(1, "commute")
    }

    #[test]
    fn one_way_reaches_and_parks() {
        let m = LinearCommute::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 10.0);
        assert_eq!(m.leg_duration(), SimDuration::from_secs(10));
        let mut traj = Trajectory::new(Box::new(m));
        let mut r = rng();
        assert_eq!(
            traj.position(SimTime::from_secs(5), &mut r),
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            traj.position(SimTime::from_secs(10), &mut r),
            Point::new(100.0, 0.0)
        );
        // Parked long after arrival.
        assert_eq!(
            traj.position(SimTime::from_secs(1000), &mut r),
            Point::new(100.0, 0.0)
        );
        assert_eq!(traj.speed(SimTime::from_secs(1000), &mut r), 0.0);
    }

    #[test]
    fn round_trip_shuttles() {
        let m = LinearCommute::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 10.0).round_trip();
        let mut traj = Trajectory::new(Box::new(m));
        let mut r = rng();
        // Out: t in [0,10); back: t in [10,20); out again...
        assert_eq!(
            traj.position(SimTime::from_secs(5), &mut r),
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            traj.position(SimTime::from_secs(15), &mut r),
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            traj.position(SimTime::from_secs(20), &mut r),
            Point::new(0.0, 0.0)
        );
        assert_eq!(
            traj.position(SimTime::from_secs(25), &mut r),
            Point::new(50.0, 0.0)
        );
        // Always moving at configured speed.
        assert_eq!(traj.speed(SimTime::from_secs(27), &mut r), 10.0);
    }

    #[test]
    fn diagonal_path_geometry() {
        let m = LinearCommute::new(Point::new(0.0, 0.0), Point::new(300.0, 400.0), 50.0);
        assert_eq!(m.leg_duration(), SimDuration::from_secs(10));
        let mut traj = Trajectory::new(Box::new(m));
        let mut r = rng();
        let mid = traj.position(SimTime::from_secs(5), &mut r);
        assert!((mid.x - 150.0).abs() < 1e-6);
        assert!((mid.y - 200.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn speed_validation() {
        LinearCommute::new(Point::ORIGIN, Point::new(1.0, 0.0), -1.0);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn distinct_endpoints_required() {
        LinearCommute::new(Point::ORIGIN, Point::ORIGIN, 1.0);
    }

    #[test]
    fn accessors() {
        let m = LinearCommute::new(Point::ORIGIN, Point::new(10.0, 0.0), 2.5);
        assert_eq!(m.speed(), 2.5);
        assert_eq!(m.start(), Point::ORIGIN);
    }
}
