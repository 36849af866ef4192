//! The random-waypoint model.

use crate::geometry::{Point, Rect};
use crate::model::{Leg, MobilityModel};
use crate::speed::SpeedClass;
use mtnet_sim::{RngStream, SimDuration};

/// Classic random waypoint: pick a uniform destination in the area, travel
/// at a uniform speed from the class range, optionally pause, repeat.
///
/// The walker's phase word is the pause toggle: set by a travel leg, so
/// the next leg pauses when the model has a pause.
///
/// ```
/// use mtnet_mobility::{RandomWaypoint, Rect, SpeedClass, Trajectory};
/// use mtnet_sim::{RngStream, SimTime};
///
/// let model = RandomWaypoint::new(Rect::square(1000.0), SpeedClass::Pedestrian);
/// let mut traj = Trajectory::new(Box::new(model));
/// let mut rng = RngStream::derive(7, "mn0");
/// let p = traj.position(SimTime::from_secs(300), &mut rng);
/// assert!(Rect::square(1000.0).contains(p));
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    area: Rect,
    speed_range: (f64, f64),
    pause: SimDuration,
    start: Point,
}

impl RandomWaypoint {
    /// Creates a model over `area` with speeds from `class` and no pauses,
    /// starting at the area center.
    pub fn new(area: Rect, class: SpeedClass) -> Self {
        RandomWaypoint {
            area,
            speed_range: class.range(),
            pause: SimDuration::ZERO,
            start: area.center(),
        }
    }

    /// Sets the pause time between legs.
    pub fn with_pause(mut self, pause: SimDuration) -> Self {
        self.pause = pause;
        self
    }

    /// Sets an explicit speed range in m/s, overriding the class range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min <= max`.
    pub fn with_speed_range(mut self, min: f64, max: f64) -> Self {
        assert!(min > 0.0 && min <= max, "invalid speed range");
        self.speed_range = (min, max);
        self
    }

    /// Sets the start position (clamped into the area).
    pub fn with_start(mut self, start: Point) -> Self {
        self.start = self.area.clamp(start);
        self
    }

    /// The movement area.
    pub fn area(&self) -> Rect {
        self.area
    }
}

impl MobilityModel for RandomWaypoint {
    fn next_leg(&self, current: Point, phase: &mut u32, rng: &mut RngStream) -> Leg {
        if *phase != 0 && !self.pause.is_zero() {
            *phase = 0;
            return Leg::pause(current, self.pause);
        }
        *phase = 1;
        // Re-draw until destination differs measurably from current so that
        // Leg::travel always has a positive length.
        let mut dest = current;
        for _ in 0..16 {
            dest = Point::new(
                rng.uniform(self.area.min.x, self.area.max.x),
                rng.uniform(self.area.min.y, self.area.max.y),
            );
            if dest.distance(current) > 1.0 {
                break;
            }
        }
        if dest.distance(current) <= 1.0 {
            return Leg::pause(current, SimDuration::from_secs(1));
        }
        let speed = rng.uniform(self.speed_range.0, self.speed_range.1);
        Leg::travel(current, dest, speed)
    }

    fn start(&self) -> Point {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trajectory;
    use mtnet_sim::SimTime;

    #[test]
    fn stays_inside_area() {
        let area = Rect::square(500.0);
        let model = RandomWaypoint::new(area, SpeedClass::UrbanVehicle);
        let mut traj = Trajectory::new(Box::new(model));
        let mut r = RngStream::derive(3, "rwp");
        for secs in (0..600).step_by(7) {
            let p = traj.position(SimTime::from_secs(secs), &mut r);
            assert!(area.contains(p), "escaped area at t={secs}: {p}");
        }
    }

    #[test]
    fn speeds_inside_class_range() {
        let model = RandomWaypoint::new(Rect::square(1000.0), SpeedClass::Highway);
        let mut traj = Trajectory::new(Box::new(model));
        let mut r = RngStream::derive(4, "rwp2");
        let (lo, hi) = SpeedClass::Highway.range();
        let mut moving_samples = 0;
        for secs in (0..1000).step_by(11) {
            let s = traj.speed(SimTime::from_secs(secs), &mut r);
            if s > 0.0 {
                moving_samples += 1;
                assert!((lo..=hi).contains(&s), "speed {s} outside [{lo},{hi}]");
            }
        }
        assert!(moving_samples > 10, "node should move most of the time");
    }

    #[test]
    fn pause_legs_alternate() {
        let model = RandomWaypoint::new(Rect::square(100.0), SpeedClass::Pedestrian)
            .with_pause(SimDuration::from_secs(30));
        let (mut phase, mut r) = (0, RngStream::derive(5, "rwp3"));
        let l1 = model.next_leg(Point::ORIGIN, &mut phase, &mut r);
        let l2 = model.next_leg(l1.to, &mut phase, &mut r);
        assert!(l1.speed > 0.0, "first leg travels");
        assert_eq!(l2.speed, 0.0, "second leg pauses");
        assert_eq!(l2.duration, SimDuration::from_secs(30));
    }

    #[test]
    fn deterministic_given_stream() {
        let mk = || {
            let model = RandomWaypoint::new(Rect::square(800.0), SpeedClass::UrbanVehicle);
            let mut traj = Trajectory::new(Box::new(model));
            let mut r = RngStream::derive(9, "det");
            traj.position(SimTime::from_secs(500), &mut r)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn with_start_clamps() {
        let model = RandomWaypoint::new(Rect::square(100.0), SpeedClass::Pedestrian)
            .with_start(Point::new(-50.0, 50.0));
        assert_eq!(model.start(), Point::new(0.0, 50.0));
    }

    #[test]
    #[should_panic(expected = "invalid speed range")]
    fn bad_speed_range_rejected() {
        RandomWaypoint::new(Rect::square(10.0), SpeedClass::Pedestrian).with_speed_range(5.0, 1.0);
    }

    #[test]
    fn area_accessor() {
        let area = Rect::square(42.0);
        assert_eq!(
            RandomWaypoint::new(area, SpeedClass::Pedestrian).area(),
            area
        );
    }
}
