//! Speed classes used by the tier-selection heuristic.
//!
//! The paper's handoff strategy (§3.2) selects the tier a node should use
//! from three factors, the first being "the speed of MN". These classes
//! mirror the populations the multi-tier literature ([6], [7] in the paper)
//! uses: pedestrians, urban vehicles and highway vehicles.

use std::fmt;

/// Mobility population class with its speed range in m/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedClass {
    /// Walking users: 0.5 – 2 m/s.
    Pedestrian,
    /// City driving: 5 – 15 m/s (18 – 54 km/h).
    UrbanVehicle,
    /// Highway driving: 20 – 35 m/s (72 – 126 km/h).
    Highway,
}

impl SpeedClass {
    /// `(min, max)` speed in m/s.
    pub fn range(self) -> (f64, f64) {
        match self {
            SpeedClass::Pedestrian => (0.5, 2.0),
            SpeedClass::UrbanVehicle => (5.0, 15.0),
            SpeedClass::Highway => (20.0, 35.0),
        }
    }

    /// Midpoint speed in m/s.
    pub fn typical(self) -> f64 {
        let (lo, hi) = self.range();
        (lo + hi) / 2.0
    }

    /// Parses the stable textual label used by scenario-spec files and
    /// sweep axes (the same strings [`SpeedClass`]'s `Display` renders).
    pub fn parse_label(label: &str) -> Option<SpeedClass> {
        match label {
            "pedestrian" => Some(SpeedClass::Pedestrian),
            "urban-vehicle" => Some(SpeedClass::UrbanVehicle),
            "highway" => Some(SpeedClass::Highway),
            _ => None,
        }
    }
}

impl fmt::Display for SpeedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpeedClass::Pedestrian => "pedestrian",
            SpeedClass::UrbanVehicle => "urban-vehicle",
            SpeedClass::Highway => "highway",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_ordered_and_disjoint() {
        let (p_lo, p_hi) = SpeedClass::Pedestrian.range();
        let (u_lo, u_hi) = SpeedClass::UrbanVehicle.range();
        let (h_lo, h_hi) = SpeedClass::Highway.range();
        assert!(p_lo < p_hi && p_hi < u_lo);
        assert!(u_lo < u_hi && u_hi < h_lo);
        assert!(h_lo < h_hi);
    }

    #[test]
    fn typical_inside_range() {
        for class in [
            SpeedClass::Pedestrian,
            SpeedClass::UrbanVehicle,
            SpeedClass::Highway,
        ] {
            let (lo, hi) = class.range();
            let t = class.typical();
            assert!(t > lo && t < hi);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(SpeedClass::Pedestrian.to_string(), "pedestrian");
        assert_eq!(SpeedClass::Highway.to_string(), "highway");
    }
}
