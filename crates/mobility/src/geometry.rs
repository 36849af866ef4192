//! 2-D geometry in meters.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A position in the plane, in meters.
///
/// ```
/// use mtnet_mobility::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

/// A displacement in the plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).length()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    /// `t` is clamped to `[0, 1]`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl Vec2 {
    /// Creates a vector.
    pub const fn new(x: f64, y: f64) -> Vec2 {
        Vec2 { x, y }
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// An axis-aligned rectangle (movement area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from opposite corners.
    ///
    /// # Panics
    ///
    /// Panics if `max` is not component-wise ≥ `min`.
    pub fn new(min: Point, max: Point) -> Rect {
        assert!(max.x >= min.x && max.y >= min.y, "degenerate rect");
        Rect { min, max }
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_345() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_clamp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
        assert_eq!(a.lerp(b, 2.0), b, "t is clamped");
        assert_eq!(a.lerp(b, -1.0), a, "t is clamped");
    }

    #[test]
    fn vector_ops() {
        let v = Point::new(3.0, 4.0) - Point::new(0.0, 0.0);
        assert_eq!(v.length(), 5.0);
        assert_eq!(Point::new(0.0, 0.0) + v * 2.0, Point::new(6.0, 8.0));
    }

    #[test]
    fn rect_queries() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        assert_eq!(r.center(), Point::new(50.0, 50.0));
        let (edge, outside) = (Point::new(0.0, 100.0), Point::new(-0.1, 50.0));
        assert_eq!(r.clamp(edge), edge, "the boundary is inside");
        assert_ne!(r.clamp(outside), outside);
        assert_eq!(r.clamp(Point::new(-5.0, 200.0)), Point::new(0.0, 100.0));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rect_validation() {
        Rect::new(Point::new(1.0, 1.0), Point::new(0.0, 0.0));
    }

    #[test]
    fn display() {
        assert_eq!(Point::new(1.25, 3.0).to_string(), "(1.2, 3.0)");
    }
}
