//! Planar geometry for the propagation simulator.
//!
//! The testbed is modeled in 2-D (the paper's evaluation geometry is a
//! single office floor; antenna height differences fold into path lengths).
//! This module provides points/vectors, line segments for walls, mirror
//! reflection (the image method's core operation), and segment
//! intersection tests for occlusion checks.

/// A 2-D point (also used as a vector), in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn dist(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Vector addition.
    // Named methods (not `ops` traits) keep call sites chainable without
    // importing `std::ops::Add`/`Sub` everywhere the geometry is used.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Point) -> Point {
        Point::new(self.x + other.x, self.y + other.y)
    }

    /// Vector subtraction (`self - other`).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Point) -> Point {
        Point::new(self.x - other.x, self.y - other.y)
    }

    /// Scalar multiplication.
    pub fn scale(self, k: f64) -> Point {
        Point::new(self.x * k, self.y * k)
    }

    /// Dot product.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product (signed area measure).
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm when treated as a vector.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Unit vector in the same direction. Returns the zero vector for a
    /// zero-length input.
    pub fn normalized(self) -> Point {
        let n = self.norm();
        if n == 0.0 {
            Point::default()
        } else {
            self.scale(1.0 / n)
        }
    }

    /// Midpoint with another point.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation toward `other`: `t = 0` is `self`, `t = 1` is
    /// `other`. `t` is not clamped, so values outside `[0, 1]`
    /// extrapolate along the line — handy for straight-line walker
    /// trajectories in scenarios.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self.add(other.sub(self).scale(t))
    }

    /// Whether both coordinates are finite (neither NaN nor infinite).
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// A line segment between two points — a wall face or reflector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// One endpoint.
    pub a: Point,
    /// The other endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Mirrors `p` across the infinite line through this segment.
    ///
    /// This is the image-method primitive: a first-order reflection off a
    /// wall is equivalent to a direct path from the *mirror image* of the
    /// source.
    pub fn mirror(&self, p: Point) -> Point {
        let d = self.b.sub(self.a);
        let n = d.norm();
        if n == 0.0 {
            return p;
        }
        let u = d.scale(1.0 / n);
        let ap = p.sub(self.a);
        let proj = u.scale(ap.dot(u));
        let foot = self.a.add(proj);
        // p' = 2 * foot - p
        foot.scale(2.0).sub(p)
    }

    /// Intersection of this segment with segment `other`, if any.
    ///
    /// Returns the intersection point for *proper* crossings (including
    /// endpoint touches). Collinear overlaps return `None` — a grazing ray
    /// along a wall face neither reflects nor is blocked in our model.
    pub fn intersect(&self, other: &Segment) -> Option<Point> {
        let r = self.b.sub(self.a);
        let s = other.b.sub(other.a);
        let denom = r.cross(s);
        if denom.abs() < 1e-15 {
            return None; // parallel or collinear
        }
        let qp = other.a.sub(self.a);
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        if (-1e-12..=1.0 + 1e-12).contains(&t) && (-1e-12..=1.0 + 1e-12).contains(&u) {
            Some(self.a.add(r.scale(t)))
        } else {
            None
        }
    }

    /// Whether the open segment `p -> q` crosses this wall, excluding
    /// touches within `eps` of either endpoint of the path (a ray leaving a
    /// reflection point must not be counted as blocked by the very wall it
    /// reflects off).
    pub fn blocks(&self, p: Point, q: Point, eps: f64) -> bool {
        match self.intersect(&Segment::new(p, q)) {
            None => false,
            Some(x) => x.dist(p) > eps && x.dist(q) > eps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_pythagoras() {
        assert!((Point::new(0.0, 0.0).dist(Point::new(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn vector_algebra() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 0.5);
        assert_eq!(a.add(b), Point::new(-2.0, 2.5));
        assert_eq!(a.sub(b), Point::new(4.0, 1.5));
        assert!((a.dot(b) + 2.0).abs() < 1e-12);
        assert!((a.cross(b) - (1.0 * 0.5 - 2.0 * -3.0)).abs() < 1e-12);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert_eq!(Point::default().normalized(), Point::default());
    }

    #[test]
    fn lerp_interpolates_and_extrapolates() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(5.0, -2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), a.midpoint(b));
        assert_eq!(a.lerp(b, 2.0), Point::new(9.0, -6.0));
    }

    #[test]
    fn mirror_across_x_axis() {
        let wall = Segment::new(Point::new(-10.0, 0.0), Point::new(10.0, 0.0));
        let img = wall.mirror(Point::new(2.0, 3.0));
        assert!((img.x - 2.0).abs() < 1e-12);
        assert!((img.y + 3.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_is_involution() {
        let wall = Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 5.0));
        let p = Point::new(4.0, -2.0);
        let back = wall.mirror(wall.mirror(p));
        assert!(back.dist(p) < 1e-12);
    }

    #[test]
    fn mirror_preserves_distance_to_wall_line() {
        let wall = Segment::new(Point::new(1.0, 1.0), Point::new(4.0, 2.0));
        let p = Point::new(2.0, 5.0);
        let img = wall.mirror(p);
        // Both at equal distance from any point on the wall line.
        let m = wall.a.midpoint(wall.b);
        assert!((m.dist(p) - m.dist(img)).abs() < 1e-9);
    }

    #[test]
    fn segment_intersection_basics() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        let x = s1.intersect(&s2).unwrap();
        assert!(x.dist(Point::new(1.0, 1.0)) < 1e-12);

        // Disjoint.
        let s3 = Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 5.0));
        assert!(s1.intersect(&s3).is_none());

        // Parallel.
        let s4 = Segment::new(Point::new(0.0, 1.0), Point::new(2.0, 3.0));
        assert!(s1.intersect(&s4).is_none());
    }

    #[test]
    fn blocking_excludes_path_endpoints() {
        let wall = Segment::new(Point::new(0.0, -1.0), Point::new(0.0, 1.0));
        // Path crossing the wall in the middle is blocked.
        assert!(wall.blocks(Point::new(-1.0, 0.0), Point::new(1.0, 0.0), 1e-9));
        // Path *starting* on the wall is not blocked by it.
        assert!(!wall.blocks(Point::new(0.0, 0.0), Point::new(1.0, 0.0), 1e-9));
        // Path ending on the wall is not blocked by it.
        assert!(!wall.blocks(Point::new(-1.0, 0.0), Point::new(0.0, 0.5), 1e-9));
    }

    #[test]
    fn reflection_path_length_equals_image_distance() {
        // Image method invariant: |tx -> wall -> rx| == |tx_image -> rx|.
        let wall = Segment::new(Point::new(-5.0, 3.0), Point::new(5.0, 3.0));
        let tx = Point::new(-1.0, 0.0);
        let rx = Point::new(2.0, 1.0);
        let img = wall.mirror(tx);
        // Reflection point: intersection of img->rx with the wall line.
        let hit = wall.intersect(&Segment::new(img, rx)).unwrap();
        let reflected_len = tx.dist(hit) + hit.dist(rx);
        assert!((reflected_len - img.dist(rx)).abs() < 1e-9);
    }
}
