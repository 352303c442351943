//! Planar geometry for floorplans and grid discretisation.
//!
//! All coordinates are in meters (see [`crate::units::Meters`] for the
//! millimeter constructors floorplans usually prefer). The origin is the
//! lower-left corner of the die; `x` grows rightwards, `y` upwards.

use crate::units::Meters;

/// A point on the die surface.
///
/// # Examples
///
/// ```
/// use simkit::{Point, units::Meters};
///
/// let a = Point::from_mm(0.0, 0.0);
/// let b = Point::from_mm(3.0, 4.0);
/// assert!((a.distance(b).as_mm() - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Meters,
    /// Vertical coordinate.
    pub y: Meters,
}

impl Point {
    /// Creates a point from meter coordinates.
    pub const fn new(x: Meters, y: Meters) -> Self {
        Point { x, y }
    }

    /// Creates a point from millimeter coordinates.
    pub fn from_mm(x_mm: f64, y_mm: f64) -> Self {
        Point {
            x: Meters::from_mm(x_mm),
            y: Meters::from_mm(y_mm),
        }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> Meters {
        let dx = self.x.get() - other.x.get();
        let dy = self.y.get() - other.y.get();
        Meters::new(dx.hypot(dy))
    }

    /// Manhattan (L1) distance to another point.
    ///
    /// Power-grid current flows along orthogonal rails, so the effective
    /// electrical distance between a regulator and its load is closer to
    /// L1 than to Euclidean distance.
    pub fn manhattan_distance(self, other: Point) -> Meters {
        let dx = (self.x.get() - other.x.get()).abs();
        let dy = (self.y.get() - other.y.get()).abs();
        Meters::new(dx + dy)
    }
}

/// An axis-aligned rectangle, defined by its lower-left corner and size.
///
/// # Examples
///
/// ```
/// use simkit::Rect;
///
/// let r = Rect::from_mm(0.0, 0.0, 10.0, 5.0);
/// assert!((r.area_mm2() - 50.0).abs() < 1e-9);
/// assert!(r.contains(simkit::Point::from_mm(5.0, 2.5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left corner.
    pub origin: Point,
    /// Horizontal extent.
    pub width: Meters,
    /// Vertical extent.
    pub height: Meters,
}

impl Rect {
    /// Creates a rectangle from meter dimensions.
    pub const fn new(origin: Point, width: Meters, height: Meters) -> Self {
        Rect {
            origin,
            width,
            height,
        }
    }

    /// Creates a rectangle from millimeter coordinates
    /// `(x, y, width, height)`.
    pub fn from_mm(x_mm: f64, y_mm: f64, w_mm: f64, h_mm: f64) -> Self {
        Rect {
            origin: Point::from_mm(x_mm, y_mm),
            width: Meters::from_mm(w_mm),
            height: Meters::from_mm(h_mm),
        }
    }

    /// The x coordinate of the right edge.
    pub fn right(&self) -> Meters {
        self.origin.x + self.width
    }

    /// The y coordinate of the top edge.
    pub fn top(&self) -> Meters {
        self.origin.y + self.height
    }

    /// Geometric center.
    pub fn center(&self) -> Point {
        Point {
            x: self.origin.x + self.width / 2.0,
            y: self.origin.y + self.height / 2.0,
        }
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width.get() * self.height.get()
    }

    /// Area in square millimeters (the unit the paper reports).
    pub fn area_mm2(&self) -> f64 {
        self.width.as_mm() * self.height.as_mm()
    }

    /// Whether the point lies inside the rectangle (edges inclusive on the
    /// lower-left, exclusive on the upper-right, so adjacent tiles never
    /// both claim a shared boundary point).
    pub fn contains(&self, p: Point) -> bool {
        p.x.get() >= self.origin.x.get()
            && p.x.get() < self.right().get()
            && p.y.get() >= self.origin.y.get()
            && p.y.get() < self.top().get()
    }

    /// Area of overlap with another rectangle, in square meters.
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let x_overlap = (self.right().get().min(other.right().get())
            - self.origin.x.get().max(other.origin.x.get()))
        .max(0.0);
        let y_overlap = (self.top().get().min(other.top().get())
            - self.origin.y.get().max(other.origin.y.get()))
        .max(0.0);
        x_overlap * y_overlap
    }

    /// Whether the two rectangles overlap with non-zero area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersection_area(other) > 0.0
    }

    /// Tile `(i, j)` of this rectangle's `nx × ny` uniform grid of tiles,
    /// counted row-major from the lower-left. `nx` and `ny` must be
    /// positive: a zero count gives an unbounded tile.
    pub fn tile(&self, nx: usize, ny: usize, i: usize, j: usize) -> Rect {
        let tw = self.width / nx as f64;
        let th = self.height / ny as f64;
        Rect {
            origin: Point {
                x: self.origin.x + tw * i as f64,
                y: self.origin.y + th * j as f64,
            },
            width: tw,
            height: th,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_euclidean_and_manhattan() {
        let a = Point::from_mm(1.0, 1.0);
        let b = Point::from_mm(4.0, 5.0);
        assert!((a.distance(b).as_mm() - 5.0).abs() < 1e-9);
        assert!((a.manhattan_distance(b).as_mm() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn center_and_edges() {
        let r = Rect::from_mm(2.0, 4.0, 10.0, 6.0);
        let c = r.center();
        assert!((c.x.as_mm() - 7.0).abs() < 1e-9);
        assert!((c.y.as_mm() - 7.0).abs() < 1e-9);
        assert!((r.right().as_mm() - 12.0).abs() < 1e-9);
        assert!((r.top().as_mm() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn containment_is_half_open() {
        let r = Rect::from_mm(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(Point::from_mm(0.0, 0.0)));
        assert!(!r.contains(Point::from_mm(1.0, 1.0)));
        assert!(r.contains(Point::from_mm(0.999, 0.999)));
    }

    #[test]
    fn intersection_area_partial_overlap() {
        let a = Rect::from_mm(0.0, 0.0, 4.0, 4.0);
        let b = Rect::from_mm(2.0, 2.0, 4.0, 4.0);
        let overlap_mm2 = a.intersection_area(&b) * 1e6;
        assert!((overlap_mm2 - 4.0).abs() < 1e-9);
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersection_area_disjoint_is_zero() {
        let a = Rect::from_mm(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_mm(2.0, 2.0, 1.0, 1.0);
        assert_eq!(a.intersection_area(&b), 0.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn tiles_cover_parent_exactly() {
        let r = Rect::from_mm(0.0, 0.0, 8.0, 4.0);
        let tiles: Vec<Rect> = (0..2)
            .flat_map(|j| (0..4).map(move |i| r.tile(4, 2, i, j)))
            .collect();
        let total: f64 = tiles.iter().map(Rect::area).sum();
        assert!((total - r.area()).abs() < 1e-12);
        // Row-major from the lower-left: first tile starts at origin.
        assert_eq!(tiles[0].origin, r.origin);
        // Last tile's top-right is the parent's top-right.
        let last = tiles.last().unwrap();
        assert!((last.right().get() - r.right().get()).abs() < 1e-12);
        assert!((last.top().get() - r.top().get()).abs() < 1e-12);
    }
}
