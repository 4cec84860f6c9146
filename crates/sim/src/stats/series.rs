//! Raw (x, y) series recording for experiment output.
//!
//! Unlike the streaming statistics, a [`Series`] keeps every point — it is
//! meant for the *aggregated* outputs of an experiment (one point per sweep
//! setting), not for per-event samples.

/// An ordered collection of labelled (x, y) points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Series name, used as a column/legend label.
    pub name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value recorded for the smallest x ≥ `x`, if any
    /// (assumes points were pushed in ascending x order).
    #[cfg(test)]
    pub fn y_at_or_after(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px >= x).map(|(_, y)| *y)
    }

    /// Linear interpolation of y at `x`; `None` outside the x range.
    #[cfg(test)]
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let mut prev: Option<(f64, f64)> = None;
        for &(px, py) in &self.points {
            if (px - x).abs() < f64::EPSILON {
                return Some(py);
            }
            if px > x {
                return prev.map(|(qx, qy)| qy + (py - qy) * (x - qx) / (px - qx));
            }
            prev = Some((px, py));
        }
        None
    }

    /// The x at which the series first crosses `threshold` going upward,
    /// linearly interpolated; `None` if it never does.
    #[cfg(test)]
    pub fn first_upward_crossing(&self, threshold: f64) -> Option<f64> {
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if y0 < threshold && y1 >= threshold {
                if (y1 - y0).abs() < f64::EPSILON {
                    return Some(x1);
                }
                return Some(x0 + (threshold - y0) * (x1 - x0) / (y1 - y0));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Series {
        let mut s = Series::new("s");
        s.push(0.0, 0.0);
        s.push(1.0, 10.0);
        s.push(2.0, 40.0);
        s
    }

    #[test]
    fn push_and_read() {
        let s = demo();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.points()[1], (1.0, 10.0));
    }

    #[test]
    fn interpolation_between_points() {
        let s = demo();
        assert_eq!(s.interpolate(0.5), Some(5.0));
        assert_eq!(s.interpolate(1.5), Some(25.0));
        assert_eq!(s.interpolate(1.0), Some(10.0));
        assert_eq!(s.interpolate(3.0), None);
        assert_eq!(Series::new("e").interpolate(1.0), None);
    }

    #[test]
    fn crossing_detection() {
        let s = demo();
        let x = s.first_upward_crossing(20.0).unwrap();
        assert!((x - (1.0 + 10.0 / 30.0)).abs() < 1e-12);
        assert_eq!(s.first_upward_crossing(100.0), None);
    }

    #[test]
    fn y_at_or_after_finds_next_point() {
        let s = demo();
        assert_eq!(s.y_at_or_after(0.5), Some(10.0));
        assert_eq!(s.y_at_or_after(2.0), Some(40.0));
        assert_eq!(s.y_at_or_after(2.5), None);
    }
}
