//! Shapes and row-major index arithmetic.

use std::fmt;

/// The dimensions of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of extents. The last axis is the fastest
/// varying one (row-major / C order). Rank-0 shapes are permitted and denote
/// scalars with one element.
///
/// # Examples
///
/// ```
/// use apsq_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The extent of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Total number of elements (product of extents; 1 for rank-0).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-index into a linear row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        // The strides, built up from the last axis as the walk goes: no
        // allocation per element access.
        let (mut off, mut stride) = (0usize, 1usize);
        for (axis, (&i, &extent)) in index.iter().zip(&self.0).enumerate().rev() {
            assert!(
                i < extent,
                "index {i} out of bounds for axis {axis} with extent {extent}"
            );
            off += i * stride;
            stride *= extent;
        }
        off
    }

    /// Whether the two shapes can be used in an elementwise binary operation.
    ///
    /// This library deliberately supports only exact-shape elementwise ops
    /// plus the common row-broadcast (`[M, N] op [N]`), which covers every
    /// use in the APSQ reproduction without the complexity of full NumPy
    /// broadcasting.
    pub fn elementwise_compatible(&self, other: &Shape) -> bool {
        self == other || self.row_broadcast_compatible(other)
    }

    /// Whether `other` is a vector that broadcasts across the rows of `self`
    /// (i.e. `other.rank() == 1` and its extent equals our last axis).
    pub fn row_broadcast_compatible(&self, other: &Shape) -> bool {
        other.rank() == 1 && self.rank() >= 1 && other.0[0] == *self.0.last().unwrap()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.strides().is_empty());
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::from([3, 5]);
        let mut seen = [false; 15];
        for i in 0..3 {
            for j in 0..5 {
                let off = s.offset(&[i, j]);
                assert!(!seen[off]);
                seen[off] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds() {
        Shape::from([2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn row_broadcast() {
        let m = Shape::from([4, 7]);
        let v = Shape::from([7]);
        assert!(m.elementwise_compatible(&v));
        assert!(!m.elementwise_compatible(&Shape::from([4])));
    }

    #[test]
    fn display() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2x3]");
    }
}
