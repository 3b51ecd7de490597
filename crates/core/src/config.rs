//! Configuration types for the APSQ algorithm.

use apsq_quant::Bitwidth;
use apsq_tensor::RowFold;
use std::fmt;

/// A validated APSQ group size `gs ≥ 1` (paper Section III-B).
///
/// `gs = 1` applies APSQ at every PSUM tile (eq 10); larger groups apply
/// plain PSUM quantization to `gs − 1` tiles and one APSQ accumulation per
/// group. The hardware RAE supports `gs ∈ 1..=4`; the software model allows
/// any positive size.
///
/// # Examples
///
/// ```
/// use apsq_core::GroupSize;
///
/// assert_eq!(GroupSize::new(3).get(), 3);
/// assert!(GroupSize::try_new(0).is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupSize(usize);

impl GroupSize {
    /// Creates a group size.
    ///
    /// # Panics
    ///
    /// Panics if `gs == 0`.
    pub fn new(gs: usize) -> Self {
        Self::try_new(gs).expect("group size must be at least 1")
    }

    /// Creates a group size, returning `None` for 0.
    pub fn try_new(gs: usize) -> Option<Self> {
        (gs >= 1).then_some(GroupSize(gs))
    }

    /// The group size as a plain integer.
    pub fn get(self) -> usize {
        self.0
    }
}

impl fmt::Display for GroupSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gs={}", self.0)
    }
}

/// Full configuration of an APSQ run: storage bit-width and group size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ApsqConfig {
    /// Bit-width at which additive PSUMs are stored (paper: INT8).
    pub bits: Bitwidth,
    /// Grouping factor (paper: 1..=4).
    pub group_size: GroupSize,
}

impl ApsqConfig {
    /// The paper's headline configuration: INT8 storage.
    pub fn int8(group_size: usize) -> Self {
        ApsqConfig {
            bits: Bitwidth::INT8,
            group_size: GroupSize::new(group_size),
        }
    }

    /// This configuration's self-calibrating Algorithm 1 in K steps of
    /// `k_tile`, as the int8 attention row kernels
    /// ([`apsq_tensor::ExecEngine::qk_row_i8`],
    /// [`apsq_tensor::ExecEngine::pv_row_i8`]) run it: each head's stream
    /// folds as a [`crate::StreamingApsq::calibrating`] stream with this
    /// configuration would: both run the [`apsq_tensor::apsq`] step.
    ///
    /// # Panics
    ///
    /// Panics if `k_tile` is not in `1..=2^16`.
    pub fn row_fold(&self, k_tile: usize) -> RowFold {
        let range = self.bits.signed_range();
        RowFold::new(k_tile, self.group_size.get(), (range.qn, range.qp))
    }
}

impl Default for ApsqConfig {
    fn default() -> Self {
        ApsqConfig::int8(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_validation() {
        assert!(GroupSize::try_new(0).is_none());
        assert_eq!(GroupSize::new(4).get(), 4);
        assert_eq!(GroupSize::new(2).to_string(), "gs=2");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_group_panics() {
        GroupSize::new(0);
    }

    #[test]
    fn default_config_is_paper_operating_point() {
        let c = ApsqConfig::default();
        assert_eq!(c.bits, Bitwidth::INT8);
        assert_eq!(c.group_size.get(), 1);
    }
}
