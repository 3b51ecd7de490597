// Fixture: the tier trait's impl methods without `#[target_feature]`
// fire at every intrinsic call, inlined or not.

pub trait Tier {
    type I: Copy;

    /// `x` in every lane. Safety: the host runs the tier.
    unsafe fn splat(x: i32) -> Self::I;
    /// Lane-wise `a + b`. Safety: the host runs the tier.
    unsafe fn add(a: Self::I, b: Self::I) -> Self::I;
}

pub struct Sse2;

impl Tier for Sse2 {
    type I = __m128i;

    /// Safety: [`Tier`].
    #[inline]
    unsafe fn splat(x: i32) -> __m128i {
        _mm_set1_epi32(x) //~ intrinsics-gating
    }

    /// Safety: [`Tier`].
    #[inline(always)]
    unsafe fn add(a: __m128i, b: __m128i) -> __m128i {
        _mm_add_epi32(a, b) //~ intrinsics-gating
    }
}
