// Fixture: a tier trait whose impl methods are `#[target_feature]
// #[inline] unsafe fn` may call intrinsics; the generic body calls only
// the trait's methods, and each tier's entry point enables its feature.

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
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn splat(x: i32) -> __m128i {
        _mm_set1_epi32(x)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn add(a: __m128i, b: __m128i) -> __m128i {
        _mm_add_epi32(a, b)
    }
}

pub struct Avx2;

impl Tier for Avx2 {
    type I = __m256i;

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(x: i32) -> __m256i {
        _mm256_set1_epi32(x)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }
}

/// The one body of the kernel.
///
/// # Safety
///
/// The host runs `T`.
#[inline(always)]
pub unsafe fn body<T: Tier>(x: i32) -> T::I {
    T::add(T::splat(x), T::splat(1))
}

#[target_feature(enable = "avx2")]
pub fn avx2_entry(x: i32) -> __m256i {
    // SAFETY: this function runs only on a host with AVX2.
    unsafe { body::<Avx2>(x) }
}

pub fn dispatch(x: i32) -> Option<__m256i> {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above.
        Some(unsafe { avx2_entry(x) })
    } else {
        None
    }
}
