//! Explicit SIMD layer for the stencil hot path.
//!
//! Every shared row primitive — the residual row, full-weighting
//! restriction row, interpolation-correction row, red/black SOR row,
//! and the norm reductions — is written **once** over a portable
//! four-lane `f64` abstraction (the private `Lanes` trait) and
//! instantiated three ways:
//!
//! * a **portable** `[f64; 4]` backend (always compiled — the scalar
//!   fallback for [`SimdMode::Vector`] when no ISA backend applies),
//! * a **`core::arch` AVX2+FMA** backend on `x86_64`, selected by
//!   runtime CPU detection,
//! * a **`core::arch` NEON** backend on `aarch64` (NEON is baseline
//!   there, so no runtime probe).
//!
//! Every build compiles the backends its target has; no cargo feature
//! gates them, and only the running CPU decides which one serves.
//!
//! ## Determinism rules
//!
//! * **Stencil kernels are bitwise identical to their scalar twins.**
//!   Each output element is computed by the same IEEE-754 expression in
//!   the same association order, whether it runs in a scalar loop, a
//!   portable lane, or an AVX2/NEON lane; remainder tails use the
//!   scalar expression verbatim. Rust never contracts `a * b + c` into
//!   a fused multiply-add implicitly, so enabling FMA at the ISA level
//!   does not change results. This is property-tested in this crate.
//! * **Reductions use a fixed-lane deterministic tree.** The norms
//!   accumulate into four lanes (`acc[k] += row[4i + k]`)
//!   and combine as `(acc0 + acc1) + (acc2 + acc3)`, then fold the
//!   0–3 element tail sequentially. *Both* [`SimdMode::Scalar`] and
//!   [`SimdMode::Vector`] run this same algorithm, so norm results are
//!   bitwise identical across modes, backends, and runs — they differ
//!   (by ulps) only from the pre-SIMD sequential fold.
//!
//! Because every mode produces identical bits, [`SimdMode`] changes
//! speed, never answers. `Exec` serves with `Vector` when the CPU has
//! an ISA vector backend, `Scalar` otherwise; `Scalar` is also the
//! oracle the vector = scalar tests compare the vector path against.

/// Which lane path a kernel invocation runs. Carried by `Exec` and
/// threaded to every row primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdMode {
    /// Classic scalar loops (the reference semantics).
    Scalar,
    /// Four-lane kernels: AVX2+FMA or NEON when the CPU has them,
    /// otherwise the portable lane fallback. Bitwise identical to
    /// [`SimdMode::Scalar`] for stencils by construction.
    Vector,
}

impl SimdMode {
    /// Short lower-case name (`scalar` / `vector`) for logs and bench
    /// records.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Vector => "vector",
        }
    }
}

/// Whether the running CPU supports one of the ISA vector backends.
/// `false` means [`SimdMode::Vector`] runs the portable lane fallback
/// (still bitwise correct, rarely faster).
pub(crate) fn vector_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Name of the vector tier this machine dispatches to:
/// `"avx2+fma"`, `"neon"`, or `"portable"`. Recorded in the stamp of
/// every benchmark report.
pub fn vector_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            return "avx2+fma";
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return "neon";
    }
    #[allow(unreachable_code)]
    "portable"
}

// Pinned by `benchmark/src/{main,probes}.rs` (report stamp, two probes); delete with ROADMAP 1(i).
#[doc(hidden)]
pub fn batch_width() -> usize {
    1
}

/// Runtime probe for AVX2 + FMA (both must be present: the vector
/// kernels are compiled with `target_feature(enable = "avx2,fma")`).
/// std caches the CPUID probe behind the macro.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

// ---------------------------------------------------------------------
// The lane abstraction
// ---------------------------------------------------------------------

/// Four `f64` lanes: `splat`/`load`/`store` and lane-wise arithmetic,
/// plus the stride-2 shuffles, interleaves and lane extraction the row
/// kernels and fixed-lane reductions need. Implementations must be
/// bit-transparent: lane `k` of every arithmetic op is exactly the
/// scalar IEEE-754 op on lane `k` of the inputs (no reassociation, no
/// implicit FMA contraction). The width is four by design — the
/// kernels' strides and the deterministic 4-lane reduction tree are
/// pinned to it (widening them would change result bits).
trait Lanes: Copy {
    /// Broadcast.
    fn splat(v: f64) -> Self;
    /// Load 4 consecutive values (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for 4 reads.
    unsafe fn load(p: *const f64) -> Self;
    /// Store 4 consecutive values (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for 4 writes.
    unsafe fn store(self, p: *mut f64);
    /// Lane-wise `+`.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `-`.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `*`.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `/`.
    fn div(self, o: Self) -> Self;
    /// Load 8 consecutive values, split into (evens, odds):
    /// `p[0],p[2],p[4],p[6]` and `p[1],p[3],p[5],p[7]`.
    ///
    /// # Safety
    /// `p` must be valid for 8 reads.
    unsafe fn load2(p: *const f64) -> (Self, Self)
    where
        Self: Sized;
    /// Store lane `k` to `p[2k]`, leaving the odd slots untouched (the
    /// red/black stride-2 write).
    ///
    /// # Safety
    /// `p[0], p[2], p[4], p[6]` must be valid for writes, and no other
    /// thread may concurrently access those slots.
    unsafe fn store_spaced(self, p: *mut f64);
    /// Like [`Lanes::load2`], but the lane order within each returned
    /// vector is implementation-defined (a fixed permutation). All
    /// `load2_perm` results share the same permutation, so lane-wise
    /// arithmetic between them stays element-aligned;
    /// [`Lanes::store_spaced_perm`] inverts the permutation on the way
    /// out. Lets backends skip cross-lane shuffles (e.g. AVX2 drops
    /// two `vpermpd` per load next to [`Lanes::load2`]).
    ///
    /// # Safety
    /// `p` must be valid for 8 reads.
    unsafe fn load2_perm(p: *const f64) -> (Self, Self)
    where
        Self: Sized,
    {
        // SAFETY: forwarded contract.
        unsafe { Self::load2(p) }
    }
    /// Scatter lanes to `p[0], p[2], p[4], p[6]`, inverting the
    /// [`Lanes::load2_perm`] lane order.
    ///
    /// # Safety
    /// Same contract as [`Lanes::store_spaced`].
    unsafe fn store_spaced_perm(self, p: *mut f64)
    where
        Self: Sized,
    {
        // SAFETY: forwarded contract.
        unsafe { self.store_spaced(p) }
    }
    /// Interleave two vectors element-wise:
    /// `(e, o) -> ([e0 o0 e1 o1], [e2 o2 e3 o3])`.
    ///
    /// The in-register inverse of [`Lanes::load2`]: lets kernels that
    /// *accumulate into* interleaved memory (the interpolation rows)
    /// use two plain loads + two plain stores instead of a
    /// deinterleave/reinterleave round trip, halving the shuffle count
    /// per 8 output values.
    fn interleave(even: Self, odd: Self) -> (Self, Self)
    where
        Self: Sized,
    {
        let e = even.to_array();
        let o = odd.to_array();
        (
            Self::from_array([e[0], o[0], e[1], o[1]]),
            Self::from_array([e[2], o[2], e[3], o[3]]),
        )
    }
    /// Build a vector from four lane values (used by the default
    /// [`Lanes::interleave`]; backends override both).
    fn from_array(a: [f64; 4]) -> Self;
    /// Extract the lanes.
    fn to_array(self) -> [f64; 4];
}

/// The portable backend: plain `[f64; 4]` lane arithmetic. Always
/// compiled; serves [`SimdMode::Vector`] when no ISA backend applies
/// and defines the reference semantics the ISA backends must match
/// bit for bit.
#[derive(Clone, Copy)]
struct Portable([f64; 4]);

impl Lanes for Portable {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Portable([v; 4])
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        unsafe { Portable([*p, *p.add(1), *p.add(2), *p.add(3)]) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        unsafe {
            *p = self.0[0];
            *p.add(1) = self.0[1];
            *p.add(2) = self.0[2];
            *p.add(3) = self.0[3];
        }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Portable(std::array::from_fn(|k| self.0[k] + o.0[k]))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Portable(std::array::from_fn(|k| self.0[k] - o.0[k]))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Portable(std::array::from_fn(|k| self.0[k] * o.0[k]))
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        Portable(std::array::from_fn(|k| self.0[k] / o.0[k]))
    }
    #[inline(always)]
    unsafe fn load2(p: *const f64) -> (Self, Self) {
        unsafe {
            (
                Portable([*p, *p.add(2), *p.add(4), *p.add(6)]),
                Portable([*p.add(1), *p.add(3), *p.add(5), *p.add(7)]),
            )
        }
    }
    #[inline(always)]
    unsafe fn store_spaced(self, p: *mut f64) {
        unsafe {
            for k in 0..4 {
                *p.add(2 * k) = self.0[k];
            }
        }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self.0
    }
    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        Portable(a)
    }
}

/// The `core::arch` AVX2+FMA backend. Methods wrap raw intrinsics;
/// they must only *execute* inside the `target_feature(enable =
/// "avx2,fma")` trampolines below, after the runtime probe passed.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx(core::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_set1_pd(v)) }
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_loadu_pd(p)) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        use core::arch::x86_64::*;
        unsafe { _mm256_storeu_pd(p, self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_add_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_sub_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_mul_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_div_pd(self.0, o.0)) }
    }
    #[inline(always)]
    unsafe fn load2(p: *const f64) -> (Self, Self) {
        use core::arch::x86_64::*;
        unsafe {
            let a = _mm256_loadu_pd(p); // s0 s1 s2 s3
            let b = _mm256_loadu_pd(p.add(4)); // s4 s5 s6 s7
            let lo = _mm256_unpacklo_pd(a, b); // s0 s4 s2 s6
            let hi = _mm256_unpackhi_pd(a, b); // s1 s5 s3 s7
            (
                Avx(_mm256_permute4x64_pd::<0b1101_1000>(lo)), // s0 s2 s4 s6
                Avx(_mm256_permute4x64_pd::<0b1101_1000>(hi)), // s1 s3 s5 s7
            )
        }
    }
    #[inline(always)]
    unsafe fn store_spaced(self, p: *mut f64) {
        use core::arch::x86_64::*;
        unsafe {
            // Four 64-bit lane stores (low/high halves of each 128-bit
            // half). Scalar-width stores never touch the odd-color
            // slots, so concurrent readers of the opposite color never
            // race — and they are far cheaper than the
            // permute + maskstore sequence on every current core.
            let lo = _mm256_castpd256_pd128(self.0); // v0 v1
            let hi = _mm256_extractf128_pd::<1>(self.0); // v2 v3
            _mm_storel_pd(p, lo); // p[0] = v0
            _mm_storeh_pd(p.add(2), lo); // p[2] = v1
            _mm_storel_pd(p.add(4), hi); // p[4] = v2
            _mm_storeh_pd(p.add(6), hi); // p[6] = v3
        }
    }
    #[inline(always)]
    unsafe fn load2_perm(p: *const f64) -> (Self, Self) {
        use core::arch::x86_64::*;
        unsafe {
            let a = _mm256_loadu_pd(p); // s0 s1 s2 s3
            let b = _mm256_loadu_pd(p.add(4)); // s4 s5 s6 s7
                                               // Unpack only — evens come out as [e0, e2, e1, e3], odds as
                                               // [o0, o2, o1, o3]; store_spaced_perm undoes the order.
            (Avx(_mm256_unpacklo_pd(a, b)), Avx(_mm256_unpackhi_pd(a, b)))
        }
    }
    #[inline(always)]
    unsafe fn store_spaced_perm(self, p: *mut f64) {
        use core::arch::x86_64::*;
        unsafe {
            // Lane order [v0, v2, v1, v3] (the load2_perm permutation).
            let lo = _mm256_castpd256_pd128(self.0); // v0 v2
            let hi = _mm256_extractf128_pd::<1>(self.0); // v1 v3
            _mm_storel_pd(p, lo); // p[0] = v0
            _mm_storeh_pd(p.add(4), lo); // p[4] = v2
            _mm_storel_pd(p.add(2), hi); // p[2] = v1
            _mm_storeh_pd(p.add(6), hi); // p[6] = v3
        }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        use core::arch::x86_64::*;
        let mut out = [0.0; 4];
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
        out
    }
    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx(_mm256_loadu_pd(a.as_ptr())) }
    }
    #[inline(always)]
    fn interleave(even: Self, odd: Self) -> (Self, Self) {
        use core::arch::x86_64::*;
        unsafe {
            let lo = _mm256_unpacklo_pd(even.0, odd.0); // e0 o0 e2 o2
            let hi = _mm256_unpackhi_pd(even.0, odd.0); // e1 o1 e3 o3
            (
                Avx(_mm256_permute2f128_pd::<0x20>(lo, hi)), // e0 o0 e1 o1
                Avx(_mm256_permute2f128_pd::<0x31>(lo, hi)), // e2 o2 e3 o3
            )
        }
    }
}

/// The `core::arch` NEON backend: a pair of 128-bit registers. NEON is
/// baseline on aarch64, so no runtime probe or trampoline is needed.
#[cfg(target_arch = "aarch64")]
#[derive(Clone, Copy)]
struct Neon(
    core::arch::aarch64::float64x2_t,
    core::arch::aarch64::float64x2_t,
);

#[cfg(target_arch = "aarch64")]
impl Lanes for Neon {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vdupq_n_f64(v), vdupq_n_f64(v)) }
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vld1q_f64(p), vld1q_f64(p.add(2))) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        use core::arch::aarch64::*;
        unsafe {
            vst1q_f64(p, self.0);
            vst1q_f64(p.add(2), self.1);
        }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vaddq_f64(self.0, o.0), vaddq_f64(self.1, o.1)) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vsubq_f64(self.0, o.0), vsubq_f64(self.1, o.1)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vmulq_f64(self.0, o.0), vmulq_f64(self.1, o.1)) }
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vdivq_f64(self.0, o.0), vdivq_f64(self.1, o.1)) }
    }
    #[inline(always)]
    unsafe fn load2(p: *const f64) -> (Self, Self) {
        use core::arch::aarch64::*;
        unsafe {
            let a = vld2q_f64(p); // deinterleaves p[0..4]
            let b = vld2q_f64(p.add(4)); // deinterleaves p[4..8]
            (Neon(a.0, b.0), Neon(a.1, b.1))
        }
    }
    #[inline(always)]
    unsafe fn store_spaced(self, p: *mut f64) {
        use core::arch::aarch64::*;
        unsafe {
            *p = vgetq_lane_f64::<0>(self.0);
            *p.add(2) = vgetq_lane_f64::<1>(self.0);
            *p.add(4) = vgetq_lane_f64::<0>(self.1);
            *p.add(6) = vgetq_lane_f64::<1>(self.1);
        }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        use core::arch::aarch64::*;
        let mut out = [0.0; 4];
        unsafe {
            vst1q_f64(out.as_mut_ptr(), self.0);
            vst1q_f64(out.as_mut_ptr().add(2), self.1);
        }
        out
    }
    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        use core::arch::aarch64::*;
        unsafe { Neon(vld1q_f64(a.as_ptr()), vld1q_f64(a.as_ptr().add(2))) }
    }
    #[inline(always)]
    fn interleave(even: Self, odd: Self) -> (Self, Self) {
        use core::arch::aarch64::*;
        unsafe {
            (
                Neon(vzip1q_f64(even.0, odd.0), vzip2q_f64(even.0, odd.0)),
                Neon(vzip1q_f64(even.1, odd.1), vzip2q_f64(even.1, odd.1)),
            )
        }
    }
}

// ---------------------------------------------------------------------
// The weight seam
// ---------------------------------------------------------------------
//
// The operator families differ only in what multiplies each term of
// the five-point stencil: nothing (Poisson), a constant (the
// anisotropic family) or a per-cell coefficient row (variable
// diffusion). A `Weight` is one of those and a `Five` one row's
// worth; the residual and relaxation bodies below are each written
// once over `Five<W, D>` and monomorphised per operator, so a further
// operator family is a further way to build a `Five`, not a kernel.
// A variable-coefficient residual row takes its diagonal as a
// `FaceSum`: the sum of the four face rows the body already streams,
// added in registers instead of read from a stored diagonal array.

/// The unit stencil weight. Multiplying by it returns the operand:
/// no instruction at run time, and bit for bit the IEEE product
/// `1.0 · x`, so unit-coefficient operators reproduce the Poisson bits.
#[derive(Clone, Copy, Debug)]
pub struct One;

/// A diagonal that is the sum of a row's four face weights,
/// `c[j] = ((w[j] + e[j]) + n[j]) + s[j]`, computed where it is used
/// instead of stored. Each row is indexed like the solution row it
/// weighs. As a [`Five`] diagonal it multiplies the centre value by
/// exactly the IEEE sum a stored `c` array would hold, so results keep
/// their bits; it trades one streamed array for three adds, a saving
/// where the residual is memory-bound (large levels), a cost where the
/// level sits in cache.
#[derive(Clone, Copy, Debug)]
pub struct FaceSum<'a> {
    w: &'a [f64],
    e: &'a [f64],
    n: &'a [f64],
    s: &'a [f64],
}

impl<'a> FaceSum<'a> {
    /// The diagonal of the row whose west/east/north/south face-weight
    /// rows these are.
    pub fn new(w: &'a [f64], e: &'a [f64], n: &'a [f64], s: &'a [f64]) -> Self {
        FaceSum { w, e, n, s }
    }

    /// `((w[j] + e[j]) + n[j]) + s[j]`.
    #[inline(always)]
    pub fn at(self, j: usize) -> f64 {
        ((self.w[j] + self.e[j]) + self.n[j]) + self.s[j]
    }
}

// `Lanes` stays private: the sealed trait below is its only mention
// in a bound the crate exports.
#[allow(private_bounds)]
mod seam {
    use super::{FaceSum, Lanes, One};

    /// One stencil weight: [`One`], an `f64` constant, a per-cell row
    /// `&[f64]` indexed like the solution row it weighs, or a
    /// [`FaceSum`] of four such rows. Sealed:
    /// this module is private, so the trait can bound a public generic
    /// function but cannot be named or implemented outside the crate.
    pub trait Weight: Copy + Send + Sync {
        /// Whether the weight can serve a row of `n` columns.
        fn covers(self, n: usize) -> bool;
        /// `weight[j] · v`.
        fn times1(self, v: f64, j: usize) -> f64;
        /// `weight[j..] · v`, lane-wise. `get` is how the calling
        /// kernel fetches a per-cell weight vector from a pointer to
        /// column `j` of a weight row: a plain load for the residual
        /// row, the even half of a deinterleaving load for the
        /// stride-2 SOR row.
        ///
        /// # Safety
        /// A per-cell weight must be valid for every read `get` makes
        /// from column `j`.
        unsafe fn times<L: Lanes>(self, v: L, j: usize, get: impl Fn(*const f64) -> L) -> L;
    }

    impl Weight for One {
        #[inline(always)]
        fn covers(self, _n: usize) -> bool {
            true
        }
        #[inline(always)]
        fn times1(self, v: f64, _j: usize) -> f64 {
            v
        }
        #[inline(always)]
        unsafe fn times<L: Lanes>(self, v: L, _j: usize, _get: impl Fn(*const f64) -> L) -> L {
            v
        }
    }

    impl Weight for f64 {
        #[inline(always)]
        fn covers(self, _n: usize) -> bool {
            true
        }
        #[inline(always)]
        fn times1(self, v: f64, _j: usize) -> f64 {
            self * v
        }
        #[inline(always)]
        unsafe fn times<L: Lanes>(self, v: L, _j: usize, _get: impl Fn(*const f64) -> L) -> L {
            L::splat(self).mul(v)
        }
    }

    impl Weight for &[f64] {
        #[inline(always)]
        fn covers(self, n: usize) -> bool {
            self.len() == n
        }
        #[inline(always)]
        fn times1(self, v: f64, j: usize) -> f64 {
            self[j] * v
        }
        #[inline(always)]
        unsafe fn times<L: Lanes>(self, v: L, j: usize, get: impl Fn(*const f64) -> L) -> L {
            // SAFETY: forwarded contract.
            get(unsafe { self.as_ptr().add(j) }).mul(v)
        }
    }

    impl Weight for FaceSum<'_> {
        #[inline(always)]
        fn covers(self, n: usize) -> bool {
            [self.w, self.e, self.n, self.s]
                .into_iter()
                .all(|row| row.len() == n)
        }
        #[inline(always)]
        fn times1(self, v: f64, j: usize) -> f64 {
            self.at(j) * v
        }
        #[inline(always)]
        unsafe fn times<L: Lanes>(self, v: L, j: usize, get: impl Fn(*const f64) -> L) -> L {
            // SAFETY: forwarded contract, for each of the four rows.
            unsafe {
                let at = |row: &[f64]| get(row.as_ptr().add(j));
                at(self.w)
                    .add(at(self.e))
                    .add(at(self.n))
                    .add(at(self.s))
                    .mul(v)
            }
        }
    }
}
pub(crate) use seam::Weight;

/// One row's five-point stencil weights, `A u = (d·u − n·N − s·S −
/// w·W − e·E)/h²`. `d` is the diagonal when the row goes to a residual
/// kernel and the diagonal's **reciprocal** when it goes to a
/// relaxation kernel (relaxation multiplies where it would divide).
///
/// Poisson is `Five<One, f64>`, a constant stencil `Five<f64, f64>`,
/// a variable-coefficient row `Five<&[f64], FaceSum>` for the residual
/// and `Five<&[f64], &[f64]>` (the stored reciprocal) for relaxation
/// (each row as long as the solution row; the kernels assert that).
#[derive(Clone, Copy, Debug)]
pub struct Five<W, D> {
    /// West weight (multiplies column `j − 1`).
    pub w: W,
    /// East weight (column `j + 1`).
    pub e: W,
    /// North weight (row `i − 1`).
    pub n: W,
    /// South weight (row `i + 1`).
    pub s: W,
    /// Diagonal (residual) or reciprocal diagonal (relaxation).
    pub d: D,
}

impl Five<One, f64> {
    /// The Poisson row as the residual kernels take it (diagonal 4).
    pub const POISSON: Self = Five {
        w: One,
        e: One,
        n: One,
        s: One,
        d: 4.0,
    };
}

impl<W: Weight, D: Weight> Five<W, D> {
    /// Whether every per-cell weight is exactly `n` columns long.
    #[inline(always)]
    pub(crate) fn covers(self, n: usize) -> bool {
        [self.w, self.e, self.n, self.s]
            .into_iter()
            .all(|w| w.covers(n))
            && self.d.covers(n)
    }

    /// **The** residual expression at column `j`, from the stencil
    /// values `x = [up, left, center, right, down]` and the right-hand
    /// side: `b − ((((d·center − n·up) − s·down) − w·left) − e·right) ·
    /// inv_h2`. Every residual form — scalar or vector —
    /// evaluates this, in this association order.
    #[inline(always)]
    pub(crate) fn residual_at(self, j: usize, x: [f64; 5], b: f64, inv_h2: f64) -> f64 {
        let [up, left, center, right, down] = x;
        let ax = (self.d.times1(center, j)
            - self.n.times1(up, j)
            - self.s.times1(down, j)
            - self.w.times1(left, j)
            - self.e.times1(right, j))
            * inv_h2;
        b - ax
    }

    /// [`Five::residual_at`] on lanes.
    ///
    /// # Safety
    /// As [`Weight::times`], for all five weights.
    #[inline(always)]
    unsafe fn residual_lanes<L: Lanes>(
        self,
        j: usize,
        x: [L; 5],
        b: L,
        inv_h2: L,
        get: impl Fn(*const f64) -> L + Copy,
    ) -> L {
        let [up, left, center, right, down] = x;
        // SAFETY: forwarded contract.
        unsafe {
            let ax = self.d.times(center, j, get);
            let ax = ax.sub(self.n.times(up, j, get));
            let ax = ax.sub(self.s.times(down, j, get));
            let ax = ax.sub(self.w.times(left, j, get));
            let ax = ax.sub(self.e.times(right, j, get));
            b.sub(ax.mul(inv_h2))
        }
    }

    /// **The** SOR update at column `j`, from the stencil values
    /// `x = [up, left, old, right, down]`: `old + ω·(gs − old)` with
    /// `gs = ((((n·up + s·down) + w·left) + e·right) + h²·b) · d` (`d`
    /// the reciprocal diagonal). Every relaxation form evaluates this,
    /// in this association order.
    #[inline(always)]
    pub(crate) fn relaxed_at(self, j: usize, x: [f64; 5], b: f64, h2: f64, omega: f64) -> f64 {
        let [up, left, old, right, down] = x;
        let nb = self.n.times1(up, j)
            + self.s.times1(down, j)
            + self.w.times1(left, j)
            + self.e.times1(right, j);
        let gs = self.d.times1(nb + h2 * b, j);
        old + omega * (gs - old)
    }

    /// [`Five::relaxed_at`] on lanes.
    ///
    /// # Safety
    /// As [`Weight::times`], for all five weights.
    #[inline(always)]
    unsafe fn relaxed_lanes<L: Lanes>(
        self,
        j: usize,
        x: [L; 5],
        b: L,
        h2: L,
        omega: L,
        get: impl Fn(*const f64) -> L + Copy,
    ) -> L {
        let [up, left, old, right, down] = x;
        // SAFETY: forwarded contract.
        unsafe {
            let nb = self.n.times(up, j, get);
            let nb = nb.add(self.s.times(down, j, get));
            let nb = nb.add(self.w.times(left, j, get));
            let nb = nb.add(self.e.times(right, j, get));
            let gs = self.d.times(nb.add(h2.mul(b)), j, get);
            old.add(omega.mul(gs.sub(old)))
        }
    }
}

/// The stencil values `[up, left, center, right, down]` around column
/// `j` of three rows, each fetched by `get`.
///
/// # Safety
/// `get` must be sound at `up + j`, `dn + j` and `mid + j − 1 ..= mid +
/// j + 1`.
#[inline(always)]
pub(crate) unsafe fn star<T>(
    up: *const f64,
    mid: *const f64,
    dn: *const f64,
    j: usize,
    get: impl Fn(*const f64) -> T,
) -> [T; 5] {
    // SAFETY: forwarded contract.
    unsafe {
        let (l, r) = (get(mid.add(j - 1)), get(mid.add(j + 1)));
        [get(up.add(j)), l, get(mid.add(j)), r, get(dn.add(j))]
    }
}

// ---------------------------------------------------------------------
// Generic kernel bodies (one definition per kernel, over any backend)
// ---------------------------------------------------------------------

mod body {
    use super::{star, Five, Lanes, Weight};

    /// Residual row: columns `1..n-1` of `out` get `b − A x` for the
    /// row whose weights are `f` ([`Five::residual_at`] per column).
    /// All rows are untrimmed and `n` long.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) unsafe fn residual_row<L: Lanes, W: Weight, D: Weight>(
        f: Five<W, D>,
        up: *const f64,
        mid: *const f64,
        dn: *const f64,
        brow: *const f64,
        inv_h2: f64,
        out: *mut f64,
        n: usize,
    ) {
        let vinv = L::splat(inv_h2);
        let mut j = 1usize;
        unsafe {
            while j + 4 < n {
                let x = star(up, mid, dn, j, |p| L::load(p));
                f.residual_lanes(j, x, L::load(brow.add(j)), vinv, |p| L::load(p))
                    .store(out.add(j));
                j += 4;
            }
            while j < n - 1 {
                let x = star(up, mid, dn, j, |p| *p);
                *out.add(j) = f.residual_at(j, x, *brow.add(j), inv_h2);
                j += 1;
            }
        }
    }

    /// Full-weighting restriction row: coarse columns `1..nc-1` from
    /// three fine residual rows.
    #[inline(always)]
    pub(super) unsafe fn restrict_row<L: Lanes>(
        r_up: *const f64,
        r_mid: *const f64,
        r_dn: *const f64,
        coarse_row: *mut f64,
        nc: usize,
    ) {
        let four = L::splat(4.0);
        let two = L::splat(2.0);
        let sixteen = L::splat(16.0);
        let mut jc = 1usize;
        unsafe {
            // A vector chunk covers coarse columns jc..jc+4. Its widest
            // read is the load2 at fine column 2jc+1, which reaches fine
            // column 2jc+8; the last fine column is 2(nc-1), so the
            // chunk fits exactly when jc + 5 <= nc.
            while jc + 5 <= nc {
                let fj = 2 * jc;
                // evens of load2(fj-1) = corners-left, odds = centers.
                let (ul, uc) = L::load2(r_up.add(fj - 1));
                let (ml, mc) = L::load2(r_mid.add(fj - 1));
                let (dl, dc) = L::load2(r_dn.add(fj - 1));
                // evens of load2(fj+1) = corners-right.
                let (ur, _) = L::load2(r_up.add(fj + 1));
                let (mr, _) = L::load2(r_mid.add(fj + 1));
                let (dr, _) = L::load2(r_dn.add(fj + 1));
                // edges = up[fj] + dn[fj] + mid[fj-1] + mid[fj+1]
                let edges = uc.add(dc).add(ml).add(mr);
                // corners = up[fj-1] + up[fj+1] + dn[fj-1] + dn[fj+1]
                let corners = ul.add(ur).add(dl).add(dr);
                // (4·center + 2·edges + corners) / 16
                four.mul(mc)
                    .add(two.mul(edges))
                    .add(corners)
                    .div(sixteen)
                    .store(coarse_row.add(jc));
                jc += 4;
            }
            while jc < nc - 1 {
                let fj = 2 * jc;
                let center = *r_mid.add(fj);
                let edges = *r_up.add(fj) + *r_dn.add(fj) + *r_mid.add(fj - 1) + *r_mid.add(fj + 1);
                let corners =
                    *r_up.add(fj - 1) + *r_up.add(fj + 1) + *r_dn.add(fj - 1) + *r_dn.add(fj + 1);
                *coarse_row.add(jc) = (4.0 * center + 2.0 * edges + corners) / 16.0;
                jc += 1;
            }
        }
    }

    /// Coincident-row interpolation correction: `frow[2jc] += c0[jc]`,
    /// `frow[2jc+1] += ½(c0[jc] + c0[jc+1])` for `jc in 1..nc-1` (the
    /// `jc = 0` prologue is handled by the caller).
    ///
    /// The corrections are built in *deinterleaved* registers and then
    /// [`Lanes::interleave`]d once, so the fine row itself moves through
    /// plain loads/stores — no deinterleave/reinterleave round trip on
    /// the accumulator (the shuffle-count saving that closes the
    /// interpolation headroom noted in the roadmap).
    #[inline(always)]
    pub(super) unsafe fn interp_row_even<L: Lanes>(c0: *const f64, frow: *mut f64, nc: usize) {
        let half = L::splat(0.5);
        let mut jc = 1usize;
        unsafe {
            while jc + 5 <= nc {
                let a = L::load(c0.add(jc));
                let b = L::load(c0.add(jc + 1));
                let odd = half.mul(a.add(b));
                let (i0, i1) = L::interleave(a, odd);
                let p = frow.add(2 * jc);
                L::load(p).add(i0).store(p);
                let p = frow.add(2 * jc + 4);
                L::load(p).add(i1).store(p);
                jc += 4;
            }
            while jc < nc - 1 {
                *frow.add(2 * jc) += *c0.add(jc);
                *frow.add(2 * jc + 1) += 0.5 * (*c0.add(jc) + *c0.add(jc + 1));
                jc += 1;
            }
        }
    }

    /// Midpoint-row interpolation correction: `frow[2jc] += ½(c0[jc] +
    /// c1[jc])`, `frow[2jc+1] += ¼(c0[jc] + c0[jc+1] + c1[jc] +
    /// c1[jc+1])` for `jc in 1..nc-1`. Same interleave-once scheme as
    /// [`interp_row_even`].
    #[inline(always)]
    pub(super) unsafe fn interp_row_odd<L: Lanes>(
        c0: *const f64,
        c1: *const f64,
        frow: *mut f64,
        nc: usize,
    ) {
        let half = L::splat(0.5);
        let quarter = L::splat(0.25);
        let mut jc = 1usize;
        unsafe {
            while jc + 5 <= nc {
                let a0 = L::load(c0.add(jc));
                let b0 = L::load(c0.add(jc + 1));
                let a1 = L::load(c1.add(jc));
                let b1 = L::load(c1.add(jc + 1));
                let even = half.mul(a0.add(a1));
                // ((c0[jc] + c0[jc+1]) + c1[jc]) + c1[jc+1], scalar order.
                let odd = quarter.mul(a0.add(b0).add(a1).add(b1));
                let (i0, i1) = L::interleave(even, odd);
                let p = frow.add(2 * jc);
                L::load(p).add(i0).store(p);
                let p = frow.add(2 * jc + 4);
                L::load(p).add(i1).store(p);
                jc += 4;
            }
            while jc < nc - 1 {
                *frow.add(2 * jc) += 0.5 * (*c0.add(jc) + *c1.add(jc));
                *frow.add(2 * jc + 1) +=
                    0.25 * (*c0.add(jc) + *c0.add(jc + 1) + *c1.add(jc) + *c1.add(jc + 1));
                jc += 1;
            }
        }
    }

    /// Red/black SOR row update: color cells `j0, j0+2, ...` of `mid`
    /// get [`Five::relaxed_at`], stride 2 handled by deinterleaved
    /// loads and color-masked stores.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) unsafe fn sor_row<L: Lanes, W: Weight, D: Weight>(
        f: Five<W, D>,
        up: *const f64,
        mid: *mut f64,
        dn: *const f64,
        brow: *const f64,
        n: usize,
        h2: f64,
        omega: f64,
        j0: usize,
    ) {
        let vh2 = L::splat(h2);
        let vomega = L::splat(omega);
        let mut j = j0;
        unsafe {
            // Four color cells at j, j+2, j+4, j+6; the widest read is
            // the deinterleaved load at j+1 (touching j+8). Permuted
            // deinterleave: every input — per-cell weights included —
            // shares one lane permutation, so the arithmetic stays
            // element-aligned and the spaced store inverts the order.
            while j + 9 <= n {
                let evens = |p: *const f64| L::load2_perm(p).0;
                let (u, d, b) = (evens(up.add(j)), evens(dn.add(j)), evens(brow.add(j)));
                let (l, old) = L::load2_perm(mid.add(j - 1)); // evens j-1+2k, odds j+2k
                let x = [u, l, old, evens(mid.add(j + 1)), d];
                f.relaxed_lanes(j, x, b, vh2, vomega, evens)
                    .store_spaced_perm(mid.add(j));
                j += 8;
            }
            while j < n - 1 {
                let x = star(up, mid, dn, j, |p| *p);
                *mid.add(j) = f.relaxed_at(j, x, *brow.add(j), h2, omega);
                j += 2;
            }
        }
    }

    /// Fixed-lane tree combine: `(a0 + a1) + (a2 + a3)`.
    #[inline(always)]
    fn tree(a: [f64; 4]) -> f64 {
        (a[0] + a[1]) + (a[2] + a[3])
    }

    /// Σ v² with the fixed-lane deterministic reduction.
    #[inline(always)]
    pub(super) fn sum_sq<L: Lanes>(row: &[f64]) -> f64 {
        let m = row.len();
        let p = row.as_ptr();
        let mut acc = L::splat(0.0);
        let mut j = 0usize;
        while j + 4 <= m {
            let v = unsafe { L::load(p.add(j)) };
            acc = acc.add(v.mul(v));
            j += 4;
        }
        let mut total = tree(acc.to_array());
        for &v in &row[j..] {
            total += v * v;
        }
        total
    }

    /// Σ (a − b)² with the fixed-lane deterministic reduction.
    #[inline(always)]
    pub(super) fn sum_sq_diff<L: Lanes>(a: &[f64], b: &[f64]) -> f64 {
        let m = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = L::splat(0.0);
        let mut j = 0usize;
        while j + 4 <= m {
            let d = unsafe { L::load(pa.add(j)).sub(L::load(pb.add(j))) };
            acc = acc.add(d.mul(d));
            j += 4;
        }
        let mut total = tree(acc.to_array());
        for (&x, &y) in a[j..m].iter().zip(&b[j..m]) {
            let d = x - y;
            total += d * d;
        }
        total
    }
}

// ---------------------------------------------------------------------
// Dispatch: one entry point per kernel
// ---------------------------------------------------------------------
//
// `dispatch!` expands to: an AVX2+FMA trampoline (x86_64), a NEON
// instantiation (aarch64), and the portable-lane fallback — picked at runtime per call. The trampoline
// carries `#[target_feature]` so LLVM may schedule 256-bit code; the
// runtime probe guards every entry.

macro_rules! dispatch {
    ($(#[$doc:meta])* $vis:vis unsafe fn $name:ident / $avx:ident $(<$($g:ident),*>)? ( $($arg:ident : $ty:ty),* $(,)? )) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx $(<$($g: Weight),*>)? ($($arg: $ty),*) {
            unsafe { body::$name::<Avx $($(, $g)*)?>($($arg),*) }
        }

        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        $vis unsafe fn $name $(<$($g: Weight),*>)? ($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                return unsafe { $avx($($arg),*) };
            }
            #[cfg(target_arch = "aarch64")]
            return unsafe { body::$name::<Neon $($(, $g)*)?>($($arg),*) };
            #[allow(unreachable_code)]
            unsafe { body::$name::<Portable $($(, $g)*)?>($($arg),*) }
        }
    };
    // The reductions. Both modes run the *same* fixed-lane algorithm —
    // `Scalar` pins the portable lane codegen, `Vector` dispatches to
    // the best compiled backend — so the result bits are identical
    // either way; only the instructions differ.
    ($(#[$doc:meta])* $vis:vis fn $name:ident / $avx:ident ( $($arg:ident : $ty:ty),* ) -> $ret:ty) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx($($arg: $ty),*) -> $ret {
            body::$name::<Avx>($($arg),*)
        }

        $(#[$doc])*
        $vis fn $name($($arg: $ty,)* mode: SimdMode) -> $ret {
            if mode == SimdMode::Scalar {
                return body::$name::<Portable>($($arg),*);
            }
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: the probe confirmed AVX2+FMA.
                return unsafe { $avx($($arg),*) };
            }
            #[cfg(target_arch = "aarch64")]
            return body::$name::<Neon>($($arg),*);
            #[allow(unreachable_code)]
            body::$name::<Portable>($($arg),*)
        }
    };
}

dispatch! {
    /// Vector residual row for the row weights `f`: columns `1..n-1` of
    /// `out` from untrimmed rows of `n` values.
    ///
    /// # Safety
    /// All pointers must be valid for `n` reads (`out` for `n` writes),
    /// `out` must not alias the inputs, and `f.covers(n)`.
    pub(crate) unsafe fn residual_row / residual_row_avx2 <W, D>(
        f: Five<W, D>, up: *const f64, mid: *const f64, dn: *const f64,
        brow: *const f64, inv_h2: f64, out: *mut f64, n: usize,
    )
}

dispatch! {
    /// Vector full-weighting restriction row (coarse columns `1..nc-1`).
    ///
    /// # Safety
    /// The three fine rows must be valid for `2(nc-1)+1` reads and
    /// `coarse_row` for `nc` writes, with no aliasing.
    pub(crate) unsafe fn restrict_row / restrict_row_avx2(
        r_up: *const f64, r_mid: *const f64, r_dn: *const f64,
        coarse_row: *mut f64, nc: usize,
    )
}

dispatch! {
    /// Vector coincident-row interpolation correction (columns
    /// `2..2(nc-1)`; the caller handles `frow[1]`).
    ///
    /// # Safety
    /// `c0` must be valid for `nc` reads and `frow` for `2(nc-1)+1`
    /// reads and writes, with no aliasing.
    pub(crate) unsafe fn interp_row_even / interp_row_even_avx2(
        c0: *const f64, frow: *mut f64, nc: usize,
    )
}

dispatch! {
    /// Vector midpoint-row interpolation correction.
    ///
    /// # Safety
    /// `c0`/`c1` must be valid for `nc` reads and `frow` for
    /// `2(nc-1)+1` reads and writes, with no aliasing.
    pub(crate) unsafe fn interp_row_odd / interp_row_odd_avx2(
        c0: *const f64, c1: *const f64, frow: *mut f64, nc: usize,
    )
}

dispatch! {
    /// Vector red/black SOR row update for the row weights `f`,
    /// starting at column `j0` (stride 2).
    ///
    /// # Safety
    /// All rows valid for `n` reads (`mid` for writes), no concurrent
    /// access to the color cells of `mid`, `j0 >= 1`, and
    /// `f.covers(n)`.
    pub(crate) unsafe fn sor_row / sor_row_avx2 <W, D>(
        f: Five<W, D>, up: *const f64, mid: *mut f64, dn: *const f64,
        brow: *const f64, n: usize, h2: f64, omega: f64, j0: usize,
    )
}

dispatch! {
    /// Σ v² over a row (fixed-lane deterministic tree reduction).
    pub(crate) fn sum_sq / sum_sq_avx2(row: &[f64]) -> f64
}

dispatch! {
    /// Σ (a−b)² over two rows (fixed-lane deterministic tree reduction).
    pub(crate) fn sum_sq_diff / sum_sq_diff_avx2(a: &[f64], b: &[f64]) -> f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default build, with no cargo feature, serves the AVX2+FMA tier
    /// on a CPU that has it. Vacuous on other CPUs.
    #[test]
    fn a_featureless_build_serves_the_avx2_tier() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(vector_backend(), "avx2+fma");
            assert_eq!(crate::Exec::seq().simd(), SimdMode::Vector);
        }
    }

    #[test]
    fn backend_name_is_consistent() {
        let name = vector_backend();
        assert!(["avx2+fma", "neon", "portable"].contains(&name));
        assert_eq!(name != "portable", vector_available());
    }

    type P = *const f64;
    type ResidualBody<W, D> = unsafe fn(Five<W, D>, P, P, P, P, f64, *mut f64, usize);
    type SorBody<W, R> = unsafe fn(Five<W, R>, P, *mut f64, P, P, usize, f64, f64, usize);
    /// `(backend, residual body, SOR body)`.
    type Backend<W, D, R> = (&'static str, ResidualBody<W, D>, SorBody<W, R>);

    fn bodies<L: Lanes, W: Weight, D: Weight, R: Weight>(name: &'static str) -> Backend<W, D, R> {
        (
            name,
            body::residual_row::<L, W, D>,
            body::sor_row::<L, W, R>,
        )
    }

    /// The residual and SOR bodies of every lane backend this build
    /// and host have (the AVX ones through their trampolines).
    fn backends<W: Weight, D: Weight, R: Weight>() -> Vec<Backend<W, D, R>> {
        #[cfg(target_arch = "x86_64")]
        let native = avx2_available().then_some((
            "avx2",
            residual_row_avx2::<W, D> as ResidualBody<W, D>,
            sor_row_avx2::<W, R> as SorBody<W, R>,
        ));
        #[cfg(target_arch = "aarch64")]
        let native = Some(bodies::<Neon, W, D, R>("neon"));
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let native = None;
        std::iter::once(bodies::<Portable, W, D, R>("portable"))
            .chain(native)
            .collect()
    }

    /// On every backend, the residual body (weights `residual`) and the
    /// SOR body (the same with `inv_d` as `d`) equal the scalar form,
    /// bit for bit.
    fn check_bodies<W: Weight, D: Weight, R: Weight>(n: usize, residual: Five<W, D>, inv_d: R) {
        let Five {
            w, e, n: north, s, ..
        } = residual;
        let relax = Five {
            w,
            e,
            n: north,
            s,
            d: inv_d,
        };
        let (inv_h2, omega, scalar) = ((n as f64 - 1.0).powi(2), 1.15, SimdMode::Scalar);
        let h2 = 1.0 / inv_h2;
        let row = |s: usize| -> Vec<f64> {
            let value = |j| ((j * 31 + s * 13) % 101) as f64 / 9.0 - 5.0;
            (0..n).map(value).collect()
        };
        let (up, mid, dn, brow) = (row(1), row(2), row(3), row(4));
        let (u, d, b) = (up.as_ptr(), dn.as_ptr(), brow.as_ptr());
        for (name, residual_body, sor_body) in backends::<W, D, R>() {
            let mut got = vec![0.0; n];
            // SAFETY: every row holds `n` values and the weights cover
            // `n` columns; the AVX entries are behind their probes.
            unsafe { residual_body(residual, u, mid.as_ptr(), d, b, inv_h2, got.as_mut_ptr(), n) };
            let mut want = vec![0.0; n];
            residual.residual_row_into(&up, &mid, &dn, &brow, inv_h2, &mut want, scalar);
            for j in 1..n - 1 {
                let (got, want) = (got[j].to_bits(), want[j].to_bits());
                assert_eq!(got, want, "residual {name} n={n} j={j}");
            }

            for j0 in [1usize, 2] {
                let (mut got, mut want) = (mid.clone(), mid.clone());
                // SAFETY: as above; nothing else touches `got` or `want`.
                unsafe {
                    sor_body(relax, u, got.as_mut_ptr(), d, b, n, h2, omega, j0);
                    relax.sor_row_update(u, want.as_mut_ptr(), d, b, n, h2, omega, j0, scalar);
                }
                for j in 0..n {
                    let (got, want) = (got[j].to_bits(), want[j].to_bits());
                    assert_eq!(got, want, "sor {name} n={n} j0={j0} j={j}");
                }
            }
        }
    }

    /// The one residual body and the one SOR body, instantiated for
    /// each weight kind (the per-cell rows with a stored and with a
    /// [`FaceSum`] diagonal) on every lane backend, against the scalar
    /// form. Sizes cover every tail of the 4-column residual chunk and
    /// the 8-column SOR chunk.
    #[test]
    fn every_backend_and_weight_matches_the_scalar_form() {
        for n in [3usize, 4, 5, 6, 7, 8, 9, 10, 11, 13, 17, 18, 19, 31] {
            check_bodies(n, Five::POISSON, 0.25);
            let (w, e, north, s) = (0.7, 1.3, 0.9, 1.1);
            check_bodies(
                n,
                Five {
                    w,
                    e,
                    n: north,
                    s,
                    d: 4.0,
                },
                0.25,
            );
            let row = |s: usize| -> Vec<f64> {
                let value = |j| 0.5 + ((j * 7 + s * 3) % 11) as f64 / 4.0;
                (0..n).map(value).collect()
            };
            let rows = [row(0), row(1), row(2), row(3), row(4), row(5)];
            let [w, e, north, s, d, inv_d] = rows.each_ref().map(|r| &r[..]);
            check_bodies(
                n,
                Five {
                    w,
                    e,
                    n: north,
                    s,
                    d,
                },
                inv_d,
            );
            check_bodies(
                n,
                Five {
                    w,
                    e,
                    n: north,
                    s,
                    d: FaceSum::new(w, e, north, s),
                },
                inv_d,
            );
        }
    }

    #[test]
    fn reductions_match_fixed_lane_reference() {
        // The dispatched reduction must equal the portable fixed-lane
        // algorithm bit for bit, for every tail length 0..=3.
        for m in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 30, 33] {
            let a: Vec<f64> = (0..m)
                .map(|i| ((i * 37 + 11) % 17) as f64 / 3.0 - 2.0)
                .collect();
            let b: Vec<f64> = (0..m)
                .map(|i| ((i * 13 + 5) % 23) as f64 / 7.0 - 1.0)
                .collect();
            for mode in [SimdMode::Scalar, SimdMode::Vector] {
                assert_eq!(
                    sum_sq(&a, mode).to_bits(),
                    body::sum_sq::<Portable>(&a).to_bits(),
                    "sum_sq m={m} {mode:?}"
                );
                assert_eq!(
                    sum_sq_diff(&a, &b, mode).to_bits(),
                    body::sum_sq_diff::<Portable>(&a, &b).to_bits(),
                    "sum_sq_diff m={m} {mode:?}"
                );
            }
        }
    }
}
