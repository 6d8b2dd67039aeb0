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
//! Every row primitive takes row slices and asserts their lengths at
//! entry, in every build: a short row panics. Lane loads and stores
//! take the slice starting at their first element. The only
//! `unsafe` left here is each AVX2 intrinsic call (a trait method cannot
//! carry `#[target_feature]`), the NEON loads and stores (their
//! intrinsics take pointers), and the call into each `#[target_feature]`
//! trampoline behind the runtime probe.
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
///
/// Loads and stores take the slice starting at their first element and
/// panic if it is too short.
trait Lanes: Copy {
    /// Broadcast.
    fn splat(v: f64) -> Self;
    /// Load `s[0..4]`.
    fn load(s: &[f64]) -> Self;
    /// Store to `s[0..4]`.
    fn store(self, s: &mut [f64]);
    /// Lane-wise `+`.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `-`.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `*`.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `/`.
    fn div(self, o: Self) -> Self;
    /// Load `s[0..8]`, split into (evens, odds):
    /// `s[0],s[2],s[4],s[6]` and `s[1],s[3],s[5],s[7]`.
    fn load2(s: &[f64]) -> (Self, Self);
    /// Store lane `k` to `s[2k]`, leaving the odd slots untouched (the
    /// red/black stride-2 write: one colour's cells, never the other's).
    fn store_spaced(self, s: &mut [f64]);
    /// Like [`Lanes::load2`], but the lane order within each returned
    /// vector is implementation-defined (a fixed permutation). All
    /// `load2_perm` results share the same permutation, so lane-wise
    /// arithmetic between them stays element-aligned;
    /// [`Lanes::store_spaced_perm`] inverts the permutation on the way
    /// out. Lets backends skip cross-lane shuffles (e.g. AVX2 drops
    /// two `vpermpd` per load next to [`Lanes::load2`]).
    fn load2_perm(s: &[f64]) -> (Self, Self) {
        Self::load2(s)
    }
    /// Scatter lanes to `s[0], s[2], s[4], s[6]`, inverting the
    /// [`Lanes::load2_perm`] lane order.
    fn store_spaced_perm(self, s: &mut [f64]) {
        self.store_spaced(s)
    }
    /// Interleave two vectors element-wise:
    /// `(e, o) -> ([e0 o0 e1 o1], [e2 o2 e3 o3])`.
    ///
    /// The in-register inverse of [`Lanes::load2`]: lets kernels that
    /// *accumulate into* interleaved memory (the interpolation rows)
    /// use two plain loads + two plain stores instead of a
    /// deinterleave/reinterleave round trip, halving the shuffle count
    /// per 8 output values.
    fn interleave(even: Self, odd: Self) -> (Self, Self) {
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
    fn load(s: &[f64]) -> Self {
        let s = &s[..4];
        Portable([s[0], s[1], s[2], s[3]])
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        s[..4].copy_from_slice(&self.0);
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
    fn load2(s: &[f64]) -> (Self, Self) {
        let s = &s[..8];
        (
            Portable(std::array::from_fn(|k| s[2 * k])),
            Portable(std::array::from_fn(|k| s[2 * k + 1])),
        )
    }
    #[inline(always)]
    fn store_spaced(self, s: &mut [f64]) {
        let s = &mut s[..7];
        for k in 0..4 {
            s[2 * k] = self.0[k];
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

/// The `core::arch` AVX2+FMA backend. Its methods call AVX intrinsics
/// from code without `#[target_feature]`, so each needs one `unsafe`
/// block; they only *execute* inside the `target_feature(enable =
/// "avx2,fma")` trampolines below, after the runtime probe passed.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx(core::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        use core::arch::x86_64::*;
        // SAFETY: runs only behind the AVX2 probe (see `Avx`).
        unsafe { Avx(_mm256_set1_pd(v)) }
    }
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        use core::arch::x86_64::*;
        let s = &s[..4];
        // SAFETY: behind the AVX2 probe; `s` holds the four values read.
        unsafe { Avx(_mm256_loadu_pd(s.as_ptr())) }
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        use core::arch::x86_64::*;
        let s = &mut s[..4];
        // SAFETY: behind the AVX2 probe; `s` holds the four slots written.
        unsafe { _mm256_storeu_pd(s.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        // SAFETY: runs only behind the AVX2 probe (see `Avx`).
        unsafe { Avx(_mm256_add_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        // SAFETY: runs only behind the AVX2 probe (see `Avx`).
        unsafe { Avx(_mm256_sub_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        // SAFETY: runs only behind the AVX2 probe (see `Avx`).
        unsafe { Avx(_mm256_mul_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        // SAFETY: runs only behind the AVX2 probe (see `Avx`).
        unsafe { Avx(_mm256_div_pd(self.0, o.0)) }
    }
    #[inline(always)]
    fn load2(s: &[f64]) -> (Self, Self) {
        use core::arch::x86_64::*;
        let s = &s[..8];
        // SAFETY: behind the AVX2 probe; `s` holds the eight values read.
        unsafe {
            let a = _mm256_loadu_pd(s.as_ptr()); // s0 s1 s2 s3
            let b = _mm256_loadu_pd(s[4..].as_ptr()); // s4 s5 s6 s7
            let lo = _mm256_unpacklo_pd(a, b); // s0 s4 s2 s6
            let hi = _mm256_unpackhi_pd(a, b); // s1 s5 s3 s7
            (
                Avx(_mm256_permute4x64_pd::<0b1101_1000>(lo)), // s0 s2 s4 s6
                Avx(_mm256_permute4x64_pd::<0b1101_1000>(hi)), // s1 s3 s5 s7
            )
        }
    }
    #[inline(always)]
    fn store_spaced(self, s: &mut [f64]) {
        use core::arch::x86_64::*;
        let p = s[..7].as_mut_ptr();
        // SAFETY: behind the AVX2 probe; `p`, `p+2`, `p+4`, `p+6` lie in
        // the seven values checked above. Four 64-bit lane stores (low/
        // high halves of each 128-bit half) write only the even slots,
        // so the odd ones (the other colour) keep their values — and
        // they are far cheaper than the permute + maskstore sequence on
        // every current core.
        unsafe {
            let lo = _mm256_castpd256_pd128(self.0); // v0 v1
            let hi = _mm256_extractf128_pd::<1>(self.0); // v2 v3
            _mm_storel_pd(p, lo); // p[0] = v0
            _mm_storeh_pd(p.add(2), lo); // p[2] = v1
            _mm_storel_pd(p.add(4), hi); // p[4] = v2
            _mm_storeh_pd(p.add(6), hi); // p[6] = v3
        }
    }
    #[inline(always)]
    fn load2_perm(s: &[f64]) -> (Self, Self) {
        use core::arch::x86_64::*;
        let s = &s[..8];
        // SAFETY: behind the AVX2 probe; `s` holds the eight values read.
        // Unpack only — evens come out as [e0, e2, e1, e3], odds as
        // [o0, o2, o1, o3]; store_spaced_perm undoes the order.
        unsafe {
            let a = _mm256_loadu_pd(s.as_ptr()); // s0 s1 s2 s3
            let b = _mm256_loadu_pd(s[4..].as_ptr()); // s4 s5 s6 s7
            (Avx(_mm256_unpacklo_pd(a, b)), Avx(_mm256_unpackhi_pd(a, b)))
        }
    }
    #[inline(always)]
    fn store_spaced_perm(self, s: &mut [f64]) {
        use core::arch::x86_64::*;
        let p = s[..7].as_mut_ptr();
        // SAFETY: as `store_spaced`. Lane order [v0, v2, v1, v3] (the
        // load2_perm permutation).
        unsafe {
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
        let mut out = [0.0; 4];
        self.store(&mut out);
        out
    }
    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        Self::load(&a)
    }
    #[inline(always)]
    fn interleave(even: Self, odd: Self) -> (Self, Self) {
        use core::arch::x86_64::*;
        // SAFETY: runs only behind the AVX2 probe (see `Avx`).
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
/// baseline on aarch64, so no runtime probe or trampoline is needed,
/// and only the intrinsics that take a pointer need `unsafe`.
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
        Neon(vdupq_n_f64(v), vdupq_n_f64(v))
    }
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        use core::arch::aarch64::*;
        let s = &s[..4];
        // SAFETY: `s` holds the four values read.
        unsafe { Neon(vld1q_f64(s.as_ptr()), vld1q_f64(s[2..].as_ptr())) }
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        use core::arch::aarch64::*;
        let s = &mut s[..4];
        // SAFETY: `s` holds the four slots written.
        unsafe {
            vst1q_f64(s.as_mut_ptr(), self.0);
            vst1q_f64(s[2..].as_mut_ptr(), self.1);
        }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        Neon(vaddq_f64(self.0, o.0), vaddq_f64(self.1, o.1))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        Neon(vsubq_f64(self.0, o.0), vsubq_f64(self.1, o.1))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        Neon(vmulq_f64(self.0, o.0), vmulq_f64(self.1, o.1))
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        use core::arch::aarch64::*;
        Neon(vdivq_f64(self.0, o.0), vdivq_f64(self.1, o.1))
    }
    #[inline(always)]
    fn load2(s: &[f64]) -> (Self, Self) {
        use core::arch::aarch64::*;
        let s = &s[..8];
        // SAFETY: `s` holds the eight values read.
        let (a, b) = unsafe { (vld2q_f64(s.as_ptr()), vld2q_f64(s[4..].as_ptr())) };
        // `a` deinterleaves s[0..4], `b` s[4..8].
        (Neon(a.0, b.0), Neon(a.1, b.1))
    }
    #[inline(always)]
    fn store_spaced(self, s: &mut [f64]) {
        let s = &mut s[..7];
        for (k, v) in self.to_array().into_iter().enumerate() {
            s[2 * k] = v;
        }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        use core::arch::aarch64::*;
        [
            vgetq_lane_f64::<0>(self.0),
            vgetq_lane_f64::<1>(self.0),
            vgetq_lane_f64::<0>(self.1),
            vgetq_lane_f64::<1>(self.1),
        ]
    }
    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        Self::load(&a)
    }
    #[inline(always)]
    fn interleave(even: Self, odd: Self) -> (Self, Self) {
        use core::arch::aarch64::*;
        (
            Neon(vzip1q_f64(even.0, odd.0), vzip2q_f64(even.0, odd.0)),
            Neon(vzip1q_f64(even.1, odd.1), vzip2q_f64(even.1, odd.1)),
        )
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
        /// `weight[j..] · v`, lane-wise. `get(row, j)` is how the calling
        /// kernel fetches a per-cell weight vector from column `j` of a
        /// weight row: a plain load for the residual row, the even half
        /// of a deinterleaving load for the stride-2 SOR row.
        fn times<L: Lanes>(self, v: L, j: usize, get: impl Fn(&[f64], usize) -> L) -> L;
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
        fn times<L: Lanes>(self, v: L, _j: usize, _get: impl Fn(&[f64], usize) -> L) -> L {
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
        fn times<L: Lanes>(self, v: L, _j: usize, _get: impl Fn(&[f64], usize) -> L) -> L {
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
        fn times<L: Lanes>(self, v: L, j: usize, get: impl Fn(&[f64], usize) -> L) -> L {
            get(self, j).mul(v)
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
        fn times<L: Lanes>(self, v: L, j: usize, get: impl Fn(&[f64], usize) -> L) -> L {
            get(self.w, j)
                .add(get(self.e, j))
                .add(get(self.n, j))
                .add(get(self.s, j))
                .mul(v)
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

    /// [`Five::residual_at`] on lanes; `get` fetches per-cell weights
    /// as in [`Weight::times`].
    #[inline(always)]
    fn residual_lanes<L: Lanes>(
        self,
        j: usize,
        x: [L; 5],
        b: L,
        inv_h2: L,
        get: impl Fn(&[f64], usize) -> L + Copy,
    ) -> L {
        let [up, left, center, right, down] = x;
        let ax = self.d.times(center, j, get);
        let ax = ax.sub(self.n.times(up, j, get));
        let ax = ax.sub(self.s.times(down, j, get));
        let ax = ax.sub(self.w.times(left, j, get));
        let ax = ax.sub(self.e.times(right, j, get));
        b.sub(ax.mul(inv_h2))
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

    /// [`Five::relaxed_at`] on lanes; `get` fetches per-cell weights as
    /// in [`Weight::times`].
    #[inline(always)]
    fn relaxed_lanes<L: Lanes>(
        self,
        j: usize,
        x: [L; 5],
        b: L,
        h2: L,
        omega: L,
        get: impl Fn(&[f64], usize) -> L + Copy,
    ) -> L {
        let [up, left, old, right, down] = x;
        let nb = self.n.times(up, j, get);
        let nb = nb.add(self.s.times(down, j, get));
        let nb = nb.add(self.w.times(left, j, get));
        let nb = nb.add(self.e.times(right, j, get));
        let gs = self.d.times(nb.add(h2.mul(b)), j, get);
        old.add(omega.mul(gs.sub(old)))
    }
}

// ---------------------------------------------------------------------
// Generic kernel bodies (one definition per kernel, over any backend)
// ---------------------------------------------------------------------
//
// Each body asserts its row lengths once at entry. A vector step reads
// each row as a fixed-size array — a `window` (one bounds check), or,
// where the steps tile the rows, `chunks` zipped together (none) — so
// its loads and stores need no checks of their own. The interpolation
// and restriction tails read the fine rows as two-column cells indexed
// by the coarse column; a tail bounded by `take` stays a short scalar
// loop.

mod body {
    use super::{Five, Lanes, Weight};
    use std::slice::Iter;

    /// `row[from..]` as consecutive `K`-value chunks (a short last
    /// chunk dropped).
    #[inline(always)]
    fn chunks<const K: usize>(row: &[f64], from: usize) -> Iter<'_, [f64; K]> {
        row[from..].as_chunks::<K>().0.iter()
    }

    /// `row[at..at + K]` as an array.
    #[inline(always)]
    fn window<const K: usize>(row: &[f64], at: usize) -> &[f64; K] {
        row[at..at + K].try_into().unwrap()
    }

    /// [`window`], mutably.
    #[inline(always)]
    fn window_mut<const K: usize>(row: &mut [f64], at: usize) -> &mut [f64; K] {
        (&mut row[at..at + K]).try_into().unwrap()
    }

    /// `f[0..4] += lo`, `f[4..8] += hi`.
    #[inline(always)]
    fn add_into<L: Lanes>(f: &mut [f64; 8], lo: L, hi: L) {
        L::load(f).add(lo).store(f);
        let f = &mut f[4..];
        L::load(f).add(hi).store(f);
    }

    /// Residual row: columns `1..n-1` of `out` get `b − A x` for the
    /// row whose weights are `f` ([`Five::residual_at`] per column).
    /// All rows are untrimmed and `n = mid.len()` long.
    #[inline(always)]
    pub(super) fn residual_row<L: Lanes, W: Weight, D: Weight>(
        f: Five<W, D>,
        up: &[f64],
        mid: &[f64],
        dn: &[f64],
        brow: &[f64],
        inv_h2: f64,
        out: &mut [f64],
    ) {
        let n = mid.len();
        assert!(
            up.len() == n && dn.len() == n && brow.len() == n && out.len() == n && f.covers(n),
            "residual row: rows and weights must all be as long as the centre row"
        );
        let vinv = L::splat(inv_h2);
        let load = |row: &[f64], j: usize| L::load(window::<4>(row, j));
        let mut j = 1usize;
        while j + 4 < n {
            let m = window::<6>(mid, j - 1);
            let x = [
                load(up, j),
                L::load(m),
                L::load(&m[1..]),
                L::load(&m[2..]),
                load(dn, j),
            ];
            f.residual_lanes(j, x, load(brow, j), vinv, load)
                .store(window_mut::<4>(out, j));
            j += 4;
        }
        // The vector steps leave at most three columns.
        for j in (j..n - 1).take(3) {
            let x = [up[j], mid[j - 1], mid[j], mid[j + 1], dn[j]];
            out[j] = f.residual_at(j, x, brow[j], inv_h2);
        }
    }

    /// Full-weighting restriction row: coarse columns `1..nc-1` of
    /// `coarse_row` (`nc` long) from three fine residual rows of
    /// `2nc − 1` values.
    #[inline(always)]
    pub(super) fn restrict_row<L: Lanes>(
        r_up: &[f64],
        r_mid: &[f64],
        r_dn: &[f64],
        coarse_row: &mut [f64],
    ) {
        let nc = coarse_row.len();
        let nf = 2 * nc - 1;
        assert!(
            r_up.len() == nf && r_mid.len() == nf && r_dn.len() == nf,
            "restriction row: fine rows must hold 2nc - 1 values"
        );
        let four = L::splat(4.0);
        let two = L::splat(2.0);
        let sixteen = L::splat(16.0);
        let mut jc = 1usize;
        // A vector step covers coarse columns jc..jc+4 from fine columns
        // fj-1..fj+9 (fj = 2jc), which fit while jc + 5 <= nc.
        while jc + 5 <= nc {
            let [up, mid, dn] = [r_up, r_mid, r_dn].map(|row| window::<10>(row, 2 * jc - 1));
            // evens of load2(fj-1) = corners-left, odds = centers.
            let (ul, uc) = L::load2(up);
            let (ml, mc) = L::load2(mid);
            let (dl, dc) = L::load2(dn);
            // evens of load2(fj+1) = corners-right.
            let (ur, _) = L::load2(&up[2..]);
            let (mr, _) = L::load2(&mid[2..]);
            let (dr, _) = L::load2(&dn[2..]);
            // edges = up[fj] + dn[fj] + mid[fj-1] + mid[fj+1]
            let edges = uc.add(dc).add(ml).add(mr);
            // corners = up[fj-1] + up[fj+1] + dn[fj-1] + dn[fj+1]
            let corners = ul.add(ur).add(dl).add(dr);
            // (4·center + 2·edges + corners) / 16
            four.mul(mc)
                .add(two.mul(edges))
                .add(corners)
                .div(sixteen)
                .store(window_mut::<4>(coarse_row, jc));
            jc += 4;
        }
        // Fine columns 2jc-1, 2jc, 2jc+1 as cells of column pairs.
        let [up, mid, dn] = [r_up, r_mid, r_dn].map(|row| row.as_chunks::<2>().0);
        // The vector steps leave at most three columns.
        for jc in (jc..nc - 1).take(3) {
            let at = |row: &[[f64; 2]]| [row[jc - 1][1], row[jc][0], row[jc][1]];
            let ([ul, uc, ur], [ml, center, mr], [dl, dc, dr]) = (at(up), at(mid), at(dn));
            let edges = uc + dc + ml + mr;
            let corners = ul + ur + dl + dr;
            coarse_row[jc] = (4.0 * center + 2.0 * edges + corners) / 16.0;
        }
    }

    /// Coincident-row interpolation correction: `frow[2jc] += c0[jc]`,
    /// `frow[2jc+1] += ½(c0[jc] + c0[jc+1])` for `jc in 1..nc-1`, with
    /// `nc = c0.len()` and `frow` the `2nc − 1` fine values (the
    /// `jc = 0` prologue is handled by the caller).
    ///
    /// The corrections are built in *deinterleaved* registers and then
    /// [`Lanes::interleave`]d once, so the fine row itself moves through
    /// plain loads/stores — no deinterleave/reinterleave round trip on
    /// the accumulator (the shuffle-count saving that closes the
    /// interpolation headroom noted in the roadmap).
    #[inline(always)]
    pub(super) fn interp_row_even<L: Lanes>(c0: &[f64], frow: &mut [f64]) {
        let nc = c0.len();
        assert!(
            frow.len() == 2 * nc - 1,
            "interpolation row: the fine row must hold 2nc - 1 values"
        );
        let half = L::splat(0.5);
        // A step reads c0[jc..jc+5] as two loads and adds into
        // frow[2jc..2jc+8]; the second load bounds it: jc + 5 <= nc.
        let steps = chunks::<4>(c0, 1)
            .zip(chunks::<4>(c0, 2))
            .zip(frow[2..].as_chunks_mut::<8>().0);
        let mut jc = 1usize;
        for ((a, b), fine) in steps {
            let (a, b) = (L::load(a), L::load(b));
            let odd = half.mul(a.add(b));
            let (i0, i1) = L::interleave(a, odd);
            add_into(fine, i0, i1);
            jc += 4;
        }
        let cells = frow.as_chunks_mut::<2>().0;
        // The vector steps leave at most three columns.
        for jc in (jc..nc - 1).take(3) {
            let (a, b) = (c0[jc], c0[jc + 1]);
            let f = &mut cells[jc];
            f[0] += a;
            f[1] += 0.5 * (a + b);
        }
    }

    /// Midpoint-row interpolation correction: `frow[2jc] += ½(c0[jc] +
    /// c1[jc])`, `frow[2jc+1] += ¼(c0[jc] + c0[jc+1] + c1[jc] +
    /// c1[jc+1])` for `jc in 1..nc-1`. Same lengths, steps and
    /// interleave-once scheme as [`interp_row_even`].
    #[inline(always)]
    pub(super) fn interp_row_odd<L: Lanes>(c0: &[f64], c1: &[f64], frow: &mut [f64]) {
        let nc = c0.len();
        assert!(
            c1.len() == nc && frow.len() == 2 * nc - 1,
            "interpolation row: coarse rows must hold nc values, the fine row 2nc - 1"
        );
        let half = L::splat(0.5);
        let quarter = L::splat(0.25);
        let steps = chunks::<4>(c0, 1)
            .zip(chunks::<4>(c0, 2))
            .zip(chunks::<4>(c1, 1))
            .zip(chunks::<4>(c1, 2))
            .zip(frow[2..].as_chunks_mut::<8>().0);
        let mut jc = 1usize;
        for ((((a0, b0), a1), b1), fine) in steps {
            let [a0, b0, a1, b1] = [a0, b0, a1, b1].map(|v| L::load(v));
            let even = half.mul(a0.add(a1));
            // ((c0[jc] + c0[jc+1]) + c1[jc]) + c1[jc+1], scalar order.
            let odd = quarter.mul(a0.add(b0).add(a1).add(b1));
            let (i0, i1) = L::interleave(even, odd);
            add_into(fine, i0, i1);
            jc += 4;
        }
        let cells = frow.as_chunks_mut::<2>().0;
        for jc in (jc..nc - 1).take(3) {
            let f = &mut cells[jc];
            f[0] += 0.5 * (c0[jc] + c1[jc]);
            f[1] += 0.25 * (c0[jc] + c0[jc + 1] + c1[jc] + c1[jc + 1]);
        }
    }

    /// Red/black SOR row update: color cells `j0, j0+2, ...` of `mid`
    /// get [`Five::relaxed_at`], stride 2 handled by deinterleaved
    /// loads and color-masked stores. All rows are `n = mid.len()` long.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn sor_row<L: Lanes, W: Weight, D: Weight>(
        f: Five<W, D>,
        up: &[f64],
        mid: &mut [f64],
        dn: &[f64],
        brow: &[f64],
        h2: f64,
        omega: f64,
        j0: usize,
    ) {
        let n = mid.len();
        assert!(
            up.len() == n && dn.len() == n && brow.len() == n && f.covers(n),
            "SOR row: rows and weights must all be as long as the centre row"
        );
        let vh2 = L::splat(h2);
        let vomega = L::splat(omega);
        // A step updates the four color cells j, j+2, j+4, j+6 and
        // reads mid[j-1..j+9], so it fits while j + 9 <= n. Permuted
        // deinterleave: every input — per-cell weights
        // included — shares one lane permutation, so the arithmetic
        // stays element-aligned and the spaced store inverts the order.
        let evens = |row: &[f64], j: usize| L::load2_perm(window::<8>(row, j)).0;
        let mut j = j0;
        while j + 9 <= n {
            let m = window_mut::<10>(mid, j - 1);
            let (l, old) = L::load2_perm(m); // evens j-1+2k, odds j+2k
            let x = [evens(up, j), l, old, L::load2_perm(&m[2..]).0, evens(dn, j)];
            f.relaxed_lanes(j, x, evens(brow, j), vh2, vomega, evens)
                .store_spaced_perm(&mut m[1..]);
            j += 8;
        }
        while j < n - 1 {
            let x = [up[j], mid[j - 1], mid[j], mid[j + 1], dn[j]];
            mid[j] = f.relaxed_at(j, x, brow[j], h2, omega);
            j += 2;
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
        let chunks = row.chunks_exact(4);
        let tail = chunks.remainder();
        let mut acc = L::splat(0.0);
        for c in chunks {
            let v = L::load(c);
            acc = acc.add(v.mul(v));
        }
        let mut total = tree(acc.to_array());
        for &v in tail {
            total += v * v;
        }
        total
    }

    /// Σ (a − b)² over the common length, with the fixed-lane
    /// deterministic reduction.
    #[inline(always)]
    pub(super) fn sum_sq_diff<L: Lanes>(a: &[f64], b: &[f64]) -> f64 {
        let m = a.len().min(b.len());
        let (a, b) = (a[..m].chunks_exact(4), b[..m].chunks_exact(4));
        let tail = a.remainder().iter().zip(b.remainder());
        let mut acc = L::splat(0.0);
        for (ca, cb) in a.zip(b) {
            let d = L::load(ca).sub(L::load(cb));
            acc = acc.add(d.mul(d));
        }
        let mut total = tree(acc.to_array());
        for (&x, &y) in tail {
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
// instantiation (aarch64), and the portable-lane fallback — picked at
// runtime per call. The trampoline is a safe `#[target_feature]`
// function, so LLVM may schedule 256-bit code; the one `unsafe` per
// entry point is its call, behind the runtime probe.

macro_rules! dispatch {
    ($(#[$doc:meta])* $vis:vis fn $name:ident / $avx:ident $(<$($g:ident),*>)? ( $($arg:ident : $ty:ty),* $(,)? )) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        #[allow(clippy::too_many_arguments)]
        fn $avx $(<$($g: Weight),*>)? ($($arg: $ty),*) {
            body::$name::<Avx $($(, $g)*)?>($($arg),*)
        }

        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name $(<$($g: Weight),*>)? ($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: the probe confirmed AVX2+FMA.
                return unsafe { $avx($($arg),*) };
            }
            #[cfg(target_arch = "aarch64")]
            return body::$name::<Neon $($(, $g)*)?>($($arg),*);
            #[allow(unreachable_code)]
            body::$name::<Portable $($(, $g)*)?>($($arg),*)
        }
    };
    // The reductions. Both modes run the *same* fixed-lane algorithm —
    // `Scalar` pins the portable lane codegen, `Vector` dispatches to
    // the best compiled backend — so the result bits are identical
    // either way; only the instructions differ.
    ($(#[$doc:meta])* $vis:vis fn $name:ident / $avx:ident ( $($arg:ident : $ty:ty),* ) -> $ret:ty) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        fn $avx($($arg: $ty),*) -> $ret {
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
    /// `out` from untrimmed rows of `n = mid.len()` values.
    ///
    /// # Panics
    /// Panics unless every row and per-cell weight holds `n` values.
    pub(crate) fn residual_row / residual_row_avx2 <W, D>(
        f: Five<W, D>, up: &[f64], mid: &[f64], dn: &[f64],
        brow: &[f64], inv_h2: f64, out: &mut [f64],
    )
}

dispatch! {
    /// Vector full-weighting restriction row (coarse columns `1..nc-1`
    /// of the `nc` values of `coarse_row`).
    ///
    /// # Panics
    /// Panics unless each fine row holds `2nc − 1` values.
    pub(crate) fn restrict_row / restrict_row_avx2(
        r_up: &[f64], r_mid: &[f64], r_dn: &[f64], coarse_row: &mut [f64],
    )
}

dispatch! {
    /// Vector coincident-row interpolation correction (columns
    /// `2..2(nc-1)`; the caller handles `frow[1]`).
    ///
    /// # Panics
    /// Panics unless `frow` holds `2nc − 1` values, `nc = c0.len()`.
    pub(crate) fn interp_row_even / interp_row_even_avx2(c0: &[f64], frow: &mut [f64])
}

dispatch! {
    /// Vector midpoint-row interpolation correction.
    ///
    /// # Panics
    /// Panics unless `c1` holds `nc = c0.len()` values and `frow`
    /// `2nc − 1`.
    pub(crate) fn interp_row_odd / interp_row_odd_avx2(
        c0: &[f64], c1: &[f64], frow: &mut [f64],
    )
}

dispatch! {
    /// Vector red/black SOR row update for the row weights `f`,
    /// starting at column `j0 ≥ 1` (stride 2).
    ///
    /// # Panics
    /// Panics unless every row and per-cell weight holds `mid.len()`
    /// values.
    pub(crate) fn sor_row / sor_row_avx2 <W, D>(
        f: Five<W, D>, up: &[f64], mid: &mut [f64], dn: &[f64],
        brow: &[f64], h2: f64, omega: f64, j0: usize,
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

    type ResidualBody<W, D> = fn(Five<W, D>, &[f64], &[f64], &[f64], &[f64], f64, &mut [f64]);
    type SorBody<W, R> = fn(Five<W, R>, &[f64], &mut [f64], &[f64], &[f64], f64, f64, usize);
    type Backend<W, D, R> = (&'static str, ResidualBody<W, D>, SorBody<W, R>);

    /// `(backend, residual body, SOR body)` for the portable body and
    /// the dispatched entry point, which runs the best backend this
    /// build and host have (AVX2 through its trampoline, or NEON).
    fn backends<W: Weight, D: Weight, R: Weight>() -> [Backend<W, D, R>; 2] {
        [
            (
                "portable",
                body::residual_row::<Portable, W, D>,
                body::sor_row::<Portable, W, R>,
            ),
            (vector_backend(), residual_row::<W, D>, sor_row::<W, R>),
        ]
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
        for (name, residual_body, sor_body) in backends::<W, D, R>() {
            let mut got = vec![0.0; n];
            residual_body(residual, &up, &mid, &dn, &brow, inv_h2, &mut got);
            let mut want = vec![0.0; n];
            residual.residual_row_into(&up, &mid, &dn, &brow, inv_h2, &mut want, scalar);
            for j in 1..n - 1 {
                let (got, want) = (got[j].to_bits(), want[j].to_bits());
                assert_eq!(got, want, "residual {name} n={n} j={j}");
            }

            for j0 in [1usize, 2] {
                let (mut got, mut want) = (mid.clone(), mid.clone());
                sor_body(relax, &up, &mut got, &dn, &brow, h2, omega, j0);
                relax.sor_row_update(&up, &mut want, &dn, &brow, h2, omega, j0, scalar);
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
