//! The band factor and forward substitution at vector width.
//!
//! [`Tier`] names the code that carries the band kernels' reductions:
//! the portable bodies in `band.rs`, or — on `x86_64`, when the running
//! CPU has AVX2 — the bodies below, whose 8-lane accumulators are two
//! `__m256d` registers each. Every `x86_64` build compiles both; the
//! CPU alone picks one.
//!
//! **Same bits on every tier.** Lane `l` of an accumulator takes
//! element `8c + l` as `acc + x·y` (a multiply, then an add: Rust never
//! fuses them), the lanes fold in the portable `tree`'s order and the
//! 0–7 element tail folds in sequentially, so every dot product, and
//! with it every `L(i, j)` and every forward-substituted value, is the
//! portable one bit for bit. The vector factor keeps a 4-column group's
//! four accumulators in registers and computes two rows per pass: rows
//! `i` and `i + 1` depend on each other only through row `i + 1`'s last
//! column, so their groups alternate until that column's group, and
//! then each row finishes in order — row `i`'s pivot is checked first,
//! so the first failing pivot is still the one reported.
//!
//! There is no AVX-512F tier. One `__m512d` per accumulator, with both
//! rows' groups in one loop, factored n = 65 about 5 % and n = 129
//! about 14 % faster than this body on a 2-core Sapphire Rapids guest,
//! and solved no faster: too little to carry a second tier.

use crate::band::{factor_portable, forward_portable};
use crate::LinalgError;

/// The code that runs the band factor and the forward substitution.
/// Every tier produces the same bits; they differ only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The portable bodies in `band.rs`, whatever the compiler makes of
    /// them for the build's target.
    Portable,
    /// The bodies below, on two 256-bit registers per accumulator.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The widest tier the running CPU executes.
    pub(crate) fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            return Tier::Avx2;
        }
        Tier::Portable
    }

    /// Every tier the running CPU executes, portable first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        if Tier::detect() != Tier::Portable {
            tiers.push(Tier::detect());
        }
        tiers
    }

    /// Factor the packed band `l` (`n` rows of `m + 1`) in place;
    /// `NotPositiveDefinite(i)` at the first non-positive pivot.
    pub(crate) fn factor(self, l: &mut [f64], n: usize, m: usize) -> Result<(), LinalgError> {
        assert_eq!(l.len(), n * (m + 1), "packed band length");
        match self {
            Tier::Portable => factor_portable(l, n, m),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                assert!(avx2_available(), "AVX2 tier on a CPU without AVX2");
                // SAFETY: the assertion above confirmed AVX2.
                unsafe { avx2::factor(l, n, m) }
            }
        }
    }

    /// Forward substitution `L·y = b` in place on the packed factor `l`.
    pub(crate) fn forward(self, l: &[f64], n: usize, m: usize, b: &mut [f64]) {
        assert!(
            l.len() == n * (m + 1) && b.len() == n,
            "factor and rhs lengths"
        );
        match self {
            Tier::Portable => forward_portable(l, n, m, b),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                assert!(avx2_available(), "AVX2 tier on a CPU without AVX2");
                // SAFETY: the assertion above confirmed AVX2.
                unsafe { avx2::forward(l, n, m, b) }
            }
        }
    }
}

/// Runtime probe for AVX2; std caches the CPUID result.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The AVX2 tier: the portable bodies' operations in the portable
/// bodies' order, over `Acc8`. The helpers are `#[inline(always)]`, so
/// they compile inside the two `#[target_feature]` entry points, which
/// only [`Tier`] calls, after the probe.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::LinalgError;
    use core::arch::x86_64::*;

    /// Eight accumulator lanes, bit-transparent: `.0` holds lanes 0–3,
    /// `.1` lanes 4–7, lane `l` of `mul_add` is exactly
    /// `acc + x[l]·y[l]` rounded after the multiply and after the add,
    /// and `tree` folds the lanes as `((0+4) + (2+6)) + ((1+5) + (3+7))`.
    #[derive(Clone, Copy)]
    struct Acc8(__m256d, __m256d);

    impl Acc8 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: executes only inside the `avx2` entry points.
            unsafe { Acc8(_mm256_setzero_pd(), _mm256_setzero_pd()) }
        }

        #[inline(always)]
        fn mul_add(self, x: &[f64; 8], y: &[f64; 8]) -> Self {
            // SAFETY: executes only inside the `avx2` entry points; each
            // load reads four of the eight elements `x` or `y` borrows.
            unsafe {
                let lo = _mm256_mul_pd(_mm256_loadu_pd(x.as_ptr()), _mm256_loadu_pd(y.as_ptr()));
                let hi = _mm256_mul_pd(
                    _mm256_loadu_pd(x[4..].as_ptr()),
                    _mm256_loadu_pd(y[4..].as_ptr()),
                );
                Acc8(_mm256_add_pd(self.0, lo), _mm256_add_pd(self.1, hi))
            }
        }

        #[inline(always)]
        fn tree(self) -> f64 {
            // SAFETY: executes only inside the `avx2` entry points.
            unsafe {
                let four = _mm256_add_pd(self.0, self.1);
                let two = _mm_add_pd(
                    _mm256_castpd256_pd128(four),
                    _mm256_extractf128_pd::<1>(four),
                );
                _mm_cvtsd_f64(two) + _mm_cvtsd_f64(_mm_unpackhi_pd(two, two))
            }
        }
    }

    /// `acc`'s lanes by `tree`, then `Σ x[k]·y[k]` over the tail in
    /// order.
    #[inline(always)]
    fn finish(acc: Acc8, x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).fold(acc.tree(), |s, (x, y)| s + x * y)
    }

    /// One fixed-lane dot product.
    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        let (x, x_tail) = a.as_chunks::<8>();
        let (y, y_tail) = b[..a.len()].as_chunks::<8>();
        let acc = x
            .iter()
            .zip(y)
            .fold(Acc8::zero(), |s, (x, y)| s.mul_add(x, y));
        finish(acc, x_tail, y_tail)
    }

    /// Four fixed-lane dot products sharing `a`, their accumulators in
    /// registers.
    #[inline(always)]
    fn dots4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
        let len = a.len();
        let (x, x_tail) = a.as_chunks::<8>();
        let [(y0, t0), (y1, t1), (y2, t2), (y3, t3)] = b.map(|r| r[..len].as_chunks::<8>());
        let [mut s0, mut s1, mut s2, mut s3] = [Acc8::zero(); 4];
        for ((((x, y0), y1), y2), y3) in x.iter().zip(y0).zip(y1).zip(y2).zip(y3) {
            s0 = s0.mul_add(x, y0);
            s1 = s1.mul_add(x, y1);
            s2 = s2.mul_add(x, y2);
            s3 = s3.mul_add(x, y3);
        }
        [
            finish(s0, x_tail, t0),
            finish(s1, x_tail, t1),
            finish(s2, x_tail, t2),
            finish(s3, x_tail, t3),
        ]
    }

    /// Columns `c..c + 4` of a row whose band starts at column `lo`:
    /// `band` is the row's band (diagonal last), `done` holds every
    /// finished row the group reads.
    #[inline(always)]
    fn group(done: &[f64], band: &mut [f64], lo: usize, m: usize, c: usize) {
        let w = m + 1;
        let j = lo + c;
        let [r0, r1, r2, r3]: [&[f64]; 4] =
            std::array::from_fn(|t| &done[(j + t) * w..(j + t + 1) * w]);
        let (head, tail) = band.split_at_mut(c);
        let s = dots4(
            head,
            [
                &r0[m - c..m],
                &r1[m - 1 - c..m - 1],
                &r2[m - 2 - c..m - 2],
                &r3[m - 3 - c..m - 3],
            ],
        );
        let l0 = (tail[0] - s[0]) / r0[m];
        let l1 = ((tail[1] - s[1]) - l0 * r1[m - 1]) / r1[m];
        let l2 = (((tail[2] - s[2]) - l0 * r2[m - 2]) - l1 * r2[m - 1]) / r2[m];
        let l3 = ((((tail[3] - s[3]) - l0 * r3[m - 3]) - l1 * r3[m - 2]) - l2 * r3[m - 1]) / r3[m];
        tail[..4].copy_from_slice(&[l0, l1, l2, l3]);
    }

    /// Row `i` from column offset `c` on (its columns before `c` are
    /// done): the remaining groups, the single columns, the pivot.
    #[inline(always)]
    fn finish_row(l: &mut [f64], i: usize, m: usize, mut c: usize) -> Result<(), LinalgError> {
        let w = m + 1;
        let (done, rest) = l.split_at_mut(i * w);
        let len = i.min(m);
        let lo = i - len;
        let band = &mut rest[m - len..w];
        while c + 4 <= len {
            group(done, band, lo, m, c);
            c += 4;
        }
        while c < len {
            let rj = &done[(lo + c) * w..(lo + c + 1) * w];
            let (head, tail) = band.split_at_mut(c);
            tail[0] = (tail[0] - dot(head, &rj[m - c..m])) / rj[m];
            c += 1;
        }
        let (head, tail) = band.split_at_mut(len);
        let diag = tail[0] - dot(head, head);
        if diag <= 0.0 || !diag.is_finite() {
            return Err(LinalgError::NotPositiveDefinite(i));
        }
        tail[0] = diag.sqrt();
        Ok(())
    }

    /// The band factor. Rows with a full band go two per pass while
    /// `m ≥ 5`, which gives row `i + 1` at least one group that does
    /// not read row `i`; shorter bands, the first `m` rows and a
    /// trailing odd row go one at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn factor(l: &mut [f64], n: usize, m: usize) -> Result<(), LinalgError> {
        let w = m + 1;
        let mut i = 0;
        while i < n {
            if m < 5 || i < m || i + 1 == n {
                finish_row(l, i, m, 0)?;
                i += 1;
                continue;
            }
            // Both bands are full, so row `i + 1`'s starts one column
            // later; its group at `c` reads rows up to `i - m + c + 4`,
            // which are finished while `c + 5 ≤ m`.
            let lo = i - m;
            let (done, rest) = l.split_at_mut(i * w);
            let (band0, band1) = rest[..2 * w].split_at_mut(w);
            let mut c = 0;
            while c + 5 <= m {
                group(done, band0, lo, m, c);
                group(done, band1, lo + 1, m, c);
                c += 4;
            }
            finish_row(l, i, m, c)?;
            finish_row(l, i + 1, m, c)?;
            i += 2;
        }
        Ok(())
    }

    /// Forward substitution: `y_i = (b_i − dot(L(i, i-len..i), y)) / L(i, i)`.
    #[target_feature(enable = "avx2")]
    pub(super) fn forward(l: &[f64], n: usize, m: usize, b: &mut [f64]) {
        let w = m + 1;
        for i in 0..n {
            let (len, row) = (i.min(m), &l[i * w..(i + 1) * w]);
            let (done, rest) = b.split_at_mut(i);
            rest[0] = (rest[0] - dot(&row[m - len..m], &done[i - len..])) / row[m];
        }
    }
}

#[cfg(test)]
mod tests {
    /// A default build, with no cargo feature, factors on the AVX2 tier
    /// on a CPU with AVX2 and FMA. Vacuous on other CPUs.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn a_featureless_build_detects_the_avx2_tier() {
        use super::Tier;
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(Tier::detect(), Tier::Avx2);
            assert_eq!(Tier::available(), vec![Tier::Portable, Tier::Avx2]);
        }
    }
}
