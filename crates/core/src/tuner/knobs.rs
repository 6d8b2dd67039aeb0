//! Tuning the kernel-execution knobs: the **SIMD policy**, the
//! block-cursor **band height** and the **temporal-block depth**.
//!
//! PetaBricks treats block sizes as ordinary scalar tunables searched
//! with n-ary search (§3.2.2); this module does the same for the three
//! [`KernelKnobs`] axes. All are *pure performance* knobs — every
//! setting is bitwise identical (see `petamg_solvers::fused` and
//! `petamg_grid::simd`) — so the search needs only timing, never
//! accuracy re-validation. The axes are searched in a fixed order, each
//! given the winners before it: the SIMD policy (a vectorized kernel
//! moves more data per row, shifting the band sweet spot), then the
//! band height on a pool or the temporal depth on the sequential
//! executor. The depth fuses sweeps only on the sequential executor —
//! a pool runs them staged (see `petamg_solvers::fused`) — and the band
//! height splits only pool sweeps, so each executor searches the one
//! axis that changes its schedule.

use crate::faults;
use crate::knobs::{KernelKnobs, BAND_ROWS_DOMAIN, TBLOCK_DOMAIN};
use crate::plan::{simple_v_family, ExecCtx, PAPER_ACCURACIES};
use crate::training::{Distribution, ProblemInstance};
use petamg_grid::{Exec, SimdPolicy, Workspace};
use petamg_problems::Problem;
use petamg_solvers::DirectSolverCache;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;

/// Largest level [`KnobTunerOptions::quick`] will tune at: grids above
/// `2^10 + 1 = 1025` make a "quick" timing run anything but quick, and
/// far larger levels would panic in `level_size` (shift overflow) or
/// abort allocating the training grid.
pub const MAX_QUICK_KNOB_LEVEL: usize = 10;

/// Apply tuned [`KernelKnobs`] to an execution policy (the band height
/// and SIMD policy; the temporal depth travels separately into
/// [`ExecCtx::tblock`] / `MgConfig::tblock`).
pub fn apply_knobs(exec: Exec, knobs: &KernelKnobs) -> Exec {
    exec.with_band(knobs.band_rows).with_simd(knobs.simd)
}

/// Options for [`tune_kernel_knobs`].
#[derive(Clone, Debug)]
pub struct KnobTunerOptions {
    /// Level whose grid size the knobs are tuned for.
    pub level: usize,
    /// N-ary search arms per round.
    pub arms: usize,
    /// N-ary search rounds per axis.
    pub rounds: usize,
    /// Timed cycle repetitions per candidate. The candidate's cost is
    /// the **median** of these samples; when the spread across them is
    /// wide (see [`RE_MEASURE_SPREAD`]) one re-measure pass of the same
    /// size is taken and the median recomputed over all samples, so a
    /// single scheduler hiccup cannot crown the wrong knob.
    pub reps: usize,
    /// Training-instance seed.
    pub seed: u64,
    /// The problem the knobs are tuned for. Candidate timings run this
    /// family's actual kernels (variable-coefficient rows cost more
    /// than constant ones, and the best band/tblock follows the
    /// kernel), so a var-coeff or anisotropic plan's knobs are timed on
    /// its own operator — not silently on Poisson.
    pub problem: Problem,
}

impl KnobTunerOptions {
    /// A quick search suitable for tests and warm-up tuning, on the
    /// constant-coefficient Poisson operator
    /// (see [`KnobTunerOptions::with_problem`] for the rest).
    ///
    /// `level` is clamped into `1..=`[`MAX_QUICK_KNOB_LEVEL`] rather
    /// than trusted: level 0 has no executable plan, and out-of-range
    /// levels used to panic deep inside `level_size` (or abort
    /// allocating a training grid) instead of failing gracefully.
    pub fn quick(level: usize) -> Self {
        KnobTunerOptions {
            level: level.clamp(1, MAX_QUICK_KNOB_LEVEL),
            arms: 3,
            rounds: 2,
            reps: 2,
            seed: 0xBADC0DE,
            problem: Problem::poisson(),
        }
    }

    /// Tune against `problem`'s operator instead of Poisson.
    pub fn with_problem(mut self, problem: Problem) -> Self {
        self.problem = problem;
        self
    }
}

/// Relative spread `(max − min) / median` above which one candidate's
/// timing samples are considered contaminated and a re-measure pass is
/// taken. 25% is far above run-to-run variation of a warm fused cycle
/// but far below any real contamination (a preempted sample is
/// typically several times slower, not a quarter slower).
pub const RE_MEASURE_SPREAD: f64 = 0.25;

/// Median of `samples` (sorts in place; mean of the middle pair for
/// even counts).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Robust cost of one candidate: the median of `reps` draws from
/// `sample`, with one re-measure pass of `reps` more draws when the
/// first batch's spread exceeds [`RE_MEASURE_SPREAD`] of its median.
///
/// The re-measure pass is what makes small `reps` safe: with `reps = 2`
/// a single inflated sample drags the median to the midpoint, but the
/// inflation also blows the spread check, and the median over the
/// doubled batch restores the honest cost.
fn robust_median(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let reps = reps.max(1);
    let mut samples: Vec<f64> = (0..reps).map(|_| sample()).collect();
    let mid = median(&mut samples);
    if samples.len() > 1 {
        let spread = samples[samples.len() - 1] - samples[0];
        if spread > RE_MEASURE_SPREAD * mid {
            for _ in 0..reps {
                samples.push(sample());
            }
            return median(&mut samples);
        }
    }
    mid
}

/// Result of a kernel-knob tuning run.
#[derive(Clone, Debug)]
pub struct KnobTuneResult {
    /// The winning knob settings.
    pub knobs: KernelKnobs,
    /// Best measured candidate cost: whole-cycle wall time, seconds.
    pub best_seconds: f64,
    /// Candidate evaluations performed.
    pub evaluations: usize,
}

/// Search the three knob axes for the fastest [`KernelKnobs`] on
/// `exec`, timing `MULTIGRID-V-SIMPLE` cycles at `opts.level` on a
/// training instance of `opts.problem`. The SIMD axis times every
/// choice with a distinct resolved mode (`auto` first, so it wins
/// ties); then a pool searches `band_rows` and the sequential executor
/// (no band: one band spans the whole sweep) searches `tblock`, each an
/// n-ary search followed by a run-off against the default.
///
/// The returned knobs plug into an executor as
/// `ExecCtx::with_cache(apply_knobs(exec, &knobs), cache)
///     .with_tblock(knobs.tblock)` — or, table-wise, as one entry of a
/// `KnobTable` attached via `ExecCtx::with_knob_table`.
pub fn tune_kernel_knobs(exec: &Exec, opts: &KnobTunerOptions) -> KnobTuneResult {
    let fam = simple_v_family(opts.level, &PAPER_ACCURACIES);
    let inst = ProblemInstance::random_for(
        &opts.problem,
        opts.level,
        Distribution::UnbiasedUniform,
        opts.seed,
    );
    let cache = Arc::new(DirectSolverCache::new());
    let workspace = Arc::new(Workspace::new());
    let mut evaluations = 0usize;
    let mut best_seconds = f64::INFINITY;
    let time = |knobs: KernelKnobs| -> f64 {
        // The candidate's index doubles as its fault-injection "arm" id
        // (see `faults::timing_inflation`).
        let arm = evaluations;
        evaluations += 1;
        let mut ctx = ExecCtx::with_cache(apply_knobs(exec.clone(), &knobs), Arc::clone(&cache))
            .with_workspace(Arc::clone(&workspace))
            .with_problem(opts.problem.clone())
            .with_tblock(knobs.tblock);
        // Warm the workspace pools and factor cache outside timing.
        let mut x = inst.working_grid();
        fam.run(opts.level, 0, &mut x, &inst.b, &mut ctx);
        let cost = robust_median(opts.reps, || {
            ctx.reset_counters();
            let mut x = inst.working_grid();
            let start = Instant::now();
            fam.run(opts.level, 0, &mut x, &inst.b, &mut ctx);
            let sample = start.elapsed().as_secs_f64();
            sample * faults::timing_inflation(arm).unwrap_or(1.0)
        });
        best_seconds = best_seconds.min(cost);
        cost
    };
    let mut simd_choices: Vec<SimdPolicy> = Vec::new();
    for policy in SimdPolicy::ALL {
        if simd_choices.iter().all(|p| p.resolve() != policy.resolve()) {
            simd_choices.push(policy);
        }
    }
    let knobs = search_knobs(opts, &simd_choices, exec.band().is_some(), time);
    KnobTuneResult {
        knobs,
        best_seconds,
        evaluations,
    }
}

/// The search behind [`tune_kernel_knobs`], over any cost `time`: from
/// the default knobs, the cheapest of `simd_choices`, then `band_rows`
/// when `search_band` (a pool) or else `tblock` (the sequential
/// executor, the only one it fuses on), timed with the SIMD winner.
fn search_knobs(
    opts: &KnobTunerOptions,
    simd_choices: &[SimdPolicy],
    search_band: bool,
    mut time: impl FnMut(KernelKnobs) -> f64,
) -> KernelKnobs {
    let mut knobs = KernelKnobs::default();
    knobs.simd = cheapest(
        simd_choices
            .iter()
            .map(|&simd| (time(KernelKnobs { simd, ..knobs }), simd)),
    );
    if search_band {
        knobs.band_rows = search_axis(opts, BAND_ROWS_DOMAIN, knobs.band_rows, |band_rows| {
            time(KernelKnobs { band_rows, ..knobs })
        });
    } else {
        knobs.tblock = search_axis(opts, TBLOCK_DOMAIN, knobs.tblock, |tblock| {
            time(KernelKnobs { tblock, ..knobs })
        });
    }
    knobs
}

/// One integer axis: an n-ary search over `domain`, then a run-off
/// between its winner and `default` — the cheaper of the two wins, and
/// on an exact tie the smaller value. Values the search already timed
/// are not re-timed.
fn search_axis(
    opts: &KnobTunerOptions,
    domain: RangeInclusive<usize>,
    default: usize,
    mut time: impl FnMut(usize) -> f64,
) -> usize {
    let mut sampled: BTreeMap<usize, f64> = BTreeMap::new();
    let searched = nary_search_int(
        *domain.start(),
        *domain.end(),
        opts.arms,
        opts.rounds,
        |v| {
            let cost = time(v);
            sampled
                .entry(v)
                .and_modify(|c| *c = c.min(cost))
                .or_insert(cost);
            cost
        },
    );
    let mut contenders = vec![searched, default];
    contenders.sort_unstable();
    contenders.dedup();
    cheapest(contenders.into_iter().map(|v| {
        let cost = sampled.get(&v).copied().unwrap_or_else(|| time(v));
        (cost, v)
    }))
}

/// The value of the cheapest `(cost, value)` pair; the first wins ties.
fn cheapest<T>(candidates: impl Iterator<Item = (f64, T)>) -> T {
    candidates
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, v)| v)
        .expect("at least one candidate")
}

/// N-ary search (§3.2.2) for the `x` in `[lo, hi]` minimizing `eval`:
/// each round times `arms` evenly spaced candidates and shrinks the
/// interval to the round winner's neighbourhood; once it is at most two
/// points wide, both are timed and the search stops. The earlier
/// candidate wins ties.
///
/// # Panics
/// Panics if `lo > hi` or `arms < 2`.
fn nary_search_int(
    lo: usize,
    hi: usize,
    arms: usize,
    rounds: usize,
    mut eval: impl FnMut(usize) -> f64,
) -> usize {
    assert!(lo <= hi, "empty search range");
    assert!(arms >= 2, "need at least two arms");
    let (mut cur_lo, mut cur_hi) = (lo, hi);
    let mut best_x = lo;
    let mut best_cost = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let span = cur_hi - cur_lo;
        let mut candidates: Vec<usize> =
            (0..arms).map(|k| cur_lo + span * k / (arms - 1)).collect();
        candidates.dedup();
        let mut round_best_x = candidates[0];
        let mut round_best_cost = f64::INFINITY;
        for &x in &candidates {
            let c = eval(x);
            if c < round_best_cost {
                round_best_cost = c;
                round_best_x = x;
            }
        }
        if round_best_cost < best_cost {
            best_cost = round_best_cost;
            best_x = round_best_x;
        }
        let step = (span / (arms - 1)).max(1);
        cur_lo = round_best_x.saturating_sub(step).max(lo);
        cur_hi = (round_best_x + step).min(hi);
        if cur_hi - cur_lo <= 1 {
            for x in [cur_lo, cur_hi] {
                let c = eval(x);
                if c < best_cost {
                    best_cost = c;
                    best_x = x;
                }
            }
            break;
        }
    }
    best_x
}

#[cfg(test)]
mod tests {
    use super::*;

    use petamg_grid::l2_diff;

    fn show(k: KernelKnobs) -> String {
        let simd = match k.simd {
            SimdPolicy::Auto => 'A',
            SimdPolicy::Scalar => 'S',
            SimdPolicy::Vector => 'V',
        };
        format!("{simd}{}x{}", k.band_rows, k.tblock)
    }

    type Cost = fn(KernelKnobs) -> f64;

    /// Synthetic cost surfaces over the knob space.
    const SURFACES: [(&str, Cost); 4] = [
        // A bowl at band 40 / tblock 3 that prefers `Scalar`.
        ("bowl", |k| {
            (k.band_rows as f64 / 40.0).ln().powi(2)
                + (k.tblock as f64 - 3.0).powi(2)
                + if k.simd == SimdPolicy::Scalar {
                    0.0
                } else {
                    0.5
                }
        }),
        // Flat: every comparison is a tie.
        ("flat", |_| 1.0),
        // Falling toward band 512 / tblock 8.
        ("falling", |k| {
            1.0 / k.band_rows as f64 + 1.0 / k.tblock as f64
        }),
        // The default band is a spike the n-ary search never samples:
        // its winner loses the run-off.
        ("spike", |k| {
            let band = if k.band_rows == 32 {
                0.5
            } else {
                1.0 + (k.band_rows as f64 - 200.0).abs() / 1000.0
            };
            band + (k.tblock as f64 - 5.0).powi(2) / 100.0
        }),
    ];

    /// Every `(surface, band searched, SIMD choices)` run of the
    /// search: the candidates it timed in order, its winner and its
    /// evaluation count (`SIMD choices` 2 = `[Auto, Scalar]`, 1 =
    /// `[Auto]`). Recorded on the pre-rewrite search over the generic
    /// configuration space; the typed search must reproduce it, except
    /// that a band search no longer goes on to the `tblock` axis, so
    /// those rows end where their `tblock` tail used to start.
    #[rustfmt::skip]
    const PINNED: [(&str, bool, usize, &str, &str, usize); 16] = [
        ("bowl", true, 2, "A32x1 S32x1 S1x1 S256x1 S512x1 S1x1 S256x1 S511x1 S32x1", "S32x1", 9),
        ("bowl", true, 1, "A32x1 A1x1 A256x1 A512x1 A1x1 A256x1 A511x1 A32x1", "A32x1", 8),
        ("bowl", false, 2, "A32x1 S32x1 S32x1 S32x4 S32x8 S32x1 S32x4 S32x7", "S32x4", 8),
        ("bowl", false, 1, "A32x1 A32x1 A32x4 A32x8 A32x1 A32x4 A32x7", "A32x4", 7),
        ("flat", true, 2, "A32x1 S32x1 A1x1 A256x1 A512x1 A1x1 A128x1 A256x1 A32x1", "A1x1", 9),
        ("flat", true, 1, "A32x1 A1x1 A256x1 A512x1 A1x1 A128x1 A256x1 A32x1", "A1x1", 8),
        ("flat", false, 2, "A32x1 S32x1 A32x1 A32x4 A32x8 A32x1 A32x2 A32x4 A32x1 A32x2", "A32x1", 10),
        ("flat", false, 1, "A32x1 A32x1 A32x4 A32x8 A32x1 A32x2 A32x4 A32x1 A32x2", "A32x1", 9),
        ("falling", true, 2, "A32x1 S32x1 A1x1 A256x1 A512x1 A257x1 A384x1 A512x1 A32x1", "A512x1", 9),
        ("falling", true, 1, "A32x1 A1x1 A256x1 A512x1 A257x1 A384x1 A512x1 A32x1", "A512x1", 8),
        ("falling", false, 2, "A32x1 S32x1 A32x1 A32x4 A32x8 A32x5 A32x6 A32x8 A32x7 A32x8", "A32x8", 10),
        ("falling", false, 1, "A32x1 A32x1 A32x4 A32x8 A32x5 A32x6 A32x8 A32x7 A32x8", "A32x8", 9),
        ("spike", true, 2, "A32x1 S32x1 A1x1 A256x1 A512x1 A1x1 A256x1 A511x1 A32x1", "A32x1", 9),
        ("spike", true, 1, "A32x1 A1x1 A256x1 A512x1 A1x1 A256x1 A511x1 A32x1", "A32x1", 8),
        ("spike", false, 2, "A32x1 S32x1 A32x1 A32x4 A32x8 A32x1 A32x4 A32x7", "A32x4", 8),
        ("spike", false, 1, "A32x1 A32x1 A32x4 A32x8 A32x1 A32x4 A32x7", "A32x4", 7),
    ];

    #[test]
    fn search_visits_the_pinned_candidates() {
        let simd_choices = [SimdPolicy::Auto, SimdPolicy::Scalar];
        for (name, band, choices, trail, winner, evaluations) in PINNED {
            let (_, cost) = SURFACES.iter().find(|(n, _)| *n == name).unwrap();
            let mut seen = Vec::new();
            let knobs = search_knobs(
                &KnobTunerOptions::quick(7),
                &simd_choices[..choices],
                band,
                |k| {
                    seen.push(show(k));
                    cost(k)
                },
            );
            let case = format!("{name}, band searched: {band}, {choices} simd choices");
            assert_eq!(seen.join(" "), trail, "{case}");
            assert_eq!(show(knobs), winner, "{case}");
            assert_eq!(seen.len(), evaluations, "{case}");
        }
    }

    #[test]
    fn nary_search_finds_integer_minima() {
        assert_eq!(
            nary_search_int(0, 1000, 5, 8, |x| (x as f64 - 371.0).abs()),
            371
        );
        assert_eq!(nary_search_int(10, 99, 4, 6, |x| x as f64), 10);
        assert_eq!(nary_search_int(10, 99, 4, 6, |x| -(x as f64)), 99);
        assert_eq!(nary_search_int(7, 7, 3, 3, |_| 0.0), 7);
        // Deterministic "noise" that does not move the basin.
        let mut tick = 0u64;
        let best = nary_search_int(0, 500, 6, 8, |x| {
            tick = tick
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407 + x as u64);
            let noise = ((tick >> 33) % 100) as f64 / 100.0; // [0, 1)
            (x as f64 - 250.0).powi(2) / 100.0 + noise
        });
        assert!(best.abs_diff(250) <= 25, "best = {best}");
        let mut calls = 0usize;
        nary_search_int(0, 1_000_000, 8, 10, |x| {
            calls += 1;
            (x as f64 - 123456.0).abs()
        });
        assert!(calls <= 8 * 10 + 2, "calls = {calls}");
    }

    #[test]
    fn quick_clamps_out_of_range_levels() {
        // Level 0 has no executable plan; absurd levels used to panic
        // via level_size / grid allocation. Both now clamp.
        assert_eq!(KnobTunerOptions::quick(0).level, 1);
        assert_eq!(KnobTunerOptions::quick(3).level, 3);
        assert_eq!(
            KnobTunerOptions::quick(usize::MAX).level,
            MAX_QUICK_KNOB_LEVEL
        );
        // The clamped options actually tune without panicking.
        let result = tune_kernel_knobs(&Exec::seq(), &KnobTunerOptions::quick(0));
        assert!(result.evaluations > 0);
    }

    #[test]
    fn robust_median_absorbs_a_contaminated_sample() {
        // One 10x-inflated sample out of two drags the two-sample
        // median to 5.5x — but also blows the spread check, so the
        // re-measure pass runs and the four-sample median recovers.
        let mut calls = 0usize;
        let cost = robust_median(2, || {
            calls += 1;
            if calls == 2 {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(calls, 4, "wide spread must trigger one re-measure pass");
        assert_eq!(cost, 1.0);
    }

    #[test]
    fn robust_median_skips_remeasure_when_samples_agree() {
        let mut calls = 0usize;
        let cost = robust_median(3, || {
            calls += 1;
            1.0
        });
        assert_eq!(calls, 3, "tight samples must not be re-measured");
        assert_eq!(cost, 1.0);
        // Degenerate rep counts still take at least one sample.
        assert_eq!(robust_median(0, || 2.0), 2.0);
    }

    #[test]
    fn timing_inflation_fault_point_is_wired_into_the_sample_loop() {
        use crate::faults::{self, Fault};
        faults::clear();
        faults::inject(Fault::InflateTiming {
            arm: 0,
            factor: 1e6,
        });
        let result = tune_kernel_knobs(&Exec::seq(), &KnobTunerOptions::quick(2));
        assert!(
            faults::armed_faults().is_empty(),
            "the first candidate's sample loop must consume the fault"
        );
        // The inflated sample hits exactly one draw of arm 0; the
        // re-measure pass keeps it out of the candidate's median, so
        // the winning cost stays physical.
        assert!(result.best_seconds < 1e3, "{}", result.best_seconds);
        assert!(TBLOCK_DOMAIN.contains(&result.knobs.tblock));
        faults::clear();
    }

    /// Regression: knob candidates used to be timed on Poisson training
    /// instances no matter which family the plan was tuned for. The
    /// posed problem now threads through the options into both the
    /// training instance and the timing context — and the run exercises
    /// the family's own (coefficient-bearing) kernels at every level,
    /// which requires the posed hierarchy to be threaded correctly.
    #[test]
    fn knob_timings_run_the_posed_family() {
        let problem = Problem::jump_inclusion(petamg_grid::level_size(3));
        let opts = KnobTunerOptions::quick(3).with_problem(problem.clone());
        assert_eq!(opts.problem.fingerprint(), problem.fingerprint());
        let result = tune_kernel_knobs(&Exec::seq(), &opts);
        assert!(result.evaluations > 0);
        assert!(result.best_seconds.is_finite());
        let aniso = tune_kernel_knobs(
            &Exec::pbrt(2),
            &KnobTunerOptions::quick(3).with_problem(Problem::anisotropic(0.25)),
        );
        assert!(aniso.evaluations > 0);
    }

    #[test]
    fn apply_knobs_sets_band() {
        let knobs = KernelKnobs {
            band_rows: 17,
            tblock: 2,
            simd: SimdPolicy::Auto,
        };
        assert_eq!(apply_knobs(Exec::pbrt(2), &knobs).band(), Some(17));
        // Seq has no band; applying knobs is a no-op.
        assert!(apply_knobs(Exec::seq(), &knobs).band().is_none());
    }

    #[test]
    fn tuned_knobs_are_in_domain_and_change_nothing() {
        let opts = KnobTunerOptions::quick(4);
        let result = tune_kernel_knobs(&Exec::seq(), &opts);
        assert!(BAND_ROWS_DOMAIN.contains(&result.knobs.band_rows));
        assert!(TBLOCK_DOMAIN.contains(&result.knobs.tblock));
        assert!(result.evaluations > 0);
        assert!(result.best_seconds.is_finite());

        // Executing with the tuned knobs is bitwise identical to the
        // default knobs — they are pure performance axes.
        let fam = simple_v_family(4, &PAPER_ACCURACIES);
        let inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 7);
        let run = |knobs: &KernelKnobs| {
            let mut ctx = ExecCtx::new(apply_knobs(Exec::pbrt(2), knobs)).with_tblock(knobs.tblock);
            let mut x = inst.working_grid();
            fam.run(4, 0, &mut x, &inst.b, &mut ctx);
            x
        };
        let x_default = run(&KernelKnobs::default());
        let x_tuned = run(&result.knobs);
        assert_eq!(x_default.as_slice(), x_tuned.as_slice());
        assert_eq!(l2_diff(&x_default, &x_tuned, &Exec::seq()), 0.0);
    }
}
