//! Solve guards: cheap per-cycle failure detection and budgets.
//!
//! Iterative multigrid can fail in ways a raw `f64` result does not
//! report: the residual can diverge (a wrong or unstable plan), it can
//! stagnate below any useful contraction rate (point relaxation on a
//! strongly anisotropic operator), or the state can turn non-finite
//! (a poisoned kernel, an overflow). A [`SolveGuard`] watches the
//! relative-residual trajectory of an iteration — one `observe` call
//! per cycle, O(1) on top of the residual norm the convergence check
//! already computes — and converts those failure modes into a typed
//! [`GuardFailure`] instead of letting the caller read NaNs or spin to
//! a cap.
//!
//! The guard deliberately lives in `petamg-solvers` so both the
//! reference iterations here and the tuned-plan executor in
//! `petamg-core` (which depends on this crate) can thread it through
//! their cycle loops; `petamg-core`'s `guard` module layers the
//! degradation ladder and the full `SolveError` taxonomy on top.

use std::time::{Duration, Instant};

/// Outcome of a bounded iteration: did it meet its target, and how many
/// cycles did it spend? Replaces the old convention of returning a bare
/// `usize` from `solve_v_until`, where `max_iters` was indistinguishable
/// from "converged on exactly the last cycle".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// The `done` predicate (or residual target) was met.
    Converged {
        /// Cycles executed, including the converging one.
        cycles: usize,
    },
    /// The cycle budget ran out before the target was met.
    BudgetExhausted {
        /// Cycles executed (the budget).
        cycles: usize,
    },
}

impl SolveStatus {
    /// Cycles executed, converged or not.
    pub fn cycles(&self) -> usize {
        match self {
            SolveStatus::Converged { cycles } | SolveStatus::BudgetExhausted { cycles } => *cycles,
        }
    }

    /// Whether the target was met within budget.
    pub fn converged(&self) -> bool {
        matches!(self, SolveStatus::Converged { .. })
    }
}

/// Typed failure modes a [`SolveGuard`] detects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GuardFailure {
    /// The observed residual was NaN or infinite.
    NonFinite {
        /// Cycle (1-based) at which the non-finite value was observed.
        cycle: usize,
    },
    /// The residual grew by at least the configured factor over the
    /// divergence window.
    Diverged {
        /// Cycle (1-based) at which divergence was declared.
        cycle: usize,
        /// Residual growth ratio over the window.
        growth: f64,
    },
    /// The residual improved by less than the configured fraction over
    /// the stagnation window (without growing enough to be divergence).
    Stagnated {
        /// Cycle (1-based) at which stagnation was declared.
        cycle: usize,
    },
    /// The cycle budget ran out above the target.
    BudgetExhausted {
        /// Cycles spent (the budget).
        cycles: usize,
    },
    /// The cycle budget cannot be met: even at the best contraction
    /// recently observed, the target lies more cycles away than the
    /// budget has left. Declared early instead of running to
    /// [`GuardFailure::BudgetExhausted`].
    BudgetUnreachable {
        /// Cycle (1-based) at which the projection fired.
        cycle: usize,
        /// Lower bound on the further cycles the target needs
        /// (saturating).
        needed: usize,
    },
    /// The wall-clock budget ran out above the target.
    TimedOut {
        /// Seconds elapsed when the guard fired.
        seconds: f64,
    },
}

impl std::fmt::Display for GuardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardFailure::NonFinite { cycle } => {
                write!(f, "non-finite residual at cycle {cycle}")
            }
            GuardFailure::Diverged { cycle, growth } => {
                write!(f, "residual diverged at cycle {cycle} (grew {growth:.2}x)")
            }
            GuardFailure::Stagnated { cycle } => {
                write!(f, "residual stagnated at cycle {cycle}")
            }
            GuardFailure::BudgetExhausted { cycles } => {
                write!(f, "cycle budget exhausted after {cycles} cycles")
            }
            GuardFailure::BudgetUnreachable { cycle, needed } => {
                write!(
                    f,
                    "cycle budget unreachable at cycle {cycle} (at least {needed} more cycles needed)"
                )
            }
            GuardFailure::TimedOut { seconds } => {
                write!(f, "wall-clock budget exhausted after {seconds:.3}s")
            }
        }
    }
}

/// What the iteration should do after a guard observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GuardVerdict {
    /// Keep cycling.
    Continue,
    /// The residual target is met.
    Converged,
    /// Stop: a failure mode was detected.
    Fail(GuardFailure),
}

/// Thresholds and budgets for a [`SolveGuard`].
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    /// Cycle budget (observations before [`GuardFailure::BudgetExhausted`]).
    pub max_cycles: usize,
    /// Optional wall-clock budget measured from guard construction.
    pub wall_clock: Option<Duration>,
    /// Residual growth ratio over [`GuardConfig::divergence_window`]
    /// cycles that counts as divergence.
    pub divergence_factor: f64,
    /// Number of cycles over which residual growth is judged.
    pub divergence_window: usize,
    /// Minimum fractional improvement required over
    /// [`GuardConfig::stagnation_window`] cycles.
    pub stagnation_epsilon: f64,
    /// Number of cycles over which stagnation is judged.
    pub stagnation_window: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_cycles: 50,
            wall_clock: None,
            divergence_factor: 10.0,
            divergence_window: 3,
            stagnation_epsilon: 0.01,
            stagnation_window: 8,
        }
    }
}

/// Per-cycle contractions the budget projection looks back over. A
/// constant, not a [`GuardConfig`] field: the rule has one correct
/// setting per iteration class, and the ladder only runs stationary
/// iterations.
const PROJECTION_WINDOW: usize = 4;

/// Watches a relative-residual trajectory and turns failure modes into
/// typed verdicts. One [`SolveGuard::observe`] call per cycle.
#[derive(Clone, Debug)]
pub struct SolveGuard {
    cfg: GuardConfig,
    target: f64,
    history: Vec<f64>,
    start: Instant,
}

impl SolveGuard {
    /// A guard that declares convergence when the observed relative
    /// residual drops to `target` or below.
    pub fn new(cfg: GuardConfig, target: f64) -> Self {
        SolveGuard {
            cfg,
            target,
            history: Vec::new(),
            start: Instant::now(),
        }
    }

    /// The residual target.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Observed residual trajectory so far (one entry per cycle).
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Cycles observed so far.
    pub fn cycles(&self) -> usize {
        self.history.len()
    }

    /// Feed one cycle's relative residual; returns what to do next.
    ///
    /// Check order: finiteness, convergence, divergence, stagnation,
    /// budget projection, wall clock, cycle budget — so a cycle that
    /// both converges and exhausts the budget reports convergence.
    ///
    /// The projection takes the *smallest* per-cycle contraction ρ of
    /// the last four cycles and fails with
    /// [`GuardFailure::BudgetUnreachable`] when `ln(target/rel) / ln ρ`
    /// exceeds the cycles the budget has left. The contraction of a
    /// stationary iteration rises toward its asymptotic rate, so the
    /// most optimistic recent ρ bounds the cycles still needed from
    /// below: only trajectories that would have run into
    /// [`GuardFailure::BudgetExhausted`] anyway are failed, earlier.
    /// The wall-clock budget is not projected — it is nondeterministic.
    pub fn observe(&mut self, rel_residual: f64) -> GuardVerdict {
        self.history.push(rel_residual);
        let cycle = self.history.len();
        if !rel_residual.is_finite() {
            return GuardVerdict::Fail(GuardFailure::NonFinite { cycle });
        }
        if rel_residual <= self.target {
            return GuardVerdict::Converged;
        }
        if cycle > self.cfg.divergence_window {
            let base = self.history[cycle - 1 - self.cfg.divergence_window];
            if base > 0.0 && rel_residual >= base * self.cfg.divergence_factor {
                return GuardVerdict::Fail(GuardFailure::Diverged {
                    cycle,
                    growth: rel_residual / base,
                });
            }
        }
        if cycle > self.cfg.stagnation_window {
            let base = self.history[cycle - 1 - self.cfg.stagnation_window];
            if rel_residual >= base * (1.0 - self.cfg.stagnation_epsilon) {
                return GuardVerdict::Fail(GuardFailure::Stagnated { cycle });
            }
        }
        if cycle > PROJECTION_WINDOW && cycle < self.cfg.max_cycles {
            let rho = self.history[cycle - 1 - PROJECTION_WINDOW..]
                .windows(2)
                .map(|w| w[1] / w[0])
                .fold(f64::INFINITY, f64::min);
            if rho > 0.0 && rho < 1.0 {
                // Shaved by a hair so rounding in the two logarithms
                // cannot push an exactly-on-budget trajectory over.
                let needed = ((self.target / rel_residual).ln() / rho.ln() * (1.0 - 1e-9)).ceil();
                if needed > (self.cfg.max_cycles - cycle) as f64 {
                    return GuardVerdict::Fail(GuardFailure::BudgetUnreachable {
                        cycle,
                        needed: needed as usize,
                    });
                }
            }
        }
        if let Some(budget) = self.cfg.wall_clock {
            let elapsed = self.start.elapsed();
            if elapsed >= budget {
                return GuardVerdict::Fail(GuardFailure::TimedOut {
                    seconds: elapsed.as_secs_f64(),
                });
            }
        }
        if cycle >= self.cfg.max_cycles {
            return GuardVerdict::Fail(GuardFailure::BudgetExhausted { cycles: cycle });
        }
        GuardVerdict::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard(target: f64) -> SolveGuard {
        SolveGuard::new(GuardConfig::default(), target)
    }

    #[test]
    fn converging_trajectory_is_clean() {
        // Halving is exact in binary, so the cycle count is too:
        // observations 2^0 .. 2^-10, and 2^-10 < 1e-3 converges.
        let mut g = guard(1e-3);
        let mut r = 1.0;
        loop {
            match g.observe(r) {
                GuardVerdict::Continue => r *= 0.5,
                GuardVerdict::Converged => break,
                GuardVerdict::Fail(f) => panic!("unexpected failure: {f}"),
            }
        }
        assert_eq!(g.cycles(), 11);
        assert!(g.history().windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn nan_and_inf_are_caught_immediately() {
        let mut g = guard(1e-10);
        assert_eq!(
            g.observe(f64::NAN),
            GuardVerdict::Fail(GuardFailure::NonFinite { cycle: 1 })
        );
        let mut g = guard(1e-10);
        assert_eq!(g.observe(0.5), GuardVerdict::Continue);
        assert_eq!(
            g.observe(f64::INFINITY),
            GuardVerdict::Fail(GuardFailure::NonFinite { cycle: 2 })
        );
    }

    #[test]
    fn divergence_fires_on_growth_over_window() {
        let mut g = guard(1e-10);
        let mut r = 1.0;
        let failure = loop {
            match g.observe(r) {
                GuardVerdict::Continue => r *= 3.0,
                GuardVerdict::Fail(f) => break f,
                GuardVerdict::Converged => panic!("cannot converge while growing"),
            }
        };
        match failure {
            GuardFailure::Diverged { cycle, growth } => {
                assert_eq!(cycle, 4, "3x/cycle over a 3-cycle window is 27x >= 10x");
                assert!(growth >= 10.0);
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn slow_growth_is_not_divergence_but_stagnates() {
        // 1.1x per cycle: 1.33x over the 3-cycle divergence window
        // (below 10x), but certainly not improving — stagnation fires
        // once its window fills.
        let mut g = guard(1e-10);
        let mut r = 1.0;
        let failure = loop {
            match g.observe(r) {
                GuardVerdict::Continue => r *= 1.1,
                GuardVerdict::Fail(f) => break f,
                GuardVerdict::Converged => unreachable!(),
            }
        };
        assert!(
            matches!(failure, GuardFailure::Stagnated { cycle: 9 }),
            "got {failure}"
        );
    }

    #[test]
    fn stagnation_fires_on_flat_trajectory() {
        let mut g = guard(1e-10);
        let failure = loop {
            match g.observe(0.5) {
                GuardVerdict::Continue => {}
                GuardVerdict::Fail(f) => break f,
                GuardVerdict::Converged => unreachable!(),
            }
        };
        assert!(matches!(failure, GuardFailure::Stagnated { cycle: 9 }));
    }

    #[test]
    fn healthy_slow_convergence_is_not_stagnation() {
        // 5% improvement per cycle clears the 1% default epsilon over
        // any window, so this is never stagnation — but 1e-30 is ~1343
        // cycles away at that rate, and the projection says so as soon
        // as its window fills instead of spinning to the 50-cycle cap.
        let mut g = guard(1e-30);
        let mut r = 1.0;
        let failure = loop {
            match g.observe(r) {
                GuardVerdict::Continue => r *= 0.95,
                GuardVerdict::Fail(f) => break f,
                GuardVerdict::Converged => unreachable!(),
            }
        };
        assert_eq!(
            failure,
            GuardFailure::BudgetUnreachable {
                cycle: 5,
                needed: 1343
            }
        );
    }

    #[test]
    fn projection_spares_a_trajectory_that_lands_on_the_last_cycle() {
        // Halving from 1.0 first drops to 2^-10 at observation 11; with
        // a budget of exactly 11 the projection must stay quiet (6 more
        // cycles needed at cycle 5, 6 left), and one cycle less must
        // fail at cycle 5 rather than at the cap.
        let run = |max_cycles| {
            let cfg = GuardConfig {
                max_cycles,
                ..GuardConfig::default()
            };
            let mut g = SolveGuard::new(cfg, 2f64.powi(-10));
            let mut r = 1.0;
            loop {
                match g.observe(r) {
                    GuardVerdict::Continue => r *= 0.5,
                    verdict => break (verdict, g.cycles()),
                }
            }
        };
        assert_eq!(run(11), (GuardVerdict::Converged, 11));
        assert_eq!(
            run(10),
            (
                GuardVerdict::Fail(GuardFailure::BudgetUnreachable {
                    cycle: 5,
                    needed: 6
                }),
                5
            )
        );
    }

    #[test]
    fn budget_counts_cycles() {
        let cfg = GuardConfig {
            max_cycles: 3,
            // Disarm stagnation so the flat trajectory hits the budget.
            stagnation_window: 100,
            ..GuardConfig::default()
        };
        let mut g = SolveGuard::new(cfg, 1e-10);
        assert_eq!(g.observe(0.9), GuardVerdict::Continue);
        assert_eq!(g.observe(0.8), GuardVerdict::Continue);
        assert_eq!(
            g.observe(0.7),
            GuardVerdict::Fail(GuardFailure::BudgetExhausted { cycles: 3 })
        );
    }

    #[test]
    fn wall_clock_budget_fires() {
        let cfg = GuardConfig {
            wall_clock: Some(Duration::from_nanos(1)),
            ..GuardConfig::default()
        };
        let mut g = SolveGuard::new(cfg, 1e-10);
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(
            g.observe(0.9),
            GuardVerdict::Fail(GuardFailure::TimedOut { .. })
        ));
    }

    #[test]
    fn convergence_beats_budget_on_the_last_cycle() {
        let cfg = GuardConfig {
            max_cycles: 2,
            ..GuardConfig::default()
        };
        let mut g = SolveGuard::new(cfg, 1e-10);
        assert_eq!(g.observe(0.9), GuardVerdict::Continue);
        assert_eq!(g.observe(1e-12), GuardVerdict::Converged);
    }

    #[test]
    fn status_accessors() {
        let s = SolveStatus::Converged { cycles: 4 };
        assert!(s.converged());
        assert_eq!(s.cycles(), 4);
        let s = SolveStatus::BudgetExhausted { cycles: 9 };
        assert!(!s.converged());
        assert_eq!(s.cycles(), 9);
    }

    #[test]
    fn failures_display() {
        let msgs = [
            GuardFailure::NonFinite { cycle: 2 }.to_string(),
            GuardFailure::Diverged {
                cycle: 5,
                growth: 12.0,
            }
            .to_string(),
            GuardFailure::Stagnated { cycle: 9 }.to_string(),
            GuardFailure::BudgetExhausted { cycles: 50 }.to_string(),
            GuardFailure::TimedOut { seconds: 1.25 }.to_string(),
            GuardFailure::BudgetUnreachable {
                cycle: 8,
                needed: 73,
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[0].contains("non-finite"));
        assert!(msgs[1].contains("diverged"));
        assert!(msgs[2].contains("stagnated"));
        assert!(msgs[5].contains("unreachable") && msgs[5].contains("73"));
    }

    /// The guard's verdict on the trajectory `r`, `r·ratio(1)`,
    /// `r·ratio(1)·ratio(2)`, …, with the cycle it was reached at.
    fn drive(
        cfg: GuardConfig,
        target: f64,
        mut r: f64,
        ratio: impl Fn(usize) -> f64,
    ) -> (GuardVerdict, usize) {
        let mut g = SolveGuard::new(cfg, target);
        loop {
            match g.observe(r) {
                GuardVerdict::Continue => r *= ratio(g.cycles()),
                verdict => return (verdict, g.cycles()),
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On geometric trajectories the projection never changes a
        /// success: whenever a budget-only check would converge, the
        /// guard converges at the same cycle; otherwise it fails no
        /// later than the budget. (ρ ≤ 0.99 keeps stagnation and
        /// divergence out of the picture.)
        #[test]
        fn projection_agrees_with_a_budget_only_reference(
            r0_exp in -3.0f64..3.0,
            rho in 0.01f64..0.99,
            target_exp in 1.0f64..14.0,
            max_cycles in 1usize..80,
        ) {
            let (r0, target) = (10f64.powf(r0_exp), 10f64.powf(-target_exp));
            let cfg = GuardConfig { max_cycles, ..GuardConfig::default() };
            let mut r = r0;
            let mut reference = None;
            for cycle in 1..=max_cycles {
                if r <= target {
                    reference = Some(cycle);
                    break;
                }
                r *= rho;
            }
            let (verdict, cycle) = drive(cfg, target, r0, |_| rho);
            match reference {
                Some(c) => prop_assert_eq!((verdict, cycle), (GuardVerdict::Converged, c)),
                None => {
                    prop_assert!(matches!(verdict, GuardVerdict::Fail(_)), "{verdict:?}");
                    prop_assert!(cycle <= max_cycles);
                }
            }
        }

        /// When the per-cycle contraction only ever rises (toward
        /// `rho_inf`, as a stationary iteration's does), `needed` is a
        /// true lower bound: the un-budgeted trajectory does not cross
        /// the target before `cycle + needed`.
        #[test]
        fn needed_is_a_lower_bound_under_rising_contraction(
            rho_0 in 0.01f64..0.9,
            rise in 0.0f64..1.0,
            decay in 0.1f64..0.95,
            target_exp in 1.0f64..14.0,
            max_cycles in 6usize..80,
        ) {
            let rho_inf = rho_0 + rise * (0.99 - rho_0);
            let ratio = |k: usize| rho_inf - (rho_inf - rho_0) * decay.powi(k as i32);
            let target = 10f64.powf(-target_exp);
            let cfg = GuardConfig { max_cycles, ..GuardConfig::default() };
            if let (GuardVerdict::Fail(GuardFailure::BudgetUnreachable { cycle, needed }), _) =
                drive(cfg, target, 1.0, ratio)
            {
                let unbudgeted = GuardConfig {
                    max_cycles: usize::MAX,
                    stagnation_window: usize::MAX - 1,
                    ..GuardConfig::default()
                };
                // Past the projection window only the budget can fail a
                // contracting trajectory, and there is none.
                let mut g = SolveGuard::new(unbudgeted, target);
                let mut r = 1.0;
                while g.observe(r) != GuardVerdict::Converged {
                    r *= ratio(g.cycles());
                }
                prop_assert!(cycle + needed <= g.cycles(), "{cycle}+{needed} > {}", g.cycles());
                prop_assert!(g.cycles() > max_cycles);
            }
        }
    }
}
