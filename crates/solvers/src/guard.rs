//! Solve guards: cheap per-cycle failure detection and a cycle budget.
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
//! The guard is one fixed policy: a 50-cycle budget, divergence at 10×
//! growth over 3 cycles, stagnation at under 1 % improvement over 8
//! cycles, and a budget projection over the last 4 contractions. Its
//! thresholds are constants, and it reads no clock, so every verdict is
//! a pure function of the observed residuals — the paper's
//! `MULTIGRID-V_i` likewise iterates "until accuracy `p_i`", a rule that
//! depends on the arithmetic alone.
//!
//! The tuned-plan executor in `petamg-core` (which depends on this
//! crate) threads it through its cycle loop; `petamg-core`'s `guard`
//! module layers the degradation ladder and the full `SolveError`
//! taxonomy on top.

/// Outcome of a bounded iteration: did it meet its target, and how many
/// cycles did it spend? A bare cycle count would not tell converging on
/// exactly the last budgeted cycle from running out of budget.
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
    /// The residual grew tenfold or more over the last three cycles.
    Diverged {
        /// Cycle (1-based) at which divergence was declared.
        cycle: usize,
        /// Residual growth ratio over the window.
        growth: f64,
    },
    /// The residual improved by less than 1 % over the last eight
    /// cycles (without growing enough to be divergence).
    Stagnated {
        /// Cycle (1-based) at which stagnation was declared.
        cycle: usize,
    },
    /// The 50-cycle budget ran out above the target.
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

/// Cycle budget: observations before [`GuardFailure::BudgetExhausted`].
const MAX_CYCLES: usize = 50;

/// Residual growth over [`DIVERGENCE_WINDOW`] cycles that counts as
/// divergence.
const DIVERGENCE_FACTOR: f64 = 10.0;

/// Cycles over which residual growth is judged.
const DIVERGENCE_WINDOW: usize = 3;

/// Least fractional improvement over [`STAGNATION_WINDOW`] cycles that
/// is not stagnation.
const STAGNATION_EPSILON: f64 = 0.01;

/// Cycles over which stagnation is judged.
const STAGNATION_WINDOW: usize = 8;

/// Per-cycle contractions the budget projection looks back over: the
/// rule has one correct setting per iteration class, and the ladder
/// only runs stationary iterations.
const PROJECTION_WINDOW: usize = 4;

/// Watches a relative-residual trajectory and turns failure modes into
/// typed verdicts. One [`SolveGuard::observe`] call per cycle.
#[derive(Clone, Debug)]
pub struct SolveGuard {
    target: f64,
    history: Vec<f64>,
}

impl SolveGuard {
    /// A guard that declares convergence when the observed relative
    /// residual drops to `target` or below.
    pub fn new(target: f64) -> Self {
        SolveGuard {
            target,
            history: Vec::new(),
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
    /// budget projection, cycle budget — so a cycle that both converges
    /// and exhausts the budget reports convergence.
    ///
    /// The projection takes the *smallest* per-cycle contraction ρ of
    /// the last four cycles and fails with
    /// [`GuardFailure::BudgetUnreachable`] when `ln(target/rel) / ln ρ`
    /// exceeds the cycles the budget has left. The contraction of a
    /// stationary iteration rises toward its asymptotic rate, so the
    /// most optimistic recent ρ bounds the cycles still needed from
    /// below: only trajectories that would have run into
    /// [`GuardFailure::BudgetExhausted`] anyway are failed, earlier.
    pub fn observe(&mut self, rel_residual: f64) -> GuardVerdict {
        self.history.push(rel_residual);
        let cycle = self.history.len();
        if !rel_residual.is_finite() {
            return GuardVerdict::Fail(GuardFailure::NonFinite { cycle });
        }
        if rel_residual <= self.target {
            return GuardVerdict::Converged;
        }
        if cycle > DIVERGENCE_WINDOW {
            let base = self.history[cycle - 1 - DIVERGENCE_WINDOW];
            if base > 0.0 && rel_residual >= base * DIVERGENCE_FACTOR {
                return GuardVerdict::Fail(GuardFailure::Diverged {
                    cycle,
                    growth: rel_residual / base,
                });
            }
        }
        if cycle > STAGNATION_WINDOW {
            let base = self.history[cycle - 1 - STAGNATION_WINDOW];
            if rel_residual >= base * (1.0 - STAGNATION_EPSILON) {
                return GuardVerdict::Fail(GuardFailure::Stagnated { cycle });
            }
        }
        if cycle > PROJECTION_WINDOW && cycle < MAX_CYCLES {
            let rho = self.history[cycle - 1 - PROJECTION_WINDOW..]
                .windows(2)
                .map(|w| w[1] / w[0])
                .fold(f64::INFINITY, f64::min);
            if rho > 0.0 && rho < 1.0 {
                // Shaved by a hair so rounding in the two logarithms
                // cannot push an exactly-on-budget trajectory over.
                let needed = ((self.target / rel_residual).ln() / rho.ln() * (1.0 - 1e-9)).ceil();
                if needed > (MAX_CYCLES - cycle) as f64 {
                    return GuardVerdict::Fail(GuardFailure::BudgetUnreachable {
                        cycle,
                        needed: needed as usize,
                    });
                }
            }
        }
        if cycle >= MAX_CYCLES {
            return GuardVerdict::Fail(GuardFailure::BudgetExhausted { cycles: cycle });
        }
        GuardVerdict::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converging_trajectory_is_clean() {
        // Halving is exact in binary, so the cycle count is too:
        // observations 2^0 .. 2^-10, and 2^-10 < 1e-3 converges.
        let mut g = SolveGuard::new(1e-3);
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
        let mut g = SolveGuard::new(1e-10);
        assert_eq!(
            g.observe(f64::NAN),
            GuardVerdict::Fail(GuardFailure::NonFinite { cycle: 1 })
        );
        let mut g = SolveGuard::new(1e-10);
        assert_eq!(g.observe(0.5), GuardVerdict::Continue);
        assert_eq!(
            g.observe(f64::INFINITY),
            GuardVerdict::Fail(GuardFailure::NonFinite { cycle: 2 })
        );
    }

    #[test]
    fn divergence_fires_on_growth_over_window() {
        let mut g = SolveGuard::new(1e-10);
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
        let mut g = SolveGuard::new(1e-10);
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
        let mut g = SolveGuard::new(1e-10);
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
        let mut g = SolveGuard::new(1e-30);
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
        // Halving from 1.0 first drops to 2^-49 at observation 50, the
        // budget's last cycle: the projection must stay quiet (45 more
        // cycles needed at cycle 5, 45 left), and a target one halving
        // further must fail at cycle 5 rather than at the cap.
        let halving = |c: i32| drive(2f64.powi(-c), 1.0, |_| 0.5);
        assert_eq!(halving(49), (GuardVerdict::Converged, 50));
        assert_eq!(
            halving(50),
            (
                GuardVerdict::Fail(GuardFailure::BudgetUnreachable {
                    cycle: 5,
                    needed: 46
                }),
                5
            )
        );
    }

    #[test]
    fn budget_counts_cycles() {
        // Halving to 2^-42 at observation 43, twice the target, then
        // exactly flat: ρ = 1 keeps the projection quiet, and the
        // seven-cycle stall is shorter than the stagnation window, so
        // only the cycle budget can end it.
        let (verdict, cycles) = drive(2f64.powi(-43), 1.0, |c| if c < 43 { 0.5 } else { 1.0 });
        assert_eq!(
            (verdict, cycles),
            (
                GuardVerdict::Fail(GuardFailure::BudgetExhausted { cycles: 50 }),
                50
            )
        );
    }

    #[test]
    fn convergence_beats_budget_on_the_last_cycle() {
        let mut g = SolveGuard::new(2f64.powi(-49));
        let mut r = 1.0;
        for _ in 1..MAX_CYCLES {
            assert_eq!(g.observe(r), GuardVerdict::Continue);
            r *= 0.5;
        }
        assert_eq!(g.observe(r), GuardVerdict::Converged);
        assert_eq!(g.cycles(), MAX_CYCLES);
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
        assert!(msgs[3].contains("exhausted"));
        assert!(msgs[4].contains("unreachable") && msgs[4].contains("73"));
    }

    /// The guard's verdict on the trajectory `r`, `r·ratio(1)`,
    /// `r·ratio(1)·ratio(2)`, …, with the cycle it was reached at.
    fn drive(target: f64, mut r: f64, ratio: impl Fn(usize) -> f64) -> (GuardVerdict, usize) {
        let mut g = SolveGuard::new(target);
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
        ) {
            let (r0, target) = (10f64.powf(r0_exp), 10f64.powf(-target_exp));
            let mut r = r0;
            let mut reference = None;
            for cycle in 1..=MAX_CYCLES {
                if r <= target {
                    reference = Some(cycle);
                    break;
                }
                r *= rho;
            }
            let (verdict, cycle) = drive(target, r0, |_| rho);
            match reference {
                Some(c) => prop_assert_eq!((verdict, cycle), (GuardVerdict::Converged, c)),
                None => {
                    prop_assert!(matches!(verdict, GuardVerdict::Fail(_)), "{verdict:?}");
                    prop_assert!(cycle <= MAX_CYCLES);
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
        ) {
            let rho_inf = rho_0 + rise * (0.99 - rho_0);
            let ratio = |k: usize| rho_inf - (rho_inf - rho_0) * decay.powi(k as i32);
            let target = 10f64.powf(-target_exp);
            if let (GuardVerdict::Fail(GuardFailure::BudgetUnreachable { cycle, needed }), _) =
                drive(target, 1.0, ratio)
            {
                // The same trajectory with no checks at all: the cycle
                // it first reaches the target at.
                let (mut crossing, mut r) = (1, 1.0);
                while r > target {
                    r *= ratio(crossing);
                    crossing += 1;
                }
                prop_assert!(cycle + needed <= crossing, "{cycle}+{needed} > {crossing}");
                prop_assert!(crossing > MAX_CYCLES);
            }
        }
    }
}
