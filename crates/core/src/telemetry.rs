//! The solve-side telemetry feed: guarded-solve phases as metrics.
//!
//! [`SolveTelemetry`] pre-registers every metric family the guarded
//! solver reports into — served/failed/skipped counters per
//! degradation-ladder rung, ladder-memory re-probes by outcome, cycles
//! per family member at the serving rung, latency histograms for rung
//! attempts and residual checks, and per-level kernel-time histograms
//! fed from the executor's kernel clock (`ExecCtx::kernel_seconds`,
//! which the guarded solver arms). Handles are resolved once at
//! registration, so the per-solve observation path is a handful of
//! relaxed atomic adds with zero registry lookups and zero allocation.
//!
//! Attach one to a solver with [`crate::GuardedSolver::with_telemetry`].
//! Observation is gated on [`petamg_obs::enabled`] by the solver, not
//! here — tests may drive a `SolveTelemetry` directly.

use crate::guard::{Degradation, GuardedReport, LadderRung, SolveError};
use crate::plan::MAX_TIMED_LEVELS;
use petamg_obs::{Counter, Histogram, Registry};

/// Family members `petamg_cycle_member_total` tells apart (members
/// past the last slot accumulate into it). The paper's family has five.
const MAX_COUNTED_MEMBERS: usize = 8;

/// Pre-resolved metric handles for guarded-solve observation.
pub struct SolveTelemetry {
    served: [Counter; 3],
    cycle_member: [[Counter; MAX_COUNTED_MEMBERS]; 2],
    failed: [Counter; 3],
    skipped: [Counter; 3],
    attempt_seconds: [Histogram; 3],
    residual_check_seconds: Histogram,
    kernel_seconds: Vec<Histogram>,
    exhausted: Counter,
    /// Ladder-memory re-probes, by outcome: still failing, recovered.
    reprobe: [Counter; 2],
}

impl SolveTelemetry {
    /// Register the solve metric families in `registry` and resolve
    /// every handle this feed will ever touch.
    pub fn register(registry: &Registry) -> Self {
        let per_rung_counter = |name: &'static str| -> [Counter; 3] {
            LadderRung::ALL.map(|rung| registry.counter(name, &[("rung", rung.label())]))
        };
        SolveTelemetry {
            served: per_rung_counter("petamg_rung_served_total"),
            failed: per_rung_counter("petamg_rung_failed_total"),
            skipped: per_rung_counter("petamg_rung_skipped_total"),
            cycle_member: std::array::from_fn(|i| {
                std::array::from_fn(|member| {
                    registry.counter(
                        "petamg_cycle_member_total",
                        &[
                            ("rung", LadderRung::ALL[i].label()),
                            ("member", &member.to_string()),
                        ],
                    )
                })
            }),
            attempt_seconds: LadderRung::ALL.map(|rung| {
                registry.histogram("petamg_rung_attempt_seconds", &[("rung", rung.label())])
            }),
            residual_check_seconds: registry.histogram("petamg_residual_check_seconds", &[]),
            kernel_seconds: (0..MAX_TIMED_LEVELS)
                .map(|level| {
                    registry.histogram("petamg_kernel_seconds", &[("level", &level.to_string())])
                })
                .collect(),
            exhausted: registry.counter("petamg_ladder_exhausted_total", &[]),
            reprobe: ["still-failing", "recovered"].map(|outcome| {
                registry.counter("petamg_ladder_reprobe_total", &[("outcome", outcome)])
            }),
        }
    }

    /// Record a served guarded solve: the serving rung, its attempt
    /// time, every degradation along the way and the residual-check
    /// time.
    pub(crate) fn observe_report(&self, report: &GuardedReport) {
        self.served[report.rung.index()].inc();
        self.observe_members(report.rung, &report.members);
        self.attempt_seconds[report.rung.index()].record_seconds(report.rung_seconds);
        self.residual_check_seconds
            .record_seconds(report.residual_check_seconds);
        self.observe_degradations(&report.degradations);
    }

    /// Record a ladder-exhausted solve: every rung failed.
    pub(crate) fn observe_error(&self, err: &SolveError) {
        self.exhausted.inc();
        self.observe_degradations(&err.degradations);
    }

    /// Record one solve's kernel seconds per level, one sample for each
    /// level that ran a kernel.
    pub(crate) fn observe_kernels(&self, seconds: &[f64; MAX_TIMED_LEVELS]) {
        for (histogram, &seconds) in self.kernel_seconds.iter().zip(seconds) {
            if seconds > 0.0 {
                histogram.record_seconds(seconds);
            }
        }
    }

    /// Record a ladder-memory re-probe — a request that walked the
    /// whole ladder although its plan's memory was open — by whether the
    /// memory is still open after it.
    pub(crate) fn observe_reprobe(&self, still_failing: bool) {
        self.reprobe[usize::from(!still_failing)].inc();
    }

    /// One count per cycle of the serving rung, by the member that ran
    /// it. The direct rung runs no member.
    fn observe_members(&self, rung: LadderRung, members: &[u8]) {
        let Some(per_member) = self.cycle_member.get(rung.index()) else {
            return;
        };
        for &member in members {
            per_member[usize::from(member).min(MAX_COUNTED_MEMBERS - 1)].inc();
        }
    }

    /// A rung that ran and failed counts as a failure with an attempt
    /// sample; a rung skipped — as a replay, or as known to fail from
    /// the ladder memory — ran nothing, so it counts in
    /// `petamg_rung_skipped_total` alone — no failure, and no 0-second
    /// sample dragging the attempt histogram down.
    fn observe_degradations(&self, degradations: &[Degradation]) {
        for d in degradations {
            if d.reason.is_skip() {
                self.skipped[d.rung.index()].inc();
            } else {
                self.failed[d.rung.index()].inc();
                self.attempt_seconds[d.rung.index()].record_seconds(d.seconds);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardedSolver;
    use crate::training::{Distribution, ProblemInstance};
    use petamg_problems::Problem;
    use std::sync::Arc;

    #[test]
    fn served_solve_lands_in_every_family() {
        let registry = Arc::new(Registry::new());
        let telemetry = Arc::new(SolveTelemetry::register(&registry));
        let problem = Problem::poisson();
        let inst = ProblemInstance::random_for(&problem, 4, Distribution::UnbiasedUniform, 3);
        // The solver's built-in feed gates on the global telemetry
        // mode; drive the feed directly so this test is independent of
        // the environment (no `with_telemetry` here).
        let solver = GuardedSolver::new(problem);
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-8).expect("serves");
        telemetry.observe_report(&report);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("petamg_rung_served_total", &[("rung", "heuristic")]),
            1
        );
        assert_eq!(
            snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", "heuristic")]),
            1
        );
        assert_eq!(
            snap.histogram_count("petamg_residual_check_seconds", &[]),
            1
        );
        assert_eq!(snap.counter("petamg_ladder_exhausted_total", &[]), 0);
    }

    #[test]
    fn degradations_count_as_failures() {
        let registry = Registry::new();
        let telemetry = SolveTelemetry::register(&registry);
        let aniso = Problem::anisotropic(0.5);
        let inst = ProblemInstance::random_for(&aniso, 4, Distribution::UnbiasedUniform, 5);
        // A plan fingerprinted for Poisson is rejected for aniso.
        let fam = crate::plan::simple_v_family(4, &crate::plan::PAPER_ACCURACIES);
        let solver = GuardedSolver::new(aniso).with_plan(fam);
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-8).expect("serves");
        telemetry.observe_report(&report);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("petamg_rung_failed_total", &[("rung", "tuned")]),
            1
        );
        assert_eq!(
            snap.counter("petamg_rung_served_total", &[("rung", "heuristic")]),
            1
        );
    }

    #[test]
    fn a_skipped_rung_is_neither_a_failure_nor_an_attempt() {
        let registry = Registry::new();
        let telemetry = SolveTelemetry::register(&registry);
        // The stamped simple family fails the jump profile on a guard
        // verdict, so the heuristic rung is skipped as its replay.
        let problem = Problem::jump_inclusion(65);
        let mut fam = crate::plan::simple_v_family(6, &crate::plan::PAPER_ACCURACIES);
        fam.problem = problem.fingerprint().clone();
        let inst = ProblemInstance::random_for(&problem, 6, Distribution::UnbiasedUniform, 9);
        let solver = GuardedSolver::new(problem).with_plan(fam);
        let mut x = inst.working_grid();
        let report = solver.solve(&mut x, &inst.b, 1e-8).expect("direct serves");
        assert!(report.degradations[1].reason.is_skip());
        telemetry.observe_report(&report);
        let snap = registry.snapshot();
        let count = |name, rung| snap.counter(name, &[("rung", rung)]);
        let attempts =
            |rung| snap.histogram_count("petamg_rung_attempt_seconds", &[("rung", rung)]);
        assert_eq!(count("petamg_rung_failed_total", "tuned"), 1);
        assert_eq!(count("petamg_rung_failed_total", "heuristic"), 0);
        assert_eq!(count("petamg_rung_skipped_total", "heuristic"), 1);
        assert_eq!(count("petamg_rung_skipped_total", "tuned"), 0);
        assert_eq!(count("petamg_rung_served_total", "direct"), 1);
        assert_eq!(
            (attempts("tuned"), attempts("heuristic"), attempts("direct")),
            (1, 0, 1)
        );
    }

    /// The member counters add up to the cycles the reports list.
    #[test]
    fn member_counters_reconcile_with_report_members() {
        let registry = Registry::new();
        let telemetry = SolveTelemetry::register(&registry);
        let problem = Problem::poisson();
        let solver = GuardedSolver::new(problem.clone());
        let reports: Vec<GuardedReport> = [1e-4, 1e-8, 1e-10, 1e-8]
            .into_iter()
            .zip([20, 21, 22, 20])
            .map(|(tol, seed)| {
                let inst =
                    ProblemInstance::random_for(&problem, 4, Distribution::UnbiasedUniform, seed);
                let mut x = inst.working_grid();
                solver.solve(&mut x, &inst.b, tol).expect("serves")
            })
            .collect();
        for report in &reports {
            telemetry.observe_report(report);
        }

        let snap = registry.snapshot();
        let listed: usize = reports.iter().map(|r| r.members.len()).sum();
        assert!(listed > 4);
        assert_eq!(
            snap.counter("petamg_cycle_member_total", &[("rung", "heuristic")]),
            listed as u64
        );
        assert_eq!(
            snap.counter("petamg_cycle_member_total", &[("member", "4")]),
            reports
                .iter()
                .flat_map(|r| &r.members)
                .filter(|&&m| m == 4)
                .count() as u64
        );
        assert_eq!(
            snap.counter("petamg_rung_served_total", &[("rung", "heuristic")]),
            4
        );
    }
}
