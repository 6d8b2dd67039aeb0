//! The ladder memory: per level, the rung that served a resident plan's
//! last requests and the verdicts above it (see "What the service
//! remembers" in the [module docs](super)).

use super::{replays_identically, FailureKind, GuardedReport, LadderRung, SolveError};
use petamg_solvers::GuardFailure;
use std::sync::Mutex;

/// Consecutive covered requests that must end on the same rung below
/// the tuned one before later requests start there.
const KNOWN_AFTER: u32 = 3;

/// While a level's memory is open, every this-many-th covered request
/// walks the whole ladder again.
const REPROBE_EVERY: u32 = 64;

/// The verdicts remembered for the two plan rungs (tuned, heuristic):
/// `Some` exactly for the rungs above the remembered one.
type Verdicts = [Option<GuardFailure>; 2];

/// What one level's recent requests showed.
#[derive(Clone, Copy)]
struct LevelMemory {
    /// Consecutive covered requests that ended on `rung` with only
    /// replayable verdicts above it; 0 when nothing is remembered.
    streak: u32,
    rung: LadderRung,
    verdicts: Verdicts,
    /// The tightest `tol` of the streak: what it covers.
    tol: f64,
    /// Covered requests since the memory opened or last re-probed.
    since_probe: u32,
}

impl LevelMemory {
    const EMPTY: LevelMemory = LevelMemory {
        streak: 0,
        rung: LadderRung::TunedPlan,
        verdicts: [None; 2],
        tol: f64::INFINITY,
        since_probe: 0,
    };

    fn open(&self) -> bool {
        self.streak >= KNOWN_AFTER
    }
}

/// How a request enters the ladder, as its solver's memory decides.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Admission {
    /// No memory, or a request looser than the streak: the whole
    /// ladder, and the memory is not told.
    Unremembered,
    /// The whole ladder; the outcome is remembered.
    Walk,
    /// The whole ladder although the memory is open; the outcome is
    /// remembered and counted as a re-probe.
    Reprobe,
    /// Start at this rung, the rungs above it known to fail.
    StartAt(LadderRung, Verdicts),
}

/// What a resident plan's ladder did for the requests before: per
/// level, the rung that served them and the deterministic verdicts of
/// the rungs above it. See "What the service remembers" in the [module
/// docs](super). One memory belongs to one plan object and is shared by every
/// solver built over that plan.
#[derive(Default)]
pub struct LadderMemory {
    /// Indexed by level, grown on demand.
    levels: Mutex<Vec<LevelMemory>>,
}

impl LadderMemory {
    /// An empty memory: the next requests walk the whole ladder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether requests at some level currently start below the tuned
    /// rung.
    pub fn is_open(&self) -> bool {
        self.lock().iter().any(LevelMemory::open)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<LevelMemory>> {
        self.levels
            .lock()
            .expect("no code path panics while holding the ladder memory")
    }

    /// Decide how a request at `level` to `tol` enters the ladder.
    pub(super) fn admit(&self, level: usize, tol: f64) -> Admission {
        let mut levels = self.lock();
        if levels.len() <= level {
            levels.resize(level + 1, LevelMemory::EMPTY);
        }
        let m = &mut levels[level];
        let covered = tol <= m.tol;
        if !covered {
            return Admission::Unremembered;
        }
        if !m.open() {
            return Admission::Walk;
        }
        m.since_probe += 1;
        if m.since_probe == REPROBE_EVERY {
            m.since_probe = 0;
            Admission::Reprobe
        } else {
            Admission::StartAt(m.rung, m.verdicts)
        }
    }

    /// Take in how the request admitted as `admission` ended. Returns
    /// whether the level's memory is open afterwards.
    pub(super) fn settle(
        &self,
        level: usize,
        tol: f64,
        admission: Admission,
        result: Result<&GuardedReport, &SolveError>,
    ) -> bool {
        let mut levels = self.lock();
        let m = &mut levels[level];
        match admission {
            Admission::Unremembered => {}
            // The remembered rung served again: nothing new. Anything
            // else and what was remembered no longer holds.
            Admission::StartAt(rung, _) => {
                if !result.is_ok_and(|report| report.rung == rung) {
                    *m = LevelMemory::EMPTY;
                }
            }
            Admission::Walk | Admission::Reprobe => {
                match result.ok().and_then(replayable_outcome) {
                    Some((rung, verdicts)) if m.streak > 0 && m.rung == rung => {
                        m.streak = m.streak.saturating_add(1);
                        m.verdicts = verdicts;
                        m.tol = m.tol.min(tol);
                    }
                    Some((rung, verdicts)) => {
                        *m = LevelMemory {
                            streak: 1,
                            rung,
                            verdicts,
                            tol,
                            since_probe: 0,
                        }
                    }
                    None => *m = LevelMemory::EMPTY,
                }
            }
        }
        m.open()
    }
}

/// What a full walk's report leaves to remember: the serving rung and
/// the verdicts above it, when the rung is below the tuned one and
/// every rung above failed (or was skipped as the replay of a failure)
/// on a verdict that [`replays_identically`].
fn replayable_outcome(report: &GuardedReport) -> Option<(LadderRung, Verdicts)> {
    let mut verdicts = [None; 2];
    for d in &report.degradations {
        match d.reason {
            FailureKind::Guard(g) | FailureKind::SameScheduleAsFailed(g)
                if replays_identically(&g) =>
            {
                // Only the two plan rungs ever end on a guard verdict.
                verdicts[d.rung.index()] = Some(g);
            }
            _ => return None,
        }
    }
    (report.rung != LadderRung::TunedPlan).then_some((report.rung, verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{self, Fault};
    use crate::guard::tests::remembering_solver;
    use crate::guard::Degradation;
    use crate::plan::{simple_v_family, PAPER_ACCURACIES};
    use crate::OpCounts;
    use petamg_problems::Problem;
    use std::sync::Arc;

    /// What each rung would do with one generated request, and the
    /// verdict a failing plan rung ends on.
    #[derive(Clone, Copy, Debug)]
    struct World {
        serves: [bool; 3],
        verdict: GuardFailure,
    }

    /// The ladder `GuardedSolver::walk` implements, with `world`
    /// standing in for the arithmetic.
    fn simulated_walk(world: World, admission: Admission) -> Result<GuardedReport, SolveError> {
        let mut degradations = Vec::new();
        let mut first = 0;
        if let Admission::StartAt(rung, verdicts) = admission {
            first = rung.index();
            for (rung, g) in LadderRung::ALL
                .into_iter()
                .zip(verdicts.into_iter().flatten())
            {
                degradations.push(Degradation {
                    rung,
                    reason: FailureKind::KnownToFail(g),
                    seconds: 0.0,
                });
            }
        }
        for i in (first..3).chain(0..first) {
            if i == 0 && first > 0 {
                degradations.retain(|d| !matches!(d.reason, FailureKind::KnownToFail(_)));
            }
            if world.serves[i] {
                return Ok(GuardedReport {
                    rung: LadderRung::ALL[i],
                    rel_residual: 0.0,
                    residual_history: Vec::new(),
                    members: Vec::new(),
                    degradations,
                    seconds: 0.0,
                    rung_seconds: 0.0,
                    residual_check_seconds: 0.0,
                    ops: OpCounts::default(),
                    events: Vec::new(),
                });
            }
            degradations.push(Degradation {
                rung: LadderRung::ALL[i],
                reason: if LadderRung::ALL[i] == LadderRung::Direct {
                    FailureKind::DirectFactorization("generated".into())
                } else {
                    FailureKind::Guard(world.verdict)
                },
                seconds: 1.0,
            });
        }
        Err(SolveError { degradations })
    }

    /// The reference model of one level's memory.
    struct Model {
        streak: u32,
        rung: LadderRung,
        tol: f64,
        since_probe: u32,
    }

    impl Model {
        const EMPTY: Model = Model {
            streak: 0,
            rung: LadderRung::TunedPlan,
            tol: f64::INFINITY,
            since_probe: 0,
        };

        /// The rung a request that may use the memory must be started
        /// at (`None`: the whole ladder), and whether that walk is a
        /// re-probe; then the state after it.
        fn step(&mut self, world: World, tol: f64) -> (Option<LadderRung>, bool) {
            if tol > self.tol {
                return (None, false);
            }
            let open = self.streak >= KNOWN_AFTER;
            if open {
                self.since_probe += 1;
            }
            let reprobe = open && self.since_probe == REPROBE_EVERY;
            if open && !reprobe {
                if !world.serves[self.rung.index()] {
                    *self = Model::EMPTY;
                    return (Some(LadderRung::TunedPlan), false);
                }
                return (Some(self.rung), false);
            }
            if reprobe {
                self.since_probe = 0;
            }
            let served = world.serves.iter().position(|&s| s);
            match served {
                Some(i) if i > 0 && replays_identically(&world.verdict) => {
                    if self.streak > 0 && self.rung == LadderRung::ALL[i] {
                        self.streak += 1;
                        self.tol = self.tol.min(tol);
                    } else {
                        *self = Model {
                            streak: 1,
                            rung: LadderRung::ALL[i],
                            tol,
                            since_probe: 0,
                        };
                    }
                }
                _ => *self = Model::EMPTY,
            }
            (None, reprobe)
        }
    }

    /// Runs of identical requests: (what the rungs do, tolerance,
    /// how the request is made, how many times).
    fn arb_traffic() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u8, u8, u32)>> {
        use proptest::prelude::*;
        prop::collection::vec((0u8..12, 0u8..3, 0u8..6, 1u32..90), 1..10)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The memory against its model over generated traffic: which
        /// requests start low and where, which walk the whole ladder,
        /// which of those are re-probes, and whether the memory is open
        /// after each — with traced and fault-armed requests changing
        /// nothing.
        #[test]
        fn ladder_memory_follows_its_model(traffic in arb_traffic()) {
            use proptest::prelude::*;
            faults::clear();
            let level = 3;
            let memory = Arc::new(LadderMemory::new());
            let fam = simple_v_family(level, &PAPER_ACCURACIES);
            let solver = remembering_solver(&Problem::poisson(), &fam, &memory);
            let traced = remembering_solver(&Problem::poisson(), &fam, &memory).with_tracing();
            let mut model = Model::EMPTY;
            for (outcome, tol, how, repeat) in traffic {
                let world = match outcome {
                    0 => World { serves: [true; 3], verdict: GuardFailure::Stagnated { cycle: 9 } },
                    1 => World { serves: [false, true, true], verdict: GuardFailure::Diverged { cycle: 4, growth: 3.0 } },
                    2 => World { serves: [false, false, true], verdict: GuardFailure::NonFinite { cycle: 1 } },
                    3 => World { serves: [false; 3], verdict: GuardFailure::BudgetExhausted { cycles: 50 } },
                    _ => World { serves: [false, false, true], verdict: GuardFailure::BudgetUnreachable { cycle: 5, needed: 80 } },
                };
                let tol = [1e-6, 1e-8, 1e-10][usize::from(tol)];
                for _ in 0..repeat {
                    let mut admitted = None;
                    let walk = |admission| {
                        admitted = Some(admission);
                        simulated_walk(world, admission)
                    };
                    match how {
                        0 => {
                            let _ = traced.remembering(level, tol, walk);
                            prop_assert_eq!(admitted, Some(Admission::Unremembered));
                        }
                        1 => {
                            faults::inject(Fault::FailDirect { n: 3 });
                            let _ = solver.remembering(level, tol, walk);
                            faults::clear();
                            prop_assert_eq!(admitted, Some(Admission::Unremembered));
                        }
                        _ => {
                            let was_covered = tol <= model.tol;
                            let was_open = model.streak >= KNOWN_AFTER;
                            let (start, reprobe) = model.step(world, tol);
                            let result = solver.remembering(level, tol, walk);
                            match admitted.expect("the walk ran") {
                                Admission::Unremembered => prop_assert!(!was_covered),
                                Admission::Walk => prop_assert!(was_covered && !was_open),
                                Admission::Reprobe => prop_assert!(reprobe),
                                Admission::StartAt(rung, _) => {
                                    prop_assert!(was_open && !reprobe);
                                    // Served where the memory said, or
                                    // (rule 4) after every rung was tried.
                                    match start {
                                        Some(LadderRung::TunedPlan) => {
                                            prop_assert!(!world.serves[rung.index()]);
                                            if let Err(e) = &result {
                                                prop_assert_eq!(e.degradations.len(), 3);
                                                prop_assert!(e.degradations.iter().all(|d| !d.reason.is_skip()));
                                            }
                                        }
                                        other => {
                                            prop_assert_eq!(other, Some(rung));
                                            prop_assert_eq!(result.map(|r| r.rung).ok(), Some(rung));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    prop_assert_eq!(memory.is_open(), model.streak >= KNOWN_AFTER);
                }
            }
        }
    }

    /// The two constants, exactly: open after the third covered
    /// failure, re-probe on every 64th covered request from there.
    #[test]
    fn opens_after_three_and_reprobes_every_sixty_fourth() {
        faults::clear();
        let level = 3;
        let memory = Arc::new(LadderMemory::new());
        let fam = simple_v_family(level, &PAPER_ACCURACIES);
        let solver = remembering_solver(&Problem::poisson(), &fam, &memory);
        let world = World {
            serves: [false, false, true],
            verdict: GuardFailure::BudgetUnreachable {
                cycle: 5,
                needed: 80,
            },
        };
        let mut full_walks = Vec::new();
        for request in 1..=200u32 {
            solver
                .remembering(level, 1e-8, |admission| {
                    match admission {
                        Admission::Walk | Admission::Reprobe => full_walks.push(request),
                        Admission::StartAt(rung, _) => assert_eq!(rung, LadderRung::Direct),
                        Admission::Unremembered => panic!("every request is covered"),
                    }
                    simulated_walk(world, admission)
                })
                .expect("direct serves");
            assert_eq!(memory.is_open(), request >= 3, "request {request}");
        }
        assert_eq!(full_walks, [1, 2, 3, 3 + 64, 3 + 128, 3 + 192]);

        // The tuned rung serving a re-probe closes it.
        let healthy = World {
            serves: [true; 3],
            ..world
        };
        for _ in 0..REPROBE_EVERY {
            solver
                .remembering(level, 1e-8, |admission| simulated_walk(healthy, admission))
                .expect("serves");
        }
        assert!(!memory.is_open());
    }
}
