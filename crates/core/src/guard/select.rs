//! Member selection: which family member each guarded cycle runs, and
//! the record of the cycles that ran.

use crate::plan::TunedFamily;
use petamg_solvers::{GuardFailure, GuardVerdict, SolveGuard};

/// The family member a follow-up cycle runs: the cheapest one whose
/// tuned accuracy `p_i` covers the reduction still `need`ed
/// (`rel / tol`), but no member below `floor` — and the top member when
/// nothing sub-top qualifies.
pub(crate) fn select_member(fam: &TunedFamily, need: f64, floor: usize) -> usize {
    fam.acc_index_for(need)
        .max(floor)
        .min(fam.num_accuracies() - 1)
}

/// A converged guarded iteration, as the serving rung's report carries
/// it: `members[c]` ran cycle `c` and left `history[c]`.
pub(super) struct Trajectory {
    pub(super) history: Vec<f64>,
    pub(super) members: Vec<u8>,
}

/// Which member each cycle of one guarded iteration runs.
///
/// Cycle 1 runs the top member: no residual is known yet. Every later
/// cycle runs [`select_member`] of what the last observation left to
/// do. A sub-top member that was given the job and missed is not asked
/// again, nor is anything weaker (`floor`), so an iteration spends at
/// most `m − 1` sub-top cycles — each cheaper than a top cycle — before
/// it is back on the top member for good.
#[derive(Default)]
pub(super) struct MemberWalk {
    floor: usize,
    members: Vec<u8>,
}

impl MemberWalk {
    /// The member the next cycle runs.
    pub(super) fn next(&self, fam: &TunedFamily, guard: &SolveGuard) -> usize {
        match guard.history().last() {
            None => fam.num_accuracies() - 1,
            Some(rel) => select_member(fam, rel / guard.target(), self.floor),
        }
    }

    /// Record that `member` ran and left `rel`; the guard's verdict,
    /// except that a budget projection drawn from weaker members than
    /// the one about to run is not acted on. The projection's ρ is the
    /// best contraction of the last four cycles, which bounds the cycles
    /// still needed from below only while the cycles to come are no
    /// stronger than the ones observed.
    pub(super) fn observe(
        &mut self,
        fam: &TunedFamily,
        guard: &mut SolveGuard,
        member: usize,
        rel: f64,
    ) -> GuardVerdict {
        self.members
            .push(u8::try_from(member).expect("an admitted family has at most 256 members"));
        let verdict = guard.observe(rel);
        if verdict != GuardVerdict::Converged && member + 1 < fam.num_accuracies() {
            self.floor = member + 1;
        }
        match verdict {
            GuardVerdict::Fail(GuardFailure::BudgetUnreachable { .. })
                if self.next(fam, guard) > member =>
            {
                GuardVerdict::Continue
            }
            verdict => verdict,
        }
    }

    /// The converged iteration's record.
    pub(super) fn finish(self, guard: &SolveGuard) -> Trajectory {
        Trajectory {
            history: guard.history().to_vec(),
            members: self.members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{simple_v_family, PAPER_ACCURACIES};

    /// A budget projection drawn from members weaker than the one about
    /// to run is not acted on; once the top member has run, it is. Fed
    /// the same trajectory — 9.5x above the target, then 1 % better per
    /// cycle — a bare guard projects its budget unreachable at cycle 5.
    #[test]
    fn a_projection_from_weaker_members_is_not_acted_on() {
        let fam = simple_v_family(5, &PAPER_ACCURACIES);
        let tol = 1e-8;
        let trajectory: Vec<f64> = (0..6).map(|c| 9.5 * tol * 0.99f64.powi(c)).collect();
        let mut bare = SolveGuard::new(tol);
        let bare_verdicts: Vec<GuardVerdict> =
            trajectory.iter().map(|&rel| bare.observe(rel)).collect();
        assert!(
            matches!(
                bare_verdicts[4],
                GuardVerdict::Fail(GuardFailure::BudgetUnreachable { cycle: 5, .. })
            ),
            "{bare_verdicts:?}"
        );

        let mut guard = SolveGuard::new(tol);
        let mut walk = MemberWalk::default();
        let verdicts: Vec<GuardVerdict> = trajectory
            .iter()
            .map(|&rel| {
                let member = walk.next(&fam, &guard);
                walk.observe(&fam, &mut guard, member, rel)
            })
            .collect();
        assert_eq!(walk.members, [4, 0, 1, 2, 3, 4]);
        assert_eq!(verdicts[..5], [GuardVerdict::Continue; 5]);
        assert_eq!(verdicts[5], bare_verdicts[5]);
        assert!(
            matches!(
                verdicts[5],
                GuardVerdict::Fail(GuardFailure::BudgetUnreachable { cycle: 6, .. })
            ),
            "{verdicts:?}"
        );
    }
}
