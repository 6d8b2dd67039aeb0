//! The *full* dynamic-programming variant of §2.2: instead of keeping
//! only the fastest algorithm per discrete accuracy target, keep the
//! whole **Pareto-optimal set** `A_k` of algorithms — those not
//! dominated in both accuracy and compute time — and build `A_k` by
//! substituting every member of `A_{k−1}` into the recursive step with
//! varying iteration counts.
//!
//! It is the reference the Fig 2 test checks the discrete DP against:
//! the member the main tuner remembers for each cutoff `p_i` must cost
//! no more than the cheapest member of this set that reaches `p_i`.
//!
//! It runs its candidates through the one plan executor, as the main
//! tuner does: a direct solve is `ExecCtx::direct`, `SOR×t` is
//! `ExecCtx::sor_solve`, and `RECURSE×t` is `ExecCtx::recurse` with the
//! member of `A_{k−1}` it recurses into as the coarse solve. Costs are
//! priced from the operations the context counts.

use super::TunerOptions;
use crate::accuracy::{ratio_of_errors, ACC_CAP};
use crate::cost::OpCounts;
use crate::plan::ExecCtx;
use crate::trace::CycleEvent;
use petamg_grid::{l2_diff, Grid2d, SimdMode, Workspace};
use petamg_solvers::DirectSolverCache;
use std::sync::Arc;

/// Indices of the Pareto-optimal (non-dominated) points: no other point
/// has both `cost <=` and `accuracy >=` (with at least one strict).
fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    // Sort by cost ascending, accuracy descending for ties.
    idx.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[b].1.total_cmp(&points[a].1))
    });
    let mut front = Vec::new();
    let mut best_acc = f64::NEG_INFINITY;
    for &i in &idx {
        if points[i].1 > best_acc {
            front.push(i);
            best_acc = points[i].1;
        }
    }
    front.sort_unstable();
    front
}

/// One member of a level's optimal set `A_k`. The recursive structure is
/// an index into the previous level's set, so a full algorithm is a path
/// through the per-level sets.
#[derive(Clone, Debug)]
pub struct ParetoAlgo {
    /// How this algorithm computes its level.
    pub(crate) kind: ParetoKind,
    /// Measured accuracy on training data.
    pub accuracy: f64,
    /// Cost (modeled seconds).
    pub cost: f64,
}

/// Algorithm structure of a Pareto-set member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ParetoKind {
    /// Direct solve.
    Direct,
    /// `iterations` SOR(ω_opt) sweeps.
    Sor {
        /// Sweep count.
        iterations: u32,
    },
    /// `iterations` cycles recursing into `A_{k-1}[sub_index]`.
    Recurse {
        /// Index into the previous level's optimal set.
        sub_index: usize,
        /// Cycle count.
        iterations: u32,
    },
}

/// The full-DP tuner: builds Pareto sets level by level.
pub struct ParetoTuner {
    opts: TunerOptions,
    /// Cap on the size of each level's optimal set (the paper notes the
    /// exact sets "can grow to be very large"; we thin to this cap).
    pub set_cap: usize,
    /// Iteration counts sampled for SOR candidates (accuracy recorded at
    /// each): powers of two up to this bound.
    pub max_sor_probe: u32,
    /// Max cycle count probed for recursive candidates.
    pub max_recurse_probe: u32,
    cache: Arc<DirectSolverCache>,
    /// One scratch arena for every counting context (see
    /// [`ParetoTuner::ctx`]).
    workspace: Arc<Workspace>,
}

impl ParetoTuner {
    /// Build with defaults (`set_cap = 24`).
    pub fn new(opts: TunerOptions) -> Self {
        ParetoTuner {
            opts,
            set_cap: 24,
            max_sor_probe: 512,
            max_recurse_probe: 12,
            cache: Arc::new(DirectSolverCache::new()),
            workspace: Arc::new(Workspace::new()),
        }
    }

    /// Build the optimal sets for levels `1..=max_level`.
    pub fn tune(&self) -> Vec<Vec<ParetoAlgo>> {
        let mut sets: Vec<Vec<ParetoAlgo>> = vec![Vec::new(); self.opts.max_level + 1];
        sets[1] = vec![ParetoAlgo {
            kind: ParetoKind::Direct,
            accuracy: ACC_CAP,
            cost: self.direct_cost(1),
        }];
        for k in 2..=self.opts.max_level {
            let candidates = self.enumerate_level(k, &sets);
            sets[k] = self.prune(candidates);
        }
        sets
    }

    /// All candidate algorithms (with measured accuracy/cost) at level
    /// `k`, given the sets below.
    fn enumerate_level(&self, k: usize, sets: &[Vec<ParetoAlgo>]) -> Vec<ParetoAlgo> {
        let instances = super::solved_training_set(&self.opts, k, &self.cache);
        let mode = SimdMode::host();
        let mut out = Vec::new();

        // Direct.
        out.push(ParetoAlgo {
            kind: ParetoKind::Direct,
            accuracy: ACC_CAP,
            cost: self.direct_cost(k),
        });

        // SOR with probed iteration counts (record accuracy at powers of
        // two).
        let sweep = [CycleEvent::SorSolve {
            level: k,
            iterations: 1,
        }];
        let sweep_cost = self.opts.profile.time(&OpCounts::of(&sweep));
        let mut probes: Vec<u32> = Vec::new();
        let mut t = 1u32;
        while t <= self.max_sor_probe {
            probes.push(t);
            t *= 2;
        }
        // accuracy(t) = min over instances.
        let mut acc_at: Vec<f64> = vec![f64::INFINITY; probes.len()];
        for inst in &instances {
            let x_opt = inst.x_opt().expect("ensured");
            let e0 = l2_diff(&inst.x0, x_opt, mode);
            let mut x = inst.working_grid();
            let mut ctx = self.ctx();
            let mut done = 0u32;
            for (pi, &p) in probes.iter().enumerate() {
                ctx.sor_solve(k, &mut x, &inst.b, p - done);
                done = p;
                let ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, mode));
                acc_at[pi] = acc_at[pi].min(ratio);
            }
        }
        for (pi, &p) in probes.iter().enumerate() {
            out.push(ParetoAlgo {
                kind: ParetoKind::Sor { iterations: p },
                accuracy: acc_at[pi],
                cost: sweep_cost * p as f64,
            });
        }

        // Recurse into each member of A_{k-1}, 1..=max_recurse_probe
        // cycles.
        for (sub_index, _sub) in sets[k - 1].iter().enumerate() {
            // Determine per-cycle cost once.
            let mut per_iter = 0.0;
            let mut acc_per_t: Vec<f64> = vec![f64::INFINITY; self.max_recurse_probe as usize];
            for (ii, inst) in instances.iter().enumerate() {
                let x_opt = inst.x_opt().expect("ensured");
                let e0 = l2_diff(&inst.x0, x_opt, mode);
                let mut x = inst.working_grid();
                let mut ctx = self.ctx();
                for t in 0..self.max_recurse_probe {
                    ctx.recurse(k, 1, &mut x, &inst.b, |ctx, ec, bc| {
                        self.run_algo(sets, k - 1, sub_index, ec, bc, ctx)
                    });
                    if ii == 0 && t == 0 {
                        per_iter = self.opts.profile.time(&ctx.ops);
                    }
                    let ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, mode));
                    let slot = &mut acc_per_t[t as usize];
                    *slot = slot.min(ratio);
                }
            }
            for t in 1..=self.max_recurse_probe {
                out.push(ParetoAlgo {
                    kind: ParetoKind::Recurse {
                        sub_index,
                        iterations: t,
                    },
                    accuracy: acc_per_t[(t - 1) as usize],
                    cost: per_iter * t as f64,
                });
            }
        }
        out
    }

    /// A counting context over the tuner's factor cache, its one
    /// scratch arena and the posed problem (so candidate walks never
    /// re-allocate coarse-grid scratch, as in `VTuner::fresh_ctx`).
    fn ctx(&self) -> ExecCtx {
        ExecCtx::with_cache(SimdMode::host(), Arc::clone(&self.cache))
            .with_workspace(Arc::clone(&self.workspace))
            .with_problem(self.opts.problem.clone())
    }

    /// Run member `index` of `A_k` on `(x, b)` through the executor.
    fn run_algo(
        &self,
        sets: &[Vec<ParetoAlgo>],
        k: usize,
        index: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        ctx: &mut ExecCtx,
    ) {
        match sets[k][index].kind {
            ParetoKind::Direct => ctx.direct(k, x, b),
            ParetoKind::Sor { iterations } => ctx.sor_solve(k, x, b, iterations),
            ParetoKind::Recurse {
                sub_index,
                iterations,
            } => ctx.recurse(k, iterations, x, b, |ctx, ec, bc| {
                self.run_algo(sets, k - 1, sub_index, ec, bc, ctx)
            }),
        }
    }

    /// Keep the Pareto front, thinned to `set_cap` members spread evenly
    /// in log-accuracy.
    fn prune(&self, mut candidates: Vec<ParetoAlgo>) -> Vec<ParetoAlgo> {
        let pts: Vec<(f64, f64)> = candidates.iter().map(|c| (c.cost, c.accuracy)).collect();
        let front = pareto_front(&pts);
        let mut chosen: Vec<ParetoAlgo> = front.iter().map(|&i| candidates[i].clone()).collect();
        candidates.clear();
        chosen.sort_by(|a, b| a.accuracy.total_cmp(&b.accuracy));
        if chosen.len() > self.set_cap {
            // Even log-accuracy spacing, always keeping the extremes.
            let mut thinned = Vec::with_capacity(self.set_cap);
            for s in 0..self.set_cap {
                let idx = s * (chosen.len() - 1) / (self.set_cap - 1);
                thinned.push(chosen[idx].clone());
            }
            thinned.dedup_by(|a, b| a.kind == b.kind);
            chosen = thinned;
        }
        chosen
    }

    fn direct_cost(&self, k: usize) -> f64 {
        let direct = [CycleEvent::Direct { level: k }];
        self.opts.profile.time(&OpCounts::of(&direct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Distribution;

    #[test]
    fn pareto_front_basic() {
        // (cost, accuracy): a dominates b; c is incomparable to a.
        let pts = vec![(1.0, 100.0), (2.0, 50.0), (3.0, 200.0), (3.0, 150.0)];
        let front = pareto_front(&pts);
        assert_eq!(front, vec![0, 2]);
    }

    #[test]
    fn pareto_front_all_equal() {
        let pts = vec![(1.0, 1.0); 4];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 1, "duplicates collapse to one representative");
    }

    #[test]
    fn pareto_front_empty() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn pareto_front_monotone_chain() {
        // Strictly better accuracy for strictly more cost: all optimal.
        let pts: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, (i * i) as f64)).collect();
        assert_eq!(pareto_front(&pts).len(), 5);
    }

    fn quick_tuner(max_level: usize) -> ParetoTuner {
        let mut t = ParetoTuner::new(TunerOptions::quick(
            max_level,
            Distribution::UnbiasedUniform,
        ));
        t.max_sor_probe = 64;
        t.max_recurse_probe = 6;
        t
    }

    #[test]
    fn sets_are_mutually_nondominated() {
        let tuner = quick_tuner(4);
        let sets = tuner.tune();
        for (k, set) in sets.iter().enumerate().skip(1) {
            assert!(!set.is_empty(), "level {k} set empty");
            for a in 0..set.len() {
                for b in 0..set.len() {
                    if a == b {
                        continue;
                    }
                    let dominated = set[b].cost <= set[a].cost
                        && set[b].accuracy >= set[a].accuracy
                        && (set[b].cost < set[a].cost || set[b].accuracy > set[a].accuracy);
                    assert!(!dominated, "level {k}: member {a} dominated by {b}");
                }
            }
        }
    }

    #[test]
    fn set_cap_respected() {
        let mut tuner = quick_tuner(4);
        tuner.set_cap = 5;
        let sets = tuner.tune();
        for (k, set) in sets.iter().enumerate().skip(1) {
            assert!(set.len() <= 5, "level {k}: {}", set.len());
        }
    }
}
