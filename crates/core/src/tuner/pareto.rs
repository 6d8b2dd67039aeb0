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

use super::TunerOptions;
use crate::accuracy::{ratio_of_errors, ACC_CAP};
use crate::cost::CostModel;
use crate::plan::ExecCtx;
use petamg_grid::{coarse_size, interpolate_correct, l2_diff, level_size, Grid2d};
use petamg_solvers::relax::{omega_opt, sor_sweep_op, OMEGA_CYCLE};
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
        }
    }

    fn profile(&self) -> &crate::cost::MachineProfile {
        match &self.opts.cost_model {
            CostModel::Modeled(p) => p,
            CostModel::Measured { .. } => {
                panic!("ParetoTuner requires a modeled cost (deterministic DP)")
            }
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
        let mut out = Vec::new();

        // Direct.
        out.push(ParetoAlgo {
            kind: ParetoKind::Direct,
            accuracy: ACC_CAP,
            cost: self.direct_cost(k),
        });

        // SOR with probed iteration counts (record accuracy at powers of
        // two).
        let n = level_size(k);
        let omega = omega_opt(n);
        let op_k = self.opts.problem.op_for(n);
        let sweep_cost = {
            let mut ops = crate::cost::OpCounts::new(k);
            ops.level_mut(k).relax_sweeps = 1;
            self.profile().time(&ops)
        };
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
            let e0 = l2_diff(&inst.x0, x_opt, &self.opts.exec);
            let mut x = inst.working_grid();
            let mut done = 0u32;
            for (pi, &p) in probes.iter().enumerate() {
                while done < p {
                    sor_sweep_op(&op_k, &mut x, &inst.b, omega, &self.opts.exec);
                    done += 1;
                }
                let ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, &self.opts.exec));
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
                let e0 = l2_diff(&inst.x0, x_opt, &self.opts.exec);
                let mut x = inst.working_grid();
                let mut ctx = ExecCtx::with_cache(self.opts.exec.clone(), Arc::clone(&self.cache))
                    .with_problem(self.opts.problem.clone());
                for t in 0..self.max_recurse_probe {
                    self.recurse_step(sets, k, sub_index, &mut x, &inst.b, &mut ctx);
                    if ii == 0 && t == 0 {
                        per_iter = self.profile().time(&ctx.ops);
                    }
                    let ratio = ratio_of_errors(e0, l2_diff(&x, x_opt, &self.opts.exec));
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

    /// Execute one recursive cycle whose coarse solve is
    /// `sets[k-1][sub_index]`.
    fn recurse_step(
        &self,
        sets: &[Vec<ParetoAlgo>],
        k: usize,
        sub_index: usize,
        x: &mut Grid2d,
        b: &Grid2d,
        ctx: &mut ExecCtx,
    ) {
        if k <= 1 {
            self.cache.solve_op(x, b, &self.opts.problem.op_for(x.n()));
            ctx.ops.level_mut(1).direct_solves += 1;
            return;
        }
        let n = level_size(k);
        let op = self.opts.problem.op_for(n);
        let exec = &self.opts.exec;
        sor_sweep_op(&op, x, b, OMEGA_CYCLE, exec);
        ctx.ops.level_mut(k).relax_sweeps += 1;
        let nc = coarse_size(n);
        let ws = Arc::clone(&ctx.workspace);
        let mut bc = ws.acquire(nc);
        petamg_problems::residual_restrict_op(&op, x, b, &mut bc, &ws, exec);
        ctx.ops.level_mut(k).residuals += 1;
        ctx.ops.level_mut(k).restricts += 1;
        let mut ec = ws.acquire(nc);
        self.run_algo(sets, k - 1, sub_index, &mut ec, &bc, ctx);
        interpolate_correct(&ec, x, exec);
        ctx.ops.level_mut(k).interps += 1;
        sor_sweep_op(&op, x, b, OMEGA_CYCLE, exec);
        ctx.ops.level_mut(k).relax_sweeps += 1;
    }

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
            ParetoKind::Direct => {
                self.cache.solve_op(x, b, &self.opts.problem.op_for(x.n()));
                ctx.ops.level_mut(k).direct_solves += 1;
            }
            ParetoKind::Sor { iterations } => {
                let omega = omega_opt(x.n());
                let op = self.opts.problem.op_for(x.n());
                for _ in 0..iterations {
                    sor_sweep_op(&op, x, b, omega, &self.opts.exec);
                }
                ctx.ops.level_mut(k).relax_sweeps += iterations as u64;
            }
            ParetoKind::Recurse {
                sub_index,
                iterations,
            } => {
                for _ in 0..iterations {
                    self.recurse_step(sets, k, sub_index, x, b, ctx);
                }
            }
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
        let mut ops = crate::cost::OpCounts::new(k);
        ops.level_mut(k).direct_solves = 1;
        self.profile().time(&ops)
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
