//! Training and benchmark data (§4 of the paper):
//!
//! > "We decided to use matrices with entries drawn from two different
//! > random distributions: 1) uniform over [−2³², 2³²] (unbiased), and
//! > 2) the same distribution shifted in the positive direction by 2³¹
//! > (biased). The random entries were used to generate right-hand
//! > sides (b in Equation 1) and boundary conditions (boundaries of x)
//! > for the problem. We also experimented with specifying a finite
//! > number of random point sources/sinks in the right-hand side."

use crate::accuracy::reference_solution_for;
use petamg_grid::{level_size, Exec, Grid2d};
use petamg_problems::Problem;
use petamg_solvers::DirectSolverCache;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Magnitude bound of the paper's uniform distributions: 2³².
pub(crate) const UNIFORM_BOUND: f64 = 4294967296.0; // 2^32
/// Bias shift of the biased distribution: 2³¹.
pub(crate) const BIAS_SHIFT: f64 = 2147483648.0; // 2^31

/// Input data distributions for training and benchmarking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Distribution {
    /// Uniform over `[−2³², 2³²]`.
    UnbiasedUniform,
    /// Uniform over `[−2³² + 2³¹, 2³² + 2³¹]`.
    BiasedUniform,
    /// Zero right-hand side except for this many random point
    /// sources/sinks of magnitude up to 2³²; boundaries still uniform.
    PointSources(usize),
}

impl Distribution {
    /// Short machine-friendly name (used in reports and filenames).
    pub fn name(&self) -> String {
        match self {
            Distribution::UnbiasedUniform => "unbiased".into(),
            Distribution::BiasedUniform => "biased".into(),
            Distribution::PointSources(k) => format!("point{k}"),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        match self {
            Distribution::UnbiasedUniform | Distribution::PointSources(_) => {
                rng.random_range(-UNIFORM_BOUND..UNIFORM_BOUND)
            }
            Distribution::BiasedUniform => {
                rng.random_range(-UNIFORM_BOUND + BIAS_SHIFT..UNIFORM_BOUND + BIAS_SHIFT)
            }
        }
    }
}

/// One problem instance: the posed operator ([`Problem`]), initial
/// guess (zero interior + random Dirichlet boundary), right-hand side,
/// and (lazily computed) optimal solution of the posed operator's
/// system.
#[derive(Clone, Debug)]
pub struct ProblemInstance {
    /// Multigrid level; grid size is `2^level + 1`.
    pub level: usize,
    /// The posed operator (constant-coefficient Poisson by default).
    pub problem: Problem,
    /// Initial state: random boundary ring, zero interior.
    pub x0: Grid2d,
    /// Right-hand side.
    pub b: Grid2d,
    x_opt: Option<Grid2d>,
}

impl ProblemInstance {
    /// Generate a constant-coefficient Poisson instance at `level` from
    /// `dist`, deterministically from `seed`.
    pub fn random(level: usize, dist: Distribution, seed: u64) -> Self {
        Self::random_for(&Problem::poisson(), level, dist, seed)
    }

    /// Generate an instance of an arbitrary posed problem. The random
    /// data (boundary + right-hand side) depends only on
    /// `(level, dist, seed)` — the same seed poses the same data to
    /// every operator, which is what lets benches compare tuned plans
    /// across problem families on identical inputs.
    pub fn random_for(problem: &Problem, level: usize, dist: Distribution, seed: u64) -> Self {
        let n = level_size(level);
        let mut rng = StdRng::seed_from_u64(seed ^ (level as u64) << 32 ^ 0xA5A5_5A5A);
        let mut x0 = Grid2d::zeros(n);
        x0.set_boundary(|_, _| dist.sample(&mut rng));
        let b = match dist {
            Distribution::PointSources(k) => {
                let mut b = Grid2d::zeros(n);
                for _ in 0..k {
                    let i = rng.random_range(1..n - 1);
                    let j = rng.random_range(1..n - 1);
                    let v = rng.random_range(-UNIFORM_BOUND..UNIFORM_BOUND);
                    b.set(i, j, v);
                }
                b
            }
            _ => {
                let mut b = Grid2d::zeros(n);
                for i in 0..n {
                    for j in 0..n {
                        b.set(i, j, dist.sample(&mut rng));
                    }
                }
                b
            }
        };
        ProblemInstance {
            level,
            problem: problem.clone(),
            x0,
            b,
            x_opt: None,
        }
    }

    /// Grid size `N = 2^level + 1`.
    pub fn n(&self) -> usize {
        level_size(self.level)
    }

    /// Compute (and cache) the optimal solution of the posed operator's
    /// system.
    pub fn ensure_x_opt(&mut self, exec: &Exec, cache: &Arc<DirectSolverCache>) -> &Grid2d {
        if self.x_opt.is_none() {
            self.x_opt = Some(reference_solution_for(
                &self.problem,
                &self.x0,
                &self.b,
                exec,
                cache,
            ));
        }
        self.x_opt.as_ref().expect("just computed")
    }

    /// The optimal solution, if already computed.
    pub fn x_opt(&self) -> Option<&Grid2d> {
        self.x_opt.as_ref()
    }

    /// A fresh working copy of the initial state.
    pub fn working_grid(&self) -> Grid2d {
        self.x0.clone()
    }
}

/// Instance `index` of the deterministic training set of `problem` at
/// `level` drawn from `dist` with `seed`.
pub(crate) fn training_instance_for(
    problem: &Problem,
    level: usize,
    dist: Distribution,
    seed: u64,
    index: usize,
) -> ProblemInstance {
    ProblemInstance::random_for(
        problem,
        level,
        dist,
        seed.wrapping_add(index as u64 * 0x9E37),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_grid::l2_diff;

    #[test]
    fn instance_shape_and_determinism() {
        let a = ProblemInstance::random(4, Distribution::UnbiasedUniform, 7);
        let b = ProblemInstance::random(4, Distribution::UnbiasedUniform, 7);
        assert_eq!(a.n(), 17);
        assert_eq!(a.x0.as_slice(), b.x0.as_slice());
        assert_eq!(a.b.as_slice(), b.b.as_slice());
        let c = ProblemInstance::random(4, Distribution::UnbiasedUniform, 8);
        assert_ne!(a.b.as_slice(), c.b.as_slice());
    }

    #[test]
    fn interior_of_x0_is_zero_boundary_is_not() {
        let inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 3);
        assert!(inst.x0.interior().all(|(i, j)| inst.x0.at(i, j) == 0.0));
        let boundary_sum: f64 = (0..17).map(|j| inst.x0.at(0, j).abs()).sum();
        assert!(boundary_sum > 0.0);
    }

    #[test]
    fn biased_distribution_is_shifted() {
        // Mean of biased b should be near 2^31; unbiased near 0
        // (tolerance: the std of the mean at 33x33 is ~ 2^32/33).
        let unb = ProblemInstance::random(5, Distribution::UnbiasedUniform, 11);
        let bia = ProblemInstance::random(5, Distribution::BiasedUniform, 11);
        let mean = |g: &Grid2d| {
            let n = g.n();
            g.as_slice().iter().sum::<f64>() / (n * n) as f64
        };
        assert!(mean(&unb.b).abs() < 0.2 * UNIFORM_BOUND);
        assert!((mean(&bia.b) - BIAS_SHIFT).abs() < 0.2 * UNIFORM_BOUND);
    }

    #[test]
    fn point_sources_are_sparse() {
        let inst = ProblemInstance::random(5, Distribution::PointSources(4), 13);
        let nonzero = inst.b.as_slice().iter().filter(|v| **v != 0.0).count();
        assert!((1..=4).contains(&nonzero), "nonzero = {nonzero}");
    }

    #[test]
    fn x_opt_caches_and_solves() {
        let mut inst = ProblemInstance::random(3, Distribution::UnbiasedUniform, 5);
        let exec = Exec::seq();
        let cache = Arc::new(DirectSolverCache::new());
        assert!(inst.x_opt().is_none());
        let first = inst.ensure_x_opt(&exec, &cache).clone();
        let again = inst.ensure_x_opt(&exec, &cache).clone();
        assert_eq!(first.as_slice(), again.as_slice());
        // x_opt solves the system.
        let mut r = Grid2d::zeros(inst.n());
        petamg_grid::residual(&first, &inst.b, &mut r, &exec);
        let rel = petamg_grid::l2_norm_interior(&r, &exec)
            / petamg_grid::l2_norm_interior(&inst.b, &exec);
        assert!(rel < 1e-10);
    }

    #[test]
    fn training_set_instances_differ() {
        let set: Vec<_> = (0..3)
            .map(|index| {
                training_instance_for(
                    &Problem::poisson(),
                    3,
                    Distribution::UnbiasedUniform,
                    42,
                    index,
                )
            })
            .collect();
        assert!(l2_diff(&set[0].b, &set[1].b, &Exec::seq()) > 0.0);
        assert!(l2_diff(&set[1].b, &set[2].b, &Exec::seq()) > 0.0);
    }
}
