//! Dynamic tuning (the paper's §6 future-work direction):
//!
//! > "Another direction we plan to explore is the use of dynamic tuning
//! > where an algorithm has the ability to adapt during execution based
//! > on some features of the intermediate state. Such flexibility would
//! > allow the autotuned algorithm to classify inputs and intermediate
//! > states into different distribution classes and then switch between
//! > tuned versions of itself, providing better performance across a
//! > broader range of inputs."
//!
//! [`AdaptiveSolver`] holds one tuned family per training distribution
//! and classifies each incoming problem from cheap input features (mean
//! magnitude and sparsity of the right-hand side), then dispatches to
//! the matching family.

use crate::plan::{SolveReport, TunedFamily};
use crate::training::{Distribution, ProblemInstance, BIAS_SHIFT};
use crate::tuner::{TunerOptions, VTuner};
use petamg_grid::{Exec, Grid2d};
use petamg_solvers::DirectSolverCache;
use std::sync::Arc;

/// Distribution class assigned by the input classifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputClass {
    /// Dense RHS, mean near zero.
    Unbiased,
    /// Dense RHS, mean shifted far from zero.
    Biased,
    /// Sparse RHS (point sources/sinks).
    Sparse,
}

/// Classify a problem from its right-hand side.
///
/// Features: the fraction of (near-)zero interior entries and the
/// magnitude of the interior mean relative to the bias shift 2³¹.
pub fn classify(b: &Grid2d) -> InputClass {
    let n = b.n();
    let mut nonzero = 0usize;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let v = b.at(i, j);
            if v != 0.0 {
                nonzero += 1;
            }
            sum += v;
            count += 1;
        }
    }
    let density = nonzero as f64 / count.max(1) as f64;
    if density < 0.05 {
        return InputClass::Sparse;
    }
    let mean = sum / count.max(1) as f64;
    if mean.abs() > 0.25 * BIAS_SHIFT {
        InputClass::Biased
    } else {
        InputClass::Unbiased
    }
}

impl InputClass {
    /// The training distribution used for this class.
    pub(crate) fn training_distribution(&self) -> Distribution {
        match self {
            InputClass::Unbiased => Distribution::UnbiasedUniform,
            InputClass::Biased => Distribution::BiasedUniform,
            InputClass::Sparse => Distribution::PointSources(8),
        }
    }
}

/// A solver that switches between tuned families based on input class.
pub struct AdaptiveSolver {
    families: Vec<(InputClass, TunedFamily)>,
    cache: Arc<DirectSolverCache>,
}

impl AdaptiveSolver {
    /// Train one family per input class with the given base options
    /// (the distribution field is overridden per class).
    pub fn train(base: &TunerOptions) -> Self {
        let classes = [InputClass::Unbiased, InputClass::Biased, InputClass::Sparse];
        let mut families = Vec::with_capacity(classes.len());
        for class in classes {
            let opts = TunerOptions {
                distribution: class.training_distribution(),
                ..base.clone()
            };
            families.push((class, VTuner::new(opts).tune()));
        }
        AdaptiveSolver {
            families,
            cache: Arc::new(DirectSolverCache::new()),
        }
    }

    /// The family that would serve `b`.
    pub(crate) fn family_for(&self, b: &Grid2d) -> (&InputClass, &TunedFamily) {
        let class = classify(b);
        self.families
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(c, f)| (c, f))
            .unwrap_or_else(|| {
                let (c, f) = &self.families[0];
                (c, f)
            })
    }

    /// Classify and solve.
    pub fn solve(&self, inst: &mut ProblemInstance, target: f64, exec: &Exec) -> SolveReport {
        let (_, family) = self.family_for(&inst.b);
        family.solve_with(inst, target, exec, &self.cache)
    }

    /// All trained classes.
    pub fn classes(&self) -> Vec<InputClass> {
        self.families.iter().map(|(c, _)| *c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_recognizes_all_three_distributions() {
        for (dist, expect) in [
            (Distribution::UnbiasedUniform, InputClass::Unbiased),
            (Distribution::BiasedUniform, InputClass::Biased),
            (Distribution::PointSources(4), InputClass::Sparse),
        ] {
            for seed in 0..5u64 {
                let inst = ProblemInstance::random(5, dist, 1000 + seed);
                assert_eq!(classify(&inst.b), expect, "{} seed {seed}", dist.name());
            }
        }
    }

    #[test]
    fn classifier_edge_all_zero_rhs_is_sparse() {
        let b = Grid2d::zeros(9);
        assert_eq!(classify(&b), InputClass::Sparse);
    }

    #[test]
    fn adaptive_dispatches_to_matching_family() {
        let base = TunerOptions::quick(4, Distribution::UnbiasedUniform);
        let solver = AdaptiveSolver::train(&base);
        assert_eq!(solver.classes().len(), 3);
        for (dist, expect) in [
            (Distribution::UnbiasedUniform, InputClass::Unbiased),
            (Distribution::BiasedUniform, InputClass::Biased),
            (Distribution::PointSources(4), InputClass::Sparse),
        ] {
            let inst = ProblemInstance::random(4, dist, 321);
            let (class, family) = solver.family_for(&inst.b);
            assert_eq!(*class, expect);
            assert!(family
                .provenance
                .contains(&expect.training_distribution().name()));
        }
    }

    #[test]
    fn adaptive_solve_meets_targets_across_distributions() {
        let base = TunerOptions::quick(4, Distribution::UnbiasedUniform);
        let solver = AdaptiveSolver::train(&base);
        let exec = Exec::seq();
        for dist in [
            Distribution::UnbiasedUniform,
            Distribution::BiasedUniform,
            Distribution::PointSources(6),
        ] {
            let mut inst = ProblemInstance::random(4, dist, 5_150);
            let report = solver.solve(&mut inst, 1e5, &exec);
            assert!(
                report.achieved_accuracy >= 5e4,
                "{}: achieved {:e}",
                dist.name(),
                report.achieved_accuracy
            );
        }
    }

    #[test]
    fn family_for_falls_back_to_the_first_family() {
        let base = TunerOptions::quick(3, Distribution::UnbiasedUniform);
        let fam = VTuner::new(base).tune();
        let solver = AdaptiveSolver {
            families: vec![(InputClass::Unbiased, fam)],
            cache: Arc::new(DirectSolverCache::new()),
        };
        // A biased instance has no matching family -> falls back.
        let inst = ProblemInstance::random(3, Distribution::BiasedUniform, 1);
        let (class, _) = solver.family_for(&inst.b);
        assert_eq!(*class, InputClass::Unbiased);
    }
}
