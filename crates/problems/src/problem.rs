//! The posed problem: which PDE the solver stack is running, with its
//! per-level operator hierarchy and its serializable fingerprint.

use crate::coeffs::{coarsen_vertex_field, field_hash, CoeffProfile, StencilCoeffs};
use crate::op::StencilOp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The operator family a [`Problem`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ProblemFamily {
    /// Constant-coefficient Poisson (the seed problem).
    ConstPoisson,
    /// Axis-anisotropic Poisson `-ε·u_xx − u_yy = f`.
    Anisotropic {
        /// The `x`-direction scaling `ε` (0 < ε ≤ 1).
        eps: f64,
    },
    /// Variable-coefficient diffusion `-∇·(a(x,y)∇u) = f`.
    VarDiffusion,
}

/// Serializable identity of a posed problem — carried inside tuned-plan
/// files (schema v4) so a plan tuned for one operator is never silently
/// applied to another.
///
/// Two fingerprints match iff the operator *content* matches: family,
/// profile, scalar parameter (bit-compared), posed size, and (for
/// variable coefficients) the FNV content hash of the fine-level
/// coefficient field.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProblemFingerprint {
    /// Family name (`const-poisson` / `anisotropic` /
    /// `variable-diffusion`).
    pub family: String,
    /// Coefficient-profile name (`constant`, `smooth`, `jump1000`,
    /// `eps0.01`, …).
    pub profile: String,
    /// Scalar profile parameter (ε, jump ratio, amplitude; 0 when
    /// unused).
    pub param: f64,
    /// Posed fine-grid side length (`0` for size-independent
    /// operators).
    pub n: usize,
    /// Hex-encoded FNV-1a hash of the fine vertex coefficient field
    /// (`"0"` for constant-weight operators). Stored as a string so the
    /// JSON shim never rounds it through `f64`.
    pub coeff_hash: String,
}

impl ProblemFingerprint {
    /// The fingerprint of the constant-coefficient Poisson problem
    /// (size-independent: `n` is 0 and there is no coefficient field).
    pub fn poisson() -> Self {
        ProblemFingerprint {
            family: "const-poisson".into(),
            profile: "constant".into(),
            param: 0.0,
            n: 0,
            coeff_hash: "0".into(),
        }
    }

    /// Whether this is the constant-coefficient Poisson fingerprint.
    pub fn is_poisson(&self) -> bool {
        self.family == "const-poisson"
    }

    /// Short one-line display (used in errors and bench records).
    pub fn describe(&self) -> String {
        if self.n == 0 {
            format!("{}/{}", self.family, self.profile)
        } else {
            format!("{}/{}@n={}", self.family, self.profile, self.n)
        }
    }
}

/// Typed rejection: a tuned plan's fingerprint does not match the posed
/// problem. Returned by `TunedFamily::ensure_problem` in `petamg-core`
/// and by `petamg::persist::load_plan_for`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProblemMismatch {
    /// The fingerprint the plan was tuned for (boxed to keep `Result`
    /// sizes small).
    pub plan: Box<ProblemFingerprint>,
    /// The fingerprint of the problem actually posed.
    pub posed: Box<ProblemFingerprint>,
}

impl fmt::Display for ProblemMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan was tuned for problem {} but {} was posed \
             (re-tune, or load a plan whose fingerprint matches)",
            self.plan.describe(),
            self.posed.describe()
        )
    }
}

impl std::error::Error for ProblemMismatch {}

/// A posed PDE problem: family + coefficient data + the pre-built
/// per-level [`StencilOp`] hierarchy.
///
/// Cheap to clone (coefficient levels are `Arc`-shared). Every solver
/// and tuner in the workspace takes the operator for level size `n`
/// from [`Problem::op_for`].
///
/// ```
/// use petamg_problems::{Problem, StencilOp};
///
/// let poisson = Problem::poisson();
/// assert!(matches!(poisson.op_for(33), StencilOp::Poisson));
///
/// let jump = Problem::jump_inclusion(33);
/// assert!(!matches!(jump.op_for(33), StencilOp::Poisson));
/// // The hierarchy reaches the 3x3 base case for the direct solve.
/// let _ = jump.op_for(3);
/// ```
#[derive(Clone, Debug)]
pub struct Problem {
    family: ProblemFamily,
    fingerprint: ProblemFingerprint,
    /// Coefficient levels keyed by grid side length (empty unless
    /// [`ProblemFamily::VarDiffusion`]).
    levels: Arc<BTreeMap<usize, Arc<StencilCoeffs>>>,
}

impl Default for Problem {
    fn default() -> Self {
        Problem::poisson()
    }
}

impl Problem {
    /// The constant-coefficient Poisson problem (size-independent).
    pub fn poisson() -> Self {
        Problem {
            family: ProblemFamily::ConstPoisson,
            fingerprint: ProblemFingerprint::poisson(),
            levels: Arc::new(BTreeMap::new()),
        }
    }

    /// Axis-anisotropic Poisson `-ε·u_xx − u_yy = f`
    /// (size-independent; the same weights re-discretize every level).
    pub fn anisotropic(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "anisotropy must be positive");
        Problem {
            family: ProblemFamily::Anisotropic { eps },
            fingerprint: ProblemFingerprint {
                family: "anisotropic".into(),
                profile: format!("eps{eps}"),
                param: eps,
                n: 0,
                coeff_hash: "0".into(),
            },
            levels: Arc::new(BTreeMap::new()),
        }
    }

    /// The canonical strong-anisotropy profile (ε = 0.01).
    pub fn anisotropic_canonical() -> Self {
        Problem::anisotropic(0.01)
    }

    /// Variable-coefficient diffusion posed at fine size `n`
    /// (`n = 2^k + 1`): samples the profile at `n`, then restricts the
    /// coefficient field level by level down to the 3×3 base case
    /// (arithmetic full-weighting of the vertex field; harmonic face
    /// weights per level — see [`StencilCoeffs`]).
    ///
    /// # Panics
    /// Panics if `n` is not `2^k + 1` with `n >= 3`.
    pub fn variable(n: usize, profile: CoeffProfile) -> Self {
        assert!(
            n >= 3 && (n - 1).is_power_of_two(),
            "fine size must be 2^k + 1, got {n}"
        );
        // The vertex field lives only while the hierarchy is built: each
        // level keeps its face weights, never the field.
        let mut levels = BTreeMap::new();
        let mut field = profile.vertex_field(n);
        let hash = field_hash(&field);
        let mut sz = n;
        loop {
            levels.insert(sz, Arc::new(StencilCoeffs::from_vertex_field(sz, &field)));
            if sz == 3 {
                break;
            }
            field = coarsen_vertex_field(sz, &field);
            sz = (sz - 1) / 2 + 1;
        }
        Problem {
            family: ProblemFamily::VarDiffusion,
            fingerprint: ProblemFingerprint {
                family: "variable-diffusion".into(),
                profile: profile.name(),
                param: profile.param(),
                n,
                coeff_hash: format!("{hash:016x}"),
            },
            levels: Arc::new(levels),
        }
    }

    /// Canonical smooth-sinusoidal diffusion profile
    /// (`a = 1 + 0.9·sin(2πx)·sin(2πy)`) at fine size `n`.
    pub fn smooth_sinusoidal(n: usize) -> Self {
        Problem::variable(n, CoeffProfile::SmoothSinusoidal { amplitude: 0.9 })
    }

    /// Canonical ×1000 jump-inclusion diffusion profile at fine size
    /// `n`.
    pub fn jump_inclusion(n: usize) -> Self {
        Problem::variable(n, CoeffProfile::JumpInclusion { ratio: 1000.0 })
    }

    /// The serializable identity of this problem.
    pub fn fingerprint(&self) -> &ProblemFingerprint {
        &self.fingerprint
    }

    /// Whether this is the constant-coefficient Poisson problem.
    pub fn is_poisson(&self) -> bool {
        matches!(self.family, ProblemFamily::ConstPoisson)
    }

    /// The operator for a level of side `n`.
    ///
    /// # Panics
    /// Panics for variable-coefficient problems when `n` is not in the
    /// coarsening chain of the posed size (the hierarchy covers the
    /// posed size and everything below it).
    pub fn op_for(&self, n: usize) -> StencilOp {
        match self.family {
            ProblemFamily::ConstPoisson => StencilOp::Poisson,
            ProblemFamily::Anisotropic { eps } => StencilOp::anisotropic(eps),
            ProblemFamily::VarDiffusion => {
                let level = self.levels.get(&n).unwrap_or_else(|| {
                    panic!(
                        "no coefficient level of size {n} in problem {} (posed at n={})",
                        self.fingerprint.describe(),
                        self.fingerprint.n
                    )
                });
                StencilOp::Var(Arc::clone(level))
            }
        }
    }

    /// Level sizes the hierarchy covers (empty for size-independent
    /// operators, which serve every `n`).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.keys().copied().collect()
    }

    /// Short one-line display.
    pub fn describe(&self) -> String {
        self.fingerprint.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_default_and_size_independent() {
        let p = Problem::default();
        assert!(p.is_poisson());
        assert!(matches!(p.op_for(5), StencilOp::Poisson));
        assert!(matches!(p.op_for(1025), StencilOp::Poisson));
        assert!(p.fingerprint().is_poisson());
    }

    #[test]
    fn variable_problem_builds_full_hierarchy() {
        let p = Problem::jump_inclusion(33);
        assert_eq!(p.level_sizes(), vec![3, 5, 9, 17, 33]);
        for n in [3usize, 5, 9, 17, 33] {
            let op = p.op_for(n);
            assert_eq!(op.bound_n(), Some(n));
        }
    }

    #[test]
    #[should_panic(expected = "no coefficient level")]
    fn variable_problem_rejects_sizes_outside_the_chain() {
        let p = Problem::smooth_sinusoidal(17);
        let _ = p.op_for(33);
    }

    #[test]
    fn fingerprints_distinguish_problems() {
        let a = Problem::poisson();
        let b = Problem::anisotropic_canonical();
        let c = Problem::jump_inclusion(17);
        let d = Problem::smooth_sinusoidal(17);
        let e = Problem::jump_inclusion(33);
        let all = [&a, &b, &c, &d, &e];
        for (i, x) in all.iter().enumerate() {
            for (k, y) in all.iter().enumerate() {
                if i == k {
                    assert_eq!(x.fingerprint(), y.fingerprint());
                } else {
                    assert_ne!(x.fingerprint(), y.fingerprint(), "{i} vs {k}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_serde_roundtrip() {
        let fp = Problem::jump_inclusion(17).fingerprint().clone();
        let json = serde_json::to_string(&fp).unwrap();
        let back: ProblemFingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(fp, back);
    }

    #[test]
    fn mismatch_error_is_typed_and_displayable() {
        let err = ProblemMismatch {
            plan: Box::new(ProblemFingerprint::poisson()),
            posed: Box::new(Problem::anisotropic_canonical().fingerprint().clone()),
        };
        let msg = err.to_string();
        assert!(msg.contains("const-poisson"), "{msg}");
        assert!(msg.contains("anisotropic"), "{msg}");
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn anisotropic_op_has_scaled_weights() {
        let op = Problem::anisotropic(0.01).op_for(17);
        let (cw, ce, cn, cs, cc) = op.weights_at(5, 5);
        assert_eq!((cw, ce, cn, cs), (0.01, 0.01, 1.0, 1.0));
        assert!((cc - 2.02).abs() < 1e-15);
    }
}
