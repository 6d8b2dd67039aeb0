//! The execution policy of grid sweeps.
//!
//! Every sweep runs sequentially, one row after another: a served solve
//! runs on one service worker, and the service spreads requests across
//! its workers instead of splitting one solve's rows. What a policy
//! still carries is the [`SimdMode`] for the row kernels — the
//! scalar-vs-vector execution path (see [`crate::simd`]). Stencil
//! results are bitwise identical in either mode, so the mode is a pure
//! performance setting.

use crate::simd::{vector_available, SimdMode};

/// How a grid sweep is executed: sequentially, with the row kernels on
/// the scalar or the vector path.
#[derive(Clone, Debug)]
pub struct Exec {
    simd: SimdMode,
}

impl Exec {
    /// Sequential execution, on the vector path when
    /// [`vector_available`] and the scalar path otherwise.
    pub fn seq() -> Self {
        Exec {
            simd: if vector_available() {
                SimdMode::Vector
            } else {
                SimdMode::Scalar
            },
        }
    }

    /// Run every row kernel driven by this policy on the `mode` path.
    pub fn with_simd(mut self, mode: SimdMode) -> Self {
        self.simd = mode;
        self
    }

    /// The SIMD mode row kernels run under.
    pub fn simd(&self) -> SimdMode {
        self.simd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_mode_is_carried_and_defaults_to_the_cpus() {
        let exec = Exec::seq();
        assert_eq!(exec.simd() == SimdMode::Vector, vector_available());
        for mode in [SimdMode::Scalar, SimdMode::Vector] {
            assert_eq!(exec.clone().with_simd(mode).simd(), mode);
        }
    }
}
