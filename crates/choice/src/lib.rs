//! # petamg-choice
//!
//! The part of the PetaBricks *choice framework* (paper §3) the
//! multigrid tuner uses: tunable parameters live in a flat
//! configuration space ([`space`]), scalar parameters (cutoffs, block
//! sizes, iteration counts) are optimized with an n-ary search
//! ([`nary`]), and tuned configurations serialize to JSON, mirroring
//! PetaBricks' tuned-configuration files that subsequent runs load.
//!
//! The paper's multigrid tuner (in `petamg-core`) is a dynamic program
//! over this substrate; the generic population-based search of §3.2.2
//! is not reproduced.

pub mod nary;
pub mod space;

pub use nary::{nary_search_f64, nary_search_int};
pub use space::{
    kernel_exec_space, problem_space, tuning_order, Config, ConfigError, ConfigSpace, KernelKnobs,
    KnobTable, ParamId, ParamKind, ParamSpec, ParamValue, Scale, KNOB_TABLE_VERSION,
    PARAM_BAND_ROWS, PARAM_PROBLEM, PARAM_SIMD, PARAM_TBLOCK, PROBLEM_FAMILY_LABELS,
};

// The vectorization policy type itself lives with the kernels in
// `petamg-grid`; re-export it so knob-table consumers need only this
// crate.
pub use petamg_grid::SimdPolicy;
