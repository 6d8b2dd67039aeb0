//! The operations a plan execution runs.
//!
//! The executor notes every kernel it runs as [`CycleEvent`]s: each is
//! counted in [`crate::OpCounts`] and, when the context traces, kept in
//! order in [`crate::plan::ExecCtx::events`]. The renderer
//! (`crate::render`) turns such a sequence into the paper's cycle
//! diagrams (Fig 5): dots for relaxations, descending/ascending path
//! segments for restrictions/interpolations, solid arrows for direct
//! solves and dashed arrows for iterative (SOR) solves.

/// One multigrid operation, as recorded during plan execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleEvent {
    /// A relaxation sweep at `level`.
    Relax {
        /// Grid level of the sweep.
        level: usize,
    },
    /// A residual computation at `level` (not drawn, but counted).
    Residual {
        /// Grid level.
        level: usize,
    },
    /// Restriction from `from` to `from - 1`.
    Restrict {
        /// Source (finer) level.
        from: usize,
    },
    /// Interpolation from `to - 1` up to `to`.
    Interpolate {
        /// Destination (finer) level.
        to: usize,
    },
    /// A direct band-Cholesky solve at `level`.
    Direct {
        /// Grid level.
        level: usize,
    },
    /// An iterative SOR solve at `level` for `iterations` sweeps.
    SorSolve {
        /// Grid level.
        level: usize,
        /// Sweeps executed.
        iterations: u32,
    },
    /// Entry into `MULTIGRID-V_{acc}` at `level` (Fig 4 call stacks).
    EnterV {
        /// Grid level.
        level: usize,
        /// Accuracy index `i` of the invoked family member.
        acc_idx: usize,
    },
    /// Entry into `FULL-MULTIGRID_{acc}` at `level`.
    EnterFmg {
        /// Grid level.
        level: usize,
        /// Accuracy index.
        acc_idx: usize,
    },
}
