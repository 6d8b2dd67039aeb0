//! Plan-serving solver engine: the tune-once/serve-many layer.
//!
//! PetaBricks' autotuned plans are artifacts meant to outlive the run
//! that produced them. This crate turns the repo's persistence and
//! guarded-solve machinery into an actual serving path:
//!
//! * [`PlanLibrary`] — a directory of checksummed v5 plan files keyed
//!   by problem fingerprint, with a bounded in-memory LRU in front and
//!   `persist`'s quarantine semantics preserved on reload. The memory
//!   tier is a [`SingleFlight`] (from `petamg-runtime`, re-exported
//!   here): each key holds its resident plan with the plan's ladder
//!   memory, and the one flight making its next plan.
//! * [`SolverService`] — a long-running engine whose serving loop is
//!   `PlanLibrary::park` → `GuardedSolver::solve`, with a bounded
//!   submission queue over the thread pool (typed [`Rejected`]
//!   on overload), warm per-worker [`Workspace`](petamg_grid::Workspace)
//!   arenas, one shared `DirectSolverCache` (a `SingleFlight` too), and
//!   one flight per cold fingerprint: its leader loads or tunes the plan
//!   and warms its direct factors, while the other requests park
//!   without holding a worker.
//!
//! ```no_run
//! use petamg_problems::Problem;
//! use petamg_serve::{ServiceConfig, SolveRequest, SolverService};
//!
//! let svc = SolverService::start(ServiceConfig::new("plans/")).unwrap();
//! let instance = petamg_core::training::ProblemInstance::random_for(
//!     &Problem::poisson(), 5, petamg_core::training::Distribution::UnbiasedUniform, 7);
//! let req = SolveRequest::new(Problem::poisson(), instance.working_grid(), instance.b.clone(), 1e-8);
//! let report = svc.solve(req).unwrap();
//! println!("served by {:?} at residual {:.3e}", report.plan, report.report.rel_residual);
//! ```

pub mod library;
pub mod service;
mod telemetry;

pub use library::{fingerprint_key, plan_file_name, LibraryStats, PlanLibrary, PlanOrigin};
pub use petamg_runtime::{Parked, ParkedJob, Role, SingleFlight};
pub use service::{
    PlanSource, Rejected, ServeError, ServeReport, ServeResponse, ServiceConfig, ServiceStats,
    SolveRequest, SolverService, Ticket, TunePolicy,
};

#[cfg(test)]
mod proptests;
