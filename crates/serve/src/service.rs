//! The plan-serving solver engine.
//!
//! A [`SolverService`] is a long-running front door over the
//! tune-once/serve-many artifacts: its serving loop is
//! `PlanLibrary::park` → `GuardedSolver::solve`. Requests enter
//! through a bounded submission queue over the `petamg-runtime`
//! thread pool; when the queue is full, [`SolverService::submit`]
//! returns the typed [`Rejected`] instead of queueing unboundedly. Each
//! pool worker owns a warm [`Workspace`] arena, and every request shares
//! one [`DirectSolverCache`].
//!
//! A request resolves its plan with one `PlanLibrary::park`: the
//! resident plan if it reaches the request's level, else a place on
//! the fingerprint's flight, else the lead of a new one. The leader
//! loads the plan from disk or tunes it, puts the top member's direct
//! factors in the shared cache (adopting the tuner's own), and only
//! then lands the flight, which files the plan in memory with an empty
//! ladder memory. The others park on the flight without holding a
//! worker, and the landing hands them back to the pool.
//!
//! Failure domains are per-request: a panic inside a solve is caught
//! on the worker and surfaces as [`ServeError::Panicked`] on that
//! request's ticket; a corrupt plan file is quarantined by the library
//! and the request re-tunes; an exhausted degradation ladder returns
//! the typed [`ServeError::Ladder`] with the iterate restored to the
//! initial guess. The service itself keeps serving.

use crate::library::{PlanLibrary, Resident};
use crate::telemetry::{PhaseStamp, ServeTelemetry};
use parking_lot::{Condvar, Mutex};
use petamg_core::faults::{self, Fault};
use petamg_core::guard::{GuardedReport, GuardedSolver, SolveError};
use petamg_core::plan::{simple_v_family, TunedFamily, PAPER_ACCURACIES};
use petamg_core::telemetry::SolveTelemetry;
use petamg_core::training::Distribution;
use petamg_core::tuner::{TunerOptions, VTuner};
use petamg_grid::{size_level, Grid2d, Workspace, WorkspaceStats};
use petamg_obs::{self as obs, Counter, Gauge, Registry, TelemetrySnapshot};
use petamg_problems::Problem;
use petamg_runtime::{FlightGuard, Parked, ParkedJob, ThreadPool};
use petamg_solvers::DirectSolverCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// A caller-supplied tuning function: `(problem, level) -> family`.
pub(crate) type TuneFn = dyn Fn(&Problem, usize) -> TunedFamily + Send + Sync;

/// How the service produces a plan for a fingerprint it has never
/// seen.
#[derive(Clone)]
pub enum TunePolicy {
    /// File the hand-built `MULTIGRID-V-SIMPLE` family (re-stamped
    /// with the request's fingerprint). Instant; the right default for
    /// a service that should never block a request on a tuning run.
    Heuristic,
    /// Run the accuracy-aware DP autotuner (`TunerOptions::quick`) at
    /// the request's level, on the serving pool: the tuner lends half
    /// its training instances to any idle worker, so the workers a
    /// flight's parked followers left free help with its tune.
    /// Expensive — a level-10 (n = 1025) tune on smooth variable
    /// coefficients takes seconds, and less on a pool with idle
    /// workers — but produces a genuinely tuned plan.
    QuickTune,
    /// Caller-supplied tuner. The returned family's fingerprint is
    /// re-stamped by the service, so hand-built families work as-is.
    Custom(Arc<TuneFn>),
}

impl std::fmt::Debug for TunePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunePolicy::Heuristic => write!(f, "Heuristic"),
            TunePolicy::QuickTune => write!(f, "QuickTune"),
            TunePolicy::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Configuration for [`SolverService::start`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory of plan files (created if missing).
    pub plan_dir: PathBuf,
    /// Worker threads in the serving pool.
    pub workers: usize,
    /// Admission bound: submitted-but-unfinished requests beyond this
    /// are rejected.
    pub queue_capacity: usize,
    /// In-memory plan cache bound (disk backs evictions).
    pub library_capacity: usize,
    /// What to do on a fingerprint miss.
    pub tuning: TunePolicy,
}

impl ServiceConfig {
    /// Defaults: 4 workers, 64-deep queue, heuristic tuning. Each
    /// request runs sequentially on one worker, on the host's
    /// [`SimdMode`](petamg_grid::SimdMode); the service spreads
    /// requests across workers. Every request runs under the
    /// guard's one fixed policy, and the direct rung's factor cache
    /// holds [`petamg_solvers::DEFAULT_FACTOR_CAPACITY`] factors.
    pub fn new(plan_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            plan_dir: plan_dir.into(),
            workers: 4,
            queue_capacity: 64,
            library_capacity: crate::library::DEFAULT_LIBRARY_CAPACITY,
            tuning: TunePolicy::Heuristic,
        }
    }

    /// Set the worker count (≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the admission bound (≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the in-memory plan cache bound.
    pub fn with_library_capacity(mut self, capacity: usize) -> Self {
        self.library_capacity = capacity.max(1);
        self
    }

    /// Set the tuning policy.
    pub fn with_tuning(mut self, tuning: TunePolicy) -> Self {
        self.tuning = tuning;
        self
    }
}

/// One solve request. The iterate `x0` is the initial guess; `b` the
/// right-hand side (boundary ring included, as everywhere else).
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The posed problem (selects the plan via its fingerprint).
    pub problem: Problem,
    /// Initial guess (returned as the solution grid).
    pub x0: Grid2d,
    /// Right-hand side.
    pub b: Grid2d,
    /// Relative-residual target: finite and > 0, or the request is a
    /// [`ServeError::BadRequest`].
    pub tol: f64,
    /// Keep the operations the solve ran in the response's report.
    pub trace: bool,
    /// Faults to arm on the worker thread serving this request, for
    /// chaos drills: thread-local faults armed on a client thread
    /// would never fire on the pool, so the request carries them to
    /// where the work runs. Cleared when the request finishes.
    pub faults: Vec<Fault>,
}

impl SolveRequest {
    /// A request with tracing off and no faults.
    pub fn new(problem: Problem, x0: Grid2d, b: Grid2d, tol: f64) -> Self {
        SolveRequest {
            problem,
            x0,
            b,
            tol,
            trace: false,
            faults: Vec::new(),
        }
    }

    /// Keep the operations the solve ran in the response's report.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Arm `faults` on the serving worker for this request.
    pub fn with_faults(mut self, faults: Vec<Fault>) -> Self {
        self.faults = faults;
        self
    }
}

/// Where the plan that served a request came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// The library's in-memory LRU cache.
    CacheHit,
    /// This request led a flight that reloaded it from the plan
    /// directory.
    DiskLoad,
    /// This request led a tuning flight.
    TunedNow,
    /// Another request's flight tuned or loaded it; this one was parked
    /// on that flight.
    Coalesced,
    /// No plan could be produced (tuner failure); the ladder served
    /// from its heuristic rung.
    Untuned,
}

impl PlanSource {
    /// Every source, in declaration order.
    pub(crate) const ALL: [PlanSource; 5] = [
        PlanSource::CacheHit,
        PlanSource::DiskLoad,
        PlanSource::TunedNow,
        PlanSource::Coalesced,
        PlanSource::Untuned,
    ];

    /// The source's position in [`PlanSource::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The Prometheus-style label value for the source.
    pub(crate) fn label(self) -> &'static str {
        match self {
            PlanSource::CacheHit => "cache-hit",
            PlanSource::DiskLoad => "disk-load",
            PlanSource::TunedNow => "tuned-now",
            PlanSource::Coalesced => "coalesced",
            PlanSource::Untuned => "untuned",
        }
    }
}

/// Successful response: the solution grid plus the guarded report.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The solution iterate.
    pub x: Grid2d,
    /// The guarded-solve report (rung, residual history, degradations).
    pub report: GuardedReport,
    /// Where the plan came from.
    pub plan: PlanSource,
}

/// Typed request failure. The service stays up; only this request is
/// affected.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The request was malformed (size not 2^k+1, shape mismatch,
    /// problem posed at a different size).
    BadRequest(String),
    /// Every rung of the degradation ladder failed. `x` is the
    /// restored initial guess — never a poisoned iterate.
    Ladder {
        /// The ladder's failure history.
        error: SolveError,
        /// The iterate, restored to the initial guess.
        x: Grid2d,
    },
    /// The solve panicked; the panic was caught on the worker.
    Panicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Ladder { error, .. } => write!(f, "{error}"),
            ServeError::Panicked(msg) => write!(f, "solve panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A response: the solution or a typed error.
pub type ServeResponse = Result<ServeReport, ServeError>;

/// Admission-control rejection: the submission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// The queue bound that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "service at capacity ({} requests in flight)",
            self.capacity
        )
    }
}

impl std::error::Error for Rejected {}

/// Completion handle for a submitted request.
pub struct Ticket {
    slot: Arc<Slot>,
}

struct Slot {
    response: Mutex<Option<ServeResponse>>,
    done: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            response: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn fill(&self, response: ServeResponse) {
        *self.response.lock() = Some(response);
        self.done.notify_all();
    }
}

impl Ticket {
    /// Block until the response is ready. Purely signal-driven: the
    /// worker fills the slot while holding the lock and then notifies,
    /// so an untimed wait can never miss the wakeup and there is no
    /// poll interval to add latency.
    pub fn wait(self) -> ServeResponse {
        let mut slot = self.slot.response.lock();
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            self.slot.done.wait(&mut slot);
        }
    }
}

/// Counter snapshot of a service's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests offered to `submit` (accepted or not).
    pub submitted: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Requests that produced a response (ok or typed error).
    pub completed: u64,
    /// Responses that converged.
    pub converged: u64,
    /// Typed ladder failures.
    pub ladder_failures: u64,
    /// Malformed requests.
    pub bad_requests: u64,
    /// Panics caught on workers.
    pub panics: u64,
    /// Tuning runs led (one per fingerprint under coalescing).
    pub tunes: u64,
    /// Tuning runs that failed (panicked or unwound).
    pub tune_failures: u64,
    /// Requests parked on another request's tune or load flight,
    /// counted once per landing they saw.
    pub coalesced: u64,
    // Pinned by `benchmark/src/workloads.rs` (`service_counters`), always 0; delete with ROADMAP 1(i).
    #[doc(hidden)]
    pub batches: u64,
    #[doc(hidden)]
    pub batched_requests: u64,
}

/// Request counters, registered in the service's metric registry (one
/// `petamg_requests_*`/`petamg_tuning_*` counter family each) and read
/// back through the legacy [`ServiceStats`] shape. Counters are
/// unconditional — they predate the telemetry gate and stay free.
struct StatCounters {
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    converged: Counter,
    ladder_failures: Counter,
    bad_requests: Counter,
    panics: Counter,
    tunes: Counter,
    tune_failures: Counter,
    coalesced: Counter,
}

impl StatCounters {
    fn register(registry: &Registry) -> Self {
        let c = |name: &'static str| registry.counter(name, &[]);
        StatCounters {
            submitted: c("petamg_requests_submitted_total"),
            rejected: c("petamg_requests_rejected_total"),
            completed: c("petamg_requests_completed_total"),
            converged: c("petamg_requests_converged_total"),
            ladder_failures: c("petamg_requests_ladder_failures_total"),
            bad_requests: c("petamg_requests_bad_total"),
            panics: c("petamg_requests_panicked_total"),
            tunes: c("petamg_tuning_runs_total"),
            tune_failures: c("petamg_tuning_failures_total"),
            coalesced: c("petamg_tuning_coalesced_total"),
        }
    }
}

struct Inner {
    /// The plans, each with its ladder memory, and their flights.
    library: PlanLibrary,
    cache: Arc<DirectSolverCache>,
    /// One warm arena per pool worker, indexed by
    /// `petamg_runtime::current_worker_index`.
    arenas: Vec<Arc<Workspace>>,
    /// Arena for the (never expected) case of a request handled off
    /// the pool.
    fallback_arena: Arc<Workspace>,
    tuning: TunePolicy,
    queue_capacity: usize,
    /// Submitted-but-unfinished request count, guarded by a mutex so
    /// admission, blocking submits, and drain can share one condvar.
    in_flight: Mutex<usize>,
    changed: Condvar,
    stats: StatCounters,
    /// The service's metric registry: request counters, library
    /// counters, request-phase and solve-phase histograms, and the
    /// snapshot-time gauges all live here. Per-service, so concurrent
    /// services never mix counts.
    registry: Arc<Registry>,
    /// Request-phase histograms and the span ring.
    telemetry: ServeTelemetry,
    /// Solve-phase feed attached to every guarded solver this service
    /// builds (rung counters, attempt/residual/kernel histograms).
    solve_telemetry: Arc<SolveTelemetry>,
    /// Gauges refreshed at snapshot time.
    in_flight_gauge: Gauge,
    arena_allocations: Gauge,
    arena_reuses: Gauge,
    ladder_memory_open: Gauge,
}

impl Inner {
    /// The guarded solver every request of this service runs through,
    /// on the calling worker's arena.
    fn guarded_solver(&self, problem: Problem, plan: Option<Resident>) -> GuardedSolver {
        let workspace = match petamg_runtime::current_worker_index() {
            Some(i) if i < self.arenas.len() => Arc::clone(&self.arenas[i]),
            _ => Arc::clone(&self.fallback_arena),
        };
        let solver = GuardedSolver::new(problem)
            .with_cache(Arc::clone(&self.cache))
            .with_workspace(workspace)
            .with_telemetry(Arc::clone(&self.solve_telemetry));
        match plan {
            Some(Resident { plan, memory }) => solver.with_ladder_memory(memory).with_plan(plan),
            None => solver,
        }
    }

    /// Put the direct factors the top member of `plan` solves with at
    /// `level` in the service's cache — the tuner's own where
    /// `tuner_factors` holds them — so the first solves on the plan
    /// factor nothing.
    fn warm_top_member(
        &self,
        problem: &Problem,
        level: usize,
        plan: &TunedFamily,
        tuner_factors: Option<&DirectSolverCache>,
    ) {
        // A plan the ladder will reject (a custom tuner's, shallower
        // than the request or malformed) has nothing to warm.
        if level > plan.max_level || plan.validate().is_err() {
            return;
        }
        for n in plan.direct_sizes(level, plan.num_accuracies() - 1) {
            let op = problem.op_for(n);
            // A factor that fails here fails again, typed, on the
            // ladder rung that asks for it.
            let _ = match tuner_factors {
                Some(donor) => self.cache.adopt_op(n, &op, donor),
                None => self.cache.try_get_op(n, &op),
            };
        }
    }
}

/// The plan-serving solver engine. See the module docs.
pub struct SolverService {
    // Declared before `inner` so workers are joined while the shared
    // state is still alive; job closures hold their own `Arc<Inner>`,
    // and the pool is deliberately *outside* it so the last `Arc` drop
    // on a worker thread never tries to join the worker's own pool.
    pool: ThreadPool,
    inner: Arc<Inner>,
}

impl SolverService {
    /// Start a service: spin up the pool, open (or create) the plan
    /// directory, register the telemetry families.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        obs::env::warn_unknown_once();
        let workers = cfg.workers.max(1);
        let registry = Arc::new(Registry::new());
        let library = PlanLibrary::with_capacity(&cfg.plan_dir, cfg.library_capacity)?
            .with_registry(&registry);
        let pool = ThreadPool::new(workers);
        let inner = Arc::new(Inner {
            library,
            cache: Arc::new(DirectSolverCache::new()),
            arenas: (0..workers).map(|_| Arc::new(Workspace::new())).collect(),
            fallback_arena: Arc::new(Workspace::new()),
            tuning: cfg.tuning,
            queue_capacity: cfg.queue_capacity.max(1),
            in_flight: Mutex::new(0),
            changed: Condvar::new(),
            stats: StatCounters::register(&registry),
            telemetry: ServeTelemetry::register(&registry),
            solve_telemetry: Arc::new(SolveTelemetry::register(&registry)),
            in_flight_gauge: registry.gauge("petamg_in_flight", &[]),
            arena_allocations: registry.gauge("petamg_arena_allocations", &[]),
            arena_reuses: registry.gauge("petamg_arena_reuses", &[]),
            ladder_memory_open: registry.gauge("petamg_ladder_memory_open", &[]),
            registry,
        });
        Ok(SolverService { pool, inner })
    }

    /// Submit a request. Returns the typed [`Rejected`] when the
    /// submission queue is full — the caller decides whether to shed
    /// or retry.
    pub fn submit(&self, request: SolveRequest) -> Result<Ticket, Rejected> {
        self.inner.stats.submitted.inc();
        {
            let mut in_flight = self.inner.in_flight.lock();
            if *in_flight >= self.inner.queue_capacity {
                self.inner.stats.rejected.inc();
                return Err(Rejected {
                    capacity: self.inner.queue_capacity,
                });
            }
            *in_flight += 1;
        }
        Ok(self.dispatch(request))
    }

    /// Submit, blocking until there is room in the queue. The
    /// backpressure-friendly front door for batch drivers.
    pub fn submit_blocking(&self, request: SolveRequest) -> Ticket {
        self.inner.stats.submitted.inc();
        {
            let mut in_flight = self.inner.in_flight.lock();
            while *in_flight >= self.inner.queue_capacity {
                self.inner.changed.wait(&mut in_flight);
            }
            *in_flight += 1;
        }
        self.dispatch(request)
    }

    /// Submit and wait: the synchronous convenience wrapper.
    pub fn solve(&self, request: SolveRequest) -> ServeResponse {
        self.submit_blocking(request).wait()
    }

    /// Submit many requests, blocking for queue room, and return their
    /// tickets in request order. Every request is admitted, resolved,
    /// guarded, traced, fault-armed and failed on its own, exactly as
    /// [`SolverService::submit_blocking`] would serve it: the workers
    /// share the call's requests between them.
    pub fn submit_many(&self, requests: Vec<SolveRequest>) -> Vec<Ticket> {
        requests
            .into_iter()
            .map(|request| self.submit_blocking(request))
            .collect()
    }

    /// [`SolverService::submit_many`], then wait for every response.
    /// Responses are in request order.
    pub fn solve_many(&self, requests: Vec<SolveRequest>) -> Vec<ServeResponse> {
        self.submit_many(requests)
            .into_iter()
            .map(Ticket::wait)
            .collect()
    }

    /// Hand one admitted request to the pool.
    fn dispatch(&self, request: SolveRequest) -> Ticket {
        let slot = Arc::new(Slot::new());
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        // The admission timestamp (taken only when telemetry is on)
        // for the queue-wait histogram.
        let queued = PhaseStamp::capture();
        let inner = Arc::clone(&self.inner);
        self.pool.spawn(move || {
            if let Some(stamp) = queued {
                inner.telemetry.observe_queue_wait(stamp);
            }
            let (on, to) = (Arc::clone(&inner), Arc::clone(&slot));
            stretch(&on, &to, move || {
                match Pending::admit(inner, request, slot) {
                    Ok(pending) => pending.resolve(),
                    Err(bad) => Some(Err(bad)),
                }
            });
        });
        ticket
    }

    /// Block until every accepted request has completed.
    pub fn drain(&self) {
        let mut in_flight = self.inner.in_flight.lock();
        while *in_flight > 0 {
            self.inner.changed.wait(&mut in_flight);
        }
    }

    /// Requests currently accepted but not yet completed.
    pub fn in_flight(&self) -> usize {
        *self.inner.in_flight.lock()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.inner.stats;
        ServiceStats {
            submitted: s.submitted.get(),
            rejected: s.rejected.get(),
            completed: s.completed.get(),
            converged: s.converged.get(),
            ladder_failures: s.ladder_failures.get(),
            bad_requests: s.bad_requests.get(),
            panics: s.panics.get(),
            tunes: s.tunes.get(),
            tune_failures: s.tune_failures.get(),
            coalesced: s.coalesced.get(),
            batches: 0,
            batched_requests: 0,
        }
    }

    /// One consistent snapshot of every registered metric, with the
    /// snapshot-time gauges (in-flight count, arena allocation
    /// counters, open ladder memories) refreshed first. This is the stable
    /// machine-readable telemetry schema ([`TelemetrySnapshot::to_json`]).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.inner
            .in_flight_gauge
            .set(*self.inner.in_flight.lock() as u64);
        let (allocations, reuses) = self
            .inner
            .arenas
            .iter()
            .chain(std::iter::once(&self.inner.fallback_arena))
            .map(|a| a.stats())
            .fold((0, 0), |(a, r), s| (a + s.allocations, r + s.reuses));
        self.inner.arena_allocations.set(allocations);
        self.inner.arena_reuses.set(reuses);
        let open = self.inner.library.open_ladder_memories();
        self.inner.ladder_memory_open.set(open as u64);
        self.inner.registry.snapshot()
    }

    /// The Prometheus text exposition of [`Self::telemetry_snapshot`].
    pub fn prometheus(&self) -> String {
        obs::render_prometheus(&self.telemetry_snapshot())
    }

    /// The retained request-phase spans as a Chrome trace-event JSON
    /// document (load in `chrome://tracing` / `ui.perfetto.dev`).
    /// Empty unless the service ran with `PETAMG_TELEMETRY=2`.
    pub fn chrome_trace(&self) -> String {
        obs::chrome_trace_json(&self.inner.telemetry.spans.spans())
    }

    // Pinned by `benchmark/src/workloads.rs` (`Resident::op`): systems per executor call; delete with ROADMAP 1(i).
    #[doc(hidden)]
    pub fn batch_width(&self) -> usize {
        1
    }

    /// The plan library (stats, capacity, cached keys).
    pub fn library(&self) -> &PlanLibrary {
        &self.inner.library
    }

    /// The shared direct-factor cache.
    pub fn direct_cache(&self) -> &DirectSolverCache {
        &self.inner.cache
    }

    /// Per-worker arena statistics, for warm-path allocation
    /// accounting in tests.
    pub fn arena_stats(&self) -> Vec<WorkspaceStats> {
        self.inner.arenas.iter().map(|a| a.stats()).collect()
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        // Let in-flight work finish so tickets never dangle; the pool
        // (dropped first, field order) then joins its workers.
        self.drain();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Run one stretch of a request on the calling worker: from the queue,
/// or from the landing of the flight it parked on, to its response —
/// or to the flight it parks on (`work` returns `None`). A panic
/// becomes this request's typed error, so a worker is never killed by
/// a request.
fn stretch(inner: &Inner, slot: &Slot, work: impl FnOnce() -> Option<ServeResponse>) {
    let outcome = catch_unwind(AssertUnwindSafe(work));
    // Nothing armed for this request may leak into whatever this
    // worker runs next.
    faults::clear();
    let response = match outcome {
        Ok(Some(response)) => response,
        Ok(None) => return,
        Err(p) => {
            inner.stats.panics.inc();
            Err(ServeError::Panicked(panic_message(&p)))
        }
    };
    inner.stats.completed.inc();
    match &response {
        Ok(_) => inner.stats.converged.inc(),
        Err(ServeError::Ladder { .. }) => inner.stats.ladder_failures.inc(),
        Err(ServeError::BadRequest(_)) => inner.stats.bad_requests.inc(),
        Err(ServeError::Panicked(_)) => {}
    }
    // Release the queue slot before publishing the response: a client
    // that observes its ticket done must also observe the request gone
    // from the in-flight count.
    {
        let mut in_flight = inner.in_flight.lock();
        *in_flight -= 1;
    }
    inner.changed.notify_all();
    slot.fill(response);
}

/// A validated request on its way to a plan: what a worker needs to
/// serve it, or to park it on its plan's flight and resume it there.
struct Pending {
    inner: Arc<Inner>,
    request: SolveRequest,
    level: usize,
    slot: Arc<Slot>,
    /// Plan resolution's start. Time parked on a flight, and back in
    /// the queue after its landing, is resolve time.
    resolving: Option<PhaseStamp>,
}

impl Pending {
    /// Validate `request` and arm its chaos faults on this worker.
    fn admit(
        inner: Arc<Inner>,
        request: SolveRequest,
        slot: Arc<Slot>,
    ) -> Result<Self, ServeError> {
        let level = validate(&request)?;
        let pending = Pending {
            inner,
            request,
            level,
            slot,
            resolving: PhaseStamp::capture(),
        };
        pending.arm_faults();
        Ok(pending)
    }

    /// Arm this request's chaos faults on the worker running it. No
    /// fault point lies before a request parks, so a resumed request
    /// re-arms exactly what it carried.
    fn arm_faults(&self) {
        for fault in &self.request.faults {
            faults::inject(fault.clone());
        }
    }

    /// Serve from memory if the resident plan reaches this request's
    /// level (a plan tuned for a shallower request cannot serve this
    /// one's rung 0); else park on the plan's flight (`None`); else lead
    /// a new flight, land it, and serve.
    fn resolve(self) -> Option<ServeResponse> {
        let (inner, level) = (Arc::clone(&self.inner), self.level);
        let mut shallow = false;
        let deep_enough = |plan: &TunedFamily| {
            shallow = plan.max_level < level;
            !shallow
        };
        match inner
            .library
            .park(self, |p| &p.request.problem, deep_enough)
        {
            Parked::Ready(plan, pending) => Some(pending.serve(Some(plan), PlanSource::CacheHit)),
            Parked::OnFlight => None,
            Parked::Lead(flight, pending) => {
                let problem = &pending.request.problem;
                let (plan, source) = lead(&inner, flight, problem, level, shallow);
                Some(pending.serve(plan, source))
            }
        }
    }

    /// Continue after the flight this request parked on landed.
    fn landed(self, outcome: Option<Resident>) -> Option<ServeResponse> {
        self.inner.stats.coalesced.inc();
        match outcome.filter(|landed| landed.plan.max_level >= self.level) {
            Some(plan) => Some(self.serve(Some(plan), PlanSource::Coalesced)),
            // The leader failed, or made a plan for a shallower
            // request: go around again.
            None => self.resolve(),
        }
    }

    /// Solve on `plan`, which `source` resolved.
    fn serve(self, plan: Option<Resident>, source: PlanSource) -> ServeResponse {
        let Pending {
            inner,
            request,
            resolving,
            ..
        } = self;
        if let Some(stamp) = resolving {
            inner.telemetry.observe_plan_resolve(source, stamp);
        }
        let SolveRequest {
            problem,
            mut x0,
            b,
            tol,
            trace,
            ..
        } = request;
        let mut solver = inner.guarded_solver(problem, plan);
        if trace {
            solver = solver.with_tracing();
        }
        let stamp = PhaseStamp::capture();
        let result = solver.solve(&mut x0, &b, tol);
        if let Some(stamp) = stamp {
            let detail = match &result {
                Ok(report) => report.rung.label(),
                Err(_) => "ladder-exhausted",
            };
            inner.telemetry.observe_solve(detail, stamp);
        }
        match result {
            Ok(report) => Ok(ServeReport {
                x: x0,
                report,
                plan: source,
            }),
            Err(error) => Err(ServeError::Ladder { error, x: x0 }),
        }
    }
}

impl ParkedJob<Resident> for Pending {
    fn resume(self, outcome: Option<Resident>) {
        let (inner, slot) = (Arc::clone(&self.inner), Arc::clone(&self.slot));
        stretch(&inner, &slot, move || {
            self.arm_faults();
            self.landed(outcome)
        });
    }
}

/// Shape, size and tolerance validation. Returns the request's
/// multigrid level.
fn validate(request: &SolveRequest) -> Result<usize, ServeError> {
    let SolveRequest {
        problem,
        x0,
        b,
        tol,
        ..
    } = request;
    if !(tol.is_finite() && *tol > 0.0) {
        return Err(ServeError::BadRequest(format!(
            "tolerance {tol} is not finite and > 0"
        )));
    }
    let n = b.n();
    if x0.n() != n {
        return Err(ServeError::BadRequest(format!(
            "initial guess is {}x{} but rhs is {n}x{n}",
            x0.n(),
            x0.n()
        )));
    }
    let level = match size_level(n) {
        Some(level) if level >= 1 => level,
        _ => {
            return Err(ServeError::BadRequest(format!(
                "grid side {n} is not 2^k+1 with k >= 1"
            )));
        }
    };
    let posed_sizes = problem.level_sizes();
    if !posed_sizes.is_empty() && !posed_sizes.contains(&n) {
        return Err(ServeError::BadRequest(format!(
            "problem is posed on sizes {posed_sizes:?}, request is {n}"
        )));
    }
    Ok(level)
}

/// Make the plan for `problem` servable, as the leader of its
/// `flight`: load the plan from disk, unless the resident plan is
/// `shallow` for this request, or tune it; put its top
/// member's direct factors in the service's cache; and only then land
/// the flight, filing the plan where other requests see it. A leader
/// with no plan to file lands the flight empty.
fn lead(
    inner: &Inner,
    flight: FlightGuard<Resident>,
    problem: &Problem,
    level: usize,
    shallow: bool,
) -> (Option<Resident>, PlanSource) {
    let on_disk = match shallow {
        // The file on disk is the resident plan's.
        true => None,
        false => inner
            .library
            .load(problem)
            .filter(|family| family.max_level >= level),
    };
    if let Some(family) = on_disk {
        inner.warm_top_member(problem, level, &family, None);
        return (
            Some(inner.library.land(flight, family)),
            PlanSource::DiskLoad,
        );
    }
    inner.stats.tunes.inc();
    let trims = level >= TRIM_FROM_LEVEL && !matches!(inner.tuning, TunePolicy::Heuristic);
    if trims {
        release_free_memory();
    }
    // The request's faults are for its own solve. None may fire in the
    // tune: not on this worker, and not on another one running one of
    // the tuner's instance jobs.
    let armed = faults::armed_faults();
    faults::clear();
    let tuned = catch_unwind(AssertUnwindSafe(|| tune(inner, problem, level)));
    armed.into_iter().for_each(faults::inject);
    let resolved = match tuned {
        Ok((family, tuner_factors)) => {
            inner.warm_top_member(problem, level, &family, tuner_factors.as_deref());
            match inner.library.save(problem, &family) {
                Ok(()) => (
                    Some(inner.library.land(flight, family)),
                    PlanSource::TunedNow,
                ),
                // Disk refused the write: serve this request from the
                // heuristic rung, but publish no plan the library could
                // not file.
                Err(_) => (None, PlanSource::Untuned),
            }
        }
        Err(_) => {
            inner.stats.tune_failures.inc();
            (None, PlanSource::Untuned)
        }
    };
    if trims {
        release_free_memory();
    }
    resolved
}

/// Produce a plan for `problem` at `level` per the configured policy,
/// re-stamped with the request's fingerprint, with the factor cache the
/// tuner filled on the way when there was one.
fn tune(
    inner: &Inner,
    problem: &Problem,
    level: usize,
) -> (TunedFamily, Option<Arc<DirectSolverCache>>) {
    let (mut family, factors) = match &inner.tuning {
        TunePolicy::Heuristic => (simple_v_family(level.max(1), &PAPER_ACCURACIES), None),
        TunePolicy::QuickTune => {
            let tuner = VTuner::new(
                TunerOptions::quick(level.max(1), Distribution::UnbiasedUniform)
                    .with_problem(problem.clone()),
            );
            (tuner.tune(), Some(Arc::clone(tuner.cache())))
        }
        TunePolicy::Custom(tuner) => (tuner(problem, level), None),
    };
    family.problem = problem.fingerprint().clone();
    (family, factors)
}

/// The level from which a tune is bracketed by [`release_free_memory`].
/// A tune factors every `Direct` candidate, in the band's own storage:
/// 1 x 16.5 MB of band storage at level 7, 1 x 2 MB at level 6 — below
/// that the pages a trim drops and the next solve faults back in cost
/// more than they hold (4-5 % of a cold round at n=65).
const TRIM_FROM_LEVEL: usize = 7;

/// Hand the allocator's free memory back to the OS.
///
/// Called before a tune, so its scratch does not land on top of free
/// memory an earlier phase of the process left resident, and after it
/// (and after the tuner's factor cache, minus the factors handed to the
/// service, is gone), so the scratch does not stay resident for the
/// life of the worker.
/// glibc returns freed memory of that size by itself only when the heap
/// top crosses a threshold that moves with the largest block freed so
/// far, which made a service's resident set after tuning a matter of a
/// few KB of unrelated allocations. This narrows the spread, it does
/// not close it: `malloc_trim` leaves the top of a worker thread's heap
/// alone, and scratch that was coalesced into it stays.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and is thread-safe
        // (it locks each arena in turn); it only releases pages of
        // chunks that are already free.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("petamg-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(problem: Problem, n: usize, seed: u64) -> SolveRequest {
        let instance = petamg_core::training::ProblemInstance::random_for(
            &problem,
            petamg_grid::size_level(n).unwrap(),
            Distribution::UnbiasedUniform,
            seed,
        );
        let x0 = instance.working_grid();
        let b = instance.b.clone();
        SolveRequest::new(problem, x0, b, 1e-8)
    }

    #[test]
    fn serves_a_poisson_request_end_to_end() {
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("basic"))).unwrap();
        let response = svc.solve(request(Problem::poisson(), 17, 1));
        let report = response.expect("poisson at 17 converges");
        assert!(report.report.rel_residual <= 1e-8);
        assert_eq!(report.plan, PlanSource::TunedNow);
        // Second request for the same fingerprint: cache hit, no tune.
        let response = svc.solve(request(Problem::poisson(), 17, 2));
        assert_eq!(response.unwrap().plan, PlanSource::CacheHit);
        let stats = svc.stats();
        assert_eq!(stats.tunes, 1);
        assert_eq!(stats.converged, 2);
    }

    #[test]
    fn bad_sizes_are_typed_not_panics() {
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("bad"))).unwrap();
        let req = SolveRequest::new(
            Problem::poisson(),
            Grid2d::zeros(16),
            Grid2d::zeros(16),
            1e-8,
        );
        match svc.solve(req) {
            Err(ServeError::BadRequest(why)) => assert!(why.contains("2^k+1"), "{why}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        let req = SolveRequest::new(
            Problem::poisson(),
            Grid2d::zeros(9),
            Grid2d::zeros(17),
            1e-8,
        );
        assert!(matches!(svc.solve(req), Err(ServeError::BadRequest(_))));
        // A tolerance no solve can meet is refused before any tune.
        for tol in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let req = SolveRequest::new(
                Problem::poisson(),
                Grid2d::zeros(17),
                Grid2d::zeros(17),
                tol,
            );
            match svc.solve(req) {
                Err(ServeError::BadRequest(why)) => assert!(why.contains("tolerance"), "{why}"),
                other => panic!("tol {tol}: expected BadRequest, got {other:?}"),
            }
        }
        assert_eq!(svc.stats().bad_requests, 6);
        assert_eq!(svc.stats().tunes, 0);
    }

    #[test]
    fn plans_persist_across_service_restarts() {
        let dir = tmp_dir("restart");
        {
            let svc = SolverService::start(ServiceConfig::new(&dir)).unwrap();
            svc.solve(request(Problem::poisson(), 17, 3)).unwrap();
            assert_eq!(svc.stats().tunes, 1);
        }
        // A fresh service over the same directory serves from disk
        // without re-tuning.
        let svc = SolverService::start(ServiceConfig::new(&dir)).unwrap();
        let report = svc.solve(request(Problem::poisson(), 17, 4)).unwrap();
        assert_eq!(report.plan, PlanSource::DiskLoad);
        assert_eq!(svc.stats().tunes, 0);
    }

    #[test]
    fn deeper_request_retunes_over_shallow_plan() {
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("deeper"))).unwrap();
        svc.solve(request(Problem::poisson(), 17, 5)).unwrap();
        assert_eq!(svc.stats().tunes, 1);
        // 33 = level 5 > the level-4 plan on file: the service
        // re-tunes rather than letting rung 0 reject the plan.
        let report = svc.solve(request(Problem::poisson(), 33, 6)).unwrap();
        assert_eq!(report.plan, PlanSource::TunedNow);
        assert_eq!(svc.stats().tunes, 2);
        assert!(!report.report.degraded(), "rung 0 must serve");
    }

    /// A custom tuner's plan the ladder rejects (too shallow for the
    /// request) is still filed and served around, not a panic.
    #[test]
    fn a_plan_too_shallow_to_warm_degrades_instead_of_failing() {
        let shallow = TunePolicy::Custom(Arc::new(|_: &Problem, _: usize| {
            simple_v_family(2, &PAPER_ACCURACIES)
        }));
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("shallow")).with_tuning(shallow))
            .unwrap();
        let served = svc
            .solve(request(Problem::poisson(), 17, 7))
            .expect("the heuristic rung serves");
        assert_eq!(served.plan, PlanSource::TunedNow);
        assert!(served.report.degraded());
    }

    /// Every `solve_many` answer is bitwise identical to `solve` of the
    /// same request: any worker, any arena, same bits.
    #[test]
    fn solve_many_matches_solve_bitwise() {
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("many"))).unwrap();
        let requests: Vec<SolveRequest> = (0..4)
            .map(|k| request(Problem::poisson(), 17, 10 + k))
            .collect();
        let solo: Vec<Grid2d> = requests
            .iter()
            .map(|r| {
                let again = SolveRequest::new(r.problem.clone(), r.x0.clone(), r.b.clone(), r.tol);
                svc.solve(again).expect("solve serves").x
            })
            .collect();
        let responses = svc.solve_many(requests);
        assert_eq!(responses.len(), 4);
        for (k, response) in responses.into_iter().enumerate() {
            let report = response.expect("request serves");
            assert_eq!(
                report.x.as_slice(),
                solo[k].as_slice(),
                "slot {k} must be bitwise identical to its `solve`"
            );
            assert!(report.report.rel_residual <= 1e-8);
        }
        assert_eq!(svc.stats().converged, 8);
    }

    /// Mixed traffic in one `solve_many` call of eight: different
    /// fingerprints and sizes, a fault-armed request, a malformed one
    /// in the middle, a traced one. Each is served on its own —
    /// everything completes, answers stay positionally aligned, only
    /// the malformed slot fails, only the armed one degrades, the
    /// traced one keeps its trace.
    #[test]
    fn mixed_solve_many_traffic_stress() {
        let svc = SolverService::start(
            ServiceConfig::new(tmp_dir("mixed"))
                .with_workers(3)
                .with_queue_capacity(8),
        )
        .unwrap();
        let mut requests = Vec::new();
        // Three Poisson@17 (the second poisoned at its top level), one
        // malformed, two aniso@17, one Poisson@33, one traced Poisson@17.
        for k in 0..3 {
            requests.push(request(Problem::poisson(), 17, 20 + k));
        }
        requests[1].faults = vec![Fault::PoisonLevel { level: 4 }];
        requests.push(SolveRequest::new(
            Problem::poisson(),
            Grid2d::zeros(12),
            Grid2d::zeros(12),
            1e-8,
        ));
        for k in 0..2 {
            requests.push(request(Problem::anisotropic(0.1), 17, 30 + k));
        }
        requests.push(request(Problem::poisson(), 33, 40));
        requests.push(request(Problem::poisson(), 17, 41).with_trace());
        let responses = svc.solve_many(requests);
        assert_eq!(responses.len(), 8);
        for (k, response) in responses.iter().enumerate() {
            if k == 3 {
                assert!(
                    matches!(response, Err(ServeError::BadRequest(_))),
                    "slot 3 is malformed"
                );
                continue;
            }
            let report = &response.as_ref().expect("the rest serve").report;
            assert!(report.rel_residual <= 1e-8, "slot {k}");
            assert_eq!(report.degraded(), k == 1, "slot {k}");
            assert_eq!(report.events.is_empty(), k != 7, "slot {k}");
        }
        let stats = svc.stats();
        assert_eq!((stats.submitted, stats.completed), (8, 8));
        assert_eq!(stats.bad_requests, 1);
        assert_eq!(svc.in_flight(), 0);
    }

    /// Admission blocks, it does not deadlock: a call of eight completes
    /// under a queue bound of one.
    #[test]
    fn tiny_queue_still_serves_solve_many() {
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("tinyq")).with_queue_capacity(1))
            .unwrap();
        let requests: Vec<SolveRequest> = (0..8)
            .map(|k| request(Problem::poisson(), 17, 50 + k))
            .collect();
        let responses = svc.solve_many(requests);
        assert_eq!(responses.len(), 8);
        for response in responses {
            assert!(response.expect("serves").report.rel_residual <= 1e-8);
        }
        svc.drain();
        assert_eq!(svc.in_flight(), 0);
    }

    /// The ticket wakeup path: `wait` parks on the slot's condition
    /// variable and returns on the fill's signal. The fill comes only
    /// once a notify finds the waiter parked there (the wakeups before
    /// it find the slot empty and park again). A `wait` that polled the
    /// slot between sleeps would never park, so it would never be
    /// filled and the test fails.
    #[test]
    fn ticket_wait_is_signal_driven_not_polled() {
        use std::time::{Duration, Instant};
        let slot = Arc::new(Slot::new());
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        let waiter = std::thread::spawn(move || ticket.wait());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !slot.done.notify_one() {
            assert!(
                Instant::now() < deadline,
                "`wait` never parked on the slot's signal"
            );
            std::thread::yield_now();
        }
        slot.fill(Err(ServeError::Panicked("wakeup drill".into())));
        assert!(matches!(
            waiter.join().unwrap(),
            Err(ServeError::Panicked(message)) if message == "wakeup drill"
        ));
    }

    /// End-to-end telemetry: with the gate open, every request phase
    /// lands in its histogram, the snapshot counters reconcile exactly
    /// with the returned reports and the legacy stats shape, and the
    /// spans export as a Chrome trace. One test drives metrics *and*
    /// spans so the global mode is set once (`Trace` ⊇ `Metrics`).
    #[test]
    fn telemetry_end_to_end_reconciles_with_reports() {
        petamg_obs::set_mode(petamg_obs::TelemetryMode::Trace);
        let svc = SolverService::start(ServiceConfig::new(tmp_dir("telemetry"))).unwrap();
        let r1 = svc
            .solve(request(Problem::poisson(), 17, 70))
            .expect("first solo serves");
        assert_eq!(r1.plan, PlanSource::TunedNow);
        let r2 = svc
            .solve(request(Problem::poisson(), 17, 71))
            .expect("second solo serves");
        assert_eq!(r2.plan, PlanSource::CacheHit);
        let four: Vec<SolveRequest> = (0..4)
            .map(|k| request(Problem::poisson(), 17, 80 + k))
            .collect();
        let mut reports = vec![r1, r2];
        for response in svc.solve_many(four) {
            reports.push(response.expect("request serves"));
        }
        let snap = svc.telemetry_snapshot();
        let stats = svc.stats();

        // Snapshot counters reconcile exactly with the returned
        // reports and the legacy stats shape.
        assert_eq!(stats.completed, 6);
        assert_eq!(
            snap.counter("petamg_requests_completed_total", &[]),
            stats.completed
        );
        assert_eq!(
            snap.counter("petamg_requests_submitted_total", &[]),
            stats.submitted
        );
        assert_eq!(snap.counter("petamg_tuning_runs_total", &[]), stats.tunes);
        let served_total: u64 = ["tuned", "heuristic", "direct"]
            .iter()
            .map(|&r| snap.counter("petamg_rung_served_total", &[("rung", r)]))
            .sum();
        assert_eq!(
            served_total,
            reports.len() as u64,
            "one served-rung count per converged report"
        );
        assert_eq!(
            snap.counter("petamg_library_inserts_total", &[]),
            svc.library().stats().inserts
        );

        // One queue wait and one solve per request.
        assert_eq!(snap.histogram_count("petamg_queue_wait_seconds", &[]), 6);
        assert_eq!(snap.histogram_count("petamg_solve_seconds", &[]), 6);
        assert_eq!(
            snap.histogram_count("petamg_plan_resolve_seconds", &[("source", "tuned-now")]),
            1
        );
        assert_eq!(
            snap.histogram_count("petamg_plan_resolve_seconds", &[("source", "cache-hit")]),
            5
        );

        // Gauges are refreshed at snapshot time.
        let gauge = |name: &str| snap.gauges.iter().find(|g| g.name == name).map(|g| g.value);
        assert_eq!(gauge("petamg_in_flight"), Some(0));
        assert!(gauge("petamg_arena_reuses").is_some());

        // Spans export as a Chrome trace document with every phase.
        let trace = svc.chrome_trace();
        for phase in ["queue_wait", "plan_resolve", "solve"] {
            assert!(
                trace.contains(&format!("\"name\":\"{phase}\"")),
                "missing {phase} span in {trace}"
            );
        }

        // And the Prometheus rendering carries the same families.
        let prom = svc.prometheus();
        assert!(prom.contains("# TYPE petamg_queue_wait_seconds histogram"));
        assert!(prom.contains("petamg_requests_completed_total 6"));
        assert!(prom.contains("petamg_rung_served_total{rung="));
    }
}
