//! The five serving workloads: how each is set up, verified, warmed
//! and what one closed-loop operation does.
//!
//! Each workload is unimodal on purpose — one problem, one size, one
//! path through the service — so that `latency_p50_ms` sits inside a
//! mode and not in the gap between two.

use crate::load::{run_ops, Counters, OpRecord, Workload};
use crate::util::{nproc, PlanDir};
use petamg::grid::{l2_norm_interior, level_size};
use petamg::obs;
use petamg::prelude::*;
use petamg::problems::residual_op;
use petamg::serve::ServeResponse;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Relative-residual target of every request.
pub const TOL: f64 = 1e-8;
/// Requests per `submit_many` call of the `batched` workload.
pub const BATCH_CALL: usize = 8;
/// Distinct systems per class, cycled through by operation number.
const POOL: usize = 64;
/// n=1025 systems are 16.8 MB each; eight keep the pool at 134 MB.
const LARGE_POOL: usize = 8;
const COLD_LEVEL: usize = 6;
const COLD_DUPLICATES: usize = 3;

pub struct Spec {
    pub name: &'static str,
    /// One line: which layers the workload stresses and why it exists.
    pub why: &'static str,
    /// The highest of p99/p95/p90/p80 with at least ten samples beyond
    /// it, at the sample count ten measured seconds give on a 2-core
    /// host: per pass where `tail_by_pass`, pooled otherwise.
    pub tail_pct: f64,
    /// Passes the measured time is split into, each after a set-up of
    /// its own: five where a set-up takes half a second, three where it
    /// takes eight.
    pub passes: usize,
    /// Take the tail from the best pass like the other figures (see
    /// `load::reported`): for workloads fast enough to fill every pass.
    pub tail_by_pass: bool,
    /// `degraded_share` is exactly 1 here and exactly 0 elsewhere.
    pub degraded: bool,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "warm_small",
        why: "Poisson n=129, tuned plan resident, solo submit: a 1 ms L2-resident solve, so serve hand-off, arena leasing and small-grid kernels show",
        tail_pct: 0.99,
        passes: 5,
        tail_by_pass: true,
        degraded: false,
    },
    Spec {
        name: "warm_large",
        why: "smooth variable coefficients n=1025, tuned plan resident, solo: streaming _op kernels do all the work and serve overhead must show nothing",
        tail_pct: 0.90,
        passes: 3,
        tail_by_pass: false,
        degraded: false,
    },
    Spec {
        name: "batched",
        why: "the warm_small systems as submit_many calls of 8: the batched executor twin, so a batch gain that costs solo shows as opposite moves",
        tail_pct: 0.95,
        passes: 5,
        tail_by_pass: true,
        degraded: false,
    },
    Spec {
        name: "cold_tune",
        why: "cold rounds at n=65: start, tune 4 profiles x 3 duplicates, drop, restart from disk; tuner, factorisation, persistence and coalescing dominate",
        tail_pct: 0.80,
        passes: 5,
        tail_by_pass: false,
        degraded: false,
    },
    Spec {
        name: "degrade_ladder",
        why: "jump coefficients n=129 under the default heuristic policy: every request walks tuned, heuristic, direct; guard cost and wasted cycles dominate",
        tail_pct: 0.95,
        passes: 5,
        tail_by_pass: true,
        degraded: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

type System = (Grid2d, Grid2d);

fn request(problem: &Problem, (x0, b): &System) -> SolveRequest {
    SolveRequest::new(problem.clone(), x0.clone(), b.clone(), TOL)
}

/// ‖b − A x‖₂ / ‖b‖₂ recomputed here from the grid and problem
/// crates, independently of the figure the service reports.
fn independent_residual(problem: &Problem, x: &Grid2d, b: &Grid2d) -> f64 {
    let exec = Exec::seq();
    let mut r = Grid2d::zeros(x.n());
    residual_op(&problem.op_for(x.n()), x, b, &mut r, &exec);
    l2_norm_interior(&r, &exec) / l2_norm_interior(b, &exec)
}

/// A relative residual that is a number and meets the target.
fn within_tol(rel: f64) -> bool {
    rel.is_finite() && rel <= TOL
}

/// The check every timed response goes through.
fn answer_ok(report: &ServeReport, degraded: bool) -> bool {
    within_tol(report.report.rel_residual)
        && report.report.degraded() == degraded
        && report.x.as_slice().iter().all(|v| v.is_finite())
}

/// Fold one response into the operation's record. `lead` marks the
/// response whose report stands for a guarded solve (every solo
/// response; the first lane of a batch group).
fn absorb(rec: &mut OpRecord, response: &ServeResponse, degraded: bool, lead: bool) {
    let Ok(served) = response else {
        rec.failed = true;
        return;
    };
    rec.served += 1;
    rec.degraded += u32::from(served.report.degraded());
    rec.failed |= !answer_ok(served, degraded);
    if lead {
        let report = &served.report;
        rec.solves += 1;
        rec.solve_s += report.seconds;
        rec.residual_check_s += report.residual_check_seconds;
        rec.wasted_s += report.degradations.iter().map(|d| d.seconds).sum::<f64>();
        rec.cycles += report.residual_history.len() as u32;
    }
}

/// Candidates the generator may reject before set-up gives up.
const MAX_REJECTED: usize = 16;

/// Draw `count` systems from the seed — candidate `i` is
/// `ProblemInstance::random_for(.., UnbiasedUniform, seed + i)` — and
/// have `svc` answer each once. Every answer must pass the check timed
/// responses go through, and a residual recomputed here. A candidate
/// that does not behave as the workload needs is left out of the pool
/// and the next one drawn: the workloads are chosen so that no
/// operation fails, and on about one `jump_inclusion(129)` system in
/// six hundred the heuristic plan does reach 1e-8 within its budget, so
/// that request would not walk the ladder. Rejections are printed.
fn verified_pool(
    svc: &SolverService,
    problem: &Problem,
    level: usize,
    count: usize,
    seed: u64,
    degraded: bool,
) -> Result<Vec<System>, String> {
    let mut pool = Vec::with_capacity(count);
    let mut drawn = 0;
    while pool.len() < count {
        if drawn >= count + MAX_REJECTED {
            return Err(format!("more than {MAX_REJECTED} candidates rejected"));
        }
        // One candidate per worker in flight: verification runs on
        // every worker without holding more requests than a timed pass.
        let wave = (count - pool.len()).min(nproc());
        let candidates: Vec<System> = (drawn..drawn + wave)
            .map(|i| {
                let inst = ProblemInstance::random_for(
                    problem,
                    level,
                    Distribution::UnbiasedUniform,
                    seed.wrapping_add(i as u64),
                );
                (inst.x0, inst.b)
            })
            .collect();
        drawn += candidates.len();
        let tickets: Vec<_> = candidates
            .iter()
            .map(|system| svc.submit_blocking(request(problem, system)))
            .collect();
        for (system, ticket) in candidates.into_iter().zip(tickets) {
            let served = ticket.wait().map_err(|e| e.to_string())?;
            if !answer_ok(&served, degraded) {
                println!(
                    "# {}: a candidate left out of the pool: rel_residual {:e}, degraded {}",
                    problem.describe(),
                    served.report.rel_residual,
                    served.report.degraded()
                );
                continue;
            }
            if degraded && served.report.rung != LadderRung::Direct {
                return Err(format!(
                    "expected the direct rung, got {}",
                    served.report.rung
                ));
            }
            let rel = independent_residual(problem, &served.x, &system.1);
            if !within_tol(rel) {
                return Err(format!("independent residual {rel:e} exceeds {TOL:e}"));
            }
            pool.push(system);
        }
    }
    Ok(pool)
}

fn service_counters(svc: &SolverService) -> Counters {
    let stats = svc.stats();
    let library = svc.library().stats();
    let mut c = Counters {
        requests: stats.completed,
        tunes: stats.tunes,
        coalesced: stats.coalesced,
        batches: stats.batches,
        batched_requests: stats.batched_requests,
        library_hits: library.hits,
        library_misses: library.misses,
        library_disk_loads: library.disk_loads,
        arena_allocations: svc.arena_stats().iter().map(|a| a.allocations).sum(),
        ..Counters::default()
    };
    if obs::enabled() {
        for h in svc.telemetry_snapshot().histograms {
            match h.name.as_str() {
                "petamg_queue_wait_seconds" => {
                    c.queue_wait_ns += h.sum_ns;
                    c.queue_wait_count += h.count;
                }
                "petamg_plan_resolve_seconds" => {
                    c.plan_resolve_ns += h.sum_ns;
                    c.plan_resolve_count += h.count;
                }
                "petamg_solve_seconds" => c.solve_ns += h.sum_ns,
                _ => {}
            }
        }
    }
    c
}

fn start(dir: &Path, tuning: TunePolicy) -> Result<SolverService, String> {
    SolverService::start(
        ServiceConfig::new(dir)
            .with_workers(nproc())
            .with_tuning(tuning),
    )
    .map_err(|e| format!("service start: {e}"))
}

/// A long-lived service with its plan resident, serving one problem
/// class from a pool: `warm_small`, `warm_large`, `degrade_ladder`
/// (`call == 1`, solo `submit`) and `batched` (`call == 8`).
struct Resident {
    svc: SolverService,
    problem: Problem,
    pool: Vec<System>,
    call: usize,
    degraded: bool,
    // After `svc`, so the directory outlives the service using it.
    _dir: PlanDir,
}

impl Workload for Resident {
    fn op(&self, i: usize, epoch: Instant) -> OpRecord {
        let requests: Vec<SolveRequest> = (0..self.call)
            .map(|k| {
                request(
                    &self.problem,
                    &self.pool[(i * self.call + k) % self.pool.len()],
                )
            })
            .collect();
        let mut rec = OpRecord {
            systems: self.call as u32,
            ..OpRecord::default()
        };
        let submit = Instant::now();
        rec.start_s = (submit - epoch).as_secs_f64();
        let tickets = if self.call == 1 {
            let only = requests.into_iter().next().expect("one request");
            match self.svc.submit(only) {
                Ok(ticket) => vec![ticket],
                Err(_rejected) => {
                    rec.failed = true;
                    Vec::new()
                }
            }
        } else {
            self.svc.submit_many(requests)
        };
        rec.submit_s = submit.elapsed().as_secs_f64();
        let responses: Vec<ServeResponse> = tickets.into_iter().map(|t| t.wait()).collect();
        rec.latency_s = submit.elapsed().as_secs_f64();
        let width = self.svc.batch_width();
        for (k, response) in responses.iter().enumerate() {
            absorb(&mut rec, response, self.degraded, k % width == 0);
        }
        rec
    }

    fn clients(&self) -> usize {
        nproc()
    }

    fn counters(&self) -> Counters {
        service_counters(&self.svc)
    }

    fn tunes_per_fingerprint(&self) -> f64 {
        self.svc.stats().tunes as f64
    }
}

impl Resident {
    fn solve_solo(&self, system: &System) -> Result<ServeReport, String> {
        self.svc
            .solve(request(&self.problem, system))
            .map_err(|e| format!("verification request failed: {e}"))
    }

    /// The rest of the untimed verification pass (the pool was
    /// verified as it was drawn): a batched workload has every lane of
    /// every pool system compared bitwise with its solo answer; exactly
    /// one tune may have happened.
    fn verify(&self) -> Result<(), String> {
        if self.call > 1 {
            for chunk in self.pool.chunks(self.call) {
                let solo: Vec<ServeReport> = chunk
                    .iter()
                    .map(|s| self.solve_solo(s))
                    .collect::<Result<_, _>>()?;
                let requests = chunk.iter().map(|s| request(&self.problem, s)).collect();
                for (lane, (response, solo)) in self
                    .svc
                    .solve_many(requests)
                    .into_iter()
                    .zip(&solo)
                    .enumerate()
                {
                    let batched = response.map_err(|e| format!("batched lane {lane}: {e}"))?;
                    if batched.x.as_slice() != solo.x.as_slice() {
                        return Err(format!("batched lane {lane} differs from its solo answer"));
                    }
                }
            }
        }
        match self.svc.stats().tunes {
            1 => Ok(()),
            tunes => Err(format!("{tunes} tunes for one fingerprint")),
        }
    }
}

/// `cold_tune`: nothing is resident; one operation is a whole cold
/// round on a fresh plan directory, one round at a time with its
/// twelve requests in flight together.
struct ColdTune {
    requests: Vec<(Problem, System)>,
    /// Counters of the transient services, added up as each is dropped.
    totals: Mutex<Counters>,
}

const COLD_CLASSES: usize = 4;

impl ColdTune {
    /// Draw the twelve requests, each class's three verified by a cold
    /// service as they are drawn; it must tune once per fingerprint.
    fn set_up(seed: u64) -> Result<Self, String> {
        let n = level_size(COLD_LEVEL);
        let classes = [
            Problem::poisson(),
            Problem::anisotropic_canonical(),
            Problem::smooth_sinusoidal(n),
            Problem::jump_inclusion(n),
        ];
        let dir = PlanDir::fresh();
        let svc = start(dir.path(), TunePolicy::QuickTune)?;
        let mut requests = Vec::new();
        for (c, problem) in classes.iter().enumerate() {
            // Far enough apart that rejected candidates never overlap.
            let seed = seed.wrapping_add(1000 * c as u64);
            let pool = verified_pool(&svc, problem, COLD_LEVEL, COLD_DUPLICATES, seed, false)?;
            requests.extend(pool.into_iter().map(|s| (problem.clone(), s)));
        }
        match svc.stats().tunes {
            tunes if tunes == classes.len() as u64 => Ok(ColdTune {
                requests,
                totals: Mutex::new(Counters::default()),
            }),
            tunes => Err(format!("{tunes} tunes for {} fingerprints", classes.len())),
        }
    }

    /// Start a service on `dir`, put every request in flight, wait for
    /// all, check that it tuned `expect_tunes` times, drop it.
    fn serve_all(&self, dir: &Path, expect_tunes: u64, rec: &mut OpRecord) {
        let requests: Vec<SolveRequest> =
            self.requests.iter().map(|(p, s)| request(p, s)).collect();
        let phase = Instant::now();
        let svc = match start(dir, TunePolicy::QuickTune) {
            Ok(svc) => svc,
            Err(_) => {
                rec.failed = true;
                return;
            }
        };
        let tickets: Vec<_> = requests.into_iter().map(|r| svc.submit(r)).collect();
        rec.submit_s += phase.elapsed().as_secs_f64();
        for ticket in tickets {
            match ticket {
                Ok(ticket) => absorb(rec, &ticket.wait(), false, true),
                Err(_rejected) => rec.failed = true,
            }
        }
        let counters = service_counters(&svc);
        rec.failed |= counters.tunes != expect_tunes;
        self.totals
            .lock()
            .expect("no client panics while holding the totals")
            .add(&counters);
    }
}

impl Workload for ColdTune {
    fn op(&self, _i: usize, epoch: Instant) -> OpRecord {
        let dir = PlanDir::fresh();
        let mut rec = OpRecord {
            systems: 1,
            ..OpRecord::default()
        };
        let round = Instant::now();
        rec.start_s = (round - epoch).as_secs_f64();
        self.serve_all(dir.path(), COLD_CLASSES as u64, &mut rec);
        self.serve_all(dir.path(), 0, &mut rec);
        rec.latency_s = round.elapsed().as_secs_f64();
        rec
    }

    fn clients(&self) -> usize {
        1
    }

    fn op_parallelism(&self) -> usize {
        nproc()
    }

    fn counters(&self) -> Counters {
        *self.totals.lock().expect("totals")
    }

    fn tunes_per_fingerprint(&self) -> f64 {
        // Every round serves its requests twice, cold and restarted.
        let totals = self.counters();
        let rounds = totals.requests / (2 * self.requests.len() as u64);
        totals.tunes as f64 / (COLD_CLASSES as u64 * rounds).max(1) as f64
    }
}

/// Set a workload up from nothing: start the service on an empty plan
/// directory, generate the pool from `seed`, tune, verify, warm up.
/// Everything here is what `setup_s` times.
pub fn setup(spec: &Spec, seed: u64) -> Result<Box<dyn Workload>, String> {
    let resident = |problem: Problem, level, pool, call, tuning, warm_ops| {
        let dir = PlanDir::fresh();
        let svc = start(dir.path(), tuning)?;
        let w = Resident {
            pool: verified_pool(&svc, &problem, level, pool, seed, spec.degraded)?,
            svc,
            problem,
            call,
            degraded: spec.degraded,
            _dir: dir,
        };
        w.verify()?;
        warm_up(&w, warm_ops)?;
        Ok(Box::new(w) as Box<dyn Workload>)
    };
    match spec.name {
        "warm_small" => resident(
            Problem::poisson(),
            7,
            POOL,
            1,
            TunePolicy::QuickTune,
            2 * POOL,
        ),
        "warm_large" => resident(
            Problem::smooth_sinusoidal(1025),
            10,
            LARGE_POOL,
            1,
            TunePolicy::QuickTune,
            2 * nproc(),
        ),
        "batched" => resident(
            Problem::poisson(),
            7,
            POOL,
            BATCH_CALL,
            TunePolicy::QuickTune,
            2 * POOL / BATCH_CALL,
        ),
        "degrade_ladder" => resident(
            Problem::jump_inclusion(129),
            7,
            POOL,
            1,
            TunePolicy::Heuristic,
            2 * nproc(),
        ),
        "cold_tune" => {
            let w = ColdTune::set_up(seed)?;
            warm_up(&w, 2)?;
            Ok(Box::new(w))
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn warm_up(w: &dyn Workload, ops: usize) -> Result<(), String> {
    match run_ops(w, ops).iter().filter(|r| r.failed).count() {
        0 => Ok(()),
        failed => Err(format!("{failed} of {ops} warm-up operations failed")),
    }
}
