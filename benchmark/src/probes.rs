//! Layer probes: each crate's public functions timed in isolation,
//! single-threaded (`Exec::seq()`), on the sizes the workloads use.
//!
//! A micro probe is the median of `samples` samples, each long enough
//! (at least 2 ms of repeated calls) for the clock not to matter. The
//! expensive probes — factorisation, reference solves, tuning runs —
//! are single calls and take fewer samples; a level-10 tune is sampled
//! once. Poisson unless the name says `_op` or names a profile; the
//! n=1025 plan cycle runs the smooth variable-coefficient plan, which
//! is the problem `warm_large` serves.

use crate::util::{median, nproc, PlanDir};
use crate::workloads::TOL;
use petamg::core::persist::{load_plan, save_plan};
use petamg::core::tuner::{tune_kernel_knobs, KnobTunerOptions};
use petamg::grid::{
    coarse_size, interpolate_correct, l2_norm_interior, residual, residual_restrict, BatchGrid,
};
use petamg::linalg::assemble_poisson_band;
use petamg::obs::Registry;
use petamg::prelude::*;
use petamg::problems::residual_op;
use petamg::serve::{library::fingerprint_key, Role, SingleFlight};
use petamg::solvers::relax::{sor_sweep, sor_sweep_op, OMEGA_CYCLE};
use petamg::solvers::{
    batch_sor_sweep_op, interpolate_correct_relax, relax_residual_restrict, DirectSolverCache,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const MIN_SAMPLE_S: f64 = 2e-3;

pub struct Probes {
    /// Samples per micro probe (15; 3 under `--quick`).
    samples: usize,
    /// Samples per expensive probe (5; 1 under `--quick`).
    heavy_samples: usize,
    out: Vec<(&'static str, f64)>,
}

/// Seconds per call of `f`: median over samples of at least
/// `MIN_SAMPLE_S` each.
fn per_call(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t.elapsed().as_secs_f64();
        if took >= MIN_SAMPLE_S {
            break;
        }
        let scale = (MIN_SAMPLE_S / took.max(1e-9) * 1.2).ceil() as usize;
        iters = (iters * scale.clamp(2, 1000)).min(1 << 28);
    }
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&times)
}

/// Median of `samples` single calls, each reporting its own seconds
/// (so that a call can leave its preparation out).
fn per_run(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let times: Vec<f64> = (0..samples).map(|_| f()).collect();
    median(&times)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let value = f();
    (t.elapsed().as_secs_f64(), value)
}

/// A right-hand side from the training distribution and an iterate
/// with a non-trivial interior.
fn pair(level: usize) -> (Grid2d, Grid2d) {
    let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 0x5EED);
    let x = Grid2d::from_fn(inst.n(), |i, j| ((i * 31 + j * 17) % 97) as f64);
    (x, inst.b)
}

fn batch_of(g: &Grid2d, width: usize) -> BatchGrid {
    let mut batch = BatchGrid::zeros(g.n(), width);
    for lane in 0..width {
        batch.load_lane(lane, g);
    }
    batch
}

impl Probes {
    pub fn new(quick: bool) -> Self {
        Probes {
            samples: if quick { 3 } else { 15 },
            heavy_samples: if quick { 1 } else { 5 },
            out: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    fn micro(&mut self, name: &'static str, scale: f64, f: impl FnMut()) -> f64 {
        let seconds = per_call(self.samples, f);
        self.put(name, seconds * scale);
        seconds
    }

    /// Run every probe named in `metrics::PROBES`.
    pub fn run(mut self) -> Vec<(&'static str, f64)> {
        let seq = Exec::seq();
        self.grid_and_solvers(&seq, 7, SIZE_129);
        self.grid_and_solvers(&seq, 10, SIZE_1025);
        self.operators(&seq);
        self.direct_and_linalg();
        self.reference(&seq);
        self.runtime();
        let (family7, family10) = self.tuners();
        self.plans(&seq, &family7, &family10);
        self.persistence_and_serve(&family7);
        self.out
    }

    fn grid_and_solvers(&mut self, seq: &Exec, level: usize, names: &SizeNames) {
        let (mut x, b) = pair(level);
        let n = x.n();
        let ws = Workspace::new();
        let mut r = Grid2d::zeros(n);
        let mut coarse = Grid2d::zeros(coarse_size(n));
        let correction = Grid2d::from_fn(coarse_size(n), |i, j| 1e-3 * ((i + j) % 7) as f64);

        let residual_s = self.micro(names.residual, 1e6, || residual(&x, &b, &mut r, seq));
        self.micro(names.residual_restrict, 1e6, || {
            residual_restrict(&x, &b, &mut coarse, &ws, seq)
        });
        self.micro(names.interpolate_correct, 1e6, || {
            interpolate_correct(&correction, &mut x, seq)
        });
        self.micro(names.sor_sweep, 1e6, || {
            sor_sweep(&mut x, &b, OMEGA_CYCLE, seq)
        });
        self.micro(names.relax_residual_restrict, 1e6, || {
            relax_residual_restrict(&mut x, &b, &mut coarse, OMEGA_CYCLE, 1, &ws, seq)
        });
        self.micro(names.interpolate_correct_relax, 1e6, || {
            interpolate_correct_relax(&correction, &mut x, &b, OMEGA_CYCLE, 1, &ws, seq)
        });

        if level == 10 {
            self.micro("grid.l2_norm_us.n1025", 1e6, || {
                black_box(l2_norm_interior(&x, seq));
            });
            // Bytes computed from array sizes: two grids read, one
            // written. At 8.4 MB a grid this is cache traffic on a
            // host whose last-level cache is larger, not a STREAM
            // figure; the triad of the same size is its yardstick.
            let bytes = 3.0 * (n * n * 8) as f64;
            self.put("grid.residual_gbps.n1025", bytes / residual_s / 1e9);
            let (mut a, c) = (vec![0.0f64; n * n], vec![1.5f64; n * n]);
            let triad_s = per_call(self.samples, || {
                for ((a, b), c) in a.iter_mut().zip(b.as_slice()).zip(&c) {
                    *a = b + 3.0 * c;
                }
                black_box(&mut a);
            });
            self.put("grid.triad_gbps.n1025", bytes / triad_s / 1e9);
        } else {
            self.micro("grid.workspace.lease_ns", 1e9, || {
                black_box(ws.acquire_unzeroed(n));
            });
            let width = petamg::grid::batch_width();
            let (mut xs, bs) = (batch_of(&x, width), batch_of(&b, width));
            let sweep_s = per_call(self.samples, || {
                batch_sor_sweep_op(&StencilOp::Poisson, &mut xs, &bs, OMEGA_CYCLE, seq)
            });
            self.put(
                "solvers.batch_sor_sweep_us_per_system.n129",
                sweep_s * 1e6 / width as f64,
            );
        }
    }

    fn operators(&mut self, seq: &Exec) {
        let jump = Problem::jump_inclusion(129);
        let smooth = Problem::smooth_sinusoidal(1025);
        self.micro("problems.op_for_us.n129", 1e6, || {
            black_box(jump.op_for(129));
        });
        self.micro("problems.op_for_us.n1025", 1e6, || {
            black_box(smooth.op_for(1025));
        });
        self.micro("problems.fingerprint_ns", 1e9, || {
            black_box(fingerprint_key(jump.fingerprint()));
        });
        for (problem, level, name) in [
            (&jump, 7, "problems.residual_op_us.n129"),
            (&smooth, 10, "problems.residual_op_us.n1025"),
        ] {
            let (x, b) = pair(level);
            let op = problem.op_for(x.n());
            let mut r = Grid2d::zeros(x.n());
            self.micro(name, 1e6, || residual_op(&op, &x, &b, &mut r, seq));
        }
        let (mut x, b) = pair(10);
        let op = smooth.op_for(1025);
        self.micro("solvers.sor_sweep_op_us.n1025", 1e6, || {
            sor_sweep_op(&op, &mut x, &b, OMEGA_CYCLE, seq)
        });
    }

    fn direct_and_linalg(&mut self) {
        let band = assemble_poisson_band(129);
        let factor_s = per_run(self.heavy_samples, || {
            timed(|| black_box(band.cholesky().expect("Poisson is positive definite"))).0
        });
        self.put("linalg.cholesky_factor_ms.n129", factor_s * 1e3);
        // Computed flops: N rows, each eliminating against a band of m.
        let flops = band.n() as f64 * (band.bandwidth() as f64).powi(2);
        self.put("linalg.cholesky_gflops.n129", flops / factor_s / 1e9);

        for (n, name) in [
            (33, "linalg.band_solve_us.n33"),
            (129, "linalg.band_solve_us.n129"),
        ] {
            let factor = assemble_poisson_band(n)
                .cholesky()
                .expect("positive definite");
            let rhs: Vec<f64> = (0..factor.n()).map(|i| (i % 13) as f64 + 1.0).collect();
            let mut work = rhs.clone();
            self.micro(name, 1e6, || {
                work.copy_from_slice(&rhs);
                factor.solve_in_place(&mut work).expect("sizes match");
            });
        }

        let cache = DirectSolverCache::new();
        let op = StencilOp::Poisson;
        for (level, name) in [
            (5, "solvers.direct.solve_us.n33"),
            (7, "solvers.direct.solve_us.n129"),
        ] {
            let (mut x, b) = pair(level);
            let direct = cache.get_op(x.n(), &op);
            self.micro(name, 1e6, || direct.solve(&mut x, &b));
        }
        self.micro("solvers.direct_cache.hit_ns", 1e9, || {
            black_box(cache.get_op(129, &op));
        });
    }

    /// The plain reference V cycle to the same tolerance: the
    /// single-threaded baseline, and by division against a workload's
    /// `core.guard.solve_us` the paper's tuned-vs-reference ratio.
    fn reference(&mut self, seq: &Exec) {
        for (level, name) in [
            (7, "solvers.reference_v.solve_ms.n129"),
            (10, "solvers.reference_v.solve_ms.n1025"),
        ] {
            let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 0x5EED);
            let solver = ReferenceSolver::new(MgConfig {
                exec: seq.clone(),
                ..MgConfig::default()
            });
            // The first solve also factors the base case; keep it out.
            let solve = || {
                let mut x = inst.working_grid();
                let (seconds, status) = timed(|| {
                    solver.solve_v_until(&mut x, &inst.b, 200, |x| {
                        solver.rel_residual(x, &inst.b) <= TOL
                    })
                });
                assert!(
                    matches!(status, SolveStatus::Converged { .. }),
                    "reference V cycle did not reach {TOL:e} at level {level}"
                );
                seconds
            };
            solve();
            let seconds = per_run(self.heavy_samples, solve);
            self.put(name, seconds * 1e3);
        }
    }

    fn runtime(&mut self) {
        let pool = ThreadPool::new(nproc());
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        self.micro("runtime.spawn_roundtrip_us", 1e6, || {
            let tx = tx.clone();
            pool.spawn(move || tx.send(()).expect("receiver lives"));
            rx.recv().expect("job ran");
        });
        self.micro("runtime.parallel_for_empty_us", 1e6, || {
            pool.parallel_for(1024, 8, |i| {
                black_box(i);
            })
        });
    }

    /// The DP tuner as `TunePolicy::QuickTune` runs it, and the
    /// wall-clock kernel-knob search over the n-ary search. Returns the
    /// level-7 Poisson and level-10 smooth plans for the plan probes.
    fn tuners(&mut self) -> (TunedFamily, TunedFamily) {
        let tune = |problem: Problem, level| {
            let tuner = VTuner::new(
                TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem),
            );
            timed(|| tuner.tune_with_diagnostics())
        };
        let light = self.heavy_samples.min(3);
        let mut poisson = None;
        let seconds = per_run(light, || {
            let (seconds, tuned) = tune(Problem::poisson(), 7);
            poisson = Some(tuned);
            seconds
        });
        let (family7, diagnostics) = poisson.expect("at least one sample");
        self.put("core.tuner.tune_s.level7.poisson", seconds);
        self.put(
            "core.tuner.candidates.level7.poisson",
            diagnostics.evaluations.len() as f64,
        );
        let seconds = per_run(light, || tune(Problem::jump_inclusion(129), 7).0);
        self.put("core.tuner.tune_s.level7.jump", seconds);
        let (seconds, (family10, _)) = tune(Problem::smooth_sinusoidal(1025), 10);
        self.put("core.tuner.tune_s.level10.smooth", seconds);

        let mut evaluations = 0;
        let seconds = per_run(light, || {
            let (seconds, result) =
                timed(|| tune_kernel_knobs(&Exec::seq(), &KnobTunerOptions::quick(7)));
            evaluations = result.evaluations;
            seconds
        });
        self.put("core.tuner.knob_search_s.level7", seconds);
        self.put("choice.nary.evaluations.level7", evaluations as f64);
        (family7, family10)
    }

    /// One cycle of the tuned plan at the accuracy index the guard
    /// drives (the last), solo and batched.
    fn plans(&mut self, seq: &Exec, family7: &TunedFamily, family10: &TunedFamily) {
        let cache = Arc::new(DirectSolverCache::new());
        let ctx_for = |family: &TunedFamily, problem: Problem| {
            let ctx = ExecCtx::with_cache(seq.clone(), Arc::clone(&cache)).with_problem(problem);
            if family.knobs.is_all_default() {
                ctx
            } else {
                ctx.with_knob_table(family.knobs.clone())
            }
        };
        let acc = family7.num_accuracies() - 1;
        let (mut x, b) = pair(7);
        let mut ctx = ctx_for(family7, Problem::poisson());
        self.micro("core.plan.cycle_us.n129", 1e6, || {
            family7.run(7, acc, &mut x, &b, &mut ctx)
        });
        let width = petamg::grid::batch_width();
        let (mut xs, bs) = (batch_of(&x, width), batch_of(&b, width));
        let cycle_s = per_call(self.samples, || {
            family7.run_batch(7, acc, &mut xs, &bs, &mut ctx)
        });
        self.put(
            "core.plan.batch_cycle_us_per_system.n129",
            cycle_s * 1e6 / width as f64,
        );
        let (mut x, b) = pair(10);
        let mut ctx = ctx_for(family10, Problem::smooth_sinusoidal(1025));
        self.micro("core.plan.cycle_us.n1025", 1e6, || {
            family10.run(10, acc, &mut x, &b, &mut ctx)
        });
    }

    fn persistence_and_serve(&mut self, family7: &TunedFamily) {
        let dir = PlanDir::fresh();
        std::fs::create_dir_all(dir.path()).expect("plan directory");
        let path = dir.path().join("probe-plan.json");
        self.micro("core.persist.save_plan_ms", 1e3, || {
            save_plan(family7, &path).expect("plan saves")
        });
        self.micro("core.persist.load_plan_ms", 1e3, || {
            black_box(load_plan(&path).expect("plan loads"));
        });

        let poisson = Problem::poisson();
        let library = PlanLibrary::open(dir.path().join("library")).expect("library opens");
        self.micro("serve.library.insert_ms", 1e3, || {
            black_box(
                library
                    .insert(&poisson, family7.clone())
                    .expect("plan files"),
            );
        });
        self.micro("serve.library.get_hit_ns", 1e9, || {
            black_box(library.get(&poisson));
        });
        self.micro("serve.library.disk_load_ms", 1e3, || {
            library.clear_cache();
            black_box(library.get(&poisson));
        });

        let flights = SingleFlight::<u64>::new();
        self.micro("serve.single_flight.join_ns", 1e9, || {
            match flights.join(7) {
                Role::Leader(token) => token.complete(None),
                Role::Follower(_) => unreachable!("nothing else is in flight"),
            }
        });

        let registry = Registry::new();
        let histogram = registry.histogram("petamg_probe_seconds", &[]);
        self.micro("obs.hist_record_ns", 1e9, || {
            histogram.record_ns(black_box(1234))
        });
        let svc = SolverService::start(ServiceConfig::new(dir.path().join("snapshot")))
            .expect("service starts");
        self.micro("obs.snapshot_ms", 1e3, || {
            black_box(svc.telemetry_snapshot());
        });
    }
}

/// The probe names of one grid size.
struct SizeNames {
    residual: &'static str,
    residual_restrict: &'static str,
    interpolate_correct: &'static str,
    sor_sweep: &'static str,
    relax_residual_restrict: &'static str,
    interpolate_correct_relax: &'static str,
}

const SIZE_129: &SizeNames = &SizeNames {
    residual: "grid.residual_us.n129",
    residual_restrict: "grid.residual_restrict_us.n129",
    interpolate_correct: "grid.interpolate_correct_us.n129",
    sor_sweep: "solvers.sor_sweep_us.n129",
    relax_residual_restrict: "solvers.relax_residual_restrict_us.n129",
    interpolate_correct_relax: "solvers.interpolate_correct_relax_us.n129",
};

const SIZE_1025: &SizeNames = &SizeNames {
    residual: "grid.residual_us.n1025",
    residual_restrict: "grid.residual_restrict_us.n1025",
    interpolate_correct: "grid.interpolate_correct_us.n1025",
    sor_sweep: "solvers.sor_sweep_us.n1025",
    relax_residual_restrict: "solvers.relax_residual_restrict_us.n1025",
    interpolate_correct_relax: "solvers.interpolate_correct_relax_us.n1025",
};
