//! The repo benchmark: five serving workloads through the public
//! `SolverService` API, end-to-end metrics with telemetry off, and a
//! traced run with per-layer metrics. See `benchmark/README.md`.
//!
//! ```text
//! petamg-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! petamg-benchmark [--quick] [--repeat 2] [--seed N] [--seconds S]  every workload, tables, history
//! petamg-benchmark --check                                          quick run held against BENCHMARK.json
//! ```

mod load;
mod metrics;
mod probes;
mod report;
mod trace;
mod util;
mod workloads;

use load::{run_for, Pass, Workload};
use petamg::obs;
use serde_json::Value;
use std::time::Instant;
use util::{int, median, num, object, text};
use workloads::Spec;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub probes: bool,
    pub quick: bool,
    pub repeat: usize,
    pub check: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0x5EED,
        seconds: None,
        trace: false,
        probes: true,
        quick: false,
        repeat: 1,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or_else(|| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&v));
                }
                args.seconds = Some(s);
            }
            "--trace" | "--probes" => {
                let v = value()?;
                let on = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.probes = on;
                }
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|r| (1..=2).contains(r))
                    .ok_or_else(|| bad(&v))?;
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    // A benchmark under fault injection measures the faults.
    if std::env::var_os("PETAMG_FAULTS").is_some() {
        eprintln!("PETAMG_FAULTS is set: refusing to benchmark with faults armed");
        std::process::exit(2);
    }
    // End-to-end numbers are taken with telemetry off and default
    // widths, whatever the caller's shell exports. No thread exists yet.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PETAMG_") {
            std::env::remove_var(name);
        }
    }
    obs::set_mode(obs::TelemetryMode::Off);
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            std::process::exit(2);
        }
    };
    let code = match &args.workload {
        Some(name) => match workloads::spec(name) {
            Some(spec) => run_one(spec, &args, started),
            None => {
                eprintln!("unknown workload {name}");
                2
            }
        },
        None if args.check => report::check(&args),
        None => report::full(&args),
    };
    std::process::exit(code);
}

/// Seconds one run measures when the caller does not say: the
/// `run_seconds` of `BENCHMARK.json`, or 2 under `--quick` (fewer
/// operations; sizes, mixes and concurrency stay).
pub fn default_seconds(quick: bool) -> f64 {
    if quick {
        2.0
    } else {
        10.0
    }
}

/// What identifies the code and host that produced a result.
pub fn stamp(args: &Args) -> Value {
    let tool = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .current_dir(util::package_dir())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    object(vec![
        (
            "git_rev",
            text(&tool("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", text(&tool("rustc", &["--version"]))),
        ("nproc", int(util::nproc() as u64)),
        ("workers", int(util::nproc() as u64)),
        ("vector_backend", text(petamg::grid::vector_backend())),
        ("batch_width", int(petamg::grid::batch_width() as u64)),
        ("seed", int(args.seed)),
        ("quick", Value::Bool(args.quick)),
    ])
}

/// The result line the driver reads: exactly these four keys, last on
/// standard output.
fn result_line(attempted: u64, failed: u64, correct: bool, metrics: &[(&str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            let entry = object(vec![
                ("value", num(value)),
                ("unit", text(metrics::unit_of(name))),
            ]);
            (name, entry)
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted.max(1))),
        ("failed", int(failed)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}

fn run_one(spec: &Spec, args: &Args, started: Instant) -> i32 {
    let outcome = if args.trace {
        traced_run(spec, args)
    } else {
        end_to_end_run(spec, args, started)
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            println!("{}: set-up or verification failed: {why}", spec.name);
            println!("{}", result_line(1, 1, false, &[]));
            1
        }
    }
}

fn print_metric(name: &str, value: f64, note: &str) {
    println!(
        "{name:<44} {value:>16.6} {:<8} {note}",
        metrics::unit_of(name)
    );
}

fn banner(spec: &Spec, args: &Args, seconds: f64, w: &dyn Workload) {
    println!(
        "# workload {} seed {} seconds {seconds} trace {} workers {} clients {} backend {} batch_width {}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        util::nproc(),
        w.clients(),
        petamg::grid::vector_backend(),
        petamg::grid::batch_width(),
    );
    println!("# {}", spec.why);
}

/// `--trace 0`: telemetry off, every answer checked. The measured time
/// is split into `spec.passes` passes, each after a set-up of its own:
/// that many samples of `setup_s` for its median, and that many passes
/// whose service, threads and memory layout differ for the others'.
fn end_to_end_run(spec: &Spec, args: &Args, started: Instant) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.quick));
    let setups = if args.quick { 1 } else { spec.passes };
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    for rep in 0..setups {
        // The first set-up is timed from process start. Each workload
        // is dropped before the next is built, so the peak resident
        // set is that of one.
        let from = if rep == 0 { started } else { Instant::now() };
        let w = workloads::setup(spec, args.seed)?;
        setup_s.push(from.elapsed().as_secs_f64());
        if rep == 0 {
            banner(spec, args, seconds, &*w);
        }
        passes.push(run_for(&*w, seconds / setups as f64));
    }

    let figures = load::reported(&passes, spec.tail_pct, spec.tail_by_pass);
    let each: Vec<load::Figures> = passes
        .iter()
        .map(|p| load::pooled(std::slice::from_ref(p), spec.tail_pct))
        .collect();
    let attempted: u64 = passes.iter().map(Pass::attempted).sum();
    let failed: u64 = passes.iter().map(Pass::failed).sum();
    let count = |f: fn(&load::OpRecord) -> u32| -> u32 {
        passes.iter().flat_map(|p| &p.records).map(f).sum()
    };
    let (served, degraded) = (count(|r| r.served), count(|r| r.degraded));
    let degraded_share = f64::from(degraded) / f64::from(served.max(1));
    let (setup, peak_rss) = (median(&setup_s), util::peak_rss_mb());
    let metrics = [
        ("throughput_rps", figures.throughput),
        ("latency_p50_ms", figures.p50_ms),
        ("latency_tail_ms", figures.tail_ms),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss),
    ];
    let by_pass = |how: &str, f: fn(&load::Figures) -> f64| {
        let values: Vec<String> = each.iter().map(|t| format!("{:.4}", f(t))).collect();
        format!("{how} {}", values.join(" "))
    };
    let best = "best of passes";
    print_metric(
        "throughput_rps",
        figures.throughput,
        &by_pass(best, |t| t.throughput),
    );
    print_metric(
        "latency_p50_ms",
        figures.p50_ms,
        &by_pass(best, |t| t.p50_ms),
    );
    print_metric(
        "latency_tail_ms",
        figures.tail_ms,
        &format!(
            "p{:.0}, {} samples and {} beyond; {}",
            spec.tail_pct * 100.0,
            figures.samples,
            figures.beyond_tail,
            by_pass(
                if spec.tail_by_pass {
                    best
                } else {
                    "pooled; passes"
                },
                |t| t.tail_ms
            )
        ),
    );
    print_metric("setup_s", setup, &format!("median of {setup_s:.3?}"));
    print_metric("peak_rss_mb", peak_rss, "VmHWM");
    println!(
        "failed_share {:.6} ({failed} of {attempted} operations); degraded_share {degraded_share:.6} ({degraded} of {served} responses)",
        failed as f64 / attempted.max(1) as f64,
    );
    // For `--repeat`: the spread inside this run, beside the reported values.
    let values =
        |f: fn(&load::Figures) -> f64| Value::Array(each.iter().map(|t| num(f(t))).collect());
    let line = object(vec![
        ("throughput_rps", values(|t| t.throughput)),
        ("latency_p50_ms", values(|t| t.p50_ms)),
        ("latency_tail_ms", values(|t| t.tail_ms)),
        ("degraded_share", num(degraded_share)),
    ]);
    println!(
        "passes {}",
        serde_json::to_string(&line).expect("values serialize")
    );
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(attempted, failed, correct, &metrics));
    Ok(correct)
}

/// `--trace 1`: one untraced and one traced pass of half the time each
/// (their throughput ratio is the tracing overhead), then the layer
/// probes; writes `benchmark/out/trace.json`.
fn traced_run(spec: &Spec, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.quick)) / 2.0;
    let w = workloads::setup(spec, args.seed)?;
    banner(spec, args, seconds, &*w);
    let untraced = run_for(&*w, seconds);
    obs::set_mode(obs::TelemetryMode::Metrics);
    let before = w.counters();
    let traced = run_for(&*w, seconds);
    let moved = w.counters().minus(&before);
    obs::set_mode(obs::TelemetryMode::Off);
    let mut metrics = trace::layer_metrics(&*w, spec, &untraced, &traced, &moved);
    let op_parallelism = w.op_parallelism();
    drop(w);

    let expected_degraded = if spec.degraded { 1.0 } else { 0.0 };
    let mut correct = untraced.failed() + traced.failed() == 0
        && value_of(&metrics, "degraded_share") == expected_degraded
        && value_of(&metrics, "serve.tunes_per_fingerprint") == 1.0;
    if args.probes {
        metrics.extend(probes::Probes::new(args.quick).run());
    }
    for &(name, value) in &metrics {
        print_metric(name, value, "");
    }
    if args.probes {
        reconcile(spec, &metrics, &traced);
    }
    if let Err(e) = trace::write(stamp(args), spec.name, &traced, op_parallelism, &metrics) {
        println!("could not write trace.json: {e}");
        correct = false;
    }
    let attempted = untraced.attempted() + traced.attempted();
    let failed = untraced.failed() + traced.failed();
    println!("{}", result_line(attempted, failed, correct, &metrics));
    Ok(correct)
}

fn value_of(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    let found = metrics.iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("{name} was not measured")).1
}

/// Isolate, then composite, then reconcile (Agullo et al.): the plan
/// cycle timed alone times the cycles a solve took, plus its residual
/// checks, against the guarded solve as served; and the service's own
/// phases against the latency seen from outside.
fn reconcile(spec: &Spec, metrics: &[(&'static str, f64)], traced: &Pass) {
    let cycle_probe = match spec.name {
        "warm_small" => "core.plan.cycle_us.n129",
        "warm_large" => "core.plan.cycle_us.n1025",
        _ => return,
    };
    let get = |name: &str| value_of(metrics, name);
    let solve_us = get("core.guard.solve_us");
    let cycles = get("core.guard.cycles_per_solve");
    let checks_us = get("core.guard.residual_check_share") * solve_us;
    let modelled = cycles * get(cycle_probe) + checks_us;
    println!(
        "reconcile core.guard: {cycles} cycles x {:.1} us ({cycle_probe}) + {checks_us:.1} us residual checks = {modelled:.1} us against core.guard.solve_us {solve_us:.1} us: residue {:+.1} %",
        get(cycle_probe),
        (solve_us - modelled) / solve_us * 100.0,
    );
    let latency_us = load::pooled(std::slice::from_ref(traced), spec.tail_pct).p50_ms * 1e3;
    let (queue, resolve) = (get("serve.queue_wait_us"), get("serve.plan_resolve_us"));
    let unaccounted = get("serve.unaccounted_share");
    println!(
        "reconcile serve: queue {queue:.1} + resolve {resolve:.1} + solve {solve_us:.1} us against latency p50 {latency_us:.1} us (traced pass): serve.unaccounted_share {:.1} %",
        unaccounted * 100.0
    );
    if unaccounted.abs() > 0.10 {
        println!("WARNING: more than 10 % of the latency is covered by no phase the service times");
    }
}
