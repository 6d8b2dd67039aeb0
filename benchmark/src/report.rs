//! The whole benchmark in one command: every workload in its own child
//! process (so `peak_rss_mb` and `setup_s` are per workload), first
//! with tracing off, then traced; tables, the history file, `--repeat`
//! and `--check`.

use crate::metrics::{END_TO_END, PER_WORKLOAD, PROBES};
use crate::util::{as_f64, median, num, object, out_dir, package_dir, text};
use crate::workloads::SPECS;
use crate::{default_seconds, stamp, Args};
use serde_json::{Map, Value};
use std::io::Write as _;
use std::process::Command;

/// What one child printed: its result line, and the per-pass values
/// it printed beside the reported ones.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Map,
    passes: Option<Value>,
}

impl Run {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .get(name)?
            .as_object()?
            .get("value")
            .and_then(as_f64)
    }
}

struct WorkloadResult {
    name: &'static str,
    end_to_end: Run,
    layers: Run,
}

/// Run this program again as a child for one workload, show what it
/// prints, and read its result line.
fn child(args: &Args, workload: &str, trace: bool, probes: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.quick));
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--probes", if probes { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let mut passes = None;
    for line in lines {
        match line.strip_prefix("passes ") {
            Some(json) => passes = serde_json::from_str::<Value>(json).ok(),
            None => println!("  {line}"),
        }
    }
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("result line {last:?}: {e}"))?;
    let fields = result.as_object().ok_or("result line is not an object")?;
    let number = |key: &str| fields.get(key).and_then(as_f64).ok_or(format!("no {key}"));
    Ok(Run {
        correct: fields.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: fields
            .get("metrics")
            .and_then(Value::as_object)
            .cloned()
            .ok_or("no metrics")?,
        passes,
    })
}

/// Every workload once, untraced then traced. The layer probes do not
/// depend on the workload, so only the first traced child runs them.
fn run_all(args: &Args) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for (i, spec) in SPECS.iter().enumerate() {
        println!("== {} ==", spec.name);
        let end_to_end = child(args, spec.name, false, false)?;
        let layers = child(args, spec.name, true, i == 0)?;
        let out = out_dir();
        let _ = std::fs::copy(
            out.join("trace.json"),
            out.join(format!("trace.{}.json", spec.name)),
        );
        results.push(WorkloadResult {
            name: spec.name,
            end_to_end,
            layers,
        });
    }
    Ok(results)
}

fn print_tables(results: &[WorkloadResult]) {
    let header = |first: &str| {
        print!("{first:<44}");
        for r in results {
            print!(" {:>15}", r.name);
        }
        println!();
    };
    let row = |name: &str, unit: &str, value: &dyn Fn(&WorkloadResult) -> Option<f64>| {
        print!("{:<44}", format!("{name} [{unit}]"));
        for r in results {
            match value(r) {
                Some(v) => print!(" {v:>15.4}"),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    };
    println!("\n== end to end (telemetry off) ==");
    header("metric");
    for &(name, unit) in END_TO_END {
        row(name, unit, &|r| r.end_to_end.value(name));
    }
    row("failed_share", "share", &|r| {
        Some(r.end_to_end.failed / r.end_to_end.attempted)
    });
    row("degraded_share", "share", &|r| {
        r.end_to_end
            .passes
            .as_ref()?
            .as_object()?
            .get("degraded_share")
            .and_then(as_f64)
    });
    println!("\n== per layer, by workload (traced pass) ==");
    header("metric");
    for &(name, unit) in PER_WORKLOAD {
        row(name, unit, &|r| r.layers.value(name));
    }
    println!("\n== layer probes (single-threaded, once) ==");
    for &(name, unit) in PROBES {
        if let Some(v) = results[0].layers.value(name) {
            println!("{name:<44} {v:>16.4} {unit}");
        }
    }
}

fn history_entry(args: &Args, results: &[WorkloadResult]) -> Value {
    let workloads = results
        .iter()
        .map(|r| {
            let entry = object(vec![
                ("end_to_end", Value::Object(r.end_to_end.metrics.clone())),
                ("per_layer", Value::Object(r.layers.metrics.clone())),
                ("attempted", num(r.end_to_end.attempted)),
                ("failed", num(r.end_to_end.failed)),
            ]);
            (r.name, entry)
        })
        .collect();
    object(vec![
        ("stamp", stamp(args)),
        ("workloads", object(workloads)),
    ])
}

/// Results accumulate: one line per full run, never overwritten.
fn append_history(entry: &Value) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join("history.jsonl"))?;
    writeln!(
        file,
        "{}",
        serde_json::to_string(entry).expect("values serialize")
    )
}

fn all_correct(results: &[WorkloadResult]) -> bool {
    let mut ok = true;
    for r in results {
        for (run, what) in [(&r.end_to_end, "end-to-end"), (&r.layers, "traced")] {
            if !run.correct {
                println!("FAILED: {} {what} run reported incorrect answers", r.name);
                ok = false;
            }
        }
    }
    ok
}

/// The `end_to_end` bounds of `BENCHMARK.json`, by metric name.
fn bounds(benchmark: &Value) -> Vec<(String, f64)> {
    declared(benchmark, "end_to_end")
        .iter()
        .filter_map(|m| {
            let m = m.as_object()?;
            Some((
                m.get("name")?.as_str()?.to_string(),
                as_f64(m.get("bound")?)?,
            ))
        })
        .collect()
}

fn declared<'a>(benchmark: &'a Value, key: &str) -> &'a [Value] {
    benchmark
        .as_object()
        .and_then(|b| b.get(key))
        .and_then(Value::as_array)
        .map_or(&[], Vec::as_slice)
}

fn read_benchmark_json() -> Result<Value, String> {
    let path = package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Counts that must repeat exactly between two runs of the same code.
const EXACT: &[&str] = &[
    "degraded_share",
    "core.guard.cycles_per_solve",
    "serve.tunes_per_fingerprint",
    "core.tuner.candidates.level7.poisson",
];

/// Two runs of the same code, side by side: every workload × end-to-end
/// metric with its relative difference and bound, the spread inside
/// each run (so a noisy host can be told from a noisy metric), and the
/// counts that must repeat exactly.
fn compare(first: &[WorkloadResult], second: &[WorkloadResult]) -> Result<bool, String> {
    let bounds = bounds(&read_benchmark_json()?);
    let mut ok = true;
    println!("\n== repeat: two runs of the same code ==");
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>9} {:>7}  spread inside run 1 / run 2",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for (name, bound) in &bounds {
            let (Some(x), Some(y)) = (a.end_to_end.value(name), b.end_to_end.value(name)) else {
                return Err(format!("{}: {name} missing", a.name));
            };
            let diff = (y - x) / x;
            let spread = |r: &WorkloadResult| {
                let parts: Option<Vec<f64>> = r
                    .end_to_end
                    .passes
                    .as_ref()
                    .and_then(Value::as_object)
                    .and_then(|p| p.get(name.as_str()))
                    .and_then(Value::as_array)
                    .map(|vs| vs.iter().filter_map(as_f64).collect());
                match parts {
                    Some(p) if !p.is_empty() => {
                        let (lo, hi) = p
                            .iter()
                            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                        format!("{:.1} %", (hi - lo) / median(&p) * 100.0)
                    }
                    _ => "-".to_string(),
                }
            };
            let verdict = if diff.abs() > *bound { "EXCEEDS" } else { "" };
            ok &= diff.abs() <= *bound;
            println!(
                "{:<15} {:<16} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%  {} / {} {verdict}",
                a.name,
                name,
                diff * 100.0,
                bound * 100.0,
                spread(a),
                spread(b),
            );
        }
        for name in EXACT {
            let (x, y) = (a.layers.value(name), b.layers.value(name));
            if x.is_some() && x != y {
                println!(
                    "{:<15} {name} did not repeat exactly: {x:?} then {y:?}",
                    a.name
                );
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// The whole benchmark; with `--repeat 2`, twice and compared.
pub fn full(args: &Args) -> i32 {
    let mut runs = Vec::new();
    let mut ok = true;
    for _ in 0..args.repeat {
        let results = match run_all(args) {
            Ok(results) => results,
            Err(why) => {
                println!("FAILED: {why}");
                return 1;
            }
        };
        print_tables(&results);
        ok &= all_correct(&results);
        if let Err(e) = append_history(&history_entry(args, &results)) {
            println!("FAILED: history.jsonl: {e}");
            ok = false;
        }
        runs.push(results);
    }
    if let [first, second] = &runs[..] {
        match compare(first, second) {
            Ok(agree) => ok &= agree,
            Err(why) => {
                println!("FAILED: {why}");
                ok = false;
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "benchmark passed"
        } else {
            "benchmark FAILED"
        }
    );
    i32::from(!ok)
}

/// `--check`: a quick run, then every metric `BENCHMARK.json` names
/// must be there, finite, and carry the declared unit; workloads and
/// metric tables must match the file both ways.
pub fn check(args: &Args) -> i32 {
    let args = Args {
        workload: None,
        quick: true,
        repeat: 1,
        check: true,
        seconds: args.seconds,
        ..*args
    };
    let outcome = read_benchmark_json().and_then(|benchmark| {
        let results = run_all(&args)?;
        print_tables(&results);
        let mut problems = Vec::new();
        if !all_correct(&results) {
            problems.push("a run reported incorrect answers".to_string());
        }
        let named = |key: &str| -> Vec<(String, String)> {
            declared(&benchmark, key)
                .iter()
                .filter_map(|m| {
                    let m = m.as_object()?;
                    let unit = m.get("unit").or(m.get("why"))?.as_str()?;
                    Some((m.get("name")?.as_str()?.to_string(), unit.to_string()))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        if named("end_to_end") != table(END_TO_END) {
            problems.push("end_to_end of BENCHMARK.json differs from the metric table".into());
        }
        if named("per_layer") != [table(PER_WORKLOAD), table(PROBES)].concat() {
            problems.push("per_layer of BENCHMARK.json differs from the metric table".into());
        }
        let workloads: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        if named("workloads") != workloads {
            problems.push("workloads of BENCHMARK.json differ from the workload table".into());
        }
        for (i, r) in results.iter().enumerate() {
            let mut expect = |run: &Run, names: &[(&str, &str)]| {
                for &(name, unit) in names {
                    let entry = run.metrics.get(name).and_then(Value::as_object);
                    let finite = run.value(name).is_some_and(f64::is_finite);
                    let has_unit = entry.and_then(|e| e.get("unit")) == Some(&text(unit));
                    if !finite || !has_unit {
                        problems.push(format!(
                            "{}: {name} missing, not finite or without unit",
                            r.name
                        ));
                    }
                }
            };
            expect(&r.end_to_end, END_TO_END);
            expect(&r.layers, PER_WORKLOAD);
            if i == 0 {
                expect(&r.layers, PROBES);
            }
        }
        Ok(problems)
    });
    match outcome {
        Ok(problems) if problems.is_empty() => {
            println!("\ncheck passed: every metric of BENCHMARK.json is present, finite and has its unit");
            0
        }
        Ok(problems) => {
            for p in problems {
                println!("CHECK FAILED: {p}");
            }
            1
        }
        Err(why) => {
            println!("CHECK FAILED: {why}");
            1
        }
    }
}
