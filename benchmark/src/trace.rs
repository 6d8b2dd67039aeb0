//! The traced pass: spans recorded from the benchmark's side of the
//! public API, the per-workload layer metrics derived from them, and
//! `benchmark/out/trace.json`.
//!
//! Spans are taken around the calls into `serve` (`submit`,
//! `submit_many`, `Ticket::wait`); what happens below is read from each
//! `GuardedReport`, from the service's counters and — with `obs` in
//! `Metrics` mode — from the queue-wait / plan-resolve / solve
//! histograms the service already keeps. Spans inside the program are
//! a later change.

use crate::load::{pooled, Counters, OpRecord, Pass, Workload};
use crate::util::{median, nproc, num, object, out_dir, ratio, text};
use crate::workloads::Spec;
use serde_json::Value;
use std::fmt::Write as _;

/// One span. Spans of one operation share `request_id`; `parent` is the
/// `id` of the span that caused this one. A layer's self time is its
/// span's duration minus what its child spans cover.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub id: u64,
    pub parent: Option<u64>,
    pub request_id: u64,
}

/// Four spans per operation: the request, the submit call and the wait
/// under it, and under the wait the guarded solve. The first three are
/// timed here; the solve's *duration* is `report.seconds`, and since
/// the response arrives as the solve ends, it is placed to end with
/// the wait.
pub fn spans(records: &[OpRecord], op_parallelism: usize) -> Vec<Span> {
    let mut out = Vec::with_capacity(records.len() * 4);
    for (i, r) in records.iter().enumerate() {
        let request_id = i as u64;
        let root = request_id * 4;
        let start = r.start_s * 1e6;
        let submitted = start + r.submit_s * 1e6;
        let end = start + r.latency_s * 1e6;
        let solve = (r.solve_s * 1e6 / op_parallelism as f64).min(end - submitted);
        let mut push = |name, start_us, end_us, id, parent| {
            out.push(Span {
                name,
                start_us,
                end_us,
                id,
                parent,
                request_id,
            })
        };
        push("serve.request", start, end, root, None);
        push("serve.submit", start, submitted, root + 1, Some(root));
        push("serve.wait", submitted, end, root + 2, Some(root));
        push(
            "core.guard.solve",
            end - solve,
            end,
            root + 3,
            Some(root + 2),
        );
    }
    out
}

/// The per-workload layer metrics, from one untraced and one traced
/// pass of the same workload and the service counters' movement over
/// the traced pass.
pub fn layer_metrics(
    w: &dyn Workload,
    spec: &Spec,
    untraced: &Pass,
    traced: &Pass,
    moved: &Counters,
) -> Vec<(&'static str, f64)> {
    let recs = &traced.records;
    let par = w.op_parallelism() as f64;
    let sum = |f: fn(&OpRecord) -> f64| recs.iter().map(f).sum::<f64>();
    let solve_s = sum(|r| r.solve_s);
    let latency_s = sum(|r| r.latency_s);
    let solves = sum(|r| f64::from(r.solves));
    let wall_s = recs
        .iter()
        .map(|r| r.start_s + r.latency_s)
        .fold(traced.seconds, f64::max);
    let overhead_us: Vec<f64> = recs
        .iter()
        .map(|r| (r.latency_s - r.solve_s / par) * 1e6)
        .collect();
    let solve_us: Vec<f64> = recs
        .iter()
        .filter(|r| r.solves > 0)
        .map(|r| r.solve_s / f64::from(r.solves) * 1e6)
        .collect();
    // Requests in flight together inside one operation (a cold round)
    // queue behind each other: their queue waits overlap the others'
    // work, so only resolve and solve, spread over the workers, count
    // as covered there.
    let queued_ns = if w.op_parallelism() == 1 {
        moved.queue_wait_ns
    } else {
        0
    };
    let phases_s = (queued_ns + moved.plan_resolve_ns + moved.solve_ns) as f64 / 1e9 / par;
    let lookups = moved.library_hits + moved.library_misses + moved.library_disk_loads;
    vec![
        (
            "degraded_share",
            ratio(sum(|r| f64::from(r.degraded)), sum(|r| f64::from(r.served))),
        ),
        ("serve.overhead_us", median(&overhead_us)),
        (
            "serve.queue_wait_us",
            ratio(
                moved.queue_wait_ns as f64 / 1e3,
                moved.queue_wait_count as f64,
            ),
        ),
        (
            "serve.plan_resolve_us",
            ratio(
                moved.plan_resolve_ns as f64 / 1e3,
                moved.plan_resolve_count as f64,
            ),
        ),
        (
            "serve.worker_busy_share",
            ratio(solve_s, wall_s * nproc() as f64),
        ),
        ("serve.unaccounted_share", 1.0 - ratio(phases_s, latency_s)),
        (
            "serve.batch.group_size",
            if moved.batches > 0 {
                moved.batched_requests as f64 / moved.batches as f64
            } else {
                1.0
            },
        ),
        ("serve.tunes_per_fingerprint", w.tunes_per_fingerprint()),
        (
            "serve.coalesced_share",
            ratio(moved.coalesced as f64, moved.requests as f64),
        ),
        (
            "serve.library.hit_share",
            ratio(moved.library_hits as f64, lookups as f64),
        ),
        (
            "grid.workspace.allocs_per_request",
            ratio(moved.arena_allocations as f64, moved.requests as f64),
        ),
        ("core.guard.solve_us", median(&solve_us)),
        (
            "core.guard.cycles_per_solve",
            ratio(sum(|r| f64::from(r.cycles)), solves),
        ),
        (
            "core.guard.residual_check_share",
            ratio(sum(|r| r.residual_check_s), solve_s),
        ),
        (
            "core.guard.wasted_share",
            ratio(sum(|r| r.wasted_s), solve_s),
        ),
        (
            "obs.traced_overhead_share",
            1.0 - ratio(
                pooled(std::slice::from_ref(traced), spec.tail_pct).throughput,
                pooled(std::slice::from_ref(untraced), spec.tail_pct).throughput,
            ),
        ),
    ]
}

/// Requests whose spans are written out; the rest stay counted in
/// `requests_total`. Keeps the file a few MB on the fastest workload.
const REQUESTS_WRITTEN: usize = 4000;

/// Write `benchmark/out/trace.json`: the stamp, the traced pass's
/// counters and metrics, and the spans.
pub fn write(
    stamp: Value,
    workload: &str,
    traced: &Pass,
    op_parallelism: usize,
    metrics: &[(&'static str, f64)],
) -> std::io::Result<()> {
    let written = traced.records.len().min(REQUESTS_WRITTEN);
    let header = object(vec![
        ("stamp", stamp),
        ("workload", text(workload)),
        ("seconds", num(traced.seconds)),
        ("requests_total", num(traced.records.len() as f64)),
        ("requests_written", num(written as f64)),
        (
            "metrics",
            object(metrics.iter().map(|&(k, v)| (k, num(v))).collect()),
        ),
    ]);
    let header = serde_json::to_string_pretty(&header).expect("values serialize");
    // The spans join the header object as its last field, one per line.
    let mut out = header
        .trim_end()
        .trim_end_matches('}')
        .trim_end()
        .to_string();
    out.push_str(",\n  \"spans\": [\n");
    let all = spans(&traced.records[..written], op_parallelism);
    for (i, s) in all.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "    {{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"id\":{},\"parent\":{},\"request_id\":{}}}",
            s.name, s.start_us, s.end_us, s.id, parent, s.request_id
        );
        out.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(out_dir().join("trace.json"), out)
}
