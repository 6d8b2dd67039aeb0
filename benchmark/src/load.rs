//! The closed-loop load generator and the end-to-end statistics.
//!
//! Callers of an in-process solver each wait for their reply, so the
//! loop is closed: every client thread submits one operation, blocks on
//! its tickets, checks the answer and submits the next. There are as
//! many clients as workers, which keeps every worker busy without ever
//! building a queue the service itself did not cause. A client blocked
//! in `Ticket::wait` uses no CPU, so clients and workers do not compete
//! for the cores.

use crate::util::percentile_sorted;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What one closed-loop operation did. An operation is one request
/// (solo workloads), one `submit_many` call (`batched`) or one cold
/// round (`cold_tune`).
#[derive(Clone, Debug, Default)]
pub struct OpRecord {
    /// Submit time, seconds since the run's epoch.
    pub start_s: f64,
    /// Time inside `submit`/`submit_many` (or service start + submits
    /// for a cold round).
    pub submit_s: f64,
    /// Submit to last response received.
    pub latency_s: f64,
    /// Systems this operation asked to be solved.
    pub systems: u32,
    /// Any error, `Rejected`, or answer failing the correctness check.
    pub failed: bool,
    /// Successful responses with `report.degraded()`.
    pub degraded: u32,
    /// Successful responses.
    pub served: u32,
    /// Guarded solves behind the operation: one per request, or one
    /// per batch group (lanes of a group share a report).
    pub solves: u32,
    /// Σ `report.seconds` over those solves.
    pub solve_s: f64,
    /// Σ `report.residual_check_seconds`.
    pub residual_check_s: f64,
    /// Σ `degradations[].seconds`: time spent on rungs that failed.
    pub wasted_s: f64,
    /// Σ cycles observed at the serving rung.
    pub cycles: u32,
}

/// Defines [`Counters`] with field-wise `minus` and `add`, so that a
/// new counter cannot be forgotten in either.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Service-side counters, cumulative since the workload was
        /// set up. Histogram sums only move while `obs` is in
        /// `Metrics` mode.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn minus(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counters!(
    requests,
    tunes,
    coalesced,
    batches,
    batched_requests,
    library_hits,
    library_misses,
    library_disk_loads,
    arena_allocations,
    queue_wait_ns,
    queue_wait_count,
    plan_resolve_ns,
    plan_resolve_count,
    solve_ns,
);

/// A set-up workload: a warm service (or, for `cold_tune`, the recipe
/// for a cold one) plus the request pool generated from the seed.
pub trait Workload: Sync {
    /// Run operation number `i` to completion on the calling client.
    fn op(&self, i: usize, epoch: Instant) -> OpRecord;
    /// Closed-loop clients: operations kept outstanding.
    fn clients(&self) -> usize;
    /// Requests that run concurrently inside one operation.
    fn op_parallelism(&self) -> usize {
        1
    }
    fn counters(&self) -> Counters;
    /// Tunes per distinct fingerprint since set-up (must be exactly 1).
    fn tunes_per_fingerprint(&self) -> f64;
}

fn drive(w: &dyn Workload, epoch: Instant, more: &(dyn Fn(usize) -> bool + Sync)) -> Vec<OpRecord> {
    let next = AtomicUsize::new(0);
    let mut records: Vec<OpRecord> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..w.clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !more(i) {
                            return mine;
                        }
                        mine.push(w.op(i, epoch));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_unstable_by(|a, b| a.start_s.total_cmp(&b.start_s));
    records
}

/// Exactly `ops` operations (verification and warm-up: fixed work, so
/// `setup_s` measures the same thing every time).
pub fn run_ops(w: &dyn Workload, ops: usize) -> Vec<OpRecord> {
    drive(w, Instant::now(), &|i| i < ops)
}

/// One timed pass: operations are started until `seconds` have passed,
/// and those in flight at the deadline run to completion.
pub struct Pass {
    pub seconds: f64,
    pub records: Vec<OpRecord>,
}

pub fn run_for(w: &dyn Workload, seconds: f64) -> Pass {
    let epoch = Instant::now();
    let records = drive(w, epoch, &|_| epoch.elapsed().as_secs_f64() < seconds);
    Pass { seconds, records }
}

/// End-to-end figures of one or more passes.
#[derive(Clone, Copy, Debug)]
pub struct Figures {
    /// Systems completed per second.
    pub throughput: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The latency samples behind `tail_ms`: operations completed
    /// before the deadline, in the emptiest pass for a tail by pass.
    pub samples: usize,
    /// Samples strictly beyond the tail percentile's rank.
    pub beyond_tail: usize,
}

impl Pass {
    /// Operations that completed before the deadline. Those in flight
    /// at the deadline ran to completion and were checked, but are in
    /// no figure: the idle tail after the deadline is not throughput.
    fn completed(&self) -> impl Iterator<Item = &OpRecord> {
        self.records
            .iter()
            .filter(|r| r.start_s + r.latency_s <= self.seconds)
    }

    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.failed).count() as u64
    }
}

/// The figures of `passes` pooled. Each pass's clock stops at its last
/// completion before the deadline rather than at the deadline itself: a
/// count over a window that ends mid-operation moves in steps of one
/// operation, which on the slow workloads (some fifty operations a run)
/// is a 2 % step.
pub fn pooled(passes: &[Pass], tail_pct: f64) -> Figures {
    let mut systems = 0u64;
    let mut span_s = 0.0;
    let mut latencies: Vec<f64> = Vec::new();
    for pass in passes {
        for r in pass.completed() {
            systems += u64::from(r.systems);
            latencies.push(r.latency_s * 1e3);
        }
        span_s += pass
            .completed()
            .map(|r| r.start_s + r.latency_s)
            .fold(0.0, f64::max);
    }
    latencies.sort_unstable_by(|a, b| a.total_cmp(b));
    let rank = (tail_pct * latencies.len() as f64).ceil() as usize;
    Figures {
        throughput: systems as f64 / span_s,
        p50_ms: percentile_sorted(&latencies, 0.5),
        tail_ms: percentile_sorted(&latencies, tail_pct),
        samples: latencies.len(),
        beyond_tail: latencies.len().saturating_sub(rank),
    }
}

/// The figures a run reports: throughput and median latency of the
/// **best pass** (highest throughput, lowest latency). The host takes
/// the cores away in bursts and in episodes, which only ever slows a
/// pass down, so the least disturbed pass is the best estimate of what
/// the code does, and it repeats from run to run twice as closely as the
/// median of the passes. A change to the code moves every pass, the
/// best one included. The tail is the best pass's too where
/// `tail_by_pass`; a slow workload has too few operations per pass for
/// a tail with ten samples beyond it, and takes it from the pool.
pub fn reported(passes: &[Pass], tail_pct: f64, tail_by_pass: bool) -> Figures {
    let each: Vec<Figures> = passes
        .iter()
        .map(|p| pooled(std::slice::from_ref(p), tail_pct))
        .collect();
    let lowest = |f: fn(&Figures) -> f64| each.iter().map(f).fold(f64::INFINITY, f64::min);
    let least = |f: fn(&Figures) -> usize| each.iter().map(f).min().unwrap_or(0);
    let whole = pooled(passes, tail_pct);
    Figures {
        throughput: each.iter().map(|w| w.throughput).fold(0.0, f64::max),
        p50_ms: lowest(|w| w.p50_ms),
        ..if tail_by_pass {
            Figures {
                tail_ms: lowest(|w| w.tail_ms),
                samples: least(|w| w.samples),
                beyond_tail: least(|w| w.beyond_tail),
                ..whole
            }
        } else {
            whole
        }
    }
}
