//! Low-overhead telemetry for the solve/serve stack.
//!
//! The serving engine's north star is production traffic, and
//! production traffic needs a measurement substrate: the autotuner
//! itself (and the online-tuning direction the ROADMAP points at) is
//! driven by timed cycle traces, so the telemetry layer is not an
//! accessory — it is the feedback signal. This crate provides that
//! substrate without compromising the serving invariants the rest of
//! the workspace fought for:
//!
//! * **Registry** ([`Registry`]): process- or service-scoped metric
//!   families — atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   log₂-scale latency [`Histogram`]s whose record path is a couple
//!   of relaxed `fetch_add`s on a per-thread shard (no locks, no
//!   allocation).
//! * **Spans** ([`SpanRing`]): a preallocated ring of phase records
//!   (queue wait → plan resolve → solve) exportable as Chrome
//!   trace-event JSON for `chrome://tracing`.
//! * **Sinks**: a stable serde [`TelemetrySnapshot`] (JSON), a
//!   Prometheus-style text exposition ([`render_prometheus`]), and a
//!   Chrome trace export ([`chrome_trace_json`]).
//!
//! Everything latency-shaped is gated by `PETAMG_TELEMETRY`
//! (see [`TelemetryMode`]): with telemetry off, the fast path is **one
//! relaxed atomic load** ([`enabled`]) and the serving stack's
//! zero-steady-state-allocation invariant is untouched. Plain request
//! *counters* (the pre-existing `ServiceStats`/`LibraryStats` shapes)
//! always count — they were unconditional before this crate existed
//! and stay so.
//!
//! The crate is a leaf: it depends only on the serde shims, so every
//! layer (grid upward) can use it.

pub mod env;
mod hist;
mod registry;
mod snapshot;
mod span;

pub use hist::{bucket_le_ns, Histogram, HistogramData, HISTOGRAM_BUCKETS};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::{
    chrome_trace_json, render_prometheus, BucketSample, CounterSample, GaugeSample,
    HistogramSample, LabelSample, TelemetrySnapshot,
};
pub use span::{SpanRecord, SpanRing};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What the `PETAMG_TELEMETRY` gate admits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No latency measurement: histograms and spans are skipped, and
    /// the check itself is one relaxed atomic load. Plain counters
    /// still count (they predate this crate and are effectively free).
    Off,
    /// Histograms and kernel/phase timing record; spans do not.
    /// `PETAMG_TELEMETRY=1` (or `on`, `metrics`, `true`).
    Metrics,
    /// Metrics plus span capture for Chrome-trace export.
    /// `PETAMG_TELEMETRY=2` (or `trace`, `full`).
    Trace,
}

const MODE_UNINIT: u8 = u8::MAX;
const MODE_OFF: u8 = 0;
const MODE_METRICS: u8 = 1;
const MODE_TRACE: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[cold]
fn init_mode() -> u8 {
    let m = match env::telemetry_mode() {
        TelemetryMode::Off => MODE_OFF,
        TelemetryMode::Metrics => MODE_METRICS,
        TelemetryMode::Trace => MODE_TRACE,
    };
    // `compare_exchange` so a racing `set_mode` is not clobbered by a
    // concurrent lazy init.
    match MODE.compare_exchange(MODE_UNINIT, m, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => m,
        Err(current) => current,
    }
}

/// The process-wide telemetry mode: `PETAMG_TELEMETRY` resolved once,
/// overridable by [`set_mode`]. After the first call this is a single
/// relaxed atomic load.
#[inline]
pub fn mode() -> TelemetryMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => TelemetryMode::Off,
        MODE_METRICS => TelemetryMode::Metrics,
        MODE_TRACE => TelemetryMode::Trace,
        _ => match init_mode() {
            MODE_METRICS => TelemetryMode::Metrics,
            MODE_TRACE => TelemetryMode::Trace,
            _ => TelemetryMode::Off,
        },
    }
}

/// Whether latency telemetry (histograms, phase timing) is on. The
/// disabled fast path is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    !matches!(mode(), TelemetryMode::Off)
}

/// Whether span capture (Chrome-trace export) is on.
#[inline]
pub fn trace_enabled() -> bool {
    matches!(mode(), TelemetryMode::Trace)
}

/// Override the telemetry mode programmatically (tests, benches, and
/// embedders that do not use the environment variable).
pub fn set_mode(m: TelemetryMode) {
    let v = match m {
        TelemetryMode::Off => MODE_OFF,
        TelemetryMode::Metrics => MODE_METRICS,
        TelemetryMode::Trace => MODE_TRACE,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The process epoch all span timestamps are measured from (set on
/// first use).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch. Span timestamps use this so
/// a trace's clock starts near zero and fits Chrome's `ts` field.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// A small dense per-thread index, assigned on first use. Histogram
/// shard selection and span thread ids both key off it, so two
/// threads never contend on the same histogram shard until the thread
/// count exceeds the shard count.
#[inline]
pub(crate) fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    }
    INDEX.with(|slot| {
        let mut idx = slot.get();
        if idx == u64::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(idx);
        }
        idx
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_indices_are_distinct_and_stable() {
        let here = thread_index();
        assert_eq!(thread_index(), here, "stable within a thread");
        let other = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(here, other, "distinct across threads");
    }

    #[test]
    fn now_us_is_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
