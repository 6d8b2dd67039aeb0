//! Serve-side telemetry: request-phase histograms and spans.
//!
//! [`ServeTelemetry`] pre-registers the request-lifecycle metric
//! families — queue wait, plan resolution (labeled by
//! [`PlanSource`]) and end-to-end solve time — plus a preallocated
//! [`SpanRing`] for Chrome-trace export. Handles are resolved once at
//! service startup, so the per-request observation path never touches
//! the registry.
//!
//! Gating is the service's job: every observation site checks
//! [`petamg_obs::enabled`] (one relaxed atomic load) before taking a
//! timestamp, and spans additionally check [`petamg_obs::trace_enabled`].
//! The struct itself is mode-agnostic so tests can drive it directly.

use crate::service::PlanSource;
use petamg_obs::{Histogram, Registry, SpanRing};
use std::time::Instant;

/// Spans retained for Chrome-trace export (oldest overwritten first).
pub(crate) const SPAN_RING_CAPACITY: usize = 4096;

/// A phase timestamp taken only when telemetry is on: the `Instant`
/// feeds histograms (nanosecond durations), the epoch-relative
/// microsecond start feeds spans.
#[derive(Clone, Copy)]
pub(crate) struct PhaseStamp {
    /// Wall-clock start for histogram durations.
    pub at: Instant,
    /// Microseconds since the process epoch, for span records.
    pub start_us: u64,
}

impl PhaseStamp {
    /// `Some` stamp when latency telemetry is enabled, `None` (one
    /// relaxed atomic load, no clock read) otherwise.
    #[inline]
    pub(crate) fn capture() -> Option<Self> {
        if !petamg_obs::enabled() {
            return None;
        }
        Some(PhaseStamp {
            at: Instant::now(),
            start_us: petamg_obs::now_us(),
        })
    }
}

/// Pre-resolved request-phase metric handles plus the span ring.
pub(crate) struct ServeTelemetry {
    /// Submission-to-worker-pickup latency.
    pub queue_wait_seconds: Histogram,
    /// Plan resolution latency by [`PlanSource`].
    plan_resolve_seconds: [Histogram; 5],
    /// End-to-end guarded-solve latency, per request.
    pub solve_seconds: Histogram,
    /// Request-phase spans for Chrome-trace export.
    pub spans: SpanRing,
}

impl ServeTelemetry {
    /// Register the serve metric families in `registry` and resolve
    /// every handle this feed will ever touch.
    pub(crate) fn register(registry: &Registry) -> Self {
        ServeTelemetry {
            queue_wait_seconds: registry.histogram("petamg_queue_wait_seconds", &[]),
            plan_resolve_seconds: PlanSource::ALL.map(|source| {
                registry.histogram("petamg_plan_resolve_seconds", &[("source", source.label())])
            }),
            solve_seconds: registry.histogram("petamg_solve_seconds", &[]),
            spans: SpanRing::with_capacity(SPAN_RING_CAPACITY),
        }
    }

    /// Record one queue wait that started at `stamp` and ended now.
    pub(crate) fn observe_queue_wait(&self, stamp: PhaseStamp) {
        self.queue_wait_seconds.record_elapsed(stamp.at);
        if petamg_obs::trace_enabled() {
            self.spans
                .record_since("queue_wait", "serve", "", stamp.start_us);
        }
    }

    /// Record one plan resolution that started at `stamp`.
    pub(crate) fn observe_plan_resolve(&self, source: PlanSource, stamp: PhaseStamp) {
        self.plan_resolve_seconds[source.index()].record_elapsed(stamp.at);
        if petamg_obs::trace_enabled() {
            self.spans
                .record_since("plan_resolve", "serve", source.label(), stamp.start_us);
        }
    }

    /// Record one guarded solve that started at `stamp`. `detail` is
    /// the serving rung label (or `"ladder-exhausted"`).
    pub(crate) fn observe_solve(&self, detail: &'static str, stamp: PhaseStamp) {
        self.solve_seconds.record_elapsed(stamp.at);
        if petamg_obs::trace_enabled() {
            self.spans
                .record_since("solve", "serve", detail, stamp.start_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_obs::Registry;

    #[test]
    fn every_plan_source_has_its_own_series() {
        let registry = Registry::new();
        let telemetry = ServeTelemetry::register(&registry);
        let stamp = PhaseStamp {
            at: Instant::now(),
            start_us: 0,
        };
        for source in PlanSource::ALL {
            telemetry.observe_plan_resolve(source, stamp);
        }
        let snap = registry.snapshot();
        for source in PlanSource::ALL {
            assert_eq!(
                snap.histogram_count("petamg_plan_resolve_seconds", &[("source", source.label())]),
                1,
                "{source:?}"
            );
        }
    }

    #[test]
    fn phase_observations_land_in_their_families() {
        let registry = Registry::new();
        let telemetry = ServeTelemetry::register(&registry);
        let stamp = PhaseStamp {
            at: Instant::now(),
            start_us: 0,
        };
        telemetry.observe_queue_wait(stamp);
        telemetry.observe_solve("tuned", stamp);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram_count("petamg_queue_wait_seconds", &[]), 1);
        assert_eq!(snap.histogram_count("petamg_solve_seconds", &[]), 1);
    }
}
