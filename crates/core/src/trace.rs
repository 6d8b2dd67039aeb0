//! Cycle-shape event traces.
//!
//! Executing a tuned plan optionally records the sequence of multigrid
//! operations. The renderer (`crate::render`) turns these traces into
//! the paper's cycle diagrams (Fig 5): dots for relaxations,
//! descending/ascending path segments for restrictions/interpolations,
//! solid arrows for direct solves and dashed arrows for iterative
//! (SOR) solves.

/// A rung of the guarded-solve degradation ladder (see `crate::guard`):
/// the strategies tried in order when a solve misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderRung {
    /// The caller-supplied tuned plan (fastest; first choice).
    TunedPlan,
    /// The default heuristic V-cycle plan (`plan::simple_v_family`).
    HeuristicPlan,
    /// A full-size direct band-Cholesky solve (slow but unconditional).
    Direct,
}

impl std::fmt::Display for LadderRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LadderRung::TunedPlan => "tuned plan",
            LadderRung::HeuristicPlan => "heuristic plan",
            LadderRung::Direct => "direct solve",
        })
    }
}

/// One multigrid operation, as recorded during plan execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CycleEvent {
    /// A relaxation sweep at `level`.
    Relax {
        /// Grid level of the sweep.
        level: usize,
    },
    /// A residual computation at `level` (not drawn, but counted).
    Residual {
        /// Grid level.
        level: usize,
    },
    /// Restriction from `from` to `from - 1`.
    Restrict {
        /// Source (finer) level.
        from: usize,
    },
    /// Interpolation from `to - 1` up to `to`.
    Interpolate {
        /// Destination (finer) level.
        to: usize,
    },
    /// A direct band-Cholesky solve at `level`.
    Direct {
        /// Grid level.
        level: usize,
    },
    /// An iterative SOR solve at `level` for `iterations` sweeps.
    SorSolve {
        /// Grid level.
        level: usize,
        /// Sweeps executed.
        iterations: u32,
    },
    /// Entry into `MULTIGRID-V_{acc}` at `level` (Fig 4 call stacks).
    EnterV {
        /// Grid level.
        level: usize,
        /// Accuracy index `i` of the invoked family member.
        acc_idx: usize,
    },
    /// Entry into `FULL-MULTIGRID_{acc}` at `level`.
    EnterFmg {
        /// Grid level.
        level: usize,
        /// Accuracy index.
        acc_idx: usize,
    },
    /// A degradation-ladder rung failed during a guarded solve; the
    /// next rung (if any) takes over.
    RungFailed {
        /// The rung that failed.
        rung: LadderRung,
        /// Wall-clock seconds the failed attempt consumed before the
        /// guard rejected it.
        seconds: f64,
    },
    /// The ladder rung whose solution a guarded solve returned.
    RungServed {
        /// The serving rung.
        rung: LadderRung,
        /// Wall-clock seconds of the serving attempt.
        seconds: f64,
    },
}

/// Deepest grid level the per-level kernel-time table covers when a
/// tracer clocks **all** levels ([`Tracer::timing_all`]). Level 13 is
/// already n = 8193 — beyond every sweep in the workspace.
pub const MAX_TIMED_LEVELS: usize = 16;

/// An in-flight kernel timing started by
/// [`Tracer::start_kernel_clock`]: the level being clocked and its
/// start timestamp. Opaque to the plan executor — call sites pass it
/// straight back to [`Tracer::stop_kernel_clock`].
#[derive(Clone, Copy, Debug)]
pub struct KernelClock {
    level: usize,
    t0: std::time::Instant,
}

/// An event recorder that can be disabled (zero-cost in tuning loops).
///
/// Besides cycle events, a tracer can **clock kernels**: armed with
/// [`Tracer::timing_all`], the plan executor brackets every kernel
/// invocation with a timestamp pair and accumulates the elapsed time
/// per level ([`Tracer::level_kernel_seconds`]) — the feed for the
/// telemetry layer's per-level kernel histograms.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    enabled: bool,
    /// Recorded events in execution order.
    pub events: Vec<CycleEvent>,
    /// Whether every level's kernels are being clocked into
    /// `level_seconds`.
    timed_all: bool,
    /// Per-level kernel seconds when `timed_all` (levels ≥
    /// [`MAX_TIMED_LEVELS`] accumulate into the last slot).
    level_seconds: [f64; MAX_TIMED_LEVELS],
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// A no-op tracer.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer that clocks every level's kernels into the per-level
    /// table (events stay off) — the telemetry layer's feed.
    pub fn timing_all() -> Self {
        Tracer {
            timed_all: true,
            ..Tracer::default()
        }
    }

    /// Additionally clock every level's kernels into the per-level
    /// table, keeping this tracer's other configuration (composes with
    /// event recording).
    pub fn with_timing_all(mut self) -> Self {
        self.timed_all = true;
        self
    }

    /// Rebuild this tracer's *configuration* (event recording,
    /// timing-all flag) with all counters and events cleared — what
    /// "reset" means for a reused execution context.
    pub fn reconfigured(&self) -> Self {
        Tracer {
            enabled: self.enabled,
            timed_all: self.timed_all,
            ..Tracer::default()
        }
    }

    /// Record an event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, e: CycleEvent) {
        if self.enabled {
            self.events.push(e);
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start clocking one kernel invocation at `level`: returns a
    /// clock when the tracer is in timing-all mode, `None` otherwise.
    /// Pass the result to [`Tracer::stop_kernel_clock`].
    #[inline]
    pub fn start_kernel_clock(&self, level: usize) -> Option<KernelClock> {
        self.timed_all.then(|| KernelClock {
            level,
            t0: std::time::Instant::now(),
        })
    }

    /// Accumulate a clock started by [`Tracer::start_kernel_clock`]
    /// into the per-level table.
    #[inline]
    pub fn stop_kernel_clock(&mut self, start: Option<KernelClock>) {
        if let Some(clock) = start {
            let dt = clock.t0.elapsed().as_secs_f64();
            self.level_seconds[clock.level.min(MAX_TIMED_LEVELS - 1)] += dt;
        }
    }

    /// Whether every level's kernels are being clocked (survives
    /// counter resets).
    pub fn is_timing_all(&self) -> bool {
        self.timed_all
    }

    /// Per-level kernel seconds accumulated in timing-all mode (all
    /// zeros otherwise).
    pub fn level_kernel_seconds(&self) -> &[f64; MAX_TIMED_LEVELS] {
        &self.level_seconds
    }

    /// Deepest level mentioned by any event (0 if empty).
    pub fn max_level(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| match e {
                CycleEvent::Relax { level }
                | CycleEvent::Residual { level }
                | CycleEvent::Direct { level }
                | CycleEvent::SorSolve { level, .. }
                | CycleEvent::EnterV { level, .. }
                | CycleEvent::EnterFmg { level, .. } => Some(*level),
                CycleEvent::Restrict { from } => Some(*from),
                CycleEvent::Interpolate { to } => Some(*to),
                CycleEvent::RungFailed { .. } | CycleEvent::RungServed { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Shallowest (coarsest) level reached (`usize::MAX` if empty).
    pub fn min_level(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| match e {
                CycleEvent::Relax { level }
                | CycleEvent::Residual { level }
                | CycleEvent::Direct { level }
                | CycleEvent::SorSolve { level, .. }
                | CycleEvent::EnterV { level, .. }
                | CycleEvent::EnterFmg { level, .. } => Some(*level),
                CycleEvent::Restrict { from } => Some(from - 1),
                CycleEvent::Interpolate { to } => Some(to - 1),
                CycleEvent::RungFailed { .. } | CycleEvent::RungServed { .. } => None,
            })
            .min()
            .unwrap_or(usize::MAX)
    }

    /// The rung that served a guarded solve, if one was recorded.
    pub fn served_rung(&self) -> Option<LadderRung> {
        self.events.iter().rev().find_map(|e| match e {
            CycleEvent::RungServed { rung, .. } => Some(*rung),
            _ => None,
        })
    }

    /// Rungs recorded as failed during a guarded solve, in order.
    pub fn failed_rungs(&self) -> Vec<LadderRung> {
        self.events
            .iter()
            .filter_map(|e| match e {
                CycleEvent::RungFailed { rung, .. } => Some(*rung),
                _ => None,
            })
            .collect()
    }

    /// Count events matching a predicate.
    pub fn count(&self, f: impl Fn(&CycleEvent) -> bool) -> usize {
        self.events.iter().filter(|e| f(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(CycleEvent::Relax { level: 3 });
        assert!(t.events.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_tracer_preserves_order() {
        let mut t = Tracer::enabled();
        t.record(CycleEvent::Relax { level: 4 });
        t.record(CycleEvent::Restrict { from: 4 });
        t.record(CycleEvent::Direct { level: 3 });
        t.record(CycleEvent::Interpolate { to: 4 });
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.events[0], CycleEvent::Relax { level: 4 });
        assert_eq!(t.max_level(), 4);
        assert_eq!(t.min_level(), 3);
        assert_eq!(t.count(|e| matches!(e, CycleEvent::Direct { .. })), 1);
    }

    #[test]
    fn level_bounds_from_transfers() {
        let mut t = Tracer::enabled();
        t.record(CycleEvent::Restrict { from: 5 });
        assert_eq!(t.min_level(), 4);
        assert_eq!(t.max_level(), 5);
    }

    #[test]
    fn timing_all_attributes_kernel_time_per_level() {
        let mut t = Tracer::timing_all();
        assert!(t.is_timing_all());
        let clock = t.start_kernel_clock(3);
        assert!(clock.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.stop_kernel_clock(clock);
        let clock = t.start_kernel_clock(7);
        t.stop_kernel_clock(clock);
        let per_level = t.level_kernel_seconds();
        assert!(per_level[3] > 0.0, "level 3 accumulated");
        assert!(per_level[7] >= 0.0 && per_level[2] == 0.0);
        // Reconfiguring keeps the mode, clears the table.
        let fresh = t.reconfigured();
        assert!(fresh.is_timing_all());
        assert_eq!(fresh.level_kernel_seconds()[3], 0.0);
        // A tracer that is not timing all clocks nothing.
        assert!(Tracer::enabled().start_kernel_clock(3).is_none());
    }
}
