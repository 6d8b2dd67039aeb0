//! Forwards left by the deleted kernel-knob layer; only the benchmark's probes name them.

use petamg_grid::SimdMode;

// Pinned by `benchmark/src/probes.rs` (`choice.nary.evaluations.level7`, `core.plan.cycle_us.*`); delete with ROADMAP 1(i).
#[doc(hidden)]
pub struct KnobTunerOptions;

impl KnobTunerOptions {
    pub fn quick(_level: usize) -> Self {
        KnobTunerOptions
    }
}

#[doc(hidden)]
pub struct KnobTuneResult {
    pub evaluations: usize,
}

#[doc(hidden)]
pub fn tune_kernel_knobs(_mode: &SimdMode, _opts: &KnobTunerOptions) -> KnobTuneResult {
    KnobTuneResult { evaluations: 0 }
}

#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DefaultKnobs;

impl DefaultKnobs {
    pub fn is_all_default(&self) -> bool {
        true
    }
}

impl crate::plan::ExecCtx {
    #[doc(hidden)]
    pub fn with_knob_table(self, _table: DefaultKnobs) -> Self {
        self
    }
}
