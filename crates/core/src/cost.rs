//! The cost model.
//!
//! The tuner needs a scalar cost per candidate algorithm, and it has one
//! source for it: the operations the plan executor counts ([`OpCounts`])
//! priced on a [`MachineProfile`] ([`MachineProfile::time`]). This is the
//! substitution for the paper's three physical testbeds (Intel Xeon
//! E7340 "Harpertown"*, AMD Opteron 2356 "Barcelona", Sun Fire T200
//! "Niagara"), whose autotuner timed each candidate on the machine: the
//! profiles encode the architectural contrasts that drive the paper's
//! §4.3 observations — relative cost of the direct solver vs
//! relaxations, parallel width vs per-core speed, and cache capacity
//! effects at large grid levels. A count-based price makes the whole DP
//! tuner deterministic and unit-testable; no candidate is timed on the
//! host.
//!
//! *The paper's figures label the Intel machine both "Xeon E7340" and
//! "Harpertown"; we keep "Harpertown" as the profile name.

use crate::trace::CycleEvent;
use petamg_grid::level_size;
use serde::{Deserialize, Serialize};

/// Per-level operation counters accumulated by the plan executor.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LevelOps {
    /// Relaxation sweeps (one full red-black SOR pass).
    pub relax_sweeps: u64,
    /// Residual computations.
    pub residuals: u64,
    /// Restrictions (to the next coarser level).
    pub restricts: u64,
    /// Interpolations (from the next coarser level).
    pub interps: u64,
    /// Direct solves at this level.
    pub direct_solves: u64,
}

impl LevelOps {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        *self == LevelOps::default()
    }
}

/// Operation counts per multigrid level (index = level `k`, grid size
/// `2^k + 1`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OpCounts {
    /// `per_level[k]` holds the counters for level `k` (index 0 unused).
    pub per_level: Vec<LevelOps>,
}

impl OpCounts {
    /// Empty counts able to hold levels `0..=max_level`.
    pub fn new(max_level: usize) -> Self {
        OpCounts {
            per_level: vec![LevelOps::default(); max_level + 1],
        }
    }

    /// Mutable counters for `level`, growing on demand.
    pub fn level_mut(&mut self, level: usize) -> &mut LevelOps {
        if self.per_level.len() <= level {
            self.per_level.resize(level + 1, LevelOps::default());
        }
        &mut self.per_level[level]
    }

    /// Count one executed operation: each event bumps one counter at
    /// its level (an SOR solve by its sweeps); entering a family member
    /// counts nothing.
    pub(crate) fn note(&mut self, event: CycleEvent) {
        match event {
            CycleEvent::Relax { level } => self.level_mut(level).relax_sweeps += 1,
            CycleEvent::Residual { level } => self.level_mut(level).residuals += 1,
            CycleEvent::Restrict { from } => self.level_mut(from).restricts += 1,
            CycleEvent::Interpolate { to } => self.level_mut(to).interps += 1,
            CycleEvent::Direct { level } => self.level_mut(level).direct_solves += 1,
            CycleEvent::SorSolve { level, iterations } => {
                self.level_mut(level).relax_sweeps += u64::from(iterations)
            }
            CycleEvent::EnterV { .. } | CycleEvent::EnterFmg { .. } => {}
        }
    }

    /// The counts of `events`, noted one by one: how a price is built
    /// for operations the executor has not run.
    pub(crate) fn of(events: &[CycleEvent]) -> Self {
        let mut ops = OpCounts::default();
        for &event in events {
            ops.note(event);
        }
        ops
    }

    /// Merge another count set into this one: the tests' sum.
    #[cfg(test)]
    pub(crate) fn add(&mut self, other: &OpCounts) {
        if self.per_level.len() < other.per_level.len() {
            self.per_level
                .resize(other.per_level.len(), LevelOps::default());
        }
        for (dst, src) in self.per_level.iter_mut().zip(&other.per_level) {
            dst.relax_sweeps += src.relax_sweeps;
            dst.residuals += src.residuals;
            dst.restricts += src.restricts;
            dst.interps += src.interps;
            dst.direct_solves += src.direct_solves;
        }
    }

    /// Total relaxation sweeps across levels (diagnostic).
    pub fn total_relax_sweeps(&self) -> u64 {
        self.per_level.iter().map(|l| l.relax_sweeps).sum()
    }

    /// Total direct solves across levels (diagnostic).
    pub fn total_direct_solves(&self) -> u64 {
        self.per_level.iter().map(|l| l.direct_solves).sum()
    }
}

/// An analytic machine model: per-cell kernel costs, a direct-solve cost
/// coefficient, parallel width, and a cache-capacity penalty.
///
/// The absolute scale is arbitrary (nanosecond-ish); only ratios matter
/// to the tuner.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineProfile {
    /// Human-readable name.
    pub name: String,
    /// Cost per interior cell of one relaxation sweep.
    pub relax_ns: f64,
    /// Cost per interior cell of a residual computation.
    pub residual_ns: f64,
    /// Cost per *coarse* cell of a restriction.
    pub restrict_ns: f64,
    /// Cost per *fine* cell of an interpolation.
    pub interp_ns: f64,
    /// Direct solve cost coefficient: `direct_ns · cells^1.5`
    /// (back-substitution through a factor of bandwidth ≈ √cells; the
    /// O(N⁴) factorization is amortized by the factor cache).
    pub direct_ns: f64,
    /// Fixed overhead per recorded operation (recursion, task setup).
    pub call_overhead_ns: f64,
    /// Worker threads the runtime would use.
    pub threads: usize,
    /// Per-sweep parallel coordination cost (barrier/steal traffic),
    /// charged whenever a sweep is large enough to be split.
    pub spawn_ns: f64,
    /// Grids with more cells than this spill the cache…
    pub cache_cells: f64,
    /// …and pay this multiplier on all per-cell work.
    pub mem_penalty: f64,
}

impl MachineProfile {
    /// Intel Xeon E7340 stand-in: fast out-of-order cores, 8 threads,
    /// large shared L2, strong direct-solve throughput.
    pub fn intel_harpertown() -> Self {
        MachineProfile {
            name: "intel-harpertown".into(),
            relax_ns: 1.0,
            residual_ns: 0.9,
            restrict_ns: 1.1,
            interp_ns: 0.9,
            direct_ns: 0.55,
            call_overhead_ns: 300.0,
            threads: 8,
            spawn_ns: 8_000.0,
            cache_cells: 300_000.0, // ~8MB L2 over f64 working set
            mem_penalty: 2.2,
        }
    }

    /// AMD Opteron 2356 stand-in: similar width, slightly slower FP and
    /// smaller per-core cache — the direct solver is *relatively* more
    /// expensive, pushing the tuned direct cutoff to coarser grids (the
    /// §4.3 observation).
    pub fn amd_barcelona() -> Self {
        MachineProfile {
            name: "amd-barcelona".into(),
            relax_ns: 1.15,
            residual_ns: 1.05,
            restrict_ns: 1.25,
            interp_ns: 1.05,
            direct_ns: 1.1,
            call_overhead_ns: 380.0,
            threads: 8,
            spawn_ns: 9_000.0,
            cache_cells: 150_000.0, // 2MB L3 + small L2s
            mem_penalty: 2.6,
        }
    }

    /// Sun Fire T200 "Niagara" stand-in: many slow in-order threads,
    /// weak scalar FP (very expensive direct solve), cheap thread
    /// coordination, bandwidth-oriented memory system.
    pub(crate) fn sun_niagara() -> Self {
        MachineProfile {
            name: "sun-niagara".into(),
            relax_ns: 6.0,
            residual_ns: 5.5,
            restrict_ns: 6.5,
            interp_ns: 5.5,
            direct_ns: 9.0,
            call_overhead_ns: 900.0,
            threads: 32,
            spawn_ns: 4_000.0,
            cache_cells: 80_000.0, // 3MB L2 shared by 32 threads
            mem_penalty: 1.6,      // flat memory system relative to cores
        }
    }

    /// All three paper testbed stand-ins.
    pub fn all_testbeds() -> Vec<MachineProfile> {
        vec![
            Self::intel_harpertown(),
            Self::amd_barcelona(),
            Self::sun_niagara(),
        ]
    }

    /// Effective parallel speedup for a sweep over `cells` cells:
    /// `threads`-way ideal, derated by a spawn/critical-path term so tiny
    /// grids run effectively sequentially.
    fn speedup(&self, cells: f64) -> f64 {
        if self.threads <= 1 {
            return 1.0;
        }
        // Amdahl-ish: serial share shrinks as grids grow.
        let t = self.threads as f64;
        let grain = 4096.0; // cells below which splitting is pointless
        if cells <= grain {
            1.0
        } else {
            let frac = (grain / cells).min(1.0);
            1.0 / (frac + (1.0 - frac) / t)
        }
    }

    fn mem_factor(&self, cells: f64) -> f64 {
        if cells > self.cache_cells {
            self.mem_penalty
        } else {
            1.0
        }
    }

    /// Modeled seconds for one sweep-type operation over a level.
    fn op_time(&self, per_cell_ns: f64, cells: f64) -> f64 {
        let work = per_cell_ns * cells * self.mem_factor(cells);
        let par = work / self.speedup(cells);
        let spawn = if cells > 4096.0 { self.spawn_ns } else { 0.0 };
        (par + spawn + self.call_overhead_ns) * 1e-9
    }

    /// Modeled seconds for a direct solve at a level with `cells`
    /// interior cells (sequential back-substitution; O(cells^1.5)).
    fn direct_time(&self, cells: f64) -> f64 {
        (self.direct_ns * cells.powf(1.5) * self.mem_factor(cells) + self.call_overhead_ns) * 1e-9
    }

    /// Total modeled time in seconds for a set of operation counts.
    pub fn time(&self, ops: &OpCounts) -> f64 {
        let mut total = 0.0;
        for (level, l) in ops.per_level.iter().enumerate() {
            if l.is_empty() || level == 0 {
                continue;
            }
            let n = level_size(level);
            let cells = ((n - 2) * (n - 2)) as f64;
            let coarse_cells = if level >= 2 {
                let nc = level_size(level - 1);
                ((nc - 2) * (nc - 2)) as f64
            } else {
                1.0
            };
            total += l.relax_sweeps as f64 * self.op_time(self.relax_ns, cells);
            total += l.residuals as f64 * self.op_time(self.residual_ns, cells);
            total += l.restricts as f64 * self.op_time(self.restrict_ns, coarse_cells);
            total += l.interps as f64 * self.op_time(self.interp_ns, cells);
            total += l.direct_solves as f64 * self.direct_time(cells);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_with(level: usize, f: impl FnOnce(&mut LevelOps)) -> OpCounts {
        let mut ops = OpCounts::new(level);
        f(ops.level_mut(level));
        ops
    }

    #[test]
    fn opcounts_merge() {
        let mut a = ops_with(3, |l| l.relax_sweeps = 2);
        let b = ops_with(5, |l| {
            l.relax_sweeps = 1;
            l.direct_solves = 4;
        });
        a.add(&b);
        assert_eq!(a.per_level[3].relax_sweeps, 2);
        assert_eq!(a.per_level[5].relax_sweeps, 1);
        assert_eq!(a.total_relax_sweeps(), 3);
        assert_eq!(a.total_direct_solves(), 4);
    }

    #[test]
    fn level_mut_grows() {
        let mut ops = OpCounts::new(2);
        ops.level_mut(7).interps = 3;
        assert_eq!(ops.per_level.len(), 8);
        assert_eq!(ops.per_level[7].interps, 3);
    }

    #[test]
    fn modeled_time_scales_with_work() {
        let p = MachineProfile::intel_harpertown();
        let small = p.time(&ops_with(4, |l| l.relax_sweeps = 1));
        let large = p.time(&ops_with(8, |l| l.relax_sweeps = 1));
        // Level 8 has 289x the cells of level 4, but the model lets the
        // big sweep parallelize (8 threads), so expect >5x, not >100x.
        assert!(large > small * 5.0, "{large} vs {small}");
        let double = p.time(&ops_with(8, |l| l.relax_sweeps = 2));
        let single = p.time(&ops_with(8, |l| l.relax_sweeps = 1));
        assert!(double > 1.8 * single && double < 2.2 * single);
    }

    #[test]
    fn direct_grows_faster_than_relaxation() {
        // Direct O(cells^1.5) must eventually dwarf a sweep O(cells):
        // that asymmetry is what creates the paper's direct-solve
        // crossover at small sizes.
        let p = MachineProfile::intel_harpertown();
        let k_small = 3;
        let k_large = 9;
        let ratio_small = p.time(&ops_with(k_small, |l| l.direct_solves = 1))
            / p.time(&ops_with(k_small, |l| l.relax_sweeps = 1));
        let ratio_large = p.time(&ops_with(k_large, |l| l.direct_solves = 1))
            / p.time(&ops_with(k_large, |l| l.relax_sweeps = 1));
        assert!(
            ratio_large > 4.0 * ratio_small,
            "direct/relax ratio must grow: {ratio_small} -> {ratio_large}"
        );
    }

    #[test]
    fn profiles_are_distinct_in_direct_vs_relax_tradeoff() {
        // The AMD and Sun profiles make the direct solver relatively
        // more expensive than the Intel profile — the §4.3 driver for
        // coarser direct cutoffs.
        let rel = |p: &MachineProfile| p.direct_ns / p.relax_ns;
        let intel = rel(&MachineProfile::intel_harpertown());
        let amd = rel(&MachineProfile::amd_barcelona());
        let sun = rel(&MachineProfile::sun_niagara());
        assert!(amd > intel);
        assert!(sun > intel);
    }

    #[test]
    fn parallel_speedup_bounded_by_threads() {
        let p = MachineProfile::sun_niagara();
        let s = p.speedup(1e9);
        assert!(s > 1.0 && s <= p.threads as f64 + 1e-9);
        assert_eq!(p.speedup(100.0), 1.0, "tiny sweeps stay sequential");
    }

    #[test]
    fn cache_penalty_kicks_in_above_capacity() {
        let p = MachineProfile::amd_barcelona();
        assert_eq!(p.mem_factor(1000.0), 1.0);
        assert_eq!(p.mem_factor(1e7), p.mem_penalty);
    }

    #[test]
    fn modeled_cost_is_deterministic() {
        let p = MachineProfile::sun_niagara();
        let ops = ops_with(6, |l| {
            l.relax_sweeps = 5;
            l.restricts = 2;
            l.interps = 2;
            l.direct_solves = 1;
        });
        assert_eq!(p.time(&ops).to_bits(), p.time(&ops).to_bits());
    }

    #[test]
    fn serde_roundtrip() {
        let p = MachineProfile::amd_barcelona();
        let s = serde_json::to_string(&p).unwrap();
        let p2: MachineProfile = serde_json::from_str(&s).unwrap();
        assert_eq!(p, p2);
    }
}
