//! The kernel-execution knobs and their per-level table.
//!
//! Three pure performance axes of the fused multigrid kernels: the
//! block-cursor **band height**, the **temporal-block depth** and the
//! **SIMD policy** — "block sizes" in PetaBricks terms (§3.2.2). The
//! grid kernels produce bitwise identical results for every setting
//! (including scalar vs vector, see `petamg_grid::simd`), so a table
//! changes speed, never answers. `crate::tuner::tune_kernel_knobs`
//! searches the axes; plan files carry the table (schema v5).

use petamg_grid::SimdPolicy;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// The `band_rows` values a table may hold and the tuner searches.
pub const BAND_ROWS_DOMAIN: RangeInclusive<usize> = 1..=512;

/// The `tblock` values a table may hold and the tuner searches.
pub const TBLOCK_DOMAIN: RangeInclusive<usize> = 1..=8;

/// One setting of the three kernel-execution axes.
///
/// All three knobs are pure performance axes: the grid kernels
/// guarantee bitwise identical results for every setting (including
/// scalar vs vector — see `petamg_grid::simd`), so the tuner can
/// search them freely without re-validating accuracy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelKnobs {
    /// Rows per block-cursor band (`Exec::with_band` in `petamg-grid`).
    pub band_rows: usize,
    /// SOR sweeps fused per wavefront traversal on a sequential
    /// executor (`petamg_solvers::fused`); a pool runs them staged.
    pub tblock: usize,
    /// Scalar-vs-vector row-kernel path (`Exec::with_simd`). Part of
    /// knob-table schema version 2, the only version
    /// [`KnobTable::validate`] accepts.
    pub simd: SimdPolicy,
}

impl Default for KernelKnobs {
    fn default() -> Self {
        KernelKnobs {
            band_rows: 32,
            tblock: 1,
            simd: SimdPolicy::Auto,
        }
    }
}

/// Schema version of serialized [`KnobTable`]s (band, tblock and simd
/// per level). [`KnobTable::validate`] rejects any other version.
pub const KNOB_TABLE_VERSION: u32 = 2;

/// A per-level table of [`KernelKnobs`]: entry `k` holds the knobs for
/// multigrid level `k` (grid `2^k + 1`). Index 0 is unused padding,
/// mirroring the DP tuner's `plans` table.
///
/// The paper's central mechanism is a *per level and per problem size*
/// choice; this table extends that from algorithms to the
/// kernel-execution knobs, so a plan can run coarse levels with short
/// bands (cache-resident rows) and fine levels with tall bands and
/// deeper temporal blocking. Every entry is a pure performance setting
/// — execution is bitwise identical for any table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnobTable {
    /// Serialized-schema version (see [`KNOB_TABLE_VERSION`]).
    pub version: u32,
    /// `per_level[k]` = knobs for level `k`; `per_level[0]` is padding.
    pub per_level: Vec<KernelKnobs>,
}

impl KnobTable {
    /// A table holding `knobs` at every level `0..=max_level`.
    pub fn uniform(max_level: usize, knobs: KernelKnobs) -> Self {
        KnobTable {
            version: KNOB_TABLE_VERSION,
            per_level: vec![knobs; max_level + 1],
        }
    }

    /// The all-defaults table (the pre-table global behaviour).
    pub fn defaults(max_level: usize) -> Self {
        Self::uniform(max_level, KernelKnobs::default())
    }

    /// Largest level the table covers.
    pub fn max_level(&self) -> usize {
        self.per_level.len().saturating_sub(1)
    }

    /// The knobs for `level`, clamping out-of-range levels to the
    /// finest tabulated entry (or the defaults for an empty table), so
    /// executors never panic on plans deeper than the table.
    pub fn get(&self, level: usize) -> KernelKnobs {
        match self.per_level.get(level) {
            Some(k) => *k,
            None => self.per_level.last().copied().unwrap_or_default(),
        }
    }

    /// Set the knobs for `level`, growing the table with defaults if
    /// needed.
    pub fn set(&mut self, level: usize, knobs: KernelKnobs) {
        if level >= self.per_level.len() {
            self.per_level.resize(level + 1, KernelKnobs::default());
        }
        self.per_level[level] = knobs;
    }

    /// Whether every entry equals every other (the table degenerates to
    /// a single global setting).
    pub fn is_uniform(&self) -> bool {
        self.per_level.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether every entry is the global default — i.e. the table
    /// carries no tuning at all. Executors use this to avoid overriding
    /// a caller's hand-configured policy with an untuned table.
    pub fn is_all_default(&self) -> bool {
        self.per_level.iter().all(|k| *k == KernelKnobs::default())
    }

    /// Structural validation: current version, non-empty, and every entry
    /// inside [`BAND_ROWS_DOMAIN`] and [`TBLOCK_DOMAIN`].
    pub fn validate(&self) -> Result<(), String> {
        if self.version != KNOB_TABLE_VERSION {
            return Err(format!(
                "unsupported knob-table version {} (expected {KNOB_TABLE_VERSION})",
                self.version
            ));
        }
        if self.per_level.is_empty() {
            return Err("knob table has no levels".into());
        }
        for (k, knobs) in self.per_level.iter().enumerate() {
            if !BAND_ROWS_DOMAIN.contains(&knobs.band_rows)
                || !TBLOCK_DOMAIN.contains(&knobs.tblock)
            {
                return Err(format!(
                    "level {k}: knobs {knobs:?} outside the knob domains"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_table_get_set_and_clamp() {
        let mut t = KnobTable::defaults(4);
        assert_eq!(t.max_level(), 4);
        assert!(t.is_uniform());
        let coarse = KernelKnobs {
            band_rows: 4,
            tblock: 2,
            simd: SimdPolicy::Auto,
        };
        t.set(2, coarse);
        assert!(!t.is_uniform());
        assert_eq!(t.get(2), coarse);
        assert_eq!(t.get(4), KernelKnobs::default());
        // Out-of-range levels clamp to the finest tabulated entry.
        t.set(4, coarse);
        assert_eq!(t.get(99), coarse);
        // set() grows the table as needed.
        t.set(6, KernelKnobs::default());
        assert_eq!(t.max_level(), 6);
        assert_eq!(t.get(5), KernelKnobs::default());
        t.validate().unwrap();
    }

    #[test]
    fn knob_table_default_detection() {
        let mut t = KnobTable::defaults(3);
        assert!(t.is_all_default(), "fresh table carries no tuning");
        t.set(
            2,
            KernelKnobs {
                band_rows: 8,
                tblock: 1,
                simd: SimdPolicy::Auto,
            },
        );
        assert!(!t.is_all_default());
        // Uniform but non-default: still real tuning.
        let u = KnobTable::uniform(
            3,
            KernelKnobs {
                band_rows: 64,
                tblock: 2,
                simd: SimdPolicy::Auto,
            },
        );
        assert!(u.is_uniform() && !u.is_all_default());
    }

    #[test]
    fn knob_table_validation_rejects_bad_entries() {
        let mut t = KnobTable::defaults(3);
        for version in [KNOB_TABLE_VERSION - 1, KNOB_TABLE_VERSION + 1] {
            t.version = version;
            assert!(t.validate().is_err(), "version {version} rejected");
        }

        let mut t = KnobTable::defaults(3);
        t.per_level[1] = KernelKnobs {
            band_rows: 0,
            tblock: 1,
            simd: SimdPolicy::Auto,
        };
        assert!(t.validate().is_err(), "zero band rejected");

        let mut t = KnobTable::defaults(3);
        t.per_level[2] = KernelKnobs {
            band_rows: 1024,
            tblock: 1,
            simd: SimdPolicy::Auto,
        };
        assert!(t.validate().is_err(), "out-of-domain band rejected");

        let mut t = KnobTable::defaults(3);
        t.per_level[3].tblock = 9;
        assert!(t.validate().is_err(), "out-of-domain tblock rejected");

        let t = KnobTable {
            version: KNOB_TABLE_VERSION,
            per_level: Vec::new(),
        };
        assert!(t.validate().is_err(), "empty table rejected");
    }

    #[test]
    fn knob_table_serde_roundtrip() {
        let mut t = KnobTable::defaults(3);
        t.set(
            3,
            KernelKnobs {
                band_rows: 64,
                tblock: 4,
                simd: SimdPolicy::Vector,
            },
        );
        let json = serde_json::to_string_pretty(&t).unwrap();
        assert!(json.contains("\"version\""), "schema is versioned: {json}");
        let back: KnobTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
