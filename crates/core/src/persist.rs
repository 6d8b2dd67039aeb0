//! Hardened plan persistence: tuned families — including their
//! per-level kernel knob tables — as PetaBricks-style JSON
//! configuration files.
//!
//! One schema is written and read: the checksummed v5 envelope of
//! [`TunedFamily::to_json`]. Anything else — a missing checksum, a
//! missing field, another knob-table version — fails to load with a
//! reason, and on serving paths is quarantined like any damaged file.
//!
//! Three hardening properties, each an ingredient of the guarded-solve
//! story (`crate::guard`):
//!
//! * **Atomic writes** — [`save_plan`] writes to a sibling temp file
//!   and renames it into place, so a crash mid-write can never leave a
//!   half-written plan where a reader expects a whole one.
//! * **Content checksums** — the v5 envelope carries an FNV-1a
//!   checksum over the plan body (see [`TunedFamily::to_json`]); bit
//!   rot is detected at load instead of executing a scrambled plan.
//! * **Quarantine** — when [`load_plan_for`] meets a corrupt file it
//!   moves it aside to `<name>.quarantined` and reports where, so the
//!   broken artifact is preserved for inspection, the next load
//!   attempt is not poisoned by it, and the caller can fall back to
//!   the degradation ladder's heuristic rung.
//!
//! ```no_run
//! use petamg_core::persist;
//! use petamg_core::tuner::{TunerOptions, VTuner};
//! use petamg_core::training::Distribution;
//!
//! let tuned = VTuner::new(TunerOptions::quick(5, Distribution::UnbiasedUniform)).tune();
//! persist::save_plan(&tuned, "family.json".as_ref()).unwrap();
//! let loaded = persist::load_plan("family.json".as_ref()).unwrap();
//! assert_eq!(loaded.knobs, tuned.knobs);
//! ```

use crate::faults;
use crate::plan::{TunedFamily, TunedFmgFamily};
use petamg_problems::{Problem, ProblemMismatch};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Typed failure modes of [`load_plan_for`]: I/O, parse/validation
/// (with the quarantine destination if the damaged file was moved
/// aside), or a plan tuned for a different problem than the one posed.
#[derive(Debug)]
pub enum PlanLoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file did not parse/validate as a tuned plan (bad JSON,
    /// missing or mismatched checksum, or an invalid plan table).
    Parse {
        /// What was wrong with the file.
        reason: String,
        /// Where the damaged file was moved, if quarantine succeeded.
        quarantined: Option<PathBuf>,
    },
    /// The plan's [`ProblemFingerprint`](petamg_problems::ProblemFingerprint)
    /// does not match the posed problem.
    ProblemMismatch(ProblemMismatch),
}

impl std::fmt::Display for PlanLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanLoadError::Io(e) => write!(f, "plan file unreadable: {e}"),
            PlanLoadError::Parse {
                reason,
                quarantined,
            } => {
                write!(f, "plan file invalid: {reason}")?;
                if let Some(q) = quarantined {
                    write!(f, " (quarantined to {})", q.display())?;
                }
                Ok(())
            }
            PlanLoadError::ProblemMismatch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanLoadError {}

/// Write `contents` to `path` atomically: the bytes go to a sibling
/// `<name>.tmp` file first and are renamed into place, so readers only
/// ever see the old file or the whole new one — never a torn write.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Move a damaged plan file to `<name>.quarantined` next to it.
/// Returns the destination on success; `None` if the move itself
/// failed (the original is then left in place).
fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut dest = path.as_os_str().to_owned();
    dest.push(".quarantined");
    let dest = PathBuf::from(dest);
    std::fs::rename(path, &dest).ok().map(|()| dest)
}

/// Read a plan file, applying any armed plan-byte fault
/// (`crate::faults`) before the caller parses it.
fn read_plan_bytes(path: &Path) -> std::io::Result<String> {
    let mut text = std::fs::read_to_string(path)?;
    faults::mangle_plan_bytes(&mut text);
    Ok(text)
}

/// Save a tuned `MULTIGRID-V` family (with its knob table),
/// atomically.
pub fn save_plan(family: &TunedFamily, path: &Path) -> std::io::Result<()> {
    write_atomic(path, &family.to_json())
}

/// Load a tuned `MULTIGRID-V` family. No quarantine — use
/// [`load_plan_for`] on serving paths.
pub fn load_plan(path: &Path) -> Result<TunedFamily, String> {
    let text = read_plan_bytes(path).map_err(|e| e.to_string())?;
    TunedFamily::from_json(&text)
}

/// Load a tuned `MULTIGRID-V` family **for a posed problem**.
///
/// * The plan's `ProblemFingerprint` must match `problem`'s,
///   otherwise the typed [`PlanLoadError::ProblemMismatch`] is
///   returned — a plan tuned for smooth coefficients is never silently
///   applied to a jump-coefficient run.
/// * A file that fails to parse or checksum is **quarantined**: moved
///   aside to `<name>.quarantined` so the next load does not trip over
///   it again, with the destination reported in
///   [`PlanLoadError::Parse`]. Callers are expected to fall back to a
///   heuristic plan (see `crate::guard::GuardedSolver`).
pub fn load_plan_for(path: &Path, problem: &Problem) -> Result<TunedFamily, PlanLoadError> {
    let text = read_plan_bytes(path).map_err(PlanLoadError::Io)?;
    let family = TunedFamily::from_json(&text).map_err(|reason| PlanLoadError::Parse {
        reason,
        quarantined: quarantine(path),
    })?;
    family
        .ensure_problem(problem.fingerprint())
        .map_err(PlanLoadError::ProblemMismatch)?;
    Ok(family)
}

/// Save a tuned `FULL-MULTIGRID` family (the knob table travels inside
/// the embedded V family), atomically.
pub fn save_fmg_plan(family: &TunedFmgFamily, path: &Path) -> std::io::Result<()> {
    write_atomic(path, &family.to_json())
}

/// Load a tuned `FULL-MULTIGRID` family (no quarantine, like
/// [`load_plan`]).
pub fn load_fmg_plan(path: &Path) -> Result<TunedFmgFamily, String> {
    let text = read_plan_bytes(path).map_err(|e| e.to_string())?;
    TunedFmgFamily::from_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{self, Fault};
    use crate::plan::{simple_v_family, PAPER_ACCURACIES};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("petamg-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_is_atomic_and_clean() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("fam.json");
        let fam = simple_v_family(4, &PAPER_ACCURACIES);
        save_plan(&fam, &path).unwrap();
        assert!(
            !dir.join("fam.json.tmp").exists(),
            "temp file must be renamed away"
        );
        let loaded = load_plan(&path).unwrap();
        assert_eq!(loaded.plans, fam.plans);
        let loaded = load_plan_for(&path, &Problem::poisson()).unwrap();
        assert_eq!(loaded.plans, fam.plans);
    }

    #[test]
    fn saved_plans_carry_a_verifiable_checksum() {
        let fam = simple_v_family(3, &PAPER_ACCURACIES);
        let json = fam.to_json();
        assert!(json.contains("\"checksum\": \"fnv1a:"));
        // Round-trips clean...
        TunedFamily::from_json(&json).unwrap();
        // ...but any content flip is caught.
        let tampered = json.replace("\"max_level\": 3", "\"max_level\": 4");
        assert_ne!(tampered, json, "tamper site must exist");
        let err = TunedFamily::from_json(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn corrupt_file_is_quarantined_and_typed() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("fam.json");
        let fam = simple_v_family(4, &PAPER_ACCURACIES);
        save_plan(&fam, &path).unwrap();
        faults::inject(Fault::CorruptPlan);
        match load_plan_for(&path, &Problem::poisson()) {
            Err(PlanLoadError::Parse {
                quarantined: Some(q),
                ..
            }) => {
                assert!(q.exists(), "quarantined copy preserved");
                assert!(!path.exists(), "original moved aside");
            }
            other => panic!("expected quarantining parse error, got {other:?}"),
        }
        faults::clear();
    }

    #[test]
    fn truncated_file_is_rejected_not_panicking() {
        let dir = tmp_dir("truncate");
        let path = dir.join("fam.json");
        let fam = simple_v_family(4, &PAPER_ACCURACIES);
        save_plan(&fam, &path).unwrap();
        faults::inject(Fault::TruncatePlan);
        let err =
            load_plan_for(&path, &Problem::poisson()).expect_err("half a plan file must not load");
        assert!(matches!(err, PlanLoadError::Parse { .. }));
        faults::clear();
    }

    #[test]
    fn missing_file_is_io_not_quarantine() {
        let dir = tmp_dir("missing");
        match load_plan_for(&dir.join("nope.json"), &Problem::poisson()) {
            Err(PlanLoadError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_mismatch_does_not_quarantine() {
        let dir = tmp_dir("mismatch");
        let path = dir.join("fam.json");
        let fam = simple_v_family(4, &PAPER_ACCURACIES);
        save_plan(&fam, &path).unwrap();
        let posed = Problem::anisotropic(0.25);
        match load_plan_for(&path, &posed) {
            Err(PlanLoadError::ProblemMismatch(_)) => {
                assert!(
                    path.exists(),
                    "a healthy file for another problem stays put"
                );
            }
            other => panic!("expected ProblemMismatch, got {other:?}"),
        }
    }
}
