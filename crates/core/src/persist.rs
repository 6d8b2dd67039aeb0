//! Hardened plan persistence: tuned families as PetaBricks-style JSON
//! configuration files.
//!
//! One schema is written and read: the checksummed v6 plan file of
//! [`TunedFamily::to_json`] and [`TunedFmgFamily::to_json`] (its fields
//! are listed in ARCHITECTURE, "Plan files (schema v6)"). Anything else
//! — a missing checksum, a missing field, another schema number, a v5
//! file — fails to load with a reason, and on serving paths is
//! quarantined like any damaged file and re-tuned.
//!
//! Three hardening properties, each an ingredient of the guarded-solve
//! story (`crate::guard`):
//!
//! * **Atomic writes** — [`save_plan`] writes to a sibling temp file
//!   and renames it into place, so a crash mid-write can never leave a
//!   half-written plan where a reader expects a whole one.
//! * **Content checksums** — the plan file carries an FNV-1a checksum
//!   over the rest of its fields; bit rot is detected at load instead
//!   of executing a scrambled plan.
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
//! assert_eq!(loaded.plans, tuned.plans);
//! ```

use crate::faults;
use crate::plan::{Choice, FmgChoice, TunedFamily, TunedFmgFamily};
use crate::tuner::DefaultKnobs;
use petamg_problems::{Problem, ProblemFingerprint, ProblemMismatch};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The plan-file schema this build writes, and the only one it reads.
const SCHEMA: u32 = 6;

/// The fields of a v6 plan file but two: the `checksum`, attached and
/// verified on the JSON value around this struct, and the optional
/// `fmg` table of an FMG file.
#[derive(Serialize, Deserialize)]
struct PlanFile {
    schema: u32,
    accuracies: Vec<f64>,
    max_level: usize,
    plans: Vec<Vec<Choice>>,
    problem: ProblemFingerprint,
    provenance: String,
}

/// An FMG file's `fmg[k][i]` table.
type FmgPlans = Vec<Vec<FmgChoice>>;

/// Render `family` as a pretty-printed v6 plan file, with `fmg` as its
/// FMG table when it is one.
fn write_file(family: &TunedFamily, fmg: Option<&FmgPlans>) -> String {
    let file = PlanFile {
        schema: SCHEMA,
        accuracies: family.accuracies.clone(),
        max_level: family.max_level,
        plans: family.plans.clone(),
        problem: family.problem.clone(),
        provenance: family.provenance.clone(),
    };
    let mut value = file.to_value();
    if let (Some(fmg), serde_json::Value::Object(obj)) = (fmg, &mut value) {
        obj.insert("fmg".to_string(), fmg.to_value());
    }
    attach_checksum(&mut value);
    serde_json::to_string_pretty(&value).expect("plan serialization cannot fail")
}

/// Parse, verify and validate a v6 plan file: its V family, and its FMG
/// table if it has one.
fn read_file(json: &str) -> Result<(TunedFamily, Option<FmgPlans>), String> {
    let mut value: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    verify_checksum(&mut value)?;
    let file = PlanFile::from_value(&value).map_err(|e| e.to_string())?;
    if file.schema != SCHEMA {
        return Err(format!(
            "plan file schema {}: this build reads only schema {SCHEMA}",
            file.schema
        ));
    }
    let fmg = match value.as_object().and_then(|obj| obj.get("fmg")) {
        Some(fmg) => Some(Deserialize::from_value(fmg).map_err(|e| e.to_string())?),
        None => None,
    };
    let family = TunedFamily {
        accuracies: file.accuracies,
        max_level: file.max_level,
        plans: file.plans,
        knobs: DefaultKnobs,
        problem: file.problem,
        provenance: file.provenance,
    };
    family.validate()?;
    Ok((family, fmg))
}

impl TunedFamily {
    /// The family as a pretty-printed plan file (schema v6).
    pub fn to_json(&self) -> String {
        write_file(self, None)
    }

    /// Parse and validate a plan file. Accepts exactly what
    /// [`TunedFamily::to_json`] writes, and reads an FMG file as its V
    /// family: a missing or wrong `checksum`, a missing field or
    /// another schema number is an error — the file was damaged after
    /// it was written, or written by another schema.
    pub fn from_json(json: &str) -> Result<TunedFamily, String> {
        read_file(json).map(|(family, _)| family)
    }
}

impl TunedFmgFamily {
    /// The family as a pretty-printed plan file (schema v6) carrying
    /// its `fmg` table.
    pub fn to_json(&self) -> String {
        write_file(&self.v, Some(&self.plans))
    }

    /// Parse a plan file with an `fmg` table. Like
    /// [`TunedFamily::from_json`], accepts exactly what
    /// [`TunedFmgFamily::to_json`] writes.
    pub fn from_json(json: &str) -> Result<TunedFmgFamily, String> {
        match read_file(json)? {
            (v, Some(plans)) => Ok(TunedFmgFamily { v, plans }),
            (_, None) => Err("plan file has no `fmg` table: not an FMG plan".into()),
        }
    }
}

/// FNV-1a (64-bit) over the *compact* serialization of a plan value —
/// the content checksum of the plan file. Computing over the compact
/// form makes the checksum independent of on-disk pretty formatting,
/// and the shim's `BTreeMap` object model keeps key order (and
/// therefore the hash) deterministic.
fn content_checksum(value: &serde_json::Value) -> String {
    let compact = serde_json::to_string(value).expect("value serialization cannot fail");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in compact.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

/// Insert the `checksum` field into a serialized plan object (hash
/// taken over the object *without* the field).
fn attach_checksum(value: &mut serde_json::Value) {
    let checksum = content_checksum(value);
    if let serde_json::Value::Object(obj) = value {
        obj.insert("checksum".to_string(), serde_json::Value::String(checksum));
    }
}

/// Verify and strip the `checksum` field of a parsed plan object. A
/// missing field and a mismatch are both errors: without the field the
/// content would execute unverified.
fn verify_checksum(value: &mut serde_json::Value) -> Result<(), String> {
    let serde_json::Value::Object(obj) = value else {
        return Err("expected a JSON object for a tuned plan".into());
    };
    let Some(stored) = obj.remove("checksum") else {
        return Err("plan has no checksum field — not a plan file, or the key was damaged".into());
    };
    let serde_json::Value::String(stored) = stored else {
        return Err("plan checksum field is not a string".into());
    };
    let computed = content_checksum(value);
    if stored == computed {
        Ok(())
    } else {
        Err(format!(
            "plan checksum mismatch: file says {stored}, content hashes to {computed} — \
             the file was damaged after it was written"
        ))
    }
}

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
    /// The plan's [`ProblemFingerprint`]
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

/// Save a tuned `MULTIGRID-V` family, atomically.
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

/// Save a tuned `FULL-MULTIGRID` family (its V family and its `fmg`
/// table in one plan file), atomically.
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

    /// The schema number, the fingerprint, or an FMG file's `fmg`
    /// table missing is an error even under a checksum that verifies,
    /// for the V family and the FMG family; so is the checksum missing.
    #[test]
    fn plan_files_missing_a_field_or_the_checksum_are_rejected() {
        let v = simple_v_family(3, &[1e3]);
        let direct = vec![FmgChoice::Direct];
        let fmg = TunedFmgFamily {
            v: v.clone(),
            plans: vec![Vec::new(), direct.clone(), direct.clone(), direct],
        };
        let without = |json: String, field: &str| {
            let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
            if let serde_json::Value::Object(obj) = &mut value {
                obj.remove(field).expect("the file has the field");
                if field != "checksum" {
                    obj.remove("checksum");
                    attach_checksum(&mut value);
                }
            }
            serde_json::to_string(&value).unwrap()
        };
        for field in ["schema", "problem"] {
            let err = TunedFamily::from_json(&without(v.to_json(), field)).unwrap_err();
            assert!(err.contains(field), "{err}");
            let err = TunedFmgFamily::from_json(&without(fmg.to_json(), field)).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        let err = TunedFmgFamily::from_json(&without(fmg.to_json(), "fmg")).unwrap_err();
        assert!(err.contains("fmg"), "{err}");
        let err = TunedFmgFamily::from_json(&without(fmg.to_json(), "checksum")).unwrap_err();
        assert!(err.contains("no checksum"), "{err}");
        // An FMG file reads as its V family.
        assert_eq!(
            TunedFamily::from_json(&fmg.to_json()).unwrap().plans,
            v.plans
        );
    }

    /// Another schema number is rejected by name, under a checksum that
    /// verifies.
    #[test]
    fn another_schema_number_is_rejected() {
        let json = simple_v_family(3, &PAPER_ACCURACIES).to_json();
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Object(obj) = &mut value {
            obj.remove("checksum");
            obj.insert(
                "schema".to_string(),
                serde_json::Value::Number(serde_json::Number::from_u64(5)),
            );
        }
        attach_checksum(&mut value);
        let err = TunedFamily::from_json(&serde_json::to_string(&value).unwrap()).unwrap_err();
        assert!(err.contains("schema 5"), "{err}");
    }

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

    /// A tuned FMG family goes through a real file and comes back with
    /// the same tables and fingerprint, and runs bit for bit like the
    /// family that was saved.
    #[test]
    fn a_tuned_fmg_family_survives_a_plan_file() {
        use crate::plan::ExecCtx;
        use crate::training::{Distribution, ProblemInstance};
        use crate::tuner::{FmgTuner, TunerOptions};
        use petamg_grid::SimdMode;
        use petamg_solvers::DirectSolverCache;
        use std::sync::Arc;

        let level = 6;
        let fam = FmgTuner::new(TunerOptions::quick(level, Distribution::UnbiasedUniform)).tune();
        let dir = tmp_dir("fmg");
        let path = dir.join("fmg.json");
        save_fmg_plan(&fam, &path).unwrap();
        let loaded = load_fmg_plan(&path).unwrap();
        assert_eq!(loaded.plans, fam.plans);
        assert_eq!(loaded.v.plans, fam.v.plans);
        assert_eq!(loaded.v.problem, fam.v.problem);

        let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 4_242);
        let bits = |f: &TunedFmgFamily, acc_idx: usize| {
            let cache = Arc::new(DirectSolverCache::new());
            let mut ctx =
                ExecCtx::with_cache(SimdMode::host(), cache).with_problem(inst.problem.clone());
            let mut x = inst.working_grid();
            f.run(level, acc_idx, &mut x, &inst.b, &mut ctx);
            x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for acc_idx in 0..fam.v.accuracies.len() {
            assert!(
                bits(&loaded, acc_idx) == bits(&fam, acc_idx),
                "member {acc_idx} runs differently after the file"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
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
