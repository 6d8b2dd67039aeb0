//! Golden-plan snapshot tests: one committed plan-file fixture pins the
//! serialization schema.
//!
//! `tests/fixtures/tuned_plan_v6.json` is the one schema the workspace
//! writes and reads: the schema number, the plans, the
//! `ProblemFingerprint`, and a content `checksum` over the rest.
//! Loading and re-serializing it must reproduce the file byte for byte,
//! so any accidental schema drift fails here first.
//!
//! The **damage tests** mangle it — truncated, bit-flipped, checksum
//! stripped or renamed, another schema number — or hand over what older
//! builds wrote: the checksum-less v4 shape and a whole v5 file. Every
//! variant must produce a typed error and a quarantined file: never a
//! panic, never a plan that executes unverified. A v5 file on a
//! service's plan directory is a miss that re-tunes once.
//!
//! Regenerate the fixture (after an *intentional* schema change) with:
//! `PETAMG_REGEN_GOLDEN=1 cargo test --test golden_plan`.

use petamg::core::plan::TunedFamily;
use petamg::persist::PlanLoadError;
use petamg::prelude::*;
use std::path::PathBuf;

const CURRENT_V6: &str = include_str!("fixtures/tuned_plan_v6.json");

/// The plan file a v5 build wrote for the fixture's plan (with a
/// non-default knob entry at level 3), byte for byte: its checksum
/// verifies, but it has no schema number. Pinned as a literal so the
/// rejection does not depend on how a test derives the shape.
const V5_FILE: &str = r#"{
  "accuracies": [
    10.0,
    1000.0,
    100000.0,
    10000000.0,
    1000000000.0
  ],
  "checksum": "fnv1a:1d40bdfac0e837cf",
  "knobs": {
    "per_level": [
      {
        "band_rows": 32,
        "simd": "Auto",
        "tblock": 1
      },
      {
        "band_rows": 32,
        "simd": "Auto",
        "tblock": 1
      },
      {
        "band_rows": 32,
        "simd": "Auto",
        "tblock": 1
      },
      {
        "band_rows": 8,
        "simd": "Vector",
        "tblock": 2
      }
    ],
    "version": 2
  },
  "max_level": 3,
  "plans": [
    [],
    [
      "Direct",
      "Direct",
      "Direct",
      "Direct",
      "Direct"
    ],
    [
      "Direct",
      "Direct",
      "Direct",
      "Direct",
      "Direct"
    ],
    [
      "Direct",
      "Direct",
      "Direct",
      "Direct",
      "Direct"
    ]
  ],
  "problem": {
    "coeff_hash": "0",
    "family": "const-poisson",
    "n": 0,
    "param": 0.0,
    "profile": "constant"
  },
  "provenance": "golden fixture (deterministic quick tune, level 3)"
}"#;

/// What a pre-checksum (v4) build wrote for the same plan: the v5
/// envelope without its `checksum`. Pinned as a literal so the
/// rejection does not depend on how a test derives the shape.
const V4_SHAPE: &str = concat!(
    r#"{"accuracies":[10.0,1000.0,100000.0,10000000.0,1000000000.0],"#,
    r#""knobs":{"per_level":[{"band_rows":32,"simd":"Auto","tblock":1},"#,
    r#"{"band_rows":32,"simd":"Auto","tblock":1},{"band_rows":32,"simd":"Auto","tblock":1},"#,
    r#"{"band_rows":8,"simd":"Vector","tblock":2}],"version":2},"max_level":3,"#,
    r#""plans":[[],["Direct","Direct","Direct","Direct","Direct"],"#,
    r#"["Direct","Direct","Direct","Direct","Direct"],"#,
    r#"["Direct","Direct","Direct","Direct","Direct"]],"#,
    r#""problem":{"coeff_hash":"0","family":"const-poisson","n":0,"param":0.0,"profile":"constant"},"#,
    r#""provenance":"golden fixture (deterministic quick tune, level 3)"}"#
);

/// The deterministic family behind the fixture: a modeled-cost
/// quick tune (bit-reproducible).
fn golden_family() -> TunedFamily {
    let mut fam = VTuner::new(TunerOptions::quick(3, Distribution::UnbiasedUniform)).tune();
    fam.provenance = "golden fixture (deterministic quick tune, level 3)".into();
    fam
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn regenerate_golden_fixtures_when_asked() {
    if !petamg::obs::env::regen_golden() {
        return;
    }
    let fam = golden_family();
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tuned_plan_v6.json"), fam.to_json()).unwrap();
    panic!("fixture regenerated — rerun without PETAMG_REGEN_GOLDEN");
}

#[test]
fn current_v6_fixture_roundtrips_byte_for_byte() {
    let fam = TunedFamily::from_json(CURRENT_V6).expect("current fixture parses");
    fam.validate().unwrap();
    assert!(fam.problem.is_poisson(), "fixture carries the fingerprint");
    assert!(
        CURRENT_V6.contains("\"schema\": 6"),
        "fixture carries the schema number"
    );
    assert!(
        CURRENT_V6.contains("\"checksum\": \"fnv1a:"),
        "fixture carries the envelope checksum"
    );
    // Schema stability: re-serializing reproduces the committed bytes.
    assert_eq!(
        fam.to_json(),
        CURRENT_V6.trim_end(),
        "serialization schema drifted from the committed golden fixture"
    );
}

#[test]
fn freshly_tuned_plan_parses_under_versioned_schema() {
    let fam = golden_family();
    let json = fam.to_json();
    assert!(json.contains("\"schema\": 6"), "schema is numbered");
    assert!(!json.contains("\"knobs\""), "schema v6 has no knob table");
    assert!(
        json.contains("\"problem\""),
        "schema carries the fingerprint"
    );
    assert!(
        json.contains("\"checksum\""),
        "schema carries the envelope checksum"
    );
    let back = TunedFamily::from_json(&json).unwrap();
    assert_eq!(back.plans, fam.plans);
    assert_eq!(back.problem, fam.problem);
    // And it matches the committed fixture (the quick tune is
    // deterministic by construction).
    assert_eq!(json, CURRENT_V6.trim_end());
}

#[test]
fn mismatched_problem_fingerprint_is_rejected_typed() {
    // A current plan tuned for Poisson must be rejected — with the
    // typed error — when an anisotropic or jump problem is posed.
    let dir = fixtures_dir();
    let path = dir.join("tuned_plan_v6.json");

    // Matching problem loads fine.
    let ok = petamg::persist::load_plan_for(&path, &Problem::poisson());
    assert!(ok.is_ok(), "Poisson plan + Poisson problem must load");

    // Mismatched problem: typed rejection carrying both fingerprints.
    let posed = Problem::anisotropic_canonical();
    match petamg::persist::load_plan_for(&path, &posed) {
        Err(PlanLoadError::ProblemMismatch(m)) => {
            assert_eq!(*m.plan, ProblemFingerprint::poisson());
            assert_eq!(&*m.posed, posed.fingerprint());
            let msg = m.to_string();
            assert!(msg.contains("anisotropic"), "{msg}");
        }
        other => panic!("expected ProblemMismatch, got {other:?}"),
    }

    // And solve_with enforces the same check at execution time.
    let fam = TunedFamily::from_json(CURRENT_V6).unwrap();
    let posed2 = Problem::jump_inclusion(9);
    assert!(fam.ensure_problem(posed2.fingerprint()).is_err());
}

// ---- damage tests ---------------------------------------------------------
//
// The fixture, mangled. The contract is typed failure: `from_json`
// returns `Err`, `load_plan_for` returns `PlanLoadError::Parse` and
// quarantines — nothing panics, nothing loads a scrambled plan.

/// `load_plan_for` on a file holding `json` must fail as a parse error
/// and move the file aside.
fn assert_quarantined(tag: &str, json: &str) {
    let dir = std::env::temp_dir().join(format!("petamg-golden-damage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.json"));
    std::fs::write(&path, json).unwrap();
    match petamg::persist::load_plan_for(&path, &Problem::poisson()) {
        Err(PlanLoadError::Parse { quarantined, .. }) => {
            let q = quarantined.expect("damaged file must be quarantined");
            assert!(q.exists(), "{tag}: quarantine destination exists");
            assert!(!path.exists(), "{tag}: original moved aside");
        }
        other => panic!("{tag}: expected Parse error, got {other:?}"),
    }
}

// ("every generation" is the one generation left; the names predate
// the removal of schemas v1–v4.)
#[test]
fn truncated_fixtures_of_every_generation_fail_typed() {
    // 1/4, 1/2 and all-but-last-byte truncations.
    for cut in [
        CURRENT_V6.len() / 4,
        CURRENT_V6.len() / 2,
        CURRENT_V6.len() - 1,
    ] {
        let err = TunedFamily::from_json(&CURRENT_V6[..cut]);
        assert!(err.is_err(), "truncated to {cut} bytes must not load");
    }
}

#[test]
fn bit_flipped_fixtures_of_every_generation_never_panic() {
    // Flip a character at every 37th position: whether the flip lands
    // in a value, a key or the checksum itself, the load must fail.
    let bytes = CURRENT_V6.as_bytes();
    for pos in (0..bytes.len()).step_by(37) {
        let mut damaged = bytes.to_vec();
        damaged[pos] ^= 0x08;
        let Ok(text) = String::from_utf8(damaged) else {
            continue;
        };
        assert!(
            TunedFamily::from_json(&text).is_err(),
            "flip at byte {pos} must be caught"
        );
    }
}

/// A plan whose checksum cannot be verified never loads: the key
/// stripped, the key renamed by one flipped byte, and the shape a
/// pre-checksum build wrote are all rejected by name and quarantined.
#[test]
fn plans_without_a_checksum_are_rejected_and_quarantined() {
    let mut tree: serde_json::Value = serde_json::from_str(CURRENT_V6).unwrap();
    if let serde_json::Value::Object(obj) = &mut tree {
        obj.remove("checksum").expect("current schema has checksum");
    }
    let stripped = serde_json::to_string_pretty(&tree).unwrap();
    // 'c' ^ 0x01 = 'b': the key no longer spells `checksum`.
    let renamed = CURRENT_V6.replacen("\"checksum\"", "\"bhecksum\"", 1);
    assert_ne!(renamed, CURRENT_V6);
    for (tag, json) in [
        ("stripped", stripped.as_str()),
        ("renamed", renamed.as_str()),
        ("v4-shape", V4_SHAPE),
    ] {
        let err = TunedFamily::from_json(json).expect_err(tag);
        assert!(err.contains("no checksum"), "{tag}: {err}");
        assert_quarantined(tag, json);
    }
}

#[test]
fn wrong_version_markers_fail_typed() {
    // A v5 file is rejected, not misinterpreted, although its checksum
    // verifies: it has no schema number. (Another schema number under a
    // verifying checksum is `core::persist`'s unit test.)
    let err = TunedFamily::from_json(V5_FILE).unwrap_err();
    assert!(err.contains("schema"), "{err}");
    assert_quarantined("v5", V5_FILE);

    // A checksum field of the wrong JSON type is typed, not a panic.
    let mut tree: serde_json::Value = serde_json::from_str(CURRENT_V6).unwrap();
    if let serde_json::Value::Object(obj) = &mut tree {
        obj.insert(
            "checksum".to_string(),
            serde_json::Value::Number(serde_json::Number::from_u64(12345)),
        );
    }
    let bad = serde_json::to_string_pretty(&tree).unwrap();
    let err = TunedFamily::from_json(&bad).unwrap_err();
    assert!(err.contains("checksum"), "{err}");
}

#[test]
fn damaged_files_quarantine_through_load_plan_for() {
    assert_quarantined("truncated", &CURRENT_V6[..CURRENT_V6.len() / 2]);
    let flipped = CURRENT_V6.replacen("\"max_level\": 3", "\"max_level\": 2", 1);
    assert_ne!(flipped, CURRENT_V6);
    assert_quarantined("flipped", &flipped);
}

/// A v5 plan file where a service looks for a fingerprint's plan is a
/// library miss: the first service quarantines it, tunes once and files
/// a v6 plan in its place; a restarted service loads that plan and
/// tunes nothing.
#[test]
fn a_v5_plan_file_is_a_miss_that_retunes_once() {
    let problem = Problem::poisson();
    let dir = std::env::temp_dir().join(format!("petamg-golden-v5-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(petamg::serve::library::plan_file_name(
        problem.fingerprint(),
    ));
    std::fs::write(&path, V5_FILE).unwrap();
    let serve = || {
        let svc = SolverService::start(
            ServiceConfig::new(&dir)
                .with_workers(1)
                .with_tuning(TunePolicy::QuickTune),
        )
        .unwrap();
        let inst = ProblemInstance::random_for(&problem, 3, Distribution::UnbiasedUniform, 5);
        let request = SolveRequest::new(problem.clone(), inst.working_grid(), inst.b, 1e-8);
        let served = svc.solve(request).expect("the request converges");
        let library = svc.library().stats();
        (
            served.plan,
            svc.stats().tunes,
            library.quarantined,
            library.disk_loads,
        )
    };
    assert_eq!(serve(), (PlanSource::TunedNow, 1, 1, 0), "first service");
    let mut quarantined = path.clone().into_os_string();
    quarantined.push(".quarantined");
    assert_eq!(std::fs::read_to_string(quarantined).unwrap(), V5_FILE);
    let filed = std::fs::read_to_string(&path).unwrap();
    assert!(filed.contains("\"schema\": 6"), "a v6 file replaces it");
    TunedFamily::from_json(&filed).unwrap();
    assert_eq!(
        serve(),
        (PlanSource::DiskLoad, 0, 0, 1),
        "restarted service"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
