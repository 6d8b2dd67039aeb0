//! Golden-plan snapshot tests: one committed plan-file fixture pins the
//! serialization schema.
//!
//! `tests/fixtures/tuned_plan_v5.json` is the one schema the workspace
//! writes and reads: plans, the per-level knob table (version 2), the
//! `ProblemFingerprint`, and a content `checksum` over the envelope.
//! Loading and re-serializing it must reproduce the file byte for byte,
//! so any accidental schema drift fails here first.
//!
//! The **damage tests** mangle it — truncated, bit-flipped, checksum
//! stripped or renamed, wrong knob-table version, the checksum-less
//! shape older builds wrote — and every variant must produce a typed
//! error and a quarantined file: never a panic, never a plan that
//! executes unverified.
//!
//! Regenerate the fixture (after an *intentional* schema change) with:
//! `PETAMG_REGEN_GOLDEN=1 cargo test --test golden_plan`.

use petamg::core::plan::TunedFamily;
use petamg::persist::PlanLoadError;
use petamg::prelude::*;
use std::path::PathBuf;

const CURRENT_V5: &str = include_str!("fixtures/tuned_plan_v5.json");

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
/// quick tune (bit-reproducible) plus hand-pinned non-uniform knob
/// entries so the table's serialization — including a non-default simd
/// policy — is actually exercised.
fn golden_family() -> TunedFamily {
    let mut fam = VTuner::new(TunerOptions::quick(3, Distribution::UnbiasedUniform)).tune();
    fam.knobs.set(
        3,
        KernelKnobs {
            band_rows: 8,
            tblock: 2,
            simd: SimdPolicy::Vector,
        },
    );
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
    std::fs::write(dir.join("tuned_plan_v5.json"), fam.to_json()).unwrap();
    panic!("fixture regenerated — rerun without PETAMG_REGEN_GOLDEN");
}

#[test]
fn current_v5_fixture_roundtrips_byte_for_byte() {
    let fam = TunedFamily::from_json(CURRENT_V5).expect("current fixture parses");
    fam.validate().unwrap();
    assert!(!fam.knobs.is_uniform(), "fixture carries a real table");
    assert!(fam.problem.is_poisson(), "fixture carries the fingerprint");
    assert!(
        CURRENT_V5.contains("\"checksum\": \"fnv1a:"),
        "fixture carries the envelope checksum"
    );
    // Schema stability: re-serializing reproduces the committed bytes.
    assert_eq!(
        fam.to_json(),
        CURRENT_V5.trim_end(),
        "serialization schema drifted from the committed golden fixture"
    );
}

#[test]
fn freshly_tuned_plan_parses_under_versioned_schema() {
    let fam = golden_family();
    let json = fam.to_json();
    assert!(json.contains("\"knobs\""), "schema carries the table");
    assert!(json.contains("\"version\""), "table is versioned");
    assert!(json.contains("\"simd\""), "entries carry the simd policy");
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
    assert_eq!(back.knobs, fam.knobs);
    assert_eq!(back.problem, fam.problem);
    // And it matches the committed fixture (the quick tune is
    // deterministic by construction).
    assert_eq!(json, CURRENT_V5.trim_end());
}

#[test]
fn mismatched_problem_fingerprint_is_rejected_typed() {
    // A current plan tuned for Poisson must be rejected — with the
    // typed error — when an anisotropic or jump problem is posed.
    let dir = fixtures_dir();
    let path = dir.join("tuned_plan_v5.json");

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
    let fam = TunedFamily::from_json(CURRENT_V5).unwrap();
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
        CURRENT_V5.len() / 4,
        CURRENT_V5.len() / 2,
        CURRENT_V5.len() - 1,
    ] {
        let err = TunedFamily::from_json(&CURRENT_V5[..cut]);
        assert!(err.is_err(), "truncated to {cut} bytes must not load");
    }
}

#[test]
fn bit_flipped_fixtures_of_every_generation_never_panic() {
    // Flip a character at every 37th position: whether the flip lands
    // in a value, a key or the checksum itself, the load must fail.
    let bytes = CURRENT_V5.as_bytes();
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
    let mut tree: serde_json::Value = serde_json::from_str(CURRENT_V5).unwrap();
    if let serde_json::Value::Object(obj) = &mut tree {
        obj.remove("checksum").expect("current schema has checksum");
    }
    let stripped = serde_json::to_string_pretty(&tree).unwrap();
    // 'c' ^ 0x01 = 'b': the key no longer spells `checksum`.
    let renamed = CURRENT_V5.replacen("\"checksum\"", "\"bhecksum\"", 1);
    assert_ne!(renamed, CURRENT_V5);
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
    // A knob table of any version but the current one is rejected, not
    // misinterpreted — even under a checksum that verifies.
    for version in [1, 99] {
        let mut fam = golden_family();
        fam.knobs.version = version;
        let err = TunedFamily::from_json(&fam.to_json()).unwrap_err();
        assert!(err.contains("knob-table version"), "{err}");
    }

    // A checksum field of the wrong JSON type is typed, not a panic.
    let mut tree: serde_json::Value = serde_json::from_str(CURRENT_V5).unwrap();
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
    assert_quarantined("truncated", &CURRENT_V5[..CURRENT_V5.len() / 2]);
    let flipped = CURRENT_V5.replacen("\"max_level\": 3", "\"max_level\": 2", 1);
    assert_ne!(flipped, CURRENT_V5);
    assert_quarantined("flipped", &flipped);
}
