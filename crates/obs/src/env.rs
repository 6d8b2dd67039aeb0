//! One home for every `PETAMG_*` environment variable.
//!
//! Before this module the workspace parsed its env vars ad hoc —
//! fault specs in `core`, conformance filters in their own test
//! files — and a misspelled name was silently ignored. Every accessor
//! here first runs a **warn-once** sweep over the process environment
//! and prints any `PETAMG_*` name it does not recognize to stderr, so a
//! misspelled knob announces itself the first time any petamg code
//! reads the environment.
//!
//! Semantics are unchanged from the scattered parsers: unset means
//! default, unparsable values fall back rather than abort (except
//! where the original code panicked, which stays at the caller).

use crate::TelemetryMode;
use std::sync::Once;

/// Every `PETAMG_*` variable the workspace understands.
pub const KNOWN_VARS: &[&str] = &[
    "PETAMG_TELEMETRY",
    "PETAMG_FAULTS",
    "PETAMG_CONFORMANCE_PROBLEM",
    "PETAMG_PLAN_DIR",
    "PETAMG_REGEN_GOLDEN",
];

/// `PETAMG_*` names present in `vars` but not in [`KNOWN_VARS`] —
/// the pure core of the warn-once sweep, separated for tests.
pub fn unknown_petamg_vars<'a>(vars: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut unknown: Vec<String> = vars
        .filter(|name| name.starts_with("PETAMG_") && !KNOWN_VARS.contains(name))
        .map(str::to_string)
        .collect();
    unknown.sort();
    unknown
}

/// Warn (once per process, on stderr) about unrecognized `PETAMG_*`
/// variables. Called by every typed accessor below.
pub fn warn_unknown_once() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let names: Vec<String> = std::env::vars().map(|(k, _)| k).collect();
        for name in unknown_petamg_vars(names.iter().map(String::as_str)) {
            eprintln!(
                "petamg: warning: unrecognized environment variable `{name}` \
                 (known PETAMG_* variables: {})",
                KNOWN_VARS.join(", ")
            );
        }
    });
}

fn var(name: &str) -> Option<String> {
    warn_unknown_once();
    std::env::var(name).ok()
}

/// `PETAMG_TELEMETRY`: the telemetry gate. Unset, `0`, `off`, or
/// `false` → [`TelemetryMode::Off`]; `1`, `on`, `true`, or `metrics` →
/// [`TelemetryMode::Metrics`]; `2`, `trace`, or `full` →
/// [`TelemetryMode::Trace`]. Anything else is treated as `Metrics`
/// (an operator who set the variable wanted telemetry).
pub fn telemetry_mode() -> TelemetryMode {
    match var("PETAMG_TELEMETRY").as_deref() {
        None | Some("0") | Some("off") | Some("false") | Some("") => TelemetryMode::Off,
        Some("2") | Some("trace") | Some("full") => TelemetryMode::Trace,
        Some(_) => TelemetryMode::Metrics,
    }
}

/// `PETAMG_FAULTS`: the chaos-drill fault spec (see
/// `petamg_core::faults::parse_spec` for the grammar).
pub fn faults_spec() -> Option<String> {
    var("PETAMG_FAULTS")
}

/// `PETAMG_CONFORMANCE_PROBLEM`: restrict the conformance suite to
/// one operator family (a value that matches no family fails the suite
/// instead of skipping it).
pub fn conformance_problem() -> Option<String> {
    var("PETAMG_CONFORMANCE_PROBLEM")
}

/// `PETAMG_PLAN_DIR`: plan-library directory for the serve demo.
pub fn plan_dir() -> Option<String> {
    var("PETAMG_PLAN_DIR")
}

/// `PETAMG_REGEN_GOLDEN`: regenerate the golden fixtures (plan schema,
/// tuner decisions) instead of comparing against them.
pub fn regen_golden() -> bool {
    var("PETAMG_REGEN_GOLDEN").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typo_is_flagged_known_are_not() {
        let vars = [
            "PETAMG_TELEMTRY",
            "PETAMG_TELEMETRY",
            "PATH",
            "PETAMG_NO_SUCH_KNOB",
        ];
        let unknown = unknown_petamg_vars(vars.into_iter());
        assert_eq!(
            unknown,
            vec![
                "PETAMG_NO_SUCH_KNOB".to_string(),
                "PETAMG_TELEMTRY".to_string()
            ]
        );
    }

    #[test]
    fn every_known_var_passes_the_sweep() {
        assert!(unknown_petamg_vars(KNOWN_VARS.iter().copied()).is_empty());
    }
}
