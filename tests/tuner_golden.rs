//! Golden tuner snapshot: one committed fixture pins what the DP tuner
//! *decides and records*, bit for bit.
//!
//! `tests/fixtures/tuner_golden.txt` holds, for `TunerOptions::quick`
//! on Poisson / anisotropic / smooth / jump at level 6 and Poisson +
//! jump at level 7, every tuned plan and every `CandidateEval` in
//! evaluation order (level, accuracy index, choice — including the
//! iteration count an infeasible candidate stopped at — and the bits of
//! its accuracy and cost), the `FmgTuner` plans at levels 5 and 6 for
//! two problems, and `ParetoTuner`'s Poisson sets at level 6 (each
//! member's kind and the bits of its accuracy and cost). A change to the search order, a budget, a tie-break, or a
//! kernel that shifts one training trajectory by one ulp shows here
//! next to the plan it would have changed.
//!
//! Every case renders twice: off a pool, where the tuner's training
//! instances run one after another, and inside a 2-worker pool, where
//! they run as parallel jobs. Both renders must equal the one committed
//! section.
//!
//! `PETAMG_CONFORMANCE_PROBLEM` (`poisson` / `aniso` / `smooth` /
//! `jump`) restricts the run to one family's cases, so CI can shard it
//! beside the operator conformance matrix.
//!
//! Regenerate the fixture (after an *intentional* change to the search)
//! with: `PETAMG_REGEN_GOLDEN=1 cargo test --test tuner_golden`.

use petamg::core::tuner::ParetoTuner;
use petamg::grid::level_size;
use petamg::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

mod common;

const FIXTURE: &str = include_str!("fixtures/tuner_golden.txt");

/// The tuner's instance jobs share it across workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<VTuner>();
};

#[derive(Clone, Copy)]
enum Kind {
    V,
    Fmg,
    Pareto,
}

/// `(conformance problem name, level, tuner)`, in fixture order.
const CASES: [(&str, usize, Kind); 11] = [
    ("poisson", 6, Kind::V),
    ("aniso", 6, Kind::V),
    ("smooth", 6, Kind::V),
    ("jump", 6, Kind::V),
    ("poisson", 7, Kind::V),
    ("jump", 7, Kind::V),
    ("poisson", 5, Kind::Fmg),
    ("jump", 5, Kind::Fmg),
    ("poisson", 6, Kind::Fmg),
    ("jump", 6, Kind::Fmg),
    ("poisson", 6, Kind::Pareto),
];

/// Section name → case; names start with the conformance problem name
/// so the shard filter selects by prefix.
fn all_cases() -> Vec<(String, (Problem, usize, Kind))> {
    CASES
        .iter()
        .map(|&(name, level, kind)| {
            let n = level_size(level);
            let problem = match name {
                "poisson" => Problem::poisson(),
                "aniso" => Problem::anisotropic_canonical(),
                "smooth" => Problem::smooth_sinusoidal(n),
                _ => Problem::jump_inclusion(n),
            };
            let tuner = match kind {
                Kind::V => "v",
                Kind::Fmg => "fmg",
                Kind::Pareto => "pareto",
            };
            (format!("{name}.{tuner}{level}"), (problem, level, kind))
        })
        .collect()
}

fn options(problem: Problem, level: usize) -> TunerOptions {
    TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem)
}

/// The section body for one case, one line per plan row / evaluation.
fn render(problem: Problem, level: usize, kind: Kind) -> String {
    let mut out = String::new();
    match kind {
        Kind::V => {
            let (family, diags) = VTuner::new(options(problem, level)).tune_with_diagnostics();
            for (k, row) in family.plans.iter().enumerate().skip(1) {
                writeln!(out, "plan {k} {row:?}").unwrap();
            }
            for e in &diags.evaluations {
                writeln!(
                    out,
                    "eval {} {} {:?} acc={:016x} cost={:016x} feasible={} selected={}",
                    e.level,
                    e.acc_idx,
                    e.choice,
                    e.accuracy.to_bits(),
                    e.cost.to_bits(),
                    e.feasible,
                    e.selected
                )
                .unwrap();
            }
        }
        Kind::Fmg => {
            let family = FmgTuner::new(options(problem, level)).tune();
            for (k, row) in family.plans.iter().enumerate().skip(1) {
                writeln!(out, "fmg {k} {row:?}").unwrap();
            }
        }
        Kind::Pareto => {
            for (k, set) in ParetoTuner::new(options(problem, level))
                .tune()
                .iter()
                .enumerate()
                .skip(1)
            {
                for algo in set {
                    // The member's kind is crate-private: read it off
                    // the derived `Debug` form.
                    let debug = format!("{algo:?}");
                    let kind = debug
                        .split_once("kind: ")
                        .and_then(|(_, rest)| rest.split_once(", accuracy: "))
                        .map_or(debug.as_str(), |(kind, _)| kind);
                    writeln!(
                        out,
                        "pareto {k} {kind} acc={:016x} cost={:016x}",
                        algo.accuracy.to_bits(),
                        algo.cost.to_bits()
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// The committed body of section `name`.
fn committed(name: &str) -> &'static str {
    let header = format!("== {name}\n");
    let start = FIXTURE
        .find(&header)
        .unwrap_or_else(|| panic!("fixture has no section {name}"))
        + header.len();
    let end = FIXTURE[start..]
        .find("== ")
        .map_or(FIXTURE.len(), |at| start + at);
    &FIXTURE[start..end]
}

#[test]
fn regenerate_tuner_fixture_when_asked() {
    if !petamg::obs::env::regen_golden() {
        return;
    }
    let mut out = String::new();
    for (name, (problem, level, kind)) in all_cases() {
        writeln!(out, "== {name}").unwrap();
        out.push_str(&render(problem, level, kind));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tuner_golden.txt");
    std::fs::write(path, out).unwrap();
    panic!("fixture regenerated — rerun without PETAMG_REGEN_GOLDEN");
}

#[test]
fn tuner_decisions_and_diagnostics_match_the_fixture_bit_for_bit() {
    if petamg::obs::env::regen_golden() {
        return;
    }
    let cases = common::select(
        "PETAMG_CONFORMANCE_PROBLEM",
        petamg::obs::env::conformance_problem(),
        all_cases(),
    );
    let pool = ThreadPool::new(2);
    for (name, (problem, level, kind)) in cases {
        let want = committed(&name);
        let off_pool = render(problem.clone(), level, kind);
        let pooled = pool.install(|| render(problem, level, kind));
        for (how, got) in [("off a pool", off_pool), ("on a 2-worker pool", pooled)] {
            check(&format!("{name} ({how})"), &got, want);
        }
    }
}

/// Panic at the first line where `got` drifts from the committed `want`.
fn check(name: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: tuner output drifted from the fixture at line {line}\n  got:  {}\n  want: {}\n\
         ({} lines got, {} committed)",
        got.lines().nth(line).unwrap_or("<end>"),
        want.lines().nth(line).unwrap_or("<end>"),
        got.lines().count(),
        want.lines().count()
    );
}
