//! Deterministic fault injection for the guarded-solve chaos suite.
//!
//! Production code is sprinkled with a handful of *fault points* —
//! places where the chaos tests can deterministically break something
//! and assert the degradation ladder catches it:
//!
//! * [`Fault::PoisonLevel`] — the next kernel executed at a level
//!   writes a NaN into its output grid (caught by the solve guard's
//!   finiteness check);
//! * [`Fault::CorruptPlan`] / [`Fault::TruncatePlan`] — the next plan
//!   file read through `persist` has its bytes mangled before parsing
//!   (caught by checksum/parse validation, triggering quarantine);
//! * [`Fault::FailDirect`] — the next direct factorization at a grid
//!   size fails (drives the ladder past its last rung).
//!
//! Faults are **armed per thread** and **consumed once**: arming a
//! fault affects only the calling thread's next matching fault point,
//! so parallel test binaries cannot interfere with each other. This
//! works because every fault point executes on the thread driving the
//! solve — kernels parallelize internally, below the fault point. A
//! tune is different: its training-instance jobs run on whichever
//! worker of the pool takes them, so the serving engine takes a
//! request's faults off its thread for the tune and re-arms them for
//! its solve.
//!
//! The disabled fast path is a single thread-local flag read
//! ([`armed`]), so fault points cost nothing measurable in production
//! (the bar: the benchmark's kernel probes within noise of the
//! fault-free build).
//!
//! Arming is programmatic ([`inject`]) or environment-driven: set
//! `PETAMG_FAULTS` (see [`arm_thread_from_env`]) to a comma-separated
//! spec like `poison-level:3,corrupt-plan,fail-direct:33`.

use std::cell::{Cell, RefCell};

/// One injectable fault (see the module docs for where each fires).
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// The next `ExecCtx` kernel executed at `level` writes a NaN into
    /// the center of its output grid.
    PoisonLevel {
        /// Multigrid level whose next kernel output is poisoned.
        level: usize,
    },
    /// The next plan file read through `persist` has a byte mangled
    /// before parsing.
    CorruptPlan,
    /// The next plan file read through `persist` is truncated to half
    /// its length before parsing.
    TruncatePlan,
    /// The next direct factorization requested for `n`×`n` grids on
    /// the guarded fallback path reports failure.
    FailDirect {
        /// Grid size whose factorization fails.
        n: usize,
    },
}

thread_local! {
    /// Fast-path flag: `false` means no fault is armed on this thread
    /// and every fault point bails after one TLS read.
    static ANY_ARMED: Cell<bool> = const { Cell::new(false) };
    static ARMED: RefCell<Vec<Fault>> = const { RefCell::new(Vec::new()) };
}

/// Arm `fault` on the calling thread. It fires (and disarms) at the
/// first matching fault point; arm the same fault twice to fire twice.
pub fn inject(fault: Fault) {
    ARMED.with(|f| f.borrow_mut().push(fault));
    ANY_ARMED.with(|a| a.set(true));
}

/// Disarm every fault on the calling thread.
pub fn clear() {
    ARMED.with(|f| f.borrow_mut().clear());
    ANY_ARMED.with(|a| a.set(false));
}

/// Whether any fault is armed on the calling thread (the cheap check
/// every fault point performs first).
#[inline]
pub fn armed() -> bool {
    ANY_ARMED.with(|a| a.get())
}

/// Snapshot of the faults currently armed on the calling thread.
pub fn armed_faults() -> Vec<Fault> {
    ARMED.with(|f| f.borrow().clone())
}

/// Remove and return the first armed fault matching `pred`.
fn consume(pred: impl Fn(&Fault) -> bool) -> Option<Fault> {
    ARMED.with(|f| {
        let mut armed = f.borrow_mut();
        let hit = armed.iter().position(pred).map(|i| armed.remove(i));
        if armed.is_empty() {
            ANY_ARMED.with(|a| a.set(false));
        }
        hit
    })
}

/// Fault point: should the kernel output at `level` be poisoned?
/// Consumes an armed [`Fault::PoisonLevel`] for this level.
#[inline]
pub(crate) fn poison_level(level: usize) -> bool {
    if !armed() {
        return false;
    }
    consume(|f| matches!(f, Fault::PoisonLevel { level: l } if *l == level)).is_some()
}

/// Fault point: mangle plan-file bytes in place. Returns `true` if a
/// corruption or truncation fault fired. Corruption bit-flips a byte
/// in the middle of the payload (defeating both parse and checksum);
/// truncation keeps the first half.
pub(crate) fn mangle_plan_bytes(bytes: &mut String) -> bool {
    if !armed() {
        return false;
    }
    if consume(|f| matches!(f, Fault::TruncatePlan)).is_some() {
        bytes.truncate(bytes.len() / 2);
        return true;
    }
    if consume(|f| matches!(f, Fault::CorruptPlan)).is_some() {
        // Flip a byte mid-file. Operating on the raw bytes keeps this
        // valid UTF-8-agnostic: rebuild the String lossily.
        let mut raw = std::mem::take(bytes).into_bytes();
        let mid = raw.len() / 2;
        if !raw.is_empty() {
            raw[mid] ^= 0x20;
        }
        *bytes = String::from_utf8_lossy(&raw).into_owned();
        return true;
    }
    false
}

/// Fault point: should the direct factorization for `n`×`n` grids fail?
#[inline]
pub(crate) fn fail_direct(n: usize) -> bool {
    if !armed() {
        return false;
    }
    consume(|f| matches!(f, Fault::FailDirect { n: m } if *m == n)).is_some()
}

/// Parse a fault spec: comma-separated entries of
/// `poison-level:<level>`, `corrupt-plan`, `truncate-plan`,
/// `fail-direct:<n>`.
pub fn parse_spec(spec: &str) -> Result<Vec<Fault>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (name, arg) = match entry.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (entry, None),
        };
        let fault = match (name, arg) {
            ("poison-level", Some(l)) => Fault::PoisonLevel {
                level: l.parse().map_err(|_| format!("bad level in `{entry}`"))?,
            },
            ("corrupt-plan", None) => Fault::CorruptPlan,
            ("truncate-plan", None) => Fault::TruncatePlan,
            ("fail-direct", Some(n)) => Fault::FailDirect {
                n: n.parse().map_err(|_| format!("bad size in `{entry}`"))?,
            },
            _ => return Err(format!("unknown fault `{entry}`")),
        };
        out.push(fault);
    }
    Ok(out)
}

/// Arm the calling thread from the `PETAMG_FAULTS` environment
/// variable (no-op when unset). Returns how many faults were armed.
/// Call this at the top of a binary that should honour the variable —
/// it is deliberately *not* automatic, so library users never pay for
/// an env read and tests stay hermetic.
pub fn arm_thread_from_env() -> usize {
    match petamg_obs::env::faults_spec() {
        Some(spec) => {
            let faults = parse_spec(&spec).unwrap_or_else(|e| panic!("PETAMG_FAULTS: {e}"));
            let n = faults.len();
            for f in faults {
                inject(f);
            }
            n
        }
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_fast_path_consumes_nothing() {
        clear();
        assert!(!armed());
        assert!(!poison_level(3));
        assert!(!fail_direct(33));
        let mut s = String::from("{\"a\":1}");
        assert!(!mangle_plan_bytes(&mut s));
        assert_eq!(s, "{\"a\":1}");
    }

    #[test]
    fn poison_fires_once_for_its_level_only() {
        clear();
        inject(Fault::PoisonLevel { level: 4 });
        assert!(!poison_level(3), "wrong level must not fire");
        assert!(armed());
        assert!(poison_level(4));
        assert!(!poison_level(4), "one-shot");
        assert!(!armed());
    }

    #[test]
    fn truncate_and_corrupt_mangle_bytes() {
        clear();
        let original = "0123456789".to_string();
        inject(Fault::TruncatePlan);
        let mut s = original.clone();
        assert!(mangle_plan_bytes(&mut s));
        assert_eq!(s, "01234");
        inject(Fault::CorruptPlan);
        let mut s = original.clone();
        assert!(mangle_plan_bytes(&mut s));
        assert_eq!(s.len(), original.len());
        assert_ne!(s, original);
        assert!(!armed());
    }

    #[test]
    fn direct_failure_keyed_by_size() {
        clear();
        inject(Fault::FailDirect { n: 33 });
        assert!(!fail_direct(17));
        assert!(fail_direct(33));
        assert!(!fail_direct(33));
    }

    #[test]
    fn spec_parsing_round_trips_every_kind() {
        let faults =
            parse_spec("poison-level:3, corrupt-plan,truncate-plan,fail-direct:33").unwrap();
        assert_eq!(
            faults,
            vec![
                Fault::PoisonLevel { level: 3 },
                Fault::CorruptPlan,
                Fault::TruncatePlan,
                Fault::FailDirect { n: 33 },
            ]
        );
        assert!(parse_spec("poison-level").is_err());
        assert!(parse_spec("warp-core-breach").is_err());
        assert_eq!(parse_spec("").unwrap(), vec![]);
    }

    #[test]
    fn faults_are_thread_local() {
        clear();
        inject(Fault::PoisonLevel { level: 5 });
        std::thread::spawn(|| {
            assert!(!armed(), "other threads see no armed faults");
            assert!(!poison_level(5));
        })
        .join()
        .unwrap();
        assert!(poison_level(5), "arming thread still sees its fault");
    }
}
