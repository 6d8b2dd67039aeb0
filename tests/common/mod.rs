//! Shared by the integration suites: the row-kernel backends every
//! suite crosses, and the env-var filter that narrows a suite's table.

// Each suite uses a part of this module.
#![allow(dead_code)]

use petamg::prelude::*;

/// The entries of `all` whose name starts with `filter`; unset, empty,
/// or `all` keeps everything. A filter that selects nothing panics —
/// a typo in `var` would otherwise turn every `for .. in` suite green
/// without running it.
pub fn select<N: AsRef<str>, T>(
    var: &str,
    filter: Option<String>,
    all: Vec<(N, T)>,
) -> Vec<(N, T)> {
    let filter = match filter {
        Some(f) if !f.is_empty() && f != "all" => f,
        _ => return all,
    };
    let (kept, rest): (Vec<_>, Vec<_>) = all
        .into_iter()
        .partition(|(name, _)| name.as_ref().starts_with(filter.as_str()));
    if kept.is_empty() {
        let valid: Vec<&str> = rest.iter().map(|(name, _)| name.as_ref()).collect();
        panic!(
            "{var}={filter} selects nothing; valid prefixes: {} (or `all`)",
            valid.join(", ")
        );
    }
    kept
}

/// The SIMD modes under test: the scalar and the vector row kernels
/// (stencils are bitwise identical across the two by construction,
/// which is what the suites enforce end to end).
pub fn backends() -> Vec<(String, SimdMode)> {
    [SimdMode::Scalar, SimdMode::Vector]
        .map(|mode| (mode.name().to_string(), mode))
        .into()
}
