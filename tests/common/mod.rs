//! Shared by the integration suites: the execution-backend matrix and
//! the env-var filters CI shards it with.

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

/// Execution backends under test: `seq` plus one work-stealing pool per
/// entry of `pbrt_threads`, each crossed with both SIMD modes (stencils
/// are bitwise identical across modes by construction, which is what
/// the suites enforce end to end). Filtered by
/// `PETAMG_CONFORMANCE_BACKEND` so CI can shard the matrix.
pub fn backends(pbrt_threads: &[usize]) -> Vec<(String, Exec)> {
    let mut scheduling = vec![("seq".to_string(), Exec::seq())];
    scheduling.extend(
        pbrt_threads
            .iter()
            .map(|&t| (format!("pbrt{t}"), Exec::pbrt(t))),
    );
    let all = scheduling
        .into_iter()
        .flat_map(|(name, exec)| {
            [SimdPolicy::Scalar, SimdPolicy::Vector].map(|policy| {
                (
                    format!("{name}+{}", policy.name()),
                    exec.clone().with_simd(policy),
                )
            })
        })
        .collect();
    select(
        "PETAMG_CONFORMANCE_BACKEND",
        petamg::obs::env::conformance_backend(),
        all,
    )
}
