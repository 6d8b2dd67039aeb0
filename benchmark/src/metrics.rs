//! Every metric the benchmark prints, by name and unit. `--check`
//! holds this table against `BENCHMARK.json`, so a name can neither
//! drift nor go missing silently.

/// End-to-end metrics, printed by a `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that depend on the workload, from the traced pass.
pub const PER_WORKLOAD: &[(&str, &str)] = &[
    ("degraded_share", "share"),
    ("serve.overhead_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.plan_resolve_us", "us"),
    ("serve.worker_busy_share", "share"),
    ("serve.unaccounted_share", "share"),
    ("serve.batch.group_size", "count"),
    ("serve.tunes_per_fingerprint", "count"),
    ("serve.coalesced_share", "share"),
    ("serve.library.hit_share", "share"),
    ("grid.workspace.allocs_per_request", "count"),
    ("core.guard.solve_us", "us"),
    ("core.guard.cycles_per_solve", "count"),
    ("core.guard.residual_check_share", "share"),
    ("core.guard.wasted_share", "share"),
    ("obs.traced_overhead_share", "share"),
];

/// Layer probes: single-threaded timings of each crate's public
/// functions, the same for every workload.
pub const PROBES: &[(&str, &str)] = &[
    ("grid.residual_us.n129", "us"),
    ("grid.residual_us.n1025", "us"),
    ("grid.residual_restrict_us.n129", "us"),
    ("grid.residual_restrict_us.n1025", "us"),
    ("grid.interpolate_correct_us.n129", "us"),
    ("grid.interpolate_correct_us.n1025", "us"),
    ("grid.l2_norm_us.n1025", "us"),
    ("grid.residual_gbps.n1025", "GB/s"),
    ("grid.triad_gbps.n1025", "GB/s"),
    ("grid.workspace.lease_ns", "ns"),
    ("problems.op_for_us.n129", "us"),
    ("problems.op_for_us.n1025", "us"),
    ("problems.residual_op_us.n129", "us"),
    ("problems.residual_op_us.n1025", "us"),
    ("problems.fingerprint_ns", "ns"),
    ("solvers.sor_sweep_us.n129", "us"),
    ("solvers.sor_sweep_us.n1025", "us"),
    ("solvers.sor_sweep_op_us.n1025", "us"),
    ("solvers.batch_sor_sweep_us_per_system.n129", "us"),
    ("solvers.relax_residual_restrict_us.n129", "us"),
    ("solvers.relax_residual_restrict_us.n1025", "us"),
    ("solvers.interpolate_correct_relax_us.n129", "us"),
    ("solvers.interpolate_correct_relax_us.n1025", "us"),
    ("solvers.direct.solve_us.n33", "us"),
    ("solvers.direct.solve_us.n129", "us"),
    ("solvers.direct_cache.hit_ns", "ns"),
    ("solvers.reference_v.solve_ms.n129", "ms"),
    ("solvers.reference_v.solve_ms.n1025", "ms"),
    ("linalg.cholesky_factor_ms.n129", "ms"),
    ("linalg.cholesky_gflops.n129", "GFLOP/s"),
    ("linalg.band_solve_us.n33", "us"),
    ("linalg.band_solve_us.n129", "us"),
    ("runtime.spawn_roundtrip_us", "us"),
    ("runtime.parallel_for_empty_us", "us"),
    ("core.plan.cycle_us.n129", "us"),
    ("core.plan.cycle_us.n1025", "us"),
    ("core.plan.batch_cycle_us_per_system.n129", "us"),
    ("core.tuner.tune_s.level7.poisson", "s"),
    ("core.tuner.tune_s.level7.jump", "s"),
    ("core.tuner.tune_s.level10.smooth", "s"),
    ("core.tuner.candidates.level7.poisson", "count"),
    ("core.tuner.knob_search_s.level7", "s"),
    ("choice.nary.evaluations.level7", "count"),
    ("core.persist.save_plan_ms", "ms"),
    ("core.persist.load_plan_ms", "ms"),
    ("serve.library.get_hit_ns", "ns"),
    ("serve.library.disk_load_ms", "ms"),
    ("serve.library.insert_ms", "ms"),
    ("serve.single_flight.join_ns", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("obs.snapshot_ms", "ms"),
];

/// The unit of a metric named in any of the tables.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_WORKLOAD)
        .chain(PROBES)
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not in the table"), |(_, u)| u)
}
