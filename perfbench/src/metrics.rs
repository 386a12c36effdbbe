//! The metric ledger: every metric the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names, units and directions, and the smoke test keeps the two in step;
//! `README.md` records which layer each metric measures and which
//! end-to-end metric it should move on which workload.

/// One metric of the ledger.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Printed name (`<crate>.<metric>` for per-layer metrics).
    pub name: &'static str,
    /// Unit of the printed value.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Printed with `--trace 0`.
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", "lower"),
    spec("wall_s", "s", "lower"),
    spec("steps_per_s", "1/s", "higher"),
    spec("run_s_p50", "s", "lower"),
    spec("run_s_tail", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("population.arc_draw_ns_per_step", "ns", "lower"),
    spec("population.arc_draw_calls_per_kstep", "count", "lower"),
    spec("population.topology_build_s", "s", "lower"),
    spec("population.working_set_mb", "MB", "lower"),
    spec("engine.fault_ns_per_step", "ns", "lower"),
    spec("engine.fault_calls_per_step", "count", "lower"),
    spec("engine.loop_self_ns_per_step", "ns", "lower"),
    spec("engine.predicate_ns_per_step", "ns", "lower"),
    spec("engine.predicate_calls", "count", "lower"),
    spec("engine.build_ms", "ms", "lower"),
    spec("engine.seed_idle_frac", "ratio", "lower"),
    spec("engine.changed_frac", "ratio", "higher"),
    spec("engine.omissive_frac", "ratio", "lower"),
    spec("engine.epoch_len", "count", "higher"),
    spec("engine.epoch_self_us", "us", "lower"),
    spec("core.hook_ns_per_step", "ns", "lower"),
    spec("core.receive_calls_per_step", "count", "lower"),
    spec("core.steps_per_commit", "count", "lower"),
    spec("protocols.delta_calls_per_epoch", "count", "lower"),
    spec("protocols.delta_ns_per_call", "ns", "lower"),
    spec("fuzz.compile_us", "us", "lower"),
    spec("bench.trace_overhead_frac", "ratio", "lower"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
