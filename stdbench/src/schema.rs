//! The metric and workload schema the benchmark prints. `BENCHMARK.json`
//! at the repository root declares the same names, units and directions;
//! `tests/schema.rs` keeps the two in step.

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of an untraced run (`--trace 0`), measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("scripts_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p90_ms", "ms", "lower", 0.25),
    e2e("peak_mem_mb", "MiB", "lower", 0.2),
    e2e("re_improvement_pct", "%", "higher", 0.2),
];

/// Metrics of a traced run (`--trace 1`): each layer timed from outside.
pub const PER_LAYER: &[Metric] = &[
    layer("frame.csv_parse_s", "s", "lower"),
    layer("frame.csv_rows_per_s", "1/s", "higher"),
    layer("frame.sample_ms", "ms", "lower"),
    layer("vocab.model_build_ms", "ms", "lower"),
    layer("pyast.parse_us_per_script", "us", "lower"),
    layer("transform.enumerate_us_per_script", "us", "lower"),
    layer("transform.candidates_per_script", "count", "lower"),
    layer("transform.apply_us_per_candidate", "us", "lower"),
    layer("dag.update_us_per_candidate", "us", "lower"),
    layer("entropy.re_us_per_candidate", "us", "lower"),
    layer("search.get_steps_ms_per_script", "ms", "lower"),
    layer("search.rank_ms_per_script", "ms", "lower"),
    layer("search.candidates_explored_per_script", "count", "lower"),
    layer("search.check_execute_ms_per_script", "ms", "lower"),
    layer("search.verify_ms_per_script", "ms", "lower"),
    layer("search.alloc_mb_per_script", "MiB", "lower"),
    layer("search.allocs_per_script", "count", "lower"),
    layer("interp.run_ms_per_script", "ms", "lower"),
    layer("interp.fuel_per_script", "count", "lower"),
    layer("interp.prefix_cache_hit_ratio", "ratio", "higher"),
    layer("interp.prefix_cache_lookups_per_script", "count", "lower"),
    layer("ml.tree_fit_ms", "ms", "lower"),
    layer("ml.logreg_fit_ms", "ms", "lower"),
    layer("intent.jaccard_ms", "ms", "lower"),
    layer("intent.model_perf_ms", "ms", "lower"),
    layer("batch.search_ms_per_script", "ms", "lower"),
    layer("batch.parallel_efficiency", "ratio", "higher"),
    layer("batch.memo_hits", "count", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// The metric list a run prints: end-to-end untraced, per-layer traced.
pub fn printed(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
