//! The metric registry: every metric the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

use crate::cell::KINDS;

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn metric(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// Metrics of an untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("queries_per_s", "1/s", "higher"),
        metric("setup_s", "s", "lower"),
        metric("peak_rss_mb", "MB", "lower"),
    ]
}

/// Metrics of a traced run (`--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let mut all = vec![
        metric("engine.events", "count", "lower"),
        metric("engine.ns_per_event", "ns", "lower"),
    ];
    for kind in KINDS {
        all.push(metric(&format!("model.{kind}.count"), "count", "lower"));
        all.push(metric(&format!("model.{kind}.ns"), "ns", "lower"));
        all.push(metric(&format!("model.{kind}.share"), "fraction", "lower"));
    }
    all.extend([
        metric("ps.useful_frac", "fraction", "higher"),
        metric("fcfs.useful_frac", "fraction", "higher"),
        metric("policy.select_ns", "ns", "lower"),
        metric("users.arena_peak_bytes", "bytes", "lower"),
        metric("users.bytes_per_active_user", "bytes", "lower"),
        metric("parallel.efficiency", "fraction", "higher"),
        metric("parallel.cell_p50_ms", "ms", "lower"),
        metric("parallel.cell_max_ms", "ms", "lower"),
        metric("shard.speedup_j1", "x", "higher"),
        metric("shard.speedup_jmax", "x", "higher"),
        metric("setup.new_ms", "ms", "lower"),
        metric("setup.prime_ms", "ms", "lower"),
        metric("trace.overhead", "x", "lower"),
    ]);
    all
}
