//! Per-layer metrics every workload reports the same way: the program's
//! own counts for the answers it planned, and from the traced spans the
//! search phases and each layer's self time per answer.

use crate::report::Report;
use crate::spans::{self, Span};
use crate::stats::median;
use std::time::Duration;

/// A timed stage of an answer: its metric name and where its time is kept.
pub type Stage<T> = (&'static str, fn(&T) -> Duration);

/// The program's own counts for one planned answer.
#[derive(Clone, Copy, Default)]
pub struct CellCounts {
    pub configs_before: u64,
    pub configs_after: u64,
    pub states_evaluated: u64,
    pub peak_table_bytes: u64,
}

/// The per-layer counts over the planned answers in `counted`.
pub fn report_counts(counted: &[CellCounts], report: &mut Report) {
    let before: u64 = counted.iter().map(|c| c.configs_before).sum();
    let after: u64 = counted.iter().map(|c| c.configs_after).sum();
    report.metric("cost.k_sum_before", before as f64, "count");
    report.metric("cost.k_sum_after", after as f64, "count");
    report.metric(
        "cost.prune_keep_ratio",
        after as f64 / before as f64,
        "ratio",
    );
    report.metric(
        "core.states_evaluated",
        counted.iter().map(|c| c.states_evaluated).sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "core.peak_table_bytes",
        counted
            .iter()
            .map(|c| c.peak_table_bytes)
            .max()
            .unwrap_or(0) as f64,
        "B",
    );
}

/// The search phases and each layer's self time, per answer: from batches
/// of spans, each with the number of answers it covers, the median over
/// the batches.
pub fn report_span_layers(batches: &[(&[Span], usize)], report: &mut Report) {
    let per_answer = |of: &dyn Fn(&[Span]) -> Duration| {
        let v: Vec<f64> = batches
            .iter()
            .map(|(s, n)| of(s).as_secs_f64() / *n as f64)
            .collect();
        median(&v)
    };
    for (phase, metric) in [
        ("core.structure", "core.structure_ms"),
        ("core.dp_fill", "core.dp_fill_ms"),
        ("core.backtrack", "core.backtrack_ms"),
    ] {
        let v = per_answer(&|s| {
            spans::self_time_by_name(s)
                .get(phase)
                .copied()
                .unwrap_or_default()
        });
        report.metric(metric, v * 1e3, "ms");
    }
    for layer in LAYERS {
        let v = per_answer(&|s| {
            spans::self_time_by_layer(s)
                .get(layer)
                .copied()
                .unwrap_or_default()
        });
        report.metric(format!("{layer}.self_us"), v * 1e6, "us");
    }
}

/// The layers a span can be in, as its name's first part.
const LAYERS: [&str; 5] = ["bench", "models", "serve", "cost", "core"];
