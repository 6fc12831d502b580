//! Exact counts from the public metrics snapshot (`Engine::metrics()`),
//! taken as deltas around a window of work.

use safegen_api::telemetry::json::Json;
use safegen_api::Engine;
use std::collections::BTreeMap;

/// Snapshot paths read, with the metric name each delta is reported as.
const PATHS: &[(&str, &[&str])] = &[
    ("compile.compiles", &["compile", "compiles"]),
    (
        "compile.prioritize",
        &["compile", "phases", "compile.prioritize", "count"],
    ),
    ("lanes.dispatches", &["lanes", "dispatches"]),
    ("lanes.kernel_dispatches", &["lanes", "kernel_dispatches"]),
    ("lanes.scalar_dispatches", &["lanes", "scalar_dispatches"]),
    ("lanes.ragged_fallbacks", &["lanes", "ragged_fallbacks"]),
    ("lanes.superinstr_hits", &["lanes", "superinstr_hits"]),
    ("cache.hits", &["cache", "hits"]),
    ("cache.misses", &["cache", "misses"]),
    ("serve.requests", &["serve", "requests", "total"]),
    ("serve.errors", &["serve", "errors", "total"]),
];

pub type Counts = BTreeMap<&'static str, u64>;

/// The counted fields of the registry now. A phase histogram that was
/// never observed is absent from the snapshot and reads 0.
pub fn registry() -> Counts {
    let snap = Engine::new().metrics();
    PATHS
        .iter()
        .map(|&(name, path)| {
            let v = path
                .iter()
                .try_fold(&snap, |node, key| node.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            (name, v as u64)
        })
        .collect()
}

/// `after - before`, field by field.
pub fn delta(before: &Counts, after: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}
