//! Metric names, units and directions, and the result line.
//!
//! `BENCHMARK.json` lists exactly these names; the benchmark's tests
//! check the two agree.

use std::collections::BTreeMap;

/// `(name, unit, better)` of every end-to-end metric, printed with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("setup_s", "s", "lower"),
    ("tokens_per_s", "1/s", "higher"),
    ("push_p50_ms", "ms", "lower"),
    ("push_p99_ms", "ms", "lower"),
    ("observe_p50_ms", "ms", "lower"),
    ("observe_p99_ms", "ms", "lower"),
    ("colors", "count", "lower"),
    ("space_bits", "bits", "lower"),
    ("passes", "count", "lower"),
    ("server_rss_mb", "MiB", "lower"),
];

/// Colorers the session workloads open, as metric suffixes.
pub const SESSION_ALGOS: [&str; 5] =
    ["robust", "rand-efficient", "bg18", "store-all", "dynamic-sr"];

/// Layers the traced run attributes time to, as `share.<layer>` suffixes.
pub const SHARES: [&str; 11] = [
    "reactor",
    "queue",
    "service",
    "wire",
    "stream",
    "colorer",
    "sketch",
    "graph",
    "cluster",
    "runner",
    "unaccounted",
];

/// `(name, unit, better)` of every per-layer metric, printed with
/// `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| out.push((name, unit, better));
    for (name, unit) in [
        ("wire.parse_us", "us"),
        ("wire.encode_us", "us"),
        ("wire.edges_decode_us", "us"),
        ("wire.bytes_in", "bytes"),
        ("wire.bytes_out", "bytes"),
        ("service.respond_us", "us"),
        ("service.self_us", "us"),
        ("stream.push_us", "us"),
        ("stream.self_us", "us"),
        ("stream.support_us", "us"),
        ("stream.chunks", "count"),
    ] {
        add(name.to_string(), unit, "lower");
    }
    for algo in SESSION_ALGOS {
        add(format!("colorer.build_ms.{algo}"), "ms", "lower");
        add(format!("colorer.ingest_us.{algo}"), "us", "lower");
        add(format!("colorer.query_us.{algo}"), "us", "lower");
        add(format!("colorer.cache_useful_ratio.{algo}"), "ratio", "higher");
    }
    for (name, unit) in [
        ("sketch.decode_us", "us"),
        ("sketch.update_ns", "ns"),
        ("sketch.support", "count"),
        ("graph.repair_us", "us"),
        ("reactor.overhead_us", "us"),
        ("cluster.spawn_ms", "ms"),
        ("cluster.encode_ms", "ms"),
        ("cluster.slice_ms", "ms"),
        ("cluster.slice_skew", "ratio"),
        ("cluster.dispatch_overhead_ms", "ms"),
        ("cluster.merge_ms", "ms"),
        ("cluster.retries", "count"),
        ("cluster.wasted", "count"),
    ] {
        add(name.to_string(), unit, "lower");
    }
    for algo in crate::grid::GRID_ALGOS {
        add(format!("runner.run_ms.{algo}"), "ms", "lower");
    }
    add("det.passes".to_string(), "count", "lower");
    for layer in SHARES {
        add(format!("share.{layer}"), "ratio", "lower");
    }
    add("trace.e2e_ms".to_string(), "ms", "lower");
    add("trace.overhead_us".to_string(), "us", "lower");
    out
}

/// The unit of a metric name, if it is one of ours.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .or_else(|| per_layer().into_iter().find(|(n, _, _)| n == name).map(|(_, u, _)| u))
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit; at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with exactly the metrics `names`.
///
/// # Errors
/// A name missing from `values`, or a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[String],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for name in names {
        let v = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let unit = unit(name).ok_or_else(|| format!("metric {name} has no unit"))?;
        fields.push(format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _, _)| n));
        assert!(all.len() <= 16 + 128);
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let names = vec!["setup_s".to_string(), "colors".to_string()];
        let mut values = BTreeMap::new();
        values.insert("setup_s".to_string(), 0.25);
        values.insert("colors".to_string(), 17.0);
        values.insert("passes".to_string(), 1.0);
        let line = result_line(true, 3, 0, &names, &values).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"},"colors":{"value":17,"unit":"count"}}}"#
        );
        values.remove("colors");
        assert!(result_line(true, 3, 0, &names, &values).is_err());
    }
}
