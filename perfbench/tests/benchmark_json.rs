//! `BENCHMARK.json` (at the repository root) must describe exactly what
//! the command prints: every workload it accepts, every end-to-end
//! metric it prints with `--trace 0` and every per-layer metric it prints
//! with `--trace 1`, with matching units — and every name must match the
//! allowed pattern.

use perfbench::json::{parse, Value};
use perfbench::metrics::{per_layer, valid_name, END_TO_END};
use perfbench::workload::WORKLOADS;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing string {key:?}"))
}

/// `(name, unit, better)` triples of one metric list.
fn metrics(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing {key}"))
        .as_arr()
        .iter()
        .map(|m| (str_of(m, "name").into(), str_of(m, "unit").into(), str_of(m, "better").into()))
        .collect()
}

#[test]
fn workloads_are_the_ones_the_command_runs() {
    let doc = benchmark();
    let names: Vec<&str> =
        doc.get("workloads").unwrap().as_arr().iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in doc.get("workloads").unwrap().as_arr() {
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

#[test]
fn end_to_end_metrics_are_the_ones_printed() {
    let doc = benchmark();
    let listed = metrics(&doc, "end_to_end");
    let printed: Vec<(String, String, String)> =
        END_TO_END.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect();
    assert_eq!(listed, printed);
    let mut setup_bound = None;
    let mut largest: f64 = 0.0;
    for m in doc.get("end_to_end").unwrap().as_arr() {
        let Some(Value::Num(bound)) = m.get("bound") else { panic!("bound missing") };
        assert!(*bound > 0.0 && *bound <= 0.25, "{m:?}");
        largest = largest.max(*bound);
        if str_of(m, "name") == "setup_s" {
            setup_bound = Some(*bound);
        }
    }
    assert_eq!(setup_bound, Some(largest), "setup_s carries the largest bound");
}

#[test]
fn per_layer_metrics_are_the_ones_printed() {
    let doc = benchmark();
    let listed = metrics(&doc, "per_layer");
    let printed: Vec<(String, String, String)> =
        per_layer().into_iter().map(|(n, u, b)| (n, u.to_string(), b.to_string())).collect();
    assert_eq!(listed, printed);
}

#[test]
fn every_name_matches_the_allowed_pattern() {
    let doc = benchmark();
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    for key in ["end_to_end", "per_layer"] {
        names.extend(metrics(&doc, key).into_iter().map(|(n, _, _)| n));
    }
    for name in &names {
        assert!(valid_name(name), "{name:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}
