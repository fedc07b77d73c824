//! The committed `BENCH_*.json` files are the perf trajectory every
//! claim cites, so they must be what the one writer (`sc_bench::write_rows`
//! through `flatjson::encode_array`) produces, and they must carry every
//! field `ci/bench_baselines.json` gates.

use sc_engine::flatjson::{encode_array, parse_array, FlatObject};
use std::path::PathBuf;

const STEMS: [&str; 4] = ["engine", "query", "service", "cluster"];

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rows(name: &str) -> Vec<FlatObject> {
    parse_array(&repo_file(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn committed_bench_files_are_canonical_flatjson() {
    for stem in STEMS {
        let name = format!("BENCH_{stem}.json");
        let text = repo_file(&name);
        assert!(!rows(&name).is_empty(), "{name} has no rows");
        assert_eq!(encode_array(&rows(&name)), text, "{name} is not the writer's encoding");
    }
}

#[test]
fn every_gated_field_is_in_the_committed_full_profile_file() {
    let baselines = rows("ci/bench_baselines.json");
    assert!(!baselines.is_empty());
    for entry in &baselines {
        let smoke = entry["file"].as_str().expect("baseline file");
        let algo = entry["algo"].as_str().expect("baseline algo");
        let field = entry["field"].as_str().expect("baseline field");
        let stem = smoke
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".smoke.json"))
            .unwrap_or_else(|| panic!("baseline file {smoke:?} is not BENCH_<stem>.smoke.json"));
        assert!(STEMS.contains(&stem), "baseline names an unknown file {smoke:?}");
        let full = format!("BENCH_{stem}.json");
        let row = rows(&full)
            .into_iter()
            .find(|row| row.get("algo").and_then(|a| a.as_str()) == Some(algo))
            .unwrap_or_else(|| panic!("{full} has no row for algo {algo:?}"));
        assert!(
            row.get(field).and_then(|v| v.as_f64()).is_some(),
            "{full} row {algo:?} has no numeric {field:?}"
        );
    }
}
