//! CI perf-regression gate over the `BENCH_*.json` trajectory files.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline ci/bench_baselines.json \
//!            --measured BENCH_engine.json --measured BENCH_query.json \
//!            [--tolerance 0.30]
//! ```
//!
//! The baseline file is a flat JSON array of
//! `{"file": …, "algo": …, "field": …, "min": …}` entries: `file` names
//! which measured file to look in (by basename), `algo`/`field` select
//! the entry and its metric, and `min` is the committed expectation. The
//! gate passes while `measured ≥ min · (1 − tolerance)` for every entry —
//! speedup ratios are dimensionless, so a generous tolerance absorbs
//! runner-hardware noise while still catching a real regression (a
//! batched or incremental path silently degrading to its from-scratch
//! cost). A baseline entry with no matching measurement — the entry
//! missing entirely, or present without the gated field — fails with a
//! per-entry `FAIL` line naming what is absent: that is coverage rot,
//! not noise, and it must not read like a gate crash. Only a malformed
//! *baseline* file aborts the run.

use sc_engine::flatjson::{parse_array, FlatObject};
use std::process::ExitCode;

struct Args {
    baseline: String,
    measured: Vec<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { baseline: String::new(), measured: Vec::new(), tolerance: 0.30 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--baseline" => args.baseline = value("--baseline")?,
            "--measured" => args.measured.push(value("--measured")?),
            "--tolerance" => {
                args.tolerance =
                    value("--tolerance")?.parse().map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&args.tolerance) {
                    return Err("--tolerance must lie in [0, 1)".to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.baseline.is_empty() || args.measured.is_empty() {
        return Err("need --baseline <file> and at least one --measured <file>".to_string());
    }
    Ok(args)
}

fn basename(path: &str) -> &str {
    path.rsplit(['/', '\\']).next().unwrap_or(path)
}

fn load(path: &str) -> Result<Vec<FlatObject>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_array(&text).map_err(|e| format!("{path}: {e}"))
}

fn str_field<'a>(obj: &'a FlatObject, key: &str, ctx: &str) -> Result<&'a str, String> {
    obj.get(key).and_then(|v| v.as_str()).ok_or(format!("{ctx}: missing string field {key:?}"))
}

fn num_field(obj: &FlatObject, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key).and_then(|v| v.as_f64()).ok_or(format!("{ctx}: missing numeric field {key:?}"))
}

/// Checks every baseline entry against the measured files, returning
/// `(all_ok, report_lines)`.
///
/// Missing measured *entries* and missing measured *fields* are per-entry
/// `FAIL` lines (coverage regressions the summary should enumerate), not
/// errors; only a malformed baseline entry errors.
fn gate(
    baselines: &[FlatObject],
    measured: &[(String, Vec<FlatObject>)],
    tolerance: f64,
) -> Result<(bool, Vec<String>), String> {
    let mut all_ok = true;
    let mut lines = Vec::with_capacity(baselines.len());
    for (i, b) in baselines.iter().enumerate() {
        let ctx = format!("baseline entry {i}");
        let file = str_field(b, "file", &ctx)?;
        let algo = str_field(b, "algo", &ctx)?;
        let field = str_field(b, "field", &ctx)?;
        let min = num_field(b, "min", &ctx)?;
        let floor = min * (1.0 - tolerance);

        let entry = measured
            .iter()
            .filter(|(name, _)| name == file)
            .flat_map(|(_, objs)| objs)
            .find(|o| o.get("algo").and_then(|v| v.as_str()) == Some(algo));
        let line = match entry {
            None => {
                all_ok = false;
                format!("FAIL {file} {algo}: no measured entry (coverage regression)")
            }
            Some(o) => match o.get(field).and_then(|v| v.as_f64()) {
                None => {
                    all_ok = false;
                    format!(
                        "FAIL {file} {algo}: measured entry has no numeric field {field:?} \
                         (baseline key missing from measured JSON — coverage regression)"
                    )
                }
                Some(got) if got >= floor => format!(
                    "ok   {file} {algo} {field} = {got:.3} (baseline {min:.3}, floor {floor:.3})"
                ),
                Some(got) => {
                    all_ok = false;
                    format!(
                        "FAIL {file} {algo} {field} = {got:.3} < floor {floor:.3} \
                         (baseline {min:.3} − {:.0}%)",
                        tolerance * 100.0
                    )
                }
            },
        };
        lines.push(line);
    }
    Ok((all_ok, lines))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baselines = load(&args.baseline)?;
    // (basename, entries) per measured file.
    let measured: Vec<(String, Vec<FlatObject>)> = args
        .measured
        .iter()
        .map(|p| load(p).map(|objs| (basename(p).to_string(), objs)))
        .collect::<Result<_, _>>()?;

    println!(
        "# bench_gate: {} baseline entries, tolerance {:.0}%",
        baselines.len(),
        args.tolerance * 100.0
    );
    let (all_ok, lines) = gate(&baselines, &measured, args.tolerance)?;
    for line in lines {
        println!("{line}");
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench_gate: all checks passed");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("bench_gate: performance regression detected (see FAIL lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_engine::flatjson::parse_array;

    fn fixture(measured_speedup: &str) -> (Vec<FlatObject>, Vec<(String, Vec<FlatObject>)>) {
        let baselines =
            parse_array(r#"[{"file":"BENCH_x.json","algo":"alg2","field":"speedup","min":2.0}]"#)
                .unwrap();
        let measured = parse_array(&format!(r#"[{{"algo":"alg2",{measured_speedup}}}]"#)).unwrap();
        (baselines, vec![("BENCH_x.json".to_string(), measured)])
    }

    #[test]
    fn downward_drift_beyond_tolerance_fails() {
        let (baselines, measured) = fixture(r#""speedup":1.3"#);
        let (ok, lines) = gate(&baselines, &measured, 0.30).unwrap();
        assert!(!ok, "1.3 < 2.0·0.7 must fail");
        assert!(lines[0].starts_with("FAIL"), "{lines:?}");
        assert!(lines[0].contains("floor 1.400"), "{lines:?}");
    }

    #[test]
    fn downward_drift_within_tolerance_and_upward_drift_pass() {
        // Slightly down but above the floor: noise, not regression.
        let (baselines, measured) = fixture(r#""speedup":1.5"#);
        let (ok, lines) = gate(&baselines, &measured, 0.30).unwrap();
        assert!(ok, "1.5 ≥ 1.4 floor: {lines:?}");
        // Improvement: always passes.
        let (baselines, measured) = fixture(r#""speedup":9.75"#);
        let (ok, lines) = gate(&baselines, &measured, 0.30).unwrap();
        assert!(ok, "{lines:?}");
        assert!(lines[0].starts_with("ok"), "{lines:?}");
    }

    #[test]
    fn missing_field_is_a_clear_fail_line_not_an_error() {
        // The measured entry exists but lacks the gated key (e.g. a
        // renamed field): the gate must keep going and say exactly that.
        let (baselines, measured) = fixture(r#""other":1.0"#);
        let (ok, lines) = gate(&baselines, &measured, 0.30).unwrap();
        assert!(!ok);
        assert!(
            lines[0].contains("no numeric field \"speedup\""),
            "message must name the missing key: {lines:?}"
        );
        // A string where a number belongs is the same failure.
        let (baselines, measured) = fixture(r#""speedup":"2.9""#);
        let (ok, lines) = gate(&baselines, &measured, 0.30).unwrap();
        assert!(!ok);
        assert!(lines[0].contains("no numeric field"), "{lines:?}");
    }

    #[test]
    fn missing_entry_is_a_coverage_fail_and_malformed_baseline_errors() {
        let baselines =
            parse_array(r#"[{"file":"BENCH_x.json","algo":"ghost","field":"speedup","min":2.0}]"#)
                .unwrap();
        let (ok, lines) = gate(&baselines, &fixture(r#""speedup":2.0"#).1, 0.30).unwrap();
        assert!(!ok);
        assert!(lines[0].contains("no measured entry"), "{lines:?}");

        let bad = parse_array(r#"[{"algo":"alg2","field":"speedup","min":2.0}]"#).unwrap();
        let e = gate(&bad, &[], 0.30).unwrap_err();
        assert!(e.contains("file"), "baseline problems still abort: {e}");
    }
}
