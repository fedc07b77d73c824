//! # `streamcolor-bench` — experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`); each
//! binary's module doc names its experiment (T1–T3, F1–F10) and the
//! claim it regenerates. The paper is theory-only, so each "figure" is a
//! theorem bound rendered as a measured curve; binaries print aligned
//! text tables to stdout.
//!
//! `exp_summary`, `exp_service` and `exp_cluster` write the
//! `BENCH_*.json` perf trajectory through one harness: the [`smoke_run`]
//! switch, one [`median`], and [`write_rows`], which encodes each
//! [`Row`] with [`sc_engine::flatjson`] — the workspace's one flat-JSON
//! codec, which `bench_gate` reads the files back with.
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns *measurement and reporting* — the `exp_*` binaries,
//! the committed `BENCH_*.json` trajectory files, and the `bench_gate`
//! regression gate over `ci/bench_baselines.json`. It owns no
//! algorithmic or protocol semantics: every run goes through the same
//! `sc-engine` scenario vocabulary as everything else, so a bench can
//! never observe behavior the tests don't.

use sc_engine::flatjson::{encode_array, FlatObject, Scalar};
use std::fmt::Display;
use std::time::Instant;

/// Whether the binary was started with `--smoke`: the small fixed
/// CI-sized profile, written to `BENCH_<stem>.smoke.json`.
pub fn smoke_run() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// The middle sample (the upper one of the two for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of `reps` calls of `f`, in milliseconds; only the
/// call is inside the clock.
pub fn median_time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// One row of a `BENCH_*.json` file: its `algo` plus measured fields.
#[derive(Debug, Clone)]
pub struct Row(FlatObject);

impl Row {
    /// A row for `algo`.
    pub fn new(algo: &str) -> Self {
        Self(FlatObject::new()).text("algo", algo)
    }

    /// Sets `key` to a string.
    pub fn text(mut self, key: &str, value: &str) -> Self {
        self.0.insert(key.to_string(), Scalar::Str(value.to_string()));
        self
    }

    /// Sets `key` to an exact count.
    pub fn count(mut self, key: &str, value: usize) -> Self {
        self.0.insert(key.to_string(), Scalar::Uint(value as u64));
        self
    }

    /// Sets `key` to a time or ratio, rounded to the trajectory's one
    /// precision: three decimals.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.0.insert(key.to_string(), Scalar::Num((value * 1e3).round() / 1e3));
        self
    }
}

/// Writes `rows` to `BENCH_<stem>.json` (`BENCH_<stem>.smoke.json` when
/// `smoke`) and echoes them to stdout; `what` names the measurement.
///
/// # Panics
/// Panics when the file cannot be written, so a run that produced no
/// trajectory fails instead of exiting 0.
pub fn write_rows(stem: &str, smoke: bool, rows: Vec<Row>, what: &str) {
    let path = format!("BENCH_{stem}{}.json", if smoke { ".smoke" } else { "" });
    let json = encode_array(&rows.into_iter().map(|row| row.0).collect::<Vec<_>>());
    if let Err(e) = std::fs::write(&path, &json) {
        panic!("could not write {path}: {e}");
    }
    println!("\nwrote {path} ({what})");
    print!("{json}");
}

/// A fixed-width text table writer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders with per-column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Renders and prints to stdout with a caption.
    pub fn print(&self, caption: &str) {
        println!("\n## {caption}\n");
        print!("{}", self.render());
    }
}

/// Formats a bit count as a human-friendly string (`"12.3 Kb"`).
pub fn fmt_bits(bits: u64) -> String {
    if bits >= 1 << 23 {
        format!("{:.1} Mb", bits as f64 / (1 << 20) as f64)
    } else if bits >= 1 << 13 {
        format!("{:.1} Kb", bits as f64 / (1 << 10) as f64)
    } else {
        format!("{bits} b")
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// exponent used to check `colors ≈ ∆^c` shapes (experiments F3/F4).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    assert!(n >= 2.0, "need at least two positive points for a slope");
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Geometric sweep of ∆ values `start, 2·start, …` up to `end` inclusive.
pub fn delta_sweep(start: usize, end: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut d = start;
    while d <= end {
        v.push(d);
        d *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["x", "value"]);
        t.row(&[&1, &"short"]);
        t.row(&[&100, &"longer-cell"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[2].ends_with("short"));
        assert!(lines[3].ends_with("longer-cell"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn bits_formatting() {
        assert_eq!(fmt_bits(100), "100 b");
        assert_eq!(fmt_bits(1 << 14), "16.0 Kb");
        assert_eq!(fmt_bits(1 << 24), "16.0 Mb");
    }

    #[test]
    fn slope_of_exact_power_law() {
        let pts: Vec<(f64, f64)> =
            [2.0f64, 4.0, 8.0, 16.0].iter().map(|&x| (x, x.powf(2.5))).collect();
        assert!((loglog_slope(&pts) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn slope_ignores_nonpositive_points() {
        let pts = vec![(0.0, 5.0), (2.0, 4.0), (4.0, 16.0), (8.0, 64.0)];
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rows_encode_with_sorted_keys_and_three_decimals() {
        let row =
            Row::new("x").num("b_ms", 1.23456).count("a", 3).text("kind", "k").num("c", 0.5704);
        assert_eq!(
            encode_array(&[row.0]),
            "[\n  {\"a\":3,\"algo\":\"x\",\"b_ms\":1.235,\"c\":0.57,\"kind\":\"k\"}\n]\n"
        );
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn sweep() {
        assert_eq!(delta_sweep(4, 32), vec![4, 8, 16, 32]);
        assert_eq!(delta_sweep(5, 9), vec![5]);
    }
}
