//! # `streamcolor-bench` — experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`); each
//! binary's module doc names its experiment (T1–T3, F1–F10) and the
//! claim it regenerates. The paper is theory-only, so each "figure" is a
//! theorem bound rendered as a measured curve; binaries print aligned
//! text tables to stdout.
//!
//! `bench_gate` reads the `BENCH_*.json` files with
//! [`sc_engine::flatjson`], the workspace's one flat-JSON codec.
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns *measurement and reporting* — the `exp_*` binaries,
//! the committed `BENCH_*.json` trajectory files, and the `bench_gate`
//! regression gate over `ci/bench_baselines.json`. It owns no
//! algorithmic or protocol semantics: every run goes through the same
//! `sc-engine` scenario vocabulary as everything else, so a bench can
//! never observe behavior the tests don't.

use std::fmt::Display;

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
    fn sweep() {
        assert_eq!(delta_sweep(4, 32), vec![4, 8, 16, 32]);
        assert_eq!(delta_sweep(5, 9), vec![5]);
    }
}
