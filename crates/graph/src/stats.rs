//! Workload statistics — per-graph summary numbers (size, degree range,
//! mean and histogram) and a one-line description for diagnostics.

use crate::graph::Graph;

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Maximum degree `∆`.
    pub max_degree: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Mean degree `2m/n`.
    pub mean_degree: f64,
    /// Number of isolated vertices.
    pub isolated: usize,
    /// Degree histogram: `histogram[d]` = number of vertices of degree `d`.
    pub histogram: Vec<usize>,
}

impl GraphStats {
    /// Computes all statistics in one sweep.
    pub fn of(g: &Graph) -> Self {
        let n = g.n();
        let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let min_degree = degrees.iter().copied().min().unwrap_or(0);
        let isolated = degrees.iter().filter(|&&d| d == 0).count();
        let mut histogram = vec![0usize; max_degree + 1];
        for &d in &degrees {
            histogram[d] += 1;
        }
        Self {
            n,
            m: g.m(),
            max_degree,
            min_degree,
            mean_degree: if n == 0 { 0.0 } else { 2.0 * g.m() as f64 / n as f64 },
            isolated,
            histogram,
        }
    }

    /// The `p`-th percentile degree (`p ∈ [0, 100]`).
    pub fn degree_percentile(&self, p: f64) -> usize {
        assert!((0.0..=100.0).contains(&p));
        let total: usize = self.histogram.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * (total as f64 - 1.0)).round() as usize;
        let mut seen = 0usize;
        for (d, &count) in self.histogram.iter().enumerate() {
            seen += count;
            if seen > target {
                return d;
            }
        }
        self.max_degree
    }

    /// One-line description for experiment logs.
    pub fn describe(&self) -> String {
        format!(
            "n={} m={} ∆={} deg(min/mean/median)={}/{:.1}/{} isolated={}",
            self.n,
            self.m,
            self.max_degree,
            self.min_degree,
            self.mean_degree,
            self.degree_percentile(50.0),
            self.isolated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_of_star() {
        let s = GraphStats::of(&generators::star(10));
        assert_eq!(s.n, 10);
        assert_eq!(s.m, 9);
        assert_eq!(s.max_degree, 9);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.isolated, 0);
        assert_eq!(s.histogram[1], 9);
        assert_eq!(s.histogram[9], 1);
        assert!((s.mean_degree - 1.8).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::of(&Graph::empty(5));
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.isolated, 5);
        assert_eq!(s.degree_percentile(50.0), 0);
    }

    #[test]
    fn stats_of_zero_vertices() {
        let s = GraphStats::of(&Graph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.mean_degree, 0.0);
    }

    #[test]
    fn percentiles_of_regular_graph() {
        let s = GraphStats::of(&generators::cycle(20));
        assert_eq!(s.degree_percentile(0.0), 2);
        assert_eq!(s.degree_percentile(50.0), 2);
        assert_eq!(s.degree_percentile(100.0), 2);
    }

    #[test]
    fn percentiles_of_mixed_degrees() {
        // Path of 5: degrees [1, 2, 2, 2, 1].
        let s = GraphStats::of(&generators::path(5));
        assert_eq!(s.degree_percentile(0.0), 1);
        assert_eq!(s.degree_percentile(100.0), 2);
        assert_eq!(s.degree_percentile(50.0), 2);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = generators::gnp_with_max_degree(100, 9, 0.3, 4);
        let s = GraphStats::of(&g);
        assert_eq!(s.histogram.iter().sum::<usize>(), 100);
        assert_eq!(s.histogram.len(), s.max_degree + 1);
    }

    #[test]
    fn describe_contains_key_fields() {
        let d = GraphStats::of(&generators::complete(4)).describe();
        assert!(d.contains("n=4"));
        assert!(d.contains("m=6"));
        assert!(d.contains("∆=3"));
    }
}
