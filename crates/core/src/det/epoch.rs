//! One epoch of Algorithm 1 (`COLORING-EPOCH`, paper lines 8–33).
//!
//! An epoch starts from a partial coloring `(U, χ)`, initializes the
//! trivial PCC (`P_x = {0,1}^b` for all `x ∈ U`), runs `⌈b/k⌉` stages that
//! each pin `k` more bits of every proposal subcube (3 passes per stage),
//! then makes one more pass to collect the would-be-monochromatic edge set
//! `F`, commits the proposed colors on a Turán independent set of `(U, F)`,
//! and returns.
//!
//! Key invariants maintained (and asserted):
//! * `slack(x | P_x) ≥ 1` after every stage (Lemma 3.6) — enforced
//!   structurally because `g_w` never selects a zero-slack pattern;
//! * each committed color is valid (`≤ ∆`) and unused in the committed
//!   vertex's colored neighborhood;
//! * under theory parameters, `|F| ≤ |U|` (Lemma 3.7) — measured and
//!   reported, since the grid derandomization only guarantees it
//!   empirically.

use crate::det::config::DetConfig;
use crate::det::derand::{select_hash, SelectedHash};
use crate::det::subcube::Subcube;
use crate::det::tables::StageTables;
use sc_graph::{turan_independent_set, Color, Coloring, Graph, VertexId};
use sc_hash::modp::ceil_log2;
use sc_hash::prime_in_range;
use sc_stream::{counter_bits, edge_bits, SpaceMeter, StreamSource};

/// What an epoch accomplished.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Vertices committed (removed from `U`).
    pub committed: usize,
    /// `|F|` at epoch end.
    pub f_size: usize,
    /// `|U|` at epoch start.
    pub u_size: usize,
    /// Whether `|F| > |U|` (theory bound of Lemma 3.7 violated — possible
    /// only under grid derandomization; recorded for experiment F7).
    pub f_bound_violated: bool,
    /// Per-stage potential `Φ(P_{h⋆})` values (empty unless tracked).
    pub stage_phis: Vec<f64>,
    /// Number of stages run.
    pub stages: usize,
}

/// Runs one epoch, extending `coloring` and shrinking `u_set` in place.
#[allow(clippy::too_many_arguments)]
pub fn coloring_epoch<S: StreamSource + ?Sized>(
    stream: &S,
    n: usize,
    delta: usize,
    coloring: &mut Coloring,
    u_set: &mut Vec<VertexId>,
    config: &DetConfig,
    meter: &mut SpaceMeter,
) -> EpochOutcome {
    assert!(!u_set.is_empty(), "epoch requires a nonempty uncolored set");
    let u_size = u_set.len();
    let b = ceil_log2(delta as u64 + 1); // colors are b-bit vectors
    let log_n = u64::from(ceil_log2(n as u64)).max(1);
    // k = 1 + ⌊log₂(n/|U|)⌋, clamped into [1, b].
    let k = (1 + (n as u64 / u_size as u64).ilog2()).clamp(1, b.max(1));

    // The PCC: subcubes for uncolored vertices (b·|U| bits, paper's O(n log ∆)).
    let mut sub: Vec<Subcube> = vec![Subcube::full(b); n];
    let pcc_bits = u_size as u64 * u64::from(b.max(1));
    meter.charge(pcc_bits);

    let p = prime_in_range(8 * n as u64 * log_n, 16 * n as u64 * log_n)
        .expect("Bertrand: the interval [8nL, 16nL] contains a prime");

    let mut in_u = vec![false; n];
    for &x in u_set.iter() {
        in_u[x as usize] = true;
    }

    let num_stages = if b == 0 { 0 } else { b.div_ceil(k) as usize };
    let mut stage_phis = Vec::new();

    for stage in 0..num_stages {
        // Block width: k, except the final stage takes the remainder.
        let fixed_so_far = stage as u32 * k;
        let bw = k.min(b - fixed_so_far);
        let patterns = 1usize << bw;

        // ---- Pass 1: used-color counters → slack table (eq. 1). ----
        let counter_b = counter_bits(delta as u64 + 1);
        meter.charge(u_size as u64 * patterns as u64 * counter_b);
        let mut pos = vec![u32::MAX; n];
        for (i, &x) in u_set.iter().enumerate() {
            pos[x as usize] = i as u32;
        }
        let mut used = vec![0u64; u_size * patterns];
        for item in stream.pass() {
            let Some(e) = item.as_edge() else { continue };
            let (a, c) = e.endpoints();
            for (x, y) in [(a, c), (c, a)] {
                if !in_u[x as usize] || in_u[y as usize] {
                    continue;
                }
                if let Some(chi_y) = coloring.get(y) {
                    if sub[x as usize].contains(chi_y) {
                        let j = sub[x as usize].block_of(chi_y, bw);
                        used[pos[x as usize] as usize * patterns + j as usize] += 1;
                    }
                }
            }
        }
        let mut slack = vec![0u64; u_size * patterns];
        for (i, &x) in u_set.iter().enumerate() {
            for j in 0..patterns {
                let child = sub[x as usize].child(bw, j as u64);
                let avail = child.count_at_most(delta as u64);
                let u = used[i * patterns + j];
                slack[i * patterns + j] = avail.saturating_sub(u);
            }
        }
        let tables = StageTables::build(n, u_set, patterns, slack, p, log_n);

        // ---- Passes 2–3: tournament selection of h⋆. ----
        let group: Vec<u64> =
            (0..n).map(|x| if in_u[x] { sub[x].fixed_value() } else { u64::MAX }).collect();
        let SelectedHash { hash, phi, accumulators } =
            select_hash(stream, &group, &tables, config.derand);
        meter.charge(accumulators as u64 * 2 * log_n);
        if config.track_potential {
            stage_phis.push(phi);
        }

        // ---- Tighten the PCC (line 27). ----
        for &x in u_set.iter() {
            let dense = tables.position(x).expect("x is uncolored");
            let t = hash.eval(x as u64);
            let j = tables.gw(dense, t);
            sub[x as usize] = sub[x as usize].child(bw, j as u64);
        }

        meter.release(u_size as u64 * patterns as u64 * counter_b);
        meter.release(accumulators as u64 * 2 * log_n);
    }

    // ---- Collect F, commit on an independent set (lines 28–33). ----
    debug_assert!(u_set.iter().all(|&x| sub[x as usize].is_singleton()));
    let (committed, f_size) = commit_proposals(stream, n, coloring, u_set, &mut in_u, meter, |x| {
        let c = sub[x as usize].singleton_color();
        debug_assert!(c <= delta as u64, "committed color {c} > ∆ = {delta}");
        c
    });
    meter.release(pcc_bits);

    EpochOutcome {
        committed,
        f_size,
        u_size,
        f_bound_violated: f_size > u_size,
        stage_phis,
        stages: num_stages,
    }
}

/// The commit step both deterministic theorems end an epoch with
/// (Algorithm 1, lines 28–33): one pass collects the edges `F` of `G[U]`
/// whose endpoints propose the same color, then the vertices of a Turán
/// independent set of `(U, F)` take their proposals and leave `U` (both
/// `u_set` and `in_u`). `F` is charged to `meter` while it is held.
/// Returns `(committed, |F|)`.
pub(crate) fn commit_proposals<S: StreamSource + ?Sized>(
    stream: &S,
    n: usize,
    coloring: &mut Coloring,
    u_set: &mut Vec<VertexId>,
    in_u: &mut [bool],
    meter: &mut SpaceMeter,
    proposed: impl Fn(VertexId) -> Color,
) -> (usize, usize) {
    let mut f_edges = Vec::new();
    for item in stream.pass() {
        let Some(e) = item.as_edge() else { continue };
        let (u, v) = e.endpoints();
        if in_u[u as usize] && in_u[v as usize] && proposed(u) == proposed(v) {
            f_edges.push(e);
        }
    }
    let f_size = f_edges.len();
    meter.charge(f_size as u64 * edge_bits(n));

    let independent = turan_independent_set(&Graph::from_edges(n, f_edges), u_set);
    for &x in &independent {
        coloring.set(x, proposed(x));
        in_u[x as usize] = false;
    }
    u_set.retain(|&x| in_u[x as usize]);

    meter.release(f_size as u64 * edge_bits(n));
    (independent.len(), f_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::StoredStream;

    fn run_one_epoch(
        g: &sc_graph::Graph,
        config: &DetConfig,
    ) -> (Coloring, Vec<VertexId>, EpochOutcome) {
        let n = g.n();
        let delta = g.max_degree();
        let stream = StoredStream::from_graph(g);
        let mut coloring = Coloring::empty(n);
        let mut u_set: Vec<VertexId> = (0..n as u32).collect();
        let mut meter = SpaceMeter::new();
        let out = coloring_epoch(&stream, n, delta, &mut coloring, &mut u_set, config, &mut meter);
        (coloring, u_set, out)
    }

    #[test]
    fn epoch_commits_a_constant_fraction() {
        let g = generators::gnp_with_max_degree(48, 8, 0.4, 3);
        let (coloring, u_set, out) = run_one_epoch(&g, &DetConfig::default());
        assert!(coloring.is_proper_partial(&g));
        assert_eq!(out.u_size, 48);
        assert_eq!(out.committed + u_set.len(), 48);
        // Lemma 3.8: at least a third commits (needs |F| ≤ |U|).
        if !out.f_bound_violated {
            assert!(
                out.committed * 3 >= 48,
                "only {} of 48 committed with |F| = {}",
                out.committed,
                out.f_size
            );
        }
    }

    #[test]
    fn committed_colors_are_valid_and_proper() {
        let g = generators::gnp_with_max_degree(32, 6, 0.5, 9);
        let delta = g.max_degree() as u64;
        let (coloring, _, _) = run_one_epoch(&g, &DetConfig::default());
        assert!(coloring.is_proper_partial(&g));
        for (_, c) in coloring.assignments() {
            assert!(c <= delta);
        }
    }

    #[test]
    fn epoch_on_clique_still_progresses() {
        let g = generators::complete(9);
        let (coloring, u_set, out) = run_one_epoch(&g, &DetConfig::default());
        assert!(coloring.is_proper_partial(&g));
        assert!(out.committed >= 1);
        assert!(u_set.len() < 9);
    }

    #[test]
    fn epoch_with_edgeless_graph_commits_everything() {
        let g = sc_graph::Graph::empty(10);
        // ∆ = 0 would short-circuit in the driver; use ∆ = 1 semantics by
        // giving the epoch a positive delta.
        let stream = StoredStream::from_graph(&g);
        let mut coloring = Coloring::empty(10);
        let mut u_set: Vec<VertexId> = (0..10).collect();
        let mut meter = SpaceMeter::new();
        let out = coloring_epoch(
            &stream,
            10,
            1,
            &mut coloring,
            &mut u_set,
            &DetConfig::default(),
            &mut meter,
        );
        assert_eq!(out.f_size, 0);
        assert_eq!(out.committed, 10, "no conflicts ⇒ all commit");
        assert!(u_set.is_empty());
    }

    #[test]
    fn potential_trace_recorded_when_tracked() {
        let g = generators::gnp_with_max_degree(24, 6, 0.5, 1);
        let cfg = DetConfig { track_potential: true, ..DetConfig::default() };
        let (_, _, out) = run_one_epoch(&g, &cfg);
        assert_eq!(out.stage_phis.len(), out.stages);
        // Lemma 3.5: final potential ≤ 2|U| (grid mode: check generously).
        if let Some(&last) = out.stage_phis.last() {
            assert!(last <= 2.0 * out.u_size as f64 + 1e-6, "Φ_ℓ = {last} too large");
        }
    }

    #[test]
    fn f_bound_holds_on_random_graphs() {
        // Lemma 3.7 (|F| ≤ |U|) should hold in practice with grid derand.
        for seed in 0..4u64 {
            let g = generators::gnp_with_max_degree(40, 8, 0.35, seed);
            let (_, _, out) = run_one_epoch(&g, &DetConfig::default());
            assert!(
                !out.f_bound_violated,
                "seed {seed}: |F| = {} > |U| = {}",
                out.f_size, out.u_size
            );
        }
    }

    #[test]
    fn space_meter_returns_to_baseline() {
        let g = generators::gnp_with_max_degree(30, 5, 0.4, 2);
        let stream = StoredStream::from_graph(&g);
        let mut coloring = Coloring::empty(30);
        let mut u_set: Vec<VertexId> = (0..30).collect();
        let mut meter = SpaceMeter::new();
        coloring_epoch(
            &stream,
            30,
            5,
            &mut coloring,
            &mut u_set,
            &DetConfig::default(),
            &mut meter,
        );
        assert_eq!(meter.current_bits(), 0, "epoch must release all charges");
        assert!(meter.peak_bits() > 0);
    }
}
