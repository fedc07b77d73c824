//! Theorem 2: deterministic semi-streaming `(deg+1)`-list-coloring.
//!
//! The driver mirrors Algorithm 1's epoch structure, with two changes
//! (paper §3.5):
//!
//! 1. **Adaptive partitions.** Color-space partitions are not bit-block
//!    subcubes but 2-universal hash partitions `C → [s]` (`s = 2^k`),
//!    selected each stage to have below-average cost per Lemma 3.10; each
//!    stage shrinks the total list mass `Σ_x (|L_x ∩ P_x| − 1)` by about
//!    `√s`, so `≈ ⌈2 log(∆+1)/k⌉` stages bring it below `|U|`.
//! 2. **Singleton last stage.** Once the mass is below `|U|`, a final
//!    stage materializes each vertex's surviving colors (`≤ 2|U|` bits in
//!    total), prunes those used by colored neighbors, and picks one
//!    surviving color per vertex via the same derandomized tournament —
//!    now directly minimizing the number of monochromatic edges `|F|` —
//!    before Algorithm 1's commit step.
//!
//! A vertex's proposal set `P_x` is stored implicitly as the sequence of
//! chosen cells: `c ∈ P_x ⇔ R_i(c) = j_i(x)` for every completed stage
//! `i` — `O(log n)` bits per vertex, as the paper requires.

use crate::det::config::DerandStrategy;
use crate::det::derand::{select_hash, tournament, SelectedHash};
use crate::det::epoch::commit_proposals;
use crate::det::tables::StageTables;
use crate::listcolor::partition::{
    candidate_partitions, four_pass_partition_selection, partition_cost_for_list, PartitionSearch,
};
use sc_graph::{greedy_list_color, Color, Coloring, Graph, VertexId};
use sc_hash::affine::GridSubfamily;
use sc_hash::modp::ceil_log2;
use sc_hash::{prime_in_range, splitmix64, TwoUniversalHash};
use sc_stream::{counter_bits, edge_bits, PassCounter, SpaceMeter, StreamSource};

/// Safety cap on epochs; past it [`list_coloring`] falls back to batch
/// list-greedy.
const MAX_EPOCHS: usize = 200;

/// Cap on stages per epoch, as a multiple of the nominal
/// `⌈2 log(∆+1)/k⌉ + 1` (sampled partitions may need a few extra).
const MAX_STAGE_FACTOR: usize = 4;

/// Configuration for the list-coloring algorithm.
///
/// Both of an epoch's hash tournaments (per stage and singleton) run
/// over [`DerandStrategy::default`]'s grid, as Theorem 1's stages do by
/// default.
#[derive(Debug, Clone, Default)]
pub struct ListConfig {
    /// Partition-candidate search per stage (Lemma 3.10 selection).
    pub partition_search: PartitionSearch,
}

/// Run report for Theorem 2 experiments.
#[derive(Debug, Clone)]
pub struct ListReport {
    /// The final proper list coloring.
    pub coloring: Coloring,
    /// Streaming passes used.
    pub passes: u64,
    /// Epochs run.
    pub epochs: usize,
    /// Total stages across epochs (including singleton stages).
    pub stages: usize,
    /// Peak self-reported space in bits.
    pub peak_space_bits: u64,
    /// Whether the safety fallback engaged.
    pub fallback_used: bool,
}

/// Deterministically `(deg+1)`-list-colors a streamed graph.
///
/// The stream interleaves edges and `(x, L_x)` tokens in any order;
/// `universe` bounds the color values (`L_x ⊆ [0, universe)`, the paper's
/// `C` with `|C| = O(n²)`); `delta` bounds the maximum degree.
///
/// # Panics
/// Panics if some vertex lacks a list, a list is smaller than `deg(x)+1`,
/// or an edge is out of range — all input-contract violations.
///
/// # Example
/// ```
/// use sc_graph::generators;
/// use sc_stream::StoredStream;
/// use streamcolor::{list_coloring, ListConfig};
///
/// let g = generators::gnp_with_max_degree(60, 6, 0.4, 1);
/// let lists = generators::random_deg_plus_one_lists(&g, 48, 2);
/// let stream = StoredStream::from_graph_with_lists(&g, &lists);
/// let report = list_coloring(&stream, 60, 6, 48, &ListConfig::default());
/// assert!(report.coloring.is_proper_total(&g));
/// assert!(report.coloring.respects_lists(&lists));
/// ```
pub fn list_coloring<S: StreamSource + ?Sized>(
    stream: &S,
    n: usize,
    delta: usize,
    universe: u64,
    config: &ListConfig,
) -> ListReport {
    let counted = PassCounter::new(stream);
    let mut meter = SpaceMeter::new();
    meter.charge(n as u64 * (counter_bits(universe.max(1)) + 1)); // χ + U bits

    let mut coloring = Coloring::empty(n);
    let mut u_set: Vec<VertexId> = (0..n as u32).collect();
    let mut epochs = 0usize;
    let mut stages = 0usize;
    let mut fallback_used = false;

    while !u_set.is_empty() && u_set.len() * delta.max(1) > n {
        if epochs >= MAX_EPOCHS {
            fallback_used = true;
            break;
        }
        stages +=
            list_epoch(&counted, n, delta, universe, &mut coloring, &mut u_set, config, &mut meter);
        epochs += 1;
    }

    // Final phase: collect the residual subgraph and its lists, then
    // greedy-list-color (one pass; ≤ |U|·(∆+1) ≤ 2n stored values).
    if !u_set.is_empty() {
        let mut in_u = vec![false; n];
        for &x in &u_set {
            in_u[x as usize] = true;
        }
        let mut residual = Graph::empty(n);
        let mut lists: Vec<Vec<Color>> = vec![Vec::new(); n];
        for item in counted.pass() {
            match item {
                sc_stream::StreamItem::Edge(e) => {
                    if in_u[e.u() as usize] || in_u[e.v() as usize] {
                        residual.add_edge(e);
                    }
                }
                sc_stream::StreamItem::ColorList(x, l) => {
                    if in_u[x as usize] {
                        lists[x as usize] = l;
                    }
                }
            }
        }
        let stored: u64 = lists.iter().map(|l| l.len() as u64).sum();
        meter.charge(residual.m() as u64 * edge_bits(n) + stored * counter_bits(universe.max(1)));
        for &x in &u_set {
            assert!(
                !lists[x as usize].is_empty(),
                "vertex {x} has no color list (input contract violation)"
            );
        }
        greedy_list_color(&residual, &mut coloring, &u_set, &lists)
            .unwrap_or_else(|x| panic!("list of vertex {x} exhausted: |L_x| < deg(x)+1?"));
        meter.release(residual.m() as u64 * edge_bits(n) + stored * counter_bits(universe.max(1)));
        u_set.clear();
    }

    ListReport {
        coloring,
        passes: counted.passes(),
        epochs,
        stages,
        peak_space_bits: meter.peak_bits(),
        fallback_used,
    }
}

/// One epoch; returns the number of stages it ran.
#[allow(clippy::too_many_arguments)]
fn list_epoch<S: StreamSource + ?Sized>(
    stream: &S,
    n: usize,
    delta: usize,
    universe: u64,
    coloring: &mut Coloring,
    u_set: &mut Vec<VertexId>,
    config: &ListConfig,
    meter: &mut SpaceMeter,
) -> usize {
    let u_size = u_set.len();
    let log_n = u64::from(ceil_log2(n as u64)).max(1);
    let k = (1 + (n as u64 / u_size as u64).ilog2()).max(1);
    let s = 1u64 << k.min(20);
    let b = ceil_log2(delta as u64 + 1).max(1);
    let nominal_stages = (2 * b).div_ceil(k) as usize + 1;
    let stage_cap = nominal_stages * MAX_STAGE_FACTOR + 1;
    let p = prime_in_range(8 * n as u64 * log_n, 16 * n as u64 * log_n)
        .expect("Bertrand interval contains a prime");

    let mut in_u = vec![false; n];
    for &x in u_set.iter() {
        in_u[x as usize] = true;
    }
    let mut pos = vec![u32::MAX; n];
    for (i, &x) in u_set.iter().enumerate() {
        pos[x as usize] = i as u32;
    }

    // P_x is implicit: the chosen cell per completed stage.
    let mut stage_hashes: Vec<TwoUniversalHash> = Vec::new();
    // Stage-major, n entries per stage.
    let mut choices: Vec<Vec<u64>> = Vec::new();
    // Proposal-identity tokens (P_u = P_v ⇔ same cell history).
    let mut group: Vec<u64> = (0..n).map(|x| if in_u[x] { 0 } else { u64::MAX }).collect();
    meter.charge(u_size as u64 * 2 * log_n); // per-vertex cell history

    let mut ran_stages = 0usize;
    loop {
        ran_stages += 1;
        // ---- Pass A: current list mass (+ candidate costs when the
        // selection is single-pass). ----
        let four_pass = matches!(config.partition_search, PartitionSearch::FourPass);
        let candidates = if four_pass {
            Vec::new()
        } else {
            candidate_partitions(universe, s, config.partition_search)
        };
        meter.charge((candidates.len().max(1)) as u64 * 2 * log_n);
        let mut costs = vec![0u64; candidates.len()];
        let mut mass = 0u64;
        let mut scratch = vec![0u32; s as usize];
        for item in stream.pass() {
            let Some((x, l)) = item.as_color_list() else { continue };
            if !in_u[x as usize] {
                continue;
            }
            let eff = effective_list(l, x as usize, &stage_hashes, &choices);
            mass += (eff.len() as u64).saturating_sub(1);
            for (ci, r) in candidates.iter().enumerate() {
                costs[ci] += partition_cost_for_list(r, &eff, &mut scratch);
            }
        }
        meter.release((candidates.len().max(1)) as u64 * 2 * log_n);
        if mass <= u_size as u64 || ran_stages > stage_cap {
            break; // ready for the singleton stage
        }
        let r_star = if four_pass {
            // Paper-literal tournament: four more passes over the stream,
            // O(|F|^{1/4}) accumulators (Theorem 2's proof structure).
            four_pass_partition_selection(universe, s, |feed| {
                for item in stream.pass() {
                    let Some((x, l)) = item.as_color_list() else { continue };
                    if !in_u[x as usize] {
                        continue;
                    }
                    feed(&effective_list(l, x as usize, &stage_hashes, &choices));
                }
            })
        } else {
            let best = costs
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
                .expect("candidate set is nonempty");
            candidates[best]
        };

        // ---- Pass B: slack counters for the chosen partition. ----
        let patterns = s as usize;
        meter.charge(u_size as u64 * s * counter_bits(delta as u64 + 1));
        let mut cnt_lx = vec![0u64; u_size * patterns];
        let mut used = vec![0u64; u_size * patterns];
        for item in stream.pass() {
            match item {
                sc_stream::StreamItem::ColorList(x, l) => {
                    if !in_u[x as usize] {
                        continue;
                    }
                    let row = pos[x as usize] as usize * patterns;
                    for &c in &l {
                        if in_px(c, x as usize, &stage_hashes, &choices) {
                            cnt_lx[row + r_star.eval(c) as usize] += 1;
                        }
                    }
                }
                sc_stream::StreamItem::Edge(e) => {
                    for (x, y) in [(e.u(), e.v()), (e.v(), e.u())] {
                        if !in_u[x as usize] || in_u[y as usize] {
                            continue;
                        }
                        if let Some(chi_y) = coloring.get(y) {
                            if in_px(chi_y, x as usize, &stage_hashes, &choices) {
                                let row = pos[x as usize] as usize * patterns;
                                used[row + r_star.eval(chi_y) as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        let slack: Vec<u64> =
            cnt_lx.iter().zip(used.iter()).map(|(&a, &u)| a.saturating_sub(u)).collect();
        let tables = StageTables::build(n, u_set, patterns, slack, p, log_n);

        // ---- Passes C–D: tournament for h⋆, then tighten P_x. ----
        let sel = select_hash(stream, &group, &tables, DerandStrategy::default());
        meter.charge(sel.accumulators as u64 * 2 * log_n);
        let mut row = vec![u64::MAX; n];
        for &x in u_set.iter() {
            let dense = tables.position(x).expect("uncolored");
            let j = tables.gw(dense, sel.hash.eval(x as u64)) as u64;
            row[x as usize] = j;
            group[x as usize] =
                splitmix64(group[x as usize] ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        stage_hashes.push(r_star);
        choices.push(row);
        meter.release(u_size as u64 * s * counter_bits(delta as u64 + 1));
        meter.release(sel.accumulators as u64 * 2 * log_n);
    }

    // ---- Singleton stage. ----
    // Pass S1: materialize surviving colors (≤ mass + |U| ≤ 2|U| values).
    let mut avail: Vec<Vec<Color>> = vec![Vec::new(); n];
    for item in stream.pass() {
        let Some((x, l)) = item.as_color_list() else { continue };
        if in_u[x as usize] {
            let mut eff = effective_list(l, x as usize, &stage_hashes, &choices);
            eff.sort_unstable();
            eff.dedup();
            avail[x as usize] = eff;
        }
    }
    let avail_total: u64 = avail.iter().map(|a| a.len() as u64).sum();
    meter.charge(avail_total * counter_bits(universe.max(1)));

    // Pass S2: prune colors used by colored neighbors.
    for item in stream.pass() {
        let Some(e) = item.as_edge() else { continue };
        for (x, y) in [(e.u(), e.v()), (e.v(), e.u())] {
            if in_u[x as usize] && !in_u[y as usize] {
                if let Some(chi_y) = coloring.get(y) {
                    avail[x as usize].retain(|&c| c != chi_y);
                }
            }
        }
    }
    for &x in u_set.iter() {
        assert!(
            !avail[x as usize].is_empty(),
            "vertex {x} has no surviving color (slack invariant violated)"
        );
    }

    // Passes S3–S4: tournament choosing final colors to minimize |F|.
    let grid = DerandStrategy::default().grid(p);
    let (final_color, sel) = select_singleton_colors(stream, &avail, &in_u, &grid);
    // Its accumulators were live beside `avail`, and are freed before F.
    meter.charge(sel.accumulators as u64 * 2 * log_n);
    meter.release(sel.accumulators as u64 * 2 * log_n);

    // Pass S5: collect F and commit.
    commit_proposals(stream, n, coloring, u_set, &mut in_u, meter, |x| final_color[x as usize]);
    meter.release(avail_total * counter_bits(universe.max(1)));
    meter.release(u_size as u64 * 2 * log_n);

    ran_stages
}

/// `c ∈ P_x`: every completed stage's partition put `c` in the cell `x`
/// chose.
fn in_px(c: Color, x: usize, hashes: &[TwoUniversalHash], choices: &[Vec<u64>]) -> bool {
    hashes.iter().zip(choices).all(|(h, row)| h.eval(c) == row[x])
}

/// The effective list `L_x ∩ P_x`, in list order.
fn effective_list(
    l: &[Color],
    x: usize,
    hashes: &[TwoUniversalHash],
    choices: &[Vec<u64>],
) -> Vec<Color> {
    l.iter().copied().filter(|&c| in_px(c, x, hashes, choices)).collect()
}

/// The singleton-stage tournament: picks `h⋆` minimizing the number of
/// monochromatic edges of `G[U]`, and returns each uncolored vertex's
/// final color `avail[x][⌊h⋆(x)·|avail[x]|/p⌋]` along with the
/// tournament's result.
pub(crate) fn select_singleton_colors<S: StreamSource + ?Sized>(
    stream: &S,
    avail: &[Vec<Color>],
    in_u: &[bool],
    grid: &GridSubfamily,
) -> (Vec<Color>, SelectedHash) {
    let p = grid.modulus();
    // x's color under a hash that sends it to t.
    let pick = |t: u64, x: usize| -> Color {
        let list = &avail[x];
        let idx = ((t as u128 * list.len() as u128) / p as u128) as usize;
        list[idx.min(list.len() - 1)]
    };
    let sel = tournament(
        stream,
        grid,
        |item| {
            let (u, v) = item.as_edge()?.endpoints();
            let (u, v) = (u as usize, v as usize);
            (in_u[u] && in_u[v]).then_some(([u as u64, v as u64], (u, v)))
        },
        |&(u, v), [su, sv], row| {
            let ts = grid.member_values(su).zip(grid.member_values(sv));
            for (cost, (tu, tv)) in row.iter_mut().zip(ts) {
                *cost = if pick(tu, u) == pick(tv, v) { 1.0 } else { 0.0 };
            }
        },
    );
    let colors = (0..avail.len())
        .map(|x| if in_u[x] && !avail[x].is_empty() { pick(sel.hash.eval(x as u64), x) } else { 0 })
        .collect();
    (colors, sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::StoredStream;

    fn run(
        g: &sc_graph::Graph,
        lists: &[Vec<Color>],
        universe: u64,
        config: &ListConfig,
    ) -> ListReport {
        let stream = StoredStream::from_graph_with_lists(g, lists);
        let r = list_coloring(&stream, g.n(), g.max_degree(), universe, config);
        assert!(r.coloring.is_proper_total(g), "improper list coloring");
        assert!(r.coloring.respects_lists(lists), "coloring violates lists");
        r
    }

    #[test]
    fn random_graph_random_lists() {
        for seed in 0..3u64 {
            let g = generators::gnp_with_max_degree(40, 6, 0.4, seed);
            let lists = generators::random_deg_plus_one_lists(&g, 100, seed + 9);
            let r = run(&g, &lists, 100, &ListConfig::default());
            assert!(!r.fallback_used);
        }
    }

    #[test]
    fn large_universe_lists() {
        // |C| = O(n²) as in the theorem statement.
        let g = generators::gnp_with_max_degree(30, 5, 0.4, 4);
        let universe = (30 * 30) as u64;
        let lists = generators::random_deg_plus_one_lists(&g, universe, 2);
        run(&g, &lists, universe, &ListConfig::default());
    }

    #[test]
    fn identical_minimal_lists_reduce_to_delta_plus_one() {
        // L_x = [∆+1] for all x recovers Theorem 1 behaviour.
        let g = generators::gnp_with_max_degree(32, 5, 0.5, 7);
        let palette: Vec<Color> = (0..=g.max_degree() as Color).collect();
        let lists: Vec<Vec<Color>> = (0..32).map(|_| palette.clone()).collect();
        let r = run(&g, &lists, g.max_degree() as u64 + 1, &ListConfig::default());
        assert!(r.coloring.palette_span() <= g.max_degree() as u64 + 1);
    }

    #[test]
    fn clique_with_disjoint_heavy_lists() {
        let g = generators::complete(8);
        // Each vertex gets 8 private colors — trivially colorable, but the
        // machinery must still terminate cleanly.
        let lists: Vec<Vec<Color>> =
            (0..8u64).map(|x| (0..8).map(|i| x * 8 + i).collect()).collect();
        run(&g, &lists, 64, &ListConfig::default());
    }

    #[test]
    fn adversarial_shared_tight_lists() {
        // A clique where all lists are the same [n] — the tightest case.
        let g = generators::complete(10);
        let lists: Vec<Vec<Color>> = (0..10).map(|_| (0..10).collect()).collect();
        run(&g, &lists, 10, &ListConfig::default());
    }

    #[test]
    fn star_with_small_leaf_lists() {
        let g = generators::star(20);
        let mut lists: Vec<Vec<Color>> = vec![vec![]; 20];
        lists[0] = (0..20).collect(); // center: deg 19, list 20
        for leaf_list in lists.iter_mut().skip(1) {
            *leaf_list = vec![500, 501]; // leaves: deg 1, list 2
        }
        run(&g, &lists, 502, &ListConfig::default());
    }

    #[test]
    fn exhaustive_partition_search_tiny_universe() {
        let g = generators::cycle(12);
        let lists: Vec<Vec<Color>> = (0..12).map(|_| vec![0, 1, 2]).collect();
        let cfg = ListConfig { partition_search: PartitionSearch::Exhaustive };
        run(&g, &lists, 3, &cfg);
    }

    #[test]
    fn four_pass_selection_tiny_universe() {
        // The paper-literal tournament end to end (small |C| keeps the
        // full family enumerable).
        let g = generators::cycle(14);
        let lists: Vec<Vec<Color>> = (0..14).map(|x| vec![x % 3, 3 + x % 2, 5]).collect();
        let cfg = ListConfig { partition_search: PartitionSearch::FourPass };
        run(&g, &lists, 6, &cfg);
    }

    #[test]
    fn determinism() {
        let g = generators::gnp_with_max_degree(25, 4, 0.5, 3);
        let lists = generators::random_deg_plus_one_lists(&g, 50, 5);
        let stream = StoredStream::from_graph_with_lists(&g, &lists);
        let r1 = list_coloring(&stream, 25, 4, 50, &ListConfig::default());
        let r2 = list_coloring(&stream, 25, 4, 50, &ListConfig::default());
        assert_eq!(r1.coloring, r2.coloring);
        assert_eq!(r1.passes, r2.passes);
    }

    #[test]
    fn peak_space_counts_the_stage_tournament() {
        let (n, universe) = (60usize, 12u64);
        let g = generators::gnp_with_max_degree(n, 6, 0.5, 5);
        let lists = generators::random_deg_plus_one_lists(&g, universe, 7);
        let delta = g.max_degree();
        // The first epoch has U = V, so k = 1 and each stage splits lists
        // into s = 2 cells. Its first stage runs a tournament because the
        // list mass Σ_x (|L_x| − 1) exceeds |U|.
        let mass: usize = lists.iter().map(|l| l.len() - 1).sum();
        assert!(mass > n && n * delta > n);
        let r = run(&g, &lists, universe, &ListConfig::default());

        let log_n = u64::from(ceil_log2(n as u64));
        let p = prime_in_range(8 * n as u64 * log_n, 16 * n as u64 * log_n).unwrap();
        let grid = DerandStrategy::default().grid(p);
        let accumulators = grid.num_parts().max(grid.part_size()) as u64;
        let n = n as u64;
        // Live during that tournament: χ and U, the cell histories, the
        // slack counters and the tournament's accumulators.
        let live = n * (counter_bits(universe) + 1)
            + n * 2 * log_n
            + n * 2 * counter_bits(delta as u64 + 1)
            + accumulators * 2 * log_n;
        assert!(r.peak_space_bits >= live, "peak {} < {live} live bits", r.peak_space_bits);
    }

    #[test]
    fn lists_interleaved_after_edges() {
        // Tokens may arrive in any order (theorem statement).
        let g = generators::cycle(9);
        let lists = generators::random_deg_plus_one_lists(&g, 30, 1);
        let mut items: Vec<sc_stream::StreamItem> =
            g.edges().map(sc_stream::StreamItem::Edge).collect();
        for (x, l) in lists.iter().enumerate() {
            items.push(sc_stream::StreamItem::ColorList(x as u32, l.clone()));
        }
        let stream = StoredStream::new(items);
        let r = list_coloring(&stream, 9, 2, 30, &ListConfig::default());
        assert!(r.coloring.is_proper_total(&g));
        assert!(r.coloring.respects_lists(&lists));
    }

    #[test]
    #[should_panic(expected = "no color list")]
    fn missing_list_rejected_in_final_phase() {
        // ∆ = 1 goes straight to the final phase, which checks lists.
        let mut g = sc_graph::Graph::empty(4);
        g.add_edge(sc_graph::Edge::new(0, 1));
        g.add_edge(sc_graph::Edge::new(2, 3));
        let stream = StoredStream::from_graph(&g); // no lists at all
        list_coloring(&stream, 4, 1, 20, &ListConfig::default());
    }

    #[test]
    #[should_panic(expected = "no surviving color")]
    fn missing_list_rejected_in_epoch() {
        // Dense graph: the epoch path notices empty effective lists.
        let g = generators::complete(12);
        let stream = StoredStream::from_graph(&g); // no lists at all
        list_coloring(&stream, 12, 11, 20, &ListConfig::default());
    }
}
