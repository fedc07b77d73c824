//! Experiment F7 — the potential-function machinery of Algorithm 1.
//!
//! Checks, per epoch, the quantities the analysis tracks:
//! * `Φ₀ ≤ |U|` and `Φ_ℓ ≤ 2|U|` (Lemma 3.5) — via the recorded per-stage
//!   potential trace;
//! * `|F| ≤ |U|` (Lemma 3.7);
//! * grid-vs-full-family derandomization quality on a tiny instance: the
//!   grid's selected `Φ` is compared with the full `p²`-member family's
//!   minimum and average (the grid stands in for the family by default;
//!   see `DerandStrategy`).

use sc_bench::Table;
use sc_graph::generators;
use sc_stream::StoredStream;
use streamcolor::{deterministic_coloring, DetConfig};

fn main() {
    println!("# F7: potential traces and |F| bounds (Lemmas 3.5/3.7)");
    let n = 1024usize;
    let mut table =
        Table::new(&["∆", "epoch", "|U|", "stages", "Φ_final", "2|U| bound", "|F|", "|F| ≤ |U|?"]);
    let mut violations = 0usize;

    for delta in [16usize, 64] {
        let g = generators::random_with_exact_max_degree(n, delta, 3);
        let stream = StoredStream::from_edges(generators::shuffled_edges(&g, 2));
        let cfg = DetConfig { track_potential: true, ..DetConfig::default() };
        let det = deterministic_coloring(&stream, n, delta, &cfg);
        assert!(det.coloring.is_proper_total(&g));
        for (i, out) in det.epoch_outcomes.iter().enumerate() {
            let phi_final = out.stage_phis.last().copied().unwrap_or(0.0);
            let ok = !out.f_bound_violated;
            violations += usize::from(!ok);
            table.row(&[
                &delta,
                &(i + 1),
                &out.u_size,
                &out.stages,
                &format!("{phi_final:.1}"),
                &(2 * out.u_size),
                &out.f_size,
                &ok,
            ]);
        }
    }
    table.print("F7: per-epoch potential and F-size");
    println!("\nLemma 3.7 violations across all epochs: {violations} (theory predicts 0).");

    // Grid vs full family on a tiny instance.
    use sc_hash::AffineFamily;
    use streamcolor::det::derand::{phi_of_hash, select_hash};
    use streamcolor::det::tables::StageTables;
    use streamcolor::det::DerandStrategy;

    let gt = generators::complete(6);
    let stream = StoredStream::from_graph(&gt);
    let p = sc_hash::prime_in_range(8 * 6 * 3, 16 * 6 * 3).unwrap();
    let u: Vec<u32> = (0..6).collect();
    let slack: Vec<u64> = vec![2; 6 * 4];
    let tables = StageTables::build(6, &u, 4, slack, p, 3);
    let group = vec![1u64; 6];

    let grid_sel = select_hash(&stream, &group, &tables, DerandStrategy::Grid { l: 8 });
    let full_sel = select_hash(&stream, &group, &tables, DerandStrategy::FullFamily);
    let fam = AffineFamily::new(p);
    let mut sum = 0.0;
    let mut min = f64::MAX;
    let mut count = 0u64;
    for h in fam.iter_all() {
        let phi = phi_of_hash(&stream, &group, &tables, h);
        sum += phi;
        min = min.min(phi);
        count += 1;
    }
    println!("\n## F7b: grid-vs-full derandomization on K6 (p = {p}, |H| = {count})");
    println!("  family average Φ : {:.3}", sum / count as f64);
    println!("  family minimum Φ : {min:.3}");
    println!("  full tournament  : {:.3}", full_sel.phi);
    println!("  8×8 grid select  : {:.3}", grid_sel.phi);
    assert!(grid_sel.phi <= sum / count as f64 + 1e-9, "grid must beat the family average");
    println!("\nThe grid's selection is at or below the family average — the property the\npass-count analysis needs (inequality (9)).");
}
