//! Color-space partitions for list coloring (Lemma 3.10).
//!
//! Algorithm 1 partitions its color space `{0,1}^b` into bit-block
//! subcubes; that only works because every `L_x` is the same prefix
//! `[∆+1]`. For arbitrary lists, Theorem 2 instead partitions the universe
//! `C` by a **2-universal hash** `R : C → [s]` chosen *adaptively*: Lemma
//! 3.10 shows the family average of
//!
//! ```text
//! cost(R) = Σ_{x ∈ U} max_{cell S ∈ R} (|L_x ∩ P_x ∩ S| − 1)
//! ```
//!
//! is at most `(1/√s) · Σ_x (|L_x ∩ P_x| − 1)`, so a below-average member
//! shrinks the total list-mass by `√s` per stage. The paper finds one with
//! a 4-pass tournament over the full `O(|C|²)` family; we support both the
//! exhaustive search (tiny universes, ground truth in tests) and a
//! deterministic strided subsample (standing in for the full family the
//! way Algorithm 1's hash grid does; see `DerandStrategy`), each
//! evaluated in a single pass with one accumulator per candidate.

use sc_graph::Color;
use sc_hash::{TwoUniversalFamily, TwoUniversalHash};

/// How many candidate partitions the per-stage selection examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSearch {
    /// Enumerate the entire 2-universal family (`p(p−1)` members) in one
    /// pass with one accumulator each. Only feasible when the color
    /// universe is tiny.
    Exhaustive,
    /// A deterministic strided subsample of the family.
    Sampled(usize),
    /// The paper-literal 4-pass tournament over the full family
    /// ([`four_pass_partition_selection`]): `O(|F|^{1/4})` accumulators,
    /// four extra passes per stage. Tiny universes only.
    FourPass,
}

impl Default for PartitionSearch {
    fn default() -> Self {
        PartitionSearch::Sampled(16)
    }
}

/// Materializes the candidate list for a universe of size `universe` and
/// cell count `s`.
pub fn candidate_partitions(
    universe: u64,
    s: u64,
    search: PartitionSearch,
) -> Vec<TwoUniversalHash> {
    let family = TwoUniversalFamily::for_domain(universe, s);
    match search {
        PartitionSearch::Exhaustive => {
            let len = family.len();
            assert!(
                len <= 1 << 22,
                "exhaustive search over {len} partitions is infeasible; use Sampled"
            );
            (0..len).map(|i| family.member(i)).collect()
        }
        PartitionSearch::Sampled(l) => family.strided_sample(l),
        PartitionSearch::FourPass => {
            unreachable!("FourPass selection streams directly; no candidate list")
        }
    }
}

/// `a_R(S) = max_cell (|S ∩ cell| − 1)` for one vertex's effective list
/// `S = L_x ∩ P_x` under partition `R` with `s` cells.
///
/// `scratch` must be a zeroed `Vec` of length ≥ `s`; it is re-zeroed
/// before returning (the workhorse-buffer idiom — cost O(|S|), not O(s)).
pub fn partition_cost_for_list(
    r: &TwoUniversalHash,
    effective_list: &[Color],
    scratch: &mut [u32],
) -> u64 {
    let mut touched: Vec<usize> = Vec::with_capacity(effective_list.len());
    let mut best = 0u32;
    for &c in effective_list {
        let cell = r.eval(c) as usize;
        if scratch[cell] == 0 {
            touched.push(cell);
        }
        scratch[cell] += 1;
        best = best.max(scratch[cell]);
    }
    for cell in touched {
        scratch[cell] = 0;
    }
    u64::from(best.saturating_sub(1))
}

/// Exact total mass `Σ_x (|S_x| − 1)` — the quantity each stage must
/// shrink below `|U|` before the singleton stage can run.
pub fn total_list_mass(effective_lists: &[Vec<Color>]) -> u64 {
    effective_lists.iter().map(|l| (l.len() as u64).saturating_sub(1)).sum()
}

/// The paper-literal 4-pass tournament over the **full** 2-universal
/// family (Theorem 2's proof): pass `r` splits the surviving index range
/// into `⌈|F|^{1/4}⌉` parts and keeps the part with the smallest total
/// cost, so only `O(|F|^{1/4})` accumulators live at any time; after four
/// passes a single member remains.
///
/// `replay` is invoked once per pass and must feed every uncolored
/// vertex's *effective list* `L_x ∩ P_x` to the callback — the caller owns
/// the stream and the `P_x` membership state.
///
/// Time is `Θ(|F|)` work per token per pass (the model charges space, not
/// time), so this is practical only for small universes; the sampled
/// selection ([`PartitionSearch::Sampled`]) is the default.
pub fn four_pass_partition_selection<F>(universe: u64, s: u64, mut replay: F) -> TwoUniversalHash
where
    F: FnMut(&mut dyn FnMut(&[Color])),
{
    let family = TwoUniversalFamily::for_domain(universe, s);
    let len = family.len();
    assert!(len <= 1 << 22, "full-family tournament over {len} members is infeasible");
    let parts_per_round = (len as f64).powf(0.25).ceil() as u128;

    let mut lo: u128 = 0;
    let mut hi: u128 = len;
    for _round in 0..4 {
        if hi - lo <= 1 {
            break;
        }
        let width = hi - lo;
        let step = width.div_ceil(parts_per_round);
        let bounds: Vec<(u128, u128)> = (0..parts_per_round)
            .map(|p| (lo + p * step, (lo + (p + 1) * step).min(hi)))
            .filter(|(a, b)| a < b)
            .collect();
        let mut costs = vec![0u64; bounds.len()];
        let mut scratch = vec![0u32; s as usize];
        replay(&mut |eff: &[Color]| {
            for (pi, &(a, b)) in bounds.iter().enumerate() {
                for idx in a..b {
                    let r = family.member(idx);
                    costs[pi] += partition_cost_for_list(&r, eff, &mut scratch);
                }
            }
        });
        let best = costs
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .expect("at least one part");
        (lo, hi) = bounds[best];
    }
    family.member(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_of_single_cell_partition() {
        // s = 1: everything collides; cost = |S| − 1.
        let fam = TwoUniversalFamily::for_domain(100, 1);
        let r = fam.member(0);
        let mut scratch = vec![0u32; 1];
        assert_eq!(partition_cost_for_list(&r, &[1, 5, 9, 20], &mut scratch), 3);
        assert_eq!(partition_cost_for_list(&r, &[7], &mut scratch), 0);
        assert_eq!(partition_cost_for_list(&r, &[], &mut scratch), 0);
    }

    #[test]
    fn cost_matches_brute_force() {
        let fam = TwoUniversalFamily::for_domain(64, 4);
        let list: Vec<Color> = vec![3, 17, 21, 40, 41, 63];
        let mut scratch = vec![0u32; 4];
        for idx in (0..fam.len()).step_by(97) {
            let r = fam.member(idx);
            // Brute force.
            let mut cells = [0u64; 4];
            for &c in &list {
                cells[r.eval(c) as usize] += 1;
            }
            let expect = cells.iter().map(|&k| k.saturating_sub(1)).max().unwrap();
            assert_eq!(partition_cost_for_list(&r, &list, &mut scratch), expect);
        }
    }

    #[test]
    fn scratch_is_rezeroed() {
        let fam = TwoUniversalFamily::for_domain(32, 4);
        let r = fam.member(5);
        let mut scratch = vec![0u32; 4];
        partition_cost_for_list(&r, &[1, 2, 3, 4, 5], &mut scratch);
        assert!(scratch.iter().all(|&x| x == 0));
    }

    #[test]
    fn exhaustive_candidates_cover_family() {
        let cands = candidate_partitions(10, 2, PartitionSearch::Exhaustive);
        let fam = TwoUniversalFamily::for_domain(10, 2);
        assert_eq!(cands.len() as u128, fam.len());
    }

    #[test]
    fn sampled_candidates_are_deterministic() {
        let a = candidate_partitions(1000, 8, PartitionSearch::Sampled(12));
        let b = candidate_partitions(1000, 8, PartitionSearch::Sampled(12));
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }

    /// Lemma 3.10's bound holds on the full family for a small universe:
    /// the family-average cost is ≤ (1/√s) · Σ (|L| − 1).
    #[test]
    fn lemma_3_10_average_bound_exhaustive() {
        let universe = 32u64;
        let s = 4u64;
        let lists: Vec<Vec<Color>> =
            vec![vec![0, 1, 2, 3, 4, 5, 6, 7], vec![8, 9, 10, 11], vec![12, 20, 28, 30, 31]];
        let cands = candidate_partitions(universe, s, PartitionSearch::Exhaustive);
        let mut scratch = vec![0u32; s as usize];
        let total_cost: u64 = cands
            .iter()
            .map(|r| lists.iter().map(|l| partition_cost_for_list(r, l, &mut scratch)).sum::<u64>())
            .sum();
        let avg = total_cost as f64 / cands.len() as f64;
        let mass = total_list_mass(&lists) as f64;
        let bound = mass / (s as f64).sqrt();
        assert!(avg <= bound + 1e-9, "family average {avg:.3} exceeds Lemma 3.10 bound {bound:.3}");
    }

    #[test]
    fn total_mass() {
        assert_eq!(total_list_mass(&[vec![1, 2, 3], vec![9], vec![]]), 2);
        assert_eq!(total_list_mass(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn exhaustive_guard() {
        candidate_partitions(1 << 20, 8, PartitionSearch::Exhaustive);
    }

    #[test]
    fn four_pass_matches_exhaustive_on_small_family() {
        let universe = 16u64;
        let s = 2u64;
        let lists: Vec<Vec<Color>> = vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 15]];
        let chosen = four_pass_partition_selection(universe, s, |f| {
            for l in &lists {
                f(l);
            }
        });
        // The chosen member's cost must be at most the family average
        // (each round keeps a below-average part).
        let fam = TwoUniversalFamily::for_domain(universe, s);
        let mut scratch = vec![0u32; s as usize];
        let cost_of = |r: &TwoUniversalHash, scratch: &mut Vec<u32>| -> u64 {
            lists.iter().map(|l| partition_cost_for_list(r, l, scratch)).sum()
        };
        let chosen_cost = cost_of(&chosen, &mut scratch);
        let total: u64 = (0..fam.len()).map(|i| cost_of(&fam.member(i), &mut scratch)).sum();
        let avg = total as f64 / fam.len() as f64;
        assert!(
            chosen_cost as f64 <= avg + 1e-9,
            "four-pass pick cost {chosen_cost} above family average {avg:.2}"
        );
    }

    #[test]
    fn four_pass_handles_empty_replay() {
        // No uncolored vertices: any member is fine; must not panic.
        let chosen = four_pass_partition_selection(8, 2, |_f| {});
        assert!(chosen.s == 2);
    }
}
