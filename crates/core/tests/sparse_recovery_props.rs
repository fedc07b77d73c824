//! Property coverage for the s-sparse-recovery sketch, the primitive
//! the turnstile colorer stands on.
//!
//! Two guarantees, across random seeds, universes, budgets, and update
//! sequences:
//!
//! 1. **Exact recovery at support ≤ s** — after any signed update
//!    sequence whose net support fits the budget (including ids that
//!    cancel to zero, negative net counts, and multiplicities > 1),
//!    `decode` returns the exact `(id, net_count)` multiset.
//! 2. **Loud failure above s** — when the support exceeds the budget,
//!    decode may refuse, but it must never answer wrong: every `Ok` is
//!    checked against the true multiset, and overloads that do fail
//!    name the sparsity budget.
//! 3. **Peeling order is invisible** — the worklist peel in `decode`
//!    gives the same answer (or the same refusal) as the textbook peel
//!    that rescans the cells from index 0 after every extraction,
//!    within budget and beyond it.
//!
//! The proptests draw small budgets, which get the classic layout; a
//! deterministic test covers the compact layout of large budgets.

use proptest::prelude::*;
use std::collections::BTreeMap;
use streamcolor::dynamic::sparse_recovery::{Layout, COMPACT_FROM};
use streamcolor::SparseRecovery;

/// Applies `updates` to a fresh sketch and the true net-count map.
fn load(
    universe: u64,
    sparsity: usize,
    seed: u64,
    updates: &[(u64, i64)],
) -> (SparseRecovery, BTreeMap<u64, i64>) {
    let mut sketch = SparseRecovery::new(universe, sparsity, seed);
    let mut truth: BTreeMap<u64, i64> = BTreeMap::new();
    for &(id, delta) in updates {
        sketch.update(id, delta);
        let c = truth.entry(id).or_insert(0);
        *c += delta;
        if *c == 0 {
            truth.remove(&id);
        }
    }
    (sketch, truth)
}

/// One cell of [`SparseRecovery::encode_cells`]: `(idx, count, id_sum, fp_sum)`.
fn cells(sketch: &SparseRecovery) -> Vec<(usize, i64, i128, u64)> {
    let text = sketch.encode_cells();
    text.split(' ')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let f: Vec<&str> = part.split(':').collect();
            (
                f[0].parse().unwrap(),
                f[1].parse().unwrap(),
                f[2].parse().unwrap(),
                f[3].parse().unwrap(),
            )
        })
        .collect()
}

/// The textbook peel, kept here as the oracle for `decode`: scan the
/// cells from index 0 for the first pure one (division, range and
/// fingerprint checks), extract its id everywhere, and rescan — until
/// no cell is pure. Uses only the public API: a fingerprint is read off
/// a fresh sketch holding the id once, and extraction is the signed
/// update that cancels the id's net count. `Err(())` when residue is
/// left.
fn rescanning_peel(sketch: &SparseRecovery, seed: u64) -> Result<Vec<(u64, i64)>, ()> {
    let universe = sketch.universe();
    let fingerprint = |id: u64| {
        let mut single = SparseRecovery::new(universe, sketch.sparsity(), seed);
        single.update(id, 1);
        cells(&single)[0].3
    };
    let first_pure = |work: &SparseRecovery| {
        cells(work).into_iter().find_map(|(_, count, id_sum, fp_sum)| {
            if count == 0 || id_sum % count as i128 != 0 {
                return None;
            }
            let id = id_sum / count as i128;
            if id < 0 || id >= universe as i128 {
                return None;
            }
            let id = id as u64;
            (fp_sum == fingerprint(id).wrapping_mul(count as u64)).then_some((id, count))
        })
    };
    let mut work = sketch.clone();
    let mut out = Vec::new();
    while let Some((id, count)) = first_pure(&work) {
        work.update(id, -count);
        out.push((id, count));
    }
    if work.is_empty() {
        out.sort_unstable();
        Ok(out)
    } else {
        Err(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Support within budget: decode is the exact multiset, always.
    #[test]
    fn decode_is_exact_whenever_support_fits_the_budget(
        seed in any::<u64>(),
        universe in 8u64..100_000,
        sparsity in 1usize..40,
        raw in prop::collection::vec((any::<u64>(), -3i64..4), 0..120),
    ) {
        // Shape the raw updates so the *net* support fits the budget:
        // fold ids into a pool of at most `sparsity` distinct values
        // (cancellations and multiplicities survive the fold).
        let pool: Vec<u64> = (0..sparsity as u64).map(|i| {
            // Spread pool ids across the universe deterministically.
            (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 0x1_0001)) % universe
        }).collect();
        let updates: Vec<(u64, i64)> = raw
            .iter()
            .filter(|&&(_, d)| d != 0)
            .map(|&(id, d)| (pool[(id % pool.len() as u64) as usize], d))
            .collect();
        let (sketch, truth) = load(universe, sparsity, seed, &updates);
        let expected: Vec<(u64, i64)> = truth.into_iter().collect();
        let decoded = sketch.decode().expect("support ≤ s must decode");
        let empty = decoded.is_empty();
        prop_assert_eq!(decoded, expected);
        prop_assert_eq!(sketch.is_empty(), empty, "is_empty must agree with decode");
    }

    /// Support beyond budget: never a silently wrong answer. Refusals
    /// name the budget; the rare successful peel (the sketch's slack is
    /// real) must still be the exact multiset.
    #[test]
    fn overloaded_sketches_fail_loudly_or_answer_exactly(
        seed in any::<u64>(),
        sparsity in 1usize..8,
        extra in 1usize..40,
    ) {
        let universe = 100_000u64;
        let support = sparsity * 2 + extra;
        let updates: Vec<(u64, i64)> = (0..support as u64)
            .map(|i| ((i * 7919 + seed % 1000) % universe, 1))
            .collect();
        // 7919 is prime and support ≪ universe/7919 collisions aside —
        // dedup to be exact about the intended support.
        let (sketch, truth) = load(universe, sparsity, seed, &updates);
        prop_assume!(truth.len() > sparsity);
        match sketch.decode() {
            Ok(decoded) => {
                let expected: Vec<(u64, i64)> = truth.into_iter().collect();
                prop_assert_eq!(decoded, expected, "an Ok decode must never be wrong");
            }
            Err(message) => {
                prop_assert!(
                    message.contains(&format!("s={sparsity}")),
                    "refusal must name the budget: {}", message
                );
            }
        }
    }

    /// Deleting everything returns the sketch to empty — decode of the
    /// all-cancelled sketch is the empty multiset for any insert set,
    /// even ones far beyond the budget while live.
    #[test]
    fn full_cancellation_decodes_empty_regardless_of_peak_support(
        seed in any::<u64>(),
        sparsity in 1usize..10,
        raw_ids in prop::collection::vec(0u64..100_000, 1..60),
    ) {
        let ids: std::collections::BTreeSet<u64> = raw_ids.into_iter().collect();
        let mut sketch = SparseRecovery::new(100_000, sparsity, seed);
        for &id in &ids {
            sketch.update(id, 1);
        }
        for &id in &ids {
            sketch.update(id, -1);
        }
        prop_assert!(sketch.is_empty());
        prop_assert_eq!(sketch.decode().expect("empty sketch decodes"), vec![]);
    }

    /// The worklist peel agrees with the rescanning oracle on random
    /// signed update sequences — multiplicities above one, negative net
    /// counts, cancellations, and pools up to eleven times the budget so
    /// that over-budget supports (and their refusals) are covered too.
    #[test]
    fn worklist_decode_matches_the_rescanning_peel(
        seed in any::<u64>(),
        universe in 8u64..100_000,
        sparsity in 1usize..12,
        pool_factor in 1usize..12,
        raw in prop::collection::vec((any::<u64>(), -3i64..4), 0..150),
    ) {
        let pool_size = sparsity * pool_factor;
        let updates: Vec<(u64, i64)> = raw
            .iter()
            .filter(|&&(_, d)| d != 0)
            .map(|&(id, d)| ((id % pool_size as u64).wrapping_mul(7919) % universe, d))
            .collect();
        let (sketch, _) = load(universe, sparsity, seed, &updates);
        match (sketch.decode(), rescanning_peel(&sketch, seed)) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(message), Err(())) => prop_assert!(
                message.contains(&format!("s={sparsity}")),
                "refusal must name the budget: {}", message
            ),
            (got, want) => prop_assert!(false, "decode {:?} but oracle {:?}", got, want),
        }
    }
}

/// The compact layout of large budgets, on fixed seeds: every at-budget
/// support (distinct random ids, multiplicities 1–3, some negative)
/// decodes exactly, and four times the budget is refused, naming it.
#[test]
fn compact_layout_decodes_at_budget_and_refuses_overloads() {
    let universe = 3000u64 * 3000;
    for sparsity in [COMPACT_FROM, 2 * COMPACT_FROM, 3200] {
        assert_eq!(Layout::for_sparsity(sparsity), Layout::compact(sparsity));
        for seed in [1u64, 2, 3] {
            let mut rng = sc_hash::SplitMix64::new(seed ^ sparsity as u64);
            let mut truth: BTreeMap<u64, i64> = BTreeMap::new();
            while truth.len() < sparsity {
                let count = [1, 2, 3, -1][truth.len() % 4];
                truth.entry(rng.below(universe)).or_insert(count);
            }
            let updates: Vec<(u64, i64)> = truth.iter().map(|(&id, &c)| (id, c)).collect();
            let (sketch, _) = load(universe, sparsity, seed, &updates);
            let expected: Vec<(u64, i64)> = truth.into_iter().collect();
            assert_eq!(sketch.decode(), Ok(expected), "s={sparsity} seed={seed}");

            let overload: Vec<(u64, i64)> =
                (0..4 * sparsity as u64).map(|i| (i * 701 + seed, 1)).collect();
            let (sketch, _) = load(universe, sparsity, seed, &overload);
            let message = sketch.decode().expect_err("4s ids in 3s cells cannot peel");
            assert!(
                message.contains(&format!("s={sparsity} ")) && message.contains("4-row"),
                "{message}"
            );
        }
    }
}
