//! Law: the shared [`tournament`] selects exactly what the two loops it
//! replaced selected.
//!
//! Theorem 1's `select_hash` and Theorem 2's `select_singleton_colors`
//! each carried their own copy of the two-pass loop. Both copies are
//! frozen here as references, and a proptest checks that the shared
//! loop gives the same `h⋆`, the same `Φ` bits, the same accumulator
//! count and the same final singleton colors. Uniform slack rows and
//! small color universes make ties common, so the first-minimum
//! tie-break is exercised too.
//!
//! The unit tests below hold pass 2's lanes kernel to the row kernel:
//! its portable and AVX2 arms give the same part sums bit for bit, and
//! at `p ≥ 2^31`, past the `u32` lanes, the row kernel still selects
//! what the frozen loop selects.

use super::*;
use crate::listcolor::algorithm::select_singleton_colors;
use proptest::prelude::*;
use sc_graph::{Color, Edge};
use sc_hash::{prime_in_range, AffineFamily, SplitMix64};
use sc_stream::StoredStream;

/// `select_hash`'s loop before the fold.
fn reference_select_hash<S: StreamSource + ?Sized>(
    stream: &S,
    group: &[u64],
    tables: &StageTables,
    strategy: DerandStrategy,
) -> SelectedHash {
    let p = tables.p();
    let family = AffineFamily::new(p);
    let grid: GridSubfamily = match strategy {
        DerandStrategy::FullFamily => family.grid(p as usize),
        DerandStrategy::Grid { l } => family.grid(l),
    };

    // ---- Pass 2: part sums. ----
    let parts = grid.num_parts();
    let mut part_sums = vec![0.0f64; parts];
    for item in stream.pass() {
        let Some((u, v)) = reference_qualifying(&item, group) else { continue };
        let du = tables.position(u).expect("grouped vertex must be uncolored");
        let dv = tables.position(v).expect("grouped vertex must be uncolored");
        for (pi, sum) in part_sums.iter_mut().enumerate() {
            for h in grid.part(pi) {
                *sum += phi_contribution(h, u, v, du, dv, tables);
            }
        }
    }
    let best_part = part_sums
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("family has at least one part");

    // ---- Pass 3: members of the winning part. ----
    let members: Vec<AffineHash> = grid.part(best_part).collect();
    let mut member_sums = vec![0.0f64; members.len()];
    for item in stream.pass() {
        let Some((u, v)) = reference_qualifying(&item, group) else { continue };
        let du = tables.position(u).expect("grouped vertex must be uncolored");
        let dv = tables.position(v).expect("grouped vertex must be uncolored");
        for (mi, h) in members.iter().enumerate() {
            member_sums[mi] += phi_contribution(*h, u, v, du, dv, tables);
        }
    }
    let (best_member, &phi) =
        member_sums.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).expect("part is nonempty");

    SelectedHash { hash: members[best_member], phi, accumulators: parts.max(members.len()) }
}

fn reference_qualifying(item: &StreamItem, group: &[u64]) -> Option<(u32, u32)> {
    let e = item.as_edge()?;
    let (u, v) = e.endpoints();
    let gu = group[u as usize];
    let gv = group[v as usize];
    (gu != u64::MAX && gu == gv).then_some((u, v))
}

/// `select_singleton_colors`'s loop before the fold; it also returns the
/// winner, its count and the accumulator count, which the old function
/// computed but did not return.
fn reference_singleton<S: StreamSource + ?Sized>(
    stream: &S,
    avail: &[Vec<Color>],
    in_u: &[bool],
    p: u64,
    derand: DerandStrategy,
) -> (Vec<Color>, AffineHash, u64, usize) {
    let family = AffineFamily::new(p);
    let grid: GridSubfamily = match derand {
        DerandStrategy::FullFamily => family.grid(p as usize),
        DerandStrategy::Grid { l } => family.grid(l),
    };
    let pick = |h: &AffineHash, x: usize| -> Color {
        let list = &avail[x];
        let idx = ((h.eval(x as u64) as u128 * list.len() as u128) / p as u128) as usize;
        list[idx.min(list.len() - 1)]
    };

    // Pass S3: part sums of monochromatic counts.
    let mut part_sums = vec![0u64; grid.num_parts()];
    for item in stream.pass() {
        let Some(e) = item.as_edge() else { continue };
        let (u, v) = e.endpoints();
        if !in_u[u as usize] || !in_u[v as usize] {
            continue;
        }
        for (pi, sum) in part_sums.iter_mut().enumerate() {
            for h in grid.part(pi) {
                *sum += u64::from(pick(&h, u as usize) == pick(&h, v as usize));
            }
        }
    }
    let best_part = part_sums
        .iter()
        .enumerate()
        .min_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .expect("grid nonempty");

    // Pass S4: members of the best part.
    let members: Vec<sc_hash::AffineHash> = grid.part(best_part).collect();
    let mut member_sums = vec![0u64; members.len()];
    for item in stream.pass() {
        let Some(e) = item.as_edge() else { continue };
        let (u, v) = e.endpoints();
        if !in_u[u as usize] || !in_u[v as usize] {
            continue;
        }
        for (mi, h) in members.iter().enumerate() {
            member_sums[mi] += u64::from(pick(h, u as usize) == pick(h, v as usize));
        }
    }
    let best = member_sums
        .iter()
        .enumerate()
        .min_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .expect("part nonempty");
    let h_star = members[best];

    let colors = (0..avail.len())
        .map(|x| if in_u[x] && !avail[x].is_empty() { pick(&h_star, x) } else { 0 })
        .collect();
    (colors, h_star, member_sums[best], grid.num_parts().max(members.len()))
}

/// A random stage: a graph on `n` vertices, about a fifth of them
/// colored, the rest in three proposal groups; slack rows over 1 to 64
/// patterns (all equal when `uniform`), hashed mod a prime `p`; and
/// lists of 1–3 colors from a 4-color universe for the singleton stage.
struct Stage {
    stream: StoredStream,
    group: Vec<u64>,
    tables: StageTables,
    avail: Vec<Vec<Color>>,
    in_u: Vec<bool>,
    p: u64,
}

/// Draws [`random_stage`]'s pattern count, `1 << rng.below(7)`, and a
/// prime `p ≥ 8·patterns` from `lo`: with `log n = 1` that keeps Lemma
/// A.3's cover, so the tournament's branch-free path runs at 1, 2, 4
/// and 8 patterns and its walk above. The full family (`full`) stays
/// below `p = 100`, so it draws at most 8 patterns.
fn stage_shape(rng: &mut SplitMix64, lo: u64, full: bool) -> (usize, u64) {
    let patterns = 1usize << rng.below(if full { 4 } else { 7 });
    let floor = 8 * patterns.max(4) as u64;
    let p = if full {
        prime_in_range(floor + lo % (92 - floor), 100)
    } else {
        prime_in_range(floor + lo, 2 * (floor + lo))
    };
    (patterns, p.expect("Bertrand"))
}

/// Tables for the uncolored vertices `u_set` of an `n`-vertex stage:
/// slack rows over `patterns` patterns, entries in `0..4` (all 2 when
/// `uniform`) with one bumped so each row's total is positive, hashed
/// mod `p` with `log n = 1`.
fn stage_tables(
    rng: &mut SplitMix64,
    n: usize,
    u_set: &[u32],
    patterns: usize,
    p: u64,
    uniform: bool,
) -> StageTables {
    let mut slack = Vec::with_capacity(u_set.len() * patterns);
    for _ in u_set {
        let mut row: Vec<u64> =
            (0..patterns).map(|_| if uniform { 2 } else { rng.below(4) }).collect();
        row[rng.below(patterns as u64) as usize] += 1;
        slack.extend(row);
    }
    StageTables::build(n, u_set, patterns, slack, p, 1)
}

fn random_stage(n: usize, seed: u64, uniform: bool, lo: u64, full: bool) -> Stage {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if rng.below(2) == 0 {
                edges.push(Edge::new(u, v));
            }
        }
    }
    let group: Vec<u64> =
        (0..n).map(|_| if rng.below(5) == 0 { u64::MAX } else { rng.below(3) }).collect();
    let in_u: Vec<bool> = group.iter().map(|&g| g != u64::MAX).collect();
    let u_set: Vec<u32> = (0..n as u32).filter(|&x| in_u[x as usize]).collect();
    let (patterns, p) = stage_shape(&mut rng, lo, full);
    let tables = stage_tables(&mut rng, n, &u_set, patterns, p, uniform);
    let avail = (0..n)
        .map(|x| {
            if !in_u[x] {
                return Vec::new();
            }
            let mut list: Vec<Color> = (0..=rng.below(3)).map(|_| rng.below(4)).collect();
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect();
    Stage { stream: StoredStream::from_edges(edges), group, tables, avail, in_u, p }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tournament_matches_the_frozen_loops(
        (n, seed, l, lo, uniform) in (2usize..14, any::<u64>(), 0usize..=40, 0u64..1500, any::<bool>()),
    ) {
        // l = 0 stands for the full family, kept below p = 100. Above it,
        // l = 16 is the default grid, and l = 17 and l = 33 pad pass 2's
        // last block of lanes.
        let strategy = if l == 0 { DerandStrategy::FullFamily } else { DerandStrategy::Grid { l } };
        let stage = random_stage(n, seed, uniform, lo, l == 0);
        let p = stage.p;

        let want = reference_select_hash(&stage.stream, &stage.group, &stage.tables, strategy);
        let got = select_hash(&stage.stream, &stage.group, &stage.tables, strategy);
        prop_assert_eq!(got.hash, want.hash);
        prop_assert_eq!(got.phi.to_bits(), want.phi.to_bits());
        prop_assert_eq!(got.accumulators, want.accumulators);

        let (colors, hash, count, accumulators) =
            reference_singleton(&stage.stream, &stage.avail, &stage.in_u, p, strategy);
        let (got_colors, got) =
            select_singleton_colors(&stage.stream, &stage.avail, &stage.in_u, &strategy.grid(p));
        prop_assert_eq!(got_colors, colors);
        prop_assert_eq!(got.hash, hash);
        prop_assert_eq!(got.phi.to_bits(), (count as f64).to_bits());
        prop_assert_eq!(got.accumulators, accumulators);
    }
}

/// [`random_stage`]'s graph and groups on `n` vertices, with tables over
/// `patterns` patterns hashed mod the prime `p ≥ 8·patterns`.
fn stage_over(n: usize, seed: u64, patterns: usize, p: u64) -> Stage {
    let mut stage = random_stage(n, seed, false, 0, false);
    let u_set: Vec<u32> = (0..n as u32).filter(|&x| stage.in_u[x as usize]).collect();
    let mut rng = SplitMix64::new(seed ^ 0x7AB1E5);
    stage.tables = stage_tables(&mut rng, n, &u_set, patterns, p, false);
    stage.p = p;
    stage
}

/// Both arms of pass 2's lanes kernel give the row kernel's part sums
/// bit for bit: one block (`l = 16`), a padded block (`l = 1`, `l = 17`)
/// and several (`l = 40`), at 1, 2, 4 and 8 patterns, for a small prime
/// and for `2^31 − 1`, the largest the `u32` lanes take. The AVX2 arm
/// runs only on hosts that have AVX2.
#[test]
fn lanes_kernel_arms_match_the_row_kernel() {
    let avx2 = has_avx2();
    let bits = |sums: Vec<f64>| sums.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let mut seed = 0xA11CE;
    for largest in [false, true] {
        for l in [1usize, 16, 17, 40] {
            for patterns in [1usize, 2, 4, 8] {
                seed += 1;
                let p = if largest {
                    (1 << 31) - 1
                } else {
                    prime_in_range(1000 + seed % 1000, 4000).expect("Bertrand")
                };
                let stage = stage_over(24, seed, patterns, p);
                let (stream, group, tables) = (&stage.stream, &stage.group[..], &stage.tables);
                let grid = DerandStrategy::Grid { l }.grid(p);
                let rows = part_sums_by_rows(
                    stream,
                    &grid,
                    |item| phi_edge(item, group, tables),
                    |edge, starts, row| phi_row(tables, &grid, edge, starts, row),
                );
                assert!(rows.iter().any(|&s| s > 0.0), "l = {l}, {patterns} patterns: no cost");
                let want = bits(rows);
                let portable = phi_part_sums(stream, group, tables, &grid, false);
                assert_eq!(bits(portable), want, "portable: p = {p}, l = {l}, {patterns} patterns");
                if avx2 {
                    let lanes = phi_part_sums(stream, group, tables, &grid, true);
                    assert_eq!(bits(lanes), want, "AVX2: p = {p}, l = {l}, {patterns} patterns");
                }
            }
        }
    }
}

/// At `p ≥ 2^31` a `u32` lane could overflow at `t + s`, so pass 2 keeps
/// the row kernel, which selects what the frozen loop selects, with the
/// winner's `Φ` bit for bit.
#[test]
fn row_kernel_serves_primes_past_the_u32_lanes() {
    let p = prime_in_range(1 << 31, 1 << 32).expect("Bertrand");
    for (seed, patterns) in [(1u64, 1usize), (2, 2), (3, 4), (4, 8), (5, 16)] {
        let stage = stage_over(14, seed, patterns, p);
        let (stream, group, tables) = (&stage.stream, &stage.group[..], &stage.tables);
        let strategy = DerandStrategy::Grid { l: 16 };
        let want = reference_select_hash(stream, group, tables, strategy);
        let got = select_hash(stream, group, tables, strategy);
        assert_eq!(got.hash, want.hash, "{patterns} patterns");
        assert_eq!(got.phi.to_bits(), want.phi.to_bits(), "{patterns} patterns");
        assert_eq!(got.accumulators, want.accumulators);
        let phi = phi_of_hash(stream, group, tables, got.hash);
        assert_eq!(got.phi.to_bits(), phi.to_bits(), "{patterns} patterns");
    }
}
