//! Per-stage tables: slack values, proposal weights, and the `g_w` map of
//! Lemma 3.2.
//!
//! After pass 1 of a stage, the algorithm holds, for each uncolored vertex
//! `x` and each pattern `j ∈ {0,1}^bw`, the slack `slack(x | P_x ∩ Q_j)`
//! (eq. 1). These integers determine the weights `w_{x,j}` (eq. 4) and,
//! via Lemma 3.2, a threshold function `g_w : U × [p] → {0,1}^bw` with
//! `|g_w^{-1}(x, j)|/p ≤ w_{x,j}(1 + 1/(8 log n))`.
//!
//! The construction is exact integer arithmetic: with `L = ⌈log₂ n⌉` and
//! `S_x = Σ_j slack(x | P_x ∩ Q_j)`, pattern `j` receives
//! `⌊p · s_{x,j} · (8L + 1) / (S_x · 8L)⌋` consecutive entries of `[p]`.
//! Lemma A.3's argument (every nonzero `w ≥ 1/n`, `p ≥ 8 n L`) guarantees
//! the blocks cover all of `[p]`. A single evaluation, [`StageTables::gw`],
//! is a binary search over the per-vertex prefix sums. The tournament
//! instead evaluates a whole part of the hash grid at once, where the
//! points `t` rise in an arithmetic progression that wraps at most once:
//! `StageTables::walk` moves one pointer forward through the prefix
//! sums and resets it at the wrap, and `StageTables::cuts` gives
//! stages of at most 8 patterns the pattern as a count of the block
//! starts at or below `t`. Both equal `gw` point for point.

/// Dense per-stage tables for the uncolored set `U`.
#[derive(Debug, Clone)]
pub struct StageTables {
    /// Number of patterns `2^bw` for this stage.
    num_patterns: usize,
    /// `pos[x]` = dense index of vertex `x` in `U`, or `u32::MAX`.
    pos: Vec<u32>,
    /// Slack values, `|U| × num_patterns`, row-major by dense index.
    slack: Vec<u64>,
    /// Prefix sums of `g_w` block sizes, `|U| × (num_patterns + 1)`.
    gw_cum: Vec<u64>,
    /// The hash range `p`.
    p: u64,
}

impl StageTables {
    /// Builds the tables from raw slack values.
    ///
    /// `u_set` lists the uncolored vertices (dense order); `slack` is
    /// `|U| × num_patterns` row-major; `p` is the prime hash range;
    /// `log_n = max(1, ⌈log₂ n⌉)`.
    ///
    /// # Panics
    /// Panics if some vertex has all-zero slack row (violates the
    /// invariant `Σ_j slack ≥ slack(x | P_x) ≥ 1` of Lemmas 3.4/3.6 — an
    /// algorithm bug, not an input condition).
    pub fn build(
        n: usize,
        u_set: &[u32],
        num_patterns: usize,
        slack: Vec<u64>,
        p: u64,
        log_n: u64,
    ) -> Self {
        assert_eq!(slack.len(), u_set.len() * num_patterns);
        let mut pos = vec![u32::MAX; n];
        for (i, &x) in u_set.iter().enumerate() {
            pos[x as usize] = i as u32;
        }
        let mut gw_cum = Vec::with_capacity(u_set.len() * (num_patterns + 1));
        let eight_l = 8 * log_n;
        for (i, &x) in u_set.iter().enumerate() {
            let row = &slack[i * num_patterns..(i + 1) * num_patterns];
            let total: u64 = row.iter().sum();
            assert!(total >= 1, "vertex {x} has zero total slack (invariant violation)");
            let mut cum = 0u64;
            gw_cum.push(0);
            for &s in row {
                // ⌊p · s · (8L + 1) / (total · 8L)⌋ in exact u128 arithmetic.
                let block = (p as u128 * s as u128 * (eight_l as u128 + 1))
                    / (total as u128 * eight_l as u128);
                cum = cum.saturating_add(block as u64);
                gw_cum.push(cum);
            }
            debug_assert!(
                cum >= p,
                "g_w blocks cover only {cum} < p = {p} entries (Lemma A.3 violated)"
            );
        }
        Self { num_patterns, pos, slack, gw_cum, p }
    }

    /// Number of patterns for this stage.
    #[inline]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The hash range `p`.
    #[inline]
    pub fn p(&self) -> u64 {
        self.p
    }

    /// Dense index of vertex `x`, if uncolored.
    #[inline]
    pub fn position(&self, x: u32) -> Option<usize> {
        let p = self.pos[x as usize];
        (p != u32::MAX).then_some(p as usize)
    }

    /// `slack(x | P_x ∩ Q_j)` by dense index.
    #[inline]
    pub fn slack_at(&self, dense: usize, j: usize) -> u64 {
        self.slack[dense * self.num_patterns + j]
    }

    /// Evaluates `g_w(x, t)` by dense index: the pattern whose threshold
    /// block contains `t ∈ [0, p)`.
    ///
    /// If the blocks over-cover `[p]` this is the standard construction;
    /// if `t` falls beyond the last block (cannot happen when Lemma A.3's
    /// preconditions hold, kept as a defensive clamp), the last pattern
    /// with positive slack is returned, preserving the `slack ≥ 1`
    /// invariant of Lemma 3.6.
    pub fn gw(&self, dense: usize, t: u64) -> usize {
        debug_assert!(t < self.p);
        let cum = self.cum_row(dense);
        // Find smallest j with cum[j+1] > t.
        let mut lo = 0usize;
        let mut hi = self.num_patterns;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cum[mid + 1] > t {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo < self.num_patterns {
            debug_assert!(self.slack_at(dense, lo) > 0, "g_w chose a zero-slack pattern");
            return lo;
        }
        // Defensive clamp: last positive-slack pattern.
        (0..self.num_patterns)
            .rev()
            .find(|&j| self.slack_at(dense, j) > 0)
            .expect("total slack ≥ 1 guarantees a positive pattern")
    }

    /// `g_w(x, t)` for each `t` of `ts`, by dense index, found by one
    /// pointer walking forward through `x`'s prefix sums: equal to
    /// [`StageTables::gw`] at every point. The pointer restarts whenever
    /// `t` falls, so a rising progression that wraps once — a grid part's
    /// [`member_values`](sc_hash::affine::GridSubfamily::member_values) —
    /// costs `O(l + num_patterns)` compares in all, with no search. The
    /// defensive clamp is left to `gw` on its cold path.
    pub(crate) fn walk<'a>(
        &'a self,
        dense: usize,
        ts: impl IntoIterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let cum = self.cum_row(dense);
        let last = self.num_patterns;
        let (mut j, mut prev) = (0usize, 0u64);
        ts.into_iter().map(move |t| {
            if t < prev {
                j = 0;
            }
            prev = t;
            while j < last && cum[j + 1] <= t {
                j += 1;
            }
            if j < last {
                j
            } else {
                self.gw(dense, t)
            }
        })
    }

    /// The block starts `cum[1..=K]` of `x`'s row when the stage has
    /// `K + 1` patterns and the blocks cover `[p]` (Lemma A.3), else
    /// `None`. Under that cover `g_w(x, t)` is the number of starts at or
    /// below `t` ([`pattern_below`]), which a tournament row counts
    /// without a branch.
    #[inline]
    pub(crate) fn cuts<const K: usize>(&self, dense: usize) -> Option<[u64; K]> {
        let cum = self.cum_row(dense);
        if self.num_patterns != K + 1 || cum[K + 1] < self.p {
            return None;
        }
        let mut cuts = [0u64; K];
        cuts.copy_from_slice(&cum[1..=K]);
        Some(cuts)
    }

    /// The prefix sums `cum[0..=num_patterns]` of `x`'s `g_w` blocks.
    #[inline]
    fn cum_row(&self, dense: usize) -> &[u64] {
        let base = dense * (self.num_patterns + 1);
        &self.gw_cum[base..base + self.num_patterns + 1]
    }

    /// `Φ`-style reciprocal slack `1/slack(x | P_x ∩ Q_j)` used by the
    /// tournament accumulators; `j` must have positive slack.
    #[inline]
    pub fn inv_slack(&self, dense: usize, j: usize) -> f64 {
        1.0 / self.slack_at(dense, j) as f64
    }

    /// Number of uncolored vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.slack.len() / self.num_patterns.max(1)
    }
}

/// `g_w(x, t)` from [`StageTables::cuts`]: the number of block starts at
/// or below `t`.
#[inline]
pub(crate) fn pattern_below<const K: usize, T: Copy + PartialOrd>(cuts: &[T; K], t: T) -> u32 {
    cuts.iter().map(|&c| u32::from(c <= t)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn simple_tables() -> StageTables {
        // 2 vertices, 4 patterns, p = 1000, L = 4.
        // v0 slacks: [1, 3, 0, 4]  total 8
        // v5 slacks: [2, 0, 0, 2]  total 4
        StageTables::build(6, &[0, 5], 4, vec![1, 3, 0, 4, 2, 0, 0, 2], 1000, 4)
    }

    #[test]
    fn positions() {
        let t = simple_tables();
        assert_eq!(t.position(0), Some(0));
        assert_eq!(t.position(5), Some(1));
        assert_eq!(t.position(3), None);
        assert_eq!(t.num_vertices(), 2);
        assert_eq!(t.num_patterns(), 4);
    }

    #[test]
    fn slack_lookup() {
        let t = simple_tables();
        assert_eq!(t.slack_at(0, 1), 3);
        assert_eq!(t.slack_at(1, 3), 2);
        assert_eq!(t.inv_slack(0, 3), 0.25);
    }

    #[test]
    fn gw_blocks_proportional_to_weights() {
        let t = simple_tables();
        // Count pattern frequencies over all of [p].
        let mut counts = [0u64; 4];
        for tt in 0..1000u64 {
            counts[t.gw(0, tt)] += 1;
        }
        // Weights 1/8, 3/8, 0, 4/8 → roughly 125, 375, 0, 500 (with the
        // (1 + 1/32) inflation, earlier patterns get slightly more).
        assert_eq!(counts[2], 0, "zero-slack pattern must never be chosen");
        assert!(counts[0] >= 125 && counts[0] <= 135, "{counts:?}");
        assert!(counts[1] >= 375 && counts[1] <= 390, "{counts:?}");
        assert!(counts[3] > 450, "{counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn gw_coverage_lemma_a3() {
        // Lemma A.3 bound check: |g_w^{-1}(x,j)|/p ≤ w_{x,j}(1 + 1/(8L)).
        let t = simple_tables();
        let weights = [1.0 / 8.0, 3.0 / 8.0, 0.0, 4.0 / 8.0];
        let mut counts = [0u64; 4];
        for tt in 0..1000u64 {
            counts[t.gw(0, tt)] += 1;
        }
        for j in 0..4 {
            let frac = counts[j] as f64 / 1000.0;
            assert!(frac <= weights[j] * (1.0 + 1.0 / 32.0) + 1e-9, "pattern {j}: {frac} > bound");
        }
    }

    #[test]
    fn gw_respects_second_vertex_weights() {
        let t = simple_tables();
        let mut counts = [0u64; 4];
        for tt in 0..1000u64 {
            counts[t.gw(1, tt)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert_eq!(counts[2], 0);
        // Equal weights halves.
        assert!(counts[0] > 450 && counts[3] > 430, "{counts:?}");
    }

    #[test]
    fn cuts_need_the_stage_pattern_count() {
        let t = simple_tables();
        assert_eq!(t.cuts::<3>(0), Some([128, 514, 514]));
        assert_eq!(t.cuts::<1>(0), None);
        assert_eq!(t.cuts::<7>(1), None);
    }

    #[test]
    #[should_panic(expected = "zero total slack")]
    fn rejects_zero_slack_row() {
        StageTables::build(2, &[0], 2, vec![0, 0], 100, 3);
    }

    /// Random tables: 1–3 vertices over `patterns` patterns, slack
    /// entries in `0..4` (so zero-slack patterns are common) with one
    /// bumped so every row's total is positive, hashed mod
    /// `p ≥ 8·patterns` so that `log n = 1` keeps Lemma A.3's cover.
    fn random_tables(seed: u64, patterns: usize, p: u64) -> StageTables {
        let mut rng = sc_hash::SplitMix64::new(seed);
        let vertices = 1 + rng.below(3) as usize;
        let mut slack = Vec::with_capacity(vertices * patterns);
        for _ in 0..vertices {
            let mut row: Vec<u64> = (0..patterns).map(|_| rng.below(4)).collect();
            row[rng.below(patterns as u64) as usize] += 1;
            slack.extend(row);
        }
        let u_set: Vec<u32> = (0..vertices as u32).collect();
        StageTables::build(vertices, &u_set, patterns, slack, p, 1)
    }

    /// Under the cover, counting block starts is `g_w` at every `t < p`.
    fn assert_cuts_match_gw<const K: usize>(t: &StageTables) {
        for dense in 0..t.num_vertices() {
            let cuts = t.cuts::<K>(dense).expect("the blocks cover [p]");
            for tt in 0..t.p() {
                assert_eq!(pattern_below(&cuts, tt) as usize, t.gw(dense, tt), "t = {tt}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The walk over `(base + j·stride) mod p`, `j < l`, is `gw` point
        /// for point, for every `(l, stride)` with `(l − 1)·stride < p`.
        #[test]
        fn walk_matches_gw_on_every_grid_progression(
            (seed, patterns, extra) in (any::<u64>(), 1usize..=64, 0u64..100),
        ) {
            let p = 8 * patterns as u64 + extra;
            let t = random_tables(seed, patterns, p);
            let mut rng = sc_hash::SplitMix64::new(seed ^ 0x5EED);
            for dense in 0..t.num_vertices() {
                for l in 1..=p {
                    let strides = if l == 1 { p } else { (p - 1) / (l - 1) };
                    for stride in 1..=strides {
                        let base = rng.below(p);
                        let ts = (0..l).map(|j| (base + j * stride) % p);
                        let want: Vec<usize> = ts.clone().map(|tt| t.gw(dense, tt)).collect();
                        let got: Vec<usize> = t.walk(dense, ts).collect();
                        prop_assert_eq!(got, want, "l = {}, stride = {}", l, stride);
                    }
                }
            }
            match patterns {
                1 => assert_cuts_match_gw::<0>(&t),
                2 => assert_cuts_match_gw::<1>(&t),
                4 => assert_cuts_match_gw::<3>(&t),
                8 => assert_cuts_match_gw::<7>(&t),
                _ => {}
            }
        }
    }

    #[test]
    fn single_pattern_always_chosen() {
        let t = StageTables::build(1, &[0], 1, vec![5], 64, 2);
        for tt in 0..64 {
            assert_eq!(t.gw(0, tt), 0);
        }
    }
}
