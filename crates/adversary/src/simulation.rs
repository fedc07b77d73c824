//! Multi-trial adversarial simulations with summary statistics.
//!
//! Robustness claims are probabilistic ("error ≤ δ over the algorithm's
//! randomness"), so single games prove little. [`summarize`] aggregates
//! games played by independently seeded algorithm/adversary pairs (the
//! trial loop itself is `sc_engine::Runner::run_attack_trials`): break
//! rate, failure-round distribution, palette extremes — the numbers
//! experiments F3/F5 report.

use crate::game::GameReport;

/// Aggregated outcome of repeated adversarial games.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSummary {
    /// Trials run.
    pub trials: usize,
    /// Trials with at least one improper output.
    pub broken: usize,
    /// First-failure rounds of the broken trials, sorted ascending.
    pub failure_rounds: Vec<usize>,
    /// Largest palette observed across all trials.
    pub max_colors: usize,
    /// Smallest final-round count (games can end early if the adversary
    /// saturates its budget).
    pub min_rounds: usize,
    /// Largest final-round count.
    pub max_rounds: usize,
}

impl TrialSummary {
    /// Fraction of trials broken, in `[0, 1]`.
    pub fn break_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.broken as f64 / self.trials as f64
        }
    }

    /// Median first-failure round among broken trials.
    pub fn median_failure_round(&self) -> Option<usize> {
        (!self.failure_rounds.is_empty())
            .then(|| self.failure_rounds[self.failure_rounds.len() / 2])
    }

    /// The summary of zero trials — the identity of [`TrialSummary::merge`].
    pub fn empty() -> Self {
        Self {
            trials: 0,
            broken: 0,
            failure_rounds: Vec::new(),
            max_colors: 0,
            min_rounds: 0,
            max_rounds: 0,
        }
    }

    /// Merges the summary of a disjoint batch of trials into this one.
    ///
    /// **Law:** summarizing any partition of a report set batch-by-batch
    /// and merging equals [`summarize`] over the whole set — this is what
    /// makes sharded attack-trial sweeps (`sc-engine`'s shard layer)
    /// bit-identical to in-process ones. Zero-trial summaries are merge
    /// identities.
    pub fn merge(&mut self, other: &TrialSummary) {
        if other.trials == 0 {
            return;
        }
        if self.trials == 0 {
            *self = other.clone();
            return;
        }
        self.trials += other.trials;
        self.broken += other.broken;
        self.failure_rounds.extend_from_slice(&other.failure_rounds);
        self.failure_rounds.sort_unstable();
        self.max_colors = self.max_colors.max(other.max_colors);
        self.min_rounds = self.min_rounds.min(other.min_rounds);
        self.max_rounds = self.max_rounds.max(other.max_rounds);
    }
}

/// Aggregates finished game reports into a [`TrialSummary`] (what the
/// trial sweeps in `sc-engine` report): each report is a one-trial
/// summary, folded with [`TrialSummary::merge`].
pub fn summarize(reports: impl IntoIterator<Item = GameReport>) -> TrialSummary {
    let mut summary = TrialSummary::empty();
    for r in reports {
        summary.merge(&TrialSummary {
            trials: 1,
            broken: usize::from(!r.survived()),
            failure_rounds: r.first_failure_round.into_iter().collect(),
            max_colors: r.max_colors,
            min_rounds: r.rounds,
            max_rounds: r.rounds,
        });
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attackers::MonochromaticAttacker;
    use crate::game::run_game;
    use streamcolor::{PaletteSparsification, RobustColorer};

    #[test]
    fn robust_trials_never_break() {
        let n = 60;
        let delta = 8;
        let s = summarize((0..4u64).map(|t| {
            let mut colorer = RobustColorer::new(n, delta, 1000 + t);
            run_game(&mut colorer, &mut MonochromaticAttacker::new(n, delta, t), n, 2 * n)
        }));
        assert_eq!(s.trials, 4);
        assert_eq!(s.broken, 0);
        assert_eq!(s.break_rate(), 0.0);
        assert_eq!(s.median_failure_round(), None);
        assert!(s.max_colors > 0);
        assert!(s.min_rounds <= s.max_rounds);
    }

    #[test]
    fn fragile_trials_break_and_record_rounds() {
        let n = 60;
        let delta = 16;
        let s = summarize((0..5u64).map(|t| {
            let mut colorer = PaletteSparsification::new(n, delta, 3, 70 + t);
            run_game(&mut colorer, &mut MonochromaticAttacker::new(n, delta, t), n, n * delta)
        }));
        assert!(s.broken > 0, "tiny lists must break under the attack");
        assert!(s.break_rate() > 0.0);
        let med = s.median_failure_round().unwrap();
        assert!(med >= 1);
        assert!(s.failure_rounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merging_partition_summaries_matches_global_summarize() {
        let n = 60;
        let delta = 16;
        let reports: Vec<GameReport> = (0..9u64)
            .map(|t| {
                let mut colorer = PaletteSparsification::new(n, delta, 3, 70 + t);
                let mut adversary = MonochromaticAttacker::new(n, delta, t);
                run_game(&mut colorer, &mut adversary, n, n * delta)
            })
            .collect();
        let whole = summarize(reports.clone());
        assert!(whole.broken > 0, "need a mixed outcome to make the merge law interesting");
        for split in [1usize, 2, 4, 9] {
            let mut merged = TrialSummary::empty();
            for chunk in reports.chunks(reports.len().div_ceil(split)) {
                merged.merge(&summarize(chunk.to_vec()));
            }
            assert_eq!(merged, whole, "partition into {split} batches diverged");
        }
        // Zero-trial summaries are identities on either side.
        let mut left = TrialSummary::empty();
        left.merge(&whole);
        assert_eq!(left, whole);
        let mut right = whole.clone();
        right.merge(&TrialSummary::empty());
        assert_eq!(right, whole);
    }

    #[test]
    fn zero_trials_is_well_defined() {
        let s = summarize((0..0u64).map(|t| {
            let mut colorer = RobustColorer::new(10, 2, t);
            run_game(&mut colorer, &mut MonochromaticAttacker::new(10, 2, t), 10, 10)
        }));
        assert_eq!(s.break_rate(), 0.0);
        assert_eq!(s.min_rounds, 0);
    }
}
