//! Adaptive-adversary games as declarative scenarios.

use crate::parallel::par_map;
use crate::runner::Runner;
use crate::spec::ColorerSpec;
use sc_adversary::{
    summarize, Adversary, BufferBoundaryAttacker, CliqueBuilder, GameReport, LevelBoundaryAttacker,
    MonochromaticAttacker, ObliviousReplay, OscillationAttacker, RandomAdversary, TrialSummary,
};
use sc_graph::Edge;
use sc_stream::StreamingColorer;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// Which adversary generates the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversarySpec {
    /// The monochromatic feedback attack (the paper's motivating break).
    Monochromatic,
    /// Uniform random non-duplicate insertions (harmless control).
    Random,
    /// Deterministic greedy clique building.
    CliqueBuilder,
    /// Targets epoch-buffer boundaries; `buffer = None` assumes `n`.
    BufferBoundary {
        /// The victim's assumed buffer capacity.
        buffer: Option<usize>,
    },
    /// Targets level thresholds of Algorithm 2.
    LevelBoundary,
    /// Delete/re-insert oscillation of monochromatic edges (a turnstile
    /// attack: the victim must support deletions).
    Oscillation,
    /// Replays a fixed edge list (turns a game into an oblivious run).
    Replay(Arc<Vec<Edge>>),
}

impl AdversarySpec {
    /// Builds the boxed adversary.
    pub fn build(&self, n: usize, delta: usize, seed: u64) -> Box<dyn Adversary> {
        match self {
            AdversarySpec::Monochromatic => Box::new(MonochromaticAttacker::new(n, delta, seed)),
            AdversarySpec::Random => Box::new(RandomAdversary::new(n, delta, seed)),
            AdversarySpec::CliqueBuilder => Box::new(CliqueBuilder::new(n, delta)),
            AdversarySpec::BufferBoundary { buffer } => {
                Box::new(BufferBoundaryAttacker::new(n, delta, buffer.unwrap_or(n), seed))
            }
            AdversarySpec::LevelBoundary => Box::new(LevelBoundaryAttacker::new(n, delta, seed)),
            AdversarySpec::Oscillation => Box::new(OscillationAttacker::new(n, delta, seed)),
            AdversarySpec::Replay(edges) => Box::new(ObliviousReplay::new(edges.iter().copied())),
        }
    }

    /// Whether this adversary's stream carries deletions, i.e. its
    /// victim must support them.
    pub fn is_signed(&self) -> bool {
        matches!(self, AdversarySpec::Oscillation)
    }
}

/// One adaptive game: a victim, an adversary, and a budget.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackScenario {
    /// Display label.
    pub label: String,
    /// The algorithm under attack (must be a streaming spec).
    pub victim: ColorerSpec,
    /// The stream generator.
    pub adversary: AdversarySpec,
    /// Vertices.
    pub n: usize,
    /// Degree budget the adversary respects.
    pub delta: usize,
    /// Maximum insertions.
    pub rounds: usize,
    /// Victim's seed.
    pub victim_seed: u64,
    /// Adversary's seed.
    pub adversary_seed: u64,
}

impl AttackScenario {
    /// A scenario with round budget `n·∆/2` and default seeds.
    pub fn new(victim: ColorerSpec, adversary: AdversarySpec, n: usize, delta: usize) -> Self {
        Self {
            label: victim.label().to_string(),
            victim,
            adversary,
            n,
            delta,
            rounds: n * delta / 2,
            victim_seed: 1,
            adversary_seed: 1 ^ 0xA77AC,
        }
    }

    /// Whether [`Runner::run_attack`] can referee this scenario: the
    /// victim builds as [`Runner::run_attack`] builds it, takes deletions
    /// if the adversary deletes, and a replayed list is a simple graph on
    /// `n` vertices. Spec decoding checks this, so a client-sent job is
    /// refused instead of panicking its host.
    ///
    /// # Errors
    /// Names the victim (and the adversary, for a deletion mismatch) or
    /// the offending replay edge.
    pub fn check_playable(&self) -> Result<(), String> {
        let label = self.victim.label();
        let victim = self
            .victim
            .build(self.n, self.delta, self.victim_seed, None)
            .map_err(|e| format!("attack victim {label:?}: {e}"))?;
        if self.adversary.is_signed() && !victim.supports_deletions() {
            return Err(format!(
                "attack victim {label:?} is insert-only; {:?} deletes edges",
                self.adversary
            ));
        }
        if let AdversarySpec::Replay(edges) = &self.adversary {
            let mut seen = HashSet::with_capacity(edges.len());
            for &e in edges.iter() {
                if e.v() as usize >= self.n {
                    return Err(format!("replay edge {e} out of range for n = {}", self.n));
                }
                if !seen.insert(e) {
                    return Err(format!("replay edge {e} repeats (simple graphs only)"));
                }
            }
        }
        Ok(())
    }

    /// Sets the round budget.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets both seeds (adversary gets a tweaked copy).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.victim_seed = seed;
        self.adversary_seed = seed ^ 0xA77AC;
        self
    }

    /// The same scenario re-seeded for trial `t` (independent parties).
    /// [`Runner::run_attack_trials`] runs a range of trials; a shard
    /// worker runs its contiguous sub-range of the same seeds, so
    /// sharded trials are bit-identical to in-process ones.
    pub fn trial(&self, t: u64) -> AttackScenario {
        let mut s = self.clone();
        s.victim_seed = self.victim_seed.wrapping_add(t.wrapping_mul(0x9E37_79B9));
        s.adversary_seed = self.adversary_seed.wrapping_add(t.wrapping_mul(0xC2B2_AE35));
        s
    }
}

impl Runner {
    /// Referees one adaptive game.
    pub fn run_attack(&self, scenario: &AttackScenario) -> GameReport {
        let mut victim = scenario
            .victim
            .build(scenario.n, scenario.delta, scenario.victim_seed, None)
            .expect("attack victims must be streaming colorers");
        let mut adversary =
            scenario.adversary.build(scenario.n, scenario.delta, scenario.adversary_seed);
        sc_adversary::run_game(&mut victim, adversary.as_mut(), scenario.n, scenario.rounds)
    }

    /// The workspace's one trial loop: runs the independently seeded
    /// games `trials` (a shard worker passes its slice) in parallel and
    /// aggregates them; the pool never changes the summary.
    pub fn run_attack_trials(
        &self,
        scenario: &AttackScenario,
        trials: Range<usize>,
    ) -> TrialSummary {
        let seeds: Vec<u64> = trials.map(|t| t as u64).collect();
        let reports = par_map(self.threads, &seeds, |_, &t| self.run_attack(&scenario.trial(t)));
        summarize(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_victims_survive_declarative_attacks() {
        let runner = Runner::sequential();
        for victim in [ColorerSpec::Robust { beta: None }, ColorerSpec::RandEfficient] {
            let s = AttackScenario::new(victim, AdversarySpec::Monochromatic, 50, 6)
                .with_rounds(120)
                .with_seed(3);
            let r = runner.run_attack(&s);
            assert!(r.survived(), "{}", s.label);
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn parallel_trials_match_sequential_trials() {
        let s = AttackScenario::new(
            ColorerSpec::PaletteSparsification { lists: Some(3) },
            AdversarySpec::Monochromatic,
            60,
            16,
        )
        .with_rounds(60 * 16)
        .with_seed(70);
        let seq = Runner::sequential().run_attack_trials(&s, 0..5);
        let par = Runner::with_threads(4).run_attack_trials(&s, 0..5);
        assert_eq!(seq.trials, par.trials);
        assert_eq!(seq.broken, par.broken);
        assert_eq!(seq.failure_rounds, par.failure_rounds);
        assert_eq!(seq.max_colors, par.max_colors);
        assert!(seq.broken > 0, "tiny lists must break under the attack");
    }

    #[test]
    fn every_adversary_spec_builds_and_plays() {
        let runner = Runner::sequential();
        for adversary in [
            AdversarySpec::Monochromatic,
            AdversarySpec::Random,
            AdversarySpec::CliqueBuilder,
            AdversarySpec::BufferBoundary { buffer: None },
            AdversarySpec::LevelBoundary,
        ] {
            let s = AttackScenario::new(ColorerSpec::Robust { beta: None }, adversary, 40, 5)
                .with_rounds(60);
            let r = runner.run_attack(&s);
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn oscillation_attack_runs_the_signed_game() {
        let s = AttackScenario::new(
            ColorerSpec::DynamicSr { sparsity: None },
            AdversarySpec::Oscillation,
            40,
            6,
        )
        .with_rounds(120)
        .with_seed(5);
        assert!(s.adversary.is_signed());
        let r = Runner::sequential().run_attack(&s);
        assert!(r.deletions > 5, "oscillation deleted only {} times", r.deletions);
        assert!(r.survived(), "dynamic-sr failed at round {:?}", r.first_failure_round);
    }

    #[test]
    fn replay_adversary_reproduces_oblivious_runs() {
        let g = sc_graph::generators::gnp_with_max_degree(40, 6, 0.4, 1);
        let edges: Vec<Edge> = sc_graph::generators::shuffled_edges(&g, 1);
        let s = AttackScenario::new(
            ColorerSpec::Robust { beta: None },
            AdversarySpec::Replay(Arc::new(edges.clone())),
            40,
            6,
        )
        .with_rounds(10_000)
        .with_seed(77);
        let r = Runner::sequential().run_attack(&s);
        assert_eq!(r.rounds, edges.len());
        assert!(r.survived());
    }
}
