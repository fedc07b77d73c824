//! `streamcolor attack` — run the adaptive-adversary game against a
//! chosen victim and report survival.
//!
//! The flags parse into a declarative [`AttackScenario`] refereed by
//! `sc-engine`'s [`Runner`] (which routes the per-round prefix queries
//! through the stream engine's checkpoint API). `--trials N` repeats the
//! game across independently seeded parties in parallel.

use crate::args::{err, Args, CliError};
use sc_engine::{AdversarySpec, AttackScenario, ColorerSpec, Runner};
use std::io::Write;

/// Victims selectable via `--victim`.
pub const VICTIMS: &str = "robust | rand-efficient | cgs22 | ps | bg18";
/// Adversaries selectable via `--adversary`.
pub const ADVERSARIES: &str = "mono | random | clique | buffer | level";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let n: usize = args.parse_or("n", 100)?;
    let delta: usize = args.parse_or("delta", 10)?;
    let rounds: usize = args.parse_or("rounds", n * delta / 2)?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let trials: usize = args.parse_or("trials", 1)?;
    let victim = args.optional("victim").unwrap_or("robust").to_string();
    let adversary = args.optional("adversary").unwrap_or("mono").to_string();
    let lists: Option<usize> = match args.optional("lists") {
        None => None,
        Some(raw) => {
            Some(raw.parse().map_err(|_| err(format!("flag --lists: cannot parse {raw:?}")))?)
        }
    };
    args.reject_unknown()?;

    let scenario =
        AttackScenario::new(parse_victim(&victim, lists)?, parse_adversary(&adversary)?, n, delta)
            .with_rounds(rounds)
            .with_seed(seed);

    let runner = Runner::default();
    let w = |o: &mut dyn Write, k: &str, v: &dyn std::fmt::Display| {
        writeln!(o, "{k:<18} {v}").map_err(|e| err(e.to_string()))
    };
    if trials <= 1 {
        let r = runner.run_attack(&scenario);
        w(out, "victim", &victim)?;
        w(out, "adversary", &adversary)?;
        w(out, "rounds played", &r.rounds)?;
        w(out, "final edges", &r.final_graph.m())?;
        w(out, "final max degree", &r.final_graph.max_degree())?;
        w(out, "max colors seen", &r.max_colors)?;
        w(out, "improper outputs", &r.improper_outputs)?;
        match r.first_failure_round {
            Some(round) => w(out, "verdict", &format!("BROKEN at round {round}"))?,
            None => w(out, "verdict", &"survived")?,
        }
    } else {
        let s = runner.run_attack_trials(&scenario, 0..trials);
        w(out, "victim", &victim)?;
        w(out, "adversary", &adversary)?;
        w(out, "trials", &s.trials)?;
        w(out, "broken trials", &s.broken)?;
        w(out, "break rate", &format!("{:.2}", s.break_rate()))?;
        match s.median_failure_round() {
            Some(round) => w(out, "median failure", &round)?,
            None => w(out, "median failure", &"—")?,
        }
        w(out, "max colors seen", &s.max_colors)?;
        let verdict = if s.broken == 0 { "survived all trials" } else { "BROKEN" };
        w(out, "verdict", &verdict)?;
    }
    Ok(())
}

fn parse_victim(name: &str, lists: Option<usize>) -> Result<ColorerSpec, CliError> {
    Ok(match name {
        "robust" => ColorerSpec::Robust { beta: None },
        "rand-efficient" => ColorerSpec::RandEfficient,
        "cgs22" => ColorerSpec::Cgs22,
        // `--lists` overrides the Θ(log n) theory sizing — handy for
        // demonstrating the break threshold.
        "ps" => ColorerSpec::PaletteSparsification { lists },
        "bg18" => ColorerSpec::Bg18 { buckets: None },
        other => return Err(err(format!("unknown --victim {other:?}; one of: {VICTIMS}"))),
    })
}

fn parse_adversary(name: &str) -> Result<AdversarySpec, CliError> {
    Ok(match name {
        "mono" => AdversarySpec::Monochromatic,
        "random" => AdversarySpec::Random,
        "clique" => AdversarySpec::CliqueBuilder,
        "buffer" => AdversarySpec::BufferBoundary { buffer: None },
        "level" => AdversarySpec::LevelBoundary,
        other => return Err(err(format!("unknown --adversary {other:?}; one of: {ADVERSARIES}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let toks: Vec<String> = s.split_whitespace().map(String::from).collect();
        let args = Args::parse(&toks, &[]).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn robust_victims_survive() {
        for victim in ["robust", "rand-efficient", "cgs22"] {
            let text = run_str(&format!(
                "attack --victim {victim} --adversary mono --n 50 --delta 6 --rounds 120"
            ))
            .unwrap();
            assert!(text.contains("survived"), "victim {victim}: {text}");
        }
    }

    #[test]
    fn every_adversary_is_selectable() {
        for adv in ["mono", "random", "clique", "buffer", "level"] {
            let text = run_str(&format!(
                "attack --victim robust --adversary {adv} --n 40 --delta 5 --rounds 60"
            ))
            .unwrap();
            assert!(text.contains("rounds played"), "adversary {adv}: {text}");
        }
    }

    #[test]
    fn non_robust_victim_can_break() {
        // Small sampled lists on palette sparsification: the mono attack
        // breaks it within the budget for at least one seed.
        let mut broke = false;
        for seed in 0..6u64 {
            let text = run_str(&format!(
                "attack --victim ps --lists 4 --adversary mono --n 50 --delta 12 \
                 --rounds 300 --seed {seed}"
            ))
            .unwrap();
            if text.contains("BROKEN") {
                broke = true;
                break;
            }
        }
        assert!(broke, "palette sparsification should break under the feedback attack");
    }

    #[test]
    fn multi_trial_sweeps_aggregate() {
        let text = run_str(
            "attack --victim ps --lists 3 --adversary mono --n 50 --delta 12 \
             --rounds 400 --trials 4 --seed 70",
        )
        .unwrap();
        assert!(text.contains("trials             4"), "{text}");
        assert!(text.contains("break rate"), "{text}");
    }

    #[test]
    fn unknown_names_error() {
        assert!(run_str("attack --victim nope").is_err());
        assert!(run_str("attack --adversary nope").is_err());
        assert!(run_str("attack --bogus 1").is_err());
    }
}
