//! `streamcolor color` — run one of the paper's algorithms (or a
//! baseline) on a workload and report palette / pass / space numbers.
//!
//! The flags parse into a declarative [`Scenario`] executed by
//! `sc-engine`'s [`Runner`] — the same path every experiment binary uses,
//! so there is no CLI-private harness loop to drift out of sync.

use crate::args::{err, Args, CliError};
use crate::workload;
use sc_engine::{ColorerSpec, Runner, Scenario};
use sc_stream::{EngineConfig, StreamOrder};
use std::io::Write;
use streamcolor::DetConfig;

/// Algorithms selectable via `--algo`.
pub const ALGOS: &str =
    "det | batch | robust | auto | rand-efficient | cgs22 | bg18 | bcg20 | ps | greedy | brooks";

/// Runs the subcommand.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let source = workload::acquire_spec(args)?;
    workload::mark_flags_consumed(args);
    let algo = args.optional("algo").unwrap_or("det").to_string();
    let seed: u64 = args.parse_or("alg-seed", 7)?;
    let beta: f64 = args.parse_or("beta", 0.0)?;
    let chunk: usize = args.parse_or("chunk", 256)?;
    let order = parse_order(args.optional("order"), seed)?;
    let out_coloring = args.optional("out-coloring").map(String::from);
    args.reject_unknown()?;

    let scenario = Scenario::new(source, parse_spec(&algo, beta)?)
        .with_order(order)
        .with_seed(seed)
        .with_engine(EngineConfig::batched(chunk));
    scenario.check_runnable().map_err(err)?;
    let outcome = Runner::default().run(&scenario);

    if let Some(path) = out_coloring {
        let mut buf = Vec::new();
        sc_graph::io::write_coloring(&outcome.coloring, &mut buf)
            .map_err(|e| err(e.to_string()))?;
        std::fs::write(&path, &buf).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }

    let w = |o: &mut dyn Write, k: &str, v: &dyn std::fmt::Display| {
        writeln!(o, "{k:<14} {v}").map_err(|e| err(e.to_string()))
    };
    w(out, "algorithm", &outcome.algo)?;
    w(out, "order", &order.label())?;
    w(out, "n", &outcome.n)?;
    w(out, "m", &outcome.m)?;
    w(out, "max degree", &outcome.delta)?;
    w(out, "colors", &outcome.colors)?;
    w(out, "proper", &outcome.proper)?;
    if let Some(p) = outcome.passes {
        w(out, "passes", &p)?;
    }
    if let Some(s) = outcome.space_bits {
        w(out, "space (bits)", &s)?;
    }
    if !outcome.proper {
        return Err(err("the produced coloring is IMPROPER (randomized failure?)"));
    }
    Ok(())
}

fn parse_order(raw: Option<&str>, seed: u64) -> Result<StreamOrder, CliError> {
    Ok(match raw.unwrap_or("generated") {
        "generated" => StreamOrder::AsGenerated,
        "shuffled" => StreamOrder::Shuffled(seed),
        "hubs-first" => StreamOrder::HubsFirst,
        "hubs-last" => StreamOrder::HubsLast,
        "vertex-contiguous" => StreamOrder::VertexContiguous,
        "interleaved" => StreamOrder::Interleaved(seed),
        other => {
            return Err(err(format!(
                "unknown --order {other:?} (generated | shuffled | hubs-first | hubs-last | \
                 vertex-contiguous | interleaved)"
            )))
        }
    })
}

fn parse_spec(algo: &str, beta: f64) -> Result<ColorerSpec, CliError> {
    Ok(match algo {
        "det" => ColorerSpec::Det(DetConfig::default()),
        "batch" => ColorerSpec::BatchGreedy,
        "robust" => ColorerSpec::Robust { beta: Some(beta) },
        // Auto dispatch: store-everything for small ∆ (the paper's
        // ∆ = O(polylog n) fallback), Algorithm 2 otherwise.
        "auto" => ColorerSpec::Auto,
        "rand-efficient" => ColorerSpec::RandEfficient,
        "cgs22" => ColorerSpec::Cgs22,
        "bg18" => ColorerSpec::Bg18 { buckets: None },
        "bcg20" => ColorerSpec::Bcg20 { epsilon: 0.5 },
        "ps" => ColorerSpec::PaletteSparsification { lists: None },
        "greedy" => ColorerSpec::OfflineGreedy,
        "brooks" => ColorerSpec::Brooks,
        other => return Err(err(format!("unknown --algo {other:?}; one of: {ALGOS}"))),
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
    fn every_algorithm_runs_and_reports() {
        for algo in [
            "det",
            "batch",
            "robust",
            "auto",
            "rand-efficient",
            "cgs22",
            "bg18",
            "bcg20",
            "ps",
            "greedy",
            "brooks",
        ] {
            let text =
                run_str(&format!("color --algo {algo} --family exact --n 80 --delta 8 --seed 3"))
                    .unwrap_or_else(|e| panic!("algo {algo}: {e}"));
            assert!(text.contains("proper         true"), "algo {algo}: {text}");
            assert!(text.contains("colors"), "{text}");
        }
    }

    #[test]
    fn deterministic_reports_passes() {
        let text = run_str("color --algo det --family gnp --n 64 --delta 6").unwrap();
        assert!(text.contains("passes"), "{text}");
        assert!(text.contains("space (bits)"), "{text}");
    }

    #[test]
    fn orders_are_selectable() {
        for order in ["shuffled", "hubs-first", "hubs-last", "vertex-contiguous", "interleaved"] {
            let text = run_str(&format!(
                "color --algo robust --family gnp --n 60 --delta 6 --order {order}"
            ))
            .unwrap();
            assert!(text.contains(order), "{text}");
        }
        assert!(run_str("color --order sideways").is_err());
    }

    #[test]
    fn beta_flag_feeds_the_tradeoff() {
        let text =
            run_str("color --algo robust --family exact --n 100 --delta 9 --beta 0.5").unwrap();
        assert!(text.contains("proper         true"));
        // Out of [0, 1] is an error naming the parameter, not a panic.
        for beta in ["2", "-0.5", "NaN"] {
            let e = run_str(&format!("color --algo robust --family exact --n 40 --beta {beta}"))
                .unwrap_err();
            assert!(e.to_string().contains("\"beta\""), "{beta}: {e}");
        }
    }

    #[test]
    fn chunk_flag_controls_batching_without_changing_results() {
        let base = "color --algo robust --family exact --n 90 --delta 8 --seed 4";
        let a = run_str(&format!("{base} --chunk 1")).unwrap();
        let b = run_str(&format!("{base} --chunk 64")).unwrap();
        // Batched and per-edge ingestion must report identical results.
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_algo_is_an_error() {
        let e = run_str("color --algo quantum").unwrap_err();
        assert!(e.to_string().contains("unknown --algo"));
    }
}
