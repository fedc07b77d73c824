//! Workload acquisition shared by the CLI subcommands: either read a graph
//! file (`--input`, edge-list or DIMACS, format auto-sniffed) or describe
//! one of `sc-engine`'s generator families from the `--family` flags.
//!
//! The flags parse into a declarative [`SourceSpec`] so `color` (and any
//! future scenario-driven command) hands the *description* to the
//! [`Runner`](sc_engine::Runner) instead of a materialized graph;
//! commands that need the graph itself ([`acquire`]) materialize it.

use crate::args::{err, Args, CliError};
use sc_engine::{GraphFamily, SourceSpec};
use sc_graph::{io, Graph};
use std::sync::Arc;

/// The generator families exposed on the command line.
pub const FAMILIES: &str =
    "gnp | exact | pa | cycle | path | complete | star | clique-union | bipartite | petersen | circulant";

/// Parses `--input FILE` or `--family …` flags into a graph source.
///
/// Flags: `--n`, `--delta` (degree cap/target), `--p` (density), `--seed`,
/// `--k`/`--size` (clique-union), `--a`/`--b` (bipartite sides).
pub fn acquire_spec(args: &Args) -> Result<SourceSpec, CliError> {
    if let Some(path) = args.optional("input") {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let g = io::read_auto(&text).map_err(|e| err(format!("{path}: {e}")))?;
        return Ok(SourceSpec::stored(g));
    }
    let family = args.optional("family").unwrap_or("gnp");
    let n: usize = args.parse_or("n", 256)?;
    let delta: usize = args.parse_or("delta", 8)?;
    let p: f64 = args.parse_or("p", 0.3)?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let family = match family {
        "gnp" => GraphFamily::Gnp,
        "exact" => GraphFamily::ExactDegree,
        "pa" => GraphFamily::PreferentialAttachment,
        "cycle" => GraphFamily::Cycle,
        "path" => GraphFamily::Path,
        "complete" => GraphFamily::Complete,
        "star" => GraphFamily::Star,
        "clique-union" => {
            let k: usize = args.parse_or("k", 4)?;
            let size: usize = args.parse_or("size", delta + 1)?;
            GraphFamily::CliqueUnion { k, size }
        }
        "bipartite" => {
            let a: usize = args.parse_or("a", n / 2)?;
            let b: usize = args.parse_or("b", n - n / 2)?;
            GraphFamily::Bipartite { a, b }
        }
        "petersen" => GraphFamily::Petersen,
        "circulant" => GraphFamily::Circulant,
        other => return Err(err(format!("unknown --family {other:?}; one of: {FAMILIES}"))),
    };
    let spec = SourceSpec::Family { family, n, delta, p, seed };
    spec.check().map_err(err)?;
    Ok(spec)
}

/// Builds the input graph from the workload flags (materializing a
/// described family).
pub fn acquire(args: &Args) -> Result<Arc<Graph>, CliError> {
    Ok(acquire_spec(args)?.materialize())
}

/// Consumes the workload flags so `reject_unknown` stays accurate for
/// commands that only *may* use them.
pub fn mark_flags_consumed(args: &Args) {
    for f in ["input", "family", "n", "delta", "p", "seed", "k", "size", "a", "b"] {
        let _ = args.optional(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let toks: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&toks, &[]).unwrap()
    }

    #[test]
    fn generates_each_family() {
        for fam in [
            "gnp",
            "exact",
            "pa",
            "cycle",
            "path",
            "complete",
            "star",
            "clique-union",
            "bipartite",
            "petersen",
            "circulant",
        ] {
            let g = acquire(&args(&format!("gen --family {fam} --n 24 --delta 4"))).unwrap();
            assert!(g.n() > 0, "family {fam} produced an empty graph");
        }
    }

    #[test]
    fn unknown_family_is_an_error() {
        let e = acquire(&args("gen --family nope")).unwrap_err();
        assert!(e.to_string().contains("unknown --family"));
    }

    #[test]
    fn reads_input_files() {
        let dir = std::env::temp_dir().join("streamcolor-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri.txt");
        std::fs::write(&path, "n 3\n0 1\n1 2\n0 2\n").unwrap();
        let g = acquire(&args(&format!("info --input {}", path.display()))).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        let e = acquire(&args("info --input /nonexistent/file")).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }

    #[test]
    fn defaults_apply() {
        let g = acquire(&args("gen")).unwrap();
        assert_eq!(g.n(), 256);
        assert!(g.max_degree() <= 8);
    }

    #[test]
    fn exact_family_validates_delta() {
        let e = acquire(&args("gen --family exact --n 8 --delta 8")).unwrap_err();
        assert!(e.to_string().contains("delta"));
    }

    #[test]
    fn family_flags_become_declarative_specs() {
        match acquire_spec(&args("color --family gnp --n 64 --delta 6 --seed 5")).unwrap() {
            SourceSpec::Family { family: GraphFamily::Gnp, n: 64, delta: 6, seed: 5, .. } => {}
            other => panic!("unexpected spec: {other:?}"),
        }
    }
}
