//! Subcommand dispatch.

pub mod attack;
pub mod color;
pub mod gen;
pub mod info;
pub mod migrate;
pub mod serve;
pub mod shard;
pub mod verify;

use crate::args::{err, Args, CliError};
use std::io::Write;

/// Boolean switches, per subcommand (everything else takes a value).
fn switches(command_hint: Option<&str>) -> &'static [&'static str] {
    match command_hint {
        Some("info") => &["chromatic"],
        Some("serve") => &["reactor", "shared-sessions"],
        Some("shard") => &["smoke", "in-process"],
        _ => &[],
    }
}

/// The top-level help text.
pub const HELP: &str = "\
streamcolor — streaming graph coloring (PODS 2023 reproduction)

USAGE:
    streamcolor <subcommand> [--flag value …]

SUBCOMMANDS:
    gen      generate a workload graph (--family, --n, --delta, --p, --seed;
             --format edgelist|dimacs; --out FILE)
    color    run an algorithm on a graph (--algo, --input FILE or --family …;
             --order, --beta, --alg-seed, --out-coloring FILE)
    info     structural report (--input FILE or --family …; --chromatic)
    verify   streaming coloring verification (--input FILE, --coloring FILE;
             --sample K switches to the (1±ε) estimator)
    attack   adaptive-adversary game (--victim, --adversary, --n, --delta,
             --rounds, --seed; --lists overrides ps list sizing)
    shard    run a scenario grid sharded across workers and write the
             merged summary JSON (--smoke or --spec FILE; --workers N,
             --out FILE; --in-process runs the single-process
             reference; otherwise --transport stdio [default] spawns
             `streamcolor serve` workers, process hosts them in this
             process, tcp dials a --connect ADDR listener (one loop:
             its slices run one at a time), ssh --connect DEST starts
             remote serve processes; stragglers/dead workers are
             re-dispatched [--timeout-ms N, --speculate-after F,
             --skew-ms N])
    serve    host named coloring sessions behind the flat-JSON line
             protocol: one command object per stdin line, one canonical
             response per stdout line (--script FILE reads the lines
             from a file instead, through the same loop; --listen
             ADDR serves over TCP, multiplexing every connection onto
             one event loop sharing one service [--reactor names this,
             the only mode; --idle-ms N evicts idle connections;
             --max-sessions N evicts least-recently-used sessions at
             the cap, --snapshot-dir DIR upgrades that to
             evict-to-disk with transparent restore, --shared-sessions
             makes session names host-global and sessions outlive
             connections; --accept N]; otherwise --max-sessions N
             bounds open sessions; any serve endpoint doubles as a
             cluster shard worker via the run_job command; sessions
             can be checkpointed with the snapshot command and revived
             with restore)
    migrate  move one live session between two serve endpoints
             (--session NAME, --from ADDR, --to ADDR [HOST:PORT or
             ssh:DEST], --timeout-ms N): snapshot on the source,
             restore on the target, then drop the source's copy —
             never destructive on failure
    help     this message

ALGORITHMS (--algo):   det batch robust auto rand-efficient cgs22 bg18 bcg20 ps greedy brooks
VICTIMS (--victim):    robust rand-efficient cgs22 ps bg18
ADVERSARIES:           mono random clique buffer level
FAMILIES (--family):   gnp exact pa cycle path complete star clique-union bipartite petersen circulant
";

/// Parses tokens and dispatches to a subcommand, writing human-readable
/// output to `out`. Returns an error with a user-facing message on any
/// failure.
pub fn dispatch(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let hint = tokens.first().map(String::as_str);
    let args = Args::parse(tokens, switches(hint))?;
    match args.command.as_str() {
        "gen" => gen::run(&args, out),
        "color" => color::run(&args, out),
        "info" => info::run(&args, out),
        "verify" => verify::run(&args, out),
        "attack" => attack::run(&args, out),
        "shard" => shard::run(&args, out),
        "serve" => serve::run(&args, out),
        "migrate" => migrate::run(&args, out),
        "help" | "--help" | "-h" => out.write_all(HELP.as_bytes()).map_err(|e| err(e.to_string())),
        other => Err(err(format!("unknown subcommand {other:?}; try `streamcolor help`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let toks: Vec<String> = s.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        dispatch(&toks, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_lists_all_subcommands() {
        let text = run_str("help").unwrap();
        for cmd in ["gen", "color", "info", "attack"] {
            assert!(text.contains(cmd), "help misses {cmd}");
        }
    }

    #[test]
    fn unknown_subcommand_is_friendly() {
        let e = run_str("paint").unwrap_err();
        assert!(e.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn end_to_end_pipeline() {
        // gen to a file, then info + color + verify from that file.
        let dir = std::env::temp_dir().join("streamcolor-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.col");
        run_str(&format!(
            "gen --family exact --n 60 --delta 6 --format dimacs --out {}",
            path.display()
        ))
        .unwrap();
        let info = run_str(&format!("info --input {}", path.display())).unwrap();
        assert!(info.contains("max degree ∆     6"), "{info}");
        let cpath = dir.join("pipeline-coloring.txt");
        let color = run_str(&format!(
            "color --algo det --input {} --out-coloring {}",
            path.display(),
            cpath.display()
        ))
        .unwrap();
        assert!(color.contains("proper         true"), "{color}");
        let verify =
            run_str(&format!("verify --input {} --coloring {}", path.display(), cpath.display()))
                .unwrap();
        assert!(verify.contains("proper             true"), "{verify}");
        assert!(verify.contains("conflicts          0"), "{verify}");
    }
}
