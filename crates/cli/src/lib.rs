//! # `streamcolor-cli` — command-line front end
//!
//! A thin, dependency-free CLI over the `streamcolor` workspace:
//! generate workloads, run any of the paper's algorithms or baselines,
//! inspect graph structure, and referee adaptive-adversary games —
//! without writing a Rust program.
//!
//! ```text
//! streamcolor gen    --family exact --n 1000 --delta 32 --out g.txt
//! streamcolor info   --input g.txt
//! streamcolor color  --algo det --input g.txt
//! streamcolor color  --algo robust --beta 0.5 --input g.txt
//! streamcolor attack --victim ps --adversary mono --n 100 --delta 16
//! ```
//!
//! All argument parsing is hand-rolled ([`args`]) to stay within the
//! workspace's no-new-dependencies policy; `crates/compat/README.md`
//! describes the offline stand-ins the workspace uses instead.
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns *flags and friendly errors*, nothing else. Every
//! command is a thin adapter onto a lower layer's public API —
//! `color`/`gen`/`attack` onto `sc-engine` scenarios, `serve` onto
//! `sc-service`, `shard` onto `sc-engine` shard jobs and the
//! `sc-cluster` worker pool — so behavior reachable from the shell is
//! exactly the behavior the library tests already pin down.

pub mod args;
pub mod commands;
pub mod workload;

pub use args::{Args, CliError};
pub use commands::{dispatch, HELP};
