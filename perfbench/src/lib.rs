//! The repository benchmark: four named workloads driven as a client of
//! the real release binaries, measured end to end, plus a traced
//! in-process replay that splits each end-to-end number into layers.
//!
//! * [`workload`] generates every input from the `--seed` argument; the
//!   server only ever sees protocol lines.
//! * [`socket`] runs the closed-loop client against a
//!   `streamcolor serve --listen 127.0.0.1:0 --reactor` child process.
//! * [`replay`] replays the same lines in-process through
//!   `Service::respond_as`: the expected transcript, and the place every
//!   coloring is checked against the client-side graph.
//! * [`layers`] replays them once more through the public calls of each
//!   layer, in lockstep with timed and untimed `respond_as` replays, with
//!   timers held in memory (the traced run).
//! * [`grid`] runs the Theorem 1 cluster grid over two stdio workers.
//! * [`metrics`] names every metric and prints the result line.
//! * [`affinity`] pins the client and server to one CPU.
//! * [`speed`] probes that CPU's speed, to report times at a reference
//!   speed.

pub mod affinity;
pub mod grid;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod server;
pub mod socket;
pub mod speed;
pub mod stats;
pub mod workload;
