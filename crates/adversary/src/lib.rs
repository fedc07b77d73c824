//! # `sc-adversary` — adaptive adversaries for robust streaming coloring
//!
//! The adversarially robust model (paper §2) is a *game*: the stream is
//! generated by an adversary who sees every output the algorithm produces.
//! This crate supplies the referee ([`referee`], which [`run_game`] runs
//! in-process) and a zoo of adversaries
//! ranging from the harmless ([`ObliviousReplay`], [`RandomAdversary`]) to
//! the attack that motivates the whole robust-coloring line of work
//! ([`MonochromaticAttacker`]).
//!
//! Experiment F5 uses these to exhibit the paper's separation: the
//! non-robust palette-sparsification baseline breaks under the
//! monochromatic feedback attack, while Algorithms 2 and 3 survive it.
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns the *game loop* — alternation, adversary state, and
//! the [`GameReport`] verdict — once, in [`referee`]. The loop sees its
//! victim only through the two-method [`Victim`] trait (push a token,
//! observe a coloring): a borrowing `sc_stream` session is the
//! in-process victim, and `sc_service` plays the identical game over
//! protocol lines (`run_game_via_service`) by implementing [`Victim`]
//! for a protocol client. The engine still owns chunking and
//! checkpoints; nothing here reaches around the session API.

pub mod attackers;
pub mod game;
pub mod simulation;

pub use attackers::{
    BufferBoundaryAttacker, CliqueBuilder, LevelBoundaryAttacker, MonochromaticAttacker,
    ObliviousReplay, OscillationAttacker, RandomAdversary,
};
pub use game::{referee, run_game, run_game_with_config, Adversary, GameReport, Victim};
pub use simulation::{summarize, TrialSummary};
