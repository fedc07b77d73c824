//! Baselines the paper compares against. Each "-style" baseline
//! implements the cited algorithm's core mechanism rather than porting
//! it line by line; its module docs say what it keeps from the source:
//!
//! * [`simple`] — offline greedy and the trivial `n`-coloring;
//! * [`batch_greedy`] — `O(∆)`-pass deterministic `(∆+1)`-coloring (the
//!   multi-pass comparator for experiment F6);
//! * [`palette_sparsification`] — ACK19-style randomized non-robust
//!   single-pass `(∆+1)`-coloring (the victim in experiment F5);
//! * [`cgs22`] — CGS22-style sketch-switching robust `O(∆³)`-coloring
//!   (the robust comparator for experiment F3);
//! * [`bg18`] — BG18-style randomized one-pass `Õ(∆)`-coloring;
//! * [`bcg20`] — BCG20-style degeneracy-based `κ(1+ε)`-coloring
//!   (non-robust; the sparse-graph comparator for the degeneracy
//!   experiment);
//! * [`hknt22`] — HKNT22-style `(deg+1)`-list palette sparsification
//!   (the randomized single-pass comparator for Theorem 2's
//!   deterministic multi-pass list coloring).

pub mod batch_greedy;
pub mod bcg20;
pub mod bg18;
pub mod cgs22;
pub mod hknt22;
pub mod palette_sparsification;
pub mod simple;

pub use batch_greedy::{batch_greedy_coloring, BatchGreedyReport};
pub use bcg20::Bcg20Colorer;
pub use bg18::Bg18Colorer;
pub use cgs22::Cgs22Colorer;
pub use hknt22::Hknt22Colorer;
pub use palette_sparsification::PaletteSparsification;
pub use simple::{offline_greedy, TrivialColorer};
