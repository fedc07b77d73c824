//! # `sc-hash` — hashing substrate for `streamcolor`
//!
//! The algorithms of Assadi–Chakrabarti–Ghosh–Stoeckl (PODS 2023) rely on
//! several families of hash functions, each with a precise independence
//! guarantee that their analyses use:
//!
//! * [`AffineFamily`] — the Carter–Wegman family `{z ↦ az + b : a, b ∈ F_p}`
//!   of **pairwise-independent** functions `F_p → F_p`. Algorithm 1 (the
//!   deterministic multi-pass `(∆+1)`-coloring) derandomizes over this
//!   family when shrinking proposal subcubes (paper §3.2, line 16 of
//!   Algorithm 1).
//! * [`TwoUniversalFamily`] — `{z ↦ ((az + b) mod p) mod s : a ≠ 0}`, a
//!   **2-universal** family used by Lemma 3.10 to build the partition family
//!   for `(deg+1)`-list-coloring.
//! * [`PolynomialFamily`] — degree-`(k−1)` polynomials over `F_p`, a
//!   **k-independent** family; Algorithm 3 (randomness-efficient robust
//!   coloring) needs `k = 4`.
//! * [`OracleFn`] — a seeded pseudorandom function standing in for the
//!   "oracle access to `O(n∆)` random bits" that Algorithm 2 assumes
//!   (its docs state the substitution).
//!
//! Supporting machinery lives in [`modp`] (modular arithmetic on `u64`
//! via `u128` widening, deterministic Miller–Rabin primality for all
//! 64-bit inputs, and prime search in a range — Algorithm 1 needs a prime
//! in `[8n log n, 16n log n]`).
//!
//! ## Evaluation tiers
//!
//! Hot paths evaluate the same functions through three bit-identical
//! tiers (see [`batch`] for the full contract): scalar reference
//! evaluation ([`PolynomialHash::eval`], [`OracleFn::eval`]), a batched
//! branch-free loop over pooled buffers ([`PolynomialHash::eval_batch`],
//! powered by the Barrett [`modp::Reducer`]), and the precomputed
//! per-seed value matrix [`VertexSlotTable`], filled by forward
//! differences, for many-functions-over-one-small-domain workloads like
//! Algorithm 3's `∆ · P` candidate hashes. Equality across tiers is a
//! tested law — callers may pick purely on performance.
//!
//! **Ownership contract** (see ROADMAP.md, "which layer owns what"):
//! this crate owns seeded randomness and its arithmetic — a seed plus a
//! family fully determines every value, on every platform and tier,
//! which is what the workspace's byte-identical determinism laws stand
//! on. It knows nothing of graphs, streams, or colorings, and it never
//! meters space: colorers that *store* hash functions account for the
//! seed words themselves.

pub mod affine;
pub mod batch;
pub mod modp;
pub mod oracle;
pub mod polynomial;
pub mod prf;
pub mod two_universal;

pub use affine::{AffineFamily, AffineHash};
pub use batch::{VertexSlotTable, MAX_TABLE_BYTES};
pub use modp::{is_prime_u64, mulmod, next_prime, powmod, prime_in_range, Reducer};
pub use oracle::OracleFn;
pub use polynomial::{PolynomialFamily, PolynomialHash};
pub use prf::{splitmix64, uniform_below, SplitMix64};
pub use two_universal::{TwoUniversalFamily, TwoUniversalHash};
