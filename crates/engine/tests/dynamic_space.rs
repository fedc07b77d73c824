//! The space story that justifies the turnstile subsystem: the
//! sparse-recovery colorer's footprint is a function of the sketch
//! budget — `O(s · polylog n)` bits, `o(n²)` for the default budget —
//! and is **independent of the stream length**, while any
//! store-the-stream baseline grows linearly with the token count on
//! churny inputs (each oscillation round appends delete/re-insert
//! pairs without changing the live graph at all).

use sc_engine::{ColorerSpec, Runner, Scenario, SourceSpec};
use sc_stream::edge_bits;

/// Peak space (model bits) and token count of a churn run.
fn churn_run(n: usize, delta: usize, rounds: usize) -> (u64, usize) {
    let source = SourceSpec::churn(n, delta, 7, rounds);
    let tokens = source.signed_tokens().len();
    let outcome = Runner::sequential()
        .run(&Scenario::new(source, ColorerSpec::DynamicSr { sparsity: None }).with_seed(9));
    assert!(outcome.proper, "churn run must stay proper (n={n}, rounds={rounds})");
    (outcome.space_bits.expect("streaming runs report space"), tokens)
}

#[test]
fn sketch_space_is_independent_of_churn_length() {
    let (n, delta) = (48, 5);
    let (base_space, base_tokens) = churn_run(n, delta, 1);
    let (long_space, long_tokens) = churn_run(n, delta, 1000);
    assert!(
        long_tokens > 10 * base_tokens,
        "oscillation rounds must actually lengthen the stream ({base_tokens} -> {long_tokens})"
    );
    assert_eq!(
        base_space, long_space,
        "the sketch's peak space must not grow with the token count"
    );
}

#[test]
fn sketch_space_beats_storing_the_stream_on_churny_inputs() {
    // The baseline a turnstile algorithm displaces: keeping every token
    // (store-all cannot even accept deletions, so the honest insert-only
    // analogue is the raw stream transcript at 2⌈log₂ n⌉ bits a token).
    // On a long churn the transcript dwarfs the live graph; the sketch
    // (constant once the budget is fixed) must undercut it. Each
    // oscillation round appends one delete/re-insert pair, so 20k
    // rounds is a ~40k-token stream over a ~120-edge live graph.
    let (n, delta) = (48, 5);
    let (space, tokens) = churn_run(n, delta, 20_000);
    let transcript_bits = tokens as u64 * edge_bits(n);
    assert!(
        space < transcript_bits,
        "sketch ({space} bits) must undercut the stream transcript ({transcript_bits} bits)"
    );
}

#[test]
fn sketch_space_grows_subquadratically_in_n() {
    // Default budget is (n·Δ)/2, so at fixed Δ doubling n must roughly
    // double the footprint (linear·polylog), nowhere near the 4× a
    // store-the-graph Θ(n²)-bit structure pays. Allow 3× for the
    // polylog factors.
    let delta = 5;
    let (small, _) = churn_run(64, delta, 4);
    let (big, _) = churn_run(128, delta, 4);
    assert!(big < 3 * small, "doubling n must not quadruple sketch space ({small} -> {big} bits)");
}
