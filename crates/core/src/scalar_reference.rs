//! Test-only harness for the scalar-reference law.
//!
//! Every colorer with a batched ingest routine routes `process` through
//! it as a one-edge batch, so comparing `process` with `process_batch`
//! only checks one routine against itself. The unbatched reference —
//! one edge at a time, one sketch or candidate at a time, the way the
//! paper states each algorithm — lives in the colorer's own unit tests,
//! where it can drive private fields, and this harness pins the
//! production routine to it.

use proptest::prelude::*;
use sc_graph::Edge;
use sc_stream::StreamingColorer;
use std::fmt::Debug;

/// Feeds `edges` one at a time into `reference` through `scalar_ingest`,
/// one at a time into a clone through `process`, and in `chunk`-edge
/// batches into a second clone through `process_batch`. After every edge
/// (every chunk, for the batched clone) `observe` must read the same as
/// on the reference. Callers observe a later `query()`, the space report
/// and their public diagnostics.
pub(crate) fn assert_matches_scalar<C, O>(
    mut reference: C,
    edges: &[Edge],
    chunk: usize,
    scalar_ingest: impl Fn(&mut C, Edge),
    observe: impl Fn(&mut C) -> O,
) -> Result<(), TestCaseError>
where
    C: StreamingColorer + Clone,
    O: PartialEq + Debug,
{
    let chunk = chunk.max(1);
    let mut one = reference.clone();
    let mut batched = reference.clone();
    for (i, &e) in edges.iter().enumerate() {
        scalar_ingest(&mut reference, e);
        one.process(e);
        let want = observe(&mut reference);
        prop_assert_eq!(&want, &observe(&mut one), "process, after {} edges", i + 1);
        if (i + 1) % chunk == 0 || i + 1 == edges.len() {
            batched.process_batch(&edges[i - i % chunk..=i]);
            prop_assert_eq!(
                &want,
                &observe(&mut batched),
                "chunk {}, after {} edges",
                chunk,
                i + 1
            );
        }
    }
    Ok(())
}
