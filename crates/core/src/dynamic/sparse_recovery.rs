//! `s`-sparse recovery over a signed-update universe.
//!
//! The classic turnstile-stream primitive (Ganguly; Cormode–Firmani;
//! the invertible-Bloom-lookup-table line): maintain `O(s)` counter
//! cells under arbitrary `(id, ±1)` updates so that, whenever the net
//! frequency vector has at most `s` nonzero coordinates, the *exact*
//! multiset can be recovered by peeling. This is the entire storage of
//! the dynamic colorer — the sketch size depends on `s` and the id
//! width, never on the stream length, which is what makes the dynamic
//! colorer's space `o(n²)` bits on churn streams where store-all grows
//! with every insertion.
//!
//! Layout: `rows` hash rows of `cols` cells each (a [`Layout`]). Every
//! update lands in one cell per row (seeded [`prf2`] bucketing),
//! maintaining per cell
//!
//! * `count` — the signed number of live ids hashed here,
//! * `id_sum` — the count-weighted sum of ids,
//! * `fp_sum` — a count-weighted fingerprint sum (mod `2^64`).
//!
//! A cell holding exactly one live id is **pure**: `id_sum / count`
//! names it and the fingerprint re-check rejects accidental collisions.
//! Peeling extracts a pure cell's id everywhere and repeats. Decoding
//! *fails loudly* — an [`Err`] naming the sparsity budget — when
//! peeling strands residue, so an over-budget support is never silently
//! mis-reported.
//!
//! Sizing: [`Layout::for_sparsity`] picks the layout from the budget
//! `s`. Below [`COMPACT_FROM`] it is [`Layout::classic`], six rows of
//! `2s` cells (12 cells per budgeted id); from there up it is
//! [`Layout::compact`], four rows of `⌈0.75·s⌉` cells (3 per id). Both
//! sit well above the load at which peeling stops working (about 1.3
//! cells per key for four hashes; Goodrich–Mitzenmacher 2011), so a
//! decode at budget fails mainly when a few ids share all their cells.
//! That chance falls as the rows grow longer: small sketches need the
//! classic slack, large ones do not. The threshold is set from measured
//! at-budget failure counts, written by `exp_summary` as the
//! `sketch-sizing` rows of `BENCH_engine.json` (20,000 trials per size,
//! `s` random distinct ids from `[0, 3000²)`, each decoded once):
//!
//! | s | classic fails | compact fails | rule |
//! |---|---|---|---|
//! | 1 | 0 | 0 | classic |
//! | 2 | 5 | 1221 | classic |
//! | 4 | 0 | 1475 | classic |
//! | 8 | 0 | 468 | classic |
//! | 16 | 0 | 129 | classic |
//! | 32 | 0 | 19 | classic |
//! | 64 | 0 | 9 | classic |
//! | 128 | 0 | 0 | classic |
//! | 256 | 0 | 0 | classic |
//! | 512 | 0 | 0 | classic |
//! | 1024 | 0 | 0 | compact |
//! | 2048 | 0 | 0 | compact |
//! | 3200 | 0 | 0 | compact |
//!
//! At every measured size the rule fails no more often than the classic
//! layout did (`crates/bench/tests/bench_files.rs` holds the committed
//! rows to that); the threshold sits four doublings above the last
//! compact failure, at s = 64.
//!
//! Peeling order: [`SparseRecovery::decode`] makes one pass over the
//! cells in index order. When a cell is pure it extracts the id, pushes
//! the `rows` cells the extraction touched onto a stack, and drains the
//! stack (peeling whatever became pure) before the pass moves on. Every
//! cell is checked after its last change, so the pass ends with no pure
//! cell left — the same fixpoint as any other peeling order, since
//! extracting a true pure cell never spoils another one. A decode
//! therefore costs `O(cells + support · rows)` rather than the
//! `O(support · cells)` of rescanning from index 0 after each
//! extraction, and because the output is sorted its bytes do not depend
//! on the order either.
//!
//! Hashing: `prf2(key, id) = prf2_finish(prf2_derive(key), id)`, so the
//! sketch stores derived keys, mixes `splitmix64(id)` once per update or
//! extraction and shares it across the rows and the fingerprint, and
//! reduces with an exact [`Reducer`]. The cell indices are those of
//! `prf2(key, id) % cols`.
//!
//! [`prf2`]: sc_hash::prf::prf2

use sc_hash::prf::prf2_derive;
use sc_hash::{splitmix64, Reducer, SplitMix64};

/// The smallest budget that gets [`Layout::compact`] (see the module
/// docs' table).
pub const COMPACT_FROM: usize = 1024;

/// The shape of a sketch's cell array: `rows` hash rows of `cols` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Hash rows: each id lands in one cell per row.
    pub rows: usize,
    /// Cells per row.
    pub cols: usize,
}

impl Layout {
    /// Six rows of `2s` cells: 12 cells per budgeted id.
    pub fn classic(sparsity: usize) -> Self {
        Self { rows: 6, cols: 2 * sparsity.max(1) }
    }

    /// Four rows of `⌈0.75·s⌉` cells (at least two): 3 cells per
    /// budgeted id.
    pub fn compact(sparsity: usize) -> Self {
        Self { rows: 4, cols: (3 * sparsity).div_ceil(4).max(2) }
    }

    /// The sizing rule: [`Layout::classic`] below [`COMPACT_FROM`],
    /// [`Layout::compact`] from there up.
    pub fn for_sparsity(sparsity: usize) -> Self {
        if sparsity < COMPACT_FROM {
            Self::classic(sparsity)
        } else {
            Self::compact(sparsity)
        }
    }
}

/// One counter cell (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    count: i64,
    id_sum: i128,
    fp_sum: u64,
}

impl Cell {
    fn is_zero(&self) -> bool {
        self.count == 0 && self.id_sum == 0 && self.fp_sum == 0
    }
}

/// `prf2(key, id)` from `dk = prf2_derive(key)` and `sx = splitmix64(id)`.
#[inline]
fn keyed(dk: u64, sx: u64) -> u64 {
    splitmix64(dk.wrapping_add(sx))
}

/// A sketch's hashing: one derived bucketing key per row, the derived
/// fingerprint key, and the column count as an exact reducer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Keys {
    rows: Vec<u64>,
    fp: u64,
    cols: Reducer,
}

impl Keys {
    /// Keys for `layout`, derived from `seed`: the row keys are the
    /// seed stream's first `rows` words and the fingerprint key the next.
    fn new(layout: Layout, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let rows = (0..layout.rows).map(|_| prf2_derive(rng.next_u64())).collect();
        let fp = prf2_derive(rng.next_u64());
        Self { rows, fp, cols: Reducer::new(layout.cols as u64) }
    }

    /// `id`'s fingerprint, from `sx = splitmix64(id)`.
    fn fingerprint(&self, sx: u64) -> u64 {
        keyed(self.fp, sx)
    }

    /// Adds `delta` copies of `id` (with `sx = splitmix64(id)` and
    /// fingerprint `fp`) to its cell in every row, passing each cell's
    /// index to `touched`.
    fn add(
        &self,
        cells: &mut [Cell],
        (id, sx, fp): (u64, u64, u64),
        delta: i64,
        mut touched: impl FnMut(usize),
    ) {
        let cols = self.cols.modulus() as usize;
        for (row, &dk) in self.rows.iter().enumerate() {
            let i = row * cols + self.cols.rem(keyed(dk, sx)) as usize;
            let cell = &mut cells[i];
            cell.count += delta;
            cell.id_sum += delta as i128 * id as i128;
            // Mod-2^64 arithmetic: two's-complement wrapping makes the
            // signed weight exact.
            cell.fp_sum = cell.fp_sum.wrapping_add(fp.wrapping_mul(delta as u64));
            touched(i);
        }
    }
}

/// An `s`-sparse recovery sketch over ids in `[0, universe)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRecovery {
    universe: u64,
    sparsity: usize,
    keys: Keys,
    /// `rows × cols`, row-major.
    cells: Vec<Cell>,
}

impl SparseRecovery {
    /// A sketch for supports of at most `sparsity` ids drawn from
    /// `[0, universe)`, laid out by [`Layout::for_sparsity`], with all
    /// hashing derived from `seed`.
    pub fn new(universe: u64, sparsity: usize, seed: u64) -> Self {
        Self::with_layout(universe, sparsity, Layout::for_sparsity(sparsity), seed)
    }

    /// A sketch with an explicit `layout` (the sizing table measures
    /// both layouts at every size through this).
    ///
    /// # Panics
    /// If `layout` has no rows or fewer than two columns.
    pub fn with_layout(universe: u64, sparsity: usize, layout: Layout, seed: u64) -> Self {
        assert!(layout.rows >= 1 && layout.cols >= 2, "degenerate sketch layout {layout:?}");
        Self {
            universe,
            sparsity: sparsity.max(1),
            keys: Keys::new(layout, seed),
            cells: vec![Cell::default(); layout.rows * layout.cols],
        }
    }

    /// The sparsity budget `s`.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// The id universe size.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The sketch's rows and columns.
    pub fn layout(&self) -> Layout {
        Layout { rows: self.keys.rows.len(), cols: self.keys.cols.modulus() as usize }
    }

    /// Model-bits footprint of the cell array: the quantity a dynamic
    /// colorer charges its meter at construction. Keys are charged by
    /// the caller alongside (a handful of 64-bit words).
    pub fn cell_bits(&self) -> u64 {
        // count (64) + id_sum (128) + fp_sum (64) per cell.
        (self.cells.len() as u64) * 256
    }

    /// Applies one signed update to `id`.
    ///
    /// # Panics
    /// If `id` is outside the universe.
    pub fn update(&mut self, id: u64, delta: i64) {
        assert!(id < self.universe, "id {id} outside universe {}", self.universe);
        let sx = splitmix64(id);
        let fp = self.keys.fingerprint(sx);
        self.keys.add(&mut self.cells, (id, sx, fp), delta, |_| {});
    }

    /// Whether every cell is zero (the empty frequency vector).
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(Cell::is_zero)
    }

    /// Recovers the exact `(id, net_count)` support, ascending by id.
    ///
    /// # Errors
    /// Fails loudly — naming the sparsity budget — when peeling cannot
    /// finish. That is the guaranteed outcome when the support exceeds
    /// `s` beyond the sketch's slack, and a rare fluke otherwise (the
    /// module docs' table counts them); it never silently returns a
    /// wrong multiset (every extraction is fingerprint-checked).
    pub fn decode(&self) -> Result<Vec<(u64, i64)>, String> {
        let mut cells = self.cells.clone();
        let mut out: Vec<(u64, i64)> = Vec::new();
        // Cells to check: the pass position, then every cell an
        // extraction touched.
        let mut stack: Vec<usize> = Vec::with_capacity(self.keys.rows.len());
        for start in 0..cells.len() {
            stack.push(start);
            while let Some(i) = stack.pop() {
                let Some((id, count, sx, fp)) = self.pure(&cells[i]) else {
                    continue;
                };
                // Remove the id everywhere (cell `i` included, which
                // leaves it zero) and recheck every cell it touched.
                self.keys.add(&mut cells, (id, sx, fp), -count, |j| stack.push(j));
                out.push((id, count));
            }
        }
        if cells.iter().all(Cell::is_zero) {
            out.sort_unstable();
            debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "each id peels once");
            Ok(out)
        } else {
            Err(format!(
                "sparse-recovery decode failed: support exceeds the sparsity budget s={} \
                 (or a {}-row peeling fluke); refusing to answer rather than guess",
                self.sparsity,
                self.keys.rows.len()
            ))
        }
    }

    /// The `(id, net_count, splitmix64(id), fingerprint)` a cell names
    /// if it is pure: its contents are consistent with exactly one live
    /// id (division, range and fingerprint checks).
    fn pure(&self, cell: &Cell) -> Option<(u64, i64, u64, u64)> {
        let id = match cell.count {
            0 => return None,
            1 => cell.id_sum,
            count => {
                // `checked_rem` also refuses `i128::MIN / -1`, which a
                // restored cell can hold.
                if cell.id_sum.checked_rem(count as i128) != Some(0) {
                    return None;
                }
                cell.id_sum / count as i128
            }
        };
        if id < 0 || id >= self.universe as i128 {
            return None;
        }
        let id = id as u64;
        let sx = splitmix64(id);
        let fp = self.keys.fingerprint(sx);
        (cell.fp_sum == fp.wrapping_mul(cell.count as u64)).then_some((id, cell.count, sx, fp))
    }

    /// Canonical cell-array encoding: ascending `idx:count:id_sum:fp_sum`
    /// entries for the non-zero cells, space-joined (empty string for an
    /// empty sketch). Free of `;` and `=`, so it embeds in state blobs.
    pub fn encode_cells(&self) -> String {
        let parts: Vec<String> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| format!("{}:{}:{}:{}", i, c.count, c.id_sum, c.fp_sum))
            .collect();
        parts.join(" ")
    }

    /// Replays an [`SparseRecovery::encode_cells`] string into this
    /// freshly built sketch (same constructor parameters — keys are
    /// re-derived from the seed, never serialized).
    ///
    /// # Errors
    /// Names the malformed entry; entries must be strictly ascending by
    /// index (the canonical order) and inside this sketch's layout.
    pub fn decode_cells(&mut self, text: &str) -> Result<(), String> {
        let mut cells = vec![Cell::default(); self.cells.len()];
        if !text.is_empty() {
            let mut last: Option<usize> = None;
            for part in text.split(' ') {
                let fields: Vec<&str> = part.split(':').collect();
                let [idx, count, id_sum, fp_sum] = fields[..] else {
                    return Err(format!("sketch cell {part:?} is not idx:count:id_sum:fp_sum"));
                };
                let idx: usize =
                    idx.parse().map_err(|e| format!("sketch cell {part:?}: idx: {e}"))?;
                if idx >= cells.len() {
                    return Err(format!("sketch cell {part:?}: idx out of range"));
                }
                if last.is_some_and(|l| l >= idx) {
                    return Err(format!("sketch cell {part:?}: indices must ascend"));
                }
                last = Some(idx);
                let cell = Cell {
                    count: count
                        .parse()
                        .map_err(|e| format!("sketch cell {part:?}: count: {e}"))?,
                    id_sum: id_sum
                        .parse()
                        .map_err(|e| format!("sketch cell {part:?}: id_sum: {e}"))?,
                    fp_sum: fp_sum
                        .parse()
                        .map_err(|e| format!("sketch cell {part:?}: fp_sum: {e}"))?,
                };
                if cell.is_zero() {
                    return Err(format!("sketch cell {part:?} is all-zero (not canonical)"));
                }
                cells[idx] = cell;
            }
        }
        self.cells = cells;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_small_supports_exactly() {
        let mut sk = SparseRecovery::new(10_000, 8, 42);
        let support = [(3u64, 2i64), (17, 1), (999, 5), (9_999, 1)];
        for &(id, c) in &support {
            for _ in 0..c {
                sk.update(id, 1);
            }
        }
        assert_eq!(sk.decode().unwrap(), support.to_vec());
    }

    #[test]
    fn deletions_cancel_to_empty() {
        let mut sk = SparseRecovery::new(1000, 4, 7);
        for id in [5u64, 6, 7, 5] {
            sk.update(id, 1);
        }
        for id in [5u64, 5, 6, 7] {
            sk.update(id, -1);
        }
        assert!(sk.is_empty());
        assert_eq!(sk.decode().unwrap(), Vec::new());
    }

    #[test]
    fn churn_far_beyond_s_decodes_once_support_shrinks() {
        // Stream length >> s, live support ≤ s at the end: the whole
        // point of the turnstile model.
        let mut sk = SparseRecovery::new(100_000, 6, 11);
        let mut rng = SplitMix64::new(3);
        for _ in 0..5_000 {
            let id = rng.below(100_000);
            sk.update(id, 1);
            sk.update(id, -1);
        }
        for id in [10u64, 20, 30] {
            sk.update(id, 1);
        }
        assert_eq!(sk.decode().unwrap(), vec![(10, 1), (20, 1), (30, 1)]);
    }

    #[test]
    fn oversubscribed_support_fails_loudly() {
        let mut sk = SparseRecovery::new(1_000_000, 2, 5);
        for id in 0..200u64 {
            sk.update(id * 31 + 7, 1);
        }
        let err = sk.decode().unwrap_err();
        assert!(err.contains("s=2") && err.contains("refusing"), "{err}");
    }

    #[test]
    fn cells_round_trip_canonically() {
        let mut sk = SparseRecovery::new(5_000, 5, 99);
        for id in [1u64, 2, 3, 4999] {
            sk.update(id, 1);
        }
        sk.update(2, -1);
        let text = sk.encode_cells();
        let mut fresh = SparseRecovery::new(5_000, 5, 99);
        fresh.decode_cells(&text).unwrap();
        assert_eq!(fresh, sk);
        assert_eq!(fresh.encode_cells(), text, "re-encoding must be stable");
        // Empty sketch encodes to the empty string.
        assert_eq!(SparseRecovery::new(10, 1, 0).encode_cells(), "");
    }

    #[test]
    fn classic_cell_indices_are_frozen() {
        // `prf2(key, id) % cols` per row over the seed stream's keys, as
        // computed before the keys were stored derived: below
        // COMPACT_FROM every state blob keeps its bytes.
        let mut sk = SparseRecovery::new(5_000, 5, 99);
        assert_eq!(sk.layout(), Layout { rows: 6, cols: 10 });
        sk.update(4999, 1);
        assert_eq!(
            sk.encode_cells(),
            "4:1:4999:1248336333533946680 13:1:4999:1248336333533946680 \
             22:1:4999:1248336333533946680 37:1:4999:1248336333533946680 \
             42:1:4999:1248336333533946680 54:1:4999:1248336333533946680"
        );
    }

    #[test]
    fn the_sizing_rule_switches_at_the_threshold() {
        assert_eq!(Layout::for_sparsity(COMPACT_FROM - 1), Layout::classic(COMPACT_FROM - 1));
        assert_eq!(Layout::for_sparsity(COMPACT_FROM), Layout { rows: 4, cols: 768 });
        assert_eq!(Layout::for_sparsity(3200), Layout { rows: 4, cols: 2400 });
        assert_eq!(Layout::compact(1), Layout { rows: 4, cols: 2 });
        let sk = SparseRecovery::new(10_000, 3200, 1);
        assert_eq!(sk.cell_bits(), 4 * 2400 * 256);
    }

    #[test]
    fn restored_cells_at_the_integer_edges_refuse_without_panicking() {
        // `i128::MIN / -1` overflows; a restored cell may hold it.
        let mut sk = SparseRecovery::new(100, 2, 1);
        sk.decode_cells(&format!("0:-1:{}:0", i128::MIN)).unwrap();
        assert!(sk.decode().unwrap_err().contains("s=2"));
    }

    #[test]
    fn decode_cells_rejects_malformed_entries() {
        let mut sk = SparseRecovery::new(100, 2, 1);
        for bad in
            ["x:1:1:1", "0:1:1", "999999:1:1:1", "0:0:0:0", "1:1:2:3 1:1:2:3", "2:1:2:3 1:1:2:3"]
        {
            assert!(sk.decode_cells(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn different_seeds_hash_differently_but_both_decode() {
        for seed in [1u64, 2, 3, 4, 5] {
            let mut sk = SparseRecovery::new(50_000, 10, seed);
            let ids: Vec<u64> = (0..10).map(|i| i * 4999 + 13).collect();
            for &id in &ids {
                sk.update(id, 1);
            }
            let got: Vec<u64> = sk.decode().unwrap().into_iter().map(|(id, _)| id).collect();
            assert_eq!(got, ids, "seed {seed}");
        }
    }
}
