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
//! Layout: `ROWS` (six) hash rows of `2s` cells each. Every update lands in
//! one cell per row (seeded [`prf2`] bucketing), maintaining per cell
//!
//! * `count` — the signed number of live ids hashed here,
//! * `id_sum` — the count-weighted sum of ids,
//! * `fp_sum` — a count-weighted fingerprint sum (mod `2^64`).
//!
//! A cell holding exactly one live id is **pure**: `id_sum / count`
//! names it and the fingerprint re-check rejects accidental collisions.
//! Peeling extracts a pure cell's id everywhere and repeats; with
//! `≥ 2s` columns per row the standard argument gives failure
//! probability `2^{-Ω(ROWS)}` per decode at support `≤ s`. Decoding
//! *fails loudly* — an [`Err`] naming the sparsity budget — when
//! peeling strands residue, so an over-budget support is never silently
//! mis-reported.
//!
//! Peeling order: [`SparseRecovery::decode`] makes one pass over the
//! cells in index order. When a cell is pure it extracts the id, pushes
//! the `ROWS` cells the extraction touched onto a stack, and drains the
//! stack (peeling whatever became pure) before the pass moves on. Every
//! cell is checked after its last change, so the pass ends with no pure
//! cell left — the same fixpoint as any other peeling order, since
//! extracting a true pure cell never spoils another one. A decode
//! therefore costs `O(cells + support · ROWS)` rather than the
//! `O(support · cells)` of rescanning from index 0 after each
//! extraction, and because the output is sorted its bytes do not depend
//! on the order either.

use sc_hash::prf::prf2;
use sc_hash::SplitMix64;

/// Hash rows per sketch. Each row is an independent chance to find a
/// pure cell, so peeling fails with probability `2^{-Ω(ROWS)}`.
const ROWS: usize = 6;

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

/// An `s`-sparse recovery sketch over ids in `[0, universe)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRecovery {
    universe: u64,
    sparsity: usize,
    cols: usize,
    /// Per-row bucketing keys, derived deterministically from the seed.
    row_keys: Vec<u64>,
    /// Fingerprint key (shared by all rows).
    fp_key: u64,
    /// `ROWS × cols`, row-major.
    cells: Vec<Cell>,
}

impl SparseRecovery {
    /// A sketch for supports of at most `sparsity` ids drawn from
    /// `[0, universe)`, with all hashing derived from `seed`.
    pub fn new(universe: u64, sparsity: usize, seed: u64) -> Self {
        let sparsity = sparsity.max(1);
        let cols = 2 * sparsity;
        let mut rng = SplitMix64::new(seed);
        let row_keys: Vec<u64> = (0..ROWS).map(|_| rng.next_u64()).collect();
        let fp_key = rng.next_u64();
        Self {
            universe,
            sparsity,
            cols,
            row_keys,
            fp_key,
            cells: vec![Cell::default(); ROWS * cols],
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

    /// Model-bits footprint of the cell array: the quantity a dynamic
    /// colorer charges its meter at construction. Keys are charged by
    /// the caller alongside (a handful of 64-bit words).
    pub fn cell_bits(&self) -> u64 {
        // count (64) + id_sum (128) + fp_sum (64) per cell.
        (self.cells.len() as u64) * 256
    }

    fn fingerprint(&self, id: u64) -> u64 {
        prf2(self.fp_key, id)
    }

    /// Index into `cells` of `id`'s cell in `row`.
    fn index(&self, row: usize, id: u64) -> usize {
        row * self.cols + (prf2(self.row_keys[row], id) % self.cols as u64) as usize
    }

    /// Applies one signed update to `id`.
    ///
    /// # Panics
    /// If `id` is outside the universe.
    pub fn update(&mut self, id: u64, delta: i64) {
        assert!(id < self.universe, "id {id} outside universe {}", self.universe);
        let fp = self.fingerprint(id);
        for row in 0..ROWS {
            let i = self.index(row, id);
            let cell = &mut self.cells[i];
            cell.count += delta;
            cell.id_sum += delta as i128 * id as i128;
            // Mod-2^64 arithmetic: two's-complement wrapping makes the
            // signed weight exact.
            cell.fp_sum = cell.fp_sum.wrapping_add(fp.wrapping_mul(delta as u64));
        }
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
    /// `s` beyond the sketch's slack, and a `2^{-Ω(ROWS)}` fluke
    /// otherwise; it never silently returns a wrong multiset (every
    /// extraction is fingerprint-checked).
    pub fn decode(&self) -> Result<Vec<(u64, i64)>, String> {
        let mut cells = self.cells.clone();
        let mut out: Vec<(u64, i64)> = Vec::new();
        // Cells to check: the pass position, then every cell an
        // extraction touched.
        let mut stack: Vec<usize> = Vec::with_capacity(ROWS);
        for start in 0..cells.len() {
            stack.push(start);
            while let Some(i) = stack.pop() {
                let Some((id, count)) = self.pure(&cells[i]) else {
                    continue;
                };
                // Remove the id everywhere (cell `i` included, which
                // leaves it zero) and recheck every cell it touched.
                let fp = self.fingerprint(id);
                for row in 0..ROWS {
                    let j = self.index(row, id);
                    let cell = &mut cells[j];
                    cell.count -= count;
                    cell.id_sum -= count as i128 * id as i128;
                    cell.fp_sum = cell.fp_sum.wrapping_sub(fp.wrapping_mul(count as u64));
                    stack.push(j);
                }
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
                 (or a {ROWS}-row peeling fluke); refusing to answer rather than guess",
                self.sparsity
            ))
        }
    }

    /// The `(id, net_count)` a cell names if it is pure: its contents
    /// are consistent with exactly one live id (division, range and
    /// fingerprint checks).
    fn pure(&self, cell: &Cell) -> Option<(u64, i64)> {
        if cell.count == 0 || cell.id_sum % cell.count as i128 != 0 {
            return None;
        }
        let id = cell.id_sum / cell.count as i128;
        if id < 0 || id >= self.universe as i128 {
            return None;
        }
        let id = id as u64;
        (cell.fp_sum == self.fingerprint(id).wrapping_mul(cell.count as u64))
            .then_some((id, cell.count))
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
    /// index (the canonical order).
    pub fn decode_cells(&mut self, text: &str) -> Result<(), String> {
        let mut cells = vec![Cell::default(); ROWS * self.cols];
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
