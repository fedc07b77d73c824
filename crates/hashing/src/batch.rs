//! Table-driven batched evaluation: the top tier of the crate's
//! evaluation-tier stack.
//!
//! The crate now exposes three ways to evaluate the same hash function,
//! all **bit-identical** by construction:
//!
//! 1. **Scalar** — [`PolynomialHash::eval`] (Horner over `u128`
//!    remainders) and [`OracleFn::eval`](crate::OracleFn::eval). The
//!    reference semantics; every other tier is tested against it.
//! 2. **Batched** — [`PolynomialHash::eval_batch`]: a branch-free inner
//!    loop over caller-pooled buffers, with the per-step division hoisted
//!    into a [`Reducer`]. ([`OracleFn`](crate::OracleFn) has no batched
//!    form: its scalar evaluation is already two mixer rounds, and
//!    Algorithm 2 shares the first across sketches through
//!    [`OracleFn::presplit`](crate::OracleFn::presplit) instead.)
//! 3. **Table-driven** — [`VertexSlotTable`]: when one *small, fixed*
//!    vertex domain is hashed by *many* functions of one family (Algorithm
//!    3 keeps `∆ · P` degree-3 polynomials, all sharing `(p, s)`), the
//!    entire value matrix `tbl[v][slot] = h_slot(v)` fits in a few
//!    megabytes of `u16`s. Build it once at colorer construction; every
//!    later "which slots consider this edge monochromatic?" question
//!    becomes a SIMD-friendly equality scan of two rows instead of
//!    `slots` modular polynomial evaluations.
//!
//! The table is a cache of values the colorer can recompute from its
//! stored coefficients at any time — like a query cache or a block memo,
//! it is harness acceleration, not algorithm state, and is never charged
//! to a space meter.

use crate::modp::Reducer;
use crate::polynomial::PolynomialHash;

/// Upper bound on [`VertexSlotTable`] memory (64 MiB). Configurations
/// whose value matrix would exceed it fall back to the batched tier.
pub const MAX_TABLE_BYTES: usize = 64 << 20;

/// Dense `vertex × slot` matrix of hash values for one polynomial family.
///
/// `tbl[v][slot] = hashes[slot].eval(v)`, stored row-major by vertex in
/// `u16` (buildable only when every hash's range satisfies `s ≤ 2^16`).
/// Rows of the two endpoints of an edge can then be compared lane-wise:
/// [`VertexSlotTable::equal_slots`] scans a suffix of the slot axis in
/// cache-friendly blocks, letting the autovectorizer turn the "is this
/// edge `h_slot`-monochromatic?" test into packed 16-bit compares.
///
/// # Exactness
///
/// Construction evaluates through [`Reducer`]-based dot products when the
/// modulus permits and scalar Horner otherwise; either way each entry
/// equals `hashes[slot].eval(v)` bit-for-bit, so consulting the table can
/// never diverge from scalar evaluation. Property-tested in
/// `tests/hash_properties.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexSlotTable {
    /// Row length: number of hash functions (slots).
    slots: usize,
    /// `n · slots` values, vertex-major.
    vals: Vec<u16>,
}

impl VertexSlotTable {
    /// Builds the value matrix for `n` vertices under `hashes`, or `None`
    /// when the configuration is out of the table tier's envelope: no
    /// hashes, mixed `(p, s)` parameters, range `s > 2^16`, or a matrix
    /// larger than [`MAX_TABLE_BYTES`].
    pub fn build(hashes: &[PolynomialHash], n: usize) -> Option<Self> {
        let first = hashes.first()?;
        let (p, s) = (first.p, first.s);
        if s > 1 << 16 || hashes.iter().any(|h| h.p != p || h.s != s) {
            return None;
        }
        let slots = hashes.len();
        if n.checked_mul(slots)?.checked_mul(2)? > MAX_TABLE_BYTES {
            return None;
        }
        let mut vals = vec![0u16; n * slots];
        let fast = s >= 2 && hashes.iter().all(PolynomialHash::dot_fits_u64);
        if fast {
            let rp = Reducer::new(p);
            let rs = Reducer::new(s);
            for (v, row) in vals.chunks_exact_mut(slots).enumerate() {
                for (h, out) in hashes.iter().zip(row.iter_mut()) {
                    *out = rs.rem(rp.rem(h.dot_u64(v as u64, &rp))) as u16;
                }
            }
        } else {
            // Degenerate ranges (`s = 1`) or huge moduli: scalar fill.
            for (v, row) in vals.chunks_exact_mut(slots).enumerate() {
                for (h, out) in hashes.iter().zip(row.iter_mut()) {
                    *out = h.eval(v as u64) as u16;
                }
            }
        }
        Some(Self { slots, vals })
    }

    /// Number of slots (hash functions) per row.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Total table footprint in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.vals.len() * 2
    }

    /// The row of all slot values for vertex `v`.
    #[inline]
    pub fn row(&self, v: u32) -> &[u16] {
        let start = v as usize * self.slots;
        &self.vals[start..start + self.slots]
    }

    /// `hashes[slot].eval(v)`, from the table.
    #[inline]
    pub fn value(&self, v: u32, slot: usize) -> u64 {
        self.vals[v as usize * self.slots + slot] as u64
    }

    /// Hints the suffix `[from, slots)` of `u`'s and `v`'s rows toward
    /// cache — meant for the *next* edge while the current one is
    /// scanned. Each edge starts two fresh row streams out of a
    /// multi-megabyte matrix, and the hardware prefetcher only ramps up
    /// after a few demand misses, so a software lookahead overlaps that
    /// latency with useful work. Purely a hint: never changes results,
    /// and a no-op off x86-64.
    #[inline]
    pub fn prefetch_rows(&self, u: u32, v: u32, from: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let len = ((self.slots - from) * 2).min(512);
            for w in [u, v] {
                let start = w as usize * self.slots + from;
                // SAFETY: prefetch reads nothing and faults on nothing;
                // the hinted range lies within `vals`.
                unsafe {
                    let p = self.vals.as_ptr().add(start).cast::<i8>();
                    let mut off = 0;
                    while off < len {
                        _mm_prefetch::<_MM_HINT_T0>(p.add(off));
                        off += 64;
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (u, v, from);
    }

    /// Calls `f(slot)` for every `slot ∈ [from, slots)` with
    /// `tbl[u][slot] == tbl[v][slot]`, in ascending slot order.
    ///
    /// On x86-64 this dispatches (runtime feature detection, cached by
    /// `std`) to a packed 16-bit compare kernel — AVX-512BW or AVX2 —
    /// that tests a 64-lane window per branch and only walks match
    /// positions out of the compare mask when the window hits. Elsewhere,
    /// a scalar block scan folds `min(a ⊕ b)` per block and rescans on a
    /// zero fold. All paths report identical slots in identical order;
    /// matches are rare for the hash ranges the colorers use, so almost
    /// every window is dismissed by one fold/mask test.
    pub fn equal_slots(&self, u: u32, v: u32, from: usize, mut f: impl FnMut(usize)) {
        let a = &self.row(u)[from..];
        let b = &self.row(v)[from..];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw") {
                // SAFETY: feature checked at runtime.
                return unsafe { x86::equal_slots_avx512(a, b, from, &mut f) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature checked at runtime.
                return unsafe { x86::equal_slots_avx2(a, b, from, &mut f) };
            }
        }
        equal_slots_scalar(a, b, from, &mut f);
    }
}

/// Portable fallback scan: block-folds `min(a ⊕ b)` (a branch-free
/// reduction the autovectorizer can lower to packed ops) and rescans a
/// block positionally only when the fold hits zero.
fn equal_slots_scalar(a: &[u16], b: &[u16], from: usize, f: &mut dyn FnMut(usize)) {
    const BLOCK: usize = 64;
    let mut i = 0;
    while i < a.len() {
        let end = (i + BLOCK).min(a.len());
        let mut fold = u16::MAX;
        for j in i..end {
            fold = fold.min(a[j] ^ b[j]);
        }
        if fold == 0 {
            for j in i..end {
                if a[j] == b[j] {
                    f(from + j);
                }
            }
        }
        i = end;
    }
}

/// SIMD kernels behind [`VertexSlotTable::equal_slots`]'s runtime
/// dispatch. Each processes 64 lanes per branch and recovers match
/// positions from compare masks with `trailing_zeros`, so reported slots
/// stay in ascending order — bit-identical to [`equal_slots_scalar`]
/// (property-tested in `tests/hash_properties.rs`).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires the `avx512bw` target feature at runtime.
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn equal_slots_avx512(a: &[u16], b: &[u16], from: usize, f: &mut dyn FnMut(usize)) {
        let n = a.len();
        let ap = a.as_ptr().cast::<i16>();
        let bp = b.as_ptr().cast::<i16>();
        let mut i = 0;
        while i + 64 <= n {
            // SAFETY: i + 64 ≤ n bounds both unaligned 32-lane loads.
            let (m0, m1) = unsafe {
                let m0 = _mm512_cmpeq_epi16_mask(
                    _mm512_loadu_epi16(ap.add(i)),
                    _mm512_loadu_epi16(bp.add(i)),
                );
                let m1 = _mm512_cmpeq_epi16_mask(
                    _mm512_loadu_epi16(ap.add(i + 32)),
                    _mm512_loadu_epi16(bp.add(i + 32)),
                );
                (m0, m1)
            };
            if (m0 | m1) != 0 {
                let mut word = m0 as u64 | (u64::from(m1) << 32);
                while word != 0 {
                    f(from + i + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
            i += 64;
        }
        while i < n {
            if a[i] == b[i] {
                f(from + i);
            }
            i += 1;
        }
    }

    /// # Safety
    /// Requires the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn equal_slots_avx2(a: &[u16], b: &[u16], from: usize, f: &mut dyn FnMut(usize)) {
        let n = a.len();
        let ap = a.as_ptr().cast::<__m256i>();
        let bp = b.as_ptr().cast::<__m256i>();
        let mut i = 0;
        while i + 64 <= n {
            // SAFETY: i + 64 ≤ n bounds all four unaligned 16-lane loads
            // (byte offsets are from element index i, cast to vector
            // granularity via add on byte pointers below).
            let cmps = unsafe {
                let at = ap.byte_add(i * 2);
                let bt = bp.byte_add(i * 2);
                [
                    _mm256_cmpeq_epi16(_mm256_loadu_si256(at), _mm256_loadu_si256(bt)),
                    _mm256_cmpeq_epi16(
                        _mm256_loadu_si256(at.add(1)),
                        _mm256_loadu_si256(bt.add(1)),
                    ),
                    _mm256_cmpeq_epi16(
                        _mm256_loadu_si256(at.add(2)),
                        _mm256_loadu_si256(bt.add(2)),
                    ),
                    _mm256_cmpeq_epi16(
                        _mm256_loadu_si256(at.add(3)),
                        _mm256_loadu_si256(bt.add(3)),
                    ),
                ]
            };
            let any = _mm256_or_si256(
                _mm256_or_si256(cmps[0], cmps[1]),
                _mm256_or_si256(cmps[2], cmps[3]),
            );
            if _mm256_movemask_epi8(any) != 0 {
                for (k, &c) in cmps.iter().enumerate() {
                    // Two mask bits per 16-bit lane.
                    let mut m = _mm256_movemask_epi8(c) as u32;
                    while m != 0 {
                        let bit = m.trailing_zeros();
                        f(from + i + k * 16 + bit as usize / 2);
                        m &= !(0b11 << bit);
                    }
                }
            }
            i += 64;
        }
        while i < n {
            if a[i] == b[i] {
                f(from + i);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::PolynomialFamily;
    use crate::prf::SplitMix64;

    fn sample_hashes(n: u64, s: u64, count: usize, seed: u64) -> Vec<PolynomialHash> {
        let family = PolynomialFamily::for_domain(n, s, 4);
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| family.sample(&mut rng)).collect()
    }

    #[test]
    fn table_matches_scalar_eval() {
        let n = 200usize;
        let hashes = sample_hashes(n as u64, 64, 37, 9);
        let t = VertexSlotTable::build(&hashes, n).expect("config fits the table tier");
        assert_eq!(t.slots(), 37);
        assert_eq!(t.bytes(), n * 37 * 2);
        for v in 0..n as u32 {
            for (slot, h) in hashes.iter().enumerate() {
                assert_eq!(t.value(v, slot), h.eval(v as u64), "v = {v}, slot = {slot}");
                assert_eq!(t.row(v)[slot] as u64, h.eval(v as u64));
            }
        }
    }

    #[test]
    fn equal_slots_finds_exactly_the_collisions() {
        let n = 150usize;
        let hashes = sample_hashes(n as u64, 16, 90, 4);
        let t = VertexSlotTable::build(&hashes, n).unwrap();
        for (u, v, from) in [(0u32, 1u32, 0usize), (3, 149, 10), (7, 7, 0), (20, 21, 89)] {
            let mut got = Vec::new();
            t.equal_slots(u, v, from, |s| got.push(s));
            let want: Vec<usize> = (from..hashes.len())
                .filter(|&s| hashes[s].eval(u as u64) == hashes[s].eval(v as u64))
                .collect();
            assert_eq!(got, want, "u = {u}, v = {v}, from = {from}");
        }
    }

    #[test]
    fn equal_slots_from_equal_to_len_is_empty() {
        let hashes = sample_hashes(10, 4, 5, 1);
        let t = VertexSlotTable::build(&hashes, 10).unwrap();
        let mut calls = 0;
        t.equal_slots(0, 1, 5, |_| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn range_one_collapses_every_slot() {
        // ∆ = 1 in Algorithm 3 gives ℓ = 1, s = 1: every edge is
        // monochromatic for every slot.
        let hashes = sample_hashes(10, 1, 6, 2);
        let t = VertexSlotTable::build(&hashes, 10).expect("s = 1 still tabulates");
        let mut got = Vec::new();
        t.equal_slots(2, 9, 0, |s| got.push(s));
        assert_eq!(got, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn dispatched_scan_matches_scalar_fallback() {
        // Wide rows (many full 64-lane SIMD windows + a ragged tail) and
        // a tiny range (dense matches) stress the mask-extraction paths
        // the small proptest configurations never reach. The dispatched
        // scan must agree with the portable fallback on slots AND order.
        for (range, slots) in [(4u64, 333usize), (2, 200), (1024, 451)] {
            let n = 40usize;
            let hashes = sample_hashes(n as u64, range, slots, range ^ slots as u64);
            let t = VertexSlotTable::build(&hashes, n).unwrap();
            for (u, v) in [(0u32, 1u32), (5, 39), (7, 7)] {
                for from in [0usize, 1, 63, 64, 65, slots - 1, slots] {
                    let mut simd = Vec::new();
                    t.equal_slots(u, v, from, |s| simd.push(s));
                    let mut scalar = Vec::new();
                    equal_slots_scalar(&t.row(u)[from..], &t.row(v)[from..], from, &mut |s| {
                        scalar.push(s)
                    });
                    assert_eq!(simd, scalar, "u={u} v={v} from={from} slots={slots}");
                }
            }
        }
    }

    #[test]
    fn rejects_out_of_envelope_configs() {
        assert!(VertexSlotTable::build(&[], 10).is_none(), "no hashes");
        let big = sample_hashes(100, (1 << 16) + 1, 3, 5);
        assert!(VertexSlotTable::build(&big, 100).is_none(), "range over u16");
        let mut mixed = sample_hashes(100, 16, 2, 6);
        mixed.push(sample_hashes(100, 32, 1, 6).pop().unwrap());
        assert!(VertexSlotTable::build(&mixed, 100).is_none(), "mixed (p, s)");
        let hashes = sample_hashes(100, 16, 4, 7);
        let too_many_vertices = MAX_TABLE_BYTES / (2 * 4) + 1;
        assert!(VertexSlotTable::build(&hashes, too_many_vertices).is_none(), "memory cap");
    }
}
