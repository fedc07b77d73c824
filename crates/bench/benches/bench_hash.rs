//! Microbenches for the hashing substrate: family evaluation throughput
//! and prime search (the per-edge inner loops of every algorithm).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sc_hash::{
    AffineFamily, OracleFn, PolynomialFamily, SplitMix64, TwoUniversalFamily, VertexSlotTable,
};

fn bench_affine(c: &mut Criterion) {
    let fam = AffineFamily::new(sc_hash::next_prime(1 << 20));
    let h = fam.member(12345, 67890);
    c.bench_function("affine_eval", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for z in 0..1000u64 {
                acc ^= h.eval(black_box(z));
            }
            acc
        })
    });
}

fn bench_two_universal(c: &mut Criterion) {
    let fam = TwoUniversalFamily::for_domain(1 << 20, 64);
    let h = fam.member(999);
    c.bench_function("two_universal_eval", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for z in 0..1000u64 {
                acc ^= h.eval(black_box(z));
            }
            acc
        })
    });
}

fn bench_polynomial(c: &mut Criterion) {
    let fam = PolynomialFamily::for_domain(1 << 20, 4096, 4);
    let h = fam.sample(&mut SplitMix64::new(1));
    c.bench_function("poly4_eval", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for z in 0..1000u64 {
                acc ^= h.eval(black_box(z));
            }
            acc
        })
    });
}

/// Batched tier of the same degree-4 polynomial over the same 1000
/// points as `poly4_eval` — the direct scalar-vs-batched comparison for
/// alg3's ingest hashing.
fn bench_polynomial_batch(c: &mut Criterion) {
    let fam = PolynomialFamily::for_domain(1 << 20, 4096, 4);
    let h = fam.sample(&mut SplitMix64::new(1));
    let xs: Vec<u32> = (0..1000u32).collect();
    let mut out = vec![0u64; xs.len()];
    c.bench_function("poly4_eval_batch", |b| {
        b.iter(|| {
            h.eval_batch(black_box(&xs), &mut out);
            out[999]
        })
    });
}

/// Table tier: build cost (paid once per alg3 colorer) and the per-edge
/// row scan that replaces 2·slots polynomial evaluations at ingest.
fn bench_slot_table(c: &mut Criterion) {
    let n = 4096usize;
    let slots = 64usize;
    let fam = PolynomialFamily::for_domain(n as u64, 4096, 4);
    let mut rng = SplitMix64::new(2);
    let hashes: Vec<_> = (0..slots).map(|_| fam.sample(&mut rng)).collect();
    c.bench_function("slot_table_build_64x4096", |b| {
        b.iter(|| VertexSlotTable::build(black_box(&hashes), n).expect("fits").bytes())
    });
    let table = VertexSlotTable::build(&hashes, n).expect("fits");
    c.bench_function("slot_table_scan_1000_edges", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in 1..1001u32 {
                table.equal_slots(black_box(0), black_box(v), 0, |s| acc ^= s);
            }
            acc
        })
    });
    // The scalar work the scan replaces: 2 evals × 64 slots × 1000 edges.
    c.bench_function("scalar_scan_1000_edges", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in 1..1001u32 {
                for (s, h) in hashes.iter().enumerate() {
                    if h.eval(0) == h.eval(black_box(v) as u64) {
                        acc ^= s;
                    }
                }
            }
            acc
        })
    });
}

fn bench_oracle(c: &mut Criterion) {
    let f = OracleFn::new(7, 3, 4096);
    c.bench_function("oracle_eval", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for z in 0..1000u64 {
                acc ^= f.eval(black_box(z));
            }
            acc
        })
    });
}

/// Batched tier of the same oracle over the same 1000 points as
/// `oracle_eval` — the scalar-vs-batched comparison for alg2's sketches.
fn bench_oracle_batch(c: &mut Criterion) {
    let f = OracleFn::new(7, 3, 4096);
    let xs: Vec<u32> = (0..1000u32).collect();
    let mut out = vec![0u64; xs.len()];
    c.bench_function("oracle_eval_batch", |b| {
        b.iter(|| {
            f.eval_batch(black_box(&xs), &mut out);
            out[999]
        })
    });
}

fn bench_prime_search(c: &mut Criterion) {
    c.bench_function("prime_in_range_8nlogn", |b| {
        b.iter(|| sc_hash::prime_in_range(black_box(8 * 4096 * 12), 16 * 4096 * 12))
    });
}

criterion_group!(
    benches,
    bench_affine,
    bench_two_universal,
    bench_polynomial,
    bench_polynomial_batch,
    bench_slot_table,
    bench_oracle,
    bench_oracle_batch,
    bench_prime_search
);
criterion_main!(benches);
