//! Microbenches for the graph substrate: degeneracy ordering, Turán
//! independent sets, and greedy coloring — the offline subroutines every
//! query path leans on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sc_graph::{
    degeneracy_ordering, generators, greedy_complete, turan_independent_set, Coloring, Edge, Graph,
};
use sc_hash::SplitMix64;

fn bench_degeneracy(c: &mut Criterion) {
    let g = generators::gnp_with_max_degree(2000, 32, 0.2, 1);
    let all: Vec<u32> = (0..2000).collect();
    c.bench_function("degeneracy_ordering_n2000", |b| {
        b.iter(|| degeneracy_ordering(black_box(&g), black_box(&all)))
    });
}

fn bench_turan(c: &mut Criterion) {
    // The end-of-epoch case: |F| ≈ |U| edges.
    let g = generators::gnp_with_max_degree(1000, 4, 0.01, 2);
    let all: Vec<u32> = (0..1000).collect();
    c.bench_function("turan_is_sparse_n1000", |b| {
        b.iter(|| turan_independent_set(black_box(&g), black_box(&all)))
    });
    // Det's commit shape: |U| = 4000 and |F| = 4000 random edges.
    let n = 4000;
    let mut rng = SplitMix64::new(5);
    let mut f = Graph::empty(n);
    while f.m() < n {
        let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        if u != v {
            f.add_edge(Edge::new(u, v));
        }
    }
    let all: Vec<u32> = (0..n as u32).collect();
    c.bench_function("turan_is_det_commit_n4000_f4000", |b| {
        b.iter(|| turan_independent_set(black_box(&f), black_box(&all)))
    });
}

fn bench_greedy(c: &mut Criterion) {
    let g = generators::gnp_with_max_degree(2000, 32, 0.2, 3);
    c.bench_function("greedy_complete_n2000", |b| {
        b.iter(|| {
            let mut coloring = Coloring::empty(2000);
            greedy_complete(black_box(&g), &mut coloring);
            coloring
        })
    });
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("gnp_generator_n1000_d16", |b| {
        b.iter(|| generators::gnp_with_max_degree(black_box(1000), 16, 0.1, 7))
    });
}

criterion_group!(benches, bench_degeneracy, bench_turan, bench_greedy, bench_generator);
criterion_main!(benches);
