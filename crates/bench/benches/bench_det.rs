//! Benches for Algorithm 1 (Theorem 1): full runs and the dominant
//! per-stage tournament cost, across derandomization grid sizes — the
//! `l × l` grid that stands in for the full `p²` family
//! (`DerandStrategy`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_graph::generators;
use sc_stream::StoredStream;
use streamcolor::{deterministic_coloring, DetConfig};

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("det_coloring");
    group.sample_size(10);
    for delta in [8usize, 32] {
        let n = 512;
        let g = generators::random_with_exact_max_degree(n, delta, 1);
        let stream = StoredStream::from_edges(generators::shuffled_edges(&g, 1));
        group.bench_with_input(BenchmarkId::new("n512", delta), &delta, |b, &delta| {
            b.iter(|| deterministic_coloring(&stream, n, delta, &DetConfig::default()))
        });
    }
    group.finish();
}

fn bench_grid_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("det_grid_ablation");
    group.sample_size(10);
    let n = 512;
    let delta = 16;
    let g = generators::random_with_exact_max_degree(n, delta, 2);
    let stream = StoredStream::from_edges(generators::shuffled_edges(&g, 2));
    for l in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("grid_l", l), &l, |b, &l| {
            b.iter(|| deterministic_coloring(&stream, n, delta, &DetConfig::with_grid(l)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_runs, bench_grid_ablation);
criterion_main!(benches);
