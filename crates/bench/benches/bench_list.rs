//! Benches for Theorem 2's list-coloring: full runs plus the ablation over
//! the partition-candidate count (Lemma 3.10 selection quality vs cost:
//! the strided sample that stands in for the full partition family).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_graph::generators;
use sc_stream::StoredStream;
use streamcolor::listcolor::PartitionSearch;
use streamcolor::{list_coloring, ListConfig};

fn bench_list_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_coloring");
    group.sample_size(10);
    let n = 256;
    for delta in [8usize, 16] {
        let g = generators::random_with_exact_max_degree(n, delta, 3);
        let lists = generators::random_deg_plus_one_lists(&g, 4 * delta as u64, 5);
        let stream = StoredStream::from_graph_with_lists(&g, &lists);
        group.bench_with_input(BenchmarkId::new("n256", delta), &delta, |b, &delta| {
            b.iter(|| list_coloring(&stream, n, delta, 4 * delta as u64, &ListConfig::default()))
        });
    }
    group.finish();
}

fn bench_partition_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_partition_candidates");
    group.sample_size(10);
    let n = 256;
    let delta = 12;
    let g = generators::random_with_exact_max_degree(n, delta, 4);
    let lists = generators::random_deg_plus_one_lists(&g, 64, 6);
    let stream = StoredStream::from_graph_with_lists(&g, &lists);
    for cands in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("sampled", cands), &cands, |b, &cands| {
            let cfg = ListConfig { partition_search: PartitionSearch::Sampled(cands) };
            b.iter(|| list_coloring(&stream, n, delta, 64, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_list_runs, bench_partition_ablation);
criterion_main!(benches);
