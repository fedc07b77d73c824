//! Batched vs per-edge ingestion through the stream engine.
//!
//! The engine's whole point is that `process_batch` amortizes hashing and
//! candidate-census work per chunk; this bench quantifies the win on
//! `gnp_with_max_degree` streams for the colorers with real batched
//! implementations, sweeping chunk sizes (1 = the old per-edge path).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_graph::generators;
use sc_stream::{EngineConfig, SignedEdge, StreamEngine};
use streamcolor::{Bg18Colorer, RandEfficientColorer, RobustColorer};

fn bench_ingestion_chunks(c: &mut Criterion) {
    let n = 2000;
    let delta = 32;
    let g = generators::gnp_with_max_degree(n, delta, 0.4, 1);
    let tokens: Vec<SignedEdge> =
        generators::shuffled_edges(&g, 1).into_iter().map(SignedEdge::insert).collect();
    let mut group = c.benchmark_group("engine_ingest_alg2");
    group.sample_size(10);
    for chunk in [1usize, 16, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("chunk", chunk), &chunk, |b, &chunk| {
            let engine = StreamEngine::new(EngineConfig::batched(chunk));
            b.iter(|| {
                let mut colorer = RobustColorer::new(n, delta, 7);
                engine.run(&mut colorer, black_box(&tokens))
            })
        });
    }
    group.finish();
}

fn bench_batched_vs_per_edge(c: &mut Criterion) {
    let n = 2000;
    let delta = 32;
    let g = generators::gnp_with_max_degree(n, delta, 0.4, 2);
    let tokens: Vec<SignedEdge> =
        generators::shuffled_edges(&g, 2).into_iter().map(SignedEdge::insert).collect();
    let per_edge = StreamEngine::new(EngineConfig::per_edge());
    let batched = StreamEngine::new(EngineConfig::batched(256));

    let mut group = c.benchmark_group("engine_ingest");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("alg2", "per-edge"), |b| {
        b.iter(|| per_edge.run(&mut RobustColorer::new(n, delta, 7), black_box(&tokens)))
    });
    group.bench_function(BenchmarkId::new("alg2", "batched-256"), |b| {
        b.iter(|| batched.run(&mut RobustColorer::new(n, delta, 7), black_box(&tokens)))
    });
    group.bench_function(BenchmarkId::new("alg3", "per-edge"), |b| {
        b.iter(|| per_edge.run(&mut RandEfficientColorer::new(n, delta, 7), black_box(&tokens)))
    });
    group.bench_function(BenchmarkId::new("alg3", "batched-256"), |b| {
        b.iter(|| batched.run(&mut RandEfficientColorer::new(n, delta, 7), black_box(&tokens)))
    });
    group.bench_function(BenchmarkId::new("bg18", "per-edge"), |b| {
        b.iter(|| per_edge.run(&mut Bg18Colorer::new(n, delta as u64, 7), black_box(&tokens)))
    });
    group.bench_function(BenchmarkId::new("bg18", "batched-256"), |b| {
        b.iter(|| batched.run(&mut Bg18Colorer::new(n, delta as u64, 7), black_box(&tokens)))
    });
    group.finish();
}

criterion_group!(benches, bench_batched_vs_per_edge, bench_ingestion_chunks);
criterion_main!(benches);
