//! Algorithm 2 (Weighted Update) vs the Appendix A.8 max-entropy estimator:
//! the design choice the paper justifies by efficiency ("almost the same
//! accuracy while with higher efficiency"). Also the lane-parallel batch
//! estimator on a serving-sized group of same-λ queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use privmdr_core::estimation::{max_entropy, weighted_update, weighted_update_batch, PairAnswer};
use std::hint::black_box;

fn pairs_for(lambda: usize) -> (Vec<PairAnswer>, Vec<f64>) {
    let marginals: Vec<f64> = (0..lambda).map(|i| 0.3 + 0.05 * i as f64).collect();
    let mut pairs = Vec::new();
    for i in 0..lambda {
        for j in (i + 1)..lambda {
            // Mild positive correlation on top of the product.
            let f = (marginals[i] * marginals[j] * 1.2).min(1.0);
            pairs.push(PairAnswer { i, j, f });
        }
    }
    (pairs, marginals)
}

fn bench_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("lambda_estimation");
    for &lambda in &[3usize, 4, 6, 8, 10] {
        let (pairs, marginals) = pairs_for(lambda);
        group.bench_with_input(
            BenchmarkId::new("weighted_update", lambda),
            &pairs,
            |b, pairs| b.iter(|| black_box(weighted_update(lambda, pairs, 1e-7, 100))),
        );
        group.bench_with_input(
            BenchmarkId::new("max_entropy", lambda),
            &pairs,
            |b, pairs| b.iter(|| black_box(max_entropy(lambda, pairs, &marginals, 1e-7, 100))),
        );
    }
    group.finish();
}

/// Queries in one batch case: the per-shard λ-group size of a 1024-query
/// frame split over 2 shards and 4 λ values.
const BATCH_QUERIES: usize = 128;

/// Deterministic value in [0, 1) from two coordinates (splitmix-style mix).
fn unit(a: u64, b: u64) -> f64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// `BATCH_QUERIES` rows of `(λ choose 2)` pair answers with mixed
/// convergence: uniform random targets, which stop after varied sweep
/// counts, and every fourth row near-one targets, the slowest to settle
/// (at λ = 5 they run to the sweep cap of 100).
fn batch_inputs(lambda: usize) -> (Vec<(usize, usize)>, Vec<f64>) {
    let pairs: Vec<(usize, usize)> = (0..lambda)
        .flat_map(|i| ((i + 1)..lambda).map(move |j| (i, j)))
        .collect();
    let mut fs = Vec::with_capacity(BATCH_QUERIES * pairs.len());
    for q in 0..BATCH_QUERIES as u64 {
        for p in 0..pairs.len() as u64 {
            let u = unit(q, p);
            fs.push(if q % 4 == 0 { 0.8 + 0.2 * u } else { u });
        }
    }
    (pairs, fs)
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_update_batch");
    group.throughput(Throughput::Elements(BATCH_QUERIES as u64));
    for lambda in [3usize, 4, 5] {
        let (pairs, fs) = batch_inputs(lambda);
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &fs, |b, fs| {
            b.iter(|| black_box(weighted_update_batch(lambda, &pairs, fs, 1e-7, 100)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimators, bench_batch);
criterion_main!(benches);
