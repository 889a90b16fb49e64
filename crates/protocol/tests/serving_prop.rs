//! The load-bearing invariant of the query-serving engine, mirroring
//! `sharding_prop.rs` on the read side: sharded workload answering is
//! *exactly* serial answering. For arbitrary snapshots (including grid
//! frequencies no honest collector would produce), arbitrary mixed-λ
//! workloads, and any shard count, the answer vector is bit-identical —
//! and slicing the same workload into different wire frames never changes
//! it either.

use privmdr_core::snapshot::ModelSnapshot;
use privmdr_core::EstimatorKind;
use privmdr_grid::guideline::Granularities;
use privmdr_grid::pairs::pair_count;
use privmdr_protocol::wire::{AnswerBatch, QueryBatch};
use privmdr_protocol::QueryServer;
use privmdr_query::workload::WorkloadBuilder;
use privmdr_query::RangeQuery;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random but structurally valid snapshot: arbitrary non-negative
/// frequencies (not necessarily normalized or consistent — Algorithm 1
/// must still answer deterministically) over a random pow2 geometry.
fn random_snapshot(d: usize, c_pow: u32, estimator: EstimatorKind, seed: u64) -> ModelSnapshot {
    let c = 1usize << c_pow;
    let mut rng = StdRng::seed_from_u64(seed);
    let g1 = 1usize << rng.random_range(0..=c_pow);
    let g2 = 1usize << rng.random_range(0..=c_pow);
    let one_d = (0..d)
        .map(|_| (0..g1).map(|_| rng.random_range(0.0..0.5)).collect())
        .collect();
    let two_d = (0..pair_count(d))
        .map(|_| (0..g2 * g2).map(|_| rng.random_range(0.0..0.5)).collect())
        .collect();
    ModelSnapshot::from_parts(
        d,
        c,
        Granularities { g1, g2 },
        estimator,
        1e-7,
        50,
        1e-7,
        50,
        one_d,
        two_d,
    )
    .expect("constructed shape is valid")
}

/// A mixed-λ workload covering 1-D lookups, 2-D lookups, and λ>2
/// estimation.
fn mixed_workload(d: usize, c: usize, seed: u64, per_lambda: usize) -> Vec<RangeQuery> {
    let wl = WorkloadBuilder::new(d, c, seed);
    let mut queries = Vec::new();
    for lambda in 1..=d.min(3) {
        queries.extend(wl.random(lambda, 0.6, per_lambda));
    }
    queries
}

proptest! {
    /// Sharded answering ≡ serial answering, bit for bit, for shard counts
    /// {1, 2, 3, 7, max} over one shared server (one shared set of
    /// eagerly built pair caches).
    #[test]
    fn sharded_answering_equals_serial(
        d in 2usize..5,
        c_pow in 2u32..5,
        max_entropy in any::<bool>(),
        per_lambda in 1usize..12,
        seed in any::<u64>(),
    ) {
        let estimator = if max_entropy {
            EstimatorKind::MaxEntropy
        } else {
            EstimatorKind::WeightedUpdate
        };
        let snap = random_snapshot(d, c_pow, estimator, seed);
        let server = QueryServer::new(&snap).unwrap();
        let queries = mixed_workload(d, snap.c, seed ^ 0x51, per_lambda);

        let serial = server.answer_workload(&queries, 1);
        prop_assert_eq!(serial.len(), queries.len());
        let max_shards = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        for shards in [2usize, 3, 7, max_shards] {
            let sharded = server.answer_workload(&queries, shards);
            prop_assert_eq!(serial.len(), sharded.len());
            for (i, (a, b)) in serial.iter().zip(&sharded).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "query {} diverges at {} shards", i, shards
                );
            }
        }
    }

    /// Framing invariance: slicing one workload into request frames of any
    /// batch size, served at any shard count, concatenates to the same
    /// answers as one serial in-process pass — and a fresh server (cold
    /// pair cache) agrees with a warmed one.
    #[test]
    fn frame_splits_and_shards_are_answer_invariant(
        d in 2usize..4,
        batch_size in 1usize..40,
        shards in 1usize..7,
        per_lambda in 1usize..10,
        seed in any::<u64>(),
    ) {
        let snap = random_snapshot(d, 3, EstimatorKind::WeightedUpdate, seed);
        let warm = QueryServer::new(&snap).unwrap();
        let queries = mixed_workload(d, snap.c, seed ^ 0xF1, per_lambda);
        let reference = warm.answer_workload(&queries, 1);

        let cold = QueryServer::new(&snap).unwrap();
        let mut served = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(batch_size) {
            let request = QueryBatch::new(snap.c, chunk.to_vec()).to_bytes();
            let response = cold.serve_frame(&mut request.clone(), shards).unwrap();
            served.extend(AnswerBatch::decode(&mut response.clone()).unwrap().answers);
        }
        prop_assert_eq!(reference.len(), served.len());
        for (i, (a, b)) in reference.iter().zip(&served).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "query {} diverges", i);
        }
    }

    /// Plan invariance (ISSUE 10): the batch planner behind `answer_all` —
    /// pair-grouped rectangles, λ-grouped lane-parallel estimation —
    /// returns exactly what answering each query alone would, for random
    /// snapshots, both estimators, and any workload order. Batching is an
    /// execution strategy, never a semantic one.
    #[test]
    fn planned_batch_equals_per_query_answers(
        d in 2usize..5,
        c_pow in 2u32..5,
        max_entropy in any::<bool>(),
        per_lambda in 1usize..12,
        seed in any::<u64>(),
    ) {
        let estimator = if max_entropy {
            EstimatorKind::MaxEntropy
        } else {
            EstimatorKind::WeightedUpdate
        };
        let snap = random_snapshot(d, c_pow, estimator, seed);
        let server = QueryServer::new(&snap).unwrap();
        let queries = mixed_workload(d, snap.c, seed ^ 0xA7, per_lambda);

        // Per-query reference: one query per call bypasses the planner.
        let reference: Vec<f64> =
            queries.iter().map(|q| server.model().answer(q)).collect();
        let planned = server.answer_workload(&queries, 1);
        prop_assert_eq!(reference.len(), planned.len());
        for (i, (a, b)) in reference.iter().zip(&planned).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "query {} diverges", i);
        }
    }

    /// Reordering the workload permutes the answers with it: the planner's
    /// grouping must scatter every answer back to its own query slot.
    #[test]
    fn planned_answers_follow_their_queries_under_reorder(
        d in 2usize..4,
        per_lambda in 1usize..10,
        rot in 0usize..37,
        seed in any::<u64>(),
    ) {
        let snap = random_snapshot(d, 3, EstimatorKind::WeightedUpdate, seed);
        let server = QueryServer::new(&snap).unwrap();
        let queries = mixed_workload(d, snap.c, seed ^ 0xB3, per_lambda);
        let in_order = server.answer_workload(&queries, 1);

        let rot = rot % queries.len().max(1);
        let mut rotated = queries.clone();
        rotated.rotate_left(rot);
        let answers = server.answer_workload(&rotated, 1);
        for (i, a) in answers.iter().enumerate() {
            let orig = (i + rot) % queries.len();
            prop_assert_eq!(
                a.to_bits(),
                in_order[orig].to_bits(),
                "rotated query {} diverges from original {}", i, orig
            );
        }
    }

    /// Estimator telemetry totals do not depend on how a workload is
    /// answered: shards count λ locally and add once per batch, so the
    /// same workload at 1 and 2 shards, or one query per call, leaves the
    /// same per-λ counts and Weighted-Update sweeps.
    #[test]
    fn telemetry_totals_are_shard_invariant(
        d in 2usize..5,
        per_lambda in 1usize..12,
        seed in any::<u64>(),
    ) {
        let snap = random_snapshot(d, 3, EstimatorKind::WeightedUpdate, seed);
        let queries = mixed_workload(d, snap.c, seed ^ 0x7E, per_lambda);
        let per_query = QueryServer::new(&snap).unwrap();
        for q in &queries {
            per_query.model().answer(q);
        }
        let totals = per_query.estimator_telemetry().unwrap();
        prop_assert_eq!(
            totals.lambda_counts.iter().map(|&(_, n)| n).sum::<u64>(),
            queries.len() as u64
        );
        for shards in [1usize, 2] {
            let server = QueryServer::new(&snap).unwrap();
            server.answer_workload(&queries, shards);
            prop_assert_eq!(&server.estimator_telemetry().unwrap(), &totals, "{} shards", shards);
        }
    }
}
