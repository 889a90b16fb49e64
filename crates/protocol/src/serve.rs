//! The query-serving engine: answering framed workloads against a snapshot.
//!
//! Ingestion ends with a finalized fit; everything after that is read-only
//! traffic. A [`QueryServer`] restores a `privmdr_core` model from a
//! [`ModelSnapshot`] once, then answers query batches — framed
//! ([`QueryBatch`] in, [`AnswerBatch`] out) or in-process — sharding each
//! batch across threads via `privmdr_util::par`.
//!
//! # Why sharded answering is bit-identical to serial
//!
//! Answering is pure: each query reads the fitted grids and response
//! matrices and writes nothing (paper §4.4 — answering consumes no budget
//! and touches no per-user state). Shards are contiguous chunks of the
//! batch ([`split_chunks`]), answered independently and concatenated in
//! order, so the output vector is a permutation-free reassembly of the
//! serial pass. All per-pair answering state (response matrices, prefix
//! sums) is built eagerly when the snapshot is restored and immutable
//! afterwards, so the hot path holds no lock and shares only read-only
//! data. Each shard counts its estimator telemetry locally and adds it to
//! the model's relaxed-atomic totals once per batch, so the totals do not
//! depend on the shard count and no counter is shared per query. Within
//! each shard the model's batch planner regroups the chunk by shape
//! (pair-grouped rectangles, λ-grouped lane-parallel estimation) — an
//! execution strategy proven answer-preserving, never a semantic change.
//! The serving property suite (`tests/serving_prop.rs`) pins all of this
//! down for arbitrary snapshots, workloads, plans, and shard counts.

use crate::wire::{AnswerBatch, QueryBatch};
use crate::ProtocolError;
use bytes::{Buf, Bytes};
use privmdr_core::{ApproachKind, EstimatorTelemetry, Model, ModelSnapshot};
use privmdr_query::RangeQuery;
use privmdr_util::par::{par_map, split_chunks};

/// A query-answering service over one restored model snapshot (HDG or
/// TDG — the snapshot's approach discriminant picks the answerer).
pub struct QueryServer {
    model: Box<dyn Model>,
    approach: ApproachKind,
    d: usize,
    c: usize,
}

impl QueryServer {
    /// Restores the snapshot into an answerer of the snapshot's approach.
    /// The snapshot's grids are used verbatim (no re-post-processing), so
    /// answers are bit-identical to the fit the snapshot captured.
    pub fn new(snapshot: &ModelSnapshot) -> Result<Self, ProtocolError> {
        let model = snapshot
            .to_model()
            .map_err(|e| ProtocolError::BadPlan(e.to_string()))?;
        Ok(QueryServer {
            model,
            approach: snapshot.approach,
            d: snapshot.d,
            c: snapshot.c,
        })
    }

    /// The estimation approach the restored model answers with.
    pub fn approach(&self) -> ApproachKind {
        self.approach
    }

    /// Number of attributes the model covers.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Attribute domain size.
    pub fn domain(&self) -> usize {
        self.c
    }

    /// Direct access to the restored model (diagnostics, tests).
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Cumulative estimator telemetry of the restored model (per-λ query
    /// counts and Weighted-Update sweeps); `None` for models without a
    /// λ-estimation stage.
    pub fn estimator_telemetry(&self) -> Option<EstimatorTelemetry> {
        self.model.estimator_telemetry()
    }

    /// Validates that every query fits the model's schema (domain `c`
    /// already checked at query construction; attributes must exist).
    fn check_queries(&self, queries: &[RangeQuery]) -> Result<(), ProtocolError> {
        if queries.iter().any(|q| q.attrs().any(|attr| attr >= self.d)) {
            return Err(ProtocolError::Malformed(
                "query references an attribute outside the model",
            ));
        }
        Ok(())
    }

    /// Answers a workload, sharding it across up to `shards` threads
    /// (`shards <= 1` answers serially on the calling thread). Answers come
    /// back in query order and are bit-identical for every shard count.
    pub fn answer_workload(&self, queries: &[RangeQuery], shards: usize) -> Vec<f64> {
        if shards <= 1 || queries.len() < 2 {
            return self.model.answer_all(queries);
        }
        let chunks = split_chunks(queries, shards);
        par_map(&chunks, |chunk| self.model.answer_all(chunk)).concat()
    }

    /// Serves one framed request: decodes a [`QueryBatch`] from `buf`,
    /// validates it against the model schema, answers it across `shards`
    /// threads, and returns the encoded [`AnswerBatch`].
    pub fn serve_frame(&self, buf: &mut impl Buf, shards: usize) -> Result<Bytes, ProtocolError> {
        let batch = QueryBatch::decode(buf)?;
        if batch.c != self.c {
            return Err(ProtocolError::Malformed(
                "query batch domain does not match the model",
            ));
        }
        self.check_queries(&batch.queries)?;
        Ok(AnswerBatch::new(self.answer_workload(&batch.queries, shards)).to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmdr_core::Hdg;
    use privmdr_data::DatasetSpec;
    use privmdr_query::workload::WorkloadBuilder;

    fn server() -> QueryServer {
        let ds = DatasetSpec::Normal { rho: 0.6 }.generate(20_000, 3, 16, 7);
        let snap = Hdg::default().snapshot(&ds, 1.0, 3).unwrap();
        QueryServer::new(&snap).unwrap()
    }

    #[test]
    fn serves_frames_matching_direct_answers() {
        let srv = server();
        let wl = WorkloadBuilder::new(3, 16, 5);
        let mut queries = wl.random(1, 0.5, 10);
        queries.extend(wl.random(2, 0.5, 10));
        queries.extend(wl.random(3, 0.5, 10));
        let direct = srv.answer_workload(&queries, 1);

        let request = QueryBatch::new(16, queries).to_bytes();
        let response = srv.serve_frame(&mut request.clone(), 4).unwrap();
        let answers = AnswerBatch::decode(&mut response.clone()).unwrap().answers;
        assert_eq!(answers.len(), 30);
        for (a, b) in answers.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sharded_answers_match_serial() {
        let srv = server();
        let queries = WorkloadBuilder::new(3, 16, 9).random(2, 0.4, 64);
        let serial = srv.answer_workload(&queries, 1);
        for shards in [2usize, 3, 7, 64] {
            let sharded = srv.answer_workload(&queries, shards);
            assert_eq!(serial.len(), sharded.len());
            for (a, b) in serial.iter().zip(&sharded) {
                assert_eq!(a.to_bits(), b.to_bits(), "diverges at {shards} shards");
            }
        }
    }

    #[test]
    fn rejects_schema_violations() {
        let srv = server();
        // Domain mismatch.
        let wrong_domain = QueryBatch::new(
            32,
            vec![RangeQuery::from_triples(&[(0, 0, 31)], 32).unwrap()],
        )
        .to_bytes();
        assert!(srv.serve_frame(&mut wrong_domain.clone(), 1).is_err());
        // Unknown attribute.
        let bad_attr = QueryBatch::new(
            16,
            vec![RangeQuery::from_triples(&[(9, 0, 3)], 16).unwrap()],
        )
        .to_bytes();
        assert!(srv.serve_frame(&mut bad_attr.clone(), 1).is_err());
        // Garbage request.
        assert!(srv.serve_frame(&mut &[0xFFu8; 12][..], 1).is_err());
    }
}
