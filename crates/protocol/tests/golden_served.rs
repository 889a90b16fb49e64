//! Seeded golden regression for the *multi-tenant served* path: the
//! pinned streaming session of `golden_stream.rs`, but with every epoch
//! cut published to a `ServedNode` through session-open frames and the
//! twelve fixed queries routed (cold, then warm from cache) after each
//! hot-swap. The decoded answer frames must reproduce the same exact
//! `f64` constants — the serving tier (registry, swap, LRU cache, session
//! envelope, answer framing) can never move an answer by even one bit
//! relative to answering the snapshot directly.
//!
//! Scenario and constants are duplicated from `golden_stream.rs`
//! deliberately: if they are re-recorded there, re-record them here too.

use bytes::BytesMut;
use privmdr_data::DatasetSpec;
use privmdr_oracles::OraclePolicy;
use privmdr_protocol::wire::{AnswerBatch, QueryBatch};
use privmdr_protocol::{
    encode_session_open, encode_session_route, ApproachKind, Batch, ClientFactory, EpochCollector,
    ServedNode, ServedStats, SessionPlan,
};
use privmdr_query::RangeQuery;
use privmdr_util::rng::derive_rng;

/// The pinned `--oracle auto` session of `golden_stream.rs`: n=40_000,
/// d=3, c=16, ε=1.0, Normal(ρ=0.8) data at seed 24, client randomness
/// from seed 7, epochs of 13_334 reports arriving in 10_000-report
/// frames.
const N: usize = 40_000;
const C: usize = 16;
const EPOCH_EVERY: u64 = 13_334;
const BATCH_SIZE: usize = 10_000;
/// The session id the epochs are served under (arbitrary, non-zero so the
/// envelope's id byte-order is actually exercised).
const SESSION: u64 = 0xD00D;

fn fixed_queries() -> Vec<RangeQuery> {
    [
        &[(0usize, 0usize, 7usize)][..],
        &[(1, 2, 9)],
        &[(2, 10, 15)],
        &[(0, 0, 7), (1, 0, 7)],
        &[(0, 2, 13), (2, 3, 8)],
        &[(1, 4, 11), (2, 0, 15)],
        &[(0, 0, 15), (1, 0, 15)],
        &[(0, 8, 8), (2, 4, 4)],
        &[(0, 0, 7), (1, 0, 7), (2, 0, 7)],
        &[(0, 1, 14), (1, 3, 10), (2, 5, 12)],
        &[(1, 0, 3), (2, 12, 15)],
        &[(0, 5, 10), (1, 5, 10), (2, 5, 10)],
    ]
    .iter()
    .map(|triples| RangeQuery::from_triples(triples, C).unwrap())
    .collect()
}

/// `golden_stream.rs`'s recorded per-epoch answers (full round-trip
/// precision). Row `k` is the cumulative epoch-`k+1` snapshot.
const GOLDEN: [[f64; 12]; 3] = [
    [
        0.48195632686623563,
        0.8608758663288896,
        0.19489311940228496,
        0.39213370616589105,
        0.684675314116644,
        0.8495184604784956,
        1.0,
        0.0,
        0.2450106451690392,
        0.6622593330885514,
        0.003862211057258716,
        0.46993373231716506,
    ],
    [
        0.468008525871858,
        0.7929860111891511,
        0.15865789011993112,
        0.37843785418419906,
        0.6171639780079602,
        0.8840456847461609,
        1.0,
        0.0008955441769833289,
        0.234908357561491,
        0.6265418509277557,
        0.0005382495246154251,
        0.45061147242337435,
    ],
    [
        0.4793604279787603,
        0.8032647056512563,
        0.16273930353724242,
        0.377042927689223,
        0.6553007123189819,
        0.9010661117855181,
        1.0,
        0.0027526219047463024,
        0.23248043478561542,
        0.6186042442396936,
        0.0004242215545043129,
        0.44406558809019747,
    ],
];

#[test]
fn served_session_answers_exact_golden_values_across_epoch_swaps() {
    let plan = SessionPlan::with_mechanism(N, 3, C, 1.0, 24, OraclePolicy::Auto, ApproachKind::Hdg)
        .unwrap();
    let ds = DatasetSpec::Normal { rho: 0.8 }.generate(N, 3, C, 24);
    let factory = ClientFactory::new(&plan).unwrap();
    let mut rng = derive_rng(7, &[0x60]);
    let reports: Vec<_> = (0..N as u64)
        .map(|uid| {
            factory
                .client(uid)
                .report(ds.row(uid as usize), &mut rng)
                .unwrap()
        })
        .collect();
    let mut wire = BytesMut::new();
    for chunk in reports.chunks(BATCH_SIZE) {
        Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut wire);
    }
    let wire = wire.freeze();

    // Collect the three epoch cuts, then replay them as a served session:
    // each epoch's snapshot published via a session-open frame followed by
    // the fixed workload routed twice (cold fill, then warm from cache).
    let mut streaming = EpochCollector::new(plan).unwrap();
    let mut cuts = Vec::new();
    streaming
        .ingest_stream_epochs(&wire, 1, EPOCH_EVERY, |cut| cuts.push(cut))
        .unwrap();
    cuts.push(streaming.cut_epoch().unwrap());
    assert_eq!(cuts.len(), 3);

    let queries = fixed_queries();
    let batch = QueryBatch::new(C, queries.clone());
    let mut stream = BytesMut::new();
    for cut in &cuts {
        encode_session_open(SESSION, &cut.snapshot, &mut stream);
        encode_session_route(SESSION, &batch, &mut stream);
        encode_session_route(SESSION, &batch, &mut stream);
    }
    let stream = stream.freeze();

    // The golden values must hold for serial and sharded serving alike —
    // the served tier rides the same sharded ≡ serial invariant.
    for shards in [1usize, 4] {
        let node = ServedNode::new(256, shards);
        let mut responses: Vec<Vec<f64>> = Vec::new();
        let stats = node
            .serve_stream(stream.clone(), |session, resp| {
                assert_eq!(session, SESSION);
                responses.push(AnswerBatch::decode(&mut resp.clone()).unwrap().answers);
            })
            .unwrap();
        assert_eq!(
            stats,
            ServedStats {
                opens: 3,
                swaps: 2,
                routes: 6,
                answers: 72,
            }
        );

        // Responses 2k (cold) and 2k+1 (warm) both pin to epoch k+1's row.
        for (epoch, golden_row) in GOLDEN.iter().enumerate() {
            for heat in ["cold", "warm"] {
                let got = &responses[2 * epoch + usize::from(heat == "warm")];
                assert_eq!(got.len(), 12);
                for (i, (g, want)) in got.iter().zip(golden_row.iter()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "epoch {} query {i} ({}) {heat} at {shards} shard(s): \
                         got {g:?}, golden {want:?}",
                        epoch + 1,
                        queries[i]
                    );
                }
            }
        }
        // Every warm route was answered entirely from the cache, and each
        // swap invalidated it (misses on each epoch's cold route).
        let totals = node.registry().cache_stats_total();
        assert_eq!(totals.hits, 36);
        assert_eq!(totals.misses, 36);
        // Publishing three distinct epochs left the tenant at version 3.
        let tenant = node.registry().get(SESSION).unwrap();
        assert_eq!(tenant.current().version, 3);
    }
}
