//! Seeded golden regression for the *streaming* protocol path: the same
//! pinned `--oracle auto` session as `golden_auto.rs`, but replayed as a
//! framed report stream through an `EpochCollector` that cuts three
//! epochs. Each epoch's cumulative snapshot must answer twelve fixed
//! queries to these exact `f64` constants — identical in debug and
//! release builds and at 1 and 4 shards — so the streaming layer can
//! never silently diverge from the one-shot path it is proven (in
//! `epoch_prop.rs`) to equal.
//!
//! If a change is *supposed* to alter estimates, re-record the constants
//! (the assert message prints the observed value with full round-trip
//! precision).

use bytes::BytesMut;
use privmdr_data::DatasetSpec;
use privmdr_oracles::{OracleChoice, OraclePolicy};
use privmdr_protocol::{ApproachKind, Batch, ClientFactory, EpochCollector, SessionPlan};
use privmdr_query::RangeQuery;
use privmdr_util::rng::derive_rng;

/// The pinned scenario: n=40_000 users, d=3, c=16, ε=1.0, Normal(ρ=0.8)
/// data at seed 24, client randomness derived from seed 7 — exactly
/// `golden_auto.rs`, whose adaptive rule sends the 2-D groups to GRR and
/// the 1-D groups to OLH. The stream arrives as 10_000-report batch
/// frames, deliberately misaligned with the 13_334-report epoch size, so
/// every epoch boundary splits a wire frame.
const N: usize = 40_000;
const C: usize = 16;
const EPOCH_EVERY: u64 = 13_334;
const BATCH_SIZE: usize = 10_000;

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

/// Recorded per-epoch answers of the pinned streamed session (full
/// round-trip precision), identical in debug and release builds. Row `k`
/// is the cumulative epoch-`k+1` snapshot (13_334 / 26_668 / 40_000
/// reports).
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
    // Epoch 3 covers the full 40_000-report session, so its first ten
    // answers coincide with `golden_auto.rs`'s one-shot constants —
    // streamed-cumulative ≡ one-shot, pinned at the bit level.
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
fn streamed_auto_session_answers_exact_golden_values_per_epoch() {
    let plan = SessionPlan::with_mechanism(N, 3, C, 1.0, 24, OraclePolicy::Auto, ApproachKind::Hdg)
        .unwrap();
    // The scenario only pins the adaptive path if the rule actually mixes
    // oracles (as in `golden_auto.rs`).
    for group in 0..3u32 {
        assert_eq!(plan.group_oracle(group).unwrap().kind(), OracleChoice::Olh);
        assert_eq!(
            plan.group_oracle(group + 3).unwrap().kind(),
            OracleChoice::Grr
        );
    }

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

    let queries = fixed_queries();
    // The golden values must hold for the serial AND the sharded streaming
    // engine — epoch cuts ride the same sharded ≡ serial invariant.
    for shards in [1usize, 4] {
        let mut streaming = EpochCollector::new(plan.clone()).unwrap();
        let mut cuts = Vec::new();
        let n = streaming
            .ingest_stream_epochs(&wire, shards, EPOCH_EVERY, |cut| cuts.push(cut))
            .unwrap();
        assert_eq!(n, N);
        // The stream ends mid-epoch-3; seal it explicitly.
        cuts.push(streaming.cut_epoch().unwrap());
        assert_eq!(cuts.len(), 3);
        assert_eq!(cuts[0].total_reports, EPOCH_EVERY);
        assert_eq!(cuts[1].total_reports, 2 * EPOCH_EVERY);
        assert_eq!(cuts[2].total_reports, N as u64);

        for (cut, golden_row) in cuts.iter().zip(GOLDEN.iter()) {
            let model = cut.snapshot.to_model().unwrap();
            for (i, (q, &want)) in queries.iter().zip(golden_row.iter()).enumerate() {
                let got = model.answer(q);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "epoch {} query {i} ({q}) at {shards} shard(s): got {got:?}, golden {want:?}",
                    cut.epoch
                );
            }
        }
    }
}
