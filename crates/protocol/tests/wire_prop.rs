//! Property tests for the wire format: report batches round-trip arbitrary
//! report contents, and no byte garbage — truncated, corrupted, or lying
//! about its length — can panic a decoder. Malformed input must always
//! surface as a `ProtocolError`.

use bytes::{BufMut, BytesMut};
use privmdr_core::snapshot::ModelSnapshot;
use privmdr_core::EstimatorKind;
use privmdr_grid::guideline::Granularities;
use privmdr_grid::pairs::pair_count;
use privmdr_protocol::stream::{
    collector_state_encoded_len, collector_state_to_bytes, decode_collector_state,
    COLLECTOR_STATE_GROUP_HEADER_LEN, COLLECTOR_STATE_HEADER_LEN, COLLECTOR_STATE_TAG,
    COLLECTOR_STATE_VERSION,
};
use privmdr_protocol::wire::{
    decode_snapshot, snapshot_encoded_len, snapshot_to_bytes, AnswerBatch, Batch, QueryBatch,
    BATCH_HEADER_LEN, REPORT_BODY_LEN, SNAPSHOT_HEADER_LEN,
};
use privmdr_protocol::{ApproachKind, Collector, MechanismTag, OraclePolicy, Report, SessionPlan};
use privmdr_query::RangeQuery;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_report() -> impl Strategy<Value = Report> {
    (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(group, seed, y)| Report {
        group,
        seed,
        y: y as u64,
    })
}

/// Any integer-oracle (narrow, version 2) mechanism tag.
fn arb_narrow_tag() -> impl Strategy<Value = MechanismTag> {
    (0usize..3, 0usize..3).prop_map(|(o, a)| MechanismTag {
        oracle: [OraclePolicy::Olh, OraclePolicy::Grr, OraclePolicy::Auto][o],
        approach: [ApproachKind::Hdg, ApproachKind::Tdg, ApproachKind::Msw][a],
    })
}

const OLH_HDG: MechanismTag = MechanismTag {
    oracle: OraclePolicy::Olh,
    approach: ApproachKind::Hdg,
};

/// Reports whose `y` spans the full u64 range (raw f64 bit patterns) —
/// only encodable through the wide (version 3) framing.
fn arb_wide_report() -> impl Strategy<Value = Report> {
    (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(group, seed, y)| Report {
        group,
        seed,
        y,
    })
}

/// A structurally valid snapshot with seed-derived geometry and finite but
/// otherwise arbitrary frequencies (negative and huge values included —
/// the wire layer must carry them bit-exactly).
fn snapshot_from_seed(d: usize, c_pow: u32, seed: u64) -> ModelSnapshot {
    let c = 1usize << c_pow;
    let mut rng = StdRng::seed_from_u64(seed);
    let g1 = 1usize << rng.random_range(0..=c_pow);
    let g2 = 1usize << rng.random_range(0..=c_pow);
    let mut value = |_: usize| -> f64 { rng.random_range(-1e9..1e9) };
    let one_d = (0..d).map(|_| (0..g1).map(&mut value).collect()).collect();
    let two_d = (0..pair_count(d))
        .map(|_| (0..g2 * g2).map(&mut value).collect())
        .collect();
    ModelSnapshot::from_parts(
        d,
        c,
        Granularities { g1, g2 },
        if seed.is_multiple_of(2) {
            EstimatorKind::WeightedUpdate
        } else {
            EstimatorKind::MaxEntropy
        },
        rng.random_range(0.0..1.0),
        rng.random_range(0..1000),
        rng.random_range(0.0..1.0),
        rng.random_range(0..1000),
        one_d,
        two_d,
    )
    .expect("constructed shape is valid")
}

/// A collector with seed-derived mechanism and arbitrary (not necessarily
/// honest) ingested reports — the source material for `CollectorState`
/// frame properties.
fn collector_from_seed(d: usize, seed: u64) -> Collector {
    let mut rng = StdRng::seed_from_u64(seed);
    let oracle = [
        OraclePolicy::Olh,
        OraclePolicy::Grr,
        OraclePolicy::Auto,
        OraclePolicy::Wheel,
        OraclePolicy::Sw,
    ][rng.random_range(0..5usize)];
    let approach =
        [ApproachKind::Hdg, ApproachKind::Tdg, ApproachKind::Msw][rng.random_range(0..3usize)];
    let plan = SessionPlan::with_mechanism(50_000, d, 16, 1.0, seed, oracle, approach).unwrap();
    let reports: Vec<Report> = (0..rng.random_range(0..160usize))
        .map(|_| Report {
            group: rng.random_range(0..plan.group_count() as u32),
            seed: rng.random(),
            y: rng.random_range(0..64),
        })
        .collect();
    let mut collector = Collector::new(plan).unwrap();
    collector.ingest_batch(&reports, 1).unwrap();
    collector
}

/// Every report count and support counter of `collector`, total first.
fn all_counts(collector: &Collector) -> Vec<u64> {
    let mut counts = vec![collector.report_count()];
    for g in 0..collector.plan().group_count() as u32 {
        let (supports, reports) = collector.group_state(g).unwrap();
        counts.push(reports);
        counts.extend_from_slice(supports);
    }
    counts
}

fn assert_untouched(dst: &Collector, before: &Collector) -> Result<(), TestCaseError> {
    prop_assert_eq!(dst.report_count(), before.report_count());
    for g in 0..dst.plan().group_count() as u32 {
        prop_assert_eq!(dst.group_state(g).unwrap(), before.group_state(g).unwrap());
    }
    Ok(())
}

/// A batch of seed-derived valid queries over domain `c`.
fn query_batch_from_seed(c: usize, count: usize, seed: u64) -> QueryBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..count)
        .map(|_| {
            let lambda = rng.random_range(1..=4usize);
            let triples: Vec<(usize, usize, usize)> = (0..lambda)
                .map(|i| {
                    let (a, b) = (rng.random_range(0..c), rng.random_range(0..c));
                    (i * 7 + rng.random_range(0..3usize), a.min(b), a.max(b))
                })
                .collect();
            RangeQuery::from_triples(&triples, c).expect("distinct attrs, valid intervals")
        })
        .collect();
    QueryBatch::new(c, queries)
}

proptest! {
    /// A one-report batch round-trips arbitrary report contents and its
    /// mechanism tag.
    #[test]
    fn report_roundtrip(
        group in any::<u32>(),
        seed in any::<u64>(),
        y in any::<u32>(),
        tag in arb_narrow_tag(),
    ) {
        let r = Report { group, seed, y: y as u64 };
        let (back, back_tag) = Batch::decode_stream_tagged(Batch::tagged(vec![r], tag).to_bytes())
            .unwrap();
        prop_assert_eq!(back, vec![r]);
        prop_assert_eq!(back_tag, Some(tag));
    }

    /// Wide (version 3) frames round-trip the full 64-bit `y` exactly, as
    /// one frame or split over two, for both float-carrying oracle
    /// discriminants.
    #[test]
    fn wide_report_roundtrip(
        reports in prop::collection::vec(arb_wide_report(), 0..32),
        use_sw in any::<bool>(),
        split_seed in any::<usize>(),
    ) {
        let tag = MechanismTag {
            oracle: if use_sw { OraclePolicy::Sw } else { OraclePolicy::Wheel },
            approach: ApproachKind::Msw,
        };
        let batch = Batch::tagged(reports.clone(), tag);
        let back = Batch::decode(&mut batch.to_bytes().clone()).unwrap();
        prop_assert_eq!(&back, &batch);
        let split = split_seed % (reports.len() + 1);
        let mut buf = BytesMut::new();
        Batch::tagged(reports[..split].to_vec(), tag).encode(&mut buf);
        Batch::tagged(reports[split..].to_vec(), tag).encode(&mut buf);
        let (back, back_tag) = Batch::decode_stream_tagged(buf.freeze()).unwrap();
        prop_assert_eq!(back, reports);
        prop_assert_eq!(back_tag, Some(tag));
    }

    /// Batch frames round-trip arbitrary report sets of any size, and the
    /// encoded length is exactly the documented header + bodies.
    #[test]
    fn batch_roundtrip(
        reports in prop::collection::vec(arb_report(), 0..64),
        tag in arb_narrow_tag(),
    ) {
        let batch = Batch::tagged(reports, tag);
        let bytes = batch.to_bytes();
        prop_assert_eq!(
            bytes.len(),
            BATCH_HEADER_LEN + batch.reports.len() * REPORT_BODY_LEN
        );
        let back = Batch::decode(&mut bytes.clone()).unwrap();
        prop_assert_eq!(back, batch);
    }

    /// A stream opening with a retired standalone report's version byte
    /// (1, 2 or 3) is refused — never a panic, never a decoded report.
    #[test]
    fn report_decoder_never_panics(
        lead in 1u8..=3,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = vec![lead];
        bytes.extend_from_slice(&body);
        prop_assert!(Batch::decode_stream_tagged(&bytes[..]).is_err());
    }

    /// Arbitrary byte garbage never panics the batch decoder or the stream
    /// decoder. A lying count prefix inside the garbage must be caught
    /// before any allocation happens.
    #[test]
    fn batch_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = Batch::decode(&mut &bytes[..]);
        let _ = Batch::decode_stream_tagged(&bytes[..]);
    }

    /// Every strict prefix of a valid batch frame decodes to an error, not
    /// a panic and not a silently shortened batch.
    #[test]
    fn truncated_batch_errors(
        reports in prop::collection::vec(arb_report(), 1..32),
        cut_seed in any::<u64>(),
    ) {
        let bytes = Batch::tagged(reports, OLH_HDG).to_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Batch::decode(&mut bytes.slice(..cut)).is_err());
    }

    /// Corrupting the tag or version byte of a batch frame is rejected.
    #[test]
    fn corrupted_batch_header_errors(
        reports in prop::collection::vec(arb_report(), 0..16),
        byte in any::<u8>(),
        in_tag in any::<bool>(),
    ) {
        let batch = Batch::tagged(reports, OLH_HDG);
        let mut bytes = BytesMut::from(&batch.to_bytes()[..]);
        let idx = usize::from(!in_tag);
        prop_assume!(bytes[idx] != byte);
        bytes[idx] = byte;
        prop_assert!(Batch::decode(&mut bytes.freeze()).is_err());
    }

    /// Snapshot frames round-trip *exactly* — every frequency bit, the
    /// geometry, and the estimation settings — for arbitrary shapes.
    #[test]
    fn snapshot_roundtrip_exact(
        d in 2usize..6,
        c_pow in 1u32..7,
        seed in any::<u64>(),
    ) {
        let snap = snapshot_from_seed(d, c_pow, seed);
        let bytes = snapshot_to_bytes(&snap);
        prop_assert_eq!(bytes.len(), snapshot_encoded_len(&snap));
        let back = decode_snapshot(&mut bytes.clone()).unwrap();
        prop_assert_eq!(back, snap);
    }

    /// Every strict prefix of a valid snapshot frame errors — never a
    /// panic, never a silently truncated model.
    #[test]
    fn truncated_snapshot_errors(
        d in 2usize..5,
        c_pow in 1u32..6,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = snapshot_to_bytes(&snapshot_from_seed(d, c_pow, seed));
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_snapshot(&mut bytes.slice(..cut)).is_err());
    }

    /// Corrupting any single header byte of a snapshot frame either yields
    /// a structurally valid (but different) snapshot or an error — never a
    /// panic. Only the tag and version bytes are guaranteed to error: other
    /// header bytes (shape, estimator, settings) may land on a different
    /// but still-valid value, which decode rightly accepts.
    #[test]
    fn corrupted_snapshot_header_never_panics(
        seed in any::<u64>(),
        idx in 0usize..SNAPSHOT_HEADER_LEN,
        byte in any::<u8>(),
    ) {
        let mut bytes = BytesMut::from(&snapshot_to_bytes(&snapshot_from_seed(3, 4, seed))[..]);
        prop_assume!(bytes[idx] != byte);
        bytes[idx] = byte;
        let result = decode_snapshot(&mut bytes.freeze());
        if idx < 2 {
            prop_assert!(result.is_err(), "tag/version corruption must be rejected");
        }
    }

    /// Query batches round-trip exactly, and answers round-trip to the bit
    /// (including non-finite payloads — the frame is transport, not policy).
    #[test]
    fn query_and_answer_batches_roundtrip(
        c_pow in 1u32..7,
        count in 0usize..24,
        seed in any::<u64>(),
        answer_bits in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let qb = query_batch_from_seed(1usize << c_pow, count, seed);
        let bytes = qb.to_bytes();
        prop_assert_eq!(bytes.len(), qb.encoded_len());
        let back = QueryBatch::decode(&mut bytes.clone()).unwrap();
        prop_assert_eq!(back, qb);

        let ab = AnswerBatch::new(answer_bits.iter().map(|&b| f64::from_bits(b)).collect());
        let back = AnswerBatch::decode(&mut ab.to_bytes().clone()).unwrap();
        prop_assert_eq!(back.answers.len(), ab.answers.len());
        for (x, y) in back.answers.iter().zip(&ab.answers) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Arbitrary byte garbage never panics any of the serving-frame
    /// decoders; malformed shapes always surface as `ProtocolError`.
    #[test]
    fn serving_decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_snapshot(&mut &bytes[..]);
        let _ = QueryBatch::decode(&mut &bytes[..]);
        let _ = AnswerBatch::decode(&mut &bytes[..]);
    }

    /// A garbage buffer opening with a valid serving tag + version (the
    /// adversarial sweet spot: headers parse, payload lies) still never
    /// panics and never over-allocates its way to an abort.
    #[test]
    fn lying_serving_headers_error(
        tag_choice in 0usize..3,
        body in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut buf = BytesMut::new();
        // Snapshots are version 2; query and answer batches version 1.
        buf.put_slice(&[[0xC5u8, 2], [0xD7, 1], [0xA7, 1]][tag_choice]);
        buf.put_slice(&body);
        let bytes = buf.freeze();
        let _ = decode_snapshot(&mut bytes.clone());
        let _ = QueryBatch::decode(&mut bytes.clone());
        let _ = AnswerBatch::decode(&mut bytes.clone());
    }

    /// `CollectorState` frames round-trip *exactly*: the rebuilt plan and
    /// every group's raw counters are bit-identical to the source, so the
    /// wire boundary can never perturb a fan-in merge.
    #[test]
    fn collector_state_roundtrip_exact(d in 2usize..5, seed in any::<u64>()) {
        let collector = collector_from_seed(d, seed);
        let bytes = collector_state_to_bytes(&collector);
        prop_assert_eq!(bytes.len(), collector_state_encoded_len(&collector));
        let back = decode_collector_state(&mut bytes.clone()).unwrap();
        prop_assert_eq!(back.plan(), collector.plan());
        prop_assert_eq!(back.report_count(), collector.report_count());
        for g in 0..collector.plan().group_count() as u32 {
            prop_assert_eq!(back.group_state(g).unwrap(), collector.group_state(g).unwrap());
        }
    }

    /// Every strict prefix of a valid state frame errors — never a panic,
    /// never a silently shortened counter set — and a failed `merge_state`
    /// leaves the destination collector untouched.
    #[test]
    fn truncated_collector_state_errors_untouched(
        d in 2usize..5,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let collector = collector_from_seed(d, seed);
        let bytes = collector_state_to_bytes(&collector);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_collector_state(&mut bytes.slice(..cut)).is_err());

        let mut dst = collector.clone();
        let before = dst.clone();
        prop_assert!(dst.merge_state(&mut bytes.slice(..cut)).is_err());
        assert_untouched(&dst, &before)?;
    }

    /// Arbitrary byte garbage never panics the state decoder; neither does
    /// a frame that opens with a valid tag + version but lies about its
    /// shape, group count, or counter lengths — the geometry is validated
    /// against the rebuilt plan before any counter vector is allocated.
    #[test]
    fn collector_state_decoder_never_panics(
        with_header in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut buf = BytesMut::new();
        if with_header {
            buf.put_u8(COLLECTOR_STATE_TAG);
            buf.put_u8(COLLECTOR_STATE_VERSION);
        }
        buf.put_slice(&body);
        let _ = decode_collector_state(&mut buf.freeze());
    }

    /// A state frame whose mechanism discriminant conflicts with the
    /// destination's plan — or whose plan geometry differs in any public
    /// parameter — is rejected with the destination untouched: the frame
    /// decodes into its *own* plan, and `merge` refuses mismatched plans
    /// before any counter moves.
    #[test]
    fn mismatched_collector_state_rejected_untouched(
        d in 2usize..5,
        seed in any::<u64>(),
        other_seed in any::<u64>(),
    ) {
        let src = collector_from_seed(d, seed);
        let mut dst = collector_from_seed(d, other_seed);
        prop_assume!(src.plan() != dst.plan());
        let before = dst.clone();
        prop_assert!(dst.merge_state(&mut collector_state_to_bytes(&src).clone()).is_err());
        assert_untouched(&dst, &before)?;

        // Corrupting the mechanism discriminant bytes of a frame aimed at a
        // matching destination must also reject (either as an unknown
        // discriminant or as a now-mismatched plan) — never panic, never
        // partially merge.
        let mut twin = Collector::new(src.plan().clone()).unwrap();
        let twin_before = twin.clone();
        let mut bytes = BytesMut::from(&collector_state_to_bytes(&src)[..]);
        bytes[2] = bytes[2].wrapping_add(1); // oracle discriminant
        prop_assert!(twin.merge_state(&mut bytes.freeze()).is_err());
        assert_untouched(&twin, &twin_before)?;
    }

    /// A `CollectorState` frame claiming `u64::MAX` (or, merged twice,
    /// 2⁶²) reports in group 0 and in one support counter cannot set up an
    /// overflow: whether `merge_state` accepts or refuses it, no count is
    /// left at or above 2⁶³, and ingesting more reports afterwards through
    /// the lone-run (`ingest_batch`, one shard) and sharded
    /// (`ingest_stream_sharded`, two shards) paths never panics and never
    /// lowers a count.
    #[test]
    fn hostile_collector_state_counts_never_overflow_ingest(
        d in 2usize..5,
        seed in any::<u64>(),
        cell_seed in any::<usize>(),
        claim in prop_oneof![Just(u64::MAX), Just(1u64 << 62)],
    ) {
        let src = collector_from_seed(d, seed);
        let plan = src.plan().clone();
        let mut bytes = BytesMut::from(&collector_state_to_bytes(&src)[..]);
        let group0 = COLLECTOR_STATE_HEADER_LEN;
        let cells = src.group_state(0).unwrap().0.len();
        let cell = group0 + COLLECTOR_STATE_GROUP_HEADER_LEN + 8 * (cell_seed % cells);
        bytes[group0..group0 + 8].copy_from_slice(&claim.to_le_bytes());
        bytes[cell..cell + 8].copy_from_slice(&claim.to_le_bytes());
        let frame = bytes.freeze();

        let mut dst = Collector::new(plan.clone()).unwrap();
        for _ in 0..2 {
            let _ = dst.merge_state(&mut frame.clone());
        }
        prop_assert!(all_counts(&dst).iter().all(|&n| n < 1 << 63));

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0CC);
        let reports: Vec<Report> = (0..10)
            .map(|_| Report {
                group: rng.random_range(0..plan.group_count() as u32),
                seed: rng.random(),
                y: rng.random_range(0..64),
            })
            .collect();
        let mut wire = BytesMut::new();
        Batch::tagged(reports.clone(), plan.mechanism_tag()).encode(&mut wire);
        let mut before = all_counts(&dst);
        for ingest in 0..2 {
            if ingest == 0 {
                dst.ingest_batch(&reports, 1).unwrap();
            } else {
                dst.ingest_stream_sharded(&wire, 2).unwrap();
            }
            let after = all_counts(&dst);
            prop_assert_eq!(after[0], before[0] + 10);
            prop_assert!(after.iter().zip(&before).all(|(a, b)| a >= b));
            before = after;
        }
    }
}
