//! Zero-copy cursor ≡ owning-decoder reference ingestion bit-identity.
//!
//! The collectors ingest wire bytes only through the borrowing
//! `FrameCursor`. These suites pin it against a reference built from the
//! owning batch decoder (`Batch::decode` / `Batch::decode_stream_tagged`),
//! which shares only the header-discriminant rule with the cursor: for
//! every stream — narrow (v2) or wide (v3) batch frames, valid, truncated,
//! or outright garbage, including garbage that opens with a retired
//! standalone report's version byte — both accept/reject identically (the
//! same error values included), never panic, leave an erroring one-shot
//! collector untouched, and produce bit-identical counters when they
//! succeed. The epoch path gets the same treatment, including cut
//! placement and its mid-stream-abort semantics.

use bytes::BytesMut;
use privmdr_core::ApproachKind;
use privmdr_protocol::{
    Batch, Collector, EpochCollector, EpochCut, OraclePolicy, ProtocolError, Report, SessionPlan,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The mechanism shapes that exercise both frame widths: v2 narrow and v3
/// wide.
const MECHANISMS: &[(OraclePolicy, ApproachKind)] = &[
    (OraclePolicy::Olh, ApproachKind::Hdg),
    (OraclePolicy::Grr, ApproachKind::Hdg),
    (OraclePolicy::Auto, ApproachKind::Tdg),
    (OraclePolicy::Wheel, ApproachKind::Hdg),
    (OraclePolicy::Sw, ApproachKind::Msw),
];

fn plan_for(mech: usize, c: usize, seed: u64) -> SessionPlan {
    let (oracle, approach) = MECHANISMS[mech % MECHANISMS.len()];
    SessionPlan::with_mechanism(100_000, 3, c, 1.0, seed, oracle, approach).unwrap()
}

/// Random in-plan reports; `y` is arbitrary within the frame width (wide
/// oracles occasionally get hostile raw f64 bits — the oracle folds them
/// deterministically, so equivalence must still hold).
fn random_reports(plan: &SessionPlan, n: usize, rng: &mut StdRng) -> Vec<Report> {
    let wide = plan.mechanism_tag().is_wide();
    (0..n)
        .map(|_| {
            let y = if wide {
                if rng.random_range(0..8) == 0 {
                    rng.random::<u64>()
                } else {
                    rng.random_range(-0.3f64..1.3).to_bits()
                }
            } else {
                u64::from(rng.random::<u32>())
            };
            Report {
                group: rng.random_range(0..plan.group_count() as u32),
                seed: rng.random(),
                y,
            }
        })
        .collect()
}

/// Frames `reports` as batch frames of random sizes up to `frame_size`.
fn encode_stream(
    plan: &SessionPlan,
    reports: &[Report],
    frame_size: usize,
    rng: &mut StdRng,
) -> Vec<u8> {
    let tag = plan.mechanism_tag();
    let mut buf = BytesMut::new();
    let mut rest = reports;
    while !rest.is_empty() {
        let take = rng.random_range(1..=frame_size.min(rest.len()).max(1));
        Batch::tagged(rest[..take].to_vec(), tag).encode(&mut buf);
        rest = &rest[take..];
    }
    buf.to_vec()
}

fn assert_same_state(a: &Collector, b: &Collector, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.report_count(), b.report_count(), "{}: totals", what);
    for g in 0..a.plan().group_count() as u32 {
        let (sa, na) = a.group_state(g).unwrap();
        let (sb, nb) = b.group_state(g).unwrap();
        prop_assert_eq!(na, nb, "{}: group {} report count", what, g);
        prop_assert_eq!(sa, sb, "{}: group {} supports", what, g);
    }
    Ok(())
}

const TAG_MISMATCH: ProtocolError =
    ProtocolError::Malformed("stream mechanism tag does not match the session plan");

/// One-shot reference: decode the whole stream to a `Vec<Report>` with the
/// owning decoder, check its tag against the plan, then `ingest_batch`.
fn reference_one_shot(
    collector: &mut Collector,
    bytes: &[u8],
    shards: usize,
) -> Result<usize, ProtocolError> {
    let (reports, tag) = Batch::decode_stream_tagged(bytes)?;
    if tag.is_some_and(|tag| tag != collector.plan().mechanism_tag()) {
        return Err(TAG_MISMATCH);
    }
    collector.ingest_batch(&reports, shards)
}

/// Epoch reference for a fresh collector: decode frame by frame with the
/// owning batch decoder, feed `ingest_batch`, and `cut_epoch` every
/// `epoch_every` reports, splitting frames at the boundary.
fn reference_epochs(
    collector: &mut EpochCollector,
    mut bytes: &[u8],
    shards: usize,
    epoch_every: u64,
    mut on_cut: impl FnMut(EpochCut),
) -> Result<usize, ProtocolError> {
    let expected_tag = collector.plan().mechanism_tag();
    let mut in_flight = 0u64;
    let mut processed = 0usize;
    while !bytes.is_empty() {
        let Batch { reports, mechanism } = Batch::decode(&mut bytes)?;
        if mechanism != expected_tag {
            return Err(TAG_MISMATCH);
        }
        let mut rest = reports.as_slice();
        while !rest.is_empty() {
            let take = (rest.len() as u64).min(epoch_every - in_flight) as usize;
            collector.ingest_batch(&rest[..take], shards)?;
            rest = &rest[take..];
            in_flight += take as u64;
            if in_flight == epoch_every {
                on_cut(collector.cut_epoch()?);
                in_flight = 0;
            }
        }
        processed += reports.len();
    }
    Ok(processed)
}

proptest! {
    /// One-shot ingestion: zero-copy cursor path ≡ owning-decoder
    /// reference ≡ pre-decoded `ingest_batch`, for every mechanism, shard
    /// count, and frame-size mix.
    #[test]
    fn one_shot_zero_copy_equals_vec_path(
        mech in 0usize..5,
        c_pow in 2u32..5,
        n_reports in 0usize..200,
        frame_size in 1usize..64,
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        let plan = plan_for(mech, 1usize << c_pow, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let reports = random_reports(&plan, n_reports, &mut rng);
        let bytes = encode_stream(&plan, &reports, frame_size, &mut rng);

        let mut via_slice = Collector::new(plan.clone()).unwrap();
        let n_slice = via_slice.ingest_stream_sharded(&bytes, shards).unwrap();
        prop_assert_eq!(n_slice, reports.len());

        let mut via_vec = Collector::new(plan.clone()).unwrap();
        let n_vec = reference_one_shot(&mut via_vec, &bytes, shards).unwrap();
        prop_assert_eq!(n_vec, reports.len());

        let mut via_batch = Collector::new(plan.clone()).unwrap();
        via_batch.ingest_batch(&reports, shards).unwrap();

        assert_same_state(&via_slice, &via_vec, "slice vs vec")?;
        assert_same_state(&via_slice, &via_batch, "slice vs pre-decoded")?;
    }

    /// Truncating a valid stream anywhere: cursor and reference reject
    /// identically
    /// (or both still accept a frame-aligned prefix, with identical
    /// state), never panic, and an error leaves the one-shot collector
    /// untouched.
    #[test]
    fn truncation_agrees_and_leaves_collector_untouched(
        mech in 0usize..5,
        n_reports in 1usize..40,
        frame_size in 1usize..16,
        cut_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let plan = plan_for(mech, 8, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let reports = random_reports(&plan, n_reports, &mut rng);
        let bytes = encode_stream(&plan, &reports, frame_size, &mut rng);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut_bytes = &bytes[..cut.min(bytes.len())];

        let mut via_slice = Collector::new(plan.clone()).unwrap();
        let slice_result = via_slice.ingest_stream_sharded(cut_bytes, 2);

        let mut via_vec = Collector::new(plan.clone()).unwrap();
        let vec_result = reference_one_shot(&mut via_vec, cut_bytes, 2);

        prop_assert_eq!(&slice_result, &vec_result, "accept/reject must agree");
        if slice_result.is_err() {
            prop_assert_eq!(via_slice.report_count(), 0, "error must leave state untouched");
        }
        assert_same_state(&via_slice, &via_vec, "truncated stream")?;
    }

    /// Arbitrary byte soup, bare or opening with a retired standalone
    /// report's version byte (1, 2 or 3): cursor and reference agree on
    /// accept/reject and state, and neither panics.
    #[test]
    fn garbage_never_panics_and_paths_agree(
        lead in prop_oneof![Just(None), (1u8..=3).prop_map(Some)],
        garbage in prop::collection::vec(any::<u8>(), 0..400),
        shards in 1usize..4,
        seed in any::<u64>(),
    ) {
        let bytes: Vec<u8> = lead.into_iter().chain(garbage).collect();
        let plan = plan_for(0, 8, seed);
        let mut via_slice = Collector::new(plan.clone()).unwrap();
        let slice_result = via_slice.ingest_stream_sharded(&bytes, shards);

        let mut via_vec = Collector::new(plan.clone()).unwrap();
        let vec_result = reference_one_shot(&mut via_vec, &bytes, shards);

        prop_assert_eq!(&slice_result, &vec_result, "accept/reject must agree");
        assert_same_state(&via_slice, &via_vec, "garbage stream")?;
    }

    /// Epoch streaming: zero-copy cursor ≡ owning-decoder reference,
    /// including cut placement, per-cut report counts, cumulative state,
    /// and the mid-stream-abort semantics when the tail is garbage.
    #[test]
    fn epoch_streaming_zero_copy_equals_vec_path(
        mech in 0usize..5,
        n_reports in 0usize..160,
        frame_size in 1usize..32,
        epoch_every in 1u64..60,
        shards in 1usize..4,
        corrupt_tail in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let plan = plan_for(mech, 8, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let reports = random_reports(&plan, n_reports, &mut rng);
        let mut bytes = encode_stream(&plan, &reports, frame_size, &mut rng);
        if corrupt_tail {
            bytes.extend_from_slice(&[0x42, 0x13, 0x37]);
        }

        let mut via_slice = EpochCollector::new(plan.clone()).unwrap();
        let mut slice_cuts = Vec::new();
        let slice_result = via_slice.ingest_stream_epochs(
            &bytes,
            shards,
            epoch_every,
            |cut| slice_cuts.push((cut.epoch, cut.epoch_reports, cut.total_reports)),
        );

        let mut via_vec = EpochCollector::new(plan.clone()).unwrap();
        let mut vec_cuts = Vec::new();
        let vec_result = reference_epochs(
            &mut via_vec,
            &bytes,
            shards,
            epoch_every,
            |cut| vec_cuts.push((cut.epoch, cut.epoch_reports, cut.total_reports)),
        );

        prop_assert_eq!(&slice_result, &vec_result, "accept/reject must agree");
        prop_assert_eq!(slice_cuts, vec_cuts, "cuts must fall identically");
        prop_assert_eq!(via_slice.report_count(), via_vec.report_count());
        assert_same_state(
            &via_slice.cumulative().unwrap(),
            &via_vec.cumulative().unwrap(),
            "epoch cumulative",
        )?;
        if corrupt_tail {
            prop_assert!(slice_result.is_err(), "garbage tail must abort");
            // Mid-stream abort: everything before the bad frame ingested.
            prop_assert_eq!(via_slice.report_count(), reports.len() as u64);
        } else {
            prop_assert_eq!(slice_result.unwrap(), reports.len());
        }
    }
}
