//! The bit-identity contract of the streaming layer (`protocol::stream`):
//! however a report stream is chopped into epochs, sharded across threads,
//! or split across collectors and fanned back in over the wire, the final
//! cumulative state — and therefore every estimate — is *exactly* the
//! one-shot `ingest_batch` collector's. Support counters are sums of
//! per-report `u64` increments, so all of these reorderings are integer
//! addition reassociations; these properties pin that argument down so no
//! refactor can silently weaken it to "approximately equal".

use bytes::BytesMut;
use privmdr_core::{ApproachKind, MechanismConfig};
use privmdr_protocol::stream::{collector_state_to_bytes, decode_collector_state};
use privmdr_protocol::{Batch, Collector, EpochCollector, OraclePolicy, Report, SessionPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random reports with in-plan group ids but otherwise arbitrary contents
/// (`y` may fall outside the hashed domain — counters must stay exact
/// regardless, as in `sharding_prop.rs`).
fn random_reports(plan: &SessionPlan, n: usize, rng: &mut StdRng) -> Vec<Report> {
    (0..n)
        .map(|_| {
            // A third of the reports carry an `f64` bit pattern in `y` so
            // the wide oracles (Wheel/SW) see plausible report points; the
            // rest stay small integers. Either way the counters are pure
            // `u64` folds, so every oracle must stay exact on both.
            let y = if rng.random_range(0..3) == 0 {
                rng.random_range(-0.3f64..1.3).to_bits()
            } else {
                rng.random_range(0..64)
            };
            Report {
                group: rng.random_range(0..plan.group_count() as u32),
                seed: rng.random(),
                y,
            }
        })
        .collect()
}

/// Random cut points partitioning `n` reports into non-empty runs.
fn random_splits(n: usize, pieces: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..pieces.min(n).saturating_sub(1))
        .map(|_| rng.random_range(1..n))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
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

fn oracle_from_index(i: usize) -> OraclePolicy {
    [
        OraclePolicy::Olh,
        OraclePolicy::Grr,
        OraclePolicy::Auto,
        OraclePolicy::Wheel,
        OraclePolicy::Sw,
    ][i]
}

fn approach_from_index(i: usize) -> ApproachKind {
    [ApproachKind::Hdg, ApproachKind::Tdg, ApproachKind::Msw][i]
}

/// The ISSUE's shard grid: serial, small, prime, and saturating counts.
fn shard_from_index(i: usize) -> usize {
    [1usize, 2, 3, 7, 64][i]
}

proptest! {
    /// (a) Streamed ingestion with arbitrary epoch cut points produces a
    /// final cumulative state and snapshot bit-identical to one-shot
    /// `ingest_batch` over the same reports — for every oracle policy and
    /// the full shard grid. Intermediate cuts are themselves exact: the
    /// epoch-k snapshot equals a one-shot fit of the first k epochs.
    #[test]
    fn arbitrary_epoch_cuts_equal_one_shot(
        d in 2usize..5,
        eps in 0.3f64..3.0,
        n_reports in 1usize..240,
        pieces in 1usize..9,
        oracle_idx in 0usize..5,
        shard_idx in 0usize..5,
        approach_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let approach = approach_from_index(approach_idx);
        let plan = SessionPlan::with_mechanism(
            60_000, d, 16, eps, seed, oracle_from_index(oracle_idx), approach,
        ).unwrap();
        let shards = shard_from_index(shard_idx);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE90C);
        let reports = random_reports(&plan, n_reports, &mut rng);
        let cuts = random_splits(n_reports, pieces, &mut rng);

        let mut one_shot = Collector::new(plan.clone()).unwrap();
        one_shot.ingest_batch(&reports, 1).unwrap();

        let mut streaming = EpochCollector::new(plan.clone()).unwrap();
        let mut start = 0usize;
        for (k, &cut) in cuts.iter().enumerate() {
            streaming.ingest_batch(&reports[start..cut], shards).unwrap();
            let sealed = streaming.cut_epoch().unwrap();
            prop_assert_eq!(sealed.epoch, k + 1);
            prop_assert_eq!(sealed.epoch_reports, (cut - start) as u64);
            prop_assert_eq!(sealed.total_reports, cut as u64);
            // The epoch-k snapshot is the one-shot fit of the first k epochs.
            let mut prefix = Collector::new(plan.clone()).unwrap();
            prefix.ingest_batch(&reports[..cut], 1).unwrap();
            let config = MechanismConfig::default()
                .with_approach(plan.approach)
                .with_oracle(plan.oracle);
            prop_assert_eq!(sealed.snapshot, prefix.snapshot(config).unwrap());
            start = cut;
        }
        streaming.ingest_batch(&reports[start..], shards).unwrap();

        assert_same_state(&one_shot, &streaming.cumulative().unwrap(), "cumulative")?;
        let config = MechanismConfig::default()
            .with_approach(plan.approach)
            .with_oracle(plan.oracle);
        prop_assert_eq!(
            streaming.cumulative_snapshot().unwrap(),
            one_shot.snapshot(config).unwrap()
        );
    }

    /// (b) `merge` is commutative and associative on the collector state.
    #[test]
    fn merge_is_commutative_and_associative(
        d in 2usize..5,
        oracle_idx in 0usize..5,
        approach_idx in 0usize..3,
        na in 0usize..120,
        nb in 0usize..120,
        nc in 0usize..120,
        seed in any::<u64>(),
    ) {
        let plan = SessionPlan::with_mechanism(
            60_000, d, 16, 1.0, seed,
            oracle_from_index(oracle_idx), approach_from_index(approach_idx),
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3E26);
        let build = |n: usize, rng: &mut StdRng| {
            let mut c = Collector::new(plan.clone()).unwrap();
            c.ingest_batch(&random_reports(&plan, n, rng), 1).unwrap();
            c
        };
        let (a, b, c) = (build(na, &mut rng), build(nb, &mut rng), build(nc, &mut rng));

        // a ⊕ b = b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_same_state(&ab, &ba, "commutativity")?;

        // (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)
        let mut ab_c = ab;
        ab_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_bc = a.clone();
        a_bc.merge(&bc).unwrap();
        assert_same_state(&ab_c, &a_bc, "associativity")?;
    }

    /// (b) K-way split ≡ single collector: chopping a report stream into
    /// random pieces, ingesting each into its own collector (with its own
    /// shard count), and fanning the pieces back in — directly or through
    /// the `CollectorState` wire frame, in stream order or reversed —
    /// reproduces the single collector's state and snapshot bit for bit.
    #[test]
    fn k_way_split_merges_to_single_collector(
        d in 2usize..5,
        eps in 0.3f64..3.0,
        n_reports in 1usize..240,
        pieces in 1usize..8,
        oracle_idx in 0usize..5,
        shard_idx in 0usize..5,
        approach_idx in 0usize..3,
        reverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let plan = SessionPlan::with_mechanism(
            60_000, d, 16, eps, seed,
            oracle_from_index(oracle_idx), approach_from_index(approach_idx),
        ).unwrap();
        let shards = shard_from_index(shard_idx);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5917);
        let reports = random_reports(&plan, n_reports, &mut rng);
        let cuts = random_splits(n_reports, pieces, &mut rng);

        let mut single = Collector::new(plan.clone()).unwrap();
        single.ingest_batch(&reports, 1).unwrap();

        // Split into per-piece collectors.
        let mut splits = Vec::new();
        let mut start = 0usize;
        for &cut in cuts.iter().chain(std::iter::once(&n_reports)) {
            let mut piece = Collector::new(plan.clone()).unwrap();
            piece.ingest_batch(&reports[start..cut], shards).unwrap();
            splits.push(piece);
            start = cut;
        }
        if reverse {
            splits.reverse();
        }

        // Fan in directly…
        let mut merged = Collector::new(plan.clone()).unwrap();
        for piece in &splits {
            merged.merge(piece).unwrap();
        }
        assert_same_state(&single, &merged, "direct fan-in")?;

        // …and through the CollectorState wire frame.
        let mut wired = Collector::new(plan.clone()).unwrap();
        for piece in &splits {
            let frame = collector_state_to_bytes(piece);
            let decoded = decode_collector_state(&mut frame.clone()).unwrap();
            prop_assert_eq!(decoded.plan(), piece.plan());
            let n = wired.merge_state(&mut frame.clone()).unwrap();
            prop_assert_eq!(n, piece.report_count());
        }
        assert_same_state(&single, &wired, "wire fan-in")?;

        let config = MechanismConfig::default()
            .with_approach(plan.approach)
            .with_oracle(plan.oracle);
        prop_assert_eq!(
            wired.snapshot(config).unwrap(),
            single.snapshot(config).unwrap()
        );
    }
}

/// Streams `reports` as one batch frame at epoch size `epoch_every`;
/// returns each cut's epoch size.
fn stream_epochs(streaming: &mut EpochCollector, reports: &[Report], epoch_every: u64) -> Vec<u64> {
    let mut wire = BytesMut::new();
    Batch::tagged(reports.to_vec(), streaming.plan().mechanism_tag()).encode(&mut wire);
    let mut cuts = Vec::new();
    streaming
        .ingest_stream_epochs(&wire, 1, epoch_every, |cut| cuts.push(cut.epoch_reports))
        .unwrap();
    cuts
}

/// An in-flight epoch that already holds `epoch_every` reports or more —
/// left by an earlier call with a larger epoch size, or by `ingest_batch`
/// — is sealed before the next streamed report lands.
#[test]
fn over_full_epoch_is_sealed_before_the_next_report() {
    let plan =
        SessionPlan::with_mechanism(1_000, 2, 8, 1.0, 3, OraclePolicy::Wheel, ApproachKind::Hdg)
            .unwrap();
    let reports = random_reports(&plan, 240, &mut StdRng::seed_from_u64(3));
    let mut streaming = EpochCollector::new(plan.clone()).unwrap();
    assert_eq!(stream_epochs(&mut streaming, &reports[..150], 100), [100]);
    assert_eq!(
        stream_epochs(&mut streaming, &reports[150..200], 30),
        [50, 30]
    );
    assert_eq!(streaming.cut_epoch().unwrap().epoch_reports, 20);
    streaming.ingest_batch(&reports[200..225], 1).unwrap();
    assert_eq!(stream_epochs(&mut streaming, &reports[225..], 10), [25, 10]);
    assert_eq!(streaming.cut_epoch().unwrap().epoch_reports, 5);

    let mut one_shot = Collector::new(plan).unwrap();
    one_shot.ingest_batch(&reports, 1).unwrap();
    assert_same_state(
        &one_shot,
        &streaming.cumulative().unwrap(),
        "over-full epochs",
    )
    .unwrap();
}
