//! The load-bearing invariant of the parallel ingestion engine: sharded
//! ingestion is *exactly* serial ingestion. For arbitrary report sets
//! (including reports no honest client would send), arbitrary shard counts,
//! and arbitrary plan shapes, the merged per-group support counters and
//! report counts equal the single-threaded accumulator's, and `finalize`
//! produces bit-identical estimates.

use bytes::BytesMut;
use privmdr_core::{ApproachKind, MechanismConfig};
use privmdr_protocol::{Batch, Collector, OraclePolicy, Report, SessionPlan};
use privmdr_query::RangeQuery;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random reports with in-plan group ids but otherwise arbitrary contents
/// (`y` may even fall outside the OLH hashed domain — the collector's
/// counters must stay exact regardless).
fn random_reports(plan: &SessionPlan, n: usize, rng: &mut StdRng) -> Vec<Report> {
    (0..n)
        .map(|_| Report {
            group: rng.random_range(0..plan.group_count() as u32),
            seed: rng.random(),
            y: rng.random_range(0..64),
        })
        .collect()
}

/// Random reports for the float-carrying (wide-framed) oracles: `y` is an
/// `f64` bit pattern, mostly a plausible report point but occasionally
/// hostile raw bits (NaN/∞/huge) — Wheel and SW must fold both
/// deterministically.
fn random_wide_reports(plan: &SessionPlan, n: usize, rng: &mut StdRng) -> Vec<Report> {
    (0..n)
        .map(|_| {
            let y = if rng.random_range(0..8) == 0 {
                rng.random::<u64>()
            } else {
                rng.random_range(-0.3f64..1.3).to_bits()
            };
            Report {
                group: rng.random_range(0..plan.group_count() as u32),
                seed: rng.random(),
                y,
            }
        })
        .collect()
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

proptest! {
    /// Merged shard state ≡ serial state, and the finalized estimates are
    /// bit-identical, for every shard count.
    #[test]
    fn sharded_ingestion_equals_serial(
        d in 2usize..5,
        c_pow in 2u32..5,
        eps in 0.3f64..3.0,
        n_reports in 0usize..240,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let c = 1usize << c_pow;
        let plan = SessionPlan::new(100_000, d, c, eps, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports = random_reports(&plan, n_reports, &mut rng);

        let mut serial = Collector::new(plan.clone()).unwrap();
        serial.ingest_batch(&reports, 1).unwrap();
        let mut sharded = Collector::new(plan.clone()).unwrap();
        sharded.ingest_batch(&reports, shards).unwrap();
        assert_same_state(&serial, &sharded, "one batch")?;

        // Finalize must therefore agree to the last bit.
        if n_reports > 0 {
            let qs = RangeQuery::from_triples(&[(0, 0, c - 1), (1, 0, c / 2)], c).unwrap();
            let ms = serial.finalize(MechanismConfig::default()).unwrap();
            let mh = sharded.finalize(MechanismConfig::default()).unwrap();
            prop_assert_eq!(
                ms.answer(&qs).to_bits(),
                mh.answer(&qs).to_bits(),
                "finalized estimates diverge at {} shards", shards
            );
        }
    }

    /// Group-partitioned batch ingestion (the block-transposed kernel fed
    /// one contiguous per-group run at a time) is bit-identical to the
    /// original serial path that dispatched reports to group accumulators
    /// one by one — for arbitrary group interleavings and shard counts.
    #[test]
    fn partitioned_batch_equals_per_report_ingest(
        d in 2usize..5,
        c_pow in 2u32..5,
        eps in 0.3f64..3.0,
        n_reports in 0usize..240,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let c = 1usize << c_pow;
        let plan = SessionPlan::new(100_000, d, c, eps, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ED);
        let reports = random_reports(&plan, n_reports, &mut rng);

        // Reference: the pre-batching path — one report at a time, in
        // arrival order, straight into its group's accumulator.
        let mut per_report = Collector::new(plan.clone()).unwrap();
        for r in &reports {
            per_report.ingest(r).unwrap();
        }

        let mut batched = Collector::new(plan.clone()).unwrap();
        batched.ingest_batch(&reports, 1).unwrap();
        assert_same_state(&per_report, &batched, "partitioned batch")?;

        let mut sharded = Collector::new(plan).unwrap();
        sharded.ingest_batch(&reports, shards).unwrap();
        assert_same_state(&per_report, &sharded, "partitioned sharded")?;
    }

    /// The GRR ingestion path: sharded ≡ batched ≡ serial, bit for bit,
    /// for arbitrary report sets (including out-of-domain `y` values no
    /// honest GRR client would send), shard counts, and plan shapes —
    /// extending the OLH invariant above to the second oracle.
    #[test]
    fn grr_sharded_equals_serial(
        d in 2usize..5,
        c_pow in 2u32..5,
        eps in 0.3f64..3.0,
        n_reports in 0usize..240,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let c = 1usize << c_pow;
        let plan = SessionPlan::with_mechanism(
            100_000, d, c, eps, seed, OraclePolicy::Grr, ApproachKind::Hdg,
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6172);
        let reports = random_reports(&plan, n_reports, &mut rng);

        let mut per_report = Collector::new(plan.clone()).unwrap();
        for r in &reports {
            per_report.ingest(r).unwrap();
        }
        let mut batched = Collector::new(plan.clone()).unwrap();
        batched.ingest_batch(&reports, 1).unwrap();
        assert_same_state(&per_report, &batched, "grr batch")?;

        let mut sharded = Collector::new(plan.clone()).unwrap();
        sharded.ingest_batch(&reports, shards).unwrap();
        assert_same_state(&per_report, &sharded, "grr sharded")?;

        if n_reports > 0 {
            let qs = RangeQuery::from_triples(&[(0, 0, c - 1), (1, 0, c / 2)], c).unwrap();
            let ms = batched.finalize(MechanismConfig::default()).unwrap();
            let mh = sharded.finalize(MechanismConfig::default()).unwrap();
            prop_assert_eq!(
                ms.answer(&qs).to_bits(),
                mh.answer(&qs).to_bits(),
                "grr finalized estimates diverge at {} shards", shards
            );
        }
    }

    /// The auto policy (mixed GRR and OLH groups in one session) and the
    /// TDG approach both preserve the invariant: sharded ≡ serial for the
    /// merged state, and the mechanism-tagged wire framing round-trips
    /// through `ingest_stream_sharded` to the same state.
    #[test]
    fn auto_and_tdg_sharded_equal_serial(
        d in 2usize..5,
        eps in 0.3f64..2.0,
        n_reports in 1usize..200,
        shards in 1usize..9,
        batch_size in 1usize..64,
        tdg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let approach = if tdg { ApproachKind::Tdg } else { ApproachKind::Hdg };
        let plan = SessionPlan::with_mechanism(
            60_000, d, 16, eps, seed, OraclePolicy::Auto, approach,
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA070);
        let reports = random_reports(&plan, n_reports, &mut rng);

        let mut serial = Collector::new(plan.clone()).unwrap();
        serial.ingest_batch(&reports, 1).unwrap();
        let mut sharded = Collector::new(plan.clone()).unwrap();
        sharded.ingest_batch(&reports, shards).unwrap();
        assert_same_state(&serial, &sharded, "auto batch")?;

        // Same stream through mechanism-tagged wire frames.
        let mut buf = BytesMut::new();
        for chunk in reports.chunks(batch_size) {
            Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut buf);
        }
        let mut framed = Collector::new(plan.clone()).unwrap();
        let n = framed.ingest_stream_sharded(&buf, shards).unwrap();
        prop_assert_eq!(n, n_reports);
        assert_same_state(&serial, &framed, "auto framed stream")?;

        let config = MechanismConfig::default().with_approach(approach);
        let qs = RangeQuery::from_triples(&[(0, 0, 15), (1, 0, 7)], 16).unwrap();
        let ms = serial.finalize(config).unwrap();
        let mh = sharded.finalize(config).unwrap();
        prop_assert_eq!(
            ms.answer(&qs).to_bits(),
            mh.answer(&qs).to_bits(),
            "auto finalized estimates diverge at {} shards", shards
        );
    }

    /// The wide-framed mechanisms — Wheel as HDG's oracle, MSW on its SW
    /// substrate, and the Wheel/MSW cross — preserve the invariant:
    /// sharded ≡ batched ≡ serial, bit for bit, and the v3 wide wire
    /// framing round-trips through `ingest_stream_sharded` to the same
    /// state and bit-identical answers.
    #[test]
    fn wheel_and_msw_sharded_equal_serial(
        d in 2usize..5,
        eps in 0.3f64..2.0,
        n_reports in 1usize..200,
        shards in 1usize..9,
        batch_size in 1usize..64,
        combo in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (oracle, approach) = [
            (OraclePolicy::Wheel, ApproachKind::Hdg),
            (OraclePolicy::Sw, ApproachKind::Msw),
            (OraclePolicy::Wheel, ApproachKind::Msw),
        ][combo];
        let plan = SessionPlan::with_mechanism(
            60_000, d, 16, eps, seed, oracle, approach,
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x37EE);
        let reports = random_wide_reports(&plan, n_reports, &mut rng);

        let mut serial = Collector::new(plan.clone()).unwrap();
        serial.ingest_batch(&reports, 1).unwrap();
        let mut sharded = Collector::new(plan.clone()).unwrap();
        sharded.ingest_batch(&reports, shards).unwrap();
        assert_same_state(&serial, &sharded, "wide batch")?;

        // Same stream through mechanism-tagged *wide* wire frames.
        let mut buf = BytesMut::new();
        for chunk in reports.chunks(batch_size) {
            Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut buf);
        }
        let mut framed = Collector::new(plan.clone()).unwrap();
        let n = framed.ingest_stream_sharded(&buf, shards).unwrap();
        prop_assert_eq!(n, n_reports);
        assert_same_state(&serial, &framed, "wide framed stream")?;

        let config = MechanismConfig::default()
            .with_approach(approach)
            .with_oracle(oracle);
        let qs = RangeQuery::from_triples(&[(0, 0, 15), (1, 0, 7)], 16).unwrap();
        let ms = serial.finalize(config).unwrap();
        let mh = sharded.finalize(config).unwrap();
        prop_assert_eq!(
            ms.answer(&qs).to_bits(),
            mh.answer(&qs).to_bits(),
            "wide finalized estimates diverge at {} shards", shards
        );
    }

    /// Splitting the same stream into different batch sizes (wire-framed)
    /// with different shard counts never changes the collector state.
    #[test]
    fn batch_splits_and_framing_are_state_invariant(
        d in 2usize..4,
        batch_size in 1usize..64,
        shards in 1usize..7,
        n_reports in 1usize..200,
        seed in any::<u64>(),
    ) {
        let plan = SessionPlan::new(50_000, d, 8, 1.0, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let reports = random_reports(&plan, n_reports, &mut rng);

        let mut reference = Collector::new(plan.clone()).unwrap();
        reference.ingest_batch(&reports, 1).unwrap();

        let mut buf = BytesMut::new();
        for chunk in reports.chunks(batch_size) {
            Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut buf);
        }
        let mut framed = Collector::new(plan).unwrap();
        let n = framed.ingest_stream_sharded(&buf, shards).unwrap();
        prop_assert_eq!(n, n_reports);
        assert_same_state(&reference, &framed, "framed stream")?;
    }
}
