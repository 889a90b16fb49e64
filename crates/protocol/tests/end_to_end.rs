//! Full protocol round trip: clients → wire → streaming server → model,
//! validated against ground truth and against the in-process exact path.

use bytes::BytesMut;
use privmdr_core::{Hdg, Mechanism, MechanismConfig};
use privmdr_data::DatasetSpec;
use privmdr_protocol::wire::{BATCH_HEADER_LEN, REPORT_BODY_LEN};
use privmdr_protocol::{Batch, Client, Collector, Report, SessionPlan};
use privmdr_query::workload::{true_answers, WorkloadBuilder};
use privmdr_util::rng::derive_rng;

#[test]
fn protocol_accuracy_matches_in_process_exact_fit() {
    let (n, d, c) = (60_000usize, 3usize, 32usize);
    let ds = DatasetSpec::Normal { rho: 0.8 }.generate(n, d, c, 42);
    let eps = 2.0;

    // Wire path: every user produces one report; the server streams them.
    let plan = SessionPlan::new(n, d, c, eps, 777).unwrap();
    let mut collector = Collector::new(plan.clone()).unwrap();
    let mut rng = derive_rng(11, &[0]);
    let reports: Vec<Report> = (0..n as u64)
        .map(|uid| {
            let client = Client::new(&plan, uid).unwrap();
            client.report(ds.row(uid as usize), &mut rng).unwrap()
        })
        .collect();
    let mut buf = BytesMut::new();
    Batch::tagged(reports, plan.mechanism_tag()).encode(&mut buf);
    // 16 bytes per user on the wire, plus one 8-byte frame header.
    assert_eq!(buf.len(), BATCH_HEADER_LEN + n * REPORT_BODY_LEN);
    collector.ingest_stream_sharded(&buf, 1).unwrap();
    assert_eq!(collector.report_count(), n as u64);
    let wire_model = collector.finalize(MechanismConfig::default()).unwrap();

    // Reference path: in-process exact-mode HDG.
    let direct_model = Hdg::new(MechanismConfig::exact())
        .fit(&ds, eps, 12)
        .unwrap();

    let wl = WorkloadBuilder::new(d, c, 13);
    let queries = wl.random(2, 0.5, 40);
    let truths = true_answers(&ds, &queries);
    let wire_mae = privmdr_query::mae(&wire_model.answer_all(&queries), &truths);
    let direct_mae = privmdr_query::mae(&direct_model.answer_all(&queries), &truths);

    // Both paths must be accurate; the wire path may differ slightly
    // because group assignment is hash-based rather than an exact
    // partition.
    assert!(wire_mae < 0.05, "wire-path MAE {wire_mae}");
    assert!(direct_mae < 0.05, "direct MAE {direct_mae}");
    assert!(
        wire_mae < direct_mae * 3.0 + 0.02,
        "wire {wire_mae} vs direct {direct_mae}"
    );
}

#[test]
fn collector_is_order_insensitive() {
    let (n, d, c) = (5_000usize, 3usize, 16usize);
    let ds = DatasetSpec::Ipums.generate(n, d, c, 7);
    let plan = SessionPlan::new(n, d, c, 1.0, 5).unwrap();
    let mut rng = derive_rng(14, &[0]);
    let reports: Vec<Report> = (0..n as u64)
        .map(|uid| {
            Client::new(&plan, uid)
                .unwrap()
                .report(ds.row(uid as usize), &mut rng)
                .unwrap()
        })
        .collect();

    let mut forward = Collector::new(plan.clone()).unwrap();
    for r in &reports {
        forward.ingest(r).unwrap();
    }
    let mut backward = Collector::new(plan).unwrap();
    for r in reports.iter().rev() {
        backward.ingest(r).unwrap();
    }
    let qf = privmdr_query::RangeQuery::from_triples(&[(0, 2, 11), (2, 0, 7)], 16).unwrap();
    let mf = forward.finalize(MechanismConfig::default()).unwrap();
    let mb = backward.finalize(MechanismConfig::default()).unwrap();
    assert_eq!(
        mf.answer(&qf),
        mb.answer(&qf),
        "ingestion order must not matter"
    );
}
