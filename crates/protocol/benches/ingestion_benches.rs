//! Throughput of the report-ingestion engine: reports/sec through the
//! serial path and the sharded path at increasing shard counts, a
//! micro-bench sweep of the block-transposed OLH support kernel (batched
//! vs per-report at c ∈ {64, 256, 1024} × batch lengths), the end-to-end
//! wire→counters cost of the zero-copy cursor path, plus the owning batch
//! decoder's cost.
//!
//! The headline number is `ingest/shards=K` on the 256-cell grid: the
//! support-counting pass is O(cells) per report and embarrassingly
//! parallel, so on an M-core machine reports/sec should scale close to
//! linearly until K exceeds M (shards are capped to available cores by
//! `par_map`; on a single-core runner all shard counts collapse to the
//! serial figure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use privmdr_grid::guideline::Granularities;
use privmdr_oracles::olh::Olh;
use privmdr_oracles::{FrequencyOracle, Grr};
use privmdr_protocol::{Batch, Collector, EpochCollector, GroupTarget, Report, SessionPlan};
use privmdr_util::hash::mix64;
use std::hint::black_box;

/// A plan whose group 0 is a 1-D grid with exactly `cells` cells, bypassing
/// the guideline so the bench geometry is fixed across machines.
fn plan_with_cells(cells: usize) -> SessionPlan {
    let mut plan = SessionPlan::new(1_000_000, 2, cells, 1.0, 7).unwrap();
    plan.granularities = Granularities {
        g1: cells,
        g2: cells.min(16),
    };
    assert_eq!(plan.groups[0], GroupTarget::OneD { attr: 0 });
    plan
}

/// Synthetic reports, all for group 0 (the 256-cell grid): hashed-domain
/// values under well-mixed seeds, i.e. the same work profile as real
/// traffic without paying client-side perturbation in the bench loop.
fn synthetic_reports(n: usize) -> Vec<Report> {
    (0..n as u64)
        .map(|i| Report {
            group: 0,
            seed: mix64(i),
            y: mix64(i ^ 0xF00D) % 4,
        })
        .collect()
}

fn bench_sharded_ingest(c: &mut Criterion) {
    let cells = 256usize;
    let n = 20_000usize;
    let plan = plan_with_cells(cells);
    let reports = synthetic_reports(n);
    let max_shards = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);

    let mut group = c.benchmark_group(format!("ingest_{cells}cells"));
    group.throughput(Throughput::Elements(n as u64));
    let mut shard_counts = vec![1usize, 2, 4];
    if !shard_counts.contains(&max_shards) {
        shard_counts.push(max_shards);
    }
    for shards in shard_counts {
        group.bench_with_input(
            BenchmarkId::new("shards", shards),
            &reports,
            |b, reports| {
                b.iter(|| {
                    let mut collector = Collector::new(plan.clone()).unwrap();
                    collector.ingest_batch(black_box(reports), shards).unwrap();
                    black_box(collector.report_count())
                })
            },
        );
    }
    group.finish();
}

/// Micro-bench of the OLH support kernel itself, isolated from wire decode
/// and collector plumbing: for each grid size `cells` and report-batch
/// length, the block-transposed batch kernel vs folding the same reports
/// through the single-report wrapper. The gap is the win from hoisting the
/// value premix, the branchless register accumulator, and streaming the
/// supports array once per block instead of once per report.
fn bench_support_kernel(c: &mut Criterion) {
    for cells in [64usize, 256, 1024] {
        let olh = Olh::new(1.0, cells).unwrap();
        let mut group = c.benchmark_group(format!("kernel_{cells}cells"));
        for n in [64usize, 1024, 16384] {
            let pairs: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (mix64(i), mix64(i ^ 0xF00D) % 4))
                .collect();
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new("batched", n), &pairs, |b, pairs| {
                b.iter(|| {
                    let mut supports = vec![0u64; cells];
                    olh.add_support_batch(black_box(pairs), &mut supports);
                    black_box(supports)
                })
            });
            group.bench_with_input(BenchmarkId::new("per_report", n), &pairs, |b, pairs| {
                b.iter(|| {
                    let mut supports = vec![0u64; cells];
                    for &(seed, y) in black_box(pairs).iter() {
                        olh.add_support(seed, y as u32, &mut supports);
                    }
                    black_box(supports)
                })
            });
        }
        group.finish();
    }
}

/// GRR vs OLH through the `FrequencyOracle` trait — the cost profile the
/// adaptive policy trades between. OLH pays `O(cells)` hash evaluations
/// per report (amortized by the block-transposed kernel); GRR pays one
/// counter bump per report regardless of the grid size, which is why the
/// paper's rule hands small domains to GRR. Dispatch is through trait
/// objects, so the numbers include exactly what the collector's per-group
/// accumulators pay.
fn bench_grr_vs_olh_kernel(c: &mut Criterion) {
    let n = 16_384usize;
    let pairs: Vec<(u64, u64)> = (0..n as u64)
        .map(|i| (mix64(i), mix64(i ^ 0xF00D) % 4))
        .collect();
    for cells in [64usize, 256, 1024] {
        let olh = Olh::new(1.0, cells).unwrap();
        let grr = Grr::new(1.0, cells).unwrap();
        let oracles: [(&str, &dyn FrequencyOracle); 2] = [("olh", &olh), ("grr", &grr)];
        let mut group = c.benchmark_group(format!("oracle_kernel_{cells}cells"));
        group.throughput(Throughput::Elements(n as u64));
        for (name, oracle) in oracles {
            group.bench_with_input(BenchmarkId::new(name, n), &pairs, |b, pairs| {
                b.iter(|| {
                    let mut supports = vec![0u64; cells];
                    oracle.add_support_batch(black_box(pairs), &mut supports);
                    black_box(supports)
                })
            });
        }
        group.finish();
    }
}

/// The streaming overheads on top of plain batch ingestion: ingesting the
/// same wire stream through `EpochCollector::ingest_stream_epochs` with no
/// mid-stream cuts (pure drain-and-swap bookkeeping) vs cutting a
/// cumulative snapshot every 4_000 reports (each cut pays a merge plus a
/// full finalize), and the cost of fanning two half-streams back in via
/// the `CollectorState` wire frame.
fn bench_epoch_streaming(c: &mut Criterion) {
    let cells = 256usize;
    let n = 20_000usize;
    let plan = plan_with_cells(cells);
    let reports = synthetic_reports(n);
    let mut wire = bytes::BytesMut::new();
    for chunk in reports.chunks(10_000) {
        Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut wire);
    }
    let wire = wire.freeze();

    let mut group = c.benchmark_group(format!("epoch_stream_{cells}cells"));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("no_cuts", |b| {
        b.iter(|| {
            let mut collector = EpochCollector::new(plan.clone()).unwrap();
            collector
                .ingest_stream_epochs(black_box(&wire), 1, u64::MAX, |_| {})
                .unwrap();
            black_box(collector.report_count())
        })
    });
    group.bench_function("cut_every_4000", |b| {
        b.iter(|| {
            let mut collector = EpochCollector::new(plan.clone()).unwrap();
            let mut cuts = 0usize;
            collector
                .ingest_stream_epochs(black_box(&wire), 1, 4_000, |cut| {
                    cuts += 1;
                    black_box(cut.snapshot);
                })
                .unwrap();
            black_box((collector.report_count(), cuts))
        })
    });
    group.bench_function("fan_in_merge", |b| {
        // The CollectorState frame reconstructs its plan from the encoded
        // (n, d, c, ε, seed), so this leg needs a guideline-consistent
        // plan — the fixed-geometry override above would fail the frame's
        // geometry validation on decode.
        let plan = SessionPlan::new(1_000_000, 2, cells, 1.0, 7).unwrap();
        let halves: Vec<Collector> = reports
            .chunks(n / 2)
            .map(|chunk| {
                let mut half = Collector::new(plan.clone()).unwrap();
                half.ingest_batch(chunk, 1).unwrap();
                half
            })
            .collect();
        let frames: Vec<bytes::Bytes> = halves
            .iter()
            .map(privmdr_protocol::collector_state_to_bytes)
            .collect();
        b.iter(|| {
            let mut merged = Collector::new(plan.clone()).unwrap();
            for frame in &frames {
                merged.merge_state(&mut black_box(frame.clone())).unwrap();
            }
            black_box(merged.report_count())
        })
    });
    group.finish();
}

/// End-to-end wire stream → fitted counters through
/// `ingest_stream_sharded`: frames validated in place by the borrowing
/// `FrameCursor`, `(seed, y)` pairs fed to the support kernel straight
/// from the wire bytes.
fn bench_wire_ingest(c: &mut Criterion) {
    let cells = 256usize;
    let n = 20_000usize;
    let plan = plan_with_cells(cells);
    let reports = synthetic_reports(n);
    let mut wire = bytes::BytesMut::new();
    for chunk in reports.chunks(10_000) {
        Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut wire);
    }
    let wire = wire.freeze();

    let mut group = c.benchmark_group(format!("wire_ingest_{cells}cells"));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("zero_copy", |b| {
        b.iter(|| {
            let mut collector = Collector::new(plan.clone()).unwrap();
            collector
                .ingest_stream_sharded(black_box(&wire), 1)
                .unwrap();
            black_box(collector.report_count())
        })
    });
    group.finish();
}

fn bench_wire_decode(c: &mut Criterion) {
    let n = 50_000usize;
    let tag = plan_with_cells(256).mechanism_tag();
    let reports = synthetic_reports(n);
    let mut group = c.benchmark_group("wire_decode");
    group.throughput(Throughput::Elements(n as u64));

    let mut batched = bytes::BytesMut::new();
    for chunk in reports.chunks(10_000) {
        Batch::tagged(chunk.to_vec(), tag).encode(&mut batched);
    }
    let batched = batched.freeze();
    group.bench_function("batch_16B", |b| {
        b.iter(|| black_box(Batch::decode_stream_tagged(batched.clone())).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_ingest,
    bench_support_kernel,
    bench_grr_vs_olh_kernel,
    bench_epoch_streaming,
    bench_wire_ingest,
    bench_wire_decode
);
criterion_main!(benches);
