//! The named workloads and the metrics computed from their samples.
//!
//! Every workload runs in cycles. A cycle is one pass of the write path
//! (clients → wire → collector → epoch cuts → publish, audited) followed
//! by one block of the workload's read traffic. Each timing is computed
//! per cycle (a rate over the cycle, or a percentile of its samples) and
//! reported as the best cycle's value: host contention only ever slows a
//! cycle down, so the best cycle is the steadiest estimate of what the
//! code costs, the same reasoning as the CLI's best-of-`--repeat` timing.

use crate::pipeline::{
    check_answers, clients, decode_answers, handle_open, handle_route, mixed_queries, plan,
    random_query, secs_since, write_path, Audit, Checks, Population, WritePass, OMEGAS,
};
use crate::stats::{fingerprint, median, peak_rss_mb, quantile};
use crate::trace::{summarize, Span, SpanId, Tracer, ROOT};
use crate::{Metrics, Outcome, LAYERS};
use bytes::Bytes;
use privmdr_core::{Hdg, ModelSnapshot};
use privmdr_data::DatasetSpec;
use privmdr_protocol::wire::AnswerBatch;
use privmdr_protocol::{
    session_open_to_bytes, session_route_to_bytes, ApproachKind, EpochCollector, OraclePolicy,
    QueryBatch, QueryServer, ServedNode,
};
use privmdr_query::workload::true_answers;
use privmdr_query::RangeQuery;
use privmdr_util::rng::{derive_rng, derive_seed};
use rand::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The write path: clients, wire, collector, 100 explicit epoch cuts
    /// per pass, each published to a one-tenant registry.
    IngestEpochs,
    /// The read path: closed-loop 1024-query route frames on one HDG
    /// tenant with the answer cache off, 2 shards.
    ServeUncached,
    /// Reads beside writes: an open loop of Zipf-popular queries over 4
    /// tenants with a bounded cache, hot-swapping epochs inline, 1 shard.
    ServeSwapZipf,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::IngestEpochs,
        Workload::ServeUncached,
        Workload::ServeSwapZipf,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestEpochs => "ingest-epochs",
            Workload::ServeUncached => "serve-uncached",
            Workload::ServeSwapZipf => "serve-swap-zipf",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced sizes, for tests.
    pub small: bool,
}

/// How many times a serving node is set up per cycle.
const SETUP_REPS: usize = 5;

/// How many times the write path's plan and collector are built per
/// cycle (microseconds each, so many samples are needed for a steady
/// median).
const WRITE_SETUP_REPS: usize = 64;

/// What one cycle measured.
#[derive(Debug, Default)]
struct Cycle {
    setup_s: Vec<f64>,
    /// Reports through the client phase.
    client_reports: u64,
    /// Per session: the client rate of each wire frame.
    client_rates: BTreeMap<u64, Vec<f64>>,
    /// Per session: the ingest rate of each epoch.
    epoch_rates: BTreeMap<u64, Vec<f64>>,
    write: WritePass,
    /// Service (closed loop) or due-to-done (open loop) time per frame.
    frame_ms: Vec<f64>,
    /// Closed loop: queries per second of each frame's service.
    frame_rates: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    queries: u64,
    /// Time the read block took to answer `queries`.
    serve_s: f64,
    /// Sum of per-frame service times (open loop).
    service_s: f64,
    backlog_ms: f64,
    /// Publishes that hot-swapped, write pass and read block together.
    swaps: u64,
    /// Serving-node cache counters (hits, misses, evictions) after the
    /// cycle.
    cache: (u64, u64, u64),
    bytes_per_report: f64,
}

impl Cycle {
    /// Counts one closed-loop frame of `queries` served in `secs`.
    fn served(&mut self, queries: usize, secs: f64) {
        self.frame_ms.push(secs * 1e3);
        self.frame_rates.push(queries as f64 / secs);
        self.serve_s += secs;
        self.queries += queries as u64;
    }

    /// Frames of the write pass's audits count as served frames where the
    /// workload has no read block of its own.
    fn fold_audits_into_frames(&mut self) {
        for (ms, q) in self.write.audit_frames.clone() {
            self.served(q, ms / 1e3);
        }
    }
}

/// The lowest per-cycle value of a figure where lower is better.
fn low(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    cycles.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The highest per-cycle value of a figure where higher is better.
fn high(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    cycles.iter().map(f).fold(f64::NEG_INFINITY, f64::max)
}

/// A write-path rate from per-session samples: the upper quartile of
/// each session's samples over every cycle, combined as the harmonic
/// mean over sessions (every session collects the same number of users,
/// so this is the rate of collecting all of them). Sessions with
/// different oracles run at different rates; pooling their samples would
/// let the fastest decide the quartile.
fn session_rate(cycles: &[Cycle], f: fn(&Cycle) -> &BTreeMap<u64, Vec<f64>>) -> f64 {
    let mut by_session: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for c in cycles {
        for (&session, rates) in f(c) {
            by_session.entry(session).or_default().extend(rates);
        }
    }
    let sessions = by_session.len() as f64;
    sessions
        / by_session
            .values()
            .map(|rates| 1.0 / quantile(rates, 0.75))
            .sum::<f64>()
}

/// The end-to-end metrics of a phase.
fn e2e(cycles: &[Cycle], mae: f64, checks: &Checks) -> Metrics {
    let mut m = Metrics::new();
    let mut set = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    // Set-up runs several times per cycle: the best cycle's median.
    set("setup_s", low(cycles, |c| median(&c.setup_s)), "s");
    // Write rates: the upper quartile of many short samples (one per
    // client frame, one per epoch) spread over the whole window.
    set(
        "client_reports_per_s",
        session_rate(cycles, |c| &c.client_rates),
        "1/s",
    );
    set(
        "ingest_reports_per_s",
        session_rate(cycles, |c| &c.epoch_rates),
        "1/s",
    );
    set(
        "epoch_lag_ms_p50",
        low(cycles, |c| quantile(&c.write.lag_ms, 0.5)),
        "ms",
    );
    set(
        "epoch_lag_ms_p90",
        low(cycles, |c| quantile(&c.write.lag_ms, 0.9)),
        "ms",
    );
    let frame_rates: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.frame_rates.iter().copied())
        .collect();
    set(
        "queries_per_s",
        if frame_rates.is_empty() {
            high(cycles, |c| c.queries as f64 / c.serve_s)
        } else {
            quantile(&frame_rates, 0.75)
        },
        "1/s",
    );
    set(
        "frame_latency_ms_p50",
        low(cycles, |c| quantile(&c.frame_ms, 0.5)),
        "ms",
    );
    set(
        "frame_latency_ms_p99",
        low(cycles, |c| quantile(&c.frame_ms, 0.99)),
        "ms",
    );
    // How late the open-loop generator ran when the last block ended.
    let last = cycles.last().expect("at least one cycle");
    set("backlog_ms_end", last.backlog_ms, "ms");
    set(
        "frame_service_ms_mean",
        low(cycles, |c| {
            let busy = if c.service_s > 0.0 {
                c.service_s
            } else {
                c.serve_s
            };
            busy * 1e3 / c.frame_ms.len().max(1) as f64
        }),
        "ms",
    );
    set("answer_mae", mae, "frac");
    set(
        "failed_ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "frac",
    );
    set("peak_rss_mb", peak_rss_mb(), "MiB");
    set("cycles", cycles.len() as f64, "count");
    m
}

/// A workload after its untimed set-up.
trait Bench {
    /// Starts a measured phase: fresh serving state.
    fn begin_phase(&mut self);

    /// Runs one cycle: a write pass, then a block of read traffic.
    fn cycle(&mut self, tr: &Tracer, checks: &mut Checks) -> Result<Cycle, String>;

    /// Accuracy on the audited subset.
    fn mae(&self) -> f64;

    /// A d = 5 HDG snapshot for the per-λ and shard-scaling probe.
    fn probe_snapshot(&self) -> Result<ModelSnapshot, String>;

    /// The workload's headline end-to-end metric, for the tracing
    /// overhead.
    fn headline(&self) -> &'static str;
}

/// Runs cycles for about `window` seconds (at least one).
fn phase(
    bench: &mut dyn Bench,
    window: f64,
    tr: &Tracer,
    checks: &mut Checks,
) -> Result<Vec<Cycle>, String> {
    bench.begin_phase();
    let start = Instant::now();
    let mut cycles = Vec::new();
    while cycles.is_empty() || secs_since(start) < window {
        cycles.push(bench.cycle(tr, checks)?);
    }
    Ok(cycles)
}

/// Runs a workload; returns what it measured and the tracer holding the
/// spans of a traced run.
pub fn run(opts: &RunOptions) -> Result<(Outcome, Tracer), String> {
    let tr = Tracer::new(opts.trace);
    let off = Tracer::new(false);
    let mut checks = Checks::default();
    let mut bench: Box<dyn Bench> = match opts.workload {
        Workload::IngestEpochs => Box::new(IngestEpochs::new(opts)?),
        Workload::ServeUncached => Box::new(ServeUncached::new(opts)?),
        Workload::ServeSwapZipf => Box::new(ServeSwapZipf::new(opts, &mut checks)?),
    };
    let mut out = Outcome::default();
    if !opts.trace {
        let cycles = phase(bench.as_mut(), opts.seconds, &off, &mut checks)?;
        out.e2e = e2e(&cycles, bench.mae(), &checks);
        out.counts = counts(&cycles[0], bench.mae());
        out.checks = checks;
        return Ok((out, tr));
    }
    // Traced: the same phase untraced, then traced, each half the window;
    // the difference of their headline costs is the tracing overhead.
    let plain = phase(bench.as_mut(), opts.seconds / 2.0, &off, &mut checks)?;
    let traced = phase(bench.as_mut(), opts.seconds / 2.0, &tr, &mut checks)?;
    let spans = tr.spans();
    let probe = probe(&bench.probe_snapshot()?, opts.seed, opts.small)?;
    out.e2e_untraced = e2e(&plain, bench.mae(), &checks);
    out.e2e = e2e(&traced, bench.mae(), &checks);
    out.layers = layer_metrics(&traced, &spans, &probe);
    let headline = bench.headline();
    let (with, without) = (out.e2e[headline].0, out.e2e_untraced[headline].0);
    // Positive: tracing made the headline worse.
    let slowdown = if headline.ends_with("_per_s") {
        without / with
    } else {
        with / without
    };
    out.layers
        .insert("trace.overhead_pct".into(), ((slowdown - 1.0) * 100.0, "%"));
    out.self_table = self_table(&spans);
    out.counts = counts(&traced[0], bench.mae());
    out.counts
        .insert("estimation.wu_sweeps_per_query", probe.sweeps_per_query);
    out.checks = checks;
    Ok((out, tr))
}

/// The counts that must repeat exactly for a seed (first cycle of a
/// phase).
fn counts(c: &Cycle, mae: f64) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("wire.bytes_per_report", c.bytes_per_report),
        ("stream.cuts", c.write.cuts as f64),
        ("registry.swaps", c.swaps as f64),
        ("registry.cache_hits", c.cache.0 as f64),
        ("registry.cache_misses", c.cache.1 as f64),
        ("registry.cache_evictions", c.cache.2 as f64),
        ("answer_mae", mae),
    ])
}

/// Per-layer metrics of a traced phase.
fn layer_metrics(cycles: &[Cycle], spans: &[Span], probe: &Probe) -> Metrics {
    let by_name = summarize(spans, |s| s.name);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let total_ns = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_ns as f64);
    let mean_ns = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64)
    };
    let client_reports: u64 = cycles.iter().map(|c| c.client_reports).sum();
    let per_report = |ns: f64| ns / client_reports.max(1) as f64;
    let first = &cycles[0];
    let (hits, misses, evictions) = first.cache;
    let mut m = Metrics::new();
    let mut set = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    set(
        "client.report_ns",
        per_report(total_ns("client.report")),
        "ns",
    );
    set(
        "wire.encode_ns_per_report",
        per_report(total_ns("wire.encode_batch")),
        "ns",
    );
    set("wire.bytes_per_report", first.bytes_per_report, "B");
    set("server.ingest_busy_s", low(cycles, |c| c.write.busy_s), "s");
    set(
        "server.reports_per_busy_s",
        high(cycles, |c| c.write.reports as f64 / c.write.busy_s),
        "1/s",
    );
    set(
        "stream.cut_ms_p50",
        low(cycles, |c| median(&c.write.cut_ms)),
        "ms",
    );
    set("stream.cuts", first.write.cuts as f64, "count");
    set(
        "registry.publish_ms_p50",
        median(&durations("registry.publish")) / 1e6,
        "ms",
    );
    set(
        "core.snapshot.restore_ms",
        median(&durations("snapshot.restore")) / 1e6,
        "ms",
    );
    set(
        "wire.snapshot_bytes",
        first.write.snapshot_bytes as f64,
        "B",
    );
    set(
        "wire.snapshot_decode_ms",
        median(&durations("wire.decode_snapshot")) / 1e6,
        "ms",
    );
    set(
        "served.decode_us_per_frame",
        mean_ns("wire.decode_route") / 1e3,
        "us",
    );
    set(
        "served.self_us_per_frame",
        by_name
            .get("served.route")
            .map_or(0.0, |t| t.self_ns as f64 / t.count as f64 / 1e3),
        "us",
    );
    for (lambda, ns) in probe.lambda_ns.iter().enumerate() {
        set(
            &format!("serve.answer_ns_per_query.lambda{}", lambda + 1),
            *ns,
            "ns",
        );
    }
    set(
        "estimation.wu_sweeps_per_query",
        probe.sweeps_per_query,
        "count",
    );
    set("par.shard_speedup", probe.shard_speedup, "x");
    set(
        "registry.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "frac",
    );
    set("registry.cache_evictions", evictions as f64, "count");
    set("registry.swaps", first.swaps as f64, "count");
    set(
        "served.queue_wait_ms_p50",
        low(cycles, |c| quantile(&c.queue_wait_ms, 0.5)),
        "ms",
    );
    let by_layer = summarize(spans, |s| s.layer);
    for layer in LAYERS {
        let ms = by_layer.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        set(&format!("self_ms.{layer}"), ms, "ms");
    }
    m
}

/// One line per layer: spans, total and self time, self share.
fn self_table(spans: &[Span]) -> Vec<String> {
    let by_layer = summarize(spans, |s| s.layer);
    let all_self: u64 = by_layer.values().map(|t| t.self_ns).sum();
    by_layer
        .iter()
        .map(|(layer, t)| {
            format!(
                "{layer:<18} spans={:<8} total_ms={:<12.3} self_ms={:<12.3} self_share={:.1}%",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            )
        })
        .collect()
}

/// What the fixed serving probe measured.
struct Probe {
    lambda_ns: [f64; 5],
    shard_speedup: f64,
    sweeps_per_query: f64,
}

/// The fixed serving probe on a d = 5 HDG snapshot: answer cost per
/// query at each λ = 1..5 (one shard), the throughput ratio of two shards
/// over one on the same frames, and Weighted-Update sweeps per query.
fn probe(snapshot: &ModelSnapshot, seed: u64, small: bool) -> Result<Probe, String> {
    let server = QueryServer::new(snapshot).map_err(|e| e.to_string())?;
    let (d, c) = (snapshot.d, snapshot.c);
    let per_lambda = if small { 256 } else { 4096 };
    let time = |queries: &[RangeQuery], shards: usize| {
        let t = Instant::now();
        std::hint::black_box(server.answer_workload(queries, shards));
        secs_since(t)
    };
    let mut lambda_ns = [0.0; 5];
    for (i, ns) in lambda_ns.iter_mut().enumerate() {
        let mut rng = derive_rng(seed, &[0x9B0E, i as u64]);
        let queries: Vec<RangeQuery> = (0..per_lambda)
            .map(|j| random_query(d, c, i + 1, OMEGAS[j % OMEGAS.len()], &mut rng))
            .collect();
        let reps: Vec<f64> = (0..4).map(|_| time(&queries, 1)).collect();
        *ns = median(&reps[1..]) * 1e9 / per_lambda as f64;
    }
    let mut rng = derive_rng(seed, &[0x9B0F]);
    let frames: Vec<Vec<RangeQuery>> = (0..if small { 4 } else { 32 })
        .map(|_| mixed_queries(d, c, &[2, 3, 4, 5], 1024, &mut rng))
        .collect();
    let queries: usize = frames.iter().map(Vec::len).sum();
    let before = server.estimator_telemetry().unwrap_or_default().wu_sweeps;
    let pass = |shards: usize| frames.iter().map(|f| time(f, shards)).sum::<f64>();
    pass(1);
    let after = server.estimator_telemetry().unwrap_or_default().wu_sweeps;
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(pass(1));
        two.push(pass(2));
    }
    Ok(Probe {
        lambda_ns,
        shard_speedup: median(&one) / median(&two),
        sweeps_per_query: (after - before) as f64 / queries as f64,
    })
}

/// Times `SETUP_REPS` fresh serving nodes, each opened with `opens`, into
/// `cycle.setup_s`; returns the last.
fn serving_setup(
    cap: usize,
    shards: usize,
    opens: &[&Bytes],
    tr: &Tracer,
    cycle: &mut Cycle,
    checks: &mut Checks,
) -> ServedNode {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let node = ServedNode::new(cap, shards);
        for open in opens {
            let r = handle_open(&node, open, tr, ROOT);
            checks.check(r.is_ok(), || "set-up publish rejected".into());
        }
        cycle.setup_s.push(secs_since(t));
        last = Some(node);
    }
    last.expect("at least one set-up")
}

/// One collection session of a workload: the population, its audit, and
/// the write-path shape.
struct Session {
    pop: Population,
    mechanism: (OraclePolicy, ApproachKind),
    audit: Audit,
    truth: Vec<f64>,
    batch: usize,
    frames_per_epoch: usize,
    shards: usize,
    session: u64,
}

impl Session {
    #[allow(clippy::too_many_arguments)]
    fn new(
        n: usize,
        d: usize,
        c: usize,
        mechanism: (OraclePolicy, ApproachKind),
        lambdas: &[usize],
        audit: usize,
        (batch, epochs, shards): (usize, usize, usize),
        session: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let pop = Population::new(n, d, c, mechanism, seed)?;
        let audit = Audit::new(d, c, lambdas, audit, seed);
        let truth = true_answers(&pop.ds, &audit.queries);
        Ok(Session {
            frames_per_epoch: n.div_ceil(batch).div_ceil(epochs),
            pop,
            mechanism,
            audit,
            truth,
            batch,
            shards,
            session,
        })
    }

    /// One write pass, folded into `cycle`: set-up timed `setup_reps`
    /// times (plan, epoch collector, one-tenant node), then clients,
    /// collector, epoch cuts and audited publishes.
    fn write_pass(
        &self,
        setup_reps: usize,
        keep_snapshots: bool,
        cycle: &mut Cycle,
        checks: &mut Checks,
        tr: &Tracer,
        parent: SpanId,
    ) -> Result<WritePass, String> {
        let p = &self.pop.plan;
        let mut built = None;
        for _ in 0..setup_reps {
            let t = Instant::now();
            let plan = plan(p.n, p.d, p.c, self.mechanism, p.assignment_seed)?;
            let collector = EpochCollector::new(plan).map_err(|e| e.to_string())?;
            let node = ServedNode::new(0, self.shards);
            cycle.setup_s.push(secs_since(t));
            built = Some((collector, node));
        }
        let (mut collector, node) = built.ok_or("no write set-up")?;
        let stream = clients(&self.pop, self.batch, tr, parent)?;
        cycle.client_reports += stream.reports as u64;
        cycle
            .client_rates
            .entry(self.session)
            .or_default()
            .extend(&stream.frame_rates);
        cycle.bytes_per_report = stream.bytes.len() as f64 / stream.reports as f64;
        let pass = write_path(
            &mut collector,
            &stream,
            self.frames_per_epoch,
            self.shards,
            &node,
            self.session,
            &self.audit,
            keep_snapshots,
            checks,
            tr,
            parent,
        )?;
        cycle
            .epoch_rates
            .entry(self.session)
            .or_default()
            .extend(&pass.epoch_rates);
        cycle.swaps += pass.swaps;
        let w = &mut cycle.write;
        w.reports += pass.reports;
        w.busy_s += pass.busy_s;
        w.lag_ms.extend(&pass.lag_ms);
        w.cut_ms.extend(&pass.cut_ms);
        w.snapshot_bytes = pass.snapshot_bytes;
        w.cuts += pass.cuts;
        w.audit_frames.extend(&pass.audit_frames);
        Ok(pass)
    }

    fn mae(&self, snapshot: &ModelSnapshot) -> Result<f64, String> {
        self.audit.mae(snapshot, &self.truth)
    }
}

// ---------------------------------------------------------------------
// ingest-epochs

/// ingest-epochs: the write path on repeat; the audit frames after each
/// publish are its read traffic.
struct IngestEpochs {
    session: Session,
    mae: Option<f64>,
    last: Option<ModelSnapshot>,
}

impl IngestEpochs {
    fn new(opts: &RunOptions) -> Result<Self, String> {
        // 2·10⁶ users in 10k-report frames, cut every 2 frames: 100 epochs.
        let (n, c, batch, audit) = if opts.small {
            (20_000, 16, 1_000, 15)
        } else {
            (2_000_000, 64, 10_000, 63)
        };
        let session = Session::new(
            n,
            5,
            c,
            (OraclePolicy::Olh, ApproachKind::Hdg),
            &[1, 2, 3, 4, 5],
            audit,
            (batch, n.div_ceil(batch) / 2, 2),
            1,
            opts.seed,
        )?;
        Ok(IngestEpochs {
            session,
            mae: None,
            last: None,
        })
    }
}

impl Bench for IngestEpochs {
    fn begin_phase(&mut self) {}

    fn cycle(&mut self, tr: &Tracer, checks: &mut Checks) -> Result<Cycle, String> {
        let mut cycle = Cycle::default();
        let pass = tr.span(ROOT, "bench", "bench.cycle");
        let wp =
            self.session
                .write_pass(WRITE_SETUP_REPS, false, &mut cycle, checks, tr, pass.id())?;
        if self.mae.is_none() {
            let last = wp.last.ok_or("no epoch was cut")?;
            self.mae = Some(self.session.mae(&last)?);
            self.last = Some(last);
        }
        cycle.fold_audits_into_frames();
        Ok(cycle)
    }

    fn mae(&self) -> f64 {
        self.mae.unwrap_or(f64::NAN)
    }

    fn probe_snapshot(&self) -> Result<ModelSnapshot, String> {
        self.last.clone().ok_or_else(|| "no pass ran".into())
    }

    fn headline(&self) -> &'static str {
        "ingest_reports_per_s"
    }
}

// ---------------------------------------------------------------------
// serve-uncached

/// serve-uncached: closed-loop reads on one tenant, cache off; each
/// cycle also rebuilds the tenant through the write path.
struct ServeUncached {
    session: Session,
    seed: u64,
    frame_queries: usize,
    block_s: f64,
    open: Bytes,
    snapshot: ModelSnapshot,
    reference: QueryServer,
    mae: f64,
    node: Option<ServedNode>,
    next_frame: usize,
}

impl ServeUncached {
    const LAMBDAS: [usize; 4] = [2, 3, 4, 5];

    fn new(opts: &RunOptions) -> Result<Self, String> {
        let (n, c, batch, epochs, audit) = if opts.small {
            (20_000, 16, 1_000, 4, 15)
        } else {
            (1_000_000, 64, 10_000, 20, 127)
        };
        let session = Session::new(
            n,
            5,
            c,
            (OraclePolicy::Olh, ApproachKind::Hdg),
            &Self::LAMBDAS,
            audit,
            (batch, epochs, 2),
            1,
            opts.seed,
        )?;
        // The served tenant is the write path's last epoch: every report.
        let off = Tracer::new(false);
        let mut scratch = Cycle::default();
        let mut checks = Checks::default();
        let wp = session.write_pass(1, false, &mut scratch, &mut checks, &off, ROOT)?;
        if checks.failed > 0 {
            return Err(format!("tenant build failed: {:?}", checks.notes));
        }
        let snapshot = wp.last.ok_or("no epoch was cut")?;
        Ok(ServeUncached {
            seed: opts.seed,
            frame_queries: if opts.small { 64 } else { 1024 },
            block_s: if opts.small { 0.1 } else { 0.75 },
            open: session_open_to_bytes(1, &snapshot),
            reference: QueryServer::new(&snapshot).map_err(|e| e.to_string())?,
            mae: session.mae(&snapshot)?,
            snapshot,
            session,
            node: None,
            next_frame: 0,
        })
    }

    /// Queries of route frame `j`, deterministic in the seed.
    fn frame(&self, j: usize) -> Vec<RangeQuery> {
        let mut rng = derive_rng(self.seed, &[0xF2A3, j as u64]);
        let (d, c) = (self.snapshot.d, self.snapshot.c);
        mixed_queries(d, c, &Self::LAMBDAS, self.frame_queries, &mut rng)
    }
}

impl Bench for ServeUncached {
    fn begin_phase(&mut self) {
        self.node = None;
    }

    fn cycle(&mut self, tr: &Tracer, checks: &mut Checks) -> Result<Cycle, String> {
        let mut cycle = Cycle::default();
        let write = tr.span(ROOT, "bench", "bench.write_pass");
        let wp = self
            .session
            .write_pass(1, false, &mut cycle, checks, tr, write.id())?;
        drop(write);
        checks.check(wp.last.as_ref() == Some(&self.snapshot), || {
            "a write pass did not rebuild the served snapshot".into()
        });
        // A serving workload's set-up is its serving node's, not the
        // write side's.
        cycle.setup_s.clear();
        let shards = self.session.shards;
        let fresh = serving_setup(0, shards, &[&self.open], tr, &mut cycle, checks);
        let node = self.node.take().unwrap_or(fresh);
        let first = self.next_frame;
        let mut served: Vec<Option<u64>> = Vec::new();
        let start = Instant::now();
        while served.is_empty() || secs_since(start) < self.block_s {
            let queries = self.frame(first + served.len());
            let frame = session_route_to_bytes(1, &QueryBatch::new(self.snapshot.c, queries));
            let t = Instant::now();
            let response = handle_route(&node, shards, &frame, tr, ROOT);
            cycle.served(self.frame_queries, secs_since(t));
            served.push(response.ok().map(|r| fingerprint(&r)));
        }
        let stats = node.registry().cache_stats_total();
        cycle.cache = (stats.hits, stats.misses, stats.evictions);
        self.node = Some(node);
        self.next_frame += served.len();
        // Every frame against the reference at one shard, after the block.
        for (i, got) in served.iter().enumerate() {
            let expected = self.reference.answer_workload(&self.frame(first + i), 1);
            let want = fingerprint(&AnswerBatch::new(expected.clone()).to_bytes());
            checks.check(
                *got == Some(want) && expected.iter().all(|a| a.is_finite()),
                || format!("route frame {}: rejected or not bit-equal", first + i),
            );
        }
        Ok(cycle)
    }

    fn mae(&self) -> f64 {
        self.mae
    }

    fn probe_snapshot(&self) -> Result<ModelSnapshot, String> {
        Ok(self.snapshot.clone())
    }

    fn headline(&self) -> &'static str {
        "queries_per_s"
    }
}

// ---------------------------------------------------------------------
// serve-swap-zipf

/// One tenant of serve-swap-zipf: its write-path session, its epochs as
/// session-open frames, its query pool, and the reference answers of
/// every pool query on every epoch.
struct Tenant {
    session: Session,
    snapshots: Vec<ModelSnapshot>,
    opens: Vec<Bytes>,
    pool: Vec<RangeQuery>,
    reference: Vec<Vec<f64>>,
}

/// serve-swap-zipf: an open loop over 4 tenants with a bounded cache and
/// inline epoch hot-swaps; each cycle also re-collects every tenant
/// through the write path.
struct ServeSwapZipf {
    seed: u64,
    c: usize,
    tenants: Vec<Tenant>,
    cdf: Vec<f64>,
    cache_cap: usize,
    frame_queries: usize,
    rate_hz: f64,
    block_s: f64,
    swap_every: usize,
    mae: f64,
    probe_n: usize,
    node: Option<ServedNode>,
    current: Vec<usize>,
    next_frame: usize,
}

impl ServeSwapZipf {
    /// The tenants' mechanisms: every approach and four oracles.
    const MECHANISMS: [(OraclePolicy, ApproachKind); 4] = [
        (OraclePolicy::Olh, ApproachKind::Hdg),
        (OraclePolicy::Grr, ApproachKind::Tdg),
        (OraclePolicy::Sw, ApproachKind::Msw),
        (OraclePolicy::Wheel, ApproachKind::Hdg),
    ];
    const LAMBDAS: [usize; 3] = [1, 2, 3];
    /// Zipf exponent of query popularity.
    const ZIPF_S: f64 = 1.1;

    fn new(opts: &RunOptions, checks: &mut Checks) -> Result<Self, String> {
        let (n, c, batch, epochs, pool, cap, audit) = if opts.small {
            (8_000, 16, 1_000, 4, 512, 128, 15)
        } else {
            (500_000, 64, 10_000, 8, 16_384, 4_096, 63)
        };
        let off = Tracer::new(false);
        let mut tenants = Vec::new();
        let mut mae = 0.0;
        for (t, &mechanism) in Self::MECHANISMS.iter().enumerate() {
            let seed = derive_seed(opts.seed, &[t as u64]);
            let session = Session::new(
                n,
                3,
                c,
                mechanism,
                &Self::LAMBDAS,
                audit,
                (batch, epochs, 1),
                t as u64 + 1,
                seed,
            )?;
            let mut scratch = Cycle::default();
            let wp = session.write_pass(1, true, &mut scratch, checks, &off, ROOT)?;
            let last = wp.last.as_ref().ok_or("no epoch was cut")?;
            mae += session.mae(last)? / Self::MECHANISMS.len() as f64;
            let mut rng = derive_rng(seed, &[0x9001]);
            let pool = mixed_queries(3, c, &Self::LAMBDAS, pool, &mut rng);
            let reference = wp
                .snapshots
                .iter()
                .map(|snap| {
                    QueryServer::new(snap)
                        .map(|srv| srv.answer_workload(&pool, 1))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            tenants.push(Tenant {
                opens: wp
                    .snapshots
                    .iter()
                    .map(|snap| session_open_to_bytes(t as u64 + 1, snap))
                    .collect(),
                snapshots: wp.snapshots,
                session,
                pool,
                reference,
            });
        }
        let pool = tenants[0].pool.len();
        let weights: Vec<f64> = (1..=pool)
            .map(|r| 1.0 / (r as f64).powf(Self::ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Ok(ServeSwapZipf {
            seed: opts.seed,
            c,
            current: vec![0; tenants.len()],
            tenants,
            cdf,
            cache_cap: cap,
            frame_queries: if opts.small { 32 } else { 256 },
            rate_hz: if opts.small { 400.0 } else { 3_000.0 },
            block_s: if opts.small { 0.1 } else { 1.0 },
            swap_every: if opts.small { 10 } else { 250 },
            mae,
            probe_n: if opts.small { 20_000 } else { 1_000_000 },
            node: None,
            next_frame: 0,
        })
    }

    /// Pool indices of route frame `j`, Zipf-popular.
    fn frame_indices(&self, j: usize) -> Vec<usize> {
        let mut rng = derive_rng(self.seed, &[0x21F5, j as u64]);
        (0..self.frame_queries)
            .map(|_| {
                let u: f64 = rng.random();
                self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
            })
            .collect()
    }
}

impl Bench for ServeSwapZipf {
    fn begin_phase(&mut self) {
        self.node = None;
        self.next_frame = 0;
        self.current.iter_mut().for_each(|e| *e = 0);
    }

    fn cycle(&mut self, tr: &Tracer, checks: &mut Checks) -> Result<Cycle, String> {
        let mut cycle = Cycle::default();
        for tenant in &self.tenants {
            let write = tr.span(ROOT, "bench", "bench.write_pass");
            let wp = tenant
                .session
                .write_pass(1, true, &mut cycle, checks, tr, write.id())?;
            drop(write);
            checks.check(wp.snapshots == tenant.snapshots, || {
                "a write pass did not rebuild the tenant's epochs".into()
            });
        }
        cycle.setup_s.clear();
        let firsts: Vec<&Bytes> = self.tenants.iter().map(|t| &t.opens[0]).collect();
        let fresh = serving_setup(self.cache_cap, 1, &firsts, tr, &mut cycle, checks);
        let node = self.node.take().unwrap_or(fresh);
        // Open loop: frame k of the block is due at t0 + k / rate, however
        // late the previous one finished; an inline hot-swap arrives with
        // every `swap_every`-th frame.
        let frames = ((self.rate_hz * self.block_s).round() as usize).max(1);
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut last_end = t0;
        for k in 0..frames {
            let j = self.next_frame + k;
            let v = j % self.tenants.len();
            let idx = self.frame_indices(j);
            let queries = idx
                .iter()
                .map(|&i| self.tenants[v].pool[i].clone())
                .collect();
            let frame = session_route_to_bytes(v as u64 + 1, &QueryBatch::new(self.c, queries));
            let swap = (j > 0 && j.is_multiple_of(self.swap_every))
                .then(|| (j / self.swap_every - 1) % self.tenants.len());
            let due = t0 + Duration::from_secs_f64(k as f64 / self.rate_hz);
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let started = Instant::now();
            if let Some(u) = swap {
                let epochs = self.tenants[u].opens.len();
                self.current[u] = (self.current[u] + 1) % epochs;
                let open = &self.tenants[u].opens[self.current[u]];
                let swapped = handle_open(&node, open, tr, ROOT).is_ok_and(|r| r.swapped);
                checks.check(swapped, || {
                    format!("inline publish to tenant {u} did not swap")
                });
                cycle.swaps += u64::from(swapped);
            }
            let response = handle_route(&node, 1, &frame, tr, ROOT);
            let end = Instant::now();
            cycle.frame_ms.push((end - due).as_secs_f64() * 1e3);
            cycle
                .queue_wait_ms
                .push(started.saturating_duration_since(due).as_secs_f64() * 1e3);
            cycle.service_s += (end - started).as_secs_f64();
            cycle.queries += idx.len() as u64;
            cycle.backlog_ms = started.saturating_duration_since(due).as_secs_f64() * 1e3;
            last_end = end;
            let reference = &self.tenants[v].reference[self.current[v]];
            let expected: Vec<f64> = idx.iter().map(|&i| reference[i]).collect();
            match response.and_then(|r| decode_answers(&r)) {
                Ok(served) => check_answers(&served, &expected, checks, "route frame"),
                Err(e) => checks.check(false, || format!("route frame {j} rejected: {e}")),
            }
        }
        self.next_frame += frames;
        cycle.serve_s = (last_end - t0).as_secs_f64();
        let stats = node.registry().cache_stats_total();
        cycle.cache = (stats.hits, stats.misses, stats.evictions);
        self.node = Some(node);
        Ok(cycle)
    }

    fn mae(&self) -> f64 {
        self.mae
    }

    fn probe_snapshot(&self) -> Result<ModelSnapshot, String> {
        // The tenants have 3 attributes; the λ = 4, 5 probe needs 5.
        let ds = DatasetSpec::Normal { rho: 0.8 }.generate(self.probe_n, 5, self.c, self.seed);
        Hdg::default()
            .snapshot(&ds, 1.0, self.seed)
            .map_err(|e| e.to_string())
    }

    fn headline(&self) -> &'static str {
        "frame_latency_ms_p50"
    }
}
