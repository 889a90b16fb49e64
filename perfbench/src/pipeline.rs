//! The production path, driven from outside through the public functions
//! of each layer: plan → client → wire → cursor/server → stream →
//! snapshot → registry → served.
//!
//! Untraced, a session frame goes through [`ServedNode::handle_frame`] as
//! one call. Traced, the benchmark makes the same public calls that
//! `handle_frame` makes (envelope decode, registry lookup, cache probe,
//! sharded answering, cache insert, answer encode) one at a time, so each
//! gets its own span. Both forms are checked against the same reference
//! answers, so the traced form cannot drift from the real one unnoticed.

use crate::trace::{SpanId, Tracer};
use bytes::{Bytes, BytesMut};
use privmdr_core::ModelSnapshot;
use privmdr_data::{Dataset, DatasetSpec};
use privmdr_protocol::served::ServedEvent;
use privmdr_protocol::wire::AnswerBatch;
use privmdr_protocol::{
    decode_session_frame, session_open_to_bytes, session_route_to_bytes, ApproachKind, Batch,
    ClientFactory, EpochCollector, OraclePolicy, PublishReceipt, QueryBatch, QueryServer,
    ServedNode, SessionFrame, SessionPlan,
};
use privmdr_query::{Predicate, RangeQuery};
use privmdr_util::par::{par_map, split_chunks};
use privmdr_util::rng::derive_rng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;
use std::time::Instant;

/// Dimensional query volumes ω the query mixes cycle through (the
/// paper's ω sweep).
pub const OMEGAS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that were rejected, non-finite, or not bit-equal to
    /// the reference.
    pub failed: u64,
    /// Up to ten failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One collection session: its public plan and the users' private rows.
pub struct Population {
    /// The plan the aggregator publishes.
    pub plan: SessionPlan,
    /// One row per user, the input each device randomizes.
    pub ds: Dataset,
    /// Seed of the client randomness.
    pub seed: u64,
}

impl Population {
    /// `n` users over `d` attributes of domain `c`, drawn from a
    /// correlated normal (ρ = 0.8, the CLI default), collected under the
    /// given mechanism at ε = 1.
    pub fn new(
        n: usize,
        d: usize,
        c: usize,
        mechanism: (OraclePolicy, ApproachKind),
        seed: u64,
    ) -> Result<Self, String> {
        let ds = DatasetSpec::Normal { rho: 0.8 }.generate(n, d, c, seed);
        Ok(Population {
            plan: plan(n, d, c, mechanism, seed)?,
            ds,
            seed,
        })
    }
}

/// The public plan for a session (ε = 1).
pub fn plan(
    n: usize,
    d: usize,
    c: usize,
    (oracle, approach): (OraclePolicy, ApproachKind),
    seed: u64,
) -> Result<SessionPlan, String> {
    SessionPlan::with_mechanism(n, d, c, 1.0, seed, oracle, approach).map_err(|e| e.to_string())
}

/// A population's reports, framed as `Batch` wire frames.
pub struct WireStream {
    /// Every frame, back to back.
    pub bytes: Bytes,
    /// Byte range of each frame.
    pub frames: Vec<Range<usize>>,
    /// Reports in the stream.
    pub reports: usize,
    /// Per frame: reports per second of its `Client::report` calls and
    /// `Batch` encode.
    pub frame_rates: Vec<f64>,
}

/// Device side: every user randomizes its row through its group's
/// oracle (`Client::report`) and the reports are framed into `batch`-sized
/// `Batch` frames, on one thread.
pub fn clients(
    pop: &Population,
    batch: usize,
    tr: &Tracer,
    parent: SpanId,
) -> Result<WireStream, String> {
    let factory = ClientFactory::new(&pop.plan).map_err(|e| e.to_string())?;
    let tag = pop.plan.mechanism_tag();
    let n = pop.ds.len();
    let mut rng = derive_rng(pop.seed, &[0x1A]);
    let mut buf = BytesMut::new();
    let mut frames = Vec::with_capacity(n.div_ceil(batch));
    let mut frame_rates = Vec::with_capacity(n.div_ceil(batch));
    for lo in (0..n).step_by(batch) {
        let hi = (lo + batch).min(n);
        let t = Instant::now();
        let reports = {
            let _s = tr.span(parent, "protocol.client", "client.report");
            (lo..hi)
                .map(|uid| factory.client(uid as u64).report(pop.ds.row(uid), &mut rng))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?
        };
        let at = buf.len();
        {
            let _s = tr.span(parent, "protocol.wire", "wire.encode_batch");
            Batch::tagged(reports, tag).encode(&mut buf);
        }
        frames.push(at..buf.len());
        frame_rates.push((hi - lo) as f64 / secs_since(t));
    }
    Ok(WireStream {
        frame_rates,
        bytes: buf.freeze(),
        frames,
        reports: n,
    })
}

/// What one pass of the write path did and how long its parts took.
#[derive(Debug, Default)]
pub struct WritePass {
    /// Reports ingested.
    pub reports: u64,
    /// Time inside the collector's ingest calls, seconds.
    pub busy_s: f64,
    /// Per epoch: from its last report handed to the collector until its
    /// snapshot is published and servable, ms.
    pub lag_ms: Vec<f64>,
    /// Per epoch: its reports over the time from its first frame handed to
    /// the collector to its snapshot live, reports per second.
    pub epoch_rates: Vec<f64>,
    /// Per epoch: `EpochCollector::cut_epoch`, ms.
    pub cut_ms: Vec<f64>,
    /// Encoded size of the last session-open frame, bytes.
    pub snapshot_bytes: usize,
    /// Epochs cut.
    pub cuts: usize,
    /// Publishes that hot-swapped a live session.
    pub swaps: u64,
    /// The audited frames: service time in ms, and queries answered.
    pub audit_frames: Vec<(f64, usize)>,
    /// Every epoch's snapshot, when the caller asked to keep them.
    pub snapshots: Vec<ModelSnapshot>,
    /// The last epoch's snapshot (every report of the pass).
    pub last: Option<ModelSnapshot>,
}

/// Collector side: hands the stream to `collector` frame by frame, cuts
/// an epoch by an explicit `cut_epoch` call after every `frames_per_epoch`
/// frames, and publishes each cut to `session` on `node` as a
/// session-open frame. After each publish (outside the timed sections)
/// the audit frame checks the live epoch against a reference restored
/// from the same snapshot.
#[allow(clippy::too_many_arguments)]
pub fn write_path(
    collector: &mut EpochCollector,
    stream: &WireStream,
    frames_per_epoch: usize,
    shards: usize,
    node: &ServedNode,
    session: u64,
    audit: &Audit,
    keep_snapshots: bool,
    checks: &mut Checks,
    tr: &Tracer,
    parent: SpanId,
) -> Result<WritePass, String> {
    let mut pass = WritePass::default();
    for epoch in stream.frames.chunks(frames_per_epoch) {
        let mut handoff = Instant::now();
        let (mut epoch_reports, mut epoch_s) = (0u64, 0.0);
        for range in epoch {
            handoff = Instant::now();
            let ingested = {
                let _s = tr.span(parent, "protocol.server", "server.ingest_stream");
                collector.ingest_stream_epochs(
                    &stream.bytes[range.clone()],
                    shards,
                    u64::MAX,
                    |_| {},
                )
            };
            let secs = secs_since(handoff);
            pass.busy_s += secs;
            epoch_s += secs;
            match ingested {
                Ok(n) => {
                    pass.reports += n as u64;
                    epoch_reports += n as u64;
                }
                Err(e) => checks.check(false, || format!("ingest rejected a frame: {e}")),
            }
        }
        let t = Instant::now();
        let cut = {
            let _s = tr.span(parent, "protocol.stream", "stream.cut_epoch");
            collector.cut_epoch().map_err(|e| e.to_string())?
        };
        pass.cut_ms.push(secs_since(t) * 1e3);
        let open = {
            let _s = tr.span(parent, "protocol.wire", "wire.encode_snapshot");
            session_open_to_bytes(session, &cut.snapshot)
        };
        let receipt = handle_open(node, &open, tr, parent);
        pass.lag_ms.push(secs_since(handoff) * 1e3);
        pass.epoch_rates
            .push(epoch_reports as f64 / (epoch_s + secs_since(t)));
        pass.snapshot_bytes = open.len();
        pass.cuts += 1;
        match receipt {
            Ok(r) => {
                if r.swapped && !r.created {
                    pass.swaps += 1;
                }
                checks.check(r.swapped, || "an epoch publish did not swap".into());
            }
            Err(e) => checks.check(false, || format!("publish rejected: {e}")),
        }
        pass.audit_frames.push(audit.check_epoch(
            node,
            session,
            shards,
            &cut.snapshot,
            checks,
            tr,
            parent,
        ));
        if keep_snapshots {
            pass.snapshots.push(cut.snapshot.clone());
        }
        pass.last = Some(cut.snapshot);
    }
    Ok(pass)
}

/// Handles a session-open frame on `node`: one `handle_frame` call
/// untraced, or its two public steps (envelope + snapshot decode, then
/// registry publish with the eager answerer build) traced.
pub fn handle_open(
    node: &ServedNode,
    frame: &Bytes,
    tr: &Tracer,
    parent: SpanId,
) -> Result<PublishReceipt, String> {
    let mut buf = frame.clone();
    if !tr.enabled() {
        return match node.handle_frame(&mut buf).map_err(|e| e.to_string())? {
            ServedEvent::Opened(r) => Ok(r),
            _ => Err("an open frame was answered as a route".into()),
        };
    }
    let served = tr.span(parent, "protocol.served", "served.open");
    let decoded = {
        let _s = tr.span(served.id(), "protocol.wire", "wire.decode_snapshot");
        decode_session_frame(&mut buf).map_err(|e| e.to_string())?
    };
    let SessionFrame::Open { session, snapshot } = decoded else {
        return Err("an open frame decoded as a route".into());
    };
    let _s = tr.span(served.id(), "protocol.registry", "registry.publish");
    node.registry()
        .publish(session, &snapshot)
        .map_err(|e| e.to_string())
}

/// Handles a session-route frame on `node` and returns the encoded
/// answer frame: one `handle_frame` call untraced, or the same public
/// calls `handle_frame` makes, one span each, traced. The steps of
/// `Tenant::serve_batch` run under one `registry.serve_batch` span, so the
/// registry's self time covers exactly what that method does besides
/// answering.
pub fn handle_route(
    node: &ServedNode,
    shards: usize,
    frame: &Bytes,
    tr: &Tracer,
    parent: SpanId,
) -> Result<Bytes, String> {
    let mut buf = frame.clone();
    if !tr.enabled() {
        return match node.handle_frame(&mut buf).map_err(|e| e.to_string())? {
            ServedEvent::Answered { response, .. } => Ok(response),
            _ => Err("a route frame was handled as an open".into()),
        };
    }
    let served = tr.span(parent, "protocol.served", "served.route");
    let sid = served.id();
    let decoded = {
        let _s = tr.span(sid, "protocol.wire", "wire.decode_route");
        decode_session_frame(&mut buf).map_err(|e| e.to_string())?
    };
    let SessionFrame::Route { session, queries } = decoded else {
        return Err("a route frame decoded as an open".into());
    };
    let (tenant, epoch) = {
        let _s = tr.span(sid, "protocol.registry", "registry.get");
        let tenant = node
            .registry()
            .get(session)
            .ok_or_else(|| format!("route to unknown session {session}"))?;
        let epoch = tenant.current();
        (tenant, epoch)
    };
    // `Tenant::serve_batch`: validate, probe, answer the misses, insert.
    let cached = tr.span(sid, "protocol.registry", "registry.serve_batch");
    let cid = cached.id();
    if queries.c != epoch.server.domain()
        || queries
            .queries
            .iter()
            .any(|q| q.attrs().any(|a| a >= epoch.server.dims()))
    {
        return Err("query batch does not fit the model".into());
    }
    let qs = &queries.queries;
    let (mut keys, hits) = {
        let _s = tr.span(cid, "protocol.registry", "registry.probe");
        let keys: Vec<Vec<u8>> = qs
            .iter()
            .map(|q| {
                let mut key = Vec::with_capacity(8 + q.lambda() * 24);
                key.extend_from_slice(&epoch.version.to_le_bytes());
                q.write_canonical_key(&mut key);
                key
            })
            .collect();
        let hits = tenant.cache().probe(&keys);
        (keys, hits)
    };
    let miss_idx: Vec<usize> = (0..qs.len()).filter(|&i| hits[i].is_none()).collect();
    let misses: Vec<RangeQuery> = miss_idx.iter().map(|&i| qs[i].clone()).collect();
    let computed = answer_workload(&epoch.server, &misses, shards, tr, cid);
    let mut out: Vec<f64> = hits.iter().map(|v| v.unwrap_or(0.0)).collect();
    {
        let _s = tr.span(cid, "protocol.registry", "registry.insert");
        let mut inserts = Vec::with_capacity(miss_idx.len());
        for (&i, &a) in miss_idx.iter().zip(&computed) {
            out[i] = a;
            inserts.push((std::mem::take(&mut keys[i]), a));
        }
        tenant.cache().insert_many(inserts);
    }
    drop(cached);
    let _s = tr.span(sid, "protocol.wire", "wire.encode_answers");
    Ok(AnswerBatch::new(out).to_bytes())
}

/// `QueryServer::answer_workload`, spelled out through the same public
/// calls (`split_chunks`, `par_map`, `Model::answer_all`) so the shard
/// fan-out and the planner/estimator get spans of their own.
pub fn answer_workload(
    server: &QueryServer,
    queries: &[RangeQuery],
    shards: usize,
    tr: &Tracer,
    parent: SpanId,
) -> Vec<f64> {
    let serve = tr.span(parent, "protocol.serve", "serve.answer_workload");
    if shards <= 1 || queries.len() < 2 {
        let _s = tr.span(serve.id(), "core.pair_model", "model.answer_all");
        return server.model().answer_all(queries);
    }
    let chunks = split_chunks(queries, shards);
    let fan = tr.span(serve.id(), "util.par", "par.par_map");
    let fan_id = fan.id();
    let parts = par_map(&chunks, |chunk| {
        let _s = tr.span(fan_id, "core.pair_model", "model.answer_all");
        server.model().answer_all(chunk)
    });
    drop(fan);
    parts.concat()
}

/// Draws a query: `lambda` distinct attributes out of `d`, each an
/// interval covering a fraction `omega` of the domain `c` at a uniform
/// position.
pub fn random_query(d: usize, c: usize, lambda: usize, omega: f64, rng: &mut StdRng) -> RangeQuery {
    let len = ((omega * c as f64).round() as usize).clamp(1, c);
    let mut attrs: Vec<usize> = (0..d).collect();
    attrs.shuffle(rng);
    let preds = attrs[..lambda]
        .iter()
        .map(|&attr| {
            let lo = rng.random_range(0..=c - len);
            Predicate {
                attr,
                lo,
                hi: lo + len - 1,
            }
        })
        .collect();
    RangeQuery::new(preds, c).expect("intervals lie inside the domain")
}

/// `count` queries whose λ cycles through `lambdas` and whose ω cycles
/// through [`OMEGAS`], so every (λ, ω) pair is equally represented.
pub fn mixed_queries(
    d: usize,
    c: usize,
    lambdas: &[usize],
    count: usize,
    rng: &mut StdRng,
) -> Vec<RangeQuery> {
    (0..count)
        .map(|i| {
            let lambda = lambdas[i % lambdas.len()];
            let omega = OMEGAS[(i / lambdas.len()) % OMEGAS.len()];
            random_query(d, c, lambda, omega, rng)
        })
        .collect()
}

/// The full-domain anchor: every answer to it must be ≈ 1.
pub fn full_domain_query(c: usize) -> RangeQuery {
    RangeQuery::from_triples(&[(0, 0, c - 1), (1, 0, c - 1)], c).expect("valid full-domain query")
}

/// Decodes an answer frame.
pub fn decode_answers(response: &Bytes) -> Result<Vec<f64>, String> {
    AnswerBatch::decode(&mut response.clone())
        .map(|a| a.answers)
        .map_err(|e| e.to_string())
}

/// Compares served answers with reference answers bit for bit and counts
/// one check per frame; a frame with a non-finite answer fails too.
pub fn check_answers(served: &[f64], expected: &[f64], checks: &mut Checks, what: &str) {
    let same = served.len() == expected.len()
        && served
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let finite = served.iter().all(|a| a.is_finite());
    checks.check(same && finite, || {
        format!("{what}: answers differ from the reference or are not finite")
    });
}

/// The fixed audited query subset of a session, framed once as a route
/// frame with the full-domain anchor in front.
pub struct Audit {
    /// The audited queries (anchor excluded).
    pub queries: Vec<RangeQuery>,
    /// Anchor followed by the audited queries.
    framed: Vec<RangeQuery>,
    /// Tolerance on the anchor's distance from 1.
    tolerance: f64,
}

impl Audit {
    /// `count` audited queries for a `(d, c)` schema, λ cycling through
    /// `lambdas`, deterministic in `seed`.
    pub fn new(d: usize, c: usize, lambdas: &[usize], count: usize, seed: u64) -> Self {
        let mut rng = derive_rng(seed, &[0xA0D1]);
        let queries = mixed_queries(d, c, lambdas, count, &mut rng);
        let mut framed = vec![full_domain_query(c)];
        framed.extend(queries.iter().cloned());
        Audit {
            queries,
            framed,
            tolerance: 1e-6,
        }
    }

    /// The audit route frame for `session`.
    pub fn frame(&self, session: u64, c: usize) -> Bytes {
        session_route_to_bytes(session, &QueryBatch::new(c, self.framed.clone()))
    }

    /// Routes the audit frame to `session` on `node` and checks the live
    /// epoch: it holds `snapshot`, its answers are bit-equal to
    /// `QueryServer::answer_workload(queries, 1)` on that epoch, and the
    /// full-domain anchor is ≈ 1. Returns the frame's service time (ms)
    /// and its query count. Traced, the snapshot is also restored on its
    /// own (the `core.snapshot` span) and must answer the same.
    #[allow(clippy::too_many_arguments)]
    pub fn check_epoch(
        &self,
        node: &ServedNode,
        session: u64,
        shards: usize,
        snapshot: &ModelSnapshot,
        checks: &mut Checks,
        tr: &Tracer,
        parent: SpanId,
    ) -> (f64, usize) {
        let frame = self.frame(session, snapshot.c);
        let t = Instant::now();
        let response = handle_route(node, shards, &frame, tr, parent);
        let ms = secs_since(t) * 1e3;
        let Some(epoch) = node.registry().get(session).map(|t| t.current()) else {
            checks.check(false, || format!("session {session} is not live"));
            return (ms, self.framed.len());
        };
        checks.check(epoch.snapshot == *snapshot, || {
            "the live epoch is not the snapshot just published".into()
        });
        let expected = epoch.server.answer_workload(&self.framed, 1);
        match response.and_then(|r| decode_answers(&r)) {
            Ok(served) => {
                check_answers(&served, &expected, checks, "audit frame");
                let anchor = served.first().copied().unwrap_or(f64::NAN);
                checks.check((anchor - 1.0).abs() <= self.tolerance, || {
                    format!("full-domain answer {anchor} is not ~1")
                });
            }
            Err(e) => checks.check(false, || format!("audit frame rejected: {e}")),
        }
        if tr.enabled() {
            let restored = {
                let _s = tr.span(parent, "core.snapshot", "snapshot.restore");
                QueryServer::new(snapshot)
            };
            match restored {
                Ok(server) => {
                    let again = server.answer_workload(&self.framed, 1);
                    check_answers(&again, &expected, checks, "restored snapshot");
                }
                Err(e) => checks.check(false, || format!("snapshot restore failed: {e}")),
            }
        }
        (ms, self.framed.len())
    }

    /// Mean absolute error of `snapshot`'s answers to the audited queries
    /// against the ground truth `truth`.
    pub fn mae(&self, snapshot: &ModelSnapshot, truth: &[f64]) -> Result<f64, String> {
        let server = QueryServer::new(snapshot).map_err(|e| e.to_string())?;
        let est = server.answer_workload(&self.queries, 1);
        Ok(est
            .iter()
            .zip(truth)
            .map(|(e, t)| (e - t).abs())
            .sum::<f64>()
            / truth.len() as f64)
    }
}
