//! The aggregator side: streaming report ingestion and model finalization.
//!
//! The collector never stores raw reports: each incoming report updates
//! the support counters of its group through the group's
//! [`FrequencyOracle`] — the block-transposed `Olh::add_support_batch`
//! kernel for OLH groups (`O(grid cells)` per report, constant memory), a
//! counting pass for GRR groups — so arbitrarily large populations stream
//! through in one pass. `finalize` unbiases the counters into grid
//! frequencies and hands them to `privmdr-core` for Phase-2
//! post-processing and query answering under the plan's approach (HDG or
//! TDG).
//!
//! # Batched + sharded ingestion
//!
//! At ~10⁶ reports the support-counting pass dominates the collector, and
//! it is both batchable and embarrassingly parallel. Batches are first
//! *partitioned by group* (`partition_by_group`) so each group's reports
//! form one contiguous `(seed, y)` run, then each run is folded through
//! the group oracle's batch kernel
//! ([`FrequencyOracle::add_support_batch`]) instead of dispatching reports
//! to accumulators one at a time. For the sharded path,
//! [`Collector::ingest_batch`] splits a batch into contiguous shards
//! ([`privmdr_util::par::split_chunks`]), partitions *each shard's chunk*
//! by group, folds it into a private set of per-group counters on the
//! calling thread or a pool worker ([`privmdr_util::par::par_map`]), then
//! merges with `u64` additions. The merged state is *exactly* the serial state — not
//! approximately: support counters are sums of per-report increments, and
//! `u64` adds commute, so regrouping by group and/or by shard never changes
//! a counter — and `finalize` is therefore bit-identical regardless of
//! batch size or shard count. Property tests in `tests/sharding_prop.rs`
//! pin down sharded ≡ batched ≡ serial.

use crate::cursor::{FrameCursor, ReportFrame};
use crate::plan::{GroupTarget, SessionPlan};
use crate::wire::{MechanismTag, Report};
use crate::ProtocolError;
use privmdr_core::{ApproachKind, Hdg, MechanismConfig, Model, ModelSnapshot, Msw, Tdg};
use privmdr_grid::{Grid1d, Grid2d};
use privmdr_oracles::{AdaptiveOracle, FrequencyOracle};
use privmdr_util::par::{par_map, split_chunks};

/// Splits one shard's reports into per-group `(seed, y)` runs, preserving
/// arrival order within each group, so each group's reports can be fed to
/// the block-transposed kernel in one contiguous pass. `reports` yields
/// the shard's `(group, (seed, y))` items and is walked twice: a count
/// pass, then a fill pass. Callers must have validated every group index.
fn partition_by_group<I>(groups: usize, reports: impl Fn() -> I) -> Vec<Vec<(u64, u64)>>
where
    I: Iterator<Item = (u32, (u64, u64))>,
{
    let mut counts = vec![0usize; groups];
    reports().for_each(|(g, _)| counts[g as usize] += 1);
    let mut by_group: Vec<Vec<(u64, u64)>> =
        counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    reports().for_each(|(g, pair)| by_group[g as usize].push(pair));
    by_group
}

/// Splits the concatenated report sequence of `frames` into at most
/// `shards` contiguous runs of near-equal report counts, slicing frames at
/// run boundaries (a frame straddling a boundary contributes a window to
/// each side). Support counters are sums of commuting `u64` increments, so
/// any contiguous split merges back to the serial state exactly.
fn split_frame_runs<'a>(frames: &[ReportFrame<'a>], shards: usize) -> Vec<Vec<ReportFrame<'a>>> {
    let total: usize = frames.iter().map(|f| f.count()).sum();
    let shards = shards.max(1).min(total.max(1));
    let (base, rem) = (total / shards, total % shards);
    let mut runs = Vec::with_capacity(shards);
    let (mut frame, mut offset) = (0usize, 0usize);
    for s in 0..shards {
        let mut want = base + usize::from(s < rem);
        let mut run = Vec::new();
        while want > 0 {
            let avail = frames[frame].count() - offset;
            if avail == 0 {
                frame += 1;
                offset = 0;
                continue;
            }
            let take = want.min(avail);
            run.push(frames[frame].slice(offset, take));
            offset += take;
            want -= take;
            if offset == frames[frame].count() {
                frame += 1;
                offset = 0;
            }
        }
        runs.push(run);
    }
    runs
}

/// Exclusive upper bound on every report count and support counter that
/// [`Collector::merge`] or a `CollectorState` decode may leave behind.
/// Half the `u64` range stays free for honest ingestion.
pub(crate) const COUNT_LIMIT: u64 = 1 << 63;

/// Per-group streaming state: the group's frequency oracle (selected by
/// the plan's policy) plus its support counters. All accumulation and
/// estimation goes through the [`FrequencyOracle`] trait — for OLH groups
/// that is exactly the PR-4 block-transposed kernel, bit for bit.
#[derive(Debug, Clone)]
struct GroupAccumulator {
    oracle: AdaptiveOracle,
    supports: Vec<u64>,
    reports: u64,
}

impl GroupAccumulator {
    fn new(oracle: AdaptiveOracle, cells: usize) -> Self {
        GroupAccumulator {
            oracle,
            supports: vec![0; cells],
            reports: 0,
        }
    }

    /// Folds a whole group-partitioned batch through the oracle's support
    /// kernel (the block-transposed [`privmdr_oracles::Olh`] kernel for
    /// OLH groups, a counting pass for GRR groups, an out-bin histogram
    /// pass for the float-carrying Wheel/SW groups) — bit-identical to
    /// ingesting the pairs one at a time: support counters are sums of
    /// per-report `u64` increments, and `u64` adds commute.
    fn ingest_batch(&mut self, pairs: &[(u64, u64)]) {
        self.oracle.add_support_batch(pairs, &mut self.supports);
        self.reports += pairs.len() as u64;
    }

    /// Unbiased frequency estimates (the oracle's §2.2 estimator).
    fn estimates(&self) -> Vec<f64> {
        self.oracle.estimate(&self.supports, self.reports)
    }
}

/// Streaming collector for one HDG session.
#[derive(Debug, Clone)]
pub struct Collector {
    plan: SessionPlan,
    groups: Vec<GroupAccumulator>,
    total_reports: u64,
}

impl Collector {
    /// Creates the collector for a plan.
    pub fn new(plan: SessionPlan) -> Result<Self, ProtocolError> {
        let mut groups = Vec::with_capacity(plan.group_count());
        for g in 0..plan.group_count() as u32 {
            let oracle = plan.group_oracle(g)?;
            // The counter layout is oracle-defined: SW observes more
            // out-bins than its input domain has values, so accumulators
            // are sized by `support_cells`, not the group's grid.
            let cells = oracle.support_cells();
            groups.push(GroupAccumulator::new(oracle, cells));
        }
        Ok(Collector {
            plan,
            groups,
            total_reports: 0,
        })
    }

    /// The session plan.
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    /// Total reports ingested so far.
    pub fn report_count(&self) -> u64 {
        self.total_reports
    }

    /// Ingests one decoded report.
    pub fn ingest(&mut self, report: &Report) -> Result<(), ProtocolError> {
        let acc = self
            .groups
            .get_mut(report.group as usize)
            .ok_or(ProtocolError::UnknownGroup(report.group))?;
        acc.ingest_batch(&[(report.seed, report.y)]);
        self.total_reports += 1;
        Ok(())
    }

    /// Ingests a raw wire buffer of [`crate::wire::Batch`] frames across
    /// `shards` parallel shard accumulators; returns how many reports were
    /// processed. `shards = 1` is the serial path.
    ///
    /// The frames are walked with a borrowing [`FrameCursor`] and the
    /// `(seed, y)` pairs reach the support kernel straight from `bytes`,
    /// with no intermediate `Vec<Report>`. The whole stream is validated
    /// (framing, mechanism tag, group indices) before any counter moves,
    /// so an error leaves the collector untouched. A stream whose
    /// mechanism tag disagrees with the session plan — e.g.
    /// GRR-randomized reports arriving at an OLH session — is rejected.
    pub fn ingest_stream_sharded(
        &mut self,
        bytes: &[u8],
        shards: usize,
    ) -> Result<usize, ProtocolError> {
        let mut cursor = FrameCursor::new(bytes);
        let mut frames = Vec::new();
        let mut stream_tag: Option<MechanismTag> = None;
        while let Some(frame) = cursor.next_frame()? {
            let tag = frame.tag();
            if *stream_tag.get_or_insert(tag) != tag {
                return Err(ProtocolError::Malformed(
                    "conflicting mechanism tags in stream",
                ));
            }
            frames.push(frame);
        }
        if let Some(tag) = stream_tag {
            if tag != self.plan.mechanism_tag() {
                return Err(ProtocolError::Malformed(
                    "stream mechanism tag does not match the session plan",
                ));
            }
        }
        self.ingest_frames(&frames, shards)
    }

    /// Ingests borrowed wire frames across `shards` shard accumulators —
    /// the frame-window counterpart of [`Self::ingest_batch`], with the
    /// same validate-up-front error contract and the same bit-identity:
    /// group partitioning reads pairs directly from the frame bytes, and
    /// the sharded path splits the concatenated frame sequence into
    /// contiguous runs.
    pub(crate) fn ingest_frames(
        &mut self,
        frames: &[ReportFrame<'_>],
        shards: usize,
    ) -> Result<usize, ProtocolError> {
        let groups = self.groups.len();
        let mut group_ids = frames
            .iter()
            .flat_map(|f| (0..f.count()).map(move |i| f.group_at(i)));
        if let Some(bad) = group_ids.find(|&g| g as usize >= groups) {
            return Err(ProtocolError::UnknownGroup(bad));
        }
        self.fold_runs(&split_frame_runs(frames, shards), |run| {
            partition_by_group(groups, || {
                run.iter()
                    .flat_map(|f| (0..f.count()).map(move |i| (f.group_at(i), f.pair_at(i))))
            })
        });
        let total: usize = frames.iter().map(|f| f.count()).sum();
        self.total_reports += total as u64;
        Ok(total)
    }

    /// Ingests a batch of decoded reports across `shards` parallel shard
    /// accumulators (one private set of support counters per shard, merged
    /// by addition — see the module docs for why the result is bit-identical
    /// to serial ingestion). `shards = 1` is the serial path.
    ///
    /// The whole batch is validated up front, so on error the collector
    /// state is unchanged (no partially ingested batch).
    pub fn ingest_batch(
        &mut self,
        reports: &[Report],
        shards: usize,
    ) -> Result<usize, ProtocolError> {
        let groups = self.groups.len();
        if let Some(bad) = reports.iter().find(|r| r.group as usize >= groups) {
            return Err(ProtocolError::UnknownGroup(bad.group));
        }
        self.fold_runs(&split_chunks(reports, shards), |chunk| {
            partition_by_group(groups, || chunk.iter().map(|r| (r.group, (r.seed, r.y))))
        });
        self.total_reports += reports.len() as u64;
        Ok(reports.len())
    }

    /// Folds validated shard runs into the group accumulators; `partition`
    /// splits one run into per-group `(seed, y)` pairs. A lone run goes
    /// straight into the accumulators; several runs each fill private
    /// per-group counters on the calling thread or a pool worker
    /// ([`par_map`]), merged afterwards with `u64` adds.
    fn fold_runs<R: Sync>(
        &mut self,
        runs: &[R],
        partition: impl Fn(&R) -> Vec<Vec<(u64, u64)>> + Sync,
    ) {
        if runs.len() <= 1 {
            for run in runs {
                for (acc, pairs) in self.groups.iter_mut().zip(partition(run)) {
                    acc.ingest_batch(&pairs);
                }
            }
            return;
        }
        // AdaptiveOracle is Copy; snapshot the per-group oracles so shard
        // closures don't borrow `self`.
        let oracles: Vec<AdaptiveOracle> = self.groups.iter().map(|g| g.oracle).collect();
        let cells: Vec<usize> = self.groups.iter().map(|g| g.supports.len()).collect();
        let partials = par_map(runs, |run| {
            let by_group = partition(run);
            let mut supports: Vec<Vec<u64>> =
                cells.iter().map(|&cells| vec![0u64; cells]).collect();
            let counts: Vec<u64> = by_group.iter().map(|p| p.len() as u64).collect();
            for ((oracle, sup), pairs) in oracles.iter().zip(&mut supports).zip(&by_group) {
                oracle.add_support_batch(pairs, sup);
            }
            (supports, counts)
        });
        for (supports, counts) in partials {
            for ((acc, shard_supports), count) in self.groups.iter_mut().zip(supports).zip(counts) {
                for (dst, s) in acc.supports.iter_mut().zip(shard_supports) {
                    *dst += s;
                }
                acc.reports += count;
            }
        }
    }

    /// The raw per-group state: `(support counters, reports ingested)`.
    /// Exposed for observability and for the sharded-vs-serial equivalence
    /// tests; estimates derived from it are produced by [`Self::finalize`].
    pub fn group_state(&self, group: u32) -> Result<(&[u64], u64), ProtocolError> {
        self.groups
            .get(group as usize)
            .map(|g| (g.supports.as_slice(), g.reports))
            .ok_or(ProtocolError::UnknownGroup(group))
    }

    /// Fans another collector's state into this one. Both collectors must
    /// run the *same* session plan (geometry, ε, seed, oracle policy,
    /// approach); the merge is then exact by construction — support
    /// counters are sums of per-report `u64` increments and `u64` adds
    /// commute, so a K-way split merged in any order is bit-identical to
    /// one collector having seen every report.
    ///
    /// A merge that would leave any report count or support counter at or
    /// above 2⁶³ is refused. Honest populations sit astronomically far
    /// below it, so the bit-identity contract is unaffected, while the
    /// headroom above it means the ingest paths' plain `u64` adds cannot
    /// overflow after any accepted merge — however large the counts a
    /// hostile [`crate::stream`] state frame claims. On either error
    /// `self` is untouched.
    pub fn merge(&mut self, other: &Collector) -> Result<(), ProtocolError> {
        if self.plan != other.plan {
            return Err(ProtocolError::BadPlan(
                "cannot merge collectors with different session plans".into(),
            ));
        }
        let fits = |a: u64, b: u64| a.checked_add(b).is_some_and(|sum| sum < COUNT_LIMIT);
        let all_fit = fits(self.total_reports, other.total_reports)
            && self.groups.iter().zip(&other.groups).all(|(dst, src)| {
                fits(dst.reports, src.reports)
                    && dst
                        .supports
                        .iter()
                        .zip(&src.supports)
                        .all(|(&d, &s)| fits(d, s))
            });
        if !all_fit {
            return Err(ProtocolError::Malformed("merged counts reach 2^63"));
        }
        for (dst, src) in self.groups.iter_mut().zip(&other.groups) {
            for (d, s) in dst.supports.iter_mut().zip(&src.supports) {
                *d += s;
            }
            dst.reports += src.reports;
        }
        self.total_reports += other.total_reports;
        Ok(())
    }

    /// Installs one group's raw counters, decoded from a wire state frame
    /// (`crate::stream`), into this freshly built collector. Counts at or
    /// above 2⁶³ are refused, as [`Self::merge`] refuses them. The caller
    /// has validated the group index and counter length against the plan.
    pub(crate) fn load_group_state(
        &mut self,
        group: usize,
        supports: Vec<u64>,
        reports: u64,
    ) -> Result<(), ProtocolError> {
        let total = self
            .total_reports
            .checked_add(reports)
            .filter(|&total| total < COUNT_LIMIT);
        let (Some(total), true) = (total, supports.iter().all(|&s| s < COUNT_LIMIT)) else {
            return Err(ProtocolError::Malformed(
                "collector state counts reach 2^63",
            ));
        };
        let acc = &mut self.groups[group];
        debug_assert_eq!(acc.supports.len(), supports.len());
        acc.supports = supports;
        acc.reports = reports;
        self.total_reports = total;
        Ok(())
    }

    /// Unbiases each group's counters into the session's per-attribute
    /// marginals (the MSW shape: group `t` is attribute `t`'s SW/EM
    /// reconstruction at full resolution).
    fn marginals(&self) -> Vec<Vec<f64>> {
        self.groups.iter().map(|acc| acc.estimates()).collect()
    }

    /// Unbiases the per-group counters into the session's raw grids.
    fn grids(&self) -> Result<(Vec<Grid1d>, Vec<Grid2d>), ProtocolError> {
        let g = self.plan.granularities;
        let mut one_d = Vec::with_capacity(self.plan.d);
        let mut two_d = Vec::new();
        for (target, acc) in self.plan.groups.iter().zip(&self.groups) {
            match *target {
                GroupTarget::OneD { attr } => {
                    one_d.push(
                        Grid1d::from_freqs(attr, g.g1, self.plan.c, acc.estimates())
                            .map_err(|e| ProtocolError::BadPlan(e.to_string()))?,
                    );
                }
                GroupTarget::TwoD { j, k } => {
                    two_d.push(
                        Grid2d::from_freqs((j, k), g.g2, self.plan.c, acc.estimates())
                            .map_err(|e| ProtocolError::BadPlan(e.to_string()))?,
                    );
                }
            }
        }
        Ok((one_d, two_d))
    }

    /// Rejects a finalize configuration whose approach disagrees with the
    /// plan's group structure (a TDG plan collected no 1-D grids, so it
    /// cannot finalize into HDG, and vice versa).
    fn check_approach(&self, config: &MechanismConfig) -> Result<(), ProtocolError> {
        if config.approach != self.plan.approach {
            return Err(ProtocolError::BadPlan(format!(
                "finalize approach {} does not match the plan's {}",
                config.approach, self.plan.approach
            )));
        }
        Ok(())
    }

    /// Finalizes the session into a queryable model of the plan's approach
    /// (`config.approach` must agree with the plan). `config.oracle` is a
    /// *collection-side* setting and is deliberately not validated here:
    /// the plan's policy already shaped every counter during ingestion,
    /// and finalization only unbiases through each group's accumulator —
    /// nothing downstream of the counters consults the policy.
    pub fn finalize(&self, config: MechanismConfig) -> Result<Box<dyn Model>, ProtocolError> {
        self.check_approach(&config)?;
        match config.approach {
            ApproachKind::Hdg => {
                let (one_d, two_d) = self.grids()?;
                Hdg::new(config).model_from_grids(one_d, two_d)
            }
            ApproachKind::Tdg => {
                let (_, two_d) = self.grids()?;
                Tdg::new(config).model_from_grids(self.plan.d, two_d)
            }
            ApproachKind::Msw => Msw::model_from_distributions(self.plan.c, &self.marginals()),
        }
        .map_err(|e| ProtocolError::BadPlan(e.to_string()))
    }

    /// Finalizes the session into a serializable [`ModelSnapshot`] — the
    /// artifact a query-serving process restores (`crate::serve`). Runs the
    /// same Phase-2 post-processing as [`Self::finalize`], so
    /// `snapshot(..).to_model()` answers bit-identically to `finalize(..)`.
    pub fn snapshot(&self, config: MechanismConfig) -> Result<ModelSnapshot, ProtocolError> {
        self.check_approach(&config)?;
        match config.approach {
            ApproachKind::Hdg => {
                let (one_d, two_d) = self.grids()?;
                Hdg::new(config).snapshot_from_grids(one_d, two_d)
            }
            ApproachKind::Tdg => {
                let (_, two_d) = self.grids()?;
                Tdg::new(config).snapshot_from_grids(self.plan.d, two_d)
            }
            ApproachKind::Msw => {
                Msw::new(config).snapshot_from_marginals(self.plan.d, self.plan.c, self.marginals())
            }
        }
        .map_err(|e| ProtocolError::BadPlan(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::wire::Batch;
    use bytes::BytesMut;
    use privmdr_util::rng::derive_rng;

    #[test]
    fn rejects_unknown_group() {
        let plan = SessionPlan::new(100, 3, 16, 1.0, 1).unwrap();
        let mut collector = Collector::new(plan).unwrap();
        let bad = Report {
            group: 999,
            seed: 1,
            y: 0,
        };
        assert!(matches!(
            collector.ingest(&bad),
            Err(ProtocolError::UnknownGroup(999))
        ));
    }

    #[test]
    fn streaming_counts_reports() {
        let plan = SessionPlan::new(1000, 3, 16, 1.0, 2).unwrap();
        let mut collector = Collector::new(plan.clone()).unwrap();
        let mut rng = derive_rng(9, &[0]);
        let reports: Vec<Report> = (0..500u64)
            .map(|uid| {
                let client = Client::new(&plan, uid).unwrap();
                client.report(&[1, 5, 9], &mut rng).unwrap()
            })
            .collect();
        let mut buf = BytesMut::new();
        Batch::tagged(reports, plan.mechanism_tag()).encode(&mut buf);
        let ingested = collector.ingest_stream_sharded(&buf, 1).unwrap();
        assert_eq!(ingested, 500);
        assert_eq!(collector.report_count(), 500);
    }

    #[test]
    fn sharded_batch_matches_serial_exactly() {
        let plan = SessionPlan::new(4_000, 3, 16, 1.0, 4).unwrap();
        let mut rng = derive_rng(21, &[0]);
        let reports: Vec<Report> = (0..4_000u64)
            .map(|uid| {
                let client = Client::new(&plan, uid).unwrap();
                client
                    .report(&[(uid % 16) as u16, 3, ((uid / 7) % 16) as u16], &mut rng)
                    .unwrap()
            })
            .collect();

        let mut serial = Collector::new(plan.clone()).unwrap();
        serial.ingest_batch(&reports, 1).unwrap();
        for shards in [2usize, 3, 8, 64] {
            let mut sharded = Collector::new(plan.clone()).unwrap();
            sharded.ingest_batch(&reports, shards).unwrap();
            assert_eq!(sharded.report_count(), serial.report_count());
            for g in 0..plan.group_count() as u32 {
                assert_eq!(
                    sharded.group_state(g).unwrap(),
                    serial.group_state(g).unwrap(),
                    "group {g} diverges at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn batch_with_unknown_group_leaves_state_untouched() {
        let plan = SessionPlan::new(1_000, 3, 16, 1.0, 1).unwrap();
        let mut collector = Collector::new(plan).unwrap();
        let mut reports = vec![
            Report {
                group: 0,
                seed: 1,
                y: 0,
            };
            10
        ];
        reports.push(Report {
            group: 42,
            seed: 2,
            y: 1,
        });
        assert!(matches!(
            collector.ingest_batch(&reports, 4),
            Err(ProtocolError::UnknownGroup(42))
        ));
        assert_eq!(collector.report_count(), 0);
        let (supports, n) = collector.group_state(0).unwrap();
        assert_eq!(n, 0);
        assert!(supports.iter().all(|&s| s == 0));
    }

    #[test]
    fn batched_stream_matches_decoded_batch() {
        let plan = SessionPlan::new(2_000, 3, 16, 1.0, 8).unwrap();
        let mut rng = derive_rng(33, &[0]);
        let reports: Vec<Report> = (0..2_000u64)
            .map(|uid| {
                Client::new(&plan, uid)
                    .unwrap()
                    .report(&[1, (uid % 16) as u16, 9], &mut rng)
                    .unwrap()
            })
            .collect();

        let mut batch_buf = BytesMut::new();
        for chunk in reports.chunks(700) {
            Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut batch_buf);
        }

        let mut via_decoded = Collector::new(plan.clone()).unwrap();
        via_decoded.ingest_batch(&reports, 1).unwrap();
        let mut via_batches = Collector::new(plan.clone()).unwrap();
        via_batches.ingest_stream_sharded(&batch_buf, 4).unwrap();
        for g in 0..plan.group_count() as u32 {
            assert_eq!(
                via_decoded.group_state(g).unwrap(),
                via_batches.group_state(g).unwrap()
            );
        }
    }

    #[test]
    fn tdg_session_collects_and_finalizes_end_to_end() {
        use crate::client::ClientFactory;
        use privmdr_oracles::OraclePolicy;
        let plan = SessionPlan::with_mechanism(
            3_000,
            3,
            16,
            2.0,
            6,
            OraclePolicy::Auto,
            ApproachKind::Tdg,
        )
        .unwrap();
        // A TDG plan has only the (d choose 2) pair groups.
        assert_eq!(plan.group_count(), 3);
        let factory = ClientFactory::new(&plan).unwrap();
        let mut collector = Collector::new(plan.clone()).unwrap();
        let mut rng = derive_rng(12, &[0]);
        for uid in 0..3_000u64 {
            let record = [(uid % 16) as u16, ((uid / 5) % 16) as u16, 3u16];
            collector
                .ingest(&factory.client(uid).report(&record, &mut rng).unwrap())
                .unwrap();
        }
        let config = MechanismConfig::default()
            .with_approach(ApproachKind::Tdg)
            .with_oracle(OraclePolicy::Auto);
        let model = collector.finalize(config).unwrap();
        let q = privmdr_query::RangeQuery::from_triples(&[(0, 0, 15), (1, 0, 15)], 16).unwrap();
        let full = model.answer(&q);
        assert!((full - 1.0).abs() < 0.25, "full-domain answer {full}");
        // The snapshot path restores through the same approach.
        let snap = collector.snapshot(config).unwrap();
        assert_eq!(snap.approach, ApproachKind::Tdg);
        let restored = snap.to_model().unwrap();
        assert_eq!(restored.answer(&q).to_bits(), model.answer(&q).to_bits());
        // Finalizing with a mismatched approach is rejected.
        assert!(collector.finalize(MechanismConfig::default()).is_err());
    }

    #[test]
    fn mismatched_stream_tag_is_rejected_before_ingestion() {
        use privmdr_oracles::OraclePolicy;
        let plan = SessionPlan::new(1_000, 3, 16, 1.0, 2).unwrap(); // OLH/HDG
        let mut collector = Collector::new(plan).unwrap();
        let reports = vec![
            Report {
                group: 0,
                seed: 0,
                y: 1,
            };
            5
        ];
        let mut buf = BytesMut::new();
        Batch::tagged(
            reports,
            crate::wire::MechanismTag {
                oracle: OraclePolicy::Grr,
                approach: ApproachKind::Hdg,
            },
        )
        .encode(&mut buf);
        assert!(matches!(
            collector.ingest_stream_sharded(&buf, 1),
            Err(ProtocolError::Malformed(_))
        ));
        assert_eq!(collector.report_count(), 0);
    }

    #[test]
    fn client_factory_reports_match_client_new_exactly() {
        use crate::client::{Client, ClientFactory};
        use privmdr_oracles::OraclePolicy;
        for (oracle, approach) in [
            (OraclePolicy::Olh, ApproachKind::Hdg),
            (OraclePolicy::Grr, ApproachKind::Hdg),
            (OraclePolicy::Auto, ApproachKind::Tdg),
        ] {
            let plan = SessionPlan::with_mechanism(2_000, 3, 16, 1.0, 9, oracle, approach).unwrap();
            let factory = ClientFactory::new(&plan).unwrap();
            for uid in 0..100u64 {
                let record = [(uid % 16) as u16, 5, 9];
                let mut rng_a = derive_rng(uid, &[1]);
                let mut rng_b = derive_rng(uid, &[1]);
                let via_new = Client::new(&plan, uid)
                    .unwrap()
                    .report(&record, &mut rng_a)
                    .unwrap();
                let via_factory = factory.client(uid).report(&record, &mut rng_b).unwrap();
                assert_eq!(via_new, via_factory, "uid {uid} diverges");
            }
        }
    }

    #[test]
    fn finalize_produces_queryable_model() {
        let plan = SessionPlan::new(2_000, 3, 16, 2.0, 3).unwrap();
        let mut collector = Collector::new(plan.clone()).unwrap();
        let mut rng = derive_rng(10, &[0]);
        for uid in 0..2_000u64 {
            let client = Client::new(&plan, uid).unwrap();
            let record = [(uid % 16) as u16, ((uid / 3) % 16) as u16, 4u16];
            collector
                .ingest(&client.report(&record, &mut rng).unwrap())
                .unwrap();
        }
        let model = collector.finalize(MechanismConfig::default()).unwrap();
        let q = privmdr_query::RangeQuery::from_triples(&[(0, 0, 15), (1, 0, 15)], 16).unwrap();
        let full = model.answer(&q);
        assert!((full - 1.0).abs() < 0.2, "full-domain answer {full}");
    }
}
