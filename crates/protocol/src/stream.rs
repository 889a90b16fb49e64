//! Streaming epoch collection and collector-to-collector fan-in.
//!
//! `Collector` turns a report stream into one fit; real telemetry never
//! stops arriving. This module adds the two missing deployment shapes on
//! top of it, both *exact* — never approximately equal to the one-shot
//! path, but bit-identical to it:
//!
//! * **Epochs.** An [`EpochCollector`] ingests continuously and cuts a
//!   cumulative [`ModelSnapshot`] at every epoch boundary *without
//!   halting ingestion*: the in-flight epoch accumulates into an `active`
//!   collector while all sealed epochs live in a `sealed` collector, and
//!   [`EpochCollector::cut_epoch`] drain-and-swaps — the active collector
//!   is replaced with a fresh one (ingestion can resume immediately) and
//!   the drained counters are merged into `sealed` with commutative `u64`
//!   adds. The epoch-`k` snapshot is therefore the same bits a one-shot
//!   [`Collector`] would produce after the same first `k` epochs of
//!   reports, regardless of where the cuts fell
//!   (`tests/epoch_prop.rs`).
//!
//! * **Fan-in merge.** Geographically split collectors running the *same*
//!   public plan can serialize their raw per-group support counters into
//!   a [`COLLECTOR_STATE_TAG`] (`0xCC`) wire frame and fan into one
//!   model: [`Collector::merge`] adds counters elementwise, and since
//!   support counters are sums of per-report `u64` increments, a K-way
//!   split merged in any order equals one collector having ingested
//!   everything — commutative, associative, and exact
//!   (`tests/epoch_prop.rs` again).
//!
//! # The `CollectorState` frame
//!
//! ```text
//! +------+-------+-----------+-------------+--------+--------+
//! | 0xCC | ver:1 | oracle:u8 | approach:u8 | n: u64 | d: u16 |
//! +------+-------+-----------+-------------+--------+--------+
//! | c: u32 | epsilon: f64 bits u64 | assignment seed: u64    |
//! +--------+--------------------+----------------------------+
//! | groups: u32 | per group: reports u64, cells u32, supports|
//! +-------------+                cells × u64 (all LE)        |
//! ```
//!
//! The header carries the full public plan parameterization, so a decoded
//! state is self-describing: [`decode_collector_state`] rebuilds the
//! `SessionPlan` from the header and validates the declared group count
//! and every group's counter length against it *before* any counter is
//! read — a frame whose geometry lies about its plan (or whose mechanism
//! discriminant disagrees with it) is rejected without allocating counter
//! vectors, and [`Collector::merge_state`] decodes the whole frame before
//! touching the destination, so malformed input always leaves the
//! destination collector untouched. All counters travel as raw `u64` LE —
//! the merge is integer addition, so round-tripping through the wire loses
//! nothing. A frame claiming a report count or support counter at or
//! above 2⁶³ is refused on decode, and so is a merge whose sums would
//! reach it, so a hostile count can never overflow a later ingest.

use crate::plan::SessionPlan;
use crate::server::Collector;
use crate::wire::{
    approach_from_wire_byte, approach_wire_byte, oracle_from_wire_byte, oracle_wire_byte, Report,
};
use crate::ProtocolError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use privmdr_core::snapshot::{MAX_SNAPSHOT_DIMS, MAX_SNAPSHOT_DOMAIN};
use privmdr_core::{MechanismConfig, ModelSnapshot};

/// First byte of an encoded `CollectorState` frame.
pub const COLLECTOR_STATE_TAG: u8 = 0xCC;
/// Wire version of the `CollectorState` frame.
pub const COLLECTOR_STATE_VERSION: u8 = 1;
/// Encoded size of the `CollectorState` header (tag, version, oracle,
/// approach, n, d, c, epsilon, assignment seed, group count).
pub const COLLECTOR_STATE_HEADER_LEN: usize = 1 + 1 + 1 + 1 + 8 + 2 + 4 + 8 + 8 + 4;
/// Encoded size of one group sub-header (report count, cell count).
pub const COLLECTOR_STATE_GROUP_HEADER_LEN: usize = 12;

/// Encoded size of a state frame for `collector`.
pub fn collector_state_encoded_len(collector: &Collector) -> usize {
    let plan = collector.plan();
    // Counter layouts are oracle-defined (SW observes more out-bins than
    // its grid has cells), so sizes come from the accumulators themselves,
    // not the plan's grid geometry.
    let cells: usize = (0..plan.group_count() as u32)
        .map(|g| collector.group_state(g).expect("in-plan group").0.len())
        .sum();
    COLLECTOR_STATE_HEADER_LEN + plan.group_count() * COLLECTOR_STATE_GROUP_HEADER_LEN + cells * 8
}

/// Appends the encoded raw state of `collector` to `buf`. The frame
/// carries the plan's public parameters plus every group's support
/// counters and report count verbatim, so
/// `decode_collector_state(encode(..))` reproduces the collector exactly.
///
/// # Panics
///
/// Panics if a plan field exceeds its wire width (`d` > u16, `c` or a
/// group's cell count > u32) — far beyond anything `SessionPlan` admits;
/// mutating the public fields past them must fail loudly rather than
/// encode a truncated frame.
pub fn encode_collector_state(collector: &Collector, buf: &mut BytesMut) {
    let plan = collector.plan();
    buf.reserve(collector_state_encoded_len(collector));
    buf.put_u8(COLLECTOR_STATE_TAG);
    buf.put_u8(COLLECTOR_STATE_VERSION);
    buf.put_u8(oracle_wire_byte(plan.oracle));
    buf.put_u8(approach_wire_byte(plan.approach));
    buf.put_u64_le(u64::try_from(plan.n).expect("plan population exceeds u64"));
    buf.put_u16_le(u16::try_from(plan.d).expect("plan dimension exceeds u16"));
    buf.put_u32_le(u32::try_from(plan.c).expect("plan domain exceeds u32"));
    buf.put_u64_le(plan.epsilon.to_bits());
    buf.put_u64_le(plan.assignment_seed);
    buf.put_u32_le(u32::try_from(plan.group_count()).expect("plan group count exceeds u32"));
    for g in 0..plan.group_count() as u32 {
        let (supports, reports) = collector.group_state(g).expect("in-plan group");
        buf.put_u64_le(reports);
        buf.put_u32_le(u32::try_from(supports.len()).expect("group cell count exceeds u32"));
        for &s in supports {
            buf.put_u64_le(s);
        }
    }
}

/// Encodes a collector's state to a standalone buffer.
pub fn collector_state_to_bytes(collector: &Collector) -> Bytes {
    let mut buf = BytesMut::with_capacity(collector_state_encoded_len(collector));
    encode_collector_state(collector, &mut buf);
    buf.freeze()
}

/// Decodes one `CollectorState` frame from the front of `buf`, advancing
/// it, into a fresh [`Collector`] holding the frame's counters.
///
/// The decode is garbage-robust: the plan is rebuilt from the header
/// (bounded to the snapshot shape limits before any construction work)
/// and the declared group count and per-group cell counts must match the
/// rebuilt plan's geometry *before* any counter vector is allocated — a
/// lying header cannot buy memory, and truncated, corrupted, or
/// tag-conflicting input always surfaces as a [`ProtocolError`], never a
/// panic. Counts at or above 2⁶³ (see [`Collector::merge`]) are refused.
pub fn decode_collector_state(buf: &mut impl Buf) -> Result<Collector, ProtocolError> {
    if buf.remaining() < COLLECTOR_STATE_HEADER_LEN {
        return Err(ProtocolError::Malformed("truncated collector-state header"));
    }
    if buf.get_u8() != COLLECTOR_STATE_TAG {
        return Err(ProtocolError::Malformed("not a collector-state frame"));
    }
    if buf.get_u8() != COLLECTOR_STATE_VERSION {
        return Err(ProtocolError::Malformed("unsupported wire version"));
    }
    let oracle = oracle_from_wire_byte(buf.get_u8())?;
    let approach = approach_from_wire_byte(buf.get_u8())?;
    let n = buf.get_u64_le();
    let d = buf.get_u16_le() as usize;
    let c = buf.get_u32_le() as usize;
    let epsilon = f64::from_bits(buf.get_u64_le());
    let assignment_seed = buf.get_u64_le();
    let declared_groups = buf.get_u32_le() as usize;
    // Bound the shape to the workspace-wide snapshot limits before doing
    // any plan-construction work, so a hostile header cannot buy CPU or
    // memory through a huge d or c.
    if !(2..=MAX_SNAPSHOT_DIMS).contains(&d) || c > MAX_SNAPSHOT_DOMAIN {
        return Err(ProtocolError::Malformed(
            "collector state shape out of bounds",
        ));
    }
    let n = usize::try_from(n)
        .map_err(|_| ProtocolError::Malformed("collector state population exceeds usize"))?;
    let plan = SessionPlan::with_mechanism(n, d, c, epsilon, assignment_seed, oracle, approach)
        .map_err(|_| ProtocolError::Malformed("collector state carries an invalid plan"))?;
    if declared_groups != plan.group_count() {
        return Err(ProtocolError::Malformed(
            "collector state group count does not match its plan",
        ));
    }
    let mut collector = Collector::new(plan)
        .map_err(|_| ProtocolError::Malformed("collector state carries an unbuildable plan"))?;
    for g in 0..declared_groups {
        if buf.remaining() < COLLECTOR_STATE_GROUP_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated collector-state group"));
        }
        let reports = buf.get_u64_le();
        let cells = buf.get_u32_le() as usize;
        // The freshly built collector's accumulators carry the plan's
        // oracle-defined counter layout, so they are the shape to validate
        // the frame's declared cell counts against.
        let expected = collector
            .group_state(g as u32)
            .expect("validated group index")
            .0
            .len();
        if cells != expected {
            return Err(ProtocolError::Malformed(
                "collector state group geometry does not match its plan",
            ));
        }
        if buf.remaining() / 8 < cells {
            return Err(ProtocolError::Malformed(
                "collector state shorter than its declared counters",
            ));
        }
        let supports: Vec<u64> = (0..cells).map(|_| buf.get_u64_le()).collect();
        collector.load_group_state(g, supports, reports)?;
    }
    Ok(collector)
}

impl Collector {
    /// Decodes a `CollectorState` frame and fans it into this collector —
    /// the wire form of [`Collector::merge`]. The whole frame is decoded
    /// and its plan checked against this collector's *before* any counter
    /// moves, so malformed bytes or a mismatched plan leave the
    /// destination untouched. Returns the number of reports merged in.
    pub fn merge_state(&mut self, buf: &mut impl Buf) -> Result<u64, ProtocolError> {
        let other = decode_collector_state(buf)?;
        self.merge(&other)?;
        Ok(other.report_count())
    }
}

/// One sealed epoch: the cut index, the epoch's own report count, the
/// cumulative totals, and the cumulative model snapshot.
#[derive(Debug, Clone)]
pub struct EpochCut {
    /// 1-based index of the epoch this cut sealed.
    pub epoch: usize,
    /// Reports ingested during the sealed epoch alone.
    pub epoch_reports: u64,
    /// Reports across all sealed epochs (cumulative).
    pub total_reports: u64,
    /// Snapshot of the *cumulative* fit over every sealed epoch —
    /// bit-identical to a one-shot fit of the same reports.
    pub snapshot: ModelSnapshot,
}

/// A long-lived collector that cuts per-epoch snapshots without stopping
/// ingestion (see the module docs for the drain-and-swap scheme and the
/// bit-identity contract).
#[derive(Debug, Clone)]
pub struct EpochCollector {
    /// Merged counters of every sealed epoch.
    sealed: Collector,
    /// The in-flight epoch's counters.
    active: Collector,
    /// Finalization settings, derived from the plan's mechanism so epoch
    /// snapshots and the one-shot `Collector::snapshot` path agree.
    config: MechanismConfig,
    epochs_cut: usize,
}

impl EpochCollector {
    /// Creates a streaming collector for a plan. Epoch snapshots finalize
    /// under the plan's own oracle policy and approach with default
    /// estimation settings — exactly what `Collector::snapshot` is handed
    /// by the one-shot `privmdr ingest` path.
    pub fn new(plan: SessionPlan) -> Result<Self, ProtocolError> {
        let config = MechanismConfig::default()
            .with_approach(plan.approach)
            .with_oracle(plan.oracle);
        Ok(EpochCollector {
            sealed: Collector::new(plan.clone())?,
            active: Collector::new(plan)?,
            config,
            epochs_cut: 0,
        })
    }

    /// The session plan.
    pub fn plan(&self) -> &SessionPlan {
        self.sealed.plan()
    }

    /// Number of epochs sealed so far.
    pub fn epochs_cut(&self) -> usize {
        self.epochs_cut
    }

    /// Reports ingested into the in-flight (not yet sealed) epoch.
    pub fn epoch_reports(&self) -> u64 {
        self.active.report_count()
    }

    /// Total reports ingested across sealed epochs and the in-flight one.
    pub fn report_count(&self) -> u64 {
        self.sealed.report_count() + self.active.report_count()
    }

    /// Ingests a batch of decoded reports into the in-flight epoch across
    /// `shards` parallel shard accumulators (the [`Collector::ingest_batch`]
    /// path, with the same validate-up-front error contract).
    pub fn ingest_batch(
        &mut self,
        reports: &[Report],
        shards: usize,
    ) -> Result<usize, ProtocolError> {
        self.active.ingest_batch(reports, shards)
    }

    /// Seals the in-flight epoch and returns the cumulative snapshot: the
    /// active collector is swapped for a fresh one (ingestion of the next
    /// epoch can proceed immediately), its counters drain into the sealed
    /// collector via [`Collector::merge`], and the sealed state finalizes
    /// into a [`ModelSnapshot`]. Cutting with zero reports overall still
    /// snapshots (estimates are defined at zero reports) — callers decide
    /// whether an empty epoch is worth publishing.
    pub fn cut_epoch(&mut self) -> Result<EpochCut, ProtocolError> {
        let fresh = Collector::new(self.active.plan().clone())?;
        let drained = std::mem::replace(&mut self.active, fresh);
        self.sealed.merge(&drained)?;
        let snapshot = self.sealed.snapshot(self.config)?;
        self.epochs_cut += 1;
        Ok(EpochCut {
            epoch: self.epochs_cut,
            epoch_reports: drained.report_count(),
            total_reports: self.sealed.report_count(),
            snapshot,
        })
    }

    /// The cumulative collector state — every sealed epoch plus the
    /// in-flight one — as a standalone [`Collector`] (the thing
    /// [`collector_state_to_bytes`] serializes for fan-in).
    pub fn cumulative(&self) -> Result<Collector, ProtocolError> {
        let mut all = self.sealed.clone();
        all.merge(&self.active)?;
        Ok(all)
    }

    /// Snapshot of the cumulative state without sealing the in-flight
    /// epoch — bit-identical to the one-shot fit of every report ingested
    /// so far.
    pub fn cumulative_snapshot(&self) -> Result<ModelSnapshot, ProtocolError> {
        self.cumulative()?.snapshot(self.config)
    }

    /// Ingests a raw wire buffer of [`crate::wire::Batch`] frames one frame
    /// at a time, sealing an epoch every `epoch_every` reports — epoch
    /// boundaries split wire frames exactly, so a batch straddling a
    /// boundary lands in both epochs precisely where the cut falls.
    /// `on_cut` receives each [`EpochCut`] as it happens. Returns how many
    /// reports were processed. An in-flight epoch that already holds
    /// `epoch_every` reports or more (left by [`Self::ingest_batch`] or an
    /// earlier call with a larger epoch size) is sealed before the next
    /// report lands.
    ///
    /// Each frame is a borrowed [`crate::cursor::FrameCursor`] window over
    /// `bytes`, sliced at epoch boundaries and fed to the support kernel
    /// without a `Vec<Report>` in between. Unlike the one-shot
    /// [`Collector::ingest_stream_sharded`] (which validates the whole
    /// buffer before touching any counter), this is a *streaming* path:
    /// frames are validated as they arrive, and a malformed or
    /// tag-mismatched frame aborts mid-stream with earlier frames already
    /// ingested and earlier epochs already cut — the long-lived-service
    /// semantics.
    pub fn ingest_stream_epochs(
        &mut self,
        bytes: &[u8],
        shards: usize,
        epoch_every: u64,
        mut on_cut: impl FnMut(EpochCut),
    ) -> Result<usize, ProtocolError> {
        if epoch_every == 0 {
            return Err(ProtocolError::BadPlan(
                "epoch size must be at least 1".into(),
            ));
        }
        let expected_tag = self.plan().mechanism_tag();
        let mut cursor = crate::cursor::FrameCursor::new(bytes);
        let mut processed = 0usize;
        while let Some(frame) = cursor.next_frame()? {
            if frame.tag() != expected_tag {
                return Err(ProtocolError::Malformed(
                    "stream mechanism tag does not match the session plan",
                ));
            }
            let mut start = 0usize;
            while start < frame.count() {
                // An epoch already at or over `epoch_every` has no room:
                // it takes nothing and is sealed below.
                let room = epoch_every.saturating_sub(self.active.report_count());
                let take = ((frame.count() - start) as u64).min(room) as usize;
                self.active
                    .ingest_frames(&[frame.slice(start, take)], shards)?;
                start += take;
                if self.active.report_count() >= epoch_every {
                    on_cut(self.cut_epoch()?);
                }
            }
            processed += frame.count();
        }
        Ok(processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientFactory;
    use crate::wire::{Batch, MechanismTag};
    use privmdr_util::rng::derive_rng;

    fn session_reports(plan: &SessionPlan, n: usize, seed: u64) -> Vec<Report> {
        let factory = ClientFactory::new(plan).unwrap();
        let mut rng = derive_rng(seed, &[0x5E]);
        (0..n as u64)
            .map(|uid| {
                let c = plan.c as u64;
                let record: Vec<u16> = (0..plan.d)
                    .map(|t| ((uid.wrapping_mul(t as u64 + 3)) % c) as u16)
                    .collect();
                factory.client(uid).report(&record, &mut rng).unwrap()
            })
            .collect()
    }

    fn assert_same_state(a: &Collector, b: &Collector) {
        assert_eq!(a.report_count(), b.report_count());
        for g in 0..a.plan().group_count() as u32 {
            assert_eq!(a.group_state(g).unwrap(), b.group_state(g).unwrap());
        }
    }

    #[test]
    fn epoch_cuts_accumulate_to_the_one_shot_state() {
        let plan = SessionPlan::new(3_000, 3, 16, 1.0, 5).unwrap();
        let reports = session_reports(&plan, 3_000, 5);

        let mut one_shot = Collector::new(plan.clone()).unwrap();
        one_shot.ingest_batch(&reports, 1).unwrap();

        let mut streaming = EpochCollector::new(plan).unwrap();
        let mut cuts = Vec::new();
        for chunk in reports.chunks(1_000) {
            streaming.ingest_batch(chunk, 2).unwrap();
            cuts.push(streaming.cut_epoch().unwrap());
        }
        assert_eq!(streaming.epochs_cut(), 3);
        assert_eq!(cuts[2].total_reports, 3_000);
        assert_eq!(cuts[1].epoch_reports, 1_000);
        assert_same_state(&one_shot, &streaming.cumulative().unwrap());
        // The final cumulative snapshot is the one-shot snapshot, bit for bit.
        let config = MechanismConfig::default();
        assert_eq!(cuts[2].snapshot, one_shot.snapshot(config).unwrap());
        assert_eq!(
            streaming.cumulative_snapshot().unwrap(),
            one_shot.snapshot(config).unwrap()
        );
    }

    #[test]
    fn state_frame_round_trips_exactly() {
        let plan = SessionPlan::new(2_000, 3, 16, 1.0, 9).unwrap();
        let reports = session_reports(&plan, 2_000, 9);
        let mut collector = Collector::new(plan).unwrap();
        collector.ingest_batch(&reports, 1).unwrap();

        let bytes = collector_state_to_bytes(&collector);
        assert_eq!(bytes.len(), collector_state_encoded_len(&collector));
        let back = decode_collector_state(&mut bytes.clone()).unwrap();
        assert_eq!(back.plan(), collector.plan());
        assert_same_state(&back, &collector);
    }

    #[test]
    fn merge_state_rejects_mismatched_plans_untouched() {
        let plan_a = SessionPlan::new(2_000, 3, 16, 1.0, 9).unwrap();
        let plan_b = SessionPlan::new(2_000, 3, 16, 2.0, 9).unwrap(); // different ε
        let mut a = Collector::new(plan_a.clone()).unwrap();
        a.ingest_batch(&session_reports(&plan_a, 500, 1), 1)
            .unwrap();
        let mut b = Collector::new(plan_b.clone()).unwrap();
        b.ingest_batch(&session_reports(&plan_b, 500, 2), 1)
            .unwrap();

        let before = a.clone();
        let state_b = collector_state_to_bytes(&b);
        assert!(a.merge_state(&mut state_b.clone()).is_err());
        assert_same_state(&a, &before);
    }

    #[test]
    fn split_collectors_fan_in_to_the_single_collector() {
        let plan = SessionPlan::new(4_000, 3, 16, 1.0, 3).unwrap();
        let reports = session_reports(&plan, 4_000, 3);

        let mut single = Collector::new(plan.clone()).unwrap();
        single.ingest_batch(&reports, 1).unwrap();

        let mut merged = Collector::new(plan.clone()).unwrap();
        for chunk in reports.chunks(1_300) {
            let mut split = Collector::new(plan.clone()).unwrap();
            split.ingest_batch(chunk, 2).unwrap();
            let wire = collector_state_to_bytes(&split);
            let n = merged.merge_state(&mut wire.clone()).unwrap();
            assert_eq!(n, chunk.len() as u64);
        }
        assert_same_state(&single, &merged);
        let config = MechanismConfig::default();
        assert_eq!(
            merged.snapshot(config).unwrap(),
            single.snapshot(config).unwrap()
        );
    }

    #[test]
    fn stream_epochs_splits_frames_at_exact_boundaries() {
        let plan = SessionPlan::new(2_500, 3, 16, 1.0, 11).unwrap();
        let reports = session_reports(&plan, 2_500, 11);
        // Frame sizes deliberately misaligned with the epoch size.
        let mut buf = BytesMut::new();
        for chunk in reports.chunks(700) {
            Batch::tagged(chunk.to_vec(), plan.mechanism_tag()).encode(&mut buf);
        }

        let mut streaming = EpochCollector::new(plan.clone()).unwrap();
        let mut cuts = Vec::new();
        let n = streaming
            .ingest_stream_epochs(&buf, 2, 1_000, |cut| cuts.push(cut))
            .unwrap();
        assert_eq!(n, 2_500);
        assert_eq!(cuts.len(), 2);
        assert_eq!(cuts[0].epoch_reports, 1_000);
        assert_eq!(cuts[1].total_reports, 2_000);
        assert_eq!(streaming.epoch_reports(), 500);

        // Cumulative state equals the one-shot collector over all reports.
        let mut one_shot = Collector::new(plan).unwrap();
        one_shot.ingest_batch(&reports, 1).unwrap();
        assert_same_state(&one_shot, &streaming.cumulative().unwrap());
    }

    #[test]
    fn stream_epochs_rejects_zero_epoch_size_and_mismatched_tags() {
        let plan = SessionPlan::new(1_000, 3, 16, 1.0, 2).unwrap(); // OLH/HDG
        let mut streaming = EpochCollector::new(plan).unwrap();
        assert!(streaming.ingest_stream_epochs(&[], 1, 0, |_| {}).is_err());

        let mut buf = BytesMut::new();
        Batch::tagged(
            vec![
                Report {
                    group: 0,
                    seed: 1,
                    y: 0
                };
                4
            ],
            MechanismTag {
                oracle: crate::OraclePolicy::Grr,
                approach: crate::ApproachKind::Hdg,
            },
        )
        .encode(&mut buf);
        assert!(streaming
            .ingest_stream_epochs(&buf, 1, 100, |_| {})
            .is_err());
        assert_eq!(streaming.report_count(), 0);
    }
}
