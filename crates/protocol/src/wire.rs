//! Binary wire format for client reports and the query-serving frames.
//!
//! An OLH report is exactly `(seed, y)`: `seed` identifies the user's OLH
//! hash function and `y` is the GRR-randomized hashed value (paper §2.2).
//! Everything else (ε, grid geometry) is public plan state, so it never
//! travels with the report. Reports travel only inside length-prefixed
//! [`Batch`] frames, which carry the session's [`MechanismTag`] — its
//! oracle policy and estimation approach — once per frame and hand a whole
//! slab of reports to the sharded ingestion path in one decode:
//!
//! ```text
//! +-----------+--------+-----------+-------------+--------------+
//! | tag: 0xB1 | ver:u8 | oracle:u8 | approach:u8 | count:u32 LE |  count × body
//! +-----------+--------+-----------+-------------+--------------+
//! ```
//!
//! The version byte fixes the body width, and the oracle fixes the
//! version:
//!
//! | version | oracles          | body (all LE)                         | body |
//! |---------|------------------|---------------------------------------|------|
//! | 2       | GRR, OLH, Auto   | `group:u32, seed:u64, y:u32`          | 16 B |
//! | 3       | Wheel, SW        | `group:u32, seed:u64, y:u64` (f64 bits) | 20 B |
//!
//! Wheel's `(seed, y ∈ [0,1))` pair and SW's padded-interval sample are
//! floats, so their `y` travels as the full 8 IEEE-754 bits. The pairing of
//! tag and width is enforced in both directions — a Wheel/SW discriminant
//! inside a version-2 frame and a GRR/OLH/Auto discriminant inside a
//! version-3 frame are both rejected — so every byte stream has exactly one
//! valid framing. Decoders reject unknown discriminants and any other
//! version byte, and the stream decoder rejects streams whose frames
//! disagree on the tag; the collector then checks the stream's tag against
//! its plan, so a GRR stream can never be mis-aggregated by an OLH session
//! (or vice versa).
//!
//! # Query-serving frames
//!
//! The read path adds three more tag-versioned frames, all following the
//! same garbage-robustness contract as [`Batch`] (length prefixes are
//! validated against the actual payload before any allocation; malformed
//! bytes always surface as [`ProtocolError`], never a panic):
//!
//! * **Snapshot** (tag `0xC5`, version 2) — a finalized `privmdr_core` fit
//!   ([`ModelSnapshot`]): a [`SNAPSHOT_HEADER_LEN`]-byte header (approach
//!   discriminant, geometry, estimation settings), then the post-processed
//!   frequency vectors the approach keeps as raw `f64` bits (exact
//!   round-trip).
//! * **[`QueryBatch`]** (tag `0xD7`, version 1) — a batch of λ-dimensional
//!   range queries over a shared domain `c`; each query is λ `(attr, lo,
//!   hi)` predicates and is re-validated through `RangeQuery`'s own
//!   invariants on decode.
//! * **[`AnswerBatch`]** (tag `0xA7`, version 1) — the matching answers as
//!   raw `f64` bits, in query order.

use crate::ProtocolError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use privmdr_core::snapshot::{validate_shape, ModelSnapshot};
use privmdr_core::{ApproachKind, EstimatorKind};
use privmdr_grid::guideline::Granularities;
use privmdr_grid::pairs::pair_count;
use privmdr_oracles::OraclePolicy;
use privmdr_query::{Predicate, RangeQuery};

/// Wire version byte of the query and answer frames.
pub const WIRE_VERSION: u8 = 1;
/// Wire version byte of narrow report batches and of snapshots.
pub const WIRE_VERSION_TAGGED: u8 = 2;
/// Wire version byte of wide (float-carrying) report batches.
pub const WIRE_VERSION_WIDE: u8 = 3;
/// First byte of a [`Batch`] frame.
pub const BATCH_TAG: u8 = 0xB1;
/// Encoded size of a batch header (tag, version, oracle, approach, count).
pub const BATCH_HEADER_LEN: usize = 8;
/// Encoded size of one narrow (version 2) report body.
pub const REPORT_BODY_LEN: usize = 16;
/// Encoded size of one wide (version 3) report body.
pub const WIDE_REPORT_BODY_LEN: usize = 20;

/// The session-mechanism discriminant every [`Batch`] frame carries: which
/// frequency-oracle policy randomized the reports and which estimation
/// approach the session finalizes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismTag {
    /// The session's frequency-oracle policy.
    pub oracle: OraclePolicy,
    /// The session's estimation approach.
    pub approach: ApproachKind,
}

/// The one place the `OraclePolicy` wire byte is defined — every frame
/// that carries the discriminant encodes and decodes through this pair
/// (including the `CollectorState` frame in [`crate::stream`]).
pub(crate) fn oracle_wire_byte(oracle: OraclePolicy) -> u8 {
    match oracle {
        OraclePolicy::Olh => 0,
        OraclePolicy::Grr => 1,
        OraclePolicy::Auto => 2,
        OraclePolicy::Wheel => 3,
        OraclePolicy::Sw => 4,
    }
}

pub(crate) fn oracle_from_wire_byte(byte: u8) -> Result<OraclePolicy, ProtocolError> {
    match byte {
        0 => Ok(OraclePolicy::Olh),
        1 => Ok(OraclePolicy::Grr),
        2 => Ok(OraclePolicy::Auto),
        3 => Ok(OraclePolicy::Wheel),
        4 => Ok(OraclePolicy::Sw),
        _ => Err(ProtocolError::Malformed("unknown oracle discriminant")),
    }
}

/// The one place the `ApproachKind` wire byte is defined (the snapshot
/// frame and [`MechanismTag`] both go through this pair).
pub(crate) fn approach_wire_byte(approach: ApproachKind) -> u8 {
    match approach {
        ApproachKind::Hdg => 0,
        ApproachKind::Tdg => 1,
        ApproachKind::Msw => 2,
    }
}

pub(crate) fn approach_from_wire_byte(byte: u8) -> Result<ApproachKind, ProtocolError> {
    match byte {
        0 => Ok(ApproachKind::Hdg),
        1 => Ok(ApproachKind::Tdg),
        2 => Ok(ApproachKind::Msw),
        _ => Err(ProtocolError::Malformed("unknown approach discriminant")),
    }
}

impl MechanismTag {
    /// Whether this tag names a float-carrying oracle, and so frames wide
    /// (version 3, `y` as raw `f64` bits).
    pub fn is_wide(&self) -> bool {
        matches!(self.oracle, OraclePolicy::Wheel | OraclePolicy::Sw)
    }

    /// Encoded size of one report body in a batch carrying this tag.
    pub(crate) fn body_len(&self) -> usize {
        if self.is_wide() {
            WIDE_REPORT_BODY_LEN
        } else {
            REPORT_BODY_LEN
        }
    }

    /// Decodes a batch header's version byte and two discriminant bytes,
    /// checking that the version is 2 or 3 and agrees with the oracle's
    /// width. The one header rule [`Batch::decode`] and
    /// [`crate::cursor::FrameCursor`] share.
    pub(crate) fn from_batch_header(
        version: u8,
        oracle: u8,
        approach: u8,
    ) -> Result<Self, ProtocolError> {
        if version != WIRE_VERSION_TAGGED && version != WIRE_VERSION_WIDE {
            return Err(ProtocolError::Malformed("unsupported wire version"));
        }
        let tag = MechanismTag {
            oracle: oracle_from_wire_byte(oracle)?,
            approach: approach_from_wire_byte(approach)?,
        };
        match (version == WIRE_VERSION_WIDE, tag.is_wide()) {
            (false, true) => Err(ProtocolError::Malformed(
                "float-carrying oracle in a narrow frame",
            )),
            (true, false) => Err(ProtocolError::Malformed("integer oracle in a wide frame")),
            _ => Ok(tag),
        }
    }
}

/// One user's randomized report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Report group (index into the plan's group list).
    pub group: u32,
    /// OLH/Wheel per-user hash seed (0 for GRR and SW).
    pub seed: u64,
    /// Perturbed value: the hashed `GRR_{c'}(H(v))` integer for OLH/GRR
    /// (always `< 2³²`), or the raw `f64` bits of the randomized float for
    /// the wide oracles (Wheel, SW).
    pub y: u64,
}

impl Report {
    fn encode_body(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.group);
        buf.put_u64_le(self.seed);
        buf.put_u32_le(u32::try_from(self.y).expect("wide report y in a narrow frame"));
    }

    fn decode_body(buf: &mut impl Buf) -> Report {
        let group = buf.get_u32_le();
        let seed = buf.get_u64_le();
        let y = buf.get_u32_le() as u64;
        Report { group, seed, y }
    }

    fn encode_wide_body(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.group);
        buf.put_u64_le(self.seed);
        buf.put_u64_le(self.y);
    }

    fn decode_wide_body(buf: &mut impl Buf) -> Report {
        let group = buf.get_u32_le();
        let seed = buf.get_u64_le();
        let y = buf.get_u64_le();
        Report { group, seed, y }
    }
}

/// A length-prefixed, mechanism-tagged frame of reports — the only form
/// reports travel in (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The framed reports, in arrival order.
    pub reports: Vec<Report>,
    /// The session-mechanism discriminant the frame carries.
    pub mechanism: MechanismTag,
}

impl Batch {
    /// Wraps reports into a batch tagged with the session's mechanism.
    pub fn tagged(reports: Vec<Report>, tag: MechanismTag) -> Self {
        Batch {
            reports,
            mechanism: tag,
        }
    }

    /// Appends the encoded frame to `buf`: version 2 for the integer
    /// oracles, version 3 for the float-carrying ones.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` reports (the count
    /// prefix is 32-bit; split earlier than that), or if a narrow-tagged
    /// batch holds a report whose `y` exceeds `u32`.
    pub fn encode(&self, buf: &mut BytesMut) {
        let count = u32::try_from(self.reports.len()).expect("batch exceeds u32 count prefix");
        let wide = self.mechanism.is_wide();
        buf.reserve(BATCH_HEADER_LEN + self.reports.len() * self.mechanism.body_len());
        buf.put_u8(BATCH_TAG);
        buf.put_u8(if wide {
            WIRE_VERSION_WIDE
        } else {
            WIRE_VERSION_TAGGED
        });
        buf.put_u8(oracle_wire_byte(self.mechanism.oracle));
        buf.put_u8(approach_wire_byte(self.mechanism.approach));
        buf.put_u32_le(count);
        for r in &self.reports {
            if wide {
                r.encode_wide_body(buf);
            } else {
                r.encode_body(buf);
            }
        }
    }

    /// Encodes to a standalone buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes one batch frame from the front of `buf`, advancing it.
    /// Never panics on truncated or garbage input — every malformed shape
    /// maps to a [`ProtocolError`].
    pub fn decode(buf: &mut impl Buf) -> Result<Self, ProtocolError> {
        if buf.remaining() < BATCH_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated batch header"));
        }
        if buf.get_u8() != BATCH_TAG {
            return Err(ProtocolError::Malformed("not a batch frame"));
        }
        let (version, oracle, approach) = (buf.get_u8(), buf.get_u8(), buf.get_u8());
        let mechanism = MechanismTag::from_batch_header(version, oracle, approach)?;
        let (wide, body_len) = (mechanism.is_wide(), mechanism.body_len());
        let count = buf.get_u32_le() as usize;
        // The count prefix is attacker-controlled: validate against the
        // actual payload before allocating (division, not multiplication,
        // so a huge count cannot overflow usize on 32-bit targets).
        if buf.remaining() / body_len < count {
            return Err(ProtocolError::Malformed("batch shorter than its count"));
        }
        let mut reports = Vec::with_capacity(count);
        for _ in 0..count {
            reports.push(if wide {
                Report::decode_wide_body(buf)
            } else {
                Report::decode_body(buf)
            });
        }
        Ok(Batch { reports, mechanism })
    }

    /// Decodes a stream of consecutive batch frames, concatenating their
    /// reports, plus the stream's mechanism tag. Every frame must carry
    /// the same tag; `None` only for an empty stream. Trailing bytes after
    /// the last complete frame are an error.
    pub fn decode_stream_tagged(
        mut buf: impl Buf,
    ) -> Result<(Vec<Report>, Option<MechanismTag>), ProtocolError> {
        let mut out = Vec::new();
        let mut stream_tag: Option<MechanismTag> = None;
        while buf.has_remaining() {
            let batch = Batch::decode(&mut buf)?;
            if *stream_tag.get_or_insert(batch.mechanism) != batch.mechanism {
                return Err(ProtocolError::Malformed(
                    "conflicting mechanism tags in stream",
                ));
            }
            out.extend(batch.reports);
        }
        Ok((out, stream_tag))
    }
}

/// First byte of an encoded [`ModelSnapshot`] frame.
pub const SNAPSHOT_TAG: u8 = 0xC5;
/// Encoded size of a snapshot header (tag, version, approach, shape,
/// estimation settings); the payload is raw `f64` bits.
pub const SNAPSHOT_HEADER_LEN: usize = 42;
/// First byte of a [`QueryBatch`] frame.
pub const QUERY_BATCH_TAG: u8 = 0xD7;
/// Encoded size of a query-batch header (tag, version, domain, count).
pub const QUERY_BATCH_HEADER_LEN: usize = 10;
/// Encoded size of one predicate inside a query (attr, lo, hi).
pub const PREDICATE_LEN: usize = 10;
/// First byte of an [`AnswerBatch`] frame.
pub const ANSWER_BATCH_TAG: u8 = 0xA7;
/// Encoded size of an answer-batch header (tag, version, count).
pub const ANSWER_BATCH_HEADER_LEN: usize = 6;

/// The snapshot payload shape of an approach: how many 1-D and 2-D
/// frequency vectors travel (HDG: `d` + the pairs; TDG: pairs only; MSW:
/// `d` full-resolution marginals, no pairs).
fn snapshot_vector_counts(approach: ApproachKind, d: usize) -> (usize, usize) {
    match approach {
        ApproachKind::Hdg => (d, pair_count(d)),
        ApproachKind::Tdg => (0, pair_count(d)),
        ApproachKind::Msw => (d, 0),
    }
}

/// Encoded size of a snapshot frame for the given shape and approach
/// (HDG frames carry `d` 1-D vectors, TDG frames none, MSW frames `d`
/// marginals and no pair vectors).
pub fn snapshot_encoded_len(snap: &ModelSnapshot) -> usize {
    let Granularities { g1, g2 } = snap.granularities;
    let (n1, m2) = snapshot_vector_counts(snap.approach, snap.d);
    SNAPSHOT_HEADER_LEN + (n1 * g1 + m2 * g2 * g2) * 8
}

/// Appends the encoded snapshot frame to `buf`. Frequencies travel as raw
/// `f64` bits, so decode reproduces the fit exactly — not approximately.
/// Every snapshot carries its approach discriminant byte.
///
/// # Panics
///
/// Panics if a shape or settings field exceeds its wire width (`d` > u16,
/// `c`/`g1`/`g2`/iteration caps > u32) — all far beyond the ranges
/// `ModelSnapshot::from_parts` admits; mutating the public fields past
/// them must fail loudly rather than encode a truncated frame.
pub fn encode_snapshot(snap: &ModelSnapshot, buf: &mut BytesMut) {
    let narrow32 = |v: usize, what: &str| -> u32 {
        u32::try_from(v).unwrap_or_else(|_| panic!("snapshot {what} exceeds u32"))
    };
    buf.reserve(snapshot_encoded_len(snap));
    buf.put_u8(SNAPSHOT_TAG);
    buf.put_u8(WIRE_VERSION_TAGGED);
    buf.put_u8(approach_wire_byte(snap.approach));
    buf.put_u16_le(u16::try_from(snap.d).expect("snapshot dimension exceeds u16"));
    buf.put_u32_le(narrow32(snap.c, "domain"));
    buf.put_u32_le(narrow32(snap.granularities.g1, "granularity g1"));
    buf.put_u32_le(narrow32(snap.granularities.g2, "granularity g2"));
    buf.put_u8(match snap.estimator {
        EstimatorKind::WeightedUpdate => 0,
        EstimatorKind::MaxEntropy => 1,
    });
    buf.put_u64_le(snap.rm_threshold.to_bits());
    buf.put_u32_le(narrow32(snap.rm_max_iters, "iteration cap"));
    buf.put_u64_le(snap.est_threshold.to_bits());
    buf.put_u32_le(narrow32(snap.est_max_iters, "iteration cap"));
    for freqs in snap.one_d.iter().chain(snap.two_d.iter()) {
        for &f in freqs {
            buf.put_u64_le(f.to_bits());
        }
    }
}

/// Encodes a snapshot to a standalone buffer.
pub fn snapshot_to_bytes(snap: &ModelSnapshot) -> Bytes {
    let mut buf = BytesMut::with_capacity(snapshot_encoded_len(snap));
    encode_snapshot(snap, &mut buf);
    buf.freeze()
}

/// Decodes one snapshot frame from the front of `buf`, advancing it.
///
/// The declared shape is validated (`privmdr_core::snapshot::validate_shape`
/// plus the exact payload length) *before* any frequency vector is
/// allocated, so a lying header cannot force a large allocation; the
/// decoded frequencies then pass through `ModelSnapshot::from_parts`, which
/// rejects non-finite values. Truncated or garbage input always yields a
/// [`ProtocolError`], never a panic.
pub fn decode_snapshot(buf: &mut impl Buf) -> Result<ModelSnapshot, ProtocolError> {
    if buf.remaining() < SNAPSHOT_HEADER_LEN {
        return Err(ProtocolError::Malformed("truncated snapshot header"));
    }
    let tag = buf.get_u8();
    if tag != SNAPSHOT_TAG {
        return Err(ProtocolError::Malformed("not a snapshot frame"));
    }
    if buf.get_u8() != WIRE_VERSION_TAGGED {
        return Err(ProtocolError::Malformed("unsupported wire version"));
    }
    let approach = approach_from_wire_byte(buf.get_u8())?;
    let d = buf.get_u16_le() as usize;
    let c = buf.get_u32_le() as usize;
    let g1 = buf.get_u32_le() as usize;
    let g2 = buf.get_u32_le() as usize;
    let estimator = match buf.get_u8() {
        0 => EstimatorKind::WeightedUpdate,
        1 => EstimatorKind::MaxEntropy,
        _ => return Err(ProtocolError::Malformed("unknown estimator kind")),
    };
    let rm_threshold = f64::from_bits(buf.get_u64_le());
    let rm_max_iters = buf.get_u32_le() as usize;
    let est_threshold = f64::from_bits(buf.get_u64_le());
    let est_max_iters = buf.get_u32_le() as usize;
    if validate_shape(d, c, g1, g2).is_err() {
        return Err(ProtocolError::Malformed("invalid snapshot shape"));
    }
    // Shape is now bounded (d <= MAX_SNAPSHOT_DIMS = 64, g1/g2 <= c <=
    // MAX_SNAPSHOT_DOMAIN = 4096), so the expected payload size fits u64
    // comfortably; checking it against the actual remaining bytes before
    // allocating keeps lying headers harmless.
    let (n1, m2) = snapshot_vector_counts(approach, d);
    let expected = (n1 as u64) * (g1 as u64) + (m2 as u64) * (g2 as u64) * (g2 as u64);
    if ((buf.remaining() / 8) as u64) < expected {
        return Err(ProtocolError::Malformed("snapshot shorter than its shape"));
    }
    let mut take_vec =
        |len: usize| -> Vec<f64> { (0..len).map(|_| f64::from_bits(buf.get_u64_le())).collect() };
    let one_d: Vec<Vec<f64>> = (0..n1).map(|_| take_vec(g1)).collect();
    let two_d: Vec<Vec<f64>> = (0..m2).map(|_| take_vec(g2 * g2)).collect();
    ModelSnapshot::from_parts_for_approach(
        approach,
        d,
        c,
        Granularities { g1, g2 },
        estimator,
        rm_threshold,
        rm_max_iters,
        est_threshold,
        est_max_iters,
        one_d,
        two_d,
    )
    .map_err(|_| ProtocolError::Malformed("invalid snapshot contents"))
}

/// A framed batch of range queries over a shared domain — the unit a
/// query-serving client submits (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    /// Attribute domain size every query in the batch is validated against.
    pub c: usize,
    /// The queries, in submission order.
    pub queries: Vec<RangeQuery>,
}

impl QueryBatch {
    /// Wraps queries (already validated against domain `c`) into a batch.
    pub fn new(c: usize, queries: Vec<RangeQuery>) -> Self {
        QueryBatch { c, queries }
    }

    /// Encoded size of this batch.
    pub fn encoded_len(&self) -> usize {
        QUERY_BATCH_HEADER_LEN
            + self
                .queries
                .iter()
                .map(|q| 1 + q.lambda() * PREDICATE_LEN)
                .sum::<usize>()
    }

    /// Appends the encoded frame to `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` queries, a query has
    /// more than 255 predicates, an attribute index exceeds `u16::MAX`, or
    /// the domain (hence any interval bound) exceeds `u32::MAX` — all far
    /// beyond the validated ranges `RangeQuery` admits for any domain this
    /// workspace handles, and all loud failures rather than silently
    /// truncated frames.
    pub fn encode(&self, buf: &mut BytesMut) {
        let count = u32::try_from(self.queries.len()).expect("query batch exceeds u32 count");
        buf.reserve(self.encoded_len());
        buf.put_u8(QUERY_BATCH_TAG);
        buf.put_u8(WIRE_VERSION);
        buf.put_u32_le(u32::try_from(self.c).expect("query batch domain exceeds u32"));
        buf.put_u32_le(count);
        for q in &self.queries {
            buf.put_u8(u8::try_from(q.lambda()).expect("query dimension exceeds u8"));
            for p in q.predicates() {
                buf.put_u16_le(u16::try_from(p.attr).expect("attribute index exceeds u16"));
                buf.put_u32_le(u32::try_from(p.lo).expect("interval bound exceeds u32"));
                buf.put_u32_le(u32::try_from(p.hi).expect("interval bound exceeds u32"));
            }
        }
    }

    /// Encodes to a standalone buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes one query-batch frame from the front of `buf`, advancing it.
    /// Every query is re-validated through `RangeQuery`'s constructor, so a
    /// decoded batch satisfies the same invariants as a locally built one.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, ProtocolError> {
        if buf.remaining() < QUERY_BATCH_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated query batch header"));
        }
        let tag = buf.get_u8();
        if tag != QUERY_BATCH_TAG {
            return Err(ProtocolError::Malformed("not a query batch frame"));
        }
        let version = buf.get_u8();
        if version != WIRE_VERSION {
            return Err(ProtocolError::Malformed("unsupported wire version"));
        }
        let c = buf.get_u32_le() as usize;
        let count = buf.get_u32_le() as usize;
        // Queries are variable-size (>= 1 + PREDICATE_LEN bytes each), so a
        // lying count is bounded by the payload before allocation.
        if buf.remaining() / (1 + PREDICATE_LEN) < count {
            return Err(ProtocolError::Malformed("query batch shorter than count"));
        }
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            if buf.remaining() < 1 {
                return Err(ProtocolError::Malformed("truncated query"));
            }
            let lambda = buf.get_u8() as usize;
            if lambda == 0 {
                return Err(ProtocolError::Malformed("query with zero predicates"));
            }
            if buf.remaining() < lambda * PREDICATE_LEN {
                return Err(ProtocolError::Malformed("truncated query predicates"));
            }
            let preds: Vec<Predicate> = (0..lambda)
                .map(|_| Predicate {
                    attr: buf.get_u16_le() as usize,
                    lo: buf.get_u32_le() as usize,
                    hi: buf.get_u32_le() as usize,
                })
                .collect();
            queries.push(
                RangeQuery::new(preds, c)
                    .map_err(|_| ProtocolError::Malformed("invalid query in batch"))?,
            );
        }
        Ok(QueryBatch { c, queries })
    }
}

/// A framed batch of answers, in query order, as raw `f64` bits.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerBatch {
    /// One estimate per submitted query.
    pub answers: Vec<f64>,
}

impl AnswerBatch {
    /// Wraps answers into a batch.
    pub fn new(answers: Vec<f64>) -> Self {
        AnswerBatch { answers }
    }

    /// Encoded size of a batch holding `count` answers.
    pub fn encoded_len(count: usize) -> usize {
        ANSWER_BATCH_HEADER_LEN + count * 8
    }

    /// Appends the encoded frame to `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` answers.
    pub fn encode(&self, buf: &mut BytesMut) {
        let count = u32::try_from(self.answers.len()).expect("answer batch exceeds u32 count");
        buf.reserve(Self::encoded_len(self.answers.len()));
        buf.put_u8(ANSWER_BATCH_TAG);
        buf.put_u8(WIRE_VERSION);
        buf.put_u32_le(count);
        for &a in &self.answers {
            buf.put_u64_le(a.to_bits());
        }
    }

    /// Encodes to a standalone buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::encoded_len(self.answers.len()));
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes one answer-batch frame from the front of `buf`, advancing it.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, ProtocolError> {
        if buf.remaining() < ANSWER_BATCH_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated answer batch header"));
        }
        let tag = buf.get_u8();
        if tag != ANSWER_BATCH_TAG {
            return Err(ProtocolError::Malformed("not an answer batch frame"));
        }
        let version = buf.get_u8();
        if version != WIRE_VERSION {
            return Err(ProtocolError::Malformed("unsupported wire version"));
        }
        let count = buf.get_u32_le() as usize;
        if buf.remaining() / 8 < count {
            return Err(ProtocolError::Malformed("answer batch shorter than count"));
        }
        let answers = (0..count)
            .map(|_| f64::from_bits(buf.get_u64_le()))
            .collect();
        Ok(AnswerBatch { answers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports(n: u32) -> Vec<Report> {
        (0..n)
            .map(|i| Report {
                group: i % 7,
                seed: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                y: (i % 5) as u64,
            })
            .collect()
    }

    /// Reports whose `y` carries full f64 bit patterns (always > u32).
    fn wide_reports(n: u32) -> Vec<Report> {
        (0..n)
            .map(|i| Report {
                group: i % 7,
                seed: (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
                y: (0.001 + i as f64 / (n.max(1) as f64 + 1.0)).to_bits(),
            })
            .collect()
    }

    fn olh_hdg_tag() -> MechanismTag {
        MechanismTag {
            oracle: OraclePolicy::Olh,
            approach: ApproachKind::Hdg,
        }
    }

    fn grr_tag() -> MechanismTag {
        MechanismTag {
            oracle: OraclePolicy::Grr,
            approach: ApproachKind::Tdg,
        }
    }

    fn wheel_tag() -> MechanismTag {
        MechanismTag {
            oracle: OraclePolicy::Wheel,
            approach: ApproachKind::Hdg,
        }
    }

    fn sw_msw_tag() -> MechanismTag {
        MechanismTag {
            oracle: OraclePolicy::Sw,
            approach: ApproachKind::Msw,
        }
    }

    #[test]
    fn batch_round_trip() {
        for n in [0u32, 1, 100] {
            let batch = Batch::tagged(sample_reports(n), olh_hdg_tag());
            let bytes = batch.to_bytes();
            assert_eq!(bytes.len(), BATCH_HEADER_LEN + n as usize * REPORT_BODY_LEN);
            let back = Batch::decode(&mut bytes.clone()).unwrap();
            assert_eq!(back, batch);
        }
    }

    #[test]
    fn batch_stream_concatenates_frames() {
        let mut buf = BytesMut::new();
        Batch::tagged(sample_reports(10), olh_hdg_tag()).encode(&mut buf);
        Batch::tagged(sample_reports(3), olh_hdg_tag()).encode(&mut buf);
        let (reports, tag) = Batch::decode_stream_tagged(buf.freeze()).unwrap();
        assert_eq!(tag, Some(olh_hdg_tag()));
        assert_eq!(reports.len(), 13);
        assert_eq!(&reports[..10], &sample_reports(10)[..]);
        assert_eq!(&reports[10..], &sample_reports(3)[..]);
        // An empty stream has no tag; dangling tail bytes are an error.
        assert_eq!(
            Batch::decode_stream_tagged(Bytes::new()).unwrap(),
            (Vec::new(), None)
        );
        let mut tail =
            BytesMut::from(&Batch::tagged(sample_reports(2), olh_hdg_tag()).to_bytes()[..]);
        tail.put_u8(0);
        assert!(Batch::decode_stream_tagged(tail.freeze()).is_err());
    }

    #[test]
    fn batch_rejects_malformed_frames() {
        let bytes = Batch::tagged(sample_reports(4), olh_hdg_tag()).to_bytes();
        // Truncated header.
        assert!(Batch::decode(&mut bytes.slice(..3)).is_err());
        // Truncated payload.
        assert!(Batch::decode(&mut bytes.slice(..bytes.len() - 1)).is_err());
        // Wrong tag and wrong version.
        let mut wrong_tag = BytesMut::from(&bytes[..]);
        wrong_tag[0] = WIRE_VERSION_TAGGED;
        assert!(Batch::decode(&mut wrong_tag.freeze()).is_err());
        let mut wrong_ver = BytesMut::from(&bytes[..]);
        wrong_ver[1] = 9;
        assert!(Batch::decode(&mut wrong_ver.freeze()).is_err());
        // A count prefix far beyond the payload must error before allocating.
        let mut lying = BytesMut::from(&bytes[..BATCH_HEADER_LEN]);
        lying[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Batch::decode(&mut lying.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_truncation_and_bad_version() {
        const BAD_VERSION: ProtocolError = ProtocolError::Malformed("unsupported wire version");
        // The retired untagged batch header (tag, version 1, count, then
        // 16-byte bodies) is refused rather than read as OLH/HDG.
        let mut v1 = BytesMut::new();
        v1.put_u8(BATCH_TAG);
        v1.put_u8(1);
        v1.put_u32_le(2);
        for r in sample_reports(2) {
            r.encode_body(&mut v1);
        }
        let v1 = v1.freeze();
        assert_eq!(Batch::decode(&mut v1.clone()), Err(BAD_VERSION));
        assert_eq!(Batch::decode_stream_tagged(v1), Err(BAD_VERSION));
        // So is the retired HDG snapshot header: version 1, no approach byte.
        let v2 = snapshot_to_bytes(&sample_snapshot());
        let mut v1 = BytesMut::from(&v2[..2]);
        v1[1] = 1;
        v1.put_slice(&v2[3..]);
        assert_eq!(decode_snapshot(&mut v1.freeze()), Err(BAD_VERSION));
        // Every strict prefix of a current frame errors.
        let batch = Batch::tagged(sample_reports(3), olh_hdg_tag()).to_bytes();
        for cut in 0..batch.len() {
            assert!(Batch::decode(&mut batch.slice(..cut)).is_err(), "cut={cut}");
        }
        for cut in 0..v2.len() {
            assert!(decode_snapshot(&mut v2.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    fn sample_snapshot() -> ModelSnapshot {
        ModelSnapshot::from_parts(
            3,
            16,
            Granularities { g1: 8, g2: 4 },
            EstimatorKind::MaxEntropy,
            1e-7,
            100,
            1e-6,
            80,
            (0..3)
                .map(|t| (0..8).map(|i| (t * 8 + i) as f64 / 100.0).collect())
                .collect(),
            (0..3)
                .map(|p| (0..16).map(|i| (p * 16 + i) as f64 / 1000.0).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap);
        assert_eq!(bytes.len(), snapshot_encoded_len(&snap));
        // HDG snapshots carry their approach byte like every other.
        assert_eq!(bytes[1], WIRE_VERSION_TAGGED);
        assert_eq!(bytes[2], approach_wire_byte(ApproachKind::Hdg));
        let back = decode_snapshot(&mut bytes.clone()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_rejects_malformed_frames() {
        let bytes = snapshot_to_bytes(&sample_snapshot());
        assert!(decode_snapshot(&mut bytes.slice(..SNAPSHOT_HEADER_LEN - 1)).is_err());
        assert!(decode_snapshot(&mut bytes.slice(..bytes.len() - 8)).is_err());
        let mut wrong_tag = BytesMut::from(&bytes[..]);
        wrong_tag[0] = BATCH_TAG;
        assert!(decode_snapshot(&mut wrong_tag.freeze()).is_err());
        // A header declaring a huge shape over a short payload must error
        // before allocating.
        let mut lying = BytesMut::from(&bytes[..SNAPSHOT_HEADER_LEN]);
        lying[3] = 64; // d = 64
        lying[4] = 0;
        assert!(matches!(
            decode_snapshot(&mut lying.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn query_and_answer_batches_round_trip() {
        let c = 64;
        let queries = vec![
            RangeQuery::from_triples(&[(0, 3, 40)], c).unwrap(),
            RangeQuery::from_triples(&[(1, 0, 63), (4, 7, 7)], c).unwrap(),
            RangeQuery::from_triples(&[(0, 1, 2), (2, 3, 4), (3, 5, 6)], c).unwrap(),
        ];
        let qb = QueryBatch::new(c, queries);
        let bytes = qb.to_bytes();
        assert_eq!(bytes.len(), qb.encoded_len());
        assert_eq!(QueryBatch::decode(&mut bytes.clone()).unwrap(), qb);

        let ab = AnswerBatch::new(vec![0.0, -1.5, 0.333, f64::MIN_POSITIVE]);
        let bytes = ab.to_bytes();
        assert_eq!(bytes.len(), AnswerBatch::encoded_len(4));
        assert_eq!(AnswerBatch::decode(&mut bytes.clone()).unwrap(), ab);
    }

    #[test]
    fn query_batch_rejects_invalid_queries_and_truncation() {
        let c = 8;
        let qb = QueryBatch::new(c, vec![RangeQuery::from_triples(&[(0, 1, 5)], c).unwrap()]);
        let bytes = qb.to_bytes();
        assert!(QueryBatch::decode(&mut bytes.slice(..bytes.len() - 1)).is_err());
        assert!(QueryBatch::decode(&mut bytes.slice(..3)).is_err());
        // An out-of-domain interval inside the frame is rejected by the
        // query's own validation.
        let mut bad = BytesMut::from(&bytes[..]);
        let hi_offset = bytes.len() - 4;
        bad[hi_offset] = 200;
        assert!(matches!(
            QueryBatch::decode(&mut bad.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
        // Lying count over a short payload.
        let mut lying = BytesMut::new();
        lying.put_u8(QUERY_BATCH_TAG);
        lying.put_u8(WIRE_VERSION);
        lying.put_u32_le(8);
        lying.put_u32_le(u32::MAX);
        assert!(QueryBatch::decode(&mut lying.freeze()).is_err());
    }

    #[test]
    fn tagged_report_round_trips_and_reports_its_tag() {
        let r = Report {
            group: 3,
            seed: 0,
            y: 9,
        };
        let bytes = Batch::tagged(vec![r], grr_tag()).to_bytes();
        let (back, tag) = Batch::decode_stream_tagged(bytes).unwrap();
        assert_eq!(back, vec![r]);
        assert_eq!(tag, Some(grr_tag()));
    }

    #[test]
    fn tagged_batch_round_trips_and_olh_hdg_encodes_v2() {
        let reports = sample_reports(9);
        let tagged = Batch::tagged(reports.clone(), grr_tag());
        let bytes = tagged.to_bytes();
        assert_eq!(
            bytes.len(),
            BATCH_HEADER_LEN + reports.len() * REPORT_BODY_LEN
        );
        let back = Batch::decode(&mut bytes.clone()).unwrap();
        assert_eq!(back, tagged);
        assert_eq!(back.mechanism, grr_tag());

        // OLH/HDG frames as version 2 with both discriminant bytes, like
        // every other narrow mechanism.
        let bytes = Batch::tagged(reports.clone(), olh_hdg_tag()).to_bytes();
        assert_eq!(&bytes[..4], &[BATCH_TAG, WIRE_VERSION_TAGGED, 0, 0]);
        assert_eq!(
            bytes.len(),
            BATCH_HEADER_LEN + reports.len() * REPORT_BODY_LEN
        );
        assert_eq!(
            Batch::decode(&mut bytes.clone()).unwrap().mechanism,
            olh_hdg_tag()
        );
    }

    #[test]
    fn tagged_frames_reject_malformed_discriminants_and_truncation() {
        let bytes = Batch::tagged(sample_reports(4), grr_tag()).to_bytes();
        // Truncated header.
        assert!(Batch::decode(&mut bytes.slice(..BATCH_HEADER_LEN - 1)).is_err());
        // Unknown oracle / approach discriminants.
        for (idx, bad) in [(2usize, 9u8), (3, 7)] {
            let mut wrong = BytesMut::from(&bytes[..]);
            wrong[idx] = bad;
            assert!(Batch::decode(&mut wrong.freeze()).is_err(), "byte {idx}");
        }
    }

    #[test]
    fn streams_with_conflicting_tags_are_rejected() {
        let mut buf = BytesMut::new();
        Batch::tagged(sample_reports(3), grr_tag()).encode(&mut buf);
        Batch::tagged(sample_reports(2), olh_hdg_tag()).encode(&mut buf);
        assert!(matches!(
            Batch::decode_stream_tagged(buf.freeze()),
            Err(ProtocolError::Malformed(_))
        ));

        // Consistent tagged stream decodes with its tag.
        let mut buf = BytesMut::new();
        Batch::tagged(sample_reports(3), grr_tag()).encode(&mut buf);
        Batch::tagged(sample_reports(2), grr_tag()).encode(&mut buf);
        let (reports, tag) = Batch::decode_stream_tagged(buf.freeze()).unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(tag, Some(grr_tag()));
    }

    #[test]
    fn tdg_snapshot_frame_round_trips_exactly() {
        let snap = ModelSnapshot::from_parts_for_approach(
            ApproachKind::Tdg,
            3,
            16,
            Granularities { g1: 4, g2: 4 },
            EstimatorKind::WeightedUpdate,
            1e-7,
            100,
            1e-6,
            80,
            Vec::new(),
            (0..3)
                .map(|p| (0..16).map(|i| (p * 16 + i) as f64 / 500.0).collect())
                .collect(),
        )
        .unwrap();
        let bytes = snapshot_to_bytes(&snap);
        assert_eq!(bytes.len(), snapshot_encoded_len(&snap));
        assert_eq!(bytes[1], WIRE_VERSION_TAGGED);
        let back = decode_snapshot(&mut bytes.clone()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.approach, ApproachKind::Tdg);

        // Truncated header and unknown approach byte must error.
        assert!(decode_snapshot(&mut bytes.slice(..SNAPSHOT_HEADER_LEN - 1)).is_err());
        let mut wrong = BytesMut::from(&bytes[..]);
        wrong[2] = 9;
        assert!(decode_snapshot(&mut wrong.freeze()).is_err());
    }

    #[test]
    fn wide_report_and_batch_round_trip_exact_f64_bits() {
        for tag in [wheel_tag(), sw_msw_tag()] {
            let reports = wide_reports(9);
            let batch = Batch::tagged(reports.clone(), tag);
            let bytes = batch.to_bytes();
            assert_eq!(
                bytes.len(),
                BATCH_HEADER_LEN + reports.len() * WIDE_REPORT_BODY_LEN
            );
            assert_eq!(bytes[1], WIRE_VERSION_WIDE);
            let back = Batch::decode(&mut bytes.clone()).unwrap();
            assert_eq!(back, batch);

            // A stream of wide frames decodes with its tag.
            let mut buf = BytesMut::new();
            Batch::tagged(reports[..4].to_vec(), tag).encode(&mut buf);
            Batch::tagged(reports[4..].to_vec(), tag).encode(&mut buf);
            let (decoded, stream_tag) = Batch::decode_stream_tagged(buf.freeze()).unwrap();
            assert_eq!(decoded, reports);
            assert_eq!(stream_tag, Some(tag));
        }
    }

    #[test]
    fn frame_width_and_tag_must_agree() {
        // A wheel/sw discriminant inside a version-2 frame is rejected.
        let narrow = Batch::tagged(sample_reports(3), grr_tag()).to_bytes();
        let mut forged = BytesMut::from(&narrow[..]);
        forged[2] = 3; // oracle byte -> wheel, version byte still 2
        assert!(matches!(
            Batch::decode(&mut forged.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
        // An integer-oracle discriminant inside a version-3 frame is too.
        let wide = Batch::tagged(wide_reports(3), wheel_tag()).to_bytes();
        let mut forged = BytesMut::from(&wide[..]);
        forged[2] = 0; // oracle byte -> olh, version byte still 3
        assert!(matches!(
            Batch::decode(&mut forged.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn wide_streams_reject_conflicts_and_truncation() {
        // Wide and narrow frames cannot mix in one stream.
        let mut buf = BytesMut::new();
        Batch::tagged(wide_reports(3), wheel_tag()).encode(&mut buf);
        Batch::tagged(sample_reports(2), olh_hdg_tag()).encode(&mut buf);
        assert!(matches!(
            Batch::decode_stream_tagged(buf.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
        // Two different wide tags conflict too.
        let mut buf = BytesMut::new();
        Batch::tagged(wide_reports(3), wheel_tag()).encode(&mut buf);
        Batch::tagged(wide_reports(2), sw_msw_tag()).encode(&mut buf);
        assert!(Batch::decode_stream_tagged(buf.freeze()).is_err());
        // Truncated wide frames error instead of panicking.
        let bytes = Batch::tagged(wide_reports(4), wheel_tag()).to_bytes();
        assert!(Batch::decode(&mut bytes.slice(..bytes.len() - 1)).is_err());
        assert!(Batch::decode(&mut bytes.slice(..BATCH_HEADER_LEN - 1)).is_err());
    }

    #[test]
    #[should_panic(expected = "wide report y in a narrow frame")]
    fn narrow_encoding_of_a_wide_report_fails_loudly() {
        Batch::tagged(wide_reports(1), grr_tag()).to_bytes();
    }

    #[test]
    fn msw_snapshot_frame_round_trips_exactly() {
        let snap = ModelSnapshot::from_parts_for_approach(
            ApproachKind::Msw,
            3,
            16,
            Granularities { g1: 16, g2: 1 },
            EstimatorKind::WeightedUpdate,
            1e-7,
            100,
            1e-6,
            80,
            (0..3)
                .map(|t| (0..16).map(|i| (t * 16 + i) as f64 / 1000.0).collect())
                .collect(),
            Vec::new(),
        )
        .unwrap();
        let bytes = snapshot_to_bytes(&snap);
        assert_eq!(bytes.len(), snapshot_encoded_len(&snap));
        assert_eq!(bytes[1], WIRE_VERSION_TAGGED);
        let back = decode_snapshot(&mut bytes.clone()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.approach, ApproachKind::Msw);
    }
}
