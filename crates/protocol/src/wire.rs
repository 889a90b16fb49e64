//! Binary wire format for client reports.
//!
//! One standalone report is exactly 17 bytes:
//!
//! ```text
//! +--------+----------------+----------------------+-----------+
//! | ver:u8 | group: u32 LE  | hash seed: u64 LE    | y: u32 LE |
//! +--------+----------------+----------------------+-----------+
//! ```
//!
//! `seed` identifies the user's OLH hash function and `y` is the
//! GRR-randomized hashed value — together the complete (and only) content
//! of an OLH report (paper §2.2). Everything else (ε, grid geometry) is
//! public plan state, so it never travels with the report.
//!
//! At collection scale (~10⁶ users) reports arrive in bulk, so the format
//! also defines a length-prefixed [`Batch`] frame that amortizes the
//! version byte and lets the server hand a whole slab of reports to the
//! sharded ingestion path in one decode:
//!
//! ```text
//! +-----------+--------+--------------+  count × 16-byte bodies
//! | tag: 0xB1 | ver:u8 | count:u32 LE |  (group, seed, y — no version)
//! +-----------+--------+--------------+
//! ```
//!
//! The tag byte `0xB1` can never open a standalone report (whose first
//! byte is [`WIRE_VERSION`]), so a stream of frames is self-describing:
//! the decoder peeks one byte to tell the two framings apart.
//!
//! # Mechanism discriminant (wire version 2)
//!
//! Sessions are no longer hardwired to OLH/HDG, so the report-carrying
//! frames gain a version-2 form that carries a [`MechanismTag`] — the
//! session's oracle policy and estimation approach — right after the
//! version byte. Version-1 frames remain decodable and *imply* the
//! default tag (OLH/HDG), so pre-existing streams keep their meaning;
//! encoders emit version 1 whenever the tag is the default, keeping the
//! OLH/HDG byte stream bit-identical to earlier releases. A standalone
//! tagged report is 19 bytes (`ver:2, oracle:u8, approach:u8, body`); a
//! tagged batch header is 8 bytes (`0xB1, ver:2, oracle:u8, approach:u8,
//! count:u32`). Decoders reject unknown discriminant values, and the
//! tagged stream decoders additionally reject streams whose frames
//! disagree with each other — the collector then checks the stream's tag
//! against its plan, so a GRR stream can never be mis-aggregated by an
//! OLH session (or vice versa).
//!
//! # Wide reports (wire version 3)
//!
//! The Wheel and Square Wave oracles report a *float* — Wheel's `(seed,
//! y ∈ [0,1))` pair, SW's padded-interval sample — so their `y` travels
//! as the full 8 IEEE-754 bits rather than the 4-byte integer the
//! GRR/OLH bodies carry. Frames whose [`MechanismTag`] names a
//! float-carrying oracle use wire version 3: the same header layout as
//! version 2 (so a wide batch header is still 8 bytes) followed by
//! 20-byte bodies (`group:u32, seed:u64, y:u64 LE`); a standalone wide
//! report is 23 bytes. The pairing of tag and width is enforced in both
//! directions — a wheel/sw discriminant inside a version-1/2 frame and a
//! grr/olh/auto discriminant inside a version-3 frame are both rejected —
//! so every byte stream has exactly one valid framing, and version-1/2
//! streams keep decoding byte-identically to earlier releases.
//!
//! # Query-serving frames
//!
//! The read path adds three more tag-versioned frames, all following the
//! same garbage-robustness contract as [`Batch`] (length prefixes are
//! validated against the actual payload before any allocation; malformed
//! bytes always surface as [`ProtocolError`], never a panic):
//!
//! * **Snapshot** (tag `0xC5`) — a finalized `privmdr_core` fit
//!   ([`ModelSnapshot`]): geometry + estimation settings header, then the
//!   post-processed grid frequencies as raw `f64` bits (exact round-trip).
//! * **[`QueryBatch`]** (tag `0xD7`) — a batch of λ-dimensional range
//!   queries over a shared domain `c`; each query is λ `(attr, lo, hi)`
//!   predicates and is re-validated through `RangeQuery`'s own invariants
//!   on decode.
//! * **[`AnswerBatch`]** (tag `0xA7`) — the matching answers as raw `f64`
//!   bits, in query order.

use crate::ProtocolError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use privmdr_core::snapshot::{validate_shape, ModelSnapshot};
use privmdr_core::{ApproachKind, EstimatorKind};
use privmdr_grid::guideline::Granularities;
use privmdr_grid::pairs::pair_count;
use privmdr_oracles::OraclePolicy;
use privmdr_query::{Predicate, RangeQuery};

/// Wire protocol version byte (untagged frames: OLH/HDG implied).
pub const WIRE_VERSION: u8 = 1;
/// Wire version byte of mechanism-tagged frames.
pub const WIRE_VERSION_TAGGED: u8 = 2;
/// Wire version byte of wide (float-carrying, always tagged) frames.
pub const WIRE_VERSION_WIDE: u8 = 3;
/// Encoded size of one standalone report.
pub const REPORT_LEN: usize = 17;
/// Encoded size of one standalone mechanism-tagged report.
pub const TAGGED_REPORT_LEN: usize = 19;
/// Encoded size of one standalone wide (version 3) report.
pub const WIDE_REPORT_LEN: usize = 23;
/// First byte of a [`Batch`] frame; distinct from [`WIRE_VERSION`] so the
/// two framings coexist in one stream.
pub const BATCH_TAG: u8 = 0xB1;
/// Encoded size of a batch header (tag, version, count).
pub const BATCH_HEADER_LEN: usize = 6;
/// Encoded size of a mechanism-tagged batch header (tag, version, oracle,
/// approach, count).
pub const TAGGED_BATCH_HEADER_LEN: usize = 8;
/// Encoded size of one report body inside a batch (no version byte).
pub const REPORT_BODY_LEN: usize = 16;
/// Encoded size of one wide report body inside a version-3 batch.
pub const WIDE_REPORT_BODY_LEN: usize = 20;

/// The session-mechanism discriminant carried by version-2 frames: which
/// frequency-oracle policy randomized the reports and which estimation
/// approach the session finalizes into. Version-1 frames imply
/// [`MechanismTag::DEFAULT`].
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
    /// The tag version-1 frames imply: OLH reports, HDG estimation.
    pub const DEFAULT: MechanismTag = MechanismTag {
        oracle: OraclePolicy::Olh,
        approach: ApproachKind::Hdg,
    };

    /// Whether this is the implied default (and so encodes as version 1).
    pub fn is_default(&self) -> bool {
        *self == Self::DEFAULT
    }

    /// Whether this tag names a float-carrying oracle, and so frames wide
    /// (version 3, `y` as raw `f64` bits).
    pub fn is_wide(&self) -> bool {
        matches!(self.oracle, OraclePolicy::Wheel | OraclePolicy::Sw)
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(oracle_wire_byte(self.oracle));
        buf.put_u8(approach_wire_byte(self.approach));
    }

    /// Decodes the two discriminant bytes; the caller must have checked
    /// that they are present.
    fn decode(buf: &mut impl Buf) -> Result<Self, ProtocolError> {
        let oracle = oracle_from_wire_byte(buf.get_u8())?;
        let approach = approach_from_wire_byte(buf.get_u8())?;
        Ok(MechanismTag { oracle, approach })
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
    /// Appends the encoded report to `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `y` exceeds `u32` — a float-carrying report must travel
    /// in a wide (version 3) frame via [`Report::encode_tagged`].
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(REPORT_LEN);
        buf.put_u8(WIRE_VERSION);
        self.encode_body(buf);
    }

    /// Encodes to a standalone buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(REPORT_LEN);
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Appends the mechanism-tagged encoding to `buf`. Like
    /// [`Batch::tagged`], the default tag canonicalizes to the version-1
    /// form — an OLH/HDG stream is the same bytes however it is built —
    /// and a wide tag (Wheel/SW) frames as version 3 with an 8-byte `y`.
    pub fn encode_tagged(&self, tag: &MechanismTag, buf: &mut BytesMut) {
        if tag.is_wide() {
            buf.reserve(WIDE_REPORT_LEN);
            buf.put_u8(WIRE_VERSION_WIDE);
            tag.encode(buf);
            self.encode_wide_body(buf);
            return;
        }
        if tag.is_default() {
            return self.encode(buf);
        }
        buf.reserve(TAGGED_REPORT_LEN);
        buf.put_u8(WIRE_VERSION_TAGGED);
        tag.encode(buf);
        self.encode_body(buf);
    }

    /// Decodes one report from the front of `buf`, advancing it. Accepts
    /// both wire versions; the mechanism tag of a version-2 report is
    /// validated and discarded (see [`Report::decode_with_tag`]).
    pub fn decode(buf: &mut impl Buf) -> Result<Self, ProtocolError> {
        Self::decode_with_tag(buf).map(|(report, _)| report)
    }

    /// Decodes one report plus its mechanism tag (`None` for version-1
    /// reports, which imply [`MechanismTag::DEFAULT`]).
    pub fn decode_with_tag(
        buf: &mut impl Buf,
    ) -> Result<(Self, Option<MechanismTag>), ProtocolError> {
        if !buf.has_remaining() {
            return Err(ProtocolError::Malformed("truncated report"));
        }
        match buf.chunk()[0] {
            WIRE_VERSION => {
                if buf.remaining() < REPORT_LEN {
                    return Err(ProtocolError::Malformed("truncated report"));
                }
                buf.advance(1);
                Ok((Report::decode_body(buf), None))
            }
            WIRE_VERSION_TAGGED => {
                if buf.remaining() < TAGGED_REPORT_LEN {
                    return Err(ProtocolError::Malformed("truncated tagged report"));
                }
                buf.advance(1);
                let tag = MechanismTag::decode(buf)?;
                if tag.is_wide() {
                    return Err(ProtocolError::Malformed(
                        "float-carrying oracle in a narrow frame",
                    ));
                }
                Ok((Report::decode_body(buf), Some(tag)))
            }
            WIRE_VERSION_WIDE => {
                if buf.remaining() < WIDE_REPORT_LEN {
                    return Err(ProtocolError::Malformed("truncated wide report"));
                }
                buf.advance(1);
                let tag = MechanismTag::decode(buf)?;
                if !tag.is_wide() {
                    return Err(ProtocolError::Malformed("integer oracle in a wide frame"));
                }
                Ok((Report::decode_wide_body(buf), Some(tag)))
            }
            _ => Err(ProtocolError::Malformed("unsupported wire version")),
        }
    }

    /// Decodes a whole stream of concatenated reports (either version).
    pub fn decode_stream(buf: impl Buf) -> Result<Vec<Report>, ProtocolError> {
        Self::decode_stream_tagged(buf).map(|(reports, _)| reports)
    }

    /// Decodes a stream of concatenated reports plus the stream's
    /// mechanism tag. Every report must agree on the tag (version-1
    /// reports imply the default), so a stream has one well-defined
    /// mechanism; `None` only for an empty stream.
    pub fn decode_stream_tagged(
        mut buf: impl Buf,
    ) -> Result<(Vec<Report>, Option<MechanismTag>), ProtocolError> {
        let mut out = Vec::with_capacity(buf.remaining() / REPORT_LEN);
        let mut stream_tag: Option<MechanismTag> = None;
        while buf.has_remaining() {
            let (report, tag) = Report::decode_with_tag(&mut buf)?;
            let tag = tag.unwrap_or(MechanismTag::DEFAULT);
            if *stream_tag.get_or_insert(tag) != tag {
                return Err(ProtocolError::Malformed(
                    "conflicting mechanism tags in stream",
                ));
            }
            out.push(report);
        }
        Ok((out, stream_tag))
    }

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

/// A length-prefixed frame of reports — the bulk unit the sharded
/// ingestion path consumes (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    /// The framed reports, in arrival order.
    pub reports: Vec<Report>,
    /// The session-mechanism discriminant: `None` encodes as version 1
    /// (OLH/HDG implied), `Some` as a version-2 tagged frame.
    pub mechanism: Option<MechanismTag>,
}

impl Batch {
    /// Wraps reports into an untagged (version 1, OLH/HDG) batch.
    pub fn new(reports: Vec<Report>) -> Self {
        Batch {
            reports,
            mechanism: None,
        }
    }

    /// Wraps reports into a mechanism-tagged batch. A default tag is
    /// normalized away — the tagged and untagged forms of an OLH/HDG
    /// session are the same value and the same bytes.
    pub fn tagged(reports: Vec<Report>, tag: MechanismTag) -> Self {
        Batch {
            reports,
            mechanism: (!tag.is_default()).then_some(tag),
        }
    }

    /// Encoded size of an untagged batch holding `count` reports (tagged
    /// frames add `TAGGED_BATCH_HEADER_LEN - BATCH_HEADER_LEN` bytes).
    pub fn encoded_len(count: usize) -> usize {
        BATCH_HEADER_LEN + count * REPORT_BODY_LEN
    }

    /// The non-default mechanism tag, if any. `encode` canonicalizes
    /// through this, so a hand-built `mechanism: Some(MechanismTag::
    /// DEFAULT)` still emits the version-1 bytes.
    fn effective_mechanism(&self) -> Option<MechanismTag> {
        self.mechanism.filter(|tag| !tag.is_default())
    }

    fn wire_len(&self) -> usize {
        let (header, body) = match self.effective_mechanism() {
            None => (BATCH_HEADER_LEN, REPORT_BODY_LEN),
            Some(tag) if tag.is_wide() => (TAGGED_BATCH_HEADER_LEN, WIDE_REPORT_BODY_LEN),
            Some(_) => (TAGGED_BATCH_HEADER_LEN, REPORT_BODY_LEN),
        };
        header + self.reports.len() * body
    }

    /// Appends the encoded frame to `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` reports (the count
    /// prefix is 32-bit); split earlier than that.
    pub fn encode(&self, buf: &mut BytesMut) {
        let count = u32::try_from(self.reports.len()).expect("batch exceeds u32 count prefix");
        buf.reserve(self.wire_len());
        buf.put_u8(BATCH_TAG);
        let mut wide = false;
        match self.effective_mechanism() {
            None => buf.put_u8(WIRE_VERSION),
            Some(tag) => {
                wide = tag.is_wide();
                buf.put_u8(if wide {
                    WIRE_VERSION_WIDE
                } else {
                    WIRE_VERSION_TAGGED
                });
                tag.encode(buf);
            }
        }
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
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes one batch frame (either version) from the front of `buf`,
    /// advancing it. Never panics on truncated or garbage input — every
    /// malformed shape maps to a [`ProtocolError`].
    pub fn decode(buf: &mut impl Buf) -> Result<Self, ProtocolError> {
        if buf.remaining() < BATCH_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated batch header"));
        }
        let tag = buf.get_u8();
        if tag != BATCH_TAG {
            return Err(ProtocolError::Malformed("not a batch frame"));
        }
        let version = buf.get_u8();
        let mechanism = match version {
            WIRE_VERSION => None,
            WIRE_VERSION_TAGGED | WIRE_VERSION_WIDE => {
                // Tag + version are consumed; the tagged header needs the
                // two discriminant bytes and the count to still be there.
                if buf.remaining() < TAGGED_BATCH_HEADER_LEN - 2 {
                    return Err(ProtocolError::Malformed("truncated batch header"));
                }
                let tag = MechanismTag::decode(buf)?;
                match (version == WIRE_VERSION_WIDE, tag.is_wide()) {
                    (false, true) => {
                        return Err(ProtocolError::Malformed(
                            "float-carrying oracle in a narrow frame",
                        ))
                    }
                    (true, false) => {
                        return Err(ProtocolError::Malformed("integer oracle in a wide frame"))
                    }
                    _ => {}
                }
                Some(tag)
            }
            _ => return Err(ProtocolError::Malformed("unsupported wire version")),
        };
        let wide = version == WIRE_VERSION_WIDE;
        let body_len = if wide {
            WIDE_REPORT_BODY_LEN
        } else {
            REPORT_BODY_LEN
        };
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
    /// reports. Trailing bytes after the last complete frame are an error.
    pub fn decode_stream(buf: impl Buf) -> Result<Vec<Report>, ProtocolError> {
        Self::decode_stream_tagged(buf).map(|(reports, _)| reports)
    }

    /// Decodes a stream of consecutive batch frames plus the stream's
    /// mechanism tag. Every frame must agree on the tag (untagged frames
    /// imply the default); `None` only for an empty stream.
    pub fn decode_stream_tagged(
        mut buf: impl Buf,
    ) -> Result<(Vec<Report>, Option<MechanismTag>), ProtocolError> {
        let mut out = Vec::new();
        let mut stream_tag: Option<MechanismTag> = None;
        while buf.has_remaining() {
            let batch = Batch::decode(&mut buf)?;
            let tag = batch.mechanism.unwrap_or(MechanismTag::DEFAULT);
            if *stream_tag.get_or_insert(tag) != tag {
                return Err(ProtocolError::Malformed(
                    "conflicting mechanism tags in stream",
                ));
            }
            out.extend(batch.reports);
        }
        Ok((out, stream_tag))
    }
}

/// Decodes a stream in either framing — concatenated standalone reports
/// or length-prefixed [`Batch`] frames — by peeking the first byte. An
/// empty stream is zero reports in either framing.
pub fn decode_any_stream(buf: impl Buf) -> Result<Vec<Report>, ProtocolError> {
    decode_any_stream_tagged(buf).map(|(reports, _)| reports)
}

/// [`decode_any_stream`] plus the stream's mechanism tag: `Some` once the
/// stream carries at least one frame (untagged frames imply
/// [`MechanismTag::DEFAULT`]), `None` for an empty stream.
pub fn decode_any_stream_tagged(
    buf: impl Buf,
) -> Result<(Vec<Report>, Option<MechanismTag>), ProtocolError> {
    if !buf.has_remaining() {
        return Ok((Vec::new(), None));
    }
    if buf.chunk()[0] == BATCH_TAG {
        Batch::decode_stream_tagged(buf)
    } else {
        Report::decode_stream_tagged(buf)
    }
}

/// First byte of an encoded [`ModelSnapshot`] frame.
pub const SNAPSHOT_TAG: u8 = 0xC5;
/// Encoded size of a version-1 (HDG) snapshot header (tag, version, shape,
/// estimation settings); the payload is raw `f64` bits.
pub const SNAPSHOT_HEADER_LEN: usize = 41;
/// Encoded size of a version-2 snapshot header: version 1 plus the
/// approach discriminant byte right after the version byte.
pub const TAGGED_SNAPSHOT_HEADER_LEN: usize = 42;
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
    let header = match snap.approach {
        ApproachKind::Hdg => SNAPSHOT_HEADER_LEN,
        ApproachKind::Tdg | ApproachKind::Msw => TAGGED_SNAPSHOT_HEADER_LEN,
    };
    let (n1, m2) = snapshot_vector_counts(snap.approach, snap.d);
    header + (n1 * g1 + m2 * g2 * g2) * 8
}

/// Appends the encoded snapshot frame to `buf`. Frequencies travel as raw
/// `f64` bits, so decode reproduces the fit exactly — not approximately.
/// HDG snapshots encode as version 1 (byte-identical to earlier releases);
/// TDG and MSW snapshots encode as version 2 with the approach
/// discriminant byte.
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
    match snap.approach {
        ApproachKind::Hdg => buf.put_u8(WIRE_VERSION),
        approach => {
            buf.put_u8(WIRE_VERSION_TAGGED);
            buf.put_u8(approach_wire_byte(approach));
        }
    }
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
    let approach = match buf.get_u8() {
        WIRE_VERSION => ApproachKind::Hdg,
        WIRE_VERSION_TAGGED => {
            // Tag + version consumed; the v2 header is one byte longer.
            if buf.remaining() < TAGGED_SNAPSHOT_HEADER_LEN - 2 {
                return Err(ProtocolError::Malformed("truncated snapshot header"));
            }
            approach_from_wire_byte(buf.get_u8())?
        }
        _ => return Err(ProtocolError::Malformed("unsupported wire version")),
    };
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

    #[test]
    fn round_trip_single() {
        let r = Report {
            group: 7,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            y: 3,
        };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), REPORT_LEN);
        let back = Report::decode(&mut bytes.clone()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn round_trip_stream() {
        let reports: Vec<Report> = (0..100u32)
            .map(|i| Report {
                group: i % 5,
                seed: i as u64 * 77,
                y: (i % 4) as u64,
            })
            .collect();
        let mut buf = BytesMut::new();
        for r in &reports {
            r.encode(&mut buf);
        }
        let back = Report::decode_stream(buf.freeze()).unwrap();
        assert_eq!(back, reports);
    }

    #[test]
    fn rejects_truncation_and_bad_version() {
        let r = Report {
            group: 1,
            seed: 2,
            y: 3,
        };
        let bytes = r.to_bytes();
        let mut short = bytes.slice(..REPORT_LEN - 1);
        assert!(Report::decode(&mut short).is_err());
        let mut wrong = BytesMut::from(&bytes[..]);
        wrong[0] = 99;
        assert!(Report::decode(&mut wrong.freeze()).is_err());
        // Stream with dangling tail bytes.
        let mut buf = BytesMut::from(&bytes[..]);
        buf.put_u8(0);
        assert!(Report::decode_stream(buf.freeze()).is_err());
    }

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
            let batch = Batch::new(sample_reports(n));
            let bytes = batch.to_bytes();
            assert_eq!(bytes.len(), Batch::encoded_len(n as usize));
            let back = Batch::decode(&mut bytes.clone()).unwrap();
            assert_eq!(back, batch);
        }
    }

    #[test]
    fn batch_stream_concatenates_frames() {
        let mut buf = BytesMut::new();
        Batch::new(sample_reports(10)).encode(&mut buf);
        Batch::new(sample_reports(3)).encode(&mut buf);
        let reports = Batch::decode_stream(buf.freeze()).unwrap();
        assert_eq!(reports.len(), 13);
        assert_eq!(&reports[..10], &sample_reports(10)[..]);
        assert_eq!(&reports[10..], &sample_reports(3)[..]);
    }

    #[test]
    fn batch_rejects_malformed_frames() {
        let bytes = Batch::new(sample_reports(4)).to_bytes();
        // Truncated header.
        assert!(Batch::decode(&mut bytes.slice(..3)).is_err());
        // Truncated payload.
        assert!(Batch::decode(&mut bytes.slice(..bytes.len() - 1)).is_err());
        // Wrong tag and wrong version.
        let mut wrong_tag = BytesMut::from(&bytes[..]);
        wrong_tag[0] = WIRE_VERSION;
        assert!(Batch::decode(&mut wrong_tag.freeze()).is_err());
        let mut wrong_ver = BytesMut::from(&bytes[..]);
        wrong_ver[1] = 9;
        assert!(Batch::decode(&mut wrong_ver.freeze()).is_err());
        // A count prefix far beyond the payload must error before allocating.
        let mut lying = BytesMut::new();
        lying.put_u8(BATCH_TAG);
        lying.put_u8(WIRE_VERSION);
        lying.put_u32_le(u32::MAX);
        assert!(matches!(
            Batch::decode(&mut lying.freeze()),
            Err(ProtocolError::Malformed(_))
        ));
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
        lying[2] = 64; // d = 64
        lying[3] = 0;
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

    fn grr_tag() -> MechanismTag {
        MechanismTag {
            oracle: OraclePolicy::Grr,
            approach: ApproachKind::Tdg,
        }
    }

    #[test]
    fn tagged_report_round_trips_and_reports_its_tag() {
        let r = Report {
            group: 3,
            seed: 0,
            y: 9,
        };
        let mut buf = BytesMut::new();
        r.encode_tagged(&grr_tag(), &mut buf);
        assert_eq!(buf.len(), TAGGED_REPORT_LEN);
        let bytes = buf.freeze();
        let (back, tag) = Report::decode_with_tag(&mut bytes.clone()).unwrap();
        assert_eq!(back, r);
        assert_eq!(tag, Some(grr_tag()));
        // Plain decode accepts the tagged form too.
        assert_eq!(Report::decode(&mut bytes.clone()).unwrap(), r);
        // An untagged report decodes with no tag.
        let (_, tag) = Report::decode_with_tag(&mut r.to_bytes().clone()).unwrap();
        assert_eq!(tag, None);
    }

    #[test]
    fn tagged_batch_round_trips_and_default_tag_is_v1_bytes() {
        let reports = sample_reports(9);
        let tagged = Batch::tagged(reports.clone(), grr_tag());
        let bytes = tagged.to_bytes();
        assert_eq!(
            bytes.len(),
            TAGGED_BATCH_HEADER_LEN + reports.len() * REPORT_BODY_LEN
        );
        let back = Batch::decode(&mut bytes.clone()).unwrap();
        assert_eq!(back, tagged);
        assert_eq!(back.mechanism, Some(grr_tag()));

        // A default tag encodes as version 1 — byte-identical to an
        // untagged batch, so pure OLH/HDG streams never grow. Standalone
        // reports canonicalize the same way.
        let default_tagged = Batch::tagged(reports.clone(), MechanismTag::DEFAULT).to_bytes();
        assert_eq!(default_tagged, Batch::new(reports.clone()).to_bytes());
        // ... even when the pub field is set by hand instead of through
        // the normalizing constructor.
        let hand_built = Batch {
            reports: reports.clone(),
            mechanism: Some(MechanismTag::DEFAULT),
        };
        assert_eq!(
            hand_built.to_bytes(),
            Batch::new(reports.clone()).to_bytes()
        );
        let mut buf = BytesMut::new();
        reports[0].encode_tagged(&MechanismTag::DEFAULT, &mut buf);
        assert_eq!(buf.freeze(), reports[0].to_bytes());
    }

    #[test]
    fn tagged_frames_reject_malformed_discriminants_and_truncation() {
        let bytes = Batch::tagged(sample_reports(4), grr_tag()).to_bytes();
        // Truncated tagged header.
        assert!(Batch::decode(&mut bytes.slice(..TAGGED_BATCH_HEADER_LEN - 1)).is_err());
        // Unknown oracle / approach discriminants.
        for (idx, bad) in [(2usize, 9u8), (3, 7)] {
            let mut wrong = BytesMut::from(&bytes[..]);
            wrong[idx] = bad;
            assert!(Batch::decode(&mut wrong.freeze()).is_err(), "byte {idx}");
        }
        // Same for standalone tagged reports.
        let mut buf = BytesMut::new();
        sample_reports(1)[0].encode_tagged(&grr_tag(), &mut buf);
        let bytes = buf.freeze();
        assert!(Report::decode(&mut bytes.slice(..TAGGED_REPORT_LEN - 1)).is_err());
        for idx in [1usize, 2] {
            let mut wrong = BytesMut::from(&bytes[..]);
            wrong[idx] = 0xEE;
            assert!(Report::decode(&mut wrong.freeze()).is_err(), "byte {idx}");
        }
    }

    #[test]
    fn streams_with_conflicting_tags_are_rejected() {
        let mut buf = BytesMut::new();
        Batch::tagged(sample_reports(3), grr_tag()).encode(&mut buf);
        Batch::new(sample_reports(2)).encode(&mut buf); // implies DEFAULT
        assert!(matches!(
            Batch::decode_stream_tagged(buf.freeze()),
            Err(ProtocolError::Malformed(_))
        ));

        // Consistent tagged stream decodes with its tag.
        let mut buf = BytesMut::new();
        Batch::tagged(sample_reports(3), grr_tag()).encode(&mut buf);
        Batch::tagged(sample_reports(2), grr_tag()).encode(&mut buf);
        let (reports, tag) = decode_any_stream_tagged(buf.freeze()).unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(tag, Some(grr_tag()));

        // Standalone tagged reports stream the same way.
        let mut buf = BytesMut::new();
        for r in sample_reports(4) {
            r.encode_tagged(&grr_tag(), &mut buf);
        }
        let (reports, tag) = decode_any_stream_tagged(buf.freeze()).unwrap();
        assert_eq!(reports.len(), 4);
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

        // Truncated v2 header and unknown approach byte must error.
        assert!(decode_snapshot(&mut bytes.slice(..TAGGED_SNAPSHOT_HEADER_LEN - 1)).is_err());
        let mut wrong = BytesMut::from(&bytes[..]);
        wrong[2] = 9;
        assert!(decode_snapshot(&mut wrong.freeze()).is_err());
        // HDG snapshots still encode as version 1.
        assert_eq!(snapshot_to_bytes(&sample_snapshot())[1], WIRE_VERSION);
    }

    #[test]
    fn wide_report_and_batch_round_trip_exact_f64_bits() {
        for tag in [wheel_tag(), sw_msw_tag()] {
            let reports = wide_reports(9);
            let mut buf = BytesMut::new();
            reports[0].encode_tagged(&tag, &mut buf);
            assert_eq!(buf.len(), WIDE_REPORT_LEN);
            let bytes = buf.freeze();
            assert_eq!(bytes[0], WIRE_VERSION_WIDE);
            let (back, got) = Report::decode_with_tag(&mut bytes.clone()).unwrap();
            assert_eq!(back, reports[0]);
            assert_eq!(got, Some(tag));

            let batch = Batch::tagged(reports.clone(), tag);
            let bytes = batch.to_bytes();
            assert_eq!(
                bytes.len(),
                TAGGED_BATCH_HEADER_LEN + reports.len() * WIDE_REPORT_BODY_LEN
            );
            assert_eq!(bytes[1], WIRE_VERSION_WIDE);
            let back = Batch::decode(&mut bytes.clone()).unwrap();
            assert_eq!(back, batch);

            // Streamed standalone wide reports decode with their tag.
            let mut buf = BytesMut::new();
            for r in &reports {
                r.encode_tagged(&tag, &mut buf);
            }
            let (decoded, stream_tag) = decode_any_stream_tagged(buf.freeze()).unwrap();
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
        // Same for standalone reports.
        let mut buf = BytesMut::new();
        sample_reports(1)[0].encode_tagged(&grr_tag(), &mut buf);
        let mut forged = buf;
        forged[1] = 4; // oracle byte -> sw inside a 19-byte frame
        assert!(Report::decode(&mut forged.freeze()).is_err());
        let mut buf = BytesMut::new();
        wide_reports(1)[0].encode_tagged(&wheel_tag(), &mut buf);
        let mut forged = buf;
        forged[1] = 1; // oracle byte -> grr inside a 23-byte frame
        assert!(Report::decode(&mut forged.freeze()).is_err());
    }

    #[test]
    fn wide_streams_reject_conflicts_and_truncation() {
        // Wide and narrow frames cannot mix in one stream.
        let mut buf = BytesMut::new();
        Batch::tagged(wide_reports(3), wheel_tag()).encode(&mut buf);
        Batch::new(sample_reports(2)).encode(&mut buf);
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
        assert!(Batch::decode(&mut bytes.slice(..TAGGED_BATCH_HEADER_LEN - 1)).is_err());
        let mut buf = BytesMut::new();
        wide_reports(1)[0].encode_tagged(&wheel_tag(), &mut buf);
        assert!(Report::decode(&mut buf.freeze().slice(..WIDE_REPORT_LEN - 1)).is_err());
    }

    #[test]
    #[should_panic(expected = "wide report y in a narrow frame")]
    fn narrow_encoding_of_a_wide_report_fails_loudly() {
        let mut buf = BytesMut::new();
        wide_reports(1)[0].encode(&mut buf);
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

    #[test]
    fn any_stream_detects_framing() {
        let reports = sample_reports(6);
        let mut legacy = BytesMut::new();
        for r in &reports {
            r.encode(&mut legacy);
        }
        assert_eq!(decode_any_stream(legacy.freeze()).unwrap(), reports);
        let mut batched = BytesMut::new();
        Batch::new(reports.clone()).encode(&mut batched);
        assert_eq!(decode_any_stream(batched.freeze()).unwrap(), reports);
        assert!(decode_any_stream(Bytes::from(vec![])).unwrap().is_empty());
    }
}
