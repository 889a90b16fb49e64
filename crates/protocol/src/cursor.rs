//! Zero-copy wire-frame cursor: borrow `(seed, y)` pairs straight out of
//! an ingest buffer.
//!
//! [`wire::Batch::decode_stream_tagged`] materializes every report into a
//! `Vec<Report>` before the collector partitions it by group — at 10⁶
//! reports that is a second full-stream write and re-read for no semantic
//! gain, since the batch bodies are already fixed-stride little-endian
//! records. [`FrameCursor`] walks the same batch frames with the same
//! validation (same checks, same error values, same order) but *borrows*:
//! each [`ReportFrame`] it yields is a window over the caller's buffer,
//! and the collector reads groups and `(seed, y)` pairs directly from
//! those bytes into the partition pass and the support kernel. It is the
//! collectors' only wire-ingest path. The owning batch decoder in `wire`
//! stays as the reference the equivalence suite (`tests/cursor_prop.rs`)
//! pins this module against: both must accept exactly the same streams,
//! reject exactly the same garbage, and produce bit-identical collector
//! state.

use crate::wire::{self, MechanismTag};
use crate::ProtocolError;

#[inline]
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte window"))
}

#[inline]
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

/// A validated run of report bodies borrowed from the input buffer: the
/// payload of one [`wire::Batch`] frame, with the frame header already
/// checked and stripped. Accessors decode fields on the fly from the
/// fixed-stride little-endian bodies — nothing is materialized.
#[derive(Debug, Clone, Copy)]
pub struct ReportFrame<'a> {
    /// `count` consecutive report bodies (16 B narrow / 20 B wide each).
    bodies: &'a [u8],
    count: usize,
    wide: bool,
    tag: MechanismTag,
}

impl<'a> ReportFrame<'a> {
    /// Number of reports in the frame.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The frame's mechanism tag.
    pub fn tag(&self) -> MechanismTag {
        self.tag
    }

    #[inline]
    fn body_len(&self) -> usize {
        if self.wide {
            wire::WIDE_REPORT_BODY_LEN
        } else {
            wire::REPORT_BODY_LEN
        }
    }

    /// The `i`-th report's group index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    #[inline]
    pub fn group_at(&self, i: usize) -> u32 {
        debug_assert!(i < self.count);
        le_u32(self.bodies, i * self.body_len())
    }

    /// The `i`-th report's `(seed, y)` pair, exactly as the owning `wire`
    /// decoders would produce it (narrow `y` zero-extends from `u32`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    #[inline]
    pub fn pair_at(&self, i: usize) -> (u64, u64) {
        debug_assert!(i < self.count);
        let at = i * self.body_len();
        let seed = le_u64(self.bodies, at + 4);
        let y = if self.wide {
            le_u64(self.bodies, at + 12)
        } else {
            u64::from(le_u32(self.bodies, at + 12))
        };
        (seed, y)
    }

    /// A sub-window of `len` reports starting at `start` — how the epoch
    /// collector splits a frame exactly at an epoch boundary without
    /// copying it.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > count()`.
    pub fn slice(&self, start: usize, len: usize) -> ReportFrame<'a> {
        assert!(start + len <= self.count, "frame slice out of bounds");
        let body_len = self.body_len();
        ReportFrame {
            bodies: &self.bodies[start * body_len..(start + len) * body_len],
            count: len,
            wide: self.wide,
            tag: self.tag,
        }
    }
}

/// A borrowing frame walker over a contiguous stream of [`wire::Batch`]
/// frames. Performs the same validation as [`wire::Batch::decode`] —
/// header presence, batch tag, version, mechanism discriminants,
/// tag/width agreement, and the division-based count-vs-payload check, in
/// the same order with the same error values — but yields borrowed
/// [`ReportFrame`] windows instead of allocating `Vec<Report>`. Never
/// panics on truncated or garbage input.
#[derive(Debug)]
pub struct FrameCursor<'a> {
    rest: &'a [u8],
}

impl<'a> FrameCursor<'a> {
    /// A cursor over `bytes`, read as a run of batch frames.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameCursor { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Validates and yields the next frame, advancing past it; `Ok(None)`
    /// at a clean end of stream. After an error the cursor is left at the
    /// offending frame (nothing was consumed), so callers can abort with
    /// earlier frames already processed — the streaming semantics.
    pub fn next_frame(&mut self) -> Result<Option<ReportFrame<'a>>, ProtocolError> {
        let b = self.rest;
        if b.is_empty() {
            return Ok(None);
        }
        if b.len() < wire::BATCH_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated batch header"));
        }
        if b[0] != wire::BATCH_TAG {
            return Err(ProtocolError::Malformed("not a batch frame"));
        }
        let tag = MechanismTag::from_batch_header(b[1], b[2], b[3])?;
        let body_len = tag.body_len();
        let count = le_u32(b, 4) as usize;
        let payload = &b[wire::BATCH_HEADER_LEN..];
        // Same attacker-controlled-count rule as `Batch::decode`: validate
        // by division so a huge count cannot overflow the byte math.
        if payload.len() / body_len < count {
            return Err(ProtocolError::Malformed("batch shorter than its count"));
        }
        let body_bytes = count * body_len;
        self.rest = &payload[body_bytes..];
        Ok(Some(ReportFrame {
            bodies: &payload[..body_bytes],
            count,
            wide: tag.is_wide(),
            tag,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Batch, Report};
    use crate::{ApproachKind, OraclePolicy};
    use bytes::BytesMut;

    const OLH_HDG: MechanismTag = MechanismTag {
        oracle: OraclePolicy::Olh,
        approach: ApproachKind::Hdg,
    };

    fn reports(n: usize) -> Vec<Report> {
        (0..n as u64)
            .map(|i| Report {
                group: (i % 3) as u32,
                seed: privmdr_util::mix64(i),
                y: privmdr_util::mix64(i ^ 7) % 4,
            })
            .collect()
    }

    #[test]
    fn batch_frame_yields_the_encoded_pairs() {
        let rs = reports(10);
        let mut buf = BytesMut::new();
        Batch::tagged(rs.clone(), OLH_HDG).encode(&mut buf);
        let mut cursor = FrameCursor::new(&buf);
        let frame = cursor.next_frame().unwrap().unwrap();
        assert_eq!(frame.count(), 10);
        assert_eq!(frame.tag(), OLH_HDG);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(
                (frame.group_at(i), frame.pair_at(i)),
                (r.group, (r.seed, r.y))
            );
        }
        assert!(cursor.next_frame().unwrap().is_none());
    }

    #[test]
    fn slice_windows_match_direct_indexing() {
        let rs = reports(9);
        let mut buf = BytesMut::new();
        Batch::tagged(rs, OLH_HDG).encode(&mut buf);
        let mut cursor = FrameCursor::new(&buf);
        let frame = cursor.next_frame().unwrap().unwrap();
        let window = frame.slice(3, 4);
        assert_eq!(window.count(), 4);
        for i in 0..4 {
            assert_eq!(window.pair_at(i), frame.pair_at(3 + i));
            assert_eq!(window.group_at(i), frame.group_at(3 + i));
        }
    }

    #[test]
    fn standalone_report_lead_bytes_are_rejected_like_the_vec_path() {
        let mut frame = BytesMut::new();
        Batch::tagged(reports(2), OLH_HDG).encode(&mut frame);
        // The retired standalone reports opened with their version byte
        // (1, 2 or 3) and ran 17, 19 or 23 bytes: neither at the start of
        // a stream nor after a batch frame are they a frame any more.
        for (lead, len) in [(1u8, 17usize), (2, 19), (3, 23)] {
            let mut report = vec![0u8; len];
            report[0] = lead;
            let mut after = frame.clone();
            after.extend_from_slice(&report);
            for stream in [&report[..], &after[..]] {
                let want = Batch::decode_stream_tagged(stream).unwrap_err();
                assert_eq!(want, ProtocolError::Malformed("not a batch frame"));
                let mut cursor = FrameCursor::new(stream);
                if stream.len() > len {
                    assert_eq!(cursor.next_frame().unwrap().unwrap().count(), 2);
                }
                assert_eq!(cursor.next_frame().unwrap_err(), want, "lead {lead}");
                assert_eq!(cursor.remaining(), len);
            }
        }
    }

    #[test]
    fn truncated_and_garbage_inputs_error_without_consuming() {
        let rs = reports(5);
        let mut buf = BytesMut::new();
        Batch::tagged(rs, OLH_HDG).encode(&mut buf);
        for cut in 1..buf.len() {
            let mut cursor = FrameCursor::new(&buf[..cut]);
            let before = cursor.remaining();
            assert!(cursor.next_frame().is_err(), "cut={cut}");
            assert_eq!(cursor.remaining(), before, "cut={cut} consumed bytes");
        }
        let mut garbage = FrameCursor::new(&[0x42, 0, 0, 0]);
        assert!(garbage.next_frame().is_err());
    }
}
