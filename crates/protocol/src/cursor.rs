//! Zero-copy wire-frame cursor: borrow `(seed, y)` pairs straight out of
//! an ingest buffer.
//!
//! [`wire::decode_any_stream_tagged`] materializes every report into a
//! `Vec<Report>` before the collector partitions it by group — at 10⁶
//! reports that is a second full-stream write and re-read for no semantic
//! gain, since the batch bodies are already fixed-stride little-endian
//! records. [`FrameCursor`] walks the same frames with the same validation
//! (same checks, same error values, same order) but *borrows*: each
//! [`ReportFrame`] it yields is a window over the caller's buffer, and the
//! collector reads groups and `(seed, y)` pairs directly from those bytes
//! into the partition pass and the support kernel. It is the collectors'
//! only wire-ingest path. The owning decoders in `wire` stay as the
//! independent reference the equivalence suite (`tests/cursor_prop.rs`)
//! pins this module against: both must accept exactly the same streams,
//! reject exactly the same garbage, and produce bit-identical collector
//! state.

use crate::wire::{self, approach_from_wire_byte, oracle_from_wire_byte, MechanismTag};
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
/// payload of one [`wire::Batch`] frame (or a single standalone report),
/// with the frame header already checked and stripped. Accessors decode
/// fields on the fly from the fixed-stride little-endian bodies — nothing
/// is materialized.
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

    /// The frame's mechanism tag (untagged v1 frames imply the default).
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

/// How the cursor resolves the framing of the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// Undecided: commit on the first frame's leading byte, exactly like
    /// [`wire::decode_any_stream_tagged`] (a batch-framed stream then
    /// rejects standalone reports and vice versa).
    Auto,
    /// Re-detect per frame — the streaming epoch path's semantics
    /// ([`crate::stream::EpochCollector::ingest_stream_epochs`] accepts
    /// interleaved framings).
    PerFrame,
    /// Committed to length-prefixed [`wire::Batch`] frames.
    Batches,
    /// Committed to concatenated standalone reports.
    Reports,
}

/// A borrowing frame walker over a contiguous wire buffer. Performs the
/// same validation as the `wire` decoders — header presence, batch tag,
/// version, mechanism discriminants, tag/width agreement, and the
/// division-based count-vs-payload check, in the same order with the same
/// error values — but yields borrowed [`ReportFrame`] windows instead of
/// allocating `Vec<Report>`. Never panics on truncated or garbage input.
#[derive(Debug)]
pub struct FrameCursor<'a> {
    rest: &'a [u8],
    framing: Framing,
}

impl<'a> FrameCursor<'a> {
    /// A cursor with one-shot stream semantics: the first frame's leading
    /// byte commits the whole stream to batch framing or standalone
    /// reports, mirroring [`wire::decode_any_stream_tagged`].
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameCursor {
            rest: bytes,
            framing: Framing::Auto,
        }
    }

    /// A cursor with streaming semantics: framing is re-detected per
    /// frame, mirroring the epoch collector's frame-by-frame loop.
    pub fn mixed(bytes: &'a [u8]) -> Self {
        FrameCursor {
            rest: bytes,
            framing: Framing::PerFrame,
        }
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
        if self.rest.is_empty() {
            return Ok(None);
        }
        let leads_batch = self.rest[0] == wire::BATCH_TAG;
        let as_batch = match self.framing {
            Framing::Auto => {
                self.framing = if leads_batch {
                    Framing::Batches
                } else {
                    Framing::Reports
                };
                leads_batch
            }
            Framing::PerFrame => leads_batch,
            Framing::Batches => true,
            Framing::Reports => false,
        };
        if as_batch {
            self.next_batch_frame().map(Some)
        } else {
            self.next_report_frame().map(Some)
        }
    }

    /// Mirrors [`wire::Batch::decode`] without materializing the reports.
    fn next_batch_frame(&mut self) -> Result<ReportFrame<'a>, ProtocolError> {
        let b = self.rest;
        if b.len() < wire::BATCH_HEADER_LEN {
            return Err(ProtocolError::Malformed("truncated batch header"));
        }
        if b[0] != wire::BATCH_TAG {
            return Err(ProtocolError::Malformed("not a batch frame"));
        }
        let version = b[1];
        let (tag, wide, header_len) = match version {
            wire::WIRE_VERSION => (MechanismTag::DEFAULT, false, wire::BATCH_HEADER_LEN),
            wire::WIRE_VERSION_TAGGED | wire::WIRE_VERSION_WIDE => {
                if b.len() < wire::TAGGED_BATCH_HEADER_LEN {
                    return Err(ProtocolError::Malformed("truncated batch header"));
                }
                let tag = MechanismTag {
                    oracle: oracle_from_wire_byte(b[2])?,
                    approach: approach_from_wire_byte(b[3])?,
                };
                match (version == wire::WIRE_VERSION_WIDE, tag.is_wide()) {
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
                (
                    tag,
                    version == wire::WIRE_VERSION_WIDE,
                    wire::TAGGED_BATCH_HEADER_LEN,
                )
            }
            _ => return Err(ProtocolError::Malformed("unsupported wire version")),
        };
        let body_len = if wide {
            wire::WIDE_REPORT_BODY_LEN
        } else {
            wire::REPORT_BODY_LEN
        };
        let count = le_u32(b, header_len - 4) as usize;
        let payload = &b[header_len..];
        // Same attacker-controlled-count rule as `Batch::decode`: validate
        // by division so a huge count cannot overflow the byte math.
        if payload.len() / body_len < count {
            return Err(ProtocolError::Malformed("batch shorter than its count"));
        }
        let body_bytes = count * body_len;
        self.rest = &payload[body_bytes..];
        Ok(ReportFrame {
            bodies: &payload[..body_bytes],
            count,
            wide,
            tag,
        })
    }

    /// Mirrors [`wire::Report::decode_with_tag`] as a one-report frame.
    fn next_report_frame(&mut self) -> Result<ReportFrame<'a>, ProtocolError> {
        let b = self.rest;
        debug_assert!(!b.is_empty(), "checked by next_frame");
        match b[0] {
            wire::WIRE_VERSION => {
                if b.len() < wire::REPORT_LEN {
                    return Err(ProtocolError::Malformed("truncated report"));
                }
                self.rest = &b[wire::REPORT_LEN..];
                Ok(ReportFrame {
                    bodies: &b[1..wire::REPORT_LEN],
                    count: 1,
                    wide: false,
                    tag: MechanismTag::DEFAULT,
                })
            }
            wire::WIRE_VERSION_TAGGED => {
                if b.len() < wire::TAGGED_REPORT_LEN {
                    return Err(ProtocolError::Malformed("truncated tagged report"));
                }
                let tag = MechanismTag {
                    oracle: oracle_from_wire_byte(b[1])?,
                    approach: approach_from_wire_byte(b[2])?,
                };
                if tag.is_wide() {
                    return Err(ProtocolError::Malformed(
                        "float-carrying oracle in a narrow frame",
                    ));
                }
                self.rest = &b[wire::TAGGED_REPORT_LEN..];
                Ok(ReportFrame {
                    bodies: &b[3..wire::TAGGED_REPORT_LEN],
                    count: 1,
                    wide: false,
                    tag,
                })
            }
            wire::WIRE_VERSION_WIDE => {
                if b.len() < wire::WIDE_REPORT_LEN {
                    return Err(ProtocolError::Malformed("truncated wide report"));
                }
                let tag = MechanismTag {
                    oracle: oracle_from_wire_byte(b[1])?,
                    approach: approach_from_wire_byte(b[2])?,
                };
                if !tag.is_wide() {
                    return Err(ProtocolError::Malformed("integer oracle in a wide frame"));
                }
                self.rest = &b[wire::WIDE_REPORT_LEN..];
                Ok(ReportFrame {
                    bodies: &b[3..wire::WIDE_REPORT_LEN],
                    count: 1,
                    wide: true,
                    tag,
                })
            }
            _ => Err(ProtocolError::Malformed("unsupported wire version")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Report;
    use bytes::BytesMut;

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
        wire::Batch::new(rs.clone()).encode(&mut buf);
        let mut cursor = FrameCursor::new(&buf);
        let frame = cursor.next_frame().unwrap().unwrap();
        assert_eq!(frame.count(), 10);
        assert_eq!(frame.tag(), MechanismTag::DEFAULT);
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
        wire::Batch::new(rs).encode(&mut buf);
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
    fn committed_framing_rejects_mixed_streams_like_the_vec_path() {
        let rs = reports(2);
        let mut buf = BytesMut::new();
        wire::Batch::new(rs.clone()).encode(&mut buf);
        rs[0].encode(&mut buf);
        // decode_any_stream_tagged commits to batch framing on the first
        // byte and then rejects the standalone report.
        assert!(wire::decode_any_stream_tagged(&buf[..]).is_err());
        let mut cursor = FrameCursor::new(&buf);
        cursor.next_frame().unwrap().unwrap();
        assert!(cursor.next_frame().is_err());
        // The per-frame cursor (epoch semantics) accepts the same stream.
        let mut mixed = FrameCursor::mixed(&buf);
        assert_eq!(mixed.next_frame().unwrap().unwrap().count(), 2);
        assert_eq!(mixed.next_frame().unwrap().unwrap().count(), 1);
        assert!(mixed.next_frame().unwrap().is_none());
    }

    #[test]
    fn truncated_and_garbage_inputs_error_without_consuming() {
        let rs = reports(5);
        let mut buf = BytesMut::new();
        wire::Batch::new(rs).encode(&mut buf);
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
