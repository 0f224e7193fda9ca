//! The wire codec: a compact, versioned binary format for everything that
//! crosses a node boundary.
//!
//! A frame on the wire is a 4-byte little-endian length prefix followed by a
//! payload of exactly that many bytes:
//!
//! ```text
//! [len: u32 LE] [version: u8] [from: u16 LE] [tag: u8] [body...]
//! ```
//!
//! `from` is the index of the sending node (the coordinator uses the index
//! one past the last node). The tag selects a [`WireFrame`] variant; the body
//! is a fixed-width field sequence — `u32`/`u64` little-endian for
//! identifiers, IEEE-754 bit patterns for rates (so every value, including
//! infinities, round-trips exactly), one byte for enums and booleans.
//!
//! Tags 1 and 2 are retired: they carried a sequenced-packet and an ack
//! frame that no build sends any more. They are never reused, so such a
//! frame decodes to [`DecodeError::UnknownFrameTag`] and is never misread,
//! and the format keeps its version.
//!
//! Decoding is total: [`decode_frame`] returns a typed [`DecodeError`] for
//! truncated, oversized, trailing-garbage or out-of-range input and never
//! panics. The only semantic validation is on [`RateLimit`] fields, whose
//! constructor rejects non-finite or non-positive demands; the codec checks
//! the range itself and reports [`DecodeError::InvalidRateLimit`] instead of
//! letting the constructor panic on hostile bytes.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use bneck_core::packet::{Packet, ResponseKind};
use bneck_maxmin::{RateLimit, SessionId};
use bneck_net::LinkId;
use std::fmt;

/// The receiving task of a routed frame: the task host's own target type, so
/// a decoded frame is delivered without translation.
pub use bneck_core::Target as NodeTarget;

/// The only wire format version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame payload. The largest legitimate payload (a
/// `Packet` frame carrying a `Response`) is under 64 bytes; anything bigger
/// is garbage and is rejected before any allocation happens.
pub const MAX_FRAME_LEN: usize = 1024;

/// Bytes of the length prefix in front of every frame payload.
pub const LEN_PREFIX: usize = 4;

/// Everything that travels between nodes, one enum variant per frame tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFrame {
    /// A protocol packet routed directly to a task.
    Packet {
        /// The receiving task.
        to: NodeTarget,
        /// The protocol packet.
        packet: Packet,
    },
    /// Coordinator → node: issue `API.Join` on the slot's source task.
    Join {
        /// The session slot to join.
        slot: u32,
        /// The application's demand limit.
        limit: RateLimit,
    },
    /// Coordinator → node: issue `API.Leave` on the slot's source task.
    Leave {
        /// The session slot to leave.
        slot: u32,
    },
    /// Coordinator → node: issue `API.Change` on the slot's source task.
    Change {
        /// The session slot whose demand changes.
        slot: u32,
        /// The new demand limit.
        limit: RateLimit,
    },
    /// Coordinator → node: drain and exit the node's event loop.
    Shutdown,
}

/// Why a frame failed to decode. Every variant is a property of the bytes,
/// never a panic: hostile input degrades to an error value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the field at `offset` could be read.
    Truncated {
        /// Byte offset where more input was needed.
        offset: usize,
    },
    /// The length prefix claims more than [`MAX_FRAME_LEN`] bytes.
    FrameTooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// The version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The frame tag byte matches no [`WireFrame`] variant.
    UnknownFrameTag(u8),
    /// The packet tag byte matches no [`Packet`] variant.
    UnknownPacketTag(u8),
    /// The target tag byte matches no [`NodeTarget`] variant.
    UnknownTargetTag(u8),
    /// The response-kind byte matches no [`ResponseKind`] variant.
    UnknownResponseKind(u8),
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// A [`RateLimit`] field is neither `+inf` (unlimited) nor a finite
    /// positive demand. Carries the raw bit pattern (bits, not an `f64`, so
    /// the error type stays `Eq` even for NaN payloads).
    InvalidRateLimit {
        /// The offending IEEE-754 bit pattern.
        bits: u64,
    },
    /// The payload had `extra` bytes left over after a complete frame.
    TrailingBytes {
        /// Number of undecoded trailing bytes.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated { offset } => {
                write!(f, "frame truncated at byte {offset}")
            }
            DecodeError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            DecodeError::UnknownFrameTag(t) => write!(f, "unknown frame tag {t}"),
            DecodeError::UnknownPacketTag(t) => write!(f, "unknown packet tag {t}"),
            DecodeError::UnknownTargetTag(t) => write!(f, "unknown target tag {t}"),
            DecodeError::UnknownResponseKind(t) => write!(f, "unknown response kind {t}"),
            DecodeError::BadBool(b) => write!(f, "boolean field holds {b}"),
            DecodeError::InvalidRateLimit { bits } => {
                write!(
                    f,
                    "rate limit bits {bits:#018x} are neither +inf nor finite positive"
                )
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes `frame` from node `from` as one length-prefixed wire frame,
/// appended to `out`. Returns the number of bytes appended.
pub fn encode_frame(from: u16, frame: &WireFrame, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]); // length prefix, patched below
    out.push(WIRE_VERSION);
    out.extend_from_slice(&from.to_le_bytes());
    match *frame {
        WireFrame::Packet { to, ref packet } => {
            out.push(0);
            put_target(out, to);
            put_packet(out, packet);
        }
        WireFrame::Join { slot, limit } => {
            out.push(3);
            put_u32(out, slot);
            put_f64(out, limit.as_bps());
        }
        WireFrame::Leave { slot } => {
            out.push(4);
            put_u32(out, slot);
        }
        WireFrame::Change { slot, limit } => {
            out.push(5);
            put_u32(out, slot);
            put_f64(out, limit.as_bps());
        }
        WireFrame::Shutdown => out.push(6),
    }
    let payload = out.len() - start - LEN_PREFIX;
    debug_assert!(payload <= MAX_FRAME_LEN, "own frames fit the cap");
    out[start..start + LEN_PREFIX].copy_from_slice(&(payload as u32).to_le_bytes());
    out.len() - start
}

/// Decodes one length-prefixed frame from the front of `bytes`.
///
/// Returns `Ok(None)` when `bytes` holds only an incomplete frame (more
/// input is needed), or `Ok(Some((from, frame, consumed)))` with the total
/// bytes consumed including the prefix. Never panics on malformed input.
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(u16, WireFrame, usize)>, DecodeError> {
    if bytes.len() < LEN_PREFIX {
        return Ok(None);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge { len });
    }
    if bytes.len() < LEN_PREFIX + len {
        return Ok(None);
    }
    let (from, frame) = decode_payload(&bytes[LEN_PREFIX..LEN_PREFIX + len])?;
    Ok(Some((from, frame, LEN_PREFIX + len)))
}

/// Decodes a frame payload (everything after the length prefix). The whole
/// slice must be exactly one frame; trailing bytes are an error.
pub fn decode_payload(payload: &[u8]) -> Result<(u16, WireFrame), DecodeError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let from = r.u16()?;
    let tag = r.u8()?;
    let frame = match tag {
        0 => WireFrame::Packet {
            to: r.target()?,
            packet: r.packet()?,
        },
        3 => WireFrame::Join {
            slot: r.u32()?,
            limit: r.rate_limit()?,
        },
        4 => WireFrame::Leave { slot: r.u32()? },
        5 => WireFrame::Change {
            slot: r.u32()?,
            limit: r.rate_limit()?,
        },
        6 => WireFrame::Shutdown,
        other => return Err(DecodeError::UnknownFrameTag(other)),
    };
    r.finish()?;
    Ok((from, frame))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_target(out: &mut Vec<u8>, to: NodeTarget) {
    match to {
        NodeTarget::Source(slot) => {
            out.push(0);
            put_u32(out, slot);
        }
        NodeTarget::Link { link, hop, slot } => {
            out.push(1);
            put_u32(out, link.index() as u32);
            put_u32(out, hop);
            put_u32(out, slot);
        }
        NodeTarget::Destination(slot) => {
            out.push(2);
            put_u32(out, slot);
        }
    }
}

fn put_packet(out: &mut Vec<u8>, packet: &Packet) {
    match *packet {
        Packet::Join {
            session,
            rate,
            restricting,
        } => {
            out.push(0);
            put_u64(out, session.0);
            put_f64(out, rate);
            put_u32(out, restricting.index() as u32);
        }
        Packet::Probe {
            session,
            rate,
            restricting,
        } => {
            out.push(1);
            put_u64(out, session.0);
            put_f64(out, rate);
            put_u32(out, restricting.index() as u32);
        }
        Packet::Response {
            session,
            kind,
            rate,
            restricting,
        } => {
            out.push(2);
            put_u64(out, session.0);
            out.push(match kind {
                ResponseKind::Response => 0,
                ResponseKind::Update => 1,
                ResponseKind::Bottleneck => 2,
            });
            put_f64(out, rate);
            put_u32(out, restricting.index() as u32);
        }
        Packet::Update { session } => {
            out.push(3);
            put_u64(out, session.0);
        }
        Packet::Bottleneck { session } => {
            out.push(4);
            put_u64(out, session.0);
        }
        Packet::SetBottleneck { session, found } => {
            out.push(5);
            put_u64(out, session.0);
            out.push(found as u8);
        }
        Packet::Leave { session } => {
            out.push(6);
            put_u64(out, session.0);
        }
    }
}

/// A bounds-checked little-endian reader over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.bytes.len() - self.pos < n {
            return Err(DecodeError::Truncated { offset: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::BadBool(other)),
        }
    }

    fn rate_limit(&mut self) -> Result<RateLimit, DecodeError> {
        let bps = self.f64()?;
        if bps == f64::INFINITY {
            Ok(RateLimit::unlimited())
        } else if bps.is_finite() && bps > 0.0 {
            Ok(RateLimit::finite(bps))
        } else {
            Err(DecodeError::InvalidRateLimit {
                bits: bps.to_bits(),
            })
        }
    }

    fn target(&mut self) -> Result<NodeTarget, DecodeError> {
        match self.u8()? {
            0 => Ok(NodeTarget::Source(self.u32()?)),
            1 => Ok(NodeTarget::Link {
                link: LinkId(self.u32()?),
                hop: self.u32()?,
                slot: self.u32()?,
            }),
            2 => Ok(NodeTarget::Destination(self.u32()?)),
            other => Err(DecodeError::UnknownTargetTag(other)),
        }
    }

    fn packet(&mut self) -> Result<Packet, DecodeError> {
        match self.u8()? {
            0 => Ok(Packet::Join {
                session: SessionId(self.u64()?),
                rate: self.f64()?,
                restricting: LinkId(self.u32()?),
            }),
            1 => Ok(Packet::Probe {
                session: SessionId(self.u64()?),
                rate: self.f64()?,
                restricting: LinkId(self.u32()?),
            }),
            2 => Ok(Packet::Response {
                session: SessionId(self.u64()?),
                kind: match self.u8()? {
                    0 => ResponseKind::Response,
                    1 => ResponseKind::Update,
                    2 => ResponseKind::Bottleneck,
                    other => return Err(DecodeError::UnknownResponseKind(other)),
                },
                rate: self.f64()?,
                restricting: LinkId(self.u32()?),
            }),
            3 => Ok(Packet::Update {
                session: SessionId(self.u64()?),
            }),
            4 => Ok(Packet::Bottleneck {
                session: SessionId(self.u64()?),
            }),
            5 => Ok(Packet::SetBottleneck {
                session: SessionId(self.u64()?),
                found: self.boolean()?,
            }),
            6 => Ok(Packet::Leave {
                session: SessionId(self.u64()?),
            }),
            other => Err(DecodeError::UnknownPacketTag(other)),
        }
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                extra: self.bytes.len() - self.pos,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(from: u16, frame: WireFrame) {
        let mut wire = Vec::new();
        let n = encode_frame(from, &frame, &mut wire);
        assert_eq!(n, wire.len());
        let (got_from, got, consumed) = decode_frame(&wire).unwrap().expect("complete frame");
        assert_eq!(consumed, wire.len());
        assert_eq!(got_from, from);
        assert_eq!(got, frame);
    }

    fn sample_frames() -> Vec<WireFrame> {
        let to = NodeTarget::Link {
            link: LinkId(7),
            hop: 2,
            slot: 41,
        };
        vec![
            WireFrame::Packet {
                to: NodeTarget::Source(3),
                packet: Packet::Update {
                    session: SessionId(9),
                },
            },
            WireFrame::Packet {
                to,
                packet: Packet::Response {
                    session: SessionId(u64::MAX),
                    kind: ResponseKind::Bottleneck,
                    rate: 12.5e9,
                    restricting: LinkId(u32::MAX),
                },
            },
            WireFrame::Packet {
                to: NodeTarget::Destination(0),
                packet: Packet::Join {
                    session: SessionId(1),
                    rate: f64::INFINITY,
                    restricting: LinkId(0),
                },
            },
            WireFrame::Join {
                slot: 12,
                limit: RateLimit::unlimited(),
            },
            WireFrame::Join {
                slot: 12,
                limit: RateLimit::finite(5e6),
            },
            WireFrame::Leave { slot: 0 },
            WireFrame::Change {
                slot: 9,
                limit: RateLimit::finite(1.0),
            },
            WireFrame::Shutdown,
        ]
    }

    #[test]
    fn every_sample_frame_round_trips() {
        for (i, frame) in sample_frames().into_iter().enumerate() {
            roundtrip(i as u16, frame);
        }
    }

    #[test]
    fn incomplete_input_asks_for_more() {
        let mut wire = Vec::new();
        encode_frame(4, &WireFrame::Shutdown, &mut wire);
        for cut in 0..wire.len() {
            assert_eq!(decode_frame(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn every_truncated_payload_errors_not_panics() {
        for frame in sample_frames() {
            let mut wire = Vec::new();
            encode_frame(0, &frame, &mut wire);
            let payload = &wire[LEN_PREFIX..];
            for cut in 0..payload.len() {
                let err = decode_payload(&payload[..cut]).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated { .. }),
                    "cut at {cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut wire = Vec::new();
        encode_frame(0, &WireFrame::Leave { slot: 1 }, &mut wire);
        wire.push(0xAB);
        let err = decode_payload(&wire[LEN_PREFIX..]).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes { extra: 1 });
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            DecodeError::FrameTooLarge {
                len: MAX_FRAME_LEN + 1
            }
        );
    }

    #[test]
    fn wrong_version_and_bad_tags_are_typed_errors() {
        let mut wire = Vec::new();
        encode_frame(0, &WireFrame::Shutdown, &mut wire);
        let mut wrong_version = wire.clone();
        wrong_version[LEN_PREFIX] = WIRE_VERSION + 1;
        assert_eq!(
            decode_payload(&wrong_version[LEN_PREFIX..]).unwrap_err(),
            DecodeError::UnsupportedVersion(WIRE_VERSION + 1)
        );
        let mut bad_tag = wire.clone();
        bad_tag[LEN_PREFIX + 3] = 200;
        assert_eq!(
            decode_payload(&bad_tag[LEN_PREFIX..]).unwrap_err(),
            DecodeError::UnknownFrameTag(200)
        );
    }

    #[test]
    fn hostile_rate_limit_bits_error_instead_of_panicking() {
        for bps in [0.0, -1.0, f64::NEG_INFINITY, f64::NAN] {
            let mut wire = Vec::new();
            wire.push(WIRE_VERSION);
            wire.extend_from_slice(&0u16.to_le_bytes());
            wire.push(3); // Join
            wire.extend_from_slice(&7u32.to_le_bytes());
            wire.extend_from_slice(&bps.to_bits().to_le_bytes());
            assert_eq!(
                decode_payload(&wire).unwrap_err(),
                DecodeError::InvalidRateLimit {
                    bits: bps.to_bits()
                }
            );
        }
    }
}
