//! Property tests of the wire codec: every frame variant — all seven
//! protocol packets, the API control frames — round-trips exactly through
//! encode/decode, and no byte string, however hostile, makes the decoder
//! panic.

use bneck_core::packet::{Packet, ResponseKind};
use bneck_maxmin::{RateLimit, SessionId};
use bneck_net::LinkId;
use bneck_node::codec::{
    decode_frame, decode_payload, encode_frame, DecodeError, NodeTarget, WireFrame, LEN_PREFIX,
};
use proptest::prelude::*;

/// Builds one of the seven protocol packets from drawn raw material.
fn packet(
    tag: u8,
    session: u64,
    rate: f64,
    unlimited: bool,
    link: u32,
    kind: u8,
    found: bool,
) -> Packet {
    let session = SessionId(session);
    let restricting = LinkId(link);
    let rate = if unlimited { f64::INFINITY } else { rate };
    match tag % 7 {
        0 => Packet::Join {
            session,
            rate,
            restricting,
        },
        1 => Packet::Probe {
            session,
            rate,
            restricting,
        },
        2 => Packet::Response {
            session,
            kind: match kind % 3 {
                0 => ResponseKind::Response,
                1 => ResponseKind::Update,
                _ => ResponseKind::Bottleneck,
            },
            rate,
            restricting,
        },
        3 => Packet::Update { session },
        4 => Packet::Bottleneck { session },
        5 => Packet::SetBottleneck { session, found },
        _ => Packet::Leave { session },
    }
}

/// Builds one of the three wire targets from drawn raw material.
fn target(tag: u8, link: u32, hop: u32, slot: u32) -> NodeTarget {
    match tag % 3 {
        0 => NodeTarget::Source(slot),
        1 => NodeTarget::Link {
            link: LinkId(link),
            hop,
            slot,
        },
        _ => NodeTarget::Destination(slot),
    }
}

/// Builds any frame variant from drawn raw material. Draws 0–4 stand for the
/// codec's live frame tags 0 and 3–6; the packet/target material is reused
/// across variants.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per drawn strategy value; a struct would only restate the strategy tuple"
)]
fn frame(
    ftag: u8,
    ttag: u8,
    ptag: u8,
    session: u64,
    rate: f64,
    unlimited: bool,
    link: u32,
    hop: u32,
    slot: u32,
    kind: u8,
    found: bool,
) -> WireFrame {
    let to = target(ttag, link, hop, slot);
    let pkt = packet(ptag, session, rate, unlimited, link, kind, found);
    let limit = if unlimited {
        RateLimit::unlimited()
    } else {
        RateLimit::finite(rate)
    };
    match ftag % 5 {
        0 => WireFrame::Packet { to, packet: pkt },
        1 => WireFrame::Join { slot, limit },
        2 => WireFrame::Leave { slot },
        3 => WireFrame::Change { slot, limit },
        _ => WireFrame::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Exact round-trip of every frame variant, covering all seven packet
    /// kinds, all three targets, all three response kinds and both rate-limit
    /// shapes (draws are uniform over the tag spaces, so 2048 cases visit
    /// every combination many times).
    #[test]
    fn every_frame_variant_round_trips_exactly(
        from in 0u16..u16::MAX,
        (ftag, ttag, ptag, kind) in (0u8..5, 0u8..3, 0u8..7, 0u8..3),
        (session, link, hop) in (0u64..u64::MAX, 0u32..u32::MAX, 0u32..64),
        slot in 0u32..u32::MAX,
        rate in 0.001f64..1.0e18,
        unlimited in proptest::bool::ANY,
        found in proptest::bool::ANY,
    ) {
        let original = frame(
            ftag, ttag, ptag, session, rate, unlimited, link, hop, slot, kind, found,
        );
        let mut wire = Vec::new();
        let appended = encode_frame(from, &original, &mut wire);
        prop_assert_eq!(appended, wire.len());
        let (got_from, got, consumed) = match decode_frame(&wire) {
            Ok(Some(decoded)) => decoded,
            other => return Err(TestCaseError::Fail(format!("decode failed: {other:?}"))),
        };
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(got_from, from);
        prop_assert_eq!(got, original);
        // Re-encoding the decoded frame must reproduce the bytes bit for bit
        // (the format has a single canonical encoding per value).
        let mut again = Vec::new();
        encode_frame(got_from, &got, &mut again);
        prop_assert_eq!(again, wire);
    }

    /// Truncating a valid frame at any point yields `Ok(None)` (whole-frame
    /// boundary not reached) or a typed error at the payload level — never a
    /// panic, never a bogus success.
    #[test]
    fn truncations_of_valid_frames_never_panic(
        (ftag, ttag, ptag) in (0u8..5, 0u8..3, 0u8..7),
        (session, link) in (0u64..u64::MAX, 0u32..u32::MAX),
        rate in 0.001f64..1.0e18,
        cut_seed in 0u32..u32::MAX,
    ) {
        let original = frame(ftag, ttag, ptag, session, rate, false, link, 3, 7, 1, true);
        let mut wire = Vec::new();
        encode_frame(9, &original, &mut wire);
        let cut = cut_seed as usize % wire.len();
        // A prefix of the whole frame: incomplete, the decoder asks for more.
        prop_assert_eq!(decode_frame(&wire[..cut]).ok(), Some(None));
        // A truncated payload handed directly to the payload decoder errors.
        if cut >= LEN_PREFIX {
            let err = decode_payload(&wire[LEN_PREFIX..cut]);
            prop_assert!(err.is_err(), "payload cut at {} decoded: {:?}", cut, err);
        }
    }

    /// Arbitrary garbage never panics the decoder: it either fails with a
    /// typed error, reports an incomplete frame, or (if it happens to spell
    /// a valid frame) decodes into something that re-encodes cleanly.
    #[test]
    fn garbage_bytes_never_panic(bytes in prop::collection::vec(0u8..255, 0..64)) {
        match decode_frame(&bytes) {
            Ok(Some((from, frame, consumed))) => {
                prop_assert!(consumed <= bytes.len());
                let mut again = Vec::new();
                encode_frame(from, &frame, &mut again);
                prop_assert_eq!(&again[..], &bytes[..consumed]);
            }
            Ok(None) => {}
            Err(e) => {
                // Errors must format cleanly too (Display is total).
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Flipping any single byte of a valid frame never panics; if it still
    /// decodes, the result is a structurally valid frame.
    #[test]
    fn single_byte_corruption_never_panics(
        (ftag, ttag, ptag) in (0u8..5, 0u8..3, 0u8..7),
        session in 0u64..u64::MAX,
        rate in 0.001f64..1.0e18,
        (pos_seed, xor) in (0u32..u32::MAX, 1u8..255),
    ) {
        let original = frame(ftag, ttag, ptag, session, rate, false, 5, 2, 4, 0, false);
        let mut wire = Vec::new();
        encode_frame(3, &original, &mut wire);
        let pos = pos_seed as usize % wire.len();
        wire[pos] ^= xor;
        if let Ok(Some((_, frame, _))) = decode_frame(&wire) {
            let mut again = Vec::new();
            encode_frame(0, &frame, &mut again);
            prop_assert!(!again.is_empty());
        }
    }
}

/// The `DecodeError` classification is stable for the canonical hostile
/// shapes (regression pin, not a property).
#[test]
fn decode_error_classification_is_stable() {
    // Empty payload: truncated at the version byte.
    assert_eq!(
        decode_payload(&[]),
        Err(DecodeError::Truncated { offset: 0 })
    );
    // Future version.
    assert_eq!(
        decode_payload(&[99, 0, 0, 6]),
        Err(DecodeError::UnsupportedVersion(99))
    );
    // Unknown frame tag.
    assert_eq!(
        decode_payload(&[1, 0, 0, 42]),
        Err(DecodeError::UnknownFrameTag(42))
    );
    // The retired sequenced-packet (1) and ack (2) tags are unknown, never
    // misread as another frame, whatever body follows them.
    for tag in [1, 2] {
        assert_eq!(
            decode_payload(&[1, 0, 0, tag]),
            Err(DecodeError::UnknownFrameTag(tag))
        );
        let mut payload = vec![1, 0, 0, tag];
        payload.extend_from_slice(&[0; 24]);
        assert_eq!(
            decode_payload(&payload),
            Err(DecodeError::UnknownFrameTag(tag))
        );
    }
}
