//! Property tests for the peer-channel frame codec.

use proptest::prelude::*;
use sweb_peer::{decode, encode, Frame, FrameError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};

/// Assemble one frame of variant `kind` from generated parts.
fn build(kind: u8, file: u64, mtime_ns: u64, trace: String, path: String, body: Vec<u8>) -> Frame {
    match kind % 5 {
        0 => Frame::FetchReq { file, trace, path },
        1 => Frame::FetchOk { file, mtime_ns, body },
        2 => Frame::FetchErr { code: file as u8 },
        3 => Frame::Push { file, mtime_ns, path, body },
        _ => Frame::PushOk { accepted: file & 1 == 1 },
    }
}

proptest! {
    // The payload parsers branch on the first ~20 bytes; cases are cheap.
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// What the encoder writes, the decoder reads back whole, and no
    /// strict prefix of it decodes to anything.
    #[test]
    fn round_trip_and_every_prefix_fails(
        kind in 0u8..5,
        file in any::<u64>(),
        mtime_ns in any::<u64>(),
        trace in "[ -~]{0,24}",
        path in proptest::collection::vec(any::<char>(), 0..64),
        body in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let frame = build(kind, file, mtime_ns, trace, path.into_iter().collect(), body);
        let wire = encode(&frame);
        prop_assert_eq!(decode(&wire), Ok((frame.clone(), wire.len())));
        // Bytes of the next frame behind it change nothing.
        let mut longer = wire.clone();
        longer.extend_from_slice(b"SP\x01");
        prop_assert_eq!(decode(&longer), Ok((frame, wire.len())));
        for cut in 0..wire.len() {
            prop_assert_eq!(decode(&wire[..cut]), Err(FrameError::Truncated), "prefix of {}", cut);
        }
    }

    /// Arbitrary bytes never panic, and whatever does decode is a frame
    /// the encoder maps back onto the bytes consumed.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        if let Ok((frame, used)) = decode(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(encode(&frame), &bytes[..used]);
        }
    }

    /// The same, behind a valid header so the payload parsers are reached.
    #[test]
    fn arbitrary_payloads_never_panic(
        opcode in 0u8..8,
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        undeclared in 0usize..3,
    ) {
        let declared = payload.len().saturating_sub(undeclared);
        let mut wire = vec![MAGIC[0], MAGIC[1], VERSION, opcode];
        wire.extend_from_slice(&(declared as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        match decode(&wire) {
            Ok((frame, used)) => {
                prop_assert_eq!(used, HEADER_LEN + declared);
                prop_assert_eq!(encode(&frame), &wire[..used]);
            }
            Err(e) => prop_assert!(e != FrameError::Truncated, "all declared bytes were there"),
        }
    }

    /// A declared length over the limit is refused from the header alone:
    /// no payload byte is present, so nothing can have been sized by it.
    #[test]
    fn oversized_length_is_refused_from_the_header(
        opcode in any::<u8>(),
        over in 1u32..=(u32::MAX - MAX_PAYLOAD),
    ) {
        let declared = MAX_PAYLOAD + over;
        let mut wire = vec![MAGIC[0], MAGIC[1], VERSION, opcode];
        wire.extend_from_slice(&declared.to_le_bytes());
        prop_assert_eq!(decode(&wire), Err(FrameError::Oversized(declared)));
    }
}
