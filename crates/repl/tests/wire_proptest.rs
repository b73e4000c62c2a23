//! Property tests on the replication codec: round-trips, strict-prefix
//! rejection, trailing-byte rejection, panic freedom on garbage, and
//! checksum-flip detection in the carrying frame envelope.

use aion_server::protocol::{read_frame, write_frame};
use proptest::prelude::*;
use repl::{decode_msg, encode_msg, ReplMsg};

fn msg_strategy() -> impl Strategy<Value = ReplMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(start_offset, chain, latest_ts, epoch)| ReplMsg::Hello {
                start_offset,
                chain,
                latest_ts,
                epoch,
            }
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(resume_offset, chain, epoch, epoch_base_ts, fence_ts)| {
                ReplMsg::HelloAck {
                    resume_offset,
                    chain,
                    epoch,
                    epoch_base_ts,
                    fence_ts,
                }
            }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(offset, epoch, payload)| ReplMsg::Frame {
                offset,
                epoch,
                payload,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(offset, ts)| ReplMsg::Ack { offset, ts }),
        any::<u64>().prop_map(|epoch| ReplMsg::Heartbeat { epoch }),
    ]
}

proptest! {
    #[test]
    fn msg_roundtrips(msg in msg_strategy()) {
        let bytes = encode_msg(&msg);
        prop_assert_eq!(decode_msg(&bytes).unwrap(), msg);
    }

    /// A strict prefix of any encoding must fail to decode — truncation
    /// always lands inside a fixed-size or length-prefixed read.
    #[test]
    fn truncation_rejected(msg in msg_strategy(), cut in 0usize..64) {
        let bytes = encode_msg(&msg);
        let len = cut % bytes.len();
        prop_assert!(decode_msg(&bytes[..len]).is_err());
    }

    /// Trailing bytes are a layout disagreement, not slack to ignore.
    #[test]
    fn trailing_bytes_rejected(msg in msg_strategy(), extra in 1usize..16) {
        let mut bytes = encode_msg(&msg);
        bytes.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert!(decode_msg(&bytes).is_err());
    }

    /// Arbitrary garbage must produce `Err`, never a panic or runaway
    /// allocation (the Frame payload length is bounds-checked).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_msg(&bytes);
    }

    /// Flipping any single bit of the on-wire envelope (header or
    /// payload) is detected: the frame either fails its checksum/length
    /// check or — if the flip hit the length field and starves the
    /// reader — fails with a short read. It can never decode back to a
    /// *different* valid message.
    #[test]
    fn envelope_bit_flip_detected(msg in msg_strategy(), flip in any::<usize>()) {
        let payload = encode_msg(&msg);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let pos = flip % wire.len();
        wire[pos] ^= 1 << (pos % 8);
        // A flip inside the 4-byte length prefix *can* shrink the frame
        // to a still-valid-looking length; the checksum over the (now
        // wrong) payload slice must then catch it.
        if let Ok(recovered) = read_frame(&mut wire.as_slice()) {
            prop_assert_ne!(&recovered, &payload);
        }
        // And even if some envelope mutation slipped through, the inner
        // codec never yields a different valid message equal by luck:
        // decoding the flipped payload region either errors or differs.
        if pos >= 12 {
            let mut inner = payload.clone();
            inner[pos - 12] ^= 1 << (pos % 8);
            if let Ok(decoded) = decode_msg(&inner) {
                prop_assert_ne!(decoded, msg);
            }
        }
    }
}
