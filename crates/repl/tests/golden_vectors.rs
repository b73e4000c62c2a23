//! Byte-exact known-answer vectors for every replication message, bare
//! and inside the frame envelope. `wire_proptest` shows the codec is
//! self-consistent; these show it is *this* format.

use aion_server::protocol::write_frame;
use repl::{decode_msg, encode_msg, ReplMsg};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn check(msg: &ReplMsg, want: &str) {
    let bytes = encode_msg(msg);
    assert_eq!(hex(&bytes), want, "encoding of {msg:?}");
    assert_eq!(&decode_msg(&bytes).unwrap(), msg);
}

#[test]
fn every_message_variant() {
    check(
        &ReplMsg::Hello {
            start_offset: 0x0102,
            chain: 0x0506,
            latest_ts: 77,
            epoch: 3,
        },
        "10020100000000000006050000000000004d000000000000000300000000000000",
    );
    check(
        &ReplMsg::HelloAck {
            resume_offset: 0x0102,
            chain: 0x0506,
            epoch: 4,
            epoch_base_ts: 70,
            fence_ts: u64::MAX,
        },
        "1102010000000000000605000000000000040000000000000046000000000000\
         00ffffffffffffffff",
    );
    check(
        &ReplMsg::Frame {
            offset: 16,
            epoch: 4,
            payload: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00],
        },
        "121000000000000000040000000000000005000000deadbeef00",
    );
    check(
        &ReplMsg::Ack { offset: 29, ts: 78 },
        "131d000000000000004e00000000000000",
    );
    check(&ReplMsg::Heartbeat { epoch: 4 }, "140400000000000000");
}

#[test]
fn framed_ack() {
    let mut framed = Vec::new();
    write_frame(
        &mut framed,
        &encode_msg(&ReplMsg::Ack { offset: 29, ts: 78 }),
    )
    .unwrap();
    assert_eq!(
        hex(&framed),
        "11000000116f7358ed27098a131d000000000000004e00000000000000",
        "u32 len | u64 fnv64 | payload"
    );
    // The envelope's checksum is `vfs::fnv64`, the one `repl`'s on-disk
    // records use too.
    assert_eq!(
        framed[4..12],
        vfs::fnv64(&framed[12..]).to_le_bytes(),
        "envelope checksum == vfs::fnv64(payload)"
    );
}
