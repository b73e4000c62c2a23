//! Byte-exact known-answer vectors for the client protocol. Round-trip
//! tests pass for any self-consistent format; these pin the bytes, so a
//! codec rewrite that moves a single bit fails here. The framed vector
//! also pins `protocol`'s private FNV-1a-64 (the frame checksum); its
//! equality with `vfs::fnv64` is checked in `crates/repl/tests/golden_vectors.rs`.

use aion_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, Request, Response, WireError,
};
use obs::{HistogramSnapshot, MetricsSnapshot};
use query::{QueryResult, Value};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn check_request(req: &Request, want: &str) {
    let bytes = encode_request(req);
    assert_eq!(hex(&bytes), want, "encoding of {req:?}");
    assert_eq!(&decode_request(&bytes).unwrap(), req);
}

fn check_response(resp: &Response, want: &str) {
    let bytes = encode_response(resp);
    assert_eq!(hex(&bytes), want, "encoding of {resp:?}");
    assert_eq!(&decode_response(&bytes).unwrap(), resp);
}

fn run_request() -> Request {
    Request::Run {
        query: "MATCH (n) WHERE id(n) = $id RETURN n".into(),
        params: vec![
            ("id".into(), Value::Int(42)),
            ("tag".into(), Value::Str("x".into())),
        ],
        min_watermark: 9_001,
        page_size: 64,
        cursor: Some(vec![0xA1, 0x0C, 0x01, 0x02]),
    }
}

const RUN_PAYLOAD: &str = "01240000004d4154434820286e29205748455245206964286e29203d20246964\
    2052455455524e206e0200020000006964022a00000000000000030000007461\
    670401000000782923000000000000400000000104000000a10c0102";

#[test]
fn framed_run_with_two_params_and_a_cursor() {
    check_request(&run_request(), RUN_PAYLOAD);
    let mut framed = Vec::new();
    write_frame(&mut framed, &encode_request(&run_request())).unwrap();
    assert_eq!(
        hex(&framed),
        format!("5c000000033ae524cf15fe07{RUN_PAYLOAD}"),
        "u32 len | u64 fnv64(payload) | payload"
    );
    assert_eq!(
        read_frame(&mut framed.as_slice()).unwrap(),
        encode_request(&run_request())
    );
}

#[test]
fn unit_requests() {
    check_request(&Request::Ping, "02");
    check_request(&Request::Shutdown, "03");
    check_request(&Request::Metrics, "04");
    check_request(&Request::Promote, "06");
    check_request(&Request::Status, "07");
}

#[test]
fn run_batch() {
    check_request(
        &Request::RunBatch {
            statements: vec![
                (
                    "CREATE (n {id: $id})".into(),
                    vec![("id".into(), Value::Bool(true))],
                ),
                ("MATCH (n) RETURN n".into(), vec![]),
            ],
            min_watermark: 42,
        },
        "05020000001400000043524541544520286e207b69643a202469647d29010002\
         00000069640101120000004d4154434820286e292052455455524e206e00002a\
         00000000000000",
    );
}

#[test]
fn ok_with_node_rel_and_nested_list() {
    check_response(
        &Response::Ok {
            result: QueryResult {
                columns: vec!["n".into(), "r".into(), "l".into()],
                rows: vec![vec![
                    Value::Node {
                        id: 3,
                        labels: vec!["Person".into()],
                        props: vec![
                            ("age".into(), Value::Int(30)),
                            ("ok".into(), Value::Bool(true)),
                        ],
                        valid: Some((1, 9)),
                    },
                    Value::Rel {
                        id: 7,
                        src: 3,
                        tgt: 4,
                        rel_type: Some("KNOWS".into()),
                        props: vec![("w".into(), Value::Float(0.5))],
                        valid: None,
                    },
                    Value::List(vec![Value::Null, Value::List(vec![Value::Int(-1)])]),
                ]],
            },
            watermark: 17,
            cursor: Some(vec![1, 2, 3]),
        },
        "000300010000006e0100000072010000006c0100000005030000000000000001\
         0006000000506572736f6e020003000000616765021e00000000000000020000\
         006f6b0101010100000000000000090000000000000006070000000000000003\
         00000000000000040000000000000001050000004b4e4f575301000100000077\
         03000000000000e03f00070200000000070100000002ffffffffffffffff1100\
         0000000000000103000000010203",
    );
}

#[test]
fn err() {
    check_response(
        &Response::Err(WireError::new(ErrorCode::StaleReplica, "behind")),
        "010406000000626568696e64",
    );
}

#[test]
fn batch_mixing_ok_and_err() {
    check_response(
        &Response::Batch {
            results: vec![
                Ok(QueryResult {
                    columns: vec!["n".into()],
                    rows: vec![vec![Value::Int(7)]],
                }),
                Err(WireError::new(ErrorCode::Timeout, "deadline")),
                Ok(QueryResult {
                    columns: vec![],
                    rows: vec![],
                }),
            ],
            watermark: 99,
        },
        "0303000000000100010000006e01000000020700000000000000010108000000\
         646561646c696e65000000000000006300000000000000",
    );
}

#[test]
fn metrics() {
    check_response(
        &Response::Metrics(MetricsSnapshot {
            counters: vec![("pagestore.cache.hits".into(), 17)],
            gauges: vec![("queue.depth".into(), -3)],
            histograms: vec![HistogramSnapshot {
                name: "core.commit.latency_ns".into(),
                count: 5,
                sum: 1000,
                p50: 128,
                p95: 512,
                p99: 513,
            }],
        }),
        "0201000000140000007061676573746f72652e63616368652e68697473110000\
         0000000000010000000b00000071756575652e6465707468fdffffffffffffff\
         0100000016000000636f72652e636f6d6d69742e6c6174656e63795f6e730500\
         000000000000e803000000000000800000000000000000020000000000000102\
         000000000000",
    );
}

#[test]
fn status() {
    check_response(
        &Response::Status {
            epoch: 7,
            read_only: true,
            fenced: false,
            latest_ts: 1234,
        },
        "0407000000000000000100d204000000000000",
    );
}
