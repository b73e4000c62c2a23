//! Property tests on the wire codec: round-trips, strict-prefix rejection
//! (a short read can never decode as a complete message), and panic
//! freedom on arbitrary malformed frames.

use aion_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request, Response,
    WireError,
};
use obs::{HistogramSnapshot, MetricsSnapshot};
use proptest::prelude::*;
use query::{QueryResult, Value};

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 0..12).prop_map(|v| {
        v.into_iter()
            .map(|b| char::from(b'a' + (b % 26)))
            .collect::<String>()
    })
}

fn scalar_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        name_strategy().prop_map(Value::Str),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        scalar_strategy().boxed(),
        proptest::collection::vec(scalar_strategy(), 0..4)
            .prop_map(Value::List)
            .boxed(),
        (
            any::<u64>(),
            proptest::collection::vec(name_strategy(), 0..3),
            proptest::collection::vec((name_strategy(), scalar_strategy()), 0..3),
            proptest::option::of((0u64..100, 100u64..200)),
        )
            .prop_map(|(id, labels, props, valid)| Value::Node {
                id,
                labels,
                props,
                valid,
            })
            .boxed(),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Shutdown),
        Just(Request::Metrics),
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), value_strategy()), 0..4),
            any::<u64>(),
            any::<u32>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
        )
            .prop_map(
                |(query, params, min_watermark, page_size, cursor)| Request::Run {
                    query,
                    params,
                    min_watermark,
                    page_size,
                    cursor,
                }
            ),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (name_strategy(), 0u8..4).prop_map(|(message, code)| {
            let code = match code {
                1 => ErrorCode::Timeout,
                2 => ErrorCode::Overloaded,
                3 => ErrorCode::ShuttingDown,
                _ => ErrorCode::Generic,
            };
            Response::Err(WireError::new(code, message))
        }),
        (
            proptest::collection::vec(name_strategy(), 1..4),
            proptest::collection::vec(value_strategy(), 0..9),
            any::<u64>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
        )
            .prop_map(|(columns, cells, watermark, cursor)| {
                let rows = cells
                    .chunks_exact(columns.len())
                    .map(|c| c.to_vec())
                    .collect();
                Response::Ok {
                    result: QueryResult { columns, rows },
                    watermark,
                    cursor,
                }
            }),
        (
            proptest::collection::vec((name_strategy(), any::<u64>()), 0..4),
            proptest::collection::vec((name_strategy(), any::<i64>()), 0..4),
            proptest::collection::vec(
                (name_strategy(), any::<u64>(), any::<u64>(), any::<u64>()),
                0..4,
            ),
        )
            .prop_map(|(counters, gauges, hists)| {
                let histograms = hists
                    .into_iter()
                    .map(|(name, count, sum, p)| HistogramSnapshot {
                        name,
                        count,
                        sum,
                        p50: p,
                        p95: p,
                        p99: p,
                    })
                    .collect();
                Response::Metrics(MetricsSnapshot {
                    counters,
                    gauges,
                    histograms,
                })
            }),
    ]
}

proptest! {
    #[test]
    fn request_roundtrips(req in request_strategy()) {
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn response_roundtrips(resp in response_strategy()) {
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    /// A short read (any strict prefix of a valid frame) must fail to
    /// decode rather than silently yielding a partial message: every field
    /// read is fixed-size or length-prefixed, so truncation always lands
    /// inside some read.
    #[test]
    fn truncated_requests_rejected(req in request_strategy(), cut in 0usize..64) {
        let bytes = encode_request(&req);
        if !bytes.is_empty() {
            let len = cut % bytes.len();
            prop_assert!(decode_request(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn truncated_responses_rejected(resp in response_strategy(), cut in 0usize..256) {
        let bytes = encode_response(&resp);
        if !bytes.is_empty() {
            let len = cut % bytes.len();
            prop_assert!(decode_response(&bytes[..len]).is_err());
        }
    }

    /// Bytes left over after a complete message mean the two sides disagree
    /// on its layout: that is an error, not something to ignore.
    #[test]
    fn trailing_bytes_rejected(
        req in request_strategy(),
        resp in response_strategy(),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut bytes = encode_request(&req);
        bytes.extend_from_slice(&extra);
        prop_assert!(decode_request(&bytes).is_err());
        let mut bytes = encode_response(&resp);
        bytes.extend_from_slice(&extra);
        prop_assert!(decode_response(&bytes).is_err());
    }

    /// Arbitrary malformed frames must produce `Err`, never a panic or
    /// unbounded work (e.g. a row count with no columns to bound it).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }
}
