//! Resilience-layer integration tests: per-request deadlines, admission
//! control, graceful drain vs. force-close, idempotency-gated client
//! retries, and connection-error classification.
//!
//! Every test that could hang funnels its result through an mpsc channel
//! with a `recv_timeout`, so a regression shows up as a test failure
//! rather than a stuck CI job.

use aion::{Aion, AionConfig};
use aion_server::protocol::{
    decode_response, encode_response, read_frame, write_frame, ErrorCode, Response,
};
use aion_server::{Client, ClientConfig, Server, ServerConfig};
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tempfile::{tempdir, TempDir};

fn test_server(cfg: ServerConfig) -> (TempDir, Arc<Aion>, Server) {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let server = Server::start_with(db.clone(), cfg).unwrap();
    (dir, db, server)
}

/// A client that surfaces the first error instead of retrying, so tests
/// see exactly what the server sent.
fn no_retry() -> ClientConfig {
    ClientConfig {
        retries: 0,
        request_timeout: Duration::from_secs(20),
        ..ClientConfig::default()
    }
}

/// Polls `cond` until it holds or the timeout elapses.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn request_deadline_aborts_slow_run_with_typed_timeout() {
    let (_dir, _db, server) = test_server(ServerConfig {
        request_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_with(server.addr(), no_retry()).unwrap();

    let started = Instant::now();
    let err = client
        .run("CALL aion.sleep(10000)", Vec::new())
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut, "got: {err}");
    assert!(
        err.to_string().contains("deadline"),
        "timeout error should name the deadline, got: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "abort must happen near the deadline, not after the full sleep"
    );
    assert!(server.stats().deadline_aborts >= 1);

    // The request was aborted, not the connection: the same client keeps
    // working without reconnecting.
    client.ping().unwrap();
    assert_eq!(client.reconnect_count(), 0);
}

#[test]
fn admission_control_sheds_connections_over_the_cap() {
    let (_dir, _db, server) = test_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Occupy the only slot (ping so the worker is definitely registered
    // before the second connection races in).
    let mut occupant = Client::connect(addr).unwrap();
    occupant.ping().unwrap();

    // A raw socket shows the exact shed behaviour: the server answers
    // with a typed Overloaded error before reading anything, then closes.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = read_frame(&mut raw).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Err(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert!(e.message.contains("overloaded"), "got: {}", e.message);
        }
        other => panic!("expected Overloaded error, got {other:?}"),
    }
    assert!(wait_for(Duration::from_secs(2), || server.stats().shed >= 1));

    // Through the Client, an Overloaded response maps to ResourceBusy
    // when retries are exhausted...
    let err = Client::connect_with(addr, no_retry())
        .and_then(|mut c| c.ping())
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ResourceBusy, "got: {err}");

    // ...and with retries enabled the client rides out the overload once
    // capacity frees up.
    let freer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(occupant);
    });
    let mut patient = Client::connect_with(
        addr,
        ClientConfig {
            retries: 20,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(100),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    patient.ping().unwrap();
    freer.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_request_to_completion() {
    let (_dir, _db, mut server) = test_server(ServerConfig {
        drain_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, no_retry()).unwrap();
        let _ = tx.send(client.run("CALL aion.sleep(400)", Vec::new()));
    });

    // Let the request get in flight, then drain. Shutdown must wait for
    // the sleep to finish rather than cutting the connection.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();

    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("client thread hung through shutdown");
    let result = result.expect("in-flight request must complete during drain");
    assert_eq!(result.columns, vec!["slept_ms".to_string()]);
    assert_eq!(server.active_connections(), 0);
    assert_eq!(server.stats().drain_forced, 0);
    worker.join().unwrap();
}

#[test]
fn shutdown_force_closes_stragglers_past_drain_deadline() {
    let (_dir, _db, mut server) = test_server(ServerConfig {
        request_deadline: Duration::from_secs(30),
        drain_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, no_retry()).unwrap();
        let _ = tx.send(client.run("CALL aion.sleep(10000)", Vec::new()));
    });

    std::thread::sleep(Duration::from_millis(150));
    let shutdown_started = Instant::now();
    server.shutdown();
    assert!(
        shutdown_started.elapsed() < Duration::from_secs(10),
        "shutdown must not wait out the full 10 s sleep"
    );

    // The straggler was cancelled and its socket force-closed: the client
    // sees an error (a typed drain abort or a dead connection), never a
    // hang, and no worker leaks.
    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("client thread hung through force-close");
    assert!(result.is_err(), "straggler run must not report success");
    assert!(server.stats().drain_forced >= 1);
    assert!(server.stats().deadline_aborts >= 1);
    assert_eq!(server.active_connections(), 0);
    worker.join().unwrap();
}

/// Mock server: accepts connections until `stop`, reads frames, and for
/// connection number `i` (0-based) drops after reading `i + 1` frames —
/// except when `reply_on_second` is set, where the second connection gets
/// a well-formed empty result. Returns total frames observed.
fn mock_frame_counter(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    reply_on_second: bool,
) -> std::thread::JoinHandle<u32> {
    std::thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        let mut frames = 0u32;
        let mut conns = 0u32;
        while !stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((mut sock, _)) => {
                    sock.set_nonblocking(false).unwrap();
                    sock.set_read_timeout(Some(Duration::from_millis(500)))
                        .unwrap();
                    conns += 1;
                    if let Ok(payload) = read_frame(&mut sock) {
                        let _ = payload;
                        frames += 1;
                        if reply_on_second && conns >= 2 {
                            let ok = Response::Ok {
                                result: query::QueryResult {
                                    columns: vec!["n".into()],
                                    rows: Vec::new(),
                                },
                                watermark: 0,
                                cursor: None,
                            };
                            let _ = write_frame(&mut sock, &encode_response(&ok));
                            // Hold the socket open briefly so the client
                            // can read the reply before we drop it.
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                    // Drop: the client observes a dead connection.
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        frames
    })
}

#[test]
fn client_never_retries_non_idempotent_run() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mock = mock_frame_counter(listener, stop.clone(), false);

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            request_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // The mock kills the connection after the frame is received — the
    // classic "acked by the network, outcome unknown" window. A write
    // must surface the error instead of being replayed.
    let err = client
        .run("CREATE (n:Ledger {entry: 1})", Vec::new())
        .unwrap_err();
    assert!(
        matches!(
            err.kind(),
            ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        ),
        "got: {err}"
    );

    // Give any (buggy) retry a moment to land before counting.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);
    let frames = mock.join().unwrap();
    assert_eq!(frames, 1, "non-idempotent Run must be sent exactly once");
}

#[test]
fn client_retries_read_only_run_after_connection_loss() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mock = mock_frame_counter(listener, stop.clone(), true);

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            request_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // First attempt dies mid-exchange; the read-only query is safe to
    // replay, so the client reconnects and the second attempt succeeds.
    let result = client.run("MATCH (n:Ledger) RETURN n", Vec::new()).unwrap();
    assert_eq!(result.columns, vec!["n".to_string()]);
    assert!(client.reconnect_count() >= 1);

    stop.store(true, Ordering::Release);
    let frames = mock.join().unwrap();
    assert_eq!(frames, 2, "read-only Run should be retried exactly once");
}

#[test]
fn clean_eof_is_not_a_connection_error_but_garbage_is() {
    let (_dir, _db, server) = test_server(ServerConfig::default());
    let addr = server.addr();

    // A connect-then-close at a frame boundary is a clean hangup.
    drop(TcpStream::connect(addr).unwrap());
    assert!(wait_for(Duration::from_secs(2), || {
        server.active_connections() == 0
    }));
    assert_eq!(server.stats().conn_errors, 0);

    // A garbage header (length far over the frame cap) is a protocol
    // failure and must be counted.
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(&[0xFF; 12]).unwrap();
    assert!(
        wait_for(Duration::from_secs(2), || server.stats().conn_errors >= 1),
        "garbage frame header must count as a connection error"
    );
    drop(sock);
}

/// A `Run` whose one parameter is 5 000 lists nested in each other used to
/// recurse the worker thread off its stack and abort the whole process.
/// Now it is an ordinary protocol error: answered once, that connection
/// closed, everyone else unaffected.
#[test]
fn deeply_nested_parameter_is_a_protocol_error_not_a_process_abort() {
    let (_dir, _db, server) = test_server(ServerConfig::default());

    let mut payload = vec![0x01]; // RUN
    payload.extend_from_slice(&9u32.to_le_bytes());
    payload.extend_from_slice(b"RETURN $p");
    payload.extend_from_slice(&1u16.to_le_bytes()); // one parameter
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(b"p");
    for _ in 0..5_000 {
        payload.push(7); // LIST
        payload.extend_from_slice(&1u32.to_le_bytes());
    }
    payload.push(0); // NULL
    payload.extend_from_slice(&0u64.to_le_bytes()); // min_watermark
    payload.extend_from_slice(&0u32.to_le_bytes()); // page_size
    payload.push(0); // no cursor

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut sock, &payload).unwrap();
    match decode_response(&read_frame(&mut sock).unwrap()).unwrap() {
        Response::Err(e) => {
            assert_eq!(e.code, ErrorCode::Generic);
            assert!(e.message.contains("protocol error"), "got: {}", e.message);
        }
        other => panic!("expected an ERR frame, got {other:?}"),
    }
    // Answered once, then closed.
    assert_eq!(
        read_frame(&mut sock).unwrap_err().kind(),
        ErrorKind::UnexpectedEof
    );
    assert!(server.stats().conn_errors >= 1);

    let mut other = Client::connect_with(server.addr(), no_retry()).unwrap();
    other.ping().unwrap();
}
