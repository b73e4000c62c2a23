//! A seeded chaos proxy: a TCP man-in-the-middle that degrades the
//! client↔server byte stream on purpose.
//!
//! [`ChaosProxy`] listens on an ephemeral port and forwards every
//! connection to a target server through two pump threads (one per
//! direction). Each pump draws from a deterministic [`SplitMix64`]
//! stream seeded by `(config seed, connection index, direction)` and
//! injects, per forwarded chunk:
//!
//! * **delays** — a sleep before the chunk is forwarded;
//! * **byte corruption** — one byte of the chunk is flipped;
//! * **partial writes** — the chunk is forwarded in two flushes with a
//!   pause in between (exercises mid-frame reads on the far side);
//! * **mid-frame disconnects** — a prefix of the chunk is forwarded and
//!   then both sides of the connection are torn down.
//!
//! Fault *decisions* are a pure function of the seed and the chunk
//! index, so a printed seed reproduces the same fault schedule; chunk
//! boundaries depend on kernel buffering, which is exactly the
//! nondeterminism a network fault model should keep.
//!
//! The proxy is test infrastructure (`tests/chaos_soak.rs`, CI's
//! `chaos-soak` job), but lives in the library so the same storm can be
//! pointed at a long-running server from `examples/` or a bench driver.

use lock::{Mutex, Rank};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vfs::SplitMix64;

/// Fault plan for a [`ChaosProxy`]; probabilities are per forwarded
/// chunk and independent.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed; every connection derives its own RNG stream from it.
    pub seed: u64,
    /// Probability of sleeping before forwarding a chunk.
    pub delay_prob: f64,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Probability of flipping one byte of a chunk.
    pub corrupt_prob: f64,
    /// Probability of splitting a chunk into two flushes with a pause.
    pub partial_write_prob: f64,
    /// Probability of forwarding only a prefix and killing the
    /// connection (the mid-frame disconnect).
    pub disconnect_prob: f64,
}

impl ChaosConfig {
    /// A storm with every fault class enabled at rates that let most
    /// requests through — useful as a soak-test default.
    pub fn storm(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            delay_prob: 0.10,
            max_delay: Duration::from_millis(15),
            corrupt_prob: 0.02,
            partial_write_prob: 0.08,
            disconnect_prob: 0.02,
        }
    }
}

/// Counts of injected faults, for assertions that a storm actually
/// stormed.
#[derive(Default, Debug)]
pub struct ChaosStats {
    /// Chunks delayed.
    pub delays: AtomicU64,
    /// Bytes flipped.
    pub corruptions: AtomicU64,
    /// Chunks split into two flushes.
    pub partial_writes: AtomicU64,
    /// Connections torn down mid-stream.
    pub disconnects: AtomicU64,
    /// Connections proxied in total.
    pub connections: AtomicU64,
}

impl ChaosStats {
    /// Total faults injected across all classes.
    pub fn total_faults(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
            + self.corruptions.load(Ordering::Relaxed)
            + self.partial_writes.load(Ordering::Relaxed)
            + self.disconnects.load(Ordering::Relaxed)
    }
}

/// Poll tick for pump reads (lets pumps notice `stop` while idle).
const PUMP_POLL: Duration = Duration::from_millis(10);

struct ProxyShared {
    cfg: ChaosConfig,
    stop: AtomicBool,
    stats: ChaosStats,
    // Every socket the proxy owns, so stop() can unblock every pump.
    socks: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// A running chaos proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts proxying `target` on an ephemeral localhost port.
    pub fn start(target: SocketAddr, cfg: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            cfg,
            stop: AtomicBool::new(false),
            stats: ChaosStats::default(),
            socks: Mutex::new(Rank::ChaosSockets, Vec::new()),
            pumps: Mutex::new(Rank::ChaosPumps, Vec::new()),
        });
        let shared2 = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("aion-chaos-accept".into())
            .spawn(move || accept_loop(&listener, target, &shared2))?;
        Ok(ChaosProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to instead of the server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injected-fault counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.shared.stats
    }

    /// Stops accepting, tears down every proxied connection, and joins
    /// all pump threads.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for sock in self.shared.socks.lock().drain(..) {
            let _ = sock.shutdown(Shutdown::Both);
        }
        let pumps: Vec<JoinHandle<()>> = self.shared.pumps.lock().drain(..).collect();
        for p in pumps {
            let _ = p.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, target: SocketAddr, shared: &Arc<ProxyShared>) {
    let mut conn_id: u64 = 0;
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(client_side) = conn else { continue };
        let Ok(server_side) = TcpStream::connect_timeout(&target, Duration::from_secs(5)) else {
            // Target unreachable: drop the client (it sees a dead peer,
            // which is itself a fine fault to exercise).
            continue;
        };
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let seed = shared.cfg.seed;
        spawn_pump(shared, &client_side, &server_side, mix(seed, conn_id, 0));
        spawn_pump(shared, &server_side, &client_side, mix(seed, conn_id, 1));
        let mut socks = shared.socks.lock();
        socks.push(client_side);
        socks.push(server_side);
        conn_id += 1;
    }
}

/// Derives an independent RNG stream per (seed, connection, direction).
fn mix(seed: u64, conn: u64, dir: u64) -> u64 {
    SplitMix64::new(seed ^ conn.wrapping_mul(0x9E37_79B9).wrapping_add(dir)).next_u64()
}

fn spawn_pump(shared: &Arc<ProxyShared>, src: &TcpStream, dst: &TcpStream, seed: u64) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
        return;
    };
    let shared2 = shared.clone();
    let spawned = std::thread::Builder::new()
        .name("aion-chaos-pump".into())
        .spawn(move || pump(src, dst, seed, &shared2));
    if let Ok(handle) = spawned {
        shared.pumps.lock().push(handle);
    }
}

/// Forwards bytes from `src` to `dst`, injecting faults per chunk.
fn pump(mut src: TcpStream, mut dst: TcpStream, seed: u64, shared: &Arc<ProxyShared>) {
    let mut rng = SplitMix64::new(seed);
    let cfg = &shared.cfg;
    let stats = &shared.stats;
    if src.set_read_timeout(Some(PUMP_POLL)).is_err() {
        return;
    }
    let mut buf = [0u8; 4096];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let chunk = &mut buf[..n];

        if rng.chance(cfg.delay_prob) {
            stats.delays.fetch_add(1, Ordering::Relaxed);
            let nanos = rng.below(cfg.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64);
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        if rng.chance(cfg.corrupt_prob) {
            stats.corruptions.fetch_add(1, Ordering::Relaxed);
            let i = rng.below(n as u64) as usize;
            chunk[i] ^= 0xFF;
        }
        if rng.chance(cfg.disconnect_prob) {
            // Forward a strict prefix, then kill both directions: the
            // far side observes a connection dying mid-frame.
            stats.disconnects.fetch_add(1, Ordering::Relaxed);
            let cut = rng.below(n as u64) as usize;
            let _ = dst.write_all(&chunk[..cut]);
            let _ = dst.flush();
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        let write_ok = if rng.chance(cfg.partial_write_prob) && n > 1 {
            stats.partial_writes.fetch_add(1, Ordering::Relaxed);
            let cut = 1 + rng.below(n as u64 - 1) as usize;
            dst.write_all(&chunk[..cut])
                .and_then(|()| dst.flush())
                .and_then(|()| {
                    std::thread::sleep(Duration::from_millis(1 + rng.below(4)));
                    dst.write_all(&chunk[cut..])
                })
                .and_then(|()| dst.flush())
                .is_ok()
        } else {
            dst.write_all(chunk).and_then(|()| dst.flush()).is_ok()
        };
        if !write_ok {
            break;
        }
    }
    // Propagate the close so neither endpoint waits on a half-dead pair.
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}
