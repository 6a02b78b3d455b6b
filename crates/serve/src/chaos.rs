//! Seeded wire-level fault proxy for chaos-testing the sweep server.
//!
//! The proxy sits between a client (typically [`crate::loadgen`]) and a
//! `memscale-serve` instance and injects deterministic faults into the
//! client → server byte stream: torn frames (a flipped byte, a truncated
//! line), dropped frames, stalled reads, and mid-stream disconnects. The
//! server → client direction is relayed untouched, so every byte a client
//! sees is either a genuine server response or a clean EOF — which is what
//! lets the chaos harness assert *zero protocol violations* while the
//! request path is being mangled.
//!
//! All randomness flows from one [`SplitMix64`] stream (the generator
//! `memscale-faults` draws from): the per-connection fault stream is a pure
//! function of `(seed, connection index)`, so a failing chaos run replays
//! with the same `--seed`.

use memscale_types::rng::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the proxy injects and how often. Probabilities are per request
/// frame on the client → server path.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// `host:port` of the real server the proxy forwards to.
    pub upstream: String,
    /// Root seed; every connection derives its own stream from it.
    pub seed: u64,
    /// Probability a frame is torn: one byte flipped or the frame cut
    /// short (partial write) before the newline.
    pub torn_frame: f64,
    /// Probability a frame is dropped entirely (the server never sees it,
    /// the client waits for a response that cannot come).
    pub drop_frame: f64,
    /// Probability the connection is severed (both directions) right
    /// before a frame would be forwarded.
    pub disconnect: f64,
    /// Probability a frame is stalled for [`ChaosConfig::stall_ms`] before
    /// forwarding (a slow-loris client from the server's perspective).
    pub stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl ChaosConfig {
    /// A config over `upstream` and `seed` with the default fault rates
    /// used by `memscale-sim chaos`: 10 % torn, 5 % dropped, 5 %
    /// disconnect, 10 % stalled at 20 ms.
    pub fn new(upstream: impl Into<String>, seed: u64) -> Self {
        ChaosConfig {
            upstream: upstream.into(),
            seed,
            torn_frame: 0.10,
            drop_frame: 0.05,
            disconnect: 0.05,
            stall: 0.10,
            stall_ms: 20,
        }
    }
}

/// Counts of faults the proxy actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Connections the proxy accepted.
    pub connections: u64,
    /// Frames forwarded with a flipped byte or truncated early.
    pub torn_frames: u64,
    /// Frames swallowed whole.
    pub dropped_frames: u64,
    /// Connections severed mid-stream.
    pub disconnects: u64,
    /// Frames delayed before forwarding.
    pub stalls: u64,
}

impl ChaosReport {
    /// Total faults injected (excluding the connection count).
    pub fn total_injected(&self) -> u64 {
        self.torn_frames + self.dropped_frames + self.disconnects + self.stalls
    }
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    torn_frames: AtomicU64,
    dropped_frames: AtomicU64,
    disconnects: AtomicU64,
    stalls: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ChaosReport {
        ChaosReport {
            connections: self.connections.load(Ordering::Relaxed),
            torn_frames: self.torn_frames.load(Ordering::Relaxed),
            dropped_frames: self.dropped_frames.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }
}

/// The fault proxy, bound to a local address. [`ChaosProxy::spawn`] starts
/// the accept loop on a background thread and returns a [`ChaosHandle`]
/// for stopping it and collecting the report.
#[derive(Debug)]
pub struct ChaosProxy {
    listener: TcpListener,
    cfg: ChaosConfig,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
}

/// Control handle of a running proxy.
#[derive(Debug)]
pub struct ChaosHandle {
    addr: SocketAddr,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl ChaosProxy {
    /// Binds the proxy to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// The bind failure, untouched.
    pub fn bind(addr: &str, cfg: ChaosConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(ChaosProxy {
            listener,
            cfg,
            counters: Arc::new(Counters::default()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address clients should connect to.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the local-address query failure.
    pub fn spawn(self) -> std::io::Result<ChaosHandle> {
        let addr = self.local_addr()?;
        let counters = Arc::clone(&self.counters);
        let stop = Arc::clone(&self.stop);
        self.listener.set_nonblocking(true)?;
        let accept_thread = std::thread::spawn(move || accept_loop(&self));
        Ok(ChaosHandle {
            addr,
            counters,
            stop,
            accept_thread,
        })
    }
}

impl ChaosHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the injected-fault counters.
    pub fn report(&self) -> ChaosReport {
        self.counters.snapshot()
    }

    /// Stops accepting, joins the accept loop and returns the final
    /// report. Connections already in flight wind down on their own as
    /// their sockets close.
    pub fn stop(self) -> ChaosReport {
        self.stop.store(true, Ordering::Release);
        let _ = self.accept_thread.join();
        self.counters.snapshot()
    }
}

fn accept_loop(proxy: &ChaosProxy) {
    let mut conn_index: u64 = 0;
    while !proxy.stop.load(Ordering::Acquire) {
        match proxy.listener.accept() {
            Ok((client, _)) => {
                proxy.counters.connections.fetch_add(1, Ordering::Relaxed);
                let _ = client.set_nonblocking(false);
                let conn_seed = connection_seed(proxy.cfg.seed, conn_index);
                conn_index += 1;
                let cfg = proxy.cfg.clone();
                let counters = Arc::clone(&proxy.counters);
                std::thread::spawn(move || pump_connection(client, &cfg, conn_seed, &counters));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Derives a connection's fault stream seed from (run seed, accept index) so
/// a run replays exactly given the same seed.
fn connection_seed(seed: u64, conn_index: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(conn_index)).next_u64()
}

/// Relays one client connection through the fault injector. The request
/// path is frame-aware (faults are drawn per line); the response path is a
/// clean byte relay.
fn pump_connection(client: TcpStream, cfg: &ChaosConfig, conn_seed: u64, counters: &Arc<Counters>) {
    let Ok(upstream) = TcpStream::connect(&cfg.upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let Ok(client_rd) = client.try_clone() else {
        return;
    };
    let Ok(upstream_rd) = upstream.try_clone() else {
        return;
    };

    // Response path: server → client, byte-for-byte.
    let client_wr = client.try_clone();
    let down = std::thread::spawn(move || {
        let Ok(mut client_wr) = client_wr else {
            return;
        };
        let mut upstream_rd = upstream_rd;
        let mut buf = [0u8; 4096];
        loop {
            match upstream_rd.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if client_wr.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = client_wr.shutdown(Shutdown::Write);
    });

    // Request path: client → server, one fault draw per frame.
    let mut rng = SplitMix64::new(conn_seed);
    let mut reader = BufReader::new(client_rd);
    let mut upstream_wr = upstream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if rng.chance(cfg.disconnect) {
            counters.disconnects.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream_wr.shutdown(Shutdown::Both);
            break;
        }
        if rng.chance(cfg.stall) {
            counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(cfg.stall_ms));
        }
        if rng.chance(cfg.drop_frame) {
            counters.dropped_frames.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let payload = if rng.chance(cfg.torn_frame) {
            counters.torn_frames.fetch_add(1, Ordering::Relaxed);
            tear_frame(&line, &mut rng)
        } else {
            line.clone().into_bytes()
        };
        if upstream_wr.write_all(&payload).is_err() {
            break;
        }
    }
    let _ = upstream_wr.shutdown(Shutdown::Write);
    let _ = down.join();
}

/// Mangles one request frame: either flips one byte (staying in printable
/// ASCII so the server sees a decodable-but-wrong line rather than a UTF-8
/// read error) or truncates it mid-line, simulating a partial write. The
/// newline always survives so the server's framing resynchronizes on the
/// next frame.
fn tear_frame(line: &str, rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    let body_len = line.trim_end_matches('\n').len() as u64;
    if body_len < 2 {
        return bytes;
    }
    if rng.chance(0.5) {
        // Byte flip somewhere in the body.
        let i = usize::try_from(rng.range(0, body_len)).unwrap_or(0);
        bytes[i] = u8::try_from(rng.range(0x21, 0x7f)).unwrap_or(b'?');
    } else {
        // Truncation: keep a strict prefix of the body, then newline.
        let keep = usize::try_from(rng.range(1, body_len)).unwrap_or(1);
        bytes.truncate(keep);
        bytes.push(b'\n');
    }
    bytes
}

/// Opens `n` idle connections to `addr` (a connection flood). The sockets
/// are returned so the caller controls their lifetime; the server must
/// survive them (its per-connection read timeout reaps dead weight).
pub fn open_flood(addr: &str, n: usize) -> Vec<TcpStream> {
    (0..n)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(connection_seed(99, 0));
        let mut b = SplitMix64::new(connection_seed(99, 0));
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(connection_seed(99, 0), connection_seed(99, 1));
        let mut r = SplitMix64::new(connection_seed(7, 0));
        for _ in 0..256 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.range(0, 10) < 10);
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn fault_decisions_replay_from_the_seed() {
        let cfg = ChaosConfig::new("127.0.0.1:1", 1234);
        let decide = |seed: u64| -> Vec<(bool, bool, bool, bool)> {
            let mut rng = SplitMix64::new(seed);
            (0..32)
                .map(|_| {
                    (
                        rng.chance(cfg.disconnect),
                        rng.chance(cfg.stall),
                        rng.chance(cfg.drop_frame),
                        rng.chance(cfg.torn_frame),
                    )
                })
                .collect()
        };
        assert_eq!(decide(42), decide(42));
        assert_ne!(decide(42), decide(43));
    }

    #[test]
    fn torn_frames_keep_framing_and_ascii() {
        let line = "{\"type\":\"job\",\"id\":\"x\",\"mix\":\"MID1\"}\n";
        let mut rng = SplitMix64::new(5);
        for _ in 0..200 {
            let torn = tear_frame(line, &mut rng);
            assert_eq!(torn.last(), Some(&b'\n'), "newline must survive");
            assert!(torn.len() <= line.len());
            assert!(torn[..torn.len() - 1]
                .iter()
                .all(|b| (0x20..0x7f).contains(b)));
        }
    }

    #[test]
    fn report_totals_add_up() {
        let r = ChaosReport {
            connections: 9,
            torn_frames: 3,
            dropped_frames: 2,
            disconnects: 1,
            stalls: 4,
        };
        assert_eq!(r.total_injected(), 10);
    }
}
