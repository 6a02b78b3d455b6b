//! The sweep-job server: TCP accept loop, admission control, cell
//! scheduling and result streaming.
//!
//! The server is generic over a [`SweepBackend`] so the serving layer
//! (protocol, cache, backpressure) stays free of simulator types; the
//! `memscale-simulator` crate provides the real backend over its replay
//! and shard machinery. One connection carries any number of jobs,
//! submitted one line at a time; responses for a job are streamed as its
//! cells complete (completion order, not submission order — each line
//! carries its cell label).
//!
//! Concurrency model:
//!
//! * one OS thread per connection (bounded in practice by the client
//!   population — the load generator's closed loop keeps this small);
//! * per-job **admission control**: at most `queue_depth` jobs in service
//!   across all connections; a job beyond that is rejected immediately
//!   with a structured [`ErrorCode::Overloaded`] response carrying the
//!   observed depth and the limit — backpressure, never a hang. The slot
//!   is held by an RAII guard, so it is released on *every* exit path —
//!   normal completion, client disconnect, and panic alike;
//! * admitted jobs fan their cells out on a shared bounded-queue
//!   [`rayon::ThreadPool`]; a full cell queue blocks the producing
//!   connection thread (producer-side backpressure), never the accept
//!   loop.
//!
//! Failure containment (see DESIGN.md §14):
//!
//! * **deadlines** — a job carrying `deadline_ms` (or the server's
//!   `--default-deadline`) has its unfinished cells cancelled when the
//!   budget expires; each comes back as a structured `cancelled` cell and
//!   the job closes with `done{reason:"deadline"}`;
//! * **cell watchdog** — a cell that ignores its [`CancelToken`] longer
//!   than `cell_timeout_ms` is abandoned as a structured `cell_timeout`
//!   without poisoning siblings; its late result is discarded, never
//!   cached;
//! * **socket timeouts** — per-connection read/write timeouts
//!   (`io_timeout_ms`) reap slow-loris and dead clients;
//! * **graceful drain** — [`SweepServer::run_with_shutdown`] stops
//!   admitting once the flag raises (new jobs get a `draining` error),
//!   waits for in-flight jobs (bounded by `drain_timeout_ms`), and
//!   returns cleanly.

use crate::cache::{CacheKey, LruCache};
use crate::persist::{DurableState, JournalRecord, RecoveryReport};
use crate::wire::{decode_job, encode_response, Response};
use memscale_store::StoreError;
use memscale_types::cancel::CancelToken;
use memscale_types::serve::{CellFailure, CellOutcome, DoneReason, ErrorCode, JobSpec, JobSummary};
use rayon::ThreadPool;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Longest request line the server will buffer before rejecting the
/// connection — an unframed (newline-free) flood cannot grow memory
/// unboundedly.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// What a backend resolves a job to before any expensive work: the cache
/// identity and the cell labels to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// `SimConfig::fingerprint()` of the job's run configuration.
    pub fingerprint: u64,
    /// CRC-32 of the job's input identity (trace file bytes, or the mix
    /// name for live-recorded jobs).
    pub trace_crc: u32,
    /// Cell labels (policy wire names), in grid order.
    pub cells: Vec<String>,
}

/// The simulation side of the server, kept behind a trait so this crate
/// depends only on `memscale-types` (the simulator crate implements it).
pub trait SweepBackend: Send + Sync + 'static {
    /// The expensive per-`(config, trace)` artifact shared by every cell
    /// of a job: calibrated baseline plus replayable trace.
    type Baseline: Send + Sync + 'static;

    /// Validates `job` against the catalogs and invariant machinery and
    /// resolves its plan. Called *before* admission; must be cheap relative
    /// to a cell (opening a trace file to checksum it is acceptable,
    /// simulating is not).
    ///
    /// # Errors
    ///
    /// A structured code plus human-readable detail; the server forwards
    /// both verbatim.
    fn plan(&self, job: &JobSpec) -> Result<JobPlan, (ErrorCode, String)>;

    /// Produces the baseline bundle for `job` (record or load the trace,
    /// run the calibration). Called once per cache miss.
    ///
    /// # Errors
    ///
    /// A structured code plus human-readable detail.
    fn calibrate(&self, job: &JobSpec) -> Result<Self::Baseline, (ErrorCode, String)>;

    /// Evaluates one cell against the baseline bundle. Long-running
    /// backends should poll `cancel` at their natural boundaries (the
    /// simulator checks between epochs) and bail out with
    /// [`ErrorCode::Cancelled`] when it raises — that is what lets
    /// deadlines, disconnects and drains free worker threads promptly.
    ///
    /// # Errors
    ///
    /// The structured failure for this cell; a failed cell must not
    /// affect its siblings.
    fn run_cell(
        &self,
        baseline: &Self::Baseline,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<memscale_types::serve::CellMetrics, CellFailure>;

    /// Serialises a baseline bundle for the on-disk calibration cache
    /// (`--state-dir`). The default — `None` — marks the backend's
    /// baselines as memory-only; such servers still persist cells and
    /// the job journal, they just recalibrate cold after a restart.
    fn encode_baseline(&self, job: &JobSpec, baseline: &Self::Baseline) -> Option<Vec<u8>> {
        let _ = (job, baseline);
        None
    }

    /// Reconstructs a baseline bundle persisted by
    /// [`SweepBackend::encode_baseline`]. Returning `None` rejects the
    /// bytes: recovery counts them as corrupt and skips the entry.
    fn decode_baseline(&self, bytes: &[u8]) -> Option<Self::Baseline> {
        let _ = bytes;
        None
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum jobs in service at once; job N+1 is rejected with
    /// [`ErrorCode::Overloaded`]. Zero rejects everything (useful to probe
    /// a client's backpressure path).
    pub queue_depth: usize,
    /// Worker threads evaluating cells.
    pub threads: usize,
    /// Bounded cell-queue capacity of the worker pool.
    pub cell_queue: usize,
    /// Entries in each of the result and baseline caches.
    pub cache_cap: usize,
    /// Deadline applied to jobs that do not carry their own
    /// `deadline_ms`. `None` means no server-side default.
    pub default_deadline_ms: Option<u64>,
    /// Per-cell watchdog budget in milliseconds; a cell still running
    /// past it is abandoned as [`ErrorCode::CellTimeout`]. Zero disables
    /// the watchdog.
    pub cell_timeout_ms: u64,
    /// Read/write timeout applied to every connection socket, in
    /// milliseconds. Zero disables socket timeouts.
    pub io_timeout_ms: u64,
    /// How long [`SweepServer::run_with_shutdown`] waits for in-flight
    /// jobs before giving up on a clean drain, in milliseconds.
    pub drain_timeout_ms: u64,
    /// Directory for the durable journal and baseline logs. `None` (the
    /// default) serves purely from memory; see DESIGN.md §15.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 8,
            threads: rayon::current_num_threads(),
            cell_queue: 256,
            cache_cap: 512,
            default_deadline_ms: None,
            cell_timeout_ms: 60_000,
            io_timeout_ms: 30_000,
            drain_timeout_ms: 30_000,
            state_dir: None,
        }
    }
}

/// Aggregate counters a server exposes (for logs and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs accepted and run to completion (successfully or with failed
    /// cells).
    pub jobs_done: usize,
    /// Jobs rejected by admission control.
    pub jobs_overloaded: usize,
    /// Lines rejected before admission (parse/validation failures and
    /// draining rejections).
    pub jobs_rejected: usize,
    /// Jobs whose deadline expired before every cell finished.
    pub jobs_deadline: usize,
    /// Cells abandoned by the per-cell watchdog.
    pub cells_timed_out: usize,
    /// Cells cancelled cooperatively (deadline, disconnect, drain).
    pub cells_cancelled: usize,
}

struct Shared<B: SweepBackend> {
    backend: B,
    cfg: ServerConfig,
    pool: ThreadPool,
    /// Result cache: one entry per completed cell.
    cells: Mutex<LruCache<memscale_types::serve::CellMetrics>>,
    /// Calibration cache: one entry per `(fingerprint, trace)` baseline.
    baselines: Mutex<LruCache<Arc<B::Baseline>>>,
    /// Jobs currently in service (admission-control gauge).
    active: AtomicUsize,
    /// The open WAL/baseline logs of a `--state-dir` server. `None` when
    /// the server is memory-only — either unconfigured, or degraded after
    /// a journal write failure (a full disk must not kill serving).
    durable: Mutex<Option<DurableState>>,
    /// Raised by [`SweepServer::run_with_shutdown`]: stop admitting.
    draining: AtomicBool,
    jobs_done: AtomicUsize,
    jobs_overloaded: AtomicUsize,
    jobs_rejected: AtomicUsize,
    jobs_deadline: AtomicUsize,
    cells_timed_out: AtomicUsize,
    cells_cancelled: AtomicUsize,
}

impl<B: SweepBackend> Shared<B> {
    /// Write-ahead step: appends and fsyncs one journal record. On an
    /// I/O failure durability is disabled for the rest of the process —
    /// the server keeps serving from memory rather than wedging every
    /// job behind a dead disk.
    fn journal(&self, rec: &JournalRecord) {
        let mut guard = lock_recover(&self.durable);
        if let Some(state) = guard.as_mut() {
            if let Err(e) = state.record(rec) {
                eprintln!(
                    "memscale-serve: journal write failed ({e}); continuing without durability"
                );
                *guard = None;
            }
        }
    }

    /// Persists one calibration bundle. An oversized bundle is skipped
    /// (that baseline just recalibrates after a restart); real I/O
    /// failures disable durability like [`Shared::journal`].
    fn persist_baseline(&self, fingerprint: u64, trace_crc: u32, payload: &[u8]) {
        let mut guard = lock_recover(&self.durable);
        if let Some(state) = guard.as_mut() {
            match state.record_baseline(fingerprint, trace_crc, payload) {
                Ok(()) => {}
                Err(StoreError::RecordTooLarge { len }) => {
                    eprintln!(
                        "memscale-serve: baseline bundle of {len} bytes exceeds the frame limit; not persisted"
                    );
                }
                Err(e) => {
                    eprintln!(
                        "memscale-serve: baseline log write failed ({e}); continuing without durability"
                    );
                    *guard = None;
                }
            }
        }
    }
}

/// Locks `m`, recovering the guard if a panicking holder poisoned it. The
/// protected structures (LRU caches) are updated atomically under the
/// lock, so a poisoned lock only records that *some* thread panicked — the
/// data itself is still coherent, and refusing to serve would turn one
/// crashed cell into a dead server.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII ownership of one admission slot: dropping the guard releases the
/// slot, so disconnects and panics can never leak queue depth.
struct SlotGuard<'a> {
    active: &'a AtomicUsize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The sweep-job server. Bind with [`SweepServer::bind`], read the bound
/// address back with [`SweepServer::local_addr`], then run the accept
/// loop on the current thread with [`SweepServer::run`] (or
/// [`SweepServer::run_with_shutdown`] for drain support).
pub struct SweepServer<B: SweepBackend> {
    shared: Arc<Shared<B>>,
    listener: TcpListener,
    recovery: Option<RecoveryReport>,
}

impl<B: SweepBackend> SweepServer<B> {
    /// Binds `addr` (e.g. `127.0.0.1:7119`; port 0 picks an ephemeral
    /// port — read it back with [`SweepServer::local_addr`]).
    ///
    /// With `cfg.state_dir` set, this first opens the durable logs,
    /// replays the journal into the caches (decoding persisted baselines
    /// through the backend) and marks interrupted jobs abandoned; the
    /// result is available from [`SweepServer::recovery_report`]. Only
    /// then does it bind, so a connect that succeeds reaches a recovered
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and unrepairable state-dir defects
    /// (foreign files, newer formats) as [`std::io::ErrorKind::InvalidData`].
    pub fn bind(addr: &str, cfg: ServerConfig, backend: B) -> std::io::Result<Self> {
        let pool = ThreadPool::new(cfg.threads, cfg.cell_queue);
        let mut cells = LruCache::new(cfg.cache_cap);
        let mut baselines = LruCache::new(cfg.cache_cap);
        let mut durable = None;
        let mut recovery = None;
        if let Some(dir) = &cfg.state_dir {
            let (state, recovered) = DurableState::open(dir)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            let mut report = recovered.report;
            for (key, metrics) in recovered.cells {
                cells.insert(key, metrics);
            }
            for (key, bytes) in recovered.baselines {
                // The backend owns the bundle format; bytes it rejects
                // (version skew) are skipped, never fatal.
                match backend.decode_baseline(&bytes) {
                    Some(b) => {
                        baselines.insert(key, Arc::new(b));
                    }
                    None => {
                        report.baselines_recovered -= 1;
                        report.corrupt_records += 1;
                    }
                }
            }
            durable = Some(state);
            recovery = Some(report);
        }
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            pool,
            cells: Mutex::new(cells),
            baselines: Mutex::new(baselines),
            active: AtomicUsize::new(0),
            durable: Mutex::new(durable),
            draining: AtomicBool::new(false),
            jobs_done: AtomicUsize::new(0),
            jobs_overloaded: AtomicUsize::new(0),
            jobs_rejected: AtomicUsize::new(0),
            jobs_deadline: AtomicUsize::new(0),
            cells_timed_out: AtomicUsize::new(0),
            cells_cancelled: AtomicUsize::new(0),
            cfg,
            backend,
        });
        Ok(SweepServer {
            shared,
            listener,
            recovery,
        })
    }

    /// What startup recovery replayed from `state_dir`; `None` for a
    /// memory-only server.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Aggregate admission/completion counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            jobs_done: self.shared.jobs_done.load(Ordering::Relaxed),
            jobs_overloaded: self.shared.jobs_overloaded.load(Ordering::Relaxed),
            jobs_rejected: self.shared.jobs_rejected.load(Ordering::Relaxed),
            jobs_deadline: self.shared.jobs_deadline.load(Ordering::Relaxed),
            cells_timed_out: self.shared.cells_timed_out.load(Ordering::Relaxed),
            cells_cancelled: self.shared.cells_cancelled.load(Ordering::Relaxed),
        }
    }

    /// Accepts connections until an accept error, spawning one handler
    /// thread per connection. Equivalent to
    /// [`SweepServer::run_with_shutdown`] with a flag that never raises.
    ///
    /// # Errors
    ///
    /// The first accept failure.
    pub fn run(&self) -> std::io::Result<()> {
        self.run_with_shutdown(&AtomicBool::new(false))
    }

    /// Accepts connections until `shutdown` raises, then drains: admission
    /// flips to [`ErrorCode::Draining`], in-flight jobs run to completion
    /// (their `done` lines carry `reason:"draining"`), and the call
    /// returns once the server is idle or `drain_timeout_ms` elapses.
    ///
    /// The accept loop polls the flag every ~20 ms, so a signal handler
    /// only needs to store into the `AtomicBool`.
    ///
    /// # Errors
    ///
    /// The first non-transient accept failure.
    pub fn run_with_shutdown(&self, shutdown: &AtomicBool) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Handler threads use blocking reads (with socket
                    // timeouts); only the accept loop polls.
                    let _ = stream.set_nonblocking(false);
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_connection(&shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.shared.draining.store(true, Ordering::Release);
        let drain_deadline =
            Instant::now() + Duration::from_millis(self.shared.cfg.drain_timeout_ms.max(1));
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

enum LineRead {
    /// A complete (or EOF-terminated) line landed in the buffer.
    Line,
    /// Orderly end of stream.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] without a newline.
    TooLong,
    /// Read error — timeout, reset, or torn mid-line by a fault.
    IoError,
}

/// Reads one newline-terminated line into `buf`, refusing to buffer more
/// than [`MAX_LINE_BYTES`].
fn read_line_bounded(reader: &mut BufReader<TcpStream>, buf: &mut String) -> LineRead {
    let mut limited = reader.by_ref().take(MAX_LINE_BYTES);
    match limited.read_line(buf) {
        Ok(0) => LineRead::Eof,
        Ok(_) => {
            if buf.ends_with('\n') || (buf.len() as u64) < MAX_LINE_BYTES {
                // A newline-free short read means EOF mid-line: serve the
                // partial line; the next read reports EOF.
                LineRead::Line
            } else {
                LineRead::TooLong
            }
        }
        Err(_) => LineRead::IoError,
    }
}

/// Serves one connection: reads request lines until EOF/timeout, streaming
/// each job's responses back on the same socket.
fn handle_connection<B: SweepBackend>(shared: &Arc<Shared<B>>, stream: TcpStream) {
    let io_timeout =
        (shared.cfg.io_timeout_ms > 0).then(|| Duration::from_millis(shared.cfg.io_timeout_ms));
    // A dead or stalled client must not pin this thread: bound both
    // directions of the socket.
    let _ = stream.set_read_timeout(io_timeout);
    let _ = stream.set_write_timeout(io_timeout);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut buf = String::new();
    loop {
        buf.clear();
        match read_line_bounded(&mut reader, &mut buf) {
            LineRead::Eof | LineRead::IoError => break,
            LineRead::TooLong => {
                shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                let mut encoded = encode_response(&Response::Error {
                    id: None,
                    code: ErrorCode::BadRequest,
                    detail: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    depth: None,
                    limit: None,
                });
                encoded.push('\n');
                let _ = writer.write_all(encoded.as_bytes());
                break; // framing is lost; close the connection
            }
            LineRead::Line => {
                let line = buf.trim();
                if line.is_empty() {
                    continue;
                }
                if !serve_line(shared, line, &mut writer) {
                    break; // client went away mid-stream
                }
            }
        }
    }
}

/// Handles one request line; returns `false` when the client's socket is
/// no longer writable.
fn serve_line<B: SweepBackend>(
    shared: &Arc<Shared<B>>,
    line: &str,
    writer: &mut TcpStream,
) -> bool {
    let mut send = |resp: &Response| -> bool {
        let mut encoded = encode_response(resp);
        encoded.push('\n');
        writer.write_all(encoded.as_bytes()).is_ok()
    };

    // Parse + shape-validate.
    let job = match decode_job(line) {
        Ok(job) => job,
        Err(detail) => {
            shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return send(&Response::Error {
                id: None,
                code: ErrorCode::BadRequest,
                detail,
                depth: None,
                limit: None,
            });
        }
    };

    // A draining server admits nothing new (in-flight jobs keep running).
    if shared.draining.load(Ordering::Acquire) {
        shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        return send(&Response::Error {
            id: Some(job.id.clone()),
            code: ErrorCode::Draining,
            detail: "server is draining after a shutdown signal; resubmit elsewhere".into(),
            depth: None,
            limit: None,
        });
    }

    // Catalog/invariant validation, still before admission.
    let plan = match shared.backend.plan(&job) {
        Ok(plan) => plan,
        Err((code, detail)) => {
            shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return send(&Response::Error {
                id: Some(job.id.clone()),
                code,
                detail,
                depth: None,
                limit: None,
            });
        }
    };

    // Admission control: reject — never queue unboundedly, never hang.
    let limit = shared.cfg.queue_depth;
    let admitted = shared
        .active
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < limit).then_some(n + 1)
        });
    if admitted.is_err() {
        shared.jobs_overloaded.fetch_add(1, Ordering::Relaxed);
        return send(&Response::Error {
            id: Some(job.id.clone()),
            code: ErrorCode::Overloaded,
            detail: format!("admission queue full ({limit} jobs in service)"),
            depth: Some(shared.active.load(Ordering::Relaxed)),
            limit: Some(limit),
        });
    }
    // The slot is owned by the guard from here on: client disconnects and
    // panicking backends release it on unwind just like normal returns.
    let _slot = SlotGuard {
        active: &shared.active,
    };
    let ok = run_job(shared, &job, &plan, &mut send);
    if !ok {
        // The client went away mid-stream: close the journal entry so a
        // restart does not report this socket death as a crash. (Replay
        // tolerates a duplicate close, so the rare "done recorded but the
        // done line failed to send" overlap is harmless.)
        shared.journal(&JournalRecord::Abandoned { id: job.id.clone() });
    }
    shared.jobs_done.fetch_add(1, Ordering::Relaxed);
    ok
}

type CellResult = Result<memscale_types::serve::CellMetrics, CellFailure>;

/// A cell of an in-flight job that has not reported yet: running, queued,
/// or (once the deadline has struck) never scheduled.
struct PendingCell {
    label: String,
    token: CancelToken,
    spawned: Instant,
}

/// The cell lines of one admitted job and the ok/failed tallies its `done`
/// line reports: every cell line goes out through [`Reply::cell`].
struct Reply<'a> {
    id: &'a str,
    send: &'a mut dyn FnMut(&Response) -> bool,
    ok: usize,
    failed: usize,
}

impl Reply<'_> {
    /// Sends one cell line and counts it. `false` when the client's socket
    /// is no longer writable.
    fn cell(&mut self, label: String, cached: bool, result: CellResult) -> bool {
        if result.is_ok() {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
        (self.send)(&Response::Cell {
            id: self.id.to_string(),
            outcome: CellOutcome {
                label,
                cached,
                result,
            },
        })
    }

    /// Abandons the pending cells `pick` selects: cancels all of their
    /// tokens, adds them to `counter`, then reports each as a failed cell
    /// in grid order. Their late results are discarded, never cached.
    /// `false` when the client's socket died mid-report.
    fn fail(
        &mut self,
        pending: &mut BTreeMap<usize, PendingCell>,
        pick: impl Fn(&PendingCell) -> bool,
        (code, detail): (ErrorCode, String),
        counter: Option<&AtomicUsize>,
    ) -> bool {
        let (picked, kept) = std::mem::take(pending)
            .into_iter()
            .partition::<BTreeMap<_, _>, _>(|(_, cell)| pick(cell));
        *pending = kept;
        for cell in picked.values() {
            cell.token.cancel();
        }
        if let Some(counter) = counter {
            counter.fetch_add(picked.len(), Ordering::Relaxed);
        }
        picked.into_values().all(|cell| {
            self.cell(
                cell.label,
                false,
                Err(CellFailure::new(code, detail.clone())),
            )
        })
    }
}

/// Runs one admitted job end to end, streaming cell lines as they land.
fn run_job<B: SweepBackend>(
    shared: &Arc<Shared<B>>,
    job: &JobSpec,
    plan: &JobPlan,
    send: &mut impl FnMut(&Response) -> bool,
) -> bool {
    let started = Instant::now();
    let id = job.id.clone();
    let deadline = job
        .deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| started + Duration::from_millis(ms));
    let cell_timeout =
        (shared.cfg.cell_timeout_ms > 0).then(|| Duration::from_millis(shared.cfg.cell_timeout_ms));
    // Write-ahead: the admission is durable before it is visible, so a
    // crash after this line reports the job as interrupted on restart.
    shared.journal(&JournalRecord::Admitted {
        id: id.clone(),
        fingerprint: plan.fingerprint,
        trace_crc: plan.trace_crc,
        cells: plan.cells.clone(),
    });
    let mut reply = Reply {
        id: &id,
        send,
        ok: 0,
        failed: 0,
    };
    if !(reply.send)(&Response::Admitted {
        id: id.clone(),
        cells: plan.cells.len(),
    }) {
        return false;
    }
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut evictions = 0u64;

    // First pass: answer cached cells immediately (a resumed or repeated
    // job streams its warm cells without waiting on anything), collect
    // the rest for the worker pool.
    let mut todo: Vec<(usize, &String)> = Vec::new();
    for (idx, label) in plan.cells.iter().enumerate() {
        let key = CacheKey {
            fingerprint: plan.fingerprint,
            trace_crc: plan.trace_crc,
            label: label.clone(),
        };
        let hit = lock_recover(&shared.cells).get(&key).copied();
        if let Some(metrics) = hit {
            hits += 1;
            if !reply.cell(label.clone(), true, Ok(metrics)) {
                return false;
            }
        } else {
            misses += 1;
            todo.push((idx, label));
        }
    }

    let (tx, rx) = mpsc::channel::<(usize, CellResult)>();

    // Baseline bundle, resolved lazily: a fully cached job (the warm
    // resubmit after a restart) never touches the calibration cache or
    // the backend at all.
    let baseline = if todo.is_empty() {
        None
    } else {
        let baseline_key = CacheKey {
            fingerprint: plan.fingerprint,
            trace_crc: plan.trace_crc,
            label: CacheKey::BASELINE.into(),
        };
        let cached_baseline = lock_recover(&shared.baselines).get(&baseline_key).cloned();
        match cached_baseline {
            Some(b) => {
                hits += 1;
                Some(b)
            }
            None => {
                misses += 1;
                // Calibrate outside the cache lock: concurrent cold jobs
                // may duplicate the work, but never serialize behind it.
                match shared.backend.calibrate(job) {
                    Ok(b) => {
                        if let Some(bundle) = shared.backend.encode_baseline(job, &b) {
                            shared.persist_baseline(plan.fingerprint, plan.trace_crc, &bundle);
                        }
                        let b = Arc::new(b);
                        if lock_recover(&shared.baselines).insert(baseline_key, Arc::clone(&b)) {
                            evictions += 1;
                        }
                        Some(b)
                    }
                    Err((code, detail)) => {
                        // Terminal error: close the journal entry so the
                        // restart does not count this as a crash.
                        shared.journal(&JournalRecord::Abandoned { id: id.clone() });
                        return (reply.send)(&Response::Error {
                            id: Some(id.clone()),
                            code,
                            detail,
                            depth: None,
                            limit: None,
                        });
                    }
                }
            }
        }
    };

    // Fan the misses out on the worker pool. Each gets its own cancel
    // token so deadlines and disconnects can reach it individually. Once
    // the deadline has passed, the remaining cells stay pending without
    // being scheduled, and the deadline sweep below reports them.
    let mut pending = BTreeMap::new();
    for (idx, label) in todo {
        let token = CancelToken::new();
        if deadline.is_none_or(|d| Instant::now() < d) {
            let worker_token = token.clone();
            let backend_shared = Arc::clone(shared);
            let baseline = Arc::clone(baseline.as_ref().expect("todo is non-empty"));
            let worker_label = label.clone();
            let tx = tx.clone();
            // The submit itself is bounded by the job deadline: a stuffed
            // cell queue cannot pin this connection past it. A cell it
            // gives up on stays pending, unscheduled.
            shared.pool.execute_cancellable(
                &token.flag(),
                deadline,
                move |cancelled_while_queued| {
                    let result = if cancelled_while_queued {
                        Err(CellFailure::new(
                            ErrorCode::Cancelled,
                            "cancelled before execution",
                        ))
                    } else {
                        backend_shared
                            .backend
                            .run_cell(&baseline, &worker_label, &worker_token)
                    };
                    let _ = tx.send((idx, result));
                },
            );
        }
        pending.insert(
            idx,
            PendingCell {
                label: label.clone(),
                token,
                spawned: Instant::now(),
            },
        );
    }
    // Workers hold their own sender clones; dropping ours makes a fully
    // dead channel detectable (every remaining worker panicked).
    drop(tx);

    // Stream results as workers finish them, waking for the job deadline
    // and the per-cell watchdog.
    let mut deadline_hit = false;
    let mut delivered = true;
    while delivered && !pending.is_empty() {
        let wake = pending
            .values()
            .filter_map(|cell| cell_timeout.map(|ct| cell.spawned + ct))
            .chain(deadline)
            .min();
        let msg = match wake {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(w) => rx.recv_timeout(
                w.saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1)),
            ),
        };
        let now = Instant::now();
        delivered = match msg {
            Ok((idx, result)) => {
                // No pending entry: the late result of a cell the deadline
                // or the watchdog already reported. It is discarded, never
                // cached; the abandonment is what the client was told.
                let Some(cell) = pending.remove(&idx) else {
                    continue;
                };
                match &result {
                    Ok(metrics) => {
                        // Write-ahead: the cell is durable before its line
                        // is visible — a client never sees a result a crash
                        // loses.
                        shared.journal(&JournalRecord::CellDone {
                            fingerprint: plan.fingerprint,
                            trace_crc: plan.trace_crc,
                            label: cell.label.clone(),
                            metrics: *metrics,
                        });
                        if lock_recover(&shared.cells).insert(
                            CacheKey {
                                fingerprint: plan.fingerprint,
                                trace_crc: plan.trace_crc,
                                label: cell.label.clone(),
                            },
                            *metrics,
                        ) {
                            evictions += 1;
                        }
                    }
                    Err(failure) if failure.code == ErrorCode::Cancelled => {
                        shared.cells_cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
                reply.cell(cell.label, false, result)
            }
            // Job deadline: every cell still running, queued or never
            // scheduled is cancelled. Never-scheduled cells have no worker,
            // so this comes before the dead-worker sweep.
            Err(_) if deadline.is_some_and(|d| now >= d) => {
                deadline_hit = true;
                reply.fail(
                    &mut pending,
                    |_| true,
                    (ErrorCode::Cancelled, "job deadline expired".into()),
                    Some(&shared.cells_cancelled),
                )
            }
            // Per-cell watchdog: abandon stuck cells without touching
            // their siblings.
            Err(RecvTimeoutError::Timeout) => reply.fail(
                &mut pending,
                |cell| cell_timeout.is_some_and(|ct| now.duration_since(cell.spawned) >= ct),
                (
                    ErrorCode::CellTimeout,
                    format!(
                        "cell exceeded the {} ms watchdog and was abandoned",
                        shared.cfg.cell_timeout_ms
                    ),
                ),
                Some(&shared.cells_timed_out),
            ),
            // Every sender is gone but cells remain: their workers died
            // without reporting (a panicking backend).
            Err(RecvTimeoutError::Disconnected) => reply.fail(
                &mut pending,
                |_| true,
                (
                    ErrorCode::Internal,
                    "cell worker died before reporting a result".into(),
                ),
                None,
            ),
        };
    }
    if !delivered {
        // The client went away: stop the remaining work instead of
        // computing into a dead socket.
        for cell in pending.values() {
            cell.token.cancel();
        }
        return false;
    }

    let reason = if deadline_hit {
        shared.jobs_deadline.fetch_add(1, Ordering::Relaxed);
        DoneReason::Deadline
    } else if shared.draining.load(Ordering::Acquire) {
        DoneReason::Draining
    } else {
        DoneReason::Complete
    };
    // Write-ahead: the job is closed in the journal before the client
    // sees `done`.
    shared.journal(&JournalRecord::JobDone { id: id.clone() });
    (reply.send)(&Response::Done {
        id: id.clone(),
        summary: JobSummary {
            cells: plan.cells.len(),
            ok: reply.ok,
            failed: reply.failed,
            cache_hits: hits,
            cache_misses: misses,
            evictions,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            reason,
        },
    })
}
