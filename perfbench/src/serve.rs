//! `serve-cold` and `serve-warm`: an in-process `SweepServer` over the
//! simulator backend — the code `memscale-sim serve` runs — driven over
//! TCP by closed-loop clients.

use crate::layers::{self, Input};
use crate::report::{count, median, percentile, Metric, Outcome};
use crate::spans::Tracer;
use crate::{input_seed, sys, Args, THREADS};
use memscale_serve::server::{JobPlan, SweepBackend};
use memscale_serve::wire::{decode_response, encode_job, Response};
use memscale_serve::{ServerConfig, SweepServer};
use memscale_simulator::{ServeBaseline, SimConfig, SimulatorBackend};
use memscale_types::cancel::CancelToken;
use memscale_types::config::MemGeneration;
use memscale_types::serve::{CellFailure, CellMetrics, DoneReason, ErrorCode, JobSpec, JobSummary};
use memscale_types::time::Picos;
use memscale_workloads::Mix;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Cells of every cold job.
const COLD_CELLS: [&str; 2] = ["memscale", "static:400"];

/// The low-miss, read-mostly mix of the cold jobs.
const COLD_MIX: &str = "ILP2";

/// The specs the warm workload calibrates and then resubmits.
const WARM_MIXES: [&str; 4] = ["ILP1", "ILP2", "ILP3", "ILP4"];

/// Seed streams (see [`input_seed`]) of the generated inputs.
const COLD_STREAM: u64 = 1 << 20;
const WARMUP_STREAM: u64 = 2 << 20;
const SPEC_STREAM: u64 = 3 << 20;
const ORDER_STREAM: u64 = 4 << 20;

/// Batches the serve throughput is measured over (see [`batch_rates`]).
const BATCHES: usize = 5;

/// No response line may take longer than this.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Baseline horizon of every job, ms.
    pub duration_ms: u64,
    /// Cold jobs per second of `--seconds`: the fixed job count is this
    /// times `--seconds`, so a faster server finishes sooner instead of
    /// caching more baselines.
    pub cold_jobs_per_s: u64,
    /// Minimum cold job count.
    pub cold_min_jobs: usize,
    /// Warm specs' cells; empty means the generation's full grid.
    pub warm_cells: Vec<String>,
    /// How many of [`WARM_MIXES`] the warm workload uses.
    pub warm_specs: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Self {
        Params {
            duration_ms: 2,
            cold_jobs_per_s: 10,
            cold_min_jobs: 10,
            warm_cells: Vec::new(),
            warm_specs: WARM_MIXES.len(),
            setups: 3,
        }
    }

    /// Toy size for tests.
    pub fn smoke() -> Self {
        Params {
            duration_ms: 1,
            cold_jobs_per_s: 0,
            cold_min_jobs: 4,
            warm_cells: vec!["static:800".into(), "memscale".into()],
            warm_specs: 2,
            setups: 1,
        }
    }

    fn cold_jobs(&self, seconds: Duration) -> usize {
        let n = self.cold_jobs_per_s.saturating_mul(seconds.as_secs());
        usize::try_from(n)
            .unwrap_or(usize::MAX)
            .max(self.cold_min_jobs)
    }

    fn warm_cell_count(&self) -> usize {
        if self.warm_cells.is_empty() {
            memscale_simulator::default_grid(MemGeneration::Ddr3).len()
        } else {
            self.warm_cells.len()
        }
    }
}

fn job(id: String, mix: &str, seed: u64, p: &Params, cells: &[String]) -> JobSpec {
    let mut job = JobSpec::for_mix(id, mix);
    job.duration_ms = p.duration_ms;
    job.seed = Some(seed);
    job.policies = cells.to_vec();
    job
}

/// Cold job `i`: a fresh seed, so it plans, calibrates, persists its
/// baseline and runs both cells.
fn cold_job(seed: u64, i: usize, p: &Params) -> JobSpec {
    let cells: Vec<String> = COLD_CELLS.iter().map(|s| (*s).to_string()).collect();
    job(
        format!("cold-{i}"),
        COLD_MIX,
        input_seed(seed, COLD_STREAM + i as u64),
        p,
        &cells,
    )
}

/// Warm-up job of client `c` on the cold workload (its own fresh seed).
fn cold_warmup(seed: u64, c: usize, p: &Params) -> JobSpec {
    let mut j = cold_job(seed, 0, p);
    j.id = format!("cold-warmup-{c}");
    j.seed = Some(input_seed(seed, WARMUP_STREAM + c as u64));
    j
}

/// Warm spec `k` submitted as job `id`.
fn warm_spec(seed: u64, k: usize, id: String, p: &Params) -> JobSpec {
    job(
        id,
        WARM_MIXES[k],
        input_seed(seed, SPEC_STREAM + k as u64),
        p,
        &p.warm_cells,
    )
}

/// The server's run configuration for `job` (mirrors the backend's).
fn job_config(job: &JobSpec) -> SimConfig {
    let mut cfg =
        SimConfig::for_generation(job.generation).with_duration(Picos::from_ms(job.duration_ms));
    cfg.governor.gamma = job.gamma_pct / 100.0;
    cfg.governor.epoch = Picos::from_ms(job.epoch_ms);
    cfg.system.cpu.cores = job.cores;
    cfg.system.topology.channels = job.channels;
    if let Some(seed) = job.seed {
        cfg.seed = seed;
    }
    cfg
}

// ---------------------------------------------------------------------------
// Server lifecycle

/// A server accepting on its own thread, with a fresh state directory.
pub struct Running {
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Running {
    /// Binds an ephemeral port with `THREADS` pool threads and a fresh
    /// state directory under `root`.
    ///
    /// # Errors
    ///
    /// Directory, bind and thread-spawn failures.
    pub fn start<B: SweepBackend>(backend: B, root: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join(format!(
            "state-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        let cfg = ServerConfig {
            threads: THREADS,
            state_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = SweepServer::bind("127.0.0.1:0", cfg, backend)?;
        let addr = server.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("perfbench-accept".into())
                .spawn(move || server.run_with_shutdown(&shutdown))?
        };
        Ok(Running {
            shutdown,
            thread: Some(thread),
            addr,
            dir,
        })
    }

    /// Bytes in the journal and baseline logs.
    pub fn state_bytes(&self) -> (u64, u64) {
        let size = |f: &str| std::fs::metadata(self.dir.join(f)).map_or(0, |m| m.len());
        (size("journal.log"), size("baselines.log"))
    }

    fn halt(&mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Release);
        let joined = match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| "accept thread panicked".to_string())?
                .map_err(|e| format!("accept loop: {e}")),
            None => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        joined
    }

    /// Drains and stops the server, joins its accept thread and removes
    /// its state directory.
    ///
    /// # Errors
    ///
    /// An accept-loop failure or a panicked accept thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

// ---------------------------------------------------------------------------
// Client

/// One job's response stream as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub id: String,
    /// Warm spec index (0 for cold jobs).
    pub spec: usize,
    /// When the request line was written.
    pub submit: Instant,
    /// When `admitted` arrived.
    pub admitted: Option<Instant>,
    /// When the first `cell` arrived.
    pub first_cell: Option<Instant>,
    /// When the last `cell` arrived.
    pub last_cell: Option<Instant>,
    /// When `done` (or the terminal error) arrived.
    pub end: Instant,
    /// Cell outcomes in arrival order.
    pub cells: Vec<(String, bool, Result<CellMetrics, CellFailure>)>,
    /// The `done` summary.
    pub summary: Option<JobSummary>,
    /// Why the job failed: refused, errored, lost its connection or broke
    /// the protocol.
    pub failure: Option<String>,
}

impl JobRecord {
    fn new(id: &str, spec: usize) -> Self {
        let now = Instant::now();
        JobRecord {
            id: id.to_string(),
            spec,
            submit: now,
            admitted: None,
            first_cell: None,
            last_cell: None,
            end: now,
            cells: Vec::new(),
            summary: None,
            failure: None,
        }
    }

    /// Submit → `done`, in ms; a failed job is over every latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.failure.is_some() {
            f64::INFINITY
        } else {
            (self.end - self.submit).as_secs_f64() * 1e3
        }
    }

    fn fail(&mut self, why: String) {
        self.end = Instant::now();
        self.failure.get_or_insert(why);
    }
}

/// A closed-loop client: one connection, reopened after a failure.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    /// A client of the server at `addr` (connects on first use).
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    fn connection(&mut self) -> std::io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            stream.set_write_timeout(Some(READ_TIMEOUT))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((reader, stream));
        }
        Ok(self.conn.as_mut().expect("connection was just opened"))
    }

    /// Submits `job` and reads its responses until `done` or an error,
    /// checking the protocol: one `admitted` for `cells` cells, then
    /// exactly that many distinct `cell` lines, then `done`, all for this
    /// job's id.
    pub fn submit(&mut self, job: &JobSpec, spec: usize, cells: usize) -> JobRecord {
        let mut rec = JobRecord::new(&job.id, spec);
        let mut line = encode_job(job);
        line.push('\n');
        let result = self.exchange(&line, &mut rec, cells);
        if let Err(why) = result {
            // The stream's framing is unknown now: start over next job.
            self.conn = None;
            rec.fail(why);
        }
        rec
    }

    fn exchange(&mut self, line: &str, rec: &mut JobRecord, cells: usize) -> Result<(), String> {
        let (reader, writer) = self
            .connection()
            .map_err(|e| format!("connection lost: {e}"))?;
        rec.submit = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("connection lost: {e}"))?;
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) => return Err("connection closed before done".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("connection lost: {e}")),
            }
            let now = Instant::now();
            let resp = decode_response(buf.trim())
                .map_err(|e| format!("protocol violation: undecodable line: {e}"))?;
            if resp.id() != Some(rec.id.as_str()) {
                return Err(format!("protocol violation: line for {:?}", resp.id()));
            }
            match resp {
                Response::Admitted { cells: n, .. } => {
                    if rec.admitted.is_some() || n != cells {
                        return Err(format!(
                            "protocol violation: admitted for {n} cells, expected {cells} once"
                        ));
                    }
                    rec.admitted = Some(now);
                }
                Response::Cell { outcome, .. } => {
                    if rec.admitted.is_none() || rec.cells.iter().any(|c| c.0 == outcome.label) {
                        return Err(format!(
                            "protocol violation: unexpected cell {}",
                            outcome.label
                        ));
                    }
                    rec.first_cell.get_or_insert(now);
                    rec.last_cell = Some(now);
                    rec.cells
                        .push((outcome.label, outcome.cached, outcome.result));
                }
                Response::Done { summary, .. } => {
                    rec.end = now;
                    if rec.admitted.is_none()
                        || rec.cells.len() != cells
                        || summary.cells != cells
                        || summary.ok + summary.failed != cells
                    {
                        return Err(format!(
                            "protocol violation: done after {} of {cells} cells",
                            rec.cells.len()
                        ));
                    }
                    rec.summary = Some(summary);
                    return Ok(());
                }
                Response::Error { code, detail, .. } => {
                    // The stream is well-framed: keep the connection.
                    rec.fail(format!("refused: {}: {detail}", code.as_str()));
                    return Ok(());
                }
            }
        }
    }
}

fn connect_clients(addr: SocketAddr) -> Vec<Client> {
    (0..CLIENTS).map(|_| Client::new(addr)).collect()
}

/// One job to submit: the spec, its warm-spec index, and the cells the
/// server must announce for it.
struct Submission {
    job: JobSpec,
    spec: usize,
    cells: usize,
}

/// The closed loop: client `c` submits `next(c, n, start)` as its `n`th
/// job, each after the previous one's `done`, until `next` returns `None`.
/// Returns every record and the common start.
fn closed_loop(
    clients: &mut [Client],
    next: &(dyn Fn(usize, usize, Instant) -> Option<Submission> + Sync),
) -> (Vec<JobRecord>, Instant) {
    let barrier = Barrier::new(clients.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut out = Vec::new();
                    while let Some(sub) = next(c, out.len(), start) {
                        out.push(client.submit(&sub.job, sub.spec, sub.cells));
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let records: Vec<JobRecord> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (records, start)
    })
}

// ---------------------------------------------------------------------------
// Checks

fn same_bits(a: &CellMetrics, b: &CellMetrics) -> bool {
    a.memory_savings.to_bits() == b.memory_savings.to_bits()
        && a.system_savings.to_bits() == b.system_savings.to_bits()
        && a.cpi_increase_avg.to_bits() == b.cpi_increase_avg.to_bits()
        && a.cpi_increase_max.to_bits() == b.cpi_increase_max.to_bits()
        && a.mean_frequency_mhz.to_bits() == b.mean_frequency_mhz.to_bits()
        && a.p99_ms.map(f64::to_bits) == b.p99_ms.map(f64::to_bits)
        && a.slo_violations == b.slo_violations
}

/// `done` with every cell ok and the expected cache traffic.
fn check_summary(rec: &JobRecord, cells: usize, hits: u64, misses: u64) -> Result<(), String> {
    if let Some(f) = &rec.failure {
        return Err(f.clone());
    }
    let s = rec.summary.as_ref().ok_or("no done line")?;
    if s.reason != DoneReason::Complete || s.ok != cells || s.failed != 0 {
        return Err(format!(
            "done {:?} with {} ok, {} failed of {cells}",
            s.reason, s.ok, s.failed
        ));
    }
    if s.cache_hits != hits || s.cache_misses != misses {
        return Err(format!(
            "{} cache hits / {} misses, expected {hits} / {misses}",
            s.cache_hits, s.cache_misses
        ));
    }
    Ok(())
}

/// A cold job: 2 ok cells, 3 misses (2 cells + the baseline), none cached.
fn check_cold(rec: &JobRecord) -> Result<(), String> {
    check_summary(rec, COLD_CELLS.len(), 0, COLD_CELLS.len() as u64 + 1)?;
    if rec.cells.iter().any(|c| c.1 || c.2.is_err()) {
        return Err("a cold cell came from the cache or failed".into());
    }
    Ok(())
}

/// A warm job: every cell a cache hit, bit-equal to its spec's setup.
fn check_warm(rec: &JobRecord, reference: &[BTreeMap<String, CellMetrics>]) -> Result<(), String> {
    let want = &reference[rec.spec];
    check_summary(rec, want.len(), want.len() as u64, 0)?;
    for (label, cached, result) in &rec.cells {
        let ok =
            *cached && matches!((result, want.get(label)), (Ok(got), Some(w)) if same_bits(got, w));
        if !ok {
            return Err(format!("warm cell {label} is not the cached setup result"));
        }
    }
    Ok(())
}

/// Counts the timed jobs and their failed checks into `out`.
fn tally(
    out: &mut Outcome,
    records: &[JobRecord],
    check: &dyn Fn(&JobRecord) -> Result<(), String>,
) {
    for r in records {
        out.attempted += 1;
        if let Err(why) = check(r) {
            out.failed += 1;
            if out.problems.len() < 10 {
                out.problem(format!("job {}: {why}", r.id));
            }
        }
    }
}

/// Fails set-up records into `out.problems` (set-up jobs are not timed
/// operations, but a broken set-up invalidates the run).
fn require(
    out: &mut Outcome,
    what: &str,
    records: &[JobRecord],
    check: &dyn Fn(&JobRecord) -> Result<(), String>,
) {
    for r in records {
        if let Err(why) = check(r) {
            out.problem(format!("{what} job {}: {why}", r.id));
        }
    }
}

// ---------------------------------------------------------------------------
// Workloads

/// A started server plus its connected clients.
struct Stage {
    server: Running,
    clients: Vec<Client>,
    /// Cell results of each warm spec's calibrating submission.
    reference: Vec<BTreeMap<String, CellMetrics>>,
}

impl Stage {
    /// Closes the clients' connections, then stops the server.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.server.stop()
    }
}

fn start_stage<B: SweepBackend>(
    backend: B,
    args: &Args,
    p: &Params,
    warm: bool,
    out: &mut Outcome,
) -> Result<Stage, String> {
    let server = Running::start(backend, &args.state_root).map_err(|e| format!("server: {e}"))?;
    let mut clients = connect_clients(server.addr);
    let mut reference = Vec::new();
    if warm {
        // Calibrate every spec on the full grid, one after another from
        // the first client, so set-up memory does not depend on how two
        // concurrent calibrations interleave.
        let cells = p.warm_cell_count();
        let (cold, _) = closed_loop(&mut clients, &|c, k, _| {
            (c == 0 && k < p.warm_specs).then(|| Submission {
                job: warm_spec(args.seed, k, format!("warm-setup-{k}"), p),
                spec: k,
                cells,
            })
        });
        require(out, "warm set-up", &cold, &|r| {
            check_summary(r, cells, 0, cells as u64 + 1)
        });
        reference = vec![BTreeMap::new(); p.warm_specs];
        for r in &cold {
            for (label, _, result) in &r.cells {
                if let Ok(m) = result {
                    reference[r.spec].insert(label.clone(), *m);
                }
            }
        }
        let (warmups, _) = closed_loop(&mut clients, &|c, n, _| {
            let k = c % p.warm_specs;
            (n == 0).then(|| Submission {
                job: warm_spec(args.seed, k, format!("warm-warmup-{c}"), p),
                spec: k,
                cells,
            })
        });
        require(out, "warm-up", &warmups, &|r| check_warm(r, &reference));
    } else {
        let (warmups, _) = closed_loop(&mut clients, &|c, n, _| {
            (n == 0).then(|| Submission {
                job: cold_warmup(args.seed, c, p),
                spec: 0,
                cells: COLD_CELLS.len(),
            })
        });
        require(out, "warm-up", &warmups, &check_cold);
    }
    Ok(Stage {
        server,
        clients,
        reference,
    })
}

/// What one timed phase measured.
struct Phase {
    records: Vec<JobRecord>,
    start: Instant,
    wall: Duration,
    journal_bytes: u64,
    baseline_bytes: u64,
}

fn timed_phase(stage: &mut Stage, args: &Args, p: &Params, warm: bool) -> Phase {
    let (j0, b0) = stage.server.state_bytes();
    let (records, start) = if warm {
        let cells = p.warm_cell_count();
        let specs = p.warm_specs;
        let seed = args.seed;
        let seconds = args.seconds;
        closed_loop(&mut stage.clients, &move |c, n, start| {
            if start.elapsed() >= seconds {
                return None;
            }
            // Seeded resubmission order, one stream per client.
            let pick = input_seed(seed, ORDER_STREAM + ((c as u64) << 32) + n as u64);
            let k = usize::try_from(pick % specs as u64).unwrap_or(0);
            Some(Submission {
                job: warm_spec(seed, k, format!("warm-{c}-{n}"), p),
                spec: k,
                cells,
            })
        })
    } else {
        let total = p.cold_jobs(args.seconds);
        let next = AtomicUsize::new(0);
        let seed = args.seed;
        closed_loop(&mut stage.clients, &move |_, _, _| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            (i < total).then(|| Submission {
                job: cold_job(seed, i, p),
                spec: 0,
                cells: COLD_CELLS.len(),
            })
        })
    };
    let (j1, b1) = stage.server.state_bytes();
    Phase {
        wall: start.elapsed(),
        records,
        start,
        journal_bytes: j1.saturating_sub(j0),
        baseline_bytes: b1.saturating_sub(b0),
    }
}

fn phase_check(
    out: &mut Outcome,
    phase: &Phase,
    reference: &[BTreeMap<String, CellMetrics>],
    warm: bool,
) {
    if warm {
        tally(out, &phase.records, &|r| check_warm(r, reference));
    } else {
        tally(out, &phase.records, &check_cold);
    }
}

/// One cold job's cells must be bit-equal to calling the backend
/// directly.
fn direct_check(out: &mut Outcome, args: &Args, p: &Params, phase: &Phase) {
    let Some(rec) = phase.records.iter().find(|r| r.failure.is_none()) else {
        return;
    };
    let Some(i) = rec
        .id
        .strip_prefix("cold-")
        .and_then(|s| s.parse::<usize>().ok())
    else {
        return;
    };
    let job = cold_job(args.seed, i, p);
    let backend = SimulatorBackend;
    let baseline = match backend.calibrate(&job) {
        Ok(b) => b,
        Err((code, detail)) => {
            out.failed += 1;
            out.problem(format!(
                "direct calibrate of {}: {}: {detail}",
                job.id,
                code.as_str()
            ));
            return;
        }
    };
    for (label, _, result) in &rec.cells {
        let direct = backend.run_cell(&baseline, label, &CancelToken::new());
        let equal = matches!((&direct, result), (Ok(d), Ok(s)) if same_bits(d, s));
        if !equal {
            out.failed += 1;
            out.problem(format!(
                "job {} cell {label}: server result differs from a direct run",
                rec.id
            ));
        }
    }
}

fn latencies(records: &[JobRecord]) -> Vec<f64> {
    records.iter().map(JobRecord::latency_ms).collect()
}

/// Completion rates (jobs/s) of the timed phase cut into [`BATCHES`]
/// equal batches of completed jobs, in completion order: a stall of the
/// host during one batch moves one rate, not the median.
fn batch_rates(phase: &Phase) -> Vec<f64> {
    let mut ends: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| (r.end - phase.start).as_secs_f64())
        .collect();
    ends.sort_by(f64::total_cmp);
    let n = ends.len();
    let batches = BATCHES.min(n);
    let mut rates = Vec::with_capacity(batches);
    let (mut done, mut at) = (0, 0.0);
    for k in 1..=batches {
        let upto = k * n / batches;
        let t = ends[upto - 1];
        rates.push((upto - done) as f64 / (t - at).max(1e-9));
        (done, at) = (upto, t);
    }
    rates
}

fn e2e_metrics(out: &mut Outcome, setup: &[f64], peak_rss_mb: f64, phase: &Phase) {
    let lat = latencies(&phase.records);
    let ok = phase.records.iter().filter(|r| r.failure.is_none()).count();
    let wall = phase.wall.as_secs_f64();
    out.metric(
        Metric::new("setup_s", "s", median(setup).unwrap_or(0.0), setup.len())
            .note("fresh server + state dir, set-up jobs, one warm-up job per client"),
    );
    out.metric(
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1)
            .note("VmHWM over the first set-up and the timed phase"),
    );
    out.metric(
        Metric::new(
            "latency_p50_ms",
            "ms",
            median(&lat).unwrap_or(0.0),
            lat.len(),
        )
        .note("serve_p50_ms: submit -> done per job"),
    );
    let rates = batch_rates(phase);
    out.metric(
        Metric::new(
            "throughput_per_s",
            "1/s",
            median(&rates).unwrap_or(0.0),
            rates.len(),
        )
        .note(format!(
            "serve_jobs_per_s: median of {} equal batches; {ok} completed jobs / {wall:.3} s = {:.4}",
            rates.len(),
            ok as f64 / wall.max(1e-9)
        )),
    );
    match percentile(&lat, 90) {
        Some(v) => out
            .lines
            .push(format!("serve_p90_ms {v:.4} ms n={}", lat.len())),
        None => out.lines.push(format!(
            "serve_p90_ms not reported: {} samples leave fewer than 10 beyond it",
            lat.len()
        )),
    }
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// A description of a server start-up failure.
pub fn run(args: &Args, p: &Params, warm: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut stage = start_stage(SimulatorBackend, args, p, warm, &mut out)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let phase = timed_phase(&mut stage, args, p, warm);
    // Read before the repeated set-ups below, so their freed-but-retained
    // heap never shows in the peak.
    let peak_rss_mb = sys::peak_rss_mb();
    phase_check(&mut out, &phase, &stage.reference, warm);
    stage.stop()?;
    for _ in 1..p.setups {
        let t = Instant::now();
        let again = start_stage(SimulatorBackend, args, p, warm, &mut out)?;
        setup.push(t.elapsed().as_secs_f64());
        again.stop()?;
    }
    e2e_metrics(&mut out, &setup, peak_rss_mb, &phase);
    if !warm {
        direct_check(&mut out, args, p, &phase);
    }
    Ok(out)
}

/// `SimulatorBackend` with a span around every call the server makes.
pub struct TimingBackend {
    inner: SimulatorBackend,
    tracer: Arc<Tracer>,
}

impl SweepBackend for TimingBackend {
    type Baseline = ServeBaseline;

    fn plan(&self, job: &JobSpec) -> Result<JobPlan, (ErrorCode, String)> {
        let t = Instant::now();
        let r = self.inner.plan(job);
        self.tracer
            .record("serve.plan", None, &job.id, t, Instant::now());
        r
    }

    fn calibrate(&self, job: &JobSpec) -> Result<ServeBaseline, (ErrorCode, String)> {
        let t = Instant::now();
        let r = self.inner.calibrate(job);
        self.tracer
            .record("serve.calibrate", None, &job.id, t, Instant::now());
        r
    }

    fn run_cell(
        &self,
        baseline: &ServeBaseline,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<CellMetrics, CellFailure> {
        let t = Instant::now();
        let r = self.inner.run_cell(baseline, label, cancel);
        self.tracer
            .record("serve.cell", None, label, t, Instant::now());
        r
    }

    fn encode_baseline(&self, job: &JobSpec, baseline: &ServeBaseline) -> Option<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.encode_baseline(job, baseline);
        self.tracer
            .record("serve.encode_baseline", None, &job.id, t, Instant::now());
        r
    }

    fn decode_baseline(&self, bytes: &[u8]) -> Option<ServeBaseline> {
        self.inner.decode_baseline(bytes)
    }
}

/// Client-side spans of each timed job: the job, and its admission,
/// first-cell wait, cell stream and done gap as children.
fn job_spans(tracer: &Tracer, records: &[JobRecord]) {
    for r in records.iter().filter(|r| r.failure.is_none()) {
        let job = tracer.record("serve.job", None, &r.id, r.submit, r.end);
        let (Some(adm), Some(first), Some(last)) = (r.admitted, r.first_cell, r.last_cell) else {
            continue;
        };
        tracer.record("serve.admit", Some(job), &r.id, r.submit, adm);
        tracer.record("serve.first_cell", Some(job), &r.id, adm, first);
        tracer.record("serve.cells_stream", Some(job), &r.id, first, last);
        tracer.record("serve.done_gap", Some(job), &r.id, last, r.end);
    }
}

/// Median duration (ms) of the spans called `name` that start at or
/// after `from`.
fn span_median_ms(tracer: &Tracer, name: &str, from_ns: u64) -> (f64, usize) {
    let d: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.start_ns >= from_ns)
        .map(|s| s.secs() * 1e3)
        .collect();
    (median(&d).unwrap_or(0.0), d.len())
}

/// The traced run: per-layer metrics.
///
/// # Errors
///
/// A description of a server start-up or isolated-pass failure.
pub fn run_traced(
    args: &Args,
    p: &Params,
    warm: bool,
    tracer: &Arc<Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Untraced timed phase first: the baseline for the tracing overhead.
    let mut stage = start_stage(SimulatorBackend, args, p, warm, &mut out)?;
    let untraced = timed_phase(&mut stage, args, p, warm);
    phase_check(&mut out, &untraced, &stage.reference, warm);
    stage.stop()?;

    let backend = TimingBackend {
        inner: SimulatorBackend,
        tracer: Arc::clone(tracer),
    };
    let mut stage = start_stage(backend, args, p, warm, &mut out)?;
    let from_ns = tracer.ns(Instant::now());
    let phase = timed_phase(&mut stage, args, p, warm);
    phase_check(&mut out, &phase, &stage.reference, warm);
    job_spans(tracer, &phase.records);
    stage.stop()?;

    for (name, metric) in [
        ("serve.plan", "serve.plan_ms"),
        ("serve.calibrate", "serve.calibrate_ms"),
        ("serve.cell", "serve.cell_ms"),
        ("serve.encode_baseline", "serve.encode_baseline_ms"),
        ("serve.admit", "serve.admit_ms"),
        ("serve.first_cell", "serve.first_cell_ms"),
        ("serve.cells_stream", "serve.cells_stream_ms"),
        ("serve.done_gap", "serve.done_gap_ms"),
    ] {
        let (v, n) = span_median_ms(tracer, name, from_ns);
        out.metric(Metric::new(metric, "ms", v, n).note("median over the traced timed phase"));
    }
    let (hits, lookups) = phase
        .records
        .iter()
        .filter_map(|r| r.summary.as_ref())
        .fold((0u64, 0u64), |(h, l), s| {
            (h + s.cache_hits, l + s.cache_hits + s.cache_misses)
        });
    out.metric(Metric::new(
        "serve.cache_hit_rate",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
        count(lookups),
    ));
    let jobs = phase
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .count()
        .max(1) as f64;
    out.metric(
        Metric::new(
            "store.journal_bytes_per_job",
            "B",
            phase.journal_bytes as f64 / jobs,
            phase.records.len(),
        )
        .note("journal.log growth over the timed phase"),
    );
    out.metric(
        Metric::new(
            "store.baseline_bytes_per_job",
            "B",
            phase.baseline_bytes as f64 / jobs,
            phase.records.len(),
        )
        .note("baselines.log growth over the timed phase"),
    );
    let traced_p50 = median(&latencies(&phase.records)).unwrap_or(0.0);
    let untraced_p50 = median(&latencies(&untraced.records)).unwrap_or(0.0);
    out.metric(
        Metric::new(
            "perfbench.trace_overhead_frac",
            "ratio",
            traced_p50 / untraced_p50.max(1e-9) - 1.0,
            phase.records.len(),
        )
        .note(format!(
            "traced p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms"
        )),
    );

    // Isolated passes on the workload's own input: the first cold job's,
    // or the first warm spec's, recorded and calibrated directly.
    let job = if warm {
        warm_spec(args.seed, 0, "warm-input".into(), p)
    } else {
        cold_job(args.seed, 0, p)
    };
    let mix = Mix::by_name(&job.mix).map_err(|e| e.to_string())?;
    let cfg = job_config(&job);
    let (trace, exp) = layers::record_input(&mix, &cfg, job.margin_pct, Some(tracer), &job.id)?;
    let input = Input {
        mix: &mix,
        cfg: &cfg,
        trace: &trace,
        exp: &exp,
    };
    let costs = layers::measure(&input, tracer, &job.id)?;
    let stats = layers::CellStats::of(&[&costs.cursor_run]);
    layers::layer_metrics(&mut out, &costs, &stats, sys::peak_rss_mb(), tracer);
    Ok(out)
}
