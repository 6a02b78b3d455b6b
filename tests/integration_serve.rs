//! End-to-end tests of the sweep-job server over real TCP sockets.
//!
//! The backend here is a deterministic stub (cells either "work" in a few
//! microseconds or fail on demand), so these tests exercise the serving
//! layer — protocol framing, admission control, cache behaviour, error
//! codes, the load generator — without paying for simulation. The
//! simulator-backed path is covered by `memscale_simulator::service` unit
//! tests and the CI `serve-smoke` job.

use memscale_serve::loadgen::{self, LoadgenConfig};
use memscale_serve::server::{JobPlan, ServerConfig, SweepBackend, SweepServer};
use memscale_serve::wire::{encode_job, Connection, Response};
use memscale_types::serve::{CellFailure, CellMetrics, ErrorCode, JobSpec};
use memscale_types::CancelToken;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A backend whose "simulation" is instant and deterministic. A policy
/// named `boom` fails its cell; a mix named `nope` fails planning; the
/// calibration counter exposes how many baselines were actually built.
/// Baselines persist as their 8 bytes, and decoding one back takes
/// `decode_ms`.
#[derive(Default)]
struct StubBackend {
    calibrations: AtomicUsize,
    /// Milliseconds each persisted baseline takes to decode.
    decode_ms: u64,
    /// Persisted baselines decoded so far.
    decoded: AtomicUsize,
}

/// Local newtype so the foreign trait can be implemented for a shared stub
/// (tests keep a second `Arc` handle to inspect the counters).
struct Stub(Arc<StubBackend>);

impl SweepBackend for Stub {
    type Baseline = u64;

    fn plan(&self, job: &JobSpec) -> Result<JobPlan, (ErrorCode, String)> {
        if job.mix == "nope" {
            return Err((
                ErrorCode::UnknownMix,
                "unknown mix nope; valid mixes: MEM1 MID1 ILP1".into(),
            ));
        }
        let cells = if job.policies.is_empty() {
            vec!["static:800".to_string(), "memscale".to_string()]
        } else {
            job.policies.clone()
        };
        // Fingerprint the knobs a real backend's SimConfig would cover.
        let fingerprint = job.duration_ms ^ (job.seed.unwrap_or(0).rotate_left(17));
        let trace_crc = job.mix.bytes().map(u32::from).sum();
        Ok(JobPlan {
            fingerprint,
            trace_crc,
            cells,
        })
    }

    fn calibrate(&self, job: &JobSpec) -> Result<u64, (ErrorCode, String)> {
        self.0.calibrations.fetch_add(1, Ordering::Relaxed);
        if job.mix == "uncalibratable" {
            return Err((ErrorCode::Sim, "baseline run stalled".into()));
        }
        Ok(job.duration_ms)
    }

    fn run_cell(
        &self,
        baseline: &u64,
        label: &str,
        _cancel: &CancelToken,
    ) -> Result<CellMetrics, CellFailure> {
        if label == "boom" {
            return Err(CellFailure::sim("trace exhausted on app 3"));
        }
        #[allow(clippy::cast_precision_loss)]
        let f = *baseline as f64;
        Ok(CellMetrics {
            memory_savings: 0.2,
            system_savings: 0.1,
            cpi_increase_avg: 0.02,
            cpi_increase_max: 0.05,
            mean_frequency_mhz: 400.0 + f,
            p99_ms: None,
            slo_violations: None,
        })
    }

    fn encode_baseline(&self, _job: &JobSpec, baseline: &u64) -> Option<Vec<u8>> {
        Some(baseline.to_le_bytes().to_vec())
    }

    fn decode_baseline(&self, bytes: &[u8]) -> Option<u64> {
        std::thread::sleep(Duration::from_millis(self.0.decode_ms));
        let baseline = u64::from_le_bytes(bytes.try_into().ok()?);
        self.0.decoded.fetch_add(1, Ordering::SeqCst);
        Some(baseline)
    }
}

fn spawn_server(queue_depth: usize) -> (std::net::SocketAddr, Arc<StubBackend>) {
    let cfg = ServerConfig {
        queue_depth,
        threads: 2,
        cell_queue: 16,
        cache_cap: 64,
        ..ServerConfig::default()
    };
    spawn_server_with(cfg)
}

fn spawn_server_with(cfg: ServerConfig) -> (std::net::SocketAddr, Arc<StubBackend>) {
    let backend = Arc::new(StubBackend::default());
    let server =
        SweepServer::bind("127.0.0.1:0", cfg, Stub(Arc::clone(&backend))).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, backend)
}

/// A temp state directory removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("memscale_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sends one raw line and reads responses until `done` or `error`.
fn submit_raw(conn: &mut Connection, line: &str) -> Vec<Response> {
    conn.send_line(line).expect("write job");
    let mut responses = Vec::new();
    loop {
        let resp = conn
            .next_response()
            .expect("server hung up")
            .expect("decodable response");
        let terminal = matches!(resp, Response::Done { .. } | Response::Error { .. });
        responses.push(resp);
        if terminal {
            return responses;
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Connection {
    Connection::open(&addr.to_string(), 0, 0).expect("connect")
}

#[test]
fn job_streams_admitted_cells_done() {
    let (addr, _) = spawn_server(8);
    let mut conn = connect(addr);
    let mut job = JobSpec::for_mix("j1", "MID1");
    job.policies = vec!["static:800".into(), "memscale".into()];
    let responses = submit_raw(&mut conn, &encode_job(&job));
    assert!(
        matches!(&responses[0], Response::Admitted { id, cells } if id == "j1" && *cells == 2),
        "first line admits: {responses:?}"
    );
    let cells: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Cell { outcome, .. } => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(cells.len(), 2);
    let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    labels.sort_unstable();
    assert_eq!(labels, ["memscale", "static:800"]);
    assert!(cells.iter().all(|c| !c.cached && c.result.is_ok()));
    match responses.last().expect("non-empty") {
        Response::Done { id, summary } => {
            assert_eq!(id, "j1");
            assert_eq!((summary.cells, summary.ok, summary.failed), (2, 2, 0));
            // Cold job: baseline + 2 cells all missed.
            assert_eq!((summary.cache_hits, summary.cache_misses), (0, 3));
            assert!(summary.wall_ms >= 0.0);
        }
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn resubmitted_job_answers_from_cache() {
    let (addr, backend) = spawn_server(8);
    let mut conn = connect(addr);
    let job = JobSpec::for_mix("warm", "MID1");
    let line = encode_job(&job);
    submit_raw(&mut conn, &line);
    let responses = submit_raw(&mut conn, &line);
    let cached_cells = responses
        .iter()
        .filter(|r| matches!(r, Response::Cell { outcome, .. } if outcome.cached))
        .count();
    assert_eq!(
        cached_cells, 2,
        "both cells cached on resubmit: {responses:?}"
    );
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            // Every cell answered from cache, so the baseline is never
            // even looked up: 2 hits, not 3.
            assert_eq!(summary.cache_hits, 2, "2 cells hit, baseline skipped");
            assert_eq!(summary.cache_misses, 0);
            assert_eq!(summary.evictions, 0);
            assert!((summary.hit_rate() - 1.0).abs() < 1e-12);
        }
        other => panic!("expected done, got {other:?}"),
    }
    assert_eq!(
        backend.calibrations.load(Ordering::Relaxed),
        1,
        "second job reuses the cached baseline"
    );
}

#[test]
fn moved_knob_reuses_nothing() {
    let (addr, backend) = spawn_server(8);
    let mut conn = connect(addr);
    let mut job = JobSpec::for_mix("k1", "MID1");
    submit_raw(&mut conn, &encode_job(&job));
    job.id = "k2".into();
    job.duration_ms += 1; // moves the fingerprint
    let responses = submit_raw(&mut conn, &encode_job(&job));
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => assert_eq!(summary.cache_hits, 0),
        other => panic!("expected done, got {other:?}"),
    }
    assert_eq!(backend.calibrations.load(Ordering::Relaxed), 2);
}

#[test]
fn failed_cell_reported_in_slot_without_poisoning_siblings() {
    let (addr, _) = spawn_server(8);
    let mut conn = connect(addr);
    let mut job = JobSpec::for_mix("mixed", "MID1");
    job.policies = vec!["static:800".into(), "boom".into()];
    let responses = submit_raw(&mut conn, &encode_job(&job));
    let (mut ok, mut failed) = (0, 0);
    for r in &responses {
        if let Response::Cell { outcome, .. } = r {
            match &outcome.result {
                Ok(_) => ok += 1,
                Err(failure) => {
                    failed += 1;
                    assert_eq!(outcome.label, "boom");
                    assert_eq!(failure.code, ErrorCode::Sim);
                    assert!(failure.detail.contains("exhausted"), "{failure}");
                }
            }
        }
    }
    assert_eq!((ok, failed), (1, 1));
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!((summary.ok, summary.failed), (1, 1));
        }
        other => panic!("expected done, got {other:?}"),
    }

    // A failed cell is not cached: resubmitting re-runs it.
    job.id = "mixed2".into();
    let responses = submit_raw(&mut conn, &encode_job(&job));
    let boom_cached = responses.iter().any(
        |r| matches!(r, Response::Cell { outcome, .. } if outcome.label == "boom" && outcome.cached),
    );
    assert!(!boom_cached);
}

#[test]
fn malformed_line_gets_bad_request() {
    let (addr, _) = spawn_server(8);
    let mut conn = connect(addr);
    let responses = submit_raw(&mut conn, "{\"type\":\"job\"");
    match &responses[0] {
        Response::Error { id, code, .. } => {
            assert_eq!(*code, ErrorCode::BadRequest);
            assert!(id.is_none());
        }
        other => panic!("expected error, got {other:?}"),
    }
    // The connection survives a bad line: a good job still works.
    let job = JobSpec::for_mix("after-bad", "MID1");
    let responses = submit_raw(&mut conn, &encode_job(&job));
    assert!(matches!(responses.last(), Some(Response::Done { .. })));
}

#[test]
fn unknown_mix_error_names_valid_mixes() {
    let (addr, _) = spawn_server(8);
    let mut conn = connect(addr);
    let job = JobSpec::for_mix("m1", "nope");
    let responses = submit_raw(&mut conn, &encode_job(&job));
    match &responses[0] {
        Response::Error {
            id, code, detail, ..
        } => {
            assert_eq!(id.as_deref(), Some("m1"));
            assert_eq!(*code, ErrorCode::UnknownMix);
            assert!(detail.contains("MID1"), "lists valid mixes: {detail}");
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn calibration_failure_is_structured() {
    let (addr, _) = spawn_server(8);
    let mut conn = connect(addr);
    let job = JobSpec::for_mix("c1", "uncalibratable");
    let responses = submit_raw(&mut conn, &encode_job(&job));
    assert!(matches!(&responses[0], Response::Admitted { .. }));
    match responses.last().expect("non-empty") {
        Response::Error { id, code, .. } => {
            assert_eq!(id.as_deref(), Some("c1"));
            assert_eq!(*code, ErrorCode::Sim);
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn zero_depth_server_rejects_with_structured_overloaded() {
    let (addr, _) = spawn_server(0);
    let mut conn = connect(addr);
    let job = JobSpec::for_mix("o1", "MID1");
    let responses = submit_raw(&mut conn, &encode_job(&job));
    match &responses[0] {
        Response::Error {
            id,
            code,
            depth,
            limit,
            ..
        } => {
            assert_eq!(id.as_deref(), Some("o1"));
            assert_eq!(*code, ErrorCode::Overloaded);
            assert_eq!(*limit, Some(0));
            assert!(depth.is_some());
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
}

#[test]
fn overflowing_cache_reports_evictions_in_done() {
    let cfg = ServerConfig {
        queue_depth: 8,
        threads: 2,
        cell_queue: 16,
        cache_cap: 2,
        ..ServerConfig::default()
    };
    let (addr, _) = spawn_server_with(cfg);
    let mut conn = connect(addr);
    let mut job = JobSpec::for_mix("e1", "MID1");
    submit_raw(&mut conn, &encode_job(&job));
    job.id = "e2".into();
    job.duration_ms += 1; // new fingerprint: 2 fresh cells displace e1's
    let responses = submit_raw(&mut conn, &encode_job(&job));
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!(summary.evictions, 2, "e1's two cells evicted: {summary:?}");
        }
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn state_dir_server_restarts_with_warm_cell_cache() {
    let scratch = ScratchDir::new("state");
    let cfg = ServerConfig {
        queue_depth: 8,
        threads: 2,
        cell_queue: 16,
        cache_cap: 64,
        state_dir: Some(scratch.0.clone()),
        ..ServerConfig::default()
    };
    let (addr, first_backend) = spawn_server_with(cfg.clone());
    let mut conn = connect(addr);
    let job = JobSpec::for_mix("durable", "MID1");
    let line = encode_job(&job);
    let responses = submit_raw(&mut conn, &line);
    assert!(matches!(responses.last(), Some(Response::Done { .. })));
    assert_eq!(first_backend.calibrations.load(Ordering::Relaxed), 1);
    drop(conn);

    // A second server over the same state dir replays the journal: the
    // resubmitted job answers every cell from the recovered cache without
    // a single calibration.
    let (addr2, second_backend) = spawn_server_with(cfg);
    let mut conn = connect(addr2);
    let responses = submit_raw(&mut conn, &line);
    let cached_cells = responses
        .iter()
        .filter(|r| matches!(r, Response::Cell { outcome, .. } if outcome.cached))
        .count();
    assert_eq!(cached_cells, 2, "recovered cells serve warm: {responses:?}");
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!((summary.cache_hits, summary.cache_misses), (2, 0));
        }
        other => panic!("expected done, got {other:?}"),
    }
    assert_eq!(
        second_backend.calibrations.load(Ordering::Relaxed),
        0,
        "warm restart never recalibrates"
    );
}

/// A restarted server listens only once it has recovered: with a
/// persisted baseline that takes 50 ms to decode, no connect to its
/// address succeeds before the decode has ended, so a client's first
/// connect times the whole recovery.
#[test]
fn restarted_server_listens_only_after_decoding_its_baselines() {
    let scratch = ScratchDir::new("listen_after_recovery");
    let cfg = ServerConfig {
        queue_depth: 8,
        threads: 2,
        cell_queue: 16,
        cache_cap: 64,
        state_dir: Some(scratch.0.clone()),
        ..ServerConfig::default()
    };
    let (first, _) = spawn_server_with(cfg.clone());
    let line = encode_job(&JobSpec::for_mix("persisted", "MID1"));
    let responses = submit_raw(&mut connect(first), &line);
    assert!(matches!(responses.last(), Some(Response::Done { .. })));

    // The restart's address is known before it binds.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let backend = Arc::new(StubBackend {
        decode_ms: 50,
        ..StubBackend::default()
    });
    let restart = {
        let (addr, backend) = (addr.clone(), Arc::clone(&backend));
        std::thread::spawn(move || SweepServer::bind(&addr, cfg, Stub(backend)))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(&addr).is_err() {
        assert!(Instant::now() < deadline, "the restart never listened");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        backend.decoded.load(Ordering::SeqCst),
        1,
        "a connect succeeded before the persisted baseline was decoded"
    );
    let server = restart.join().unwrap().expect("the restart binds");
    let report = server.recovery_report().expect("a state dir was replayed");
    assert_eq!(report.baselines_recovered, 1);
}

#[test]
fn loadgen_fleet_completes_with_zero_protocol_errors() {
    let (addr, _) = spawn_server(8);
    let cfg = LoadgenConfig::new(addr.to_string(), 4, 3, JobSpec::for_mix("job", "MID1"));
    let stats = loadgen::run(&cfg).expect("loadgen run");
    assert_eq!(stats.jobs_ok, 12);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.jobs_transport, 0);
    assert_eq!(stats.cells_ok, 24);
    assert!(
        stats.cache_hits > 0,
        "repeated fingerprints hit the cache: {stats:?}"
    );
    assert_eq!(stats.latencies_ms.len(), 12);
    assert!(stats.jobs_per_sec() > 0.0);
    let artifact = stats.to_bench_json(&cfg);
    assert!(artifact.contains("\"protocol_errors\":0"));
}
