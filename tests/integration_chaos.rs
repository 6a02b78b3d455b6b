//! Chaos-hardening tests of the sweep server (DESIGN.md §14).
//!
//! A stub backend with controllable cell behaviour — instant, slow but
//! cancellation-aware, stuck (ignores its token), or failing — drives the
//! serving layer through the failure modes the chaos harness cares about:
//! job deadlines, the per-cell watchdog, client disconnects between
//! `admitted` and `done`, seeded wire-level fault injection, and graceful
//! drain on shutdown. Every test asserts the invariant the harness
//! enforces in CI: jobs terminate as a complete result or a structured
//! error, and no admission slot outlives its job.

use memscale_serve::loadgen::{self, LoadgenConfig};
use memscale_serve::server::{JobPlan, ServerConfig, SweepBackend, SweepServer};
use memscale_serve::wire::{Connection, Response};
use memscale_serve::{open_flood, ChaosConfig, ChaosProxy};
use memscale_types::serve::{CellFailure, CellMetrics, DoneReason, ErrorCode, JobSpec};
use memscale_types::CancelToken;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A backend whose cells run a scripted behaviour per policy label:
/// `quick` completes instantly, `slow` works ~300 ms while polling its
/// cancellation token, `stuck` sleeps 400 ms ignoring the token (the
/// watchdog's prey), `boom` fails structurally, and `panic` kills its
/// worker job before it can report.
struct ChaosStub;

fn metrics() -> CellMetrics {
    CellMetrics {
        memory_savings: 0.2,
        system_savings: 0.1,
        cpi_increase_avg: 0.02,
        cpi_increase_max: 0.05,
        mean_frequency_mhz: 400.0,
        p99_ms: None,
        slo_violations: None,
    }
}

impl SweepBackend for ChaosStub {
    type Baseline = ();

    fn plan(&self, job: &JobSpec) -> Result<JobPlan, (ErrorCode, String)> {
        let cells = if job.policies.is_empty() {
            vec!["quick".to_string()]
        } else {
            job.policies.clone()
        };
        Ok(JobPlan {
            fingerprint: job.duration_ms ^ job.seed.unwrap_or(0),
            trace_crc: job.mix.bytes().map(u32::from).sum(),
            cells,
        })
    }

    fn calibrate(&self, _job: &JobSpec) -> Result<(), (ErrorCode, String)> {
        Ok(())
    }

    fn run_cell(
        &self,
        (): &(),
        label: &str,
        cancel: &CancelToken,
    ) -> Result<CellMetrics, CellFailure> {
        match label {
            "quick" => Ok(metrics()),
            "slow" => {
                let until = Instant::now() + Duration::from_millis(300);
                while Instant::now() < until {
                    if cancel.is_cancelled() {
                        return Err(CellFailure::new(
                            ErrorCode::Cancelled,
                            "cell observed cancellation and stopped",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(metrics())
            }
            "stuck" => {
                // Deliberately ignores the token: the watchdog must
                // abandon this cell, not wait for it.
                std::thread::sleep(Duration::from_millis(400));
                Ok(metrics())
            }
            "boom" => Err(CellFailure::sim("scripted failure")),
            "panic" => panic!("scripted worker death"),
            other => Err(CellFailure::new(
                ErrorCode::UnknownPolicy,
                format!("unknown scripted cell {other}"),
            )),
        }
    }
}

fn spawn_server(cfg: ServerConfig) -> std::net::SocketAddr {
    let server = SweepServer::bind("127.0.0.1:0", cfg, ChaosStub).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = server.run();
    });
    addr
}

fn connect(addr: std::net::SocketAddr) -> Connection {
    Connection::open(&addr.to_string(), 0, 0).expect("connect")
}

/// Reads responses until `done` or `error`.
fn read_job(conn: &mut Connection) -> Vec<Response> {
    let mut responses = Vec::new();
    loop {
        let resp = conn
            .next_response()
            .expect("server hung up mid-job")
            .expect("decodable response");
        let terminal = matches!(resp, Response::Done { .. } | Response::Error { .. });
        responses.push(resp);
        if terminal {
            return responses;
        }
    }
}

/// Submits one job and reads its responses until `done` or `error`.
fn submit(conn: &mut Connection, job: &JobSpec) -> Vec<Response> {
    conn.submit(job).expect("write job");
    read_job(conn)
}

/// Submits one job and reads its `admitted` line.
fn submit_admitted(conn: &mut Connection, job: &JobSpec) {
    conn.submit(job).expect("write job");
    let first = conn.next_response().expect("read admitted");
    assert!(matches!(first, Ok(Response::Admitted { .. })), "{first:?}");
}

fn job_with(id: &str, policies: &[&str]) -> JobSpec {
    let mut job = JobSpec::for_mix(id, "MID1");
    job.policies = policies.iter().map(|s| (*s).to_string()).collect();
    job
}

#[test]
fn deadline_cancels_slow_cells_and_reports_deadline_reason() {
    let addr = spawn_server(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(addr);
    let mut job = job_with("d1", &["slow", "slow"]);
    job.deadline_ms = Some(60);
    let responses = submit(&mut conn, &job);
    assert!(matches!(&responses[0], Response::Admitted { cells: 2, .. }));
    let cancelled = responses
        .iter()
        .filter(|r| {
            matches!(r, Response::Cell { outcome, .. }
                if matches!(&outcome.result, Err(f) if f.code == ErrorCode::Cancelled))
        })
        .count();
    assert_eq!(cancelled, 2, "both slow cells cancelled: {responses:?}");
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!(summary.reason, DoneReason::Deadline);
            assert_eq!((summary.ok, summary.failed), (0, 2));
        }
        other => panic!("expected done, got {other:?}"),
    }

    // The connection survives a deadline-missed job.
    let responses = submit(&mut conn, &job_with("d2", &["quick"]));
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!(summary.reason, DoneReason::Complete);
            assert_eq!(summary.ok, 1);
        }
        other => panic!("expected done, got {other:?}"),
    }
}

/// With one worker and a one-slot cell queue, the first stuck cell runs,
/// the second waits in the queue, the submit of the third gives up at the
/// deadline, and the fourth is never submitted. All four come back as
/// `cancelled` cells of a `done{reason:"deadline"}` job.
#[test]
fn deadline_during_scheduling_cancels_queued_and_unscheduled_cells() {
    let addr = spawn_server(ServerConfig {
        threads: 1,
        cell_queue: 1,
        ..ServerConfig::default()
    });
    let mut conn = connect(addr);
    let mut job = job_with("s1", &["stuck", "stuck", "stuck", "stuck"]);
    job.deadline_ms = Some(50);
    let responses = submit(&mut conn, &job);
    let cancelled = responses
        .iter()
        .filter(|r| {
            matches!(r, Response::Cell { outcome, .. }
                if matches!(&outcome.result, Err(f) if f.code == ErrorCode::Cancelled))
        })
        .count();
    assert_eq!(cancelled, 4, "every cell cancelled: {responses:?}");
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!(summary.reason, DoneReason::Deadline);
            assert_eq!((summary.ok, summary.failed), (0, 4));
        }
        other => panic!("expected done, got {other:?}"),
    }
}

/// A cell whose worker dies without reporting (a panicking backend) is
/// surfaced as a structured `internal` failure; its sibling still lands.
#[test]
fn dead_worker_is_reported_as_an_internal_cell_failure() {
    let addr = spawn_server(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut conn = connect(addr);
    let responses = submit(&mut conn, &job_with("p1", &["quick", "panic"]));
    for r in &responses {
        if let Response::Cell { outcome, .. } = r {
            match (outcome.label.as_str(), &outcome.result) {
                ("quick", Ok(_)) => {}
                ("panic", Err(f)) => assert_eq!(f.code, ErrorCode::Internal, "{f}"),
                other => panic!("unexpected cell {other:?}"),
            }
        }
    }
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => assert_eq!((summary.ok, summary.failed), (1, 1)),
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn watchdog_abandons_stuck_cell_without_poisoning_siblings_or_cache() {
    let addr = spawn_server(ServerConfig {
        threads: 2,
        cell_timeout_ms: 80,
        ..ServerConfig::default()
    });
    let mut conn = connect(addr);
    let responses = submit(&mut conn, &job_with("w1", &["stuck", "quick"]));
    let mut timed_out = 0;
    let mut ok = 0;
    for r in &responses {
        if let Response::Cell { outcome, .. } = r {
            match &outcome.result {
                Ok(_) => {
                    ok += 1;
                    assert_eq!(outcome.label, "quick");
                }
                Err(f) => {
                    timed_out += 1;
                    assert_eq!(outcome.label, "stuck");
                    assert_eq!(f.code, ErrorCode::CellTimeout);
                    assert!(f.detail.contains("watchdog"), "{f}");
                }
            }
        }
    }
    assert_eq!((ok, timed_out), (1, 1), "{responses:?}");
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!((summary.ok, summary.failed), (1, 1));
            assert_eq!(summary.reason, DoneReason::Complete);
        }
        other => panic!("expected done, got {other:?}"),
    }

    // Let the abandoned worker finish in the background, then resubmit:
    // its late result must not have been cached.
    std::thread::sleep(Duration::from_millis(500));
    let responses = submit(&mut conn, &job_with("w2", &["stuck", "quick"]));
    let stuck_cached = responses.iter().any(
        |r| matches!(r, Response::Cell { outcome, .. } if outcome.label == "stuck" && outcome.cached),
    );
    assert!(!stuck_cached, "abandoned cell leaked into cache");
}

/// Satellite 1 regression: a client that disconnects between `admitted`
/// and `done` must release its admission slot; with `queue_depth: 1` the
/// next job would otherwise be `overloaded` forever.
#[test]
fn client_disconnect_mid_job_releases_admission_slot() {
    let addr = spawn_server(ServerConfig {
        queue_depth: 1,
        threads: 2,
        ..ServerConfig::default()
    });
    // The client dies mid-job: its connection drops after `admitted`.
    submit_admitted(&mut connect(addr), &job_with("gone", &["slow"]));
    // The slot must come back once the server notices the dead socket.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut conn = connect(addr);
        let responses = submit(&mut conn, &job_with("next", &["quick"]));
        match responses.last().expect("non-empty") {
            Response::Done { .. } => break,
            Response::Error { code, .. } if *code == ErrorCode::Overloaded => {
                assert!(
                    Instant::now() < deadline,
                    "admission slot leaked after client disconnect"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
            other => panic!("expected done or overloaded, got {other:?}"),
        }
    }
}

#[test]
fn seeded_chaos_run_keeps_every_job_accounted_and_admission_correct() {
    let addr = spawn_server(ServerConfig {
        queue_depth: 8,
        threads: 4,
        ..ServerConfig::default()
    });
    let mut chaos_cfg = ChaosConfig::new(addr.to_string(), 0xC0FFEE);
    chaos_cfg.torn_frame = 0.25;
    chaos_cfg.drop_frame = 0.10;
    chaos_cfg.disconnect = 0.15;
    chaos_cfg.stall = 0.20;
    chaos_cfg.stall_ms = 10;
    let proxy = ChaosProxy::bind("127.0.0.1:0", chaos_cfg).expect("bind proxy");
    let handle = proxy.spawn().expect("spawn proxy");
    let proxy_addr = handle.addr().to_string();
    let flood = open_flood(&proxy_addr, 8);

    let mut cfg = LoadgenConfig::new(proxy_addr, 6, 3, job_with("job", &["quick", "boom"]));
    cfg.seed = 0xC0FFEE;
    cfg.read_timeout_ms = 2_000;
    let stats = loadgen::run(&cfg).expect("loadgen through proxy");
    drop(flood);
    let report = handle.stop();

    assert!(
        report.total_injected() > 0,
        "no faults injected: {report:?}"
    );
    assert_eq!(
        stats.jobs_accounted(),
        18,
        "every job must terminate exactly once: {stats:?}"
    );
    assert_eq!(
        stats.protocol_errors, 0,
        "server emitted a protocol violation under chaos: {stats:?}"
    );

    // Admission-correctness probe: a clean job straight at the server.
    std::thread::sleep(Duration::from_millis(200));
    let probe = LoadgenConfig::new(addr.to_string(), 1, 1, job_with("probe", &["quick"]));
    let probe_stats = loadgen::run(&probe).expect("post-chaos probe");
    assert_eq!(probe_stats.jobs_ok, 1, "slots leaked: {probe_stats:?}");
}

#[test]
fn sigterm_drain_finishes_in_flight_cells_and_rejects_new_jobs() {
    let cfg = ServerConfig {
        threads: 2,
        drain_timeout_ms: 5_000,
        ..ServerConfig::default()
    };
    let server = SweepServer::bind("127.0.0.1:0", cfg, ChaosStub).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let runner = std::thread::spawn(move || server.run_with_shutdown(&flag));

    // Both connections exist before the shutdown signal.
    let mut in_flight = connect(addr);
    let mut late = connect(addr);
    submit_admitted(&mut in_flight, &job_with("drain", &["slow"]));

    shutdown.store(true, Ordering::Release);
    std::thread::sleep(Duration::from_millis(100));

    // A pre-existing connection submitting now is turned away.
    let responses = submit(&mut late, &job_with("late", &["quick"]));
    match &responses[0] {
        Response::Error { code, detail, .. } => {
            assert_eq!(*code, ErrorCode::Draining);
            assert!(detail.contains("draining"), "{detail}");
        }
        other => panic!("expected draining error, got {other:?}"),
    }

    // The in-flight job still completes — its cell is not cancelled.
    let responses = read_job(&mut in_flight);
    match responses.last().expect("non-empty") {
        Response::Done { summary, .. } => {
            assert_eq!((summary.ok, summary.failed), (1, 0));
            assert_eq!(summary.reason, DoneReason::Draining);
        }
        other => panic!("expected done, got {other:?}"),
    }

    drop((in_flight, late));
    let result = runner.join().expect("accept thread joins");
    assert!(result.is_ok(), "drain exit must be clean: {result:?}");
}
