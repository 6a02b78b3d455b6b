//! Closed-loop load generator for the sweep server.
//!
//! Spawns `clients` threads, each holding one connection and submitting
//! `jobs_per_client` jobs back to back — a new job is sent only after the
//! previous job's `done` (or error) line arrives, so offered load tracks
//! service rate (closed loop). Per-job latency is measured submit-to-done
//! on the client side; the run report aggregates throughput, latency
//! percentiles, cache behaviour, and protocol health into
//! `BENCH_serve.json`.
//!
//! With `open_loop_rps > 0` the fleet switches to an open loop: the
//! offered rate is split evenly across clients and each client submits
//! on a seeded Poisson arrival schedule ([`memscale_arrivals`]) instead
//! of waiting for the previous completion — a submission whose slot has
//! already passed goes out immediately, so a saturated server shows up
//! as achieved throughput falling below the offered rate rather than as
//! a silently throttled schedule.
//!
//! The client side is chaos-hardened to match the server (DESIGN.md §14):
//! connects and reads are bounded by timeouts, `overloaded` rejections are
//! retried with exponential backoff plus seeded jitter, a connection that
//! dies mid-job is replaced for the next attempt, and the report separates
//! *transport* failures (expected under fault injection) from *protocol*
//! violations (never acceptable — the server sent a malformed or
//! inconsistent stream).

use crate::wire::{Connection, Response};
use memscale_arrivals::{ArrivalProcess, ArrivalSpec};
use memscale_types::json::Json;
use memscale_types::requests::nearest_rank;
use memscale_types::rng::{SplitMix64, GOLDEN_GAMMA};
use memscale_types::serve::{DoneReason, ErrorCode, JobSpec};
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7119`.
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Jobs each client submits sequentially.
    pub jobs_per_client: usize,
    /// Job template; each submission gets a unique id derived from it.
    pub template: JobSpec,
    /// TCP connect timeout, milliseconds (0 = OS default, unbounded).
    pub connect_timeout_ms: u64,
    /// Socket read/write timeout, milliseconds (0 = unbounded). A job
    /// whose response stream stalls past this is counted as a transport
    /// failure, not left hanging.
    pub read_timeout_ms: u64,
    /// Resubmissions attempted after an `overloaded` rejection before the
    /// job is recorded as overloaded.
    pub max_retries: usize,
    /// Base of the exponential backoff between retries, milliseconds
    /// (doubled per attempt, plus seeded jitter in `[0, backoff)`).
    pub backoff_base_ms: u64,
    /// Extra connection attempts after a failed connect (upfront probe
    /// and per-client reconnects alike), each preceded by the same
    /// seeded-jitter backoff as `overloaded` retries. The default `0`
    /// keeps connection refusal a fail-fast error; set it when the server
    /// is expected to bounce (e.g. the kill-9 recovery smoke test).
    pub reconnect_retries: usize,
    /// Seed of the per-client jitter streams (replayable backoff).
    pub seed: u64,
    /// Total offered arrival rate, requests per second, split evenly
    /// across clients. `0.0` (the default) keeps the classic closed
    /// loop; any positive rate switches every client to a seeded
    /// Poisson submission schedule.
    pub open_loop_rps: f64,
}

impl LoadgenConfig {
    /// A config over `addr` and `template` with the defaults the CLI
    /// uses: 3 s connect timeout, 30 s read timeout, 3 retries on
    /// `overloaded` with 10 ms backoff base.
    pub fn new(
        addr: impl Into<String>,
        clients: usize,
        jobs_per_client: usize,
        template: JobSpec,
    ) -> Self {
        LoadgenConfig {
            addr: addr.into(),
            clients,
            jobs_per_client,
            template,
            connect_timeout_ms: 3_000,
            read_timeout_ms: 30_000,
            max_retries: 3,
            backoff_base_ms: 10,
            reconnect_retries: 0,
            seed: 0x5ca1_ab1e,
            open_loop_rps: 0.0,
        }
    }
}

/// Aggregated outcome of a load-generator run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadgenStats {
    /// Jobs that completed with a `done` line.
    pub jobs_ok: usize,
    /// Jobs still rejected by admission control after every retry.
    pub jobs_overloaded: usize,
    /// Jobs rejected or failed with any other error line.
    pub jobs_failed: usize,
    /// Jobs lost to transport faults (connect/read/write failures,
    /// timeouts, mid-stream disconnects). Expected under chaos; fatal in
    /// a clean run.
    pub jobs_transport: usize,
    /// Malformed or out-of-protocol server lines — content violations
    /// only, never transport noise. Must be zero even under chaos.
    pub protocol_errors: usize,
    /// Resubmissions performed after `overloaded` rejections.
    pub retries: usize,
    /// Jobs whose `done` line carried `reason:"deadline"`.
    pub deadline_misses: usize,
    /// Cells evaluated successfully, summed over `done` lines.
    pub cells_ok: usize,
    /// Cells that failed, summed over `done` lines.
    pub cells_failed: usize,
    /// Cells reported as cooperatively cancelled (code `cancelled`).
    pub cells_cancelled: usize,
    /// Cells abandoned by the server's watchdog (code `cell_timeout`).
    pub cells_timed_out: usize,
    /// Cache hits summed over `done` lines.
    pub cache_hits: u64,
    /// Cache misses summed over `done` lines.
    pub cache_misses: u64,
    /// Cache evictions summed over `done` lines — how much the working
    /// set overflowed the configured `--cache-capacity`.
    pub evictions: u64,
    /// Faults a chaos proxy injected during the run, when one was in the
    /// path (filled in by the chaos orchestrator, not by `run`).
    pub chaos_faults_injected: u64,
    /// Open-loop submissions that went out after their scheduled arrival
    /// instant — the schedule slipped because the previous job on that
    /// client was still in flight. Always zero in closed-loop runs.
    pub late_submissions: usize,
    /// Per-job submit-to-done latencies, milliseconds, unsorted.
    pub latencies_ms: Vec<f64>,
    /// Whole-run wall clock, seconds.
    pub wall_s: f64,
}

impl LoadgenStats {
    /// Completed jobs per second of run wall clock.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            let n = self.jobs_ok as f64;
            n / self.wall_s
        } else {
            0.0
        }
    }

    /// Cache hit rate over all lookups reported by the server, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let rate = self.cache_hits as f64 / total as f64;
            rate
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) of job latency, by nearest-rank on
    /// the sorted sample; `0.0` when no jobs completed.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q).unwrap_or(0.0)
    }

    /// Every job submitted is accounted for exactly once: completed,
    /// overloaded (terminally), failed with a structured error, or lost
    /// to transport. The chaos harness asserts this equals the offered
    /// job count.
    pub fn jobs_accounted(&self) -> usize {
        self.jobs_ok + self.jobs_overloaded + self.jobs_failed + self.jobs_transport
    }

    /// Adds `other`'s counts and latencies to this tally (a client's jobs
    /// into its tally, the clients' tallies into the run's). The wall
    /// clock is the run's own and stays as it is.
    fn absorb(&mut self, other: LoadgenStats) {
        self.jobs_ok += other.jobs_ok;
        self.jobs_overloaded += other.jobs_overloaded;
        self.jobs_failed += other.jobs_failed;
        self.jobs_transport += other.jobs_transport;
        self.protocol_errors += other.protocol_errors;
        self.retries += other.retries;
        self.deadline_misses += other.deadline_misses;
        self.cells_ok += other.cells_ok;
        self.cells_failed += other.cells_failed;
        self.cells_cancelled += other.cells_cancelled;
        self.cells_timed_out += other.cells_timed_out;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.chaos_faults_injected += other.chaos_faults_injected;
        self.late_submissions += other.late_submissions;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Renders the `BENCH_serve.json` artifact (single line, stable field
    /// order).
    pub fn to_bench_json(&self, cfg: &LoadgenConfig) -> String {
        self.to_bench_json_named(cfg, "serve_loadgen")
    }

    /// Same artifact under a caller-chosen benchmark name (the chaos
    /// harness writes `serve_chaos` so its reports never masquerade as a
    /// clean loadgen run).
    pub fn to_bench_json_named(&self, cfg: &LoadgenConfig, benchmark: &str) -> String {
        let obj = Json::Obj(vec![
            ("benchmark".into(), Json::Str(benchmark.into())),
            ("clients".into(), Json::num(cfg.clients.to_string())),
            (
                "jobs_per_client".into(),
                Json::num(cfg.jobs_per_client.to_string()),
            ),
            ("mix".into(), Json::Str(cfg.template.mix.clone())),
            ("jobs_ok".into(), Json::num(self.jobs_ok.to_string())),
            (
                "jobs_overloaded".into(),
                Json::num(self.jobs_overloaded.to_string()),
            ),
            (
                "jobs_failed".into(),
                Json::num(self.jobs_failed.to_string()),
            ),
            (
                "jobs_transport".into(),
                Json::num(self.jobs_transport.to_string()),
            ),
            (
                "protocol_errors".into(),
                Json::num(self.protocol_errors.to_string()),
            ),
            ("retries".into(), Json::num(self.retries.to_string())),
            (
                "deadline_misses".into(),
                Json::num(self.deadline_misses.to_string()),
            ),
            ("cells_ok".into(), Json::num(self.cells_ok.to_string())),
            (
                "cells_failed".into(),
                Json::num(self.cells_failed.to_string()),
            ),
            (
                "cells_cancelled".into(),
                Json::num(self.cells_cancelled.to_string()),
            ),
            (
                "cells_timed_out".into(),
                Json::num(self.cells_timed_out.to_string()),
            ),
            ("cache_hits".into(), Json::num(self.cache_hits.to_string())),
            (
                "cache_misses".into(),
                Json::num(self.cache_misses.to_string()),
            ),
            ("evictions".into(), Json::num(self.evictions.to_string())),
            (
                "cache_hit_rate".into(),
                Json::num(format!("{:.4}", self.cache_hit_rate())),
            ),
            (
                "jobs_per_sec".into(),
                Json::num(format!("{:.3}", self.jobs_per_sec())),
            ),
            ("open_loop".into(), Json::Bool(cfg.open_loop_rps > 0.0)),
            (
                "offered_rps".into(),
                Json::num(format!("{:.3}", cfg.open_loop_rps)),
            ),
            (
                "achieved_rps".into(),
                Json::num(format!("{:.3}", self.jobs_per_sec())),
            ),
            (
                "late_submissions".into(),
                Json::num(self.late_submissions.to_string()),
            ),
            (
                "p50_ms".into(),
                Json::num(format!("{:.3}", self.latency_quantile(0.50))),
            ),
            (
                "p99_ms".into(),
                Json::num(format!("{:.3}", self.latency_quantile(0.99))),
            ),
            (
                "chaos_faults_injected".into(),
                Json::num(self.chaos_faults_injected.to_string()),
            ),
            ("wall_s".into(), Json::num(format!("{:.3}", self.wall_s))),
        ]);
        obj.render()
    }
}

/// Sleeps the exponential backoff before retry number `attempt` (from 1):
/// the base doubled per attempt (capped at 64×) plus seeded jitter below it.
fn back_off(cfg: &LoadgenConfig, attempt: usize, rng: &mut SplitMix64) {
    let backoff = cfg
        .backoff_base_ms
        .max(1)
        .saturating_mul(1u64 << (attempt - 1).min(6));
    let jitter = rng.next_u64() % backoff;
    std::thread::sleep(Duration::from_millis(backoff + jitter));
}

/// Connects with up to `cfg.reconnect_retries` extra attempts, backing off
/// between them like `overloaded` retries. With the default of zero
/// retries this is a single fail-fast attempt.
fn connect_with_retries(cfg: &LoadgenConfig, rng: &mut SplitMix64) -> Result<Connection, String> {
    let mut attempt = 0usize;
    loop {
        match Connection::open(&cfg.addr, cfg.connect_timeout_ms, cfg.read_timeout_ms) {
            Ok(conn) => return Ok(conn),
            Err(e) if attempt >= cfg.reconnect_retries => return Err(e),
            Err(_) => {
                attempt += 1;
                back_off(cfg, attempt, rng);
            }
        }
    }
}

/// Runs the closed-loop fleet to completion and aggregates the outcome.
///
/// # Errors
///
/// A human-readable message when the server is unreachable (an upfront
/// probe connection fails after `reconnect_retries` extra attempts —
/// e.g. connection refused); every in-protocol and per-job transport
/// error is counted in the returned stats instead.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenStats, String> {
    // Fail fast with a clear message when nothing is listening, instead
    // of surfacing one raw io error per client.
    let mut probe_rng = SplitMix64::new(cfg.seed ^ 0x70b3_7059);
    drop(connect_with_retries(cfg, &mut probe_rng)?);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for client in 0..cfg.clients {
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            run_client(&cfg, client, started)
        }));
    }
    let mut stats = LoadgenStats::default();
    for handle in handles {
        let client = handle
            .join()
            .map_err(|_| "load-generator client panicked".to_string())?;
        stats.absorb(client);
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    Ok(stats)
}

/// One client's loop: submit, read lines until `done`/error, retry
/// overloaded rejections with backoff, replace dead connections, repeat.
/// Closed loop by default; with `open_loop_rps > 0` each submission
/// waits for its seeded Poisson arrival instant instead of the previous
/// completion. Returns the tally of the client's jobs.
fn run_client(cfg: &LoadgenConfig, client: usize, fleet_start: Instant) -> LoadgenStats {
    let mut rng = SplitMix64::new(cfg.seed ^ (client as u64).wrapping_mul(GOLDEN_GAMMA));
    let mut schedule = (cfg.open_loop_rps > 0.0).then(|| {
        #[allow(clippy::cast_precision_loss)]
        let per_client = cfg.open_loop_rps / cfg.clients.max(1) as f64;
        ArrivalProcess::new(
            &ArrivalSpec::Poisson {
                rate_rps: per_client,
            },
            cfg.seed,
            client as u64,
        )
    });
    let mut conn: Option<Connection> = None;
    let mut tally = LoadgenStats::default();
    for job_idx in 0..cfg.jobs_per_client {
        // Open loop: wait for this job's scheduled arrival. A slot that
        // has already passed submits immediately, and the slip counts
        // toward the job's latency — the queueing delay a real open-loop
        // client would observe when the server cannot keep up.
        let mut slip_ms = 0.0;
        let mut late = false;
        if let Some(process) = schedule.as_mut() {
            let due = Duration::from_nanos(process.next_arrival().as_ps() / 1_000);
            let elapsed = fleet_start.elapsed();
            if elapsed < due {
                std::thread::sleep(due - elapsed);
            } else {
                late = true;
                slip_ms = (elapsed - due).as_secs_f64() * 1e3;
            }
        }
        let mut retries = 0usize;
        let mut job = loop {
            if conn.is_none() {
                conn = connect_with_retries(cfg, &mut rng).ok();
            }
            let Some(c) = conn.as_mut() else {
                break LoadgenStats {
                    jobs_transport: 1,
                    ..LoadgenStats::default()
                };
            };
            let mut spec = cfg.template.clone();
            // Unique per attempt so a retried job can never be confused
            // with stale lines of its previous incarnation.
            spec.id = format!("c{client}-j{job_idx}-a{retries}");
            let (mut o, usable) = submit_one(c, &spec);
            if !usable {
                conn = None;
            }
            if o.jobs_overloaded > 0 && retries < cfg.max_retries {
                retries += 1;
                back_off(cfg, retries, &mut rng);
                continue;
            }
            o.retries = retries;
            break o;
        };
        job.late_submissions = usize::from(late);
        for latency in &mut job.latencies_ms {
            *latency += slip_ms;
        }
        tally.absorb(job);
    }
    tally
}

/// Submits one job and consumes its response stream. Returns the job's
/// tally plus whether the connection is still usable for the next
/// submission.
fn submit_one(conn: &mut Connection, spec: &JobSpec) -> (LoadgenStats, bool) {
    let mut outcome = LoadgenStats::default();
    let started = Instant::now();
    if conn.submit(spec).is_err() {
        outcome.jobs_transport = 1;
        return (outcome, false);
    }
    let mut expected_cells: Option<usize> = None;
    let mut seen_cells = 0usize;
    loop {
        let resp = match conn.next_response() {
            // EOF, reset or read timeout mid-job: the transport died, not
            // the protocol.
            None => {
                outcome.jobs_transport = 1;
                return (outcome, false);
            }
            Some(Err(_)) => {
                outcome.protocol_errors += 1;
                continue;
            }
            Some(Ok(resp)) => resp,
        };
        // Connections serve one job at a time, so a line carrying a
        // different id means the request was corrupted in flight (a
        // chaos-proxy torn frame that landed inside the id): the server
        // is processing the mutated incarnation. Its terminal line
        // terminates this submission as failed — not a protocol
        // violation, the server answered what it was (mis)given.
        if resp.id().is_some_and(|id| id != spec.id) {
            if matches!(resp, Response::Done { .. } | Response::Error { .. }) {
                outcome.jobs_failed = 1;
                return (outcome, true);
            }
            continue;
        }
        match resp {
            Response::Admitted { cells, .. } => expected_cells = Some(cells),
            Response::Cell { outcome: cell, .. } => {
                seen_cells += 1;
                match &cell.result {
                    Ok(_) => outcome.cells_ok += 1,
                    Err(failure) => {
                        outcome.cells_failed += 1;
                        match failure.code {
                            ErrorCode::Cancelled => outcome.cells_cancelled += 1,
                            ErrorCode::CellTimeout => outcome.cells_timed_out += 1,
                            _ => {}
                        }
                    }
                }
            }
            Response::Done { summary, .. } => {
                outcome.jobs_ok = 1;
                outcome.latencies_ms = vec![started.elapsed().as_secs_f64() * 1e3];
                outcome.cache_hits += summary.cache_hits;
                outcome.cache_misses += summary.cache_misses;
                outcome.evictions += summary.evictions;
                outcome.deadline_misses = usize::from(summary.reason == DoneReason::Deadline);
                if expected_cells != Some(seen_cells) || summary.cells != seen_cells {
                    outcome.protocol_errors += 1;
                }
                return (outcome, true);
            }
            Response::Error { code, .. } => {
                match code {
                    ErrorCode::Overloaded => outcome.jobs_overloaded = 1,
                    _ => outcome.jobs_failed = 1,
                }
                return (outcome, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(lat: &[f64]) -> LoadgenStats {
        LoadgenStats {
            jobs_ok: lat.len(),
            latencies_ms: lat.to_vec(),
            wall_s: 2.0,
            cache_hits: 3,
            cache_misses: 1,
            ..LoadgenStats::default()
        }
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s = stats_with(&[10.0, 20.0, 30.0, 40.0]);
        assert!((s.latency_quantile(0.50) - 20.0).abs() < 1e-12);
        assert!((s.latency_quantile(0.99) - 40.0).abs() < 1e-12);
        assert!((s.latency_quantile(1.0) - 40.0).abs() < 1e-12);
        assert_eq!(LoadgenStats::default().latency_quantile(0.5), 0.0);
    }

    #[test]
    fn derived_rates() {
        let s = stats_with(&[10.0, 20.0]);
        assert!((s.jobs_per_sec() - 1.0).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(LoadgenStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn accounting_covers_every_terminal_state() {
        let s = LoadgenStats {
            jobs_ok: 5,
            jobs_overloaded: 2,
            jobs_failed: 1,
            jobs_transport: 3,
            ..LoadgenStats::default()
        };
        assert_eq!(s.jobs_accounted(), 11);
    }

    #[test]
    fn bench_json_is_parseable_and_complete() {
        let cfg = LoadgenConfig::new("127.0.0.1:0", 2, 3, JobSpec::for_mix("t", "MID1"));
        let mut s = stats_with(&[10.0, 20.0]);
        s.retries = 4;
        s.deadline_misses = 1;
        s.jobs_transport = 2;
        s.evictions = 5;
        s.chaos_faults_injected = 7;
        let rendered = s.to_bench_json(&cfg);
        let parsed = memscale_types::json::parse(&rendered).expect("artifact parses");
        assert_eq!(
            parsed.get("benchmark").and_then(Json::as_str),
            Some("serve_loadgen")
        );
        assert_eq!(parsed.get("jobs_ok").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("protocol_errors").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(parsed.get("retries").and_then(Json::as_u64), Some(4));
        assert_eq!(
            parsed.get("deadline_misses").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.get("jobs_transport").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("evictions").and_then(Json::as_u64), Some(5));
        assert_eq!(
            parsed.get("chaos_faults_injected").and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            parsed.get("cache_hit_rate").and_then(Json::as_f64),
            Some(0.75)
        );
        assert!(parsed.get("p99_ms").is_some());
        assert!(parsed.get("wall_s").is_some());
        assert_eq!(parsed.get("open_loop").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("offered_rps").and_then(Json::as_f64), Some(0.0));
        assert_eq!(parsed.get("achieved_rps").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            parsed.get("late_submissions").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn open_loop_config_is_reported_in_the_artifact() {
        let mut cfg = LoadgenConfig::new("127.0.0.1:0", 2, 3, JobSpec::for_mix("t", "MID1"));
        cfg.open_loop_rps = 40.0;
        let mut s = stats_with(&[10.0, 20.0]);
        s.late_submissions = 3;
        let parsed = memscale_types::json::parse(&s.to_bench_json(&cfg)).expect("artifact parses");
        assert_eq!(parsed.get("open_loop").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("offered_rps").and_then(Json::as_f64), Some(40.0));
        assert_eq!(
            parsed.get("late_submissions").and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn connection_refused_is_a_clear_error() {
        // Port 1 is essentially never listening; the probe must fail with
        // the actionable message, not a raw io error.
        let cfg = LoadgenConfig::new("127.0.0.1:1", 1, 1, JobSpec::for_mix("t", "MID1"));
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        assert!(err.contains("is the server running"), "{err}");
    }

    #[test]
    fn reconnect_retries_are_bounded_and_still_fail_clearly() {
        let mut cfg = LoadgenConfig::new("127.0.0.1:1", 1, 1, JobSpec::for_mix("t", "MID1"));
        cfg.reconnect_retries = 2;
        cfg.backoff_base_ms = 1;
        let started = Instant::now();
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        // Two retries at 1-2 ms + 2-4 ms of backoff: bounded, not a hang.
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
