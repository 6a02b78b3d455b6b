//! Process-level crash/recovery harness: `kill -9` the real server
//! mid-job, restart it against the same state directory, and check the
//! recovery invariants.
//!
//! The in-process chaos machinery ([`crate::chaos`]) can tear frames and
//! drop connections, but it cannot prove crash consistency — for that
//! the actual server process must die without any destructor running.
//! This harness spawns the server binary three times:
//!
//! 1. **control** — an uninterrupted run against a scratch state dir,
//!    recording every cell's metrics bit-exactly;
//! 2. **crash** — the same job against a second state dir, `SIGKILL`ed at
//!    a seeded point mid-stream (after a seeded number of cell lines),
//!    optionally followed by tearing bytes off the journal tail to
//!    simulate a torn final frame;
//! 3. **restart** — the server relaunched on the crash state dir; the
//!    job is resubmitted and the harness asserts:
//!    * zero protocol violations and no duplicate cell labels,
//!    * at least one warm cache hit (the journaled cells),
//!    * results byte-identical (`f64::to_bits`) to the control run.
//!
//! The outcome feeds `BENCH_recovery.json` via
//! [`RecoveryOutcome::to_bench_json`].

use crate::json::Json;
use crate::wire::{decode_response, encode_job, Response};
use memscale_types::rng::SplitMix64;
use memscale_types::serve::{CellMetrics, JobSpec, JobSummary};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Scenario knobs for one recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// The server binary to spawn (e.g. `memscale-sim`).
    pub server_bin: PathBuf,
    /// Arguments placed before the harness-owned `--addr`/`--state-dir`
    /// pair (subcommand and tuning flags, e.g. `["serve", "--threads",
    /// "2"]`).
    pub server_args: Vec<String>,
    /// Scratch directory; the harness uses `control/` and `crash/`
    /// subdirectories beneath it.
    pub state_dir: PathBuf,
    /// The job to run, crash, and resubmit. Must resolve to at least
    /// three cells so the kill can land mid-job.
    pub template: JobSpec,
    /// Seeds the kill point and the torn-tail size.
    pub seed: u64,
    /// How long to keep polling for the spawned server to accept, ms.
    pub connect_timeout_ms: u64,
    /// Per-read socket timeout, ms.
    pub read_timeout_ms: u64,
}

impl RecoveryConfig {
    /// Defaults for `server_bin` serving under `state_dir`.
    pub fn new(server_bin: PathBuf, state_dir: PathBuf, template: JobSpec) -> Self {
        RecoveryConfig {
            server_bin,
            server_args: vec!["serve".into()],
            state_dir,
            template,
            seed: 42,
            connect_timeout_ms: 30_000,
            read_timeout_ms: 60_000,
        }
    }
}

/// What the scenario measured and proved.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Cells in the job's plan.
    pub cells: usize,
    /// Fresh cell lines observed before the SIGKILL landed.
    pub cells_before_kill: usize,
    /// Bytes torn off the journal tail after the kill.
    pub torn_tail_bytes: u64,
    /// True when the kill interrupted the job (no `done` line was seen).
    pub interrupted_job: bool,
    /// Wall-clock from restart spawn until the server accepted a
    /// connection again (includes journal replay and baseline decoding).
    pub recovery_wall_ms: f64,
    /// Wall-clock of the post-restart resubmission.
    pub resubmit_wall_ms: f64,
    /// Cache hits the resubmitted job reported.
    pub warm_hits: u64,
    /// Cache misses the resubmitted job reported.
    pub warm_misses: u64,
    /// Resubmitted results match the control run bit-for-bit.
    pub byte_identical: bool,
    /// Undecodable or protocol-violating lines across control and
    /// resubmit streams (the crashed stream is exempt — its tail died
    /// with the server).
    pub protocol_errors: usize,
}

impl RecoveryOutcome {
    /// Post-restart warm hit rate (0 when the job saw no lookups).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// The `BENCH_recovery.json` artifact (stable field order).
    pub fn to_bench_json(&self, seed: u64) -> String {
        Json::Obj(vec![
            ("benchmark".into(), Json::Str("serve_recovery".into())),
            ("seed".into(), Json::num(seed.to_string())),
            ("cells".into(), Json::num(self.cells.to_string())),
            (
                "cells_before_kill".into(),
                Json::num(self.cells_before_kill.to_string()),
            ),
            (
                "torn_tail_bytes".into(),
                Json::num(self.torn_tail_bytes.to_string()),
            ),
            ("interrupted_job".into(), Json::Bool(self.interrupted_job)),
            (
                "recovery_wall_ms".into(),
                Json::num(format!("{:.3}", self.recovery_wall_ms)),
            ),
            (
                "resubmit_wall_ms".into(),
                Json::num(format!("{:.3}", self.resubmit_wall_ms)),
            ),
            ("warm_hits".into(), Json::num(self.warm_hits.to_string())),
            (
                "warm_misses".into(),
                Json::num(self.warm_misses.to_string()),
            ),
            (
                "warm_hit_rate".into(),
                Json::num(format!("{:.4}", self.warm_hit_rate())),
            ),
            ("byte_identical".into(), Json::Bool(self.byte_identical)),
            (
                "protocol_errors".into(),
                Json::num(self.protocol_errors.to_string()),
            ),
        ])
        .render()
    }
}

/// A spawned server child, `SIGKILL`ed (and reaped) on drop so a failing
/// harness never leaks processes.
struct ServerProc {
    child: Child,
}

impl ServerProc {
    fn spawn(cfg: &RecoveryConfig, addr: &str, state_dir: &Path) -> Result<Self, String> {
        let child = Command::new(&cfg.server_bin)
            .args(&cfg.server_args)
            .arg("--addr")
            .arg(addr)
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cfg.server_bin.display()))?;
        Ok(ServerProc { child })
    }

    /// The process-level fault: SIGKILL — no destructors, no flushes.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// Picks a free loopback port by binding port 0 and dropping the socket.
fn free_addr() -> Result<String, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot probe for a free port: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read probe address: {e}"))?;
    Ok(addr.to_string())
}

/// Polls `addr` until the server accepts or `timeout_ms` elapses.
fn connect_poll(addr: &str, timeout_ms: u64) -> Result<TcpStream, String> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms.max(1));
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("server at {addr} never accepted: {e}"));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// One observed job stream.
#[derive(Debug, Default)]
struct JobObservation {
    /// label → (served from cache, bit-images of the five metrics).
    cells: HashMap<String, (bool, Option<[u64; 5]>)>,
    summary: Option<JobSummary>,
    protocol_errors: usize,
    duplicate_labels: usize,
    wall_ms: f64,
}

fn metric_bits(m: &CellMetrics) -> [u64; 5] {
    [
        m.memory_savings.to_bits(),
        m.system_savings.to_bits(),
        m.cpi_increase_avg.to_bits(),
        m.cpi_increase_max.to_bits(),
        m.mean_frequency_mhz.to_bits(),
    ]
}

/// Submits `job` to `addr` and reads its stream. With
/// `stop_after_cells = Some(k)` the read loop returns as soon as `k`
/// fresh (non-cached) cell lines have arrived — the caller then kills
/// the server mid-job. Reads that die after the kill are expected and
/// not counted as protocol errors by the caller.
fn run_job_against(
    cfg: &RecoveryConfig,
    addr: &str,
    job: &JobSpec,
    stop_after_cells: Option<usize>,
) -> Result<JobObservation, String> {
    let started = Instant::now();
    let stream = connect_poll(addr, cfg.connect_timeout_ms)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    let mut line = encode_job(job);
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .map_err(|e| format!("cannot submit job: {e}"))?;

    let mut obs = JobObservation::default();
    let mut fresh_cells = 0usize;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = buf.trim();
        if trimmed.is_empty() {
            continue;
        }
        match decode_response(trimmed) {
            Err(_) => obs.protocol_errors += 1,
            Ok(Response::Admitted { .. }) => {}
            Ok(Response::Cell { outcome, .. }) => {
                let bits = outcome.result.as_ref().ok().map(metric_bits);
                if obs
                    .cells
                    .insert(outcome.label.clone(), (outcome.cached, bits))
                    .is_some()
                {
                    obs.duplicate_labels += 1;
                }
                if !outcome.cached {
                    fresh_cells += 1;
                    if stop_after_cells.is_some_and(|k| fresh_cells >= k) {
                        obs.wall_ms = started.elapsed().as_secs_f64() * 1e3;
                        return Ok(obs);
                    }
                }
            }
            Ok(Response::Done { summary, .. }) => {
                obs.summary = Some(summary);
                break;
            }
            Ok(Response::Error { code, detail, .. }) => {
                return Err(format!("server rejected the job: {code}: {detail}"));
            }
        }
    }
    obs.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(obs)
}

/// Tears `tear` bytes off the end of `path` (never into the 16-byte
/// header), simulating a frame torn mid-write by the crash. Returns the
/// bytes actually removed.
fn tear_tail(path: &Path, tear: u64) -> Result<u64, String> {
    let len = std::fs::metadata(path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    let keep_at_least = 16u64; // the store header
    if len <= keep_at_least {
        return Ok(0);
    }
    let removable = (len - keep_at_least).min(tear);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    file.set_len(len - removable)
        .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
    Ok(removable)
}

/// Runs the full crash/recovery scenario.
///
/// # Errors
///
/// Environmental failures (cannot spawn, connect, or submit) and every
/// violated recovery invariant, as a human-readable description.
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &RecoveryConfig) -> Result<RecoveryOutcome, String> {
    let cells = cfg.template.policies.len();
    if cells < 3 {
        return Err(format!(
            "recovery scenario needs at least 3 explicit policies so the kill lands mid-job (got {cells})"
        ));
    }
    let control_dir = cfg.state_dir.join("control");
    let crash_dir = cfg.state_dir.join("crash");
    for dir in [&control_dir, &crash_dir] {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut rng = SplitMix64::new(cfg.seed);
    // Kill after at least two fresh cells so one warm cell survives even
    // if the torn tail eats the final journal frame.
    let kill_after = usize::try_from(rng.range(2, cells as u64)).unwrap_or(2);
    let tear = rng.range(1, 13);

    // Phase 1: control run — the uninterrupted ground truth.
    let control = {
        let addr = free_addr()?;
        let mut server = ServerProc::spawn(cfg, &addr, &control_dir)?;
        let mut job = cfg.template.clone();
        job.id = format!("{}-control", cfg.template.id);
        let obs = run_job_against(cfg, &addr, &job, None)?;
        server.kill9();
        obs
    };
    let control_summary = control
        .summary
        .clone()
        .ok_or("control run ended without a done line")?;
    if control_summary.failed > 0 || control.cells.len() != cells {
        return Err(format!(
            "control run is not clean ({} cells seen, {} failed) — fix the template before crash-testing",
            control.cells.len(),
            control_summary.failed
        ));
    }

    // Phase 2: crash run — SIGKILL mid-job at the seeded point.
    let cells_before_kill = {
        let addr = free_addr()?;
        let mut server = ServerProc::spawn(cfg, &addr, &crash_dir)?;
        let mut job = cfg.template.clone();
        job.id = format!("{}-crash", cfg.template.id);
        let obs = run_job_against(cfg, &addr, &job, Some(kill_after))?;
        server.kill9();
        obs.cells.len()
    };

    // Phase 3: tear the journal tail, as a crash mid-append would.
    let torn_tail_bytes = tear_tail(&crash_dir.join("journal.log"), tear)?;

    // Phase 4: restart on the crashed state dir and resubmit.
    let addr = free_addr()?;
    let restart_started = Instant::now();
    let mut server = ServerProc::spawn(cfg, &addr, &crash_dir)?;
    let probe = connect_poll(&addr, cfg.connect_timeout_ms)?;
    let recovery_wall_ms = restart_started.elapsed().as_secs_f64() * 1e3;
    drop(probe);
    let mut job = cfg.template.clone();
    job.id = format!("{}-resubmit", cfg.template.id);
    let resubmit = run_job_against(cfg, &addr, &job, None)?;
    server.kill9();

    // Invariants.
    let summary = resubmit
        .summary
        .clone()
        .ok_or("resubmitted job ended without a done line")?;
    let mut violations = Vec::new();
    let protocol_errors = control.protocol_errors
        + control.duplicate_labels
        + resubmit.protocol_errors
        + resubmit.duplicate_labels;
    if protocol_errors > 0 {
        violations.push(format!("{protocol_errors} protocol violations"));
    }
    if resubmit.cells.len() != cells || summary.failed > 0 {
        violations.push(format!(
            "resubmitted job incomplete: {} of {cells} cells, {} failed",
            resubmit.cells.len(),
            summary.failed
        ));
    }
    if summary.cache_hits == 0 {
        violations.push("resubmitted job saw no warm cache hits".into());
    }
    let mut byte_identical = true;
    for (label, (_, control_bits)) in &control.cells {
        let resubmit_bits = resubmit.cells.get(label).map(|(_, b)| *b);
        if resubmit_bits != Some(*control_bits) {
            byte_identical = false;
            violations.push(format!("cell {label} differs from the control run"));
        }
    }
    if !violations.is_empty() {
        return Err(format!(
            "recovery invariants violated: {}",
            violations.join("; ")
        ));
    }
    Ok(RecoveryOutcome {
        cells,
        cells_before_kill,
        torn_tail_bytes,
        interrupted_job: true,
        recovery_wall_ms,
        resubmit_wall_ms: resubmit.wall_ms,
        warm_hits: summary.cache_hits,
        warm_misses: summary.cache_misses,
        byte_identical,
        protocol_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_stable_fields() {
        let outcome = RecoveryOutcome {
            cells: 4,
            cells_before_kill: 2,
            torn_tail_bytes: 7,
            interrupted_job: true,
            recovery_wall_ms: 123.456,
            resubmit_wall_ms: 45.0,
            warm_hits: 3,
            warm_misses: 2,
            byte_identical: true,
            protocol_errors: 0,
        };
        let json = outcome.to_bench_json(42);
        assert!(
            json.starts_with(r#"{"benchmark":"serve_recovery""#),
            "{json}"
        );
        for field in [
            "\"seed\":42",
            "\"cells\":4",
            "\"cells_before_kill\":2",
            "\"torn_tail_bytes\":7",
            "\"interrupted_job\":true",
            "\"recovery_wall_ms\":123.456",
            "\"warm_hits\":3",
            "\"warm_misses\":2",
            "\"warm_hit_rate\":0.6000",
            "\"byte_identical\":true",
            "\"protocol_errors\":0",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!((outcome.warm_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn too_small_grids_are_rejected_up_front() {
        let mut template = JobSpec::for_mix("r", "MID1");
        template.policies = vec!["memscale".into()];
        let cfg = RecoveryConfig::new(
            PathBuf::from("/nonexistent"),
            PathBuf::from("/tmp"),
            template,
        );
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("at least 3"), "{err}");
    }

    #[test]
    fn tearing_never_cuts_into_the_header() {
        let dir = std::env::temp_dir().join(format!("memscale_tear_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.log");
        std::fs::write(&path, vec![0u8; 20]).expect("write");
        assert_eq!(tear_tail(&path, 100).expect("tear"), 4);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 16);
        assert_eq!(tear_tail(&path, 5).expect("tear"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
