//! Wire-level vocabulary of the sweep-job service (`memscale-serve`).
//!
//! The serving layer speaks a line-delimited JSON protocol over TCP (see
//! DESIGN.md §13). This module holds the *plain-data* shapes both sides of
//! that protocol agree on — the job specification a client submits, the
//! per-cell metrics and job summary the server streams back, and the
//! structured error codes — so the server, the load generator and any other
//! client share one vocabulary without this crate knowing anything about
//! JSON, sockets or the simulator.
//!
//! Policies and workload mixes appear here as *names* (the same strings the
//! `memscale-sim` CLI accepts); resolution against the policy/mix catalogs
//! happens in the serving layer, where those catalogs live.

use crate::config::MemGeneration;
use std::fmt;

/// A sweep job as submitted over the wire: one workload (a Table 1 mix,
/// optionally fed from a server-side recorded trace) crossed with a list of
/// policy cells under one run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job identifier, echoed on every response line so one
    /// connection can correlate interleaved output. Must be non-empty and
    /// single-line.
    pub id: String,
    /// Table 1 workload name (e.g. `MID1`, case-insensitive).
    pub mix: String,
    /// Server-local path of a recorded trace to replay instead of recording
    /// the mix live. The trace must match the job's configuration
    /// fingerprint, exactly as `memscale-sim --replay` requires.
    pub trace: Option<String>,
    /// Memory generation the sweep runs on.
    pub generation: MemGeneration,
    /// Baseline horizon in milliseconds.
    pub duration_ms: u64,
    /// Trace seed; `None` keeps the server default.
    pub seed: Option<u64>,
    /// CPI degradation bound γ in percent.
    pub gamma_pct: f64,
    /// Epoch length in milliseconds.
    pub epoch_ms: u64,
    /// Core count.
    pub cores: usize,
    /// Memory channels.
    pub channels: u8,
    /// Policy cells to evaluate, named as the CLI names them
    /// (`memscale`, `static:400`, …). Empty means the server's default
    /// frequency × policy grid for the generation.
    pub policies: Vec<String>,
    /// Recording margin in percent (ignored for trace-fed jobs).
    pub margin_pct: usize,
    /// Wall-clock budget for the whole job in milliseconds. When it expires
    /// the server cancels the remaining cells (they come back with code
    /// `cancelled`) and closes the job with `done{reason:"deadline"}`.
    /// `None` defers to the server's `--default-deadline`, if any.
    pub deadline_ms: Option<u64>,
    /// Open-loop arrival spec (`poisson:RATE`, `mmpp:...`, `diurnal:...`)
    /// turning every cell into a service-workload run with per-request
    /// latency percentiles. `None` keeps the classic fixed-work sweep.
    pub arrivals: Option<String>,
    /// p99 latency SLO in milliseconds, judged per cell when `arrivals`
    /// is set. Cells report their violation count and p99 either way;
    /// the target just marks which cells breached.
    pub slo_p99_ms: Option<f64>,
}

impl JobSpec {
    /// A job over `mix` with the server-side defaults: DDR3, 4 ms horizon,
    /// γ = 10 %, 5 ms epochs, 16 cores, 4 channels, default policy grid,
    /// 50 % margin. `memscale-sim` starts every subcommand from these and
    /// sets only its own horizon and policy list.
    pub fn for_mix(id: impl Into<String>, mix: impl Into<String>) -> Self {
        JobSpec {
            id: id.into(),
            mix: mix.into(),
            trace: None,
            generation: MemGeneration::Ddr3,
            duration_ms: 4,
            seed: None,
            gamma_pct: 10.0,
            epoch_ms: 5,
            cores: 16,
            channels: 4,
            policies: Vec::new(),
            margin_pct: 50,
            deadline_ms: None,
            arrivals: None,
            slo_p99_ms: None,
        }
    }

    /// Shape checks that need no catalog: identifier present and
    /// single-line, sane bounds on the horizon and the grid size, and the
    /// [range checks](Self::validate_ranges) of every run. Catalog checks
    /// (mix exists, policies parse, hardware validates) are the serving
    /// layer's job.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn validate_shape(&self) -> Result<(), String> {
        if self.id.is_empty() || self.id.len() > 128 {
            return Err("job id must be 1..=128 characters".into());
        }
        if self.id.contains(['\n', '\r']) {
            return Err("job id must be a single line".into());
        }
        if self.mix.is_empty() {
            return Err("mix name must not be empty".into());
        }
        if self.duration_ms > 10_000 {
            return Err("duration_ms above 10000 is not admissible".into());
        }
        if self.policies.len() > 256 {
            return Err("at most 256 policy cells per job".into());
        }
        self.validate_ranges()
    }

    /// The bounds a run of this description needs wherever it runs, on the
    /// server or from `memscale-sim`: a non-zero horizon the picosecond
    /// clock can hold, an epoch of 1..=10000 ms, a finite γ ≥ 0, a
    /// recording margin of at most 1000 %, and well-formed service fields.
    /// The server adds its admission caps
    /// ([`validate_shape`](Self::validate_shape)).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first out-of-range field.
    pub fn validate_ranges(&self) -> Result<(), String> {
        if self.duration_ms == 0 {
            return Err("duration_ms must be positive".into());
        }
        if self.duration_ms > u64::MAX / 1_000_000_000 {
            return Err("duration_ms overflows the picosecond clock".into());
        }
        if self.epoch_ms == 0 {
            return Err("epoch_ms must be positive".into());
        }
        if self.epoch_ms > 10_000 {
            return Err("epoch_ms above 10000 is not admissible".into());
        }
        if !self.gamma_pct.is_finite() || self.gamma_pct < 0.0 {
            return Err("gamma_pct must be a finite, non-negative number".into());
        }
        if self.margin_pct > 1_000 {
            return Err("margin_pct above 1000 is not admissible".into());
        }
        if self.deadline_ms == Some(0) {
            return Err("deadline_ms must be positive when present".into());
        }
        if let Some(spec) = &self.arrivals {
            if spec.is_empty() || spec.len() > 1024 || spec.contains(['\n', '\r']) {
                return Err("arrivals spec must be a non-empty single line".into());
            }
        }
        if let Some(slo) = self.slo_p99_ms {
            if !slo.is_finite() || slo <= 0.0 {
                return Err("slo_p99_ms must be a positive, finite number".into());
            }
            if self.arrivals.is_none() {
                return Err("slo_p99_ms requires an arrivals spec".into());
            }
        }
        Ok(())
    }
}

/// Structured error codes of the serve protocol. The wire form
/// ([`ErrorCode::as_str`]) is stable; clients switch on it rather than on
/// the human-readable detail string that accompanies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Admission control rejected the job: the server is at its configured
    /// queue depth. Back off and resubmit — the response carries the depth
    /// and limit so clients can pace themselves.
    Overloaded,
    /// The request line was not valid JSON or not a well-formed job.
    BadRequest,
    /// The mix name is not in the Table 1 catalog.
    UnknownMix,
    /// A policy name did not parse or is unavailable on the generation.
    UnknownPolicy,
    /// The job's hardware configuration failed invariant validation.
    InvalidConfig,
    /// Opening/validating the job's trace failed (including a fingerprint
    /// mismatch against the job configuration).
    Trace,
    /// The simulation itself failed after admission.
    Sim,
    /// The cell exceeded the server's per-cell watchdog budget and was
    /// abandoned. Siblings and the cache are unaffected.
    CellTimeout,
    /// The cell was cancelled cooperatively — its job's deadline expired,
    /// the client disconnected, or the server began draining mid-run.
    Cancelled,
    /// The server is draining after SIGTERM: in-flight jobs finish, new
    /// ones are rejected with this code. Resubmit to another instance.
    Draining,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Every code, for table-driven tests.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::Overloaded,
        ErrorCode::BadRequest,
        ErrorCode::UnknownMix,
        ErrorCode::UnknownPolicy,
        ErrorCode::InvalidConfig,
        ErrorCode::Trace,
        ErrorCode::Sim,
        ErrorCode::CellTimeout,
        ErrorCode::Cancelled,
        ErrorCode::Draining,
        ErrorCode::Internal,
    ];

    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownMix => "unknown_mix",
            ErrorCode::UnknownPolicy => "unknown_policy",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::Trace => "trace",
            ErrorCode::Sim => "sim",
            ErrorCode::CellTimeout => "cell_timeout",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling back.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-cell result metrics streamed back for each (frequency × policy)
/// grid point, mirroring the headline numbers of the CLI's JSON output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Fractional memory-subsystem energy savings versus baseline.
    pub memory_savings: f64,
    /// Fractional full-system energy savings versus baseline.
    pub system_savings: f64,
    /// Mean per-application CPI increase.
    pub cpi_increase_avg: f64,
    /// Worst per-application CPI increase.
    pub cpi_increase_max: f64,
    /// Mean bus frequency over the run, MHz.
    pub mean_frequency_mhz: f64,
    /// p99 request latency in milliseconds (`None` unless the job carried
    /// an open-loop `arrivals` spec).
    pub p99_ms: Option<f64>,
    /// Requests over the cell's SLO target (`None` without `arrivals`; a
    /// zero-valued `Some` when arrivals ran without an SLO target).
    pub slo_violations: Option<u64>,
}

impl CellMetrics {
    /// Every field, floats as their bits, so that two results are equal
    /// bit for bit exactly when their images are.
    pub fn bits(&self) -> [Option<u64>; 7] {
        [
            Some(self.memory_savings.to_bits()),
            Some(self.system_savings.to_bits()),
            Some(self.cpi_increase_avg.to_bits()),
            Some(self.cpi_increase_max.to_bits()),
            Some(self.mean_frequency_mhz.to_bits()),
            self.p99_ms.map(f64::to_bits),
            self.slo_violations,
        ]
    }
}

/// A structured per-cell failure: the machine-readable code clients switch
/// on plus the human-readable detail that explains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Why the cell failed ([`ErrorCode::Sim`], [`ErrorCode::Cancelled`],
    /// [`ErrorCode::CellTimeout`], …).
    pub code: ErrorCode,
    /// Human-readable rendering of the underlying error.
    pub detail: String,
}

impl CellFailure {
    /// A failure with the given code and detail.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        CellFailure {
            code,
            detail: detail.into(),
        }
    }

    /// A simulation failure ([`ErrorCode::Sim`]) — the historical default
    /// for cells that died inside the engine.
    pub fn sim(detail: impl Into<String>) -> Self {
        CellFailure::new(ErrorCode::Sim, detail)
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// One evaluated cell: its policy label, whether it was served from the
/// calibration cache, and the metrics or the structured failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The policy name the cell ran (as given in [`JobSpec::policies`] or
    /// expanded from the default grid).
    pub label: String,
    /// Whether the result came from the server's result cache.
    pub cached: bool,
    /// Metrics, or the structured failure for a failed cell. A failed
    /// cell never poisons its siblings.
    pub result: Result<CellMetrics, CellFailure>,
}

/// Why a job's `done` line was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DoneReason {
    /// Every cell ran to its natural end.
    #[default]
    Complete,
    /// The job's deadline expired; unfinished cells were cancelled.
    Deadline,
    /// The server was draining (SIGTERM); the job still finished its cells
    /// but clients should move new work elsewhere.
    Draining,
}

impl DoneReason {
    /// Every reason, for table-driven tests.
    pub const ALL: [DoneReason; 3] = [
        DoneReason::Complete,
        DoneReason::Deadline,
        DoneReason::Draining,
    ];

    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            DoneReason::Complete => "complete",
            DoneReason::Deadline => "deadline",
            DoneReason::Draining => "draining",
        }
    }

    /// Parses the wire spelling back.
    pub fn parse(s: &str) -> Option<DoneReason> {
        DoneReason::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for DoneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The final summary line of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Total cells in the job.
    pub cells: usize,
    /// Cells that completed with metrics.
    pub ok: usize,
    /// Cells that failed (structured failure, timeout or cancellation).
    pub failed: usize,
    /// Cache hits this job observed (cells plus the calibration baseline).
    pub cache_hits: u64,
    /// Cache misses this job observed.
    pub cache_misses: u64,
    /// Cache entries this job's inserts evicted (cells plus baselines).
    pub evictions: u64,
    /// Server-side wall-clock of the job, milliseconds.
    pub wall_ms: f64,
    /// Why the job closed ([`DoneReason::Complete`] in the happy path).
    pub reason: DoneReason,
}

impl JobSummary {
    /// Fraction of this job's cache lookups that hit (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert_eq!(code.to_string(), code.as_str());
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn done_reasons_round_trip() {
        for reason in DoneReason::ALL {
            assert_eq!(DoneReason::parse(reason.as_str()), Some(reason));
            assert_eq!(reason.to_string(), reason.as_str());
        }
        assert_eq!(DoneReason::parse("nope"), None);
        assert_eq!(DoneReason::default(), DoneReason::Complete);
    }

    #[test]
    fn cell_failure_renders_code_and_detail() {
        let f = CellFailure::new(ErrorCode::CellTimeout, "exceeded 50 ms");
        assert_eq!(f.to_string(), "cell_timeout: exceeded 50 ms");
        assert_eq!(CellFailure::sim("boom").code, ErrorCode::Sim);
    }

    #[test]
    fn service_fields_are_shape_checked() {
        let mut job = JobSpec::for_mix("j1", "MID1");
        job.slo_p99_ms = Some(5.0);
        assert!(job
            .validate_shape()
            .unwrap_err()
            .contains("requires an arrivals spec"));
        job.arrivals = Some("poisson:1500".into());
        assert!(job.validate_shape().is_ok());
        job.slo_p99_ms = Some(0.0);
        assert!(job.validate_shape().unwrap_err().contains("slo_p99_ms"));
        job.slo_p99_ms = Some(f64::NAN);
        assert!(job.validate_shape().unwrap_err().contains("slo_p99_ms"));
        job.slo_p99_ms = None;
        job.arrivals = Some("poi\nsson".into());
        assert!(job.validate_shape().unwrap_err().contains("single line"));
        job.arrivals = Some(String::new());
        assert!(job.validate_shape().unwrap_err().contains("non-empty"));
    }

    #[test]
    fn zero_deadline_is_rejected() {
        let mut job = JobSpec::for_mix("j1", "MID1");
        job.deadline_ms = Some(0);
        assert!(job.validate_shape().unwrap_err().contains("deadline_ms"));
        job.deadline_ms = Some(250);
        assert!(job.validate_shape().is_ok());
    }

    #[test]
    fn job_defaults_pass_shape_checks() {
        let job = JobSpec::for_mix("j1", "MID1");
        assert!(job.validate_shape().is_ok());
        assert_eq!(job.generation, MemGeneration::Ddr3);
        assert!(job.policies.is_empty());
    }

    #[test]
    fn shape_checks_reject_malformed_jobs() {
        let mut job = JobSpec::for_mix("", "MID1");
        assert!(job.validate_shape().unwrap_err().contains("job id"));
        job.id = "a\nb".into();
        assert!(job.validate_shape().unwrap_err().contains("single line"));
        job.id = "ok".into();
        job.duration_ms = 0;
        assert!(job.validate_shape().unwrap_err().contains("duration_ms"));
        job.duration_ms = 4;
        job.mix = String::new();
        assert!(job.validate_shape().unwrap_err().contains("mix"));
        job.mix = "MID1".into();
        job.policies = vec!["memscale".into(); 257];
        assert!(job.validate_shape().unwrap_err().contains("256"));
    }

    #[test]
    fn run_ranges_bound_gamma_epoch_and_margin() {
        let mut job = JobSpec::for_mix("j1", "MID1");
        for gamma in [-5.0, f64::NAN, f64::INFINITY] {
            job.gamma_pct = gamma;
            assert!(job.validate_ranges().unwrap_err().contains("gamma_pct"));
            assert!(job.validate_shape().unwrap_err().contains("gamma_pct"));
        }
        job.gamma_pct = 0.0;
        for epoch in [10_001, 18_446_744_074] {
            job.epoch_ms = epoch;
            let err = job.validate_shape().unwrap_err();
            assert!(err.contains("epoch_ms above 10000"), "{err}");
        }
        job.epoch_ms = 10_000;
        job.margin_pct = 1_001;
        let err = job.validate_shape().unwrap_err();
        assert!(err.contains("margin_pct above 1000"), "{err}");
        job.margin_pct = 1_000;
        assert_eq!(job.validate_shape(), Ok(()));
        job.duration_ms = 18_446_744_074;
        let err = job.validate_ranges().unwrap_err();
        assert!(err.contains("duration_ms overflows"), "{err}");
        // Only the server caps the horizon and the grid.
        job.duration_ms = 20_000;
        job.policies = vec!["memscale".into(); 300];
        assert_eq!(job.validate_ranges(), Ok(()));
        assert!(job.validate_shape().is_err());
    }

    #[test]
    fn summary_hit_rate() {
        let mut s = JobSummary {
            cells: 4,
            ok: 4,
            failed: 0,
            cache_hits: 3,
            cache_misses: 1,
            evictions: 0,
            wall_ms: 12.0,
            reason: DoneReason::Complete,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        s.cache_hits = 0;
        s.cache_misses = 0;
        assert_eq!(s.hit_rate(), 0.0);
    }
}
