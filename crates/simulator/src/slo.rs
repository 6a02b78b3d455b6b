//! Open-loop SLO evaluation harness.
//!
//! Where [`crate::harness`] reproduces the paper's fixed-work batch
//! comparison, this module evaluates policies the way a datacenter
//! operator would: an open-loop service workload (seeded arrival process
//! from `memscale-arrivals`) runs for a fixed duration under each policy,
//! and the verdict is the per-request latency distribution — p50/p95/p99
//! and SLO-violation counts — not average slowdown. A policy that saves
//! energy by running memory slow shows up here as tail-latency growth,
//! because arrivals keep coming at the offered rate regardless of how fast
//! the policy drains them.
//!
//! The service traffic is a pure function of `(arrival spec, seed, request
//! model)` — it never consults the policy — so one recording under the
//! Baseline (the fastest consumer, which pulls the longest event prefix in
//! a fixed-duration run) replays bit-exactly under every policy through
//! `memscale-trace`, exactly like the batch traces.

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::error::SimError;
use crate::harness::{check_trace, trace_header, Experiment};
use crate::result::RunResult;
use crate::shard::ShardSpec;
use memscale::policies::PolicyKind;
use memscale_arrivals::{ArrivalSpec, RequestModel, RequestSource, RequestTracker};
use memscale_trace::{MissTape, ReplayTrace, TraceHeader};
use memscale_types::json::Json;
use memscale_types::requests::{RequestStats, SloSpec};
use memscale_types::time::Picos;
use memscale_types::CancelToken;
use memscale_workloads::{spec, MissEvent, MissSource, Mix};
use rayon::prelude::*;

/// The service workload of an SLO evaluation: who arrives, how much work
/// each request carries, and the latency objective to judge against.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Arrival process of the open-loop request stream.
    pub arrivals: ArrivalSpec,
    /// Per-request work model (misses and compute per core).
    pub model: RequestModel,
    /// Latency objective, or `None` to only report the distribution.
    pub slo: Option<SloSpec>,
}

impl ServiceConfig {
    /// A service workload with the default request model and no SLO.
    pub fn new(arrivals: ArrivalSpec) -> Self {
        ServiceConfig {
            arrivals,
            model: RequestModel::default(),
            slo: None,
        }
    }

    /// Sets the p99 latency objective.
    #[must_use]
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// One per-core request source per configured core, with each core's
/// nominal speed (base CPI × CPU cycle) taken from the mix's application
/// table so the time↔instruction conversion matches the engine's cores.
/// The mix supplies only the per-core CPI and the trace-header app table;
/// the traffic itself comes entirely from the arrival process.
///
/// # Panics
///
/// Panics if the mix names an unknown application (impossible for the
/// Table 1 mixes).
pub fn request_sources(
    mix: &Mix,
    cfg: &SimConfig,
    svc: &ServiceConfig,
) -> Vec<Box<dyn MissSource + Send>> {
    (0..cfg.system.cpu.cores)
        .map(|c| {
            let name = mix.app_on_core(c);
            let cpi = spec::profile(name)
                .unwrap_or_else(|| panic!("unknown application {name}"))
                .base_cpi;
            Box::new(RequestSource::new(
                &svc.arrivals,
                cfg.seed,
                c,
                svc.model,
                cpi,
                cfg.system.cpu.cycle(),
                cfg.slice_lines,
            )) as Box<dyn MissSource + Send>
        })
        .collect()
}

/// The request tracker matching [`request_sources`] under `cfg`: same
/// arrival substream, same burst size, tracking every request scheduled
/// within the run horizon.
pub fn request_tracker(cfg: &SimConfig, svc: &ServiceConfig) -> RequestTracker {
    RequestTracker::new(
        &svc.arrivals,
        cfg.seed,
        cfg.duration,
        cfg.system.cpu.cores,
        svc.model.misses_per_core,
        svc.slo,
    )
}

/// Runs the service workload under `policy` for `cfg.duration` with live
/// request sources and returns the result (carrying
/// [`RunResult::requests`]).
///
/// # Errors
///
/// Propagates any [`SimError`] from building or running the simulation.
pub fn run_service_policy(
    mix: &Mix,
    policy: PolicyKind,
    cfg: &SimConfig,
    svc: &ServiceConfig,
) -> Result<RunResult, SimError> {
    let mut sim = Simulation::with_sources(mix, policy, cfg, request_sources(mix, cfg, svc))?;
    sim.set_request_tracker(request_tracker(cfg, svc));
    sim.run_for(cfg.duration, 0.0)
}

/// Like [`run_service_policy`], but the miss events replay from a recorded
/// service trace ([`record_service_trace`]). Replaying at the recording
/// seed/configuration reproduces the live run bit-identically.
///
/// # Errors
///
/// [`SimError::Trace`] for a trace from a different configuration,
/// [`SimError::TraceExhausted`] when the recording margin is too small for
/// this policy, plus the errors of [`run_service_policy`].
pub fn run_service_policy_replay(
    mix: &Mix,
    policy: PolicyKind,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    trace: &ReplayTrace,
) -> Result<RunResult, SimError> {
    run_service_policy_replay_cancellable(mix, policy, cfg, svc, trace, &CancelToken::new())
}

/// Like [`run_service_policy_replay`], with cooperative cancellation
/// checked at epoch boundaries — the serving layer's deadline/drain path.
///
/// # Errors
///
/// The errors of [`run_service_policy_replay`], plus
/// [`SimError::Cancelled`] when `cancel` fires mid-run.
pub fn run_service_policy_replay_cancellable(
    mix: &Mix,
    policy: PolicyKind,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    trace: &ReplayTrace,
    cancel: &CancelToken,
) -> Result<RunResult, SimError> {
    check_trace(mix, cfg, trace)?;
    let mut sim = Simulation::with_sources(mix, policy, cfg, trace.streams())?;
    sim.set_cancel_token(cancel.clone());
    sim.set_request_tracker(request_tracker(cfg, svc));
    sim.run_for(cfg.duration, 0.0)
}

/// Records a replayable trace of the service workload, and hands back the
/// recording run as the calibrated Baseline [`Experiment`].
///
/// One Baseline run reads a [`MissTape`] over the live request sources: in
/// a fixed-duration open-loop run the *fastest* policy consumes the most
/// events, and Baseline (always at maximum frequency) is the fastest, so
/// its prefix bounds every other policy's consumption. The tape then draws
/// `margin_pct` percent more continuation events per core (64-event
/// floor), mirroring [`crate::harness::record_calibrated`].
///
/// The experiment's baseline is the Baseline service run: its memory energy
/// is the savings denominator of every service cell, and equals that of
/// [`run_service_policy_replay`] under [`PolicyKind::Baseline`] (the
/// request tracker only observes a run).
///
/// # Errors
///
/// Propagates any [`SimError`] from the recording run.
pub fn record_service_calibrated(
    mix: &Mix,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    margin_pct: usize,
) -> Result<(Experiment, TraceHeader, Vec<Vec<MissEvent>>), SimError> {
    let tape = MissTape::new(request_sources(mix, cfg, svc));
    let exp = Experiment::calibrate_sources(mix, cfg, tape.cursors())?;
    Ok((exp, trace_header(mix, cfg), tape.finish(margin_pct)))
}

/// [`record_service_calibrated`] without the experiment: the header and
/// per-core streams of a replayable service trace.
///
/// # Errors
///
/// Propagates any [`SimError`] from the recording run.
pub fn record_service_trace(
    mix: &Mix,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    margin_pct: usize,
) -> Result<(TraceHeader, Vec<Vec<MissEvent>>), SimError> {
    let (_, header, streams) = record_service_calibrated(mix, cfg, svc, margin_pct)?;
    Ok((header, streams))
}

/// One policy's verdict in an SLO sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Stable policy label (the [`ShardSpec`] label).
    pub label: String,
    /// Per-request latency statistics of the run.
    pub stats: RequestStats,
    /// Residency-weighted mean bus frequency (MHz).
    pub mean_frequency_mhz: f64,
    /// Memory-subsystem energy over the run (J).
    pub memory_energy_j: f64,
    /// Whether the run breached the configured SLO on p99 (always `false`
    /// without an SLO).
    pub breach: bool,
}

/// The complete outcome of an SLO-judged policy sweep: every policy run
/// against the identical request stream, in shard order.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Workload mix supplying per-core CPI and the app table.
    pub mix: String,
    /// Arrival-spec label (e.g. `poisson:2000`, `diurnal:3seg`).
    pub arrivals: String,
    /// Trace seed shared by arrivals and workload content.
    pub seed: u64,
    /// Run horizon.
    pub duration: Picos,
    /// The p99 objective, if one was configured.
    pub slo_p99_ms: Option<f64>,
    /// Per-policy verdicts, in the order the sweep was specified.
    pub outcomes: Vec<PolicyOutcome>,
}

impl SloReport {
    /// Whether any policy in the sweep breached the SLO.
    pub fn any_breach(&self) -> bool {
        self.outcomes.iter().any(|o| o.breach)
    }

    /// Renders the report as a stable, deterministic JSON document: field
    /// order is fixed and numbers use Rust's shortest-round-trip `{}`
    /// formatting, so identical sweeps produce byte-identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"memscale.slo.v1\",\n");
        let mix = Json::Str(self.mix.clone()).render();
        let arrivals = Json::Str(self.arrivals.clone()).render();
        out.push_str(&format!("  \"mix\": {mix},\n"));
        out.push_str(&format!("  \"arrivals\": {arrivals},\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"duration_ms\": {},\n",
            self.duration.as_ms_f64()
        ));
        match self.slo_p99_ms {
            Some(ms) => out.push_str(&format!("  \"slo_p99_ms\": {ms},\n")),
            None => out.push_str("  \"slo_p99_ms\": null,\n"),
        }
        out.push_str("  \"policies\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let s = &o.stats;
            out.push_str(&format!(
                "    {{\"policy\": {}, \"submitted\": {}, \"completed\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"mean_ms\": {}, \
                 \"max_ms\": {}, \"slo_violations\": {}, \"mean_frequency_mhz\": {}, \
                 \"memory_energy_j\": {}, \"breach\": {}}}{}\n",
                Json::Str(o.label.clone()).render(),
                s.submitted,
                s.completed,
                s.p50_ms,
                s.p95_ms,
                s.p99_ms,
                s.mean_ms,
                s.max_ms,
                s.slo_violations,
                o.mean_frequency_mhz,
                o.memory_energy_j,
                o.breach,
                if i + 1 < self.outcomes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"breach\": {}\n", self.any_breach()));
        out.push('}');
        out
    }
}

fn outcome_of(shard: &ShardSpec, run: &RunResult, svc: &ServiceConfig) -> PolicyOutcome {
    let stats = run.requests.unwrap_or_default();
    PolicyOutcome {
        label: shard.label.clone(),
        breach: svc.slo.is_some_and(|slo| stats.breaches(slo)),
        stats,
        mean_frequency_mhz: run.mean_frequency_mhz(),
        memory_energy_j: run.energy.memory_total_j(),
    }
}

fn report_of(
    mix: &Mix,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    outcomes: Vec<PolicyOutcome>,
) -> SloReport {
    SloReport {
        mix: mix.name.to_string(),
        arrivals: svc.arrivals.label(),
        seed: cfg.seed,
        duration: cfg.duration,
        slo_p99_ms: svc.slo.map(|s| s.p99_ms),
        outcomes,
    }
}

/// Runs the service workload under every shard in parallel (live sources)
/// and judges each against the SLO. Shard order is preserved.
///
/// # Errors
///
/// Propagates the first shard's [`SimError`], if any — live open-loop runs
/// only fail on configuration errors, which affect every shard alike.
pub fn run_slo_sweep(
    mix: &Mix,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    shards: &[ShardSpec],
) -> Result<SloReport, SimError> {
    let outcomes: Result<Vec<_>, SimError> = shards
        .par_iter()
        .map(|s| run_service_policy(mix, s.policy, cfg, svc).map(|run| outcome_of(s, &run, svc)))
        .collect();
    Ok(report_of(mix, cfg, svc, outcomes?))
}

/// Like [`run_slo_sweep`], but every shard replays the identical recorded
/// service trace instead of regenerating it live.
///
/// # Errors
///
/// The errors of [`run_service_policy_replay`].
pub fn run_slo_sweep_replay(
    mix: &Mix,
    cfg: &SimConfig,
    svc: &ServiceConfig,
    shards: &[ShardSpec],
    trace: &ReplayTrace,
) -> Result<SloReport, SimError> {
    let outcomes: Result<Vec<_>, SimError> = shards
        .par_iter()
        .map(|s| {
            run_service_policy_replay(mix, s.policy, cfg, svc, trace)
                .map(|run| outcome_of(s, &run, svc))
        })
        .collect();
    Ok(report_of(mix, cfg, svc, outcomes?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.system.cpu.cores = 4;
        cfg.duration = Picos::from_ms(4);
        cfg
    }

    fn svc(rate: &str) -> ServiceConfig {
        ServiceConfig::new(ArrivalSpec::parse(rate).unwrap()).with_slo(SloSpec::p99(2.0))
    }

    #[test]
    fn service_run_attaches_request_stats() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg();
        let run =
            run_service_policy(&mix, PolicyKind::Baseline, &cfg, &svc("poisson:2000")).unwrap();
        let stats = run.requests.expect("tracker installed");
        assert!(stats.submitted > 0, "no requests submitted");
        assert!(stats.completed > 0, "no requests completed");
        assert!(stats.completed <= stats.submitted);
        assert!(stats.p50_ms <= stats.p95_ms && stats.p95_ms <= stats.p99_ms);
    }

    #[test]
    fn same_seed_sweeps_are_byte_identical() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg();
        let shards = [
            ShardSpec::of(PolicyKind::Baseline),
            ShardSpec::of(PolicyKind::MemScale),
        ];
        let s = svc("diurnal:1x1000,1x3000");
        let a = run_slo_sweep(&mix, &cfg, &s, &shards).unwrap();
        let b = run_slo_sweep(&mix, &cfg, &s, &shards).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn replayed_sweep_matches_live_sweep_bit_exactly() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg();
        let s = svc("poisson:1500");
        let shards = [
            ShardSpec::of(PolicyKind::Baseline),
            ShardSpec::of(PolicyKind::MemScale),
        ];
        let live = run_slo_sweep(&mix, &cfg, &s, &shards).unwrap();
        let (header, streams) = record_service_trace(&mix, &cfg, &s, 50).unwrap();
        let trace = ReplayTrace::from_streams(header, streams);
        let replayed = run_slo_sweep_replay(&mix, &cfg, &s, &shards, &trace).unwrap();
        assert_eq!(live.to_json(), replayed.to_json());
    }

    #[test]
    fn overload_breaches_and_underload_does_not() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg();
        let shards = [ShardSpec::of(PolicyKind::Baseline)];
        // Sparse traffic finishes well inside a generous bound.
        let light = ServiceConfig::new(ArrivalSpec::parse("poisson:300").unwrap())
            .with_slo(SloSpec::p99(3.0));
        let ok = run_slo_sweep(&mix, &cfg, &light, &shards).unwrap();
        assert!(!ok.any_breach(), "light load breached: {}", ok.to_json());
        // Saturating traffic cannot hold a tight bound: the backlog grows.
        let heavy = ServiceConfig::new(ArrivalSpec::parse("poisson:20000").unwrap())
            .with_slo(SloSpec::p99(0.5));
        let bad = run_slo_sweep(&mix, &cfg, &heavy, &shards).unwrap();
        assert!(bad.any_breach(), "overload did not breach");
    }

    #[test]
    fn report_json_shape_is_stable() {
        let report = SloReport {
            mix: "MID1".into(),
            arrivals: "poisson:100".into(),
            seed: 7,
            duration: Picos::from_ms(2),
            slo_p99_ms: None,
            outcomes: vec![PolicyOutcome {
                label: "baseline".into(),
                stats: RequestStats::default(),
                mean_frequency_mhz: 800.0,
                memory_energy_j: 0.0,
                breach: false,
            }],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"memscale.slo.v1\""));
        assert!(json.contains("\"slo_p99_ms\": null"));
        assert!(json.contains("\"policy\": \"baseline\""));
        assert!(json.ends_with("\"breach\": false\n}"));
    }
}
