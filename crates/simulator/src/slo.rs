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
//! The workload is part of the run description
//! ([`SimConfig::service`]): a configuration that carries one runs its
//! request stream through every entry point — live, recorded, replayed,
//! served — and its fingerprint covers the workload, so a trace replays
//! only under the workload it was recorded with.
//!
//! The service traffic is a pure function of `(arrival spec, seed, request
//! model)` — it never consults the policy — so one recording under the
//! Baseline (the fastest consumer, which pulls the longest event prefix in
//! a fixed-duration run) replays bit-exactly under every policy through
//! `memscale-trace`, exactly like the batch traces:
//! [`crate::harness::record_calibrated`] with no extra policies records it.

use crate::config::SimConfig;
use crate::engine::{live_sources, Simulation};
use crate::error::SimError;
use crate::harness::check_trace;
use crate::result::RunResult;
use crate::shard::ShardSpec;
use memscale_arrivals::{ArrivalSpec, RequestModel, RequestSource, RequestTracker};
use memscale_trace::ReplayTrace;
use memscale_types::json::Json;
use memscale_types::requests::{RequestStats, SloSpec};
use memscale_types::time::Picos;
use memscale_workloads::{spec, MissSource, Mix};
use rayon::prelude::*;

/// The service workload of an SLO evaluation: who arrives, how much work
/// each request carries, and the latency objective to judge against.
#[derive(Debug, Clone, PartialEq)]
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
pub(crate) fn request_sources(
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
pub(crate) fn request_tracker(cfg: &SimConfig, svc: &ServiceConfig) -> RequestTracker {
    RequestTracker::new(
        &svc.arrivals,
        cfg.seed,
        cfg.duration,
        cfg.system.cpu.cores,
        svc.model.misses_per_core,
        svc.slo,
    )
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

/// Runs `cfg`'s service workload under every shard in parallel and judges
/// each against the SLO. Every shard replays `trace` when one is given
/// (checked once against `mix` and `cfg` before any shard runs), and
/// regenerates the request stream live otherwise. Shard order is
/// preserved.
///
/// # Errors
///
/// [`SimError::Trace`] for a trace recorded under another run
/// description, workload included; otherwise the first shard's
/// [`SimError`], if any — open-loop runs only fail on configuration
/// errors (which affect every shard alike) or on a trace too short for
/// the run ([`SimError::TraceExhausted`]).
///
/// # Panics
///
/// Panics if `cfg` carries no service workload.
pub fn run_slo_sweep(
    mix: &Mix,
    cfg: &SimConfig,
    shards: &[ShardSpec],
    trace: Option<&ReplayTrace>,
) -> Result<SloReport, SimError> {
    if let Some(trace) = trace {
        check_trace(mix, cfg, trace)?;
    }
    let svc = cfg
        .service
        .as_ref()
        .expect("an SLO sweep needs a service workload");
    let outcomes: Result<Vec<_>, SimError> = shards
        .par_iter()
        .map(|s| {
            let sources = trace.map_or_else(|| live_sources(mix, cfg), ReplayTrace::streams);
            let sim = Simulation::with_sources(mix, s.policy, cfg, sources)?;
            Ok(outcome_of(s, &sim.run_for(cfg.duration, 0.0)?, svc))
        })
        .collect();
    Ok(report_of(mix, cfg, svc, outcomes?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::record_trace;
    use memscale::policies::PolicyKind;

    /// A 4-core, 4 ms run of `rate` arrivals under a 2 ms p99 objective.
    fn quick_cfg(rate: &str) -> SimConfig {
        let mut cfg = SimConfig::quick().with_service(
            ServiceConfig::new(ArrivalSpec::parse(rate).unwrap()).with_slo(SloSpec::p99(2.0)),
        );
        cfg.system.cpu.cores = 4;
        cfg.duration = Picos::from_ms(4);
        cfg
    }

    #[test]
    fn service_run_attaches_request_stats() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg("poisson:2000");
        let sim = Simulation::new(&mix, PolicyKind::Baseline, &cfg).unwrap();
        let run = sim.run_for(cfg.duration, 0.0).unwrap();
        let stats = run.requests.expect("tracker installed");
        assert!(stats.submitted > 0, "no requests submitted");
        assert!(stats.completed > 0, "no requests completed");
        assert!(stats.completed <= stats.submitted);
        assert!(stats.p50_ms <= stats.p95_ms && stats.p95_ms <= stats.p99_ms);
    }

    #[test]
    fn same_seed_sweeps_are_byte_identical() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg("diurnal:1x1000,1x3000");
        let shards = [
            ShardSpec::of(PolicyKind::Baseline),
            ShardSpec::of(PolicyKind::MemScale),
        ];
        let a = run_slo_sweep(&mix, &cfg, &shards, None).unwrap();
        let b = run_slo_sweep(&mix, &cfg, &shards, None).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn replayed_sweep_matches_live_sweep_bit_exactly() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick_cfg("poisson:1500");
        let shards = [
            ShardSpec::of(PolicyKind::Baseline),
            ShardSpec::of(PolicyKind::MemScale),
        ];
        let live = run_slo_sweep(&mix, &cfg, &shards, None).unwrap();
        let (header, streams) = record_trace(&mix, &cfg, &[], 50).unwrap();
        let trace = ReplayTrace::from_streams(header, streams);
        let replayed = run_slo_sweep(&mix, &cfg, &shards, Some(&trace)).unwrap();
        assert_eq!(live.to_json(), replayed.to_json());
    }

    #[test]
    fn overload_breaches_and_underload_does_not() {
        let mix = Mix::by_name("MID1").unwrap();
        let shards = [ShardSpec::of(PolicyKind::Baseline)];
        // Sparse traffic finishes well inside a generous bound.
        let mut light = quick_cfg("poisson:300");
        light.service.as_mut().unwrap().slo = Some(SloSpec::p99(3.0));
        let ok = run_slo_sweep(&mix, &light, &shards, None).unwrap();
        assert!(!ok.any_breach(), "light load breached: {}", ok.to_json());
        // Saturating traffic cannot hold a tight bound: the backlog grows.
        let mut heavy = quick_cfg("poisson:20000");
        heavy.service.as_mut().unwrap().slo = Some(SloSpec::p99(0.5));
        let bad = run_slo_sweep(&mix, &heavy, &shards, None).unwrap();
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
