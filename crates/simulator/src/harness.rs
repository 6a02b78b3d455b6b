//! Fixed-work experiment harness.
//!
//! [`Experiment::calibrate`] performs the baseline run (maximum frequency,
//! no management) for the configured duration, recording each core's work
//! and calibrating the rest-of-system power from the §4.1 memory-power
//! fraction. [`Experiment::evaluate`] then runs any policy until the same
//! work completes and reports energy savings and CPI degradation relative
//! to the baseline — the quantities plotted in Figs 5, 6, 9, 11 and the
//! sensitivity studies. [`record_calibrated`] records a replayable trace
//! and hands back its recording baseline as the calibrated experiment.
//! A configuration with a service workload (DESIGN.md §16) runs each
//! policy for the baseline's duration instead of over its work.

use crate::config::SimConfig;
use crate::engine::{live_sources, Simulation};
use crate::error::SimError;
use crate::result::RunResult;
use memscale::policies::PolicyKind;
use memscale_power::PowerModel;
use memscale_trace::{EncodedStream, MissTape, ReplayTrace, TraceError, TraceHeader};
use memscale_types::CancelToken;
use memscale_workloads::{MissSource, Mix};

/// Policy-vs-baseline summary for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Policy display name.
    pub policy: String,
    /// Workload name.
    pub mix: String,
    /// Fractional memory-subsystem energy savings (positive = better).
    pub memory_savings: f64,
    /// Fractional full-system energy savings.
    pub system_savings: f64,
    /// Per-core CPI increase versus baseline.
    pub per_core_cpi_increase: Vec<f64>,
    /// Per-application CPI increase (instances of each of the mix's four
    /// applications averaged together), in mix order.
    pub per_app_cpi_increase: Vec<f64>,
}

impl Comparison {
    /// Mean CPI increase across the mix's applications ("Multiprogram
    /// Average" in Fig 6).
    pub fn avg_cpi_increase(&self) -> f64 {
        if self.per_app_cpi_increase.is_empty() {
            0.0
        } else {
            self.per_app_cpi_increase.iter().sum::<f64>() / self.per_app_cpi_increase.len() as f64
        }
    }

    /// Worst application's CPI increase ("Worst Program in Mix" in Fig 6).
    pub fn max_cpi_increase(&self) -> f64 {
        self.per_app_cpi_increase
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }
}

/// A calibrated baseline against which policies are evaluated.
#[derive(Debug)]
pub struct Experiment {
    mix: Mix,
    cfg: SimConfig,
    baseline: RunResult,
}

impl Experiment {
    /// Runs the baseline and calibrates the rest-of-system power so that
    /// the *DIMMs* account for the configured fraction of server power.
    /// §4.1 states the fraction in terms of DIMM power, and §1 notes such
    /// estimates "do not consider the memory controller's energy" — so the
    /// MC is part of the memory subsystem but outside the 40 % calibration.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from building or running the baseline.
    pub fn calibrate(mix: &Mix, cfg: &SimConfig) -> Result<Self, SimError> {
        Experiment::calibrate_sources(mix, cfg, live_sources(mix, cfg))
    }

    /// Like [`Experiment::calibrate`], but the baseline's miss events come
    /// from a recorded `trace` instead of the live generator. The trace's
    /// header must match this run's generation, configuration fingerprint
    /// and core count; when it was recorded at the same seed the resulting
    /// baseline is bit-identical to the live one.
    ///
    /// # Errors
    ///
    /// [`SimError::Trace`] with [`TraceError::ConfigMismatch`] for a trace
    /// recorded under a different configuration, plus the errors of
    /// [`Experiment::calibrate`].
    pub fn calibrate_replay(
        mix: &Mix,
        cfg: &SimConfig,
        trace: &ReplayTrace,
    ) -> Result<Self, SimError> {
        check_trace(mix, cfg, trace)?;
        Experiment::calibrate_sources(mix, cfg, trace.streams())
    }

    /// Calibrates a baseline whose miss events come from `sources`.
    pub(crate) fn calibrate_sources(
        mix: &Mix,
        cfg: &SimConfig,
        sources: Vec<Box<dyn MissSource + Send>>,
    ) -> Result<Self, SimError> {
        let sim = Simulation::with_sources(mix, PolicyKind::Baseline, cfg, sources)?;
        let mut baseline = sim.run_for(cfg.duration, 0.0)?;
        let power = PowerModel::new(&cfg.system);
        let elapsed = baseline.energy.elapsed.as_secs_f64();
        let dimm_avg_w =
            (baseline.energy.memory_total_j() - baseline.energy.memory_j.mc_w) / elapsed;
        let rest_w = power.rest_of_system_w(dimm_avg_w);
        baseline.energy.rest_j = rest_w * elapsed;
        baseline.rest_w = rest_w;
        Ok(Experiment {
            mix: mix.clone(),
            cfg: cfg.clone(),
            baseline,
        })
    }

    /// The calibrated baseline run.
    #[inline]
    pub fn baseline(&self) -> &RunResult {
        &self.baseline
    }

    /// The calibrated rest-of-system power (W).
    #[inline]
    pub fn rest_w(&self) -> f64 {
        self.baseline.rest_w
    }

    /// The workload under study.
    #[inline]
    pub fn mix(&self) -> &Mix {
        &self.mix
    }

    /// Runs `policy` over the baseline's work and compares.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from building or running the policy run.
    pub fn evaluate(&self, policy: PolicyKind) -> Result<(RunResult, Comparison), SimError> {
        self.evaluate_configured(policy, &self.cfg)
    }

    /// Runs `policy` over the baseline's work with miss events replayed
    /// from `trace`, and compares against this baseline. Replaying the
    /// trace at its recording seed/configuration reproduces the live run
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`SimError::Trace`]/[`TraceError::ConfigMismatch`] for a trace from
    /// a different configuration, [`SimError::TraceExhausted`] when the
    /// trace's margin is too small for this policy, plus the errors of
    /// [`Experiment::evaluate`].
    pub fn evaluate_replay(
        &self,
        policy: PolicyKind,
        trace: &ReplayTrace,
    ) -> Result<(RunResult, Comparison), SimError> {
        self.evaluate_replay_cancellable(policy, trace, &CancelToken::new())
    }

    /// Like [`Experiment::evaluate_replay`], but the run carries `cancel`
    /// and stops cooperatively — returning [`SimError::Cancelled`] — at
    /// the first epoch boundary after the token is raised. The serving
    /// layer uses this to honour job deadlines and shutdown drains without
    /// abandoning a thread mid-simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token is raised mid-run, plus the
    /// errors of [`Experiment::evaluate_replay`].
    pub fn evaluate_replay_cancellable(
        &self,
        policy: PolicyKind,
        trace: &ReplayTrace,
        cancel: &CancelToken,
    ) -> Result<(RunResult, Comparison), SimError> {
        check_trace(&self.mix, &self.cfg, trace)?;
        self.run_sources(policy, &self.cfg, trace.streams(), cancel)
    }

    /// Runs `policy` with an overridden configuration (e.g. a different γ
    /// or epoch length) against this baseline. The hardware system must be
    /// unchanged or the comparison is meaningless.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from building or running the policy run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` changes the hardware system or the trace seed.
    pub fn evaluate_configured(
        &self,
        policy: PolicyKind,
        cfg: &SimConfig,
    ) -> Result<(RunResult, Comparison), SimError> {
        assert_eq!(cfg.system, self.cfg.system, "hardware must match baseline");
        assert_eq!(cfg.seed, self.cfg.seed, "seed must match baseline");
        let sources = live_sources(&self.mix, cfg);
        self.run_sources(policy, cfg, sources, &CancelToken::new())
    }

    /// Runs `policy` with miss events from `sources`, and compares. A
    /// batch run executes the baseline's work. A service run lasts the
    /// baseline's duration, because its requests arrive on the clock
    /// whatever the policy: it shows no CPI increase, and its governor gets
    /// no rest-of-system power, so only its memory savings compare.
    fn run_sources(
        &self,
        policy: PolicyKind,
        cfg: &SimConfig,
        sources: Vec<Box<dyn MissSource + Send>>,
        cancel: &CancelToken,
    ) -> Result<(RunResult, Comparison), SimError> {
        let mut sim = Simulation::with_sources(&self.mix, policy, cfg, sources)?;
        sim.set_cancel_token(cancel.clone());
        let run = if cfg.service.is_some() {
            sim.run_for(self.baseline.duration, 0.0)?
        } else {
            sim.set_rest_of_system_w(self.rest_w());
            sim.run_until_work(&self.baseline.work, self.rest_w())?
        };
        let cmp = self.compare(&run);
        Ok((run, cmp))
    }

    /// Compares an already-completed fixed-work run against the baseline.
    pub fn compare(&self, run: &RunResult) -> Comparison {
        let base_t = self.baseline.duration.as_secs_f64();
        let per_core_cpi_increase: Vec<f64> = run
            .completion
            .iter()
            .map(|t| (t.as_secs_f64() / base_t - 1.0).max(-1.0))
            .collect();

        // Average the instances of each distinct application.
        let per_app_cpi_increase = (0..4)
            .map(|a| {
                let vals: Vec<f64> = per_core_cpi_increase
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| c % 4 == a)
                    .map(|(_, &v)| v)
                    .collect();
                if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            })
            .collect();

        Comparison {
            policy: run.policy.clone(),
            mix: run.mix.clone(),
            memory_savings: run.energy.memory_savings_vs(&self.baseline.energy),
            system_savings: run.energy.system_savings_vs(&self.baseline.energy),
            per_core_cpi_increase,
            per_app_cpi_increase,
        }
    }
}

/// The trace-header metadata a recording of `mix` under `cfg` carries: the
/// memory generation, the [`SimConfig::fingerprint`], the seed/slice
/// parameters and the per-core application table.
pub fn trace_header(mix: &Mix, cfg: &SimConfig) -> TraceHeader {
    TraceHeader {
        generation: cfg.system.timing.generation,
        config_hash: cfg.fingerprint(),
        seed: cfg.seed,
        slice_lines: cfg.slice_lines,
        apps: (0..cfg.system.cpu.cores)
            .map(|c| mix.app_on_core(c).to_string())
            .collect(),
    }
}

/// Verifies `trace` was recorded under `cfg` and `mix`: the generation,
/// configuration fingerprint, core count and per-core application table
/// must all match before a replay run is allowed to start.
///
/// # Errors
///
/// Returns [`SimError::Trace`] with [`TraceError::ConfigMismatch`] naming
/// the first disagreeing field.
pub fn check_trace(mix: &Mix, cfg: &SimConfig, trace: &ReplayTrace) -> Result<(), SimError> {
    check_header(mix, cfg, trace.header())
}

/// [`check_trace`] on a trace's header alone, for callers that have parsed
/// only the header (see [`memscale_trace::TraceReader::read_header`]).
pub(crate) fn check_header(
    mix: &Mix,
    cfg: &SimConfig,
    header: &TraceHeader,
) -> Result<(), SimError> {
    header.check_compat(
        cfg.system.timing.generation,
        cfg.fingerprint(),
        cfg.system.cpu.cores,
    )?;
    for (core, name) in header.apps.iter().enumerate() {
        let expected = mix.app_on_core(core);
        if name != expected {
            return Err(TraceError::ConfigMismatch {
                field: "app table",
                expected: format!("{expected} on core {core}"),
                got: name.clone(),
            }
            .into());
        }
    }
    Ok(())
}

/// Records a replayable trace of `mix` under `cfg`, and hands back the
/// recording baseline as the calibrated [`Experiment`].
///
/// Every recording run reads one [`MissTape`] over the live generator. The
/// baseline establishes each app's event prefix; fixed-work runs of
/// `policies` extend the prefixes to the longest any of them consumes
/// (fixed work at a lower frequency takes longer, so slow policies pull
/// more events per core). The tape then draws `margin_pct` percent more
/// continuation events per app (with a 64-event floor), so policies slower
/// than any of the recorded ones still replay without exhausting. Each
/// event is generated once.
///
/// A service workload needs no extra policies: its runs last a fixed
/// duration, so the Baseline, always at maximum frequency, is the fastest
/// consumer and its prefix bounds every other policy's.
///
/// The baseline read exactly the events the trace starts with, so the
/// returned experiment is bit-identical to [`Experiment::calibrate_replay`]
/// on the trace, without running the baseline a second time.
///
/// Returns the experiment, the header to stamp on the artifact and the
/// per-app streams as the tape holds them: in the trace's record encoding
/// (a few bytes per miss), ready for [`ReplayTrace::from_streams`] to
/// frame. No recording run, and nothing returned, holds a decoded miss.
///
/// # Errors
///
/// Propagates any [`SimError`] from the recording runs.
pub fn record_calibrated(
    mix: &Mix,
    cfg: &SimConfig,
    policies: &[PolicyKind],
    margin_pct: usize,
) -> Result<(Experiment, TraceHeader, Vec<EncodedStream>), SimError> {
    let tape = MissTape::new(live_sources(mix, cfg));
    let exp = Experiment::calibrate_sources(mix, cfg, tape.cursors())?;
    for &policy in policies {
        exp.run_sources(policy, cfg, tape.cursors(), &CancelToken::new())?;
    }
    Ok((exp, trace_header(mix, cfg), tape.finish(margin_pct)))
}

/// [`record_calibrated`] without the experiment: the header and the
/// encoded per-app streams of a replayable trace of `mix` under `cfg`,
/// which [`ReplayTrace::from_streams`] turns into the trace.
///
/// # Errors
///
/// Propagates any [`SimError`] from the recording runs.
pub fn record_trace(
    mix: &Mix,
    cfg: &SimConfig,
    policies: &[PolicyKind],
    margin_pct: usize,
) -> Result<(TraceHeader, Vec<EncodedStream>), SimError> {
    let (_, header, streams) = record_calibrated(mix, cfg, policies, margin_pct)?;
    Ok((header, streams))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_sets_dimm_fraction() {
        let mix = Mix::by_name("MID1").unwrap();
        let exp = Experiment::calibrate(&mix, &SimConfig::quick()).unwrap();
        let e = &exp.baseline().energy;
        let dimm = e.memory_total_j() - e.memory_j.mc_w;
        let total = dimm + e.rest_j; // DIMMs vs DIMMs + rest (MC excluded)
        assert!(
            (dimm / total - 0.4).abs() < 1e-6,
            "DIMM fraction {}",
            dimm / total
        );
        assert!(exp.rest_w() > 0.0);
    }

    #[test]
    fn memscale_saves_energy_within_bound_on_ilp() {
        let mix = Mix::by_name("ILP2").unwrap();
        let exp = Experiment::calibrate(&mix, &SimConfig::quick()).unwrap();
        let (_, cmp) = exp.evaluate(PolicyKind::MemScale).unwrap();
        assert!(
            cmp.memory_savings > 0.10,
            "ILP memory savings {}",
            cmp.memory_savings
        );
        assert!(
            cmp.system_savings > 0.0,
            "ILP system savings {}",
            cmp.system_savings
        );
        assert!(
            cmp.max_cpi_increase() < 0.14,
            "CPI bound violated: {}",
            cmp.max_cpi_increase()
        );
    }

    #[test]
    fn comparison_aggregates() {
        let c = Comparison {
            policy: "x".into(),
            mix: "y".into(),
            memory_savings: 0.0,
            system_savings: 0.0,
            per_core_cpi_increase: vec![],
            per_app_cpi_increase: vec![0.02, 0.04, 0.0, 0.06],
        };
        assert!((c.avg_cpi_increase() - 0.03).abs() < 1e-12);
        assert!((c.max_cpi_increase() - 0.06).abs() < 1e-12);
    }
}
