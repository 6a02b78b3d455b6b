//! Simulation-run configuration.

use crate::slo::ServiceConfig;
use memscale::governor::GovernorConfig;
use memscale_arrivals::{ArrivalError, ArrivalSpec};
use memscale_mc::RowPolicy;
use memscale_types::config::{ConfigError, SystemConfig};
use memscale_types::faults::FaultPlan;
use memscale_types::requests::SloSpec;
use memscale_types::serve::JobSpec;
use memscale_types::time::Picos;

/// Everything one simulation run needs besides the mix and the policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hardware configuration (Table 2 defaults).
    pub system: SystemConfig,
    /// Policy parameters for the MemScale variants.
    pub governor: GovernorConfig,
    /// Baseline run length; policy runs match the baseline's *work*, so
    /// they may take up to (1 + γ) times longer.
    pub duration: Picos,
    /// Master seed for trace generation.
    pub seed: u64,
    /// Cache lines in each application instance's private address slice.
    pub slice_lines: u64,
    /// Timeline sampling interval for Figs 7/8 (None = no timeline).
    pub timeline_interval: Option<Picos>,
    /// Row-buffer management (closed-page per §4.1; open-page is the
    /// DESIGN.md §5 ablation).
    pub row_policy: RowPolicy,
    /// Fault-injection plan (`None` or an all-zero-rate plan leaves the
    /// run byte-identical to a faultless build; see DESIGN.md §9).
    pub faults: Option<FaultPlan>,
    /// Open-loop service workload (`None`: the mix's batch traces). When
    /// set, the cores serve its request stream for the run's duration
    /// and every run reports its request latencies (DESIGN.md §16).
    pub service: Option<ServiceConfig>,
    /// Whether the run records its DRAM command stream and replays it
    /// through the protocol auditor (DESIGN.md §7), filling
    /// [`RunResult::audit`](crate::RunResult::audit). On by default; the
    /// sweep server turns it off, because nothing reads a served cell's
    /// audit. Recording only observes, so every other result is the same
    /// either way.
    pub audit: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            system: SystemConfig::default(),
            governor: GovernorConfig::default(),
            duration: Picos::from_ms(20),
            seed: 0x5EED_CA5E,
            // 2 GB per DIMM x 8 DIMMs / 16 apps = 1 GB per app = 2^24 lines.
            slice_lines: 1 << 24,
            timeline_interval: None,
            row_policy: RowPolicy::ClosedPage,
            faults: None,
            service: None,
            audit: true,
        }
    }
}

impl SimConfig {
    /// A configuration with a shorter horizon for fast tests.
    pub fn quick() -> Self {
        SimConfig {
            duration: Picos::from_ms(6),
            ..SimConfig::default()
        }
    }

    /// The default configuration re-based on `generation`'s reference
    /// device parameters (see [`SystemConfig::for_generation`]).
    pub fn for_generation(generation: memscale_types::config::MemGeneration) -> Self {
        SimConfig {
            system: SystemConfig::for_generation(generation),
            ..SimConfig::default()
        }
    }

    /// The run `job` describes (unvalidated): its generation's defaults
    /// with the job's horizon, γ, epoch, cores, channels and seed, and
    /// its service workload when it names arrivals (with the default
    /// request model and the job's p99 objective). The one derivation of
    /// a run from a run description; the sweep server and `memscale-sim`
    /// both build their runs here.
    ///
    /// # Errors
    ///
    /// The [`ArrivalError`] of a malformed `arrivals` spec.
    pub fn for_job(job: &JobSpec) -> Result<Self, ArrivalError> {
        let mut cfg = SimConfig::for_generation(job.generation)
            .with_duration(Picos::from_ms(job.duration_ms));
        cfg.governor.gamma = job.gamma_pct / 100.0;
        cfg.governor.epoch = Picos::from_ms(job.epoch_ms);
        cfg.system.cpu.cores = job.cores;
        cfg.system.topology.channels = job.channels;
        if let Some(seed) = job.seed {
            cfg.seed = seed;
        }
        if let Some(spec) = &job.arrivals {
            let mut svc = ServiceConfig::new(ArrivalSpec::parse(spec)?);
            svc.slo = job.slo_p99_ms.map(SloSpec::p99);
            cfg.service = Some(svc);
        }
        Ok(cfg)
    }

    /// Re-bases this configuration on `generation`, keeping every
    /// non-hardware knob (duration, seed, governor, …).
    #[must_use]
    pub fn with_generation(mut self, generation: memscale_types::config::MemGeneration) -> Self {
        self.system = SystemConfig::for_generation(generation);
        self
    }

    /// Enables timeline capture at `interval`.
    #[must_use]
    pub fn with_timeline(mut self, interval: Picos) -> Self {
        self.timeline_interval = Some(interval);
        self
    }

    /// Sets the baseline duration.
    #[must_use]
    pub fn with_duration(mut self, duration: Picos) -> Self {
        self.duration = duration;
        self
    }

    /// Arms fault injection with `plan` (validated when the simulation is
    /// built).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the open-loop service workload `svc` instead of the mix's
    /// batch traces.
    #[must_use]
    pub fn with_service(mut self, svc: ServiceConfig) -> Self {
        self.service = Some(svc);
        self
    }

    /// Checks the hardware system ([`SystemConfig::validate`]) and the
    /// run's boundary schedule: a positive epoch, a profiling phase shorter
    /// than the epoch, and a positive timeline interval. A zero epoch or
    /// interval would revisit one boundary forever, and a profiling phase
    /// that reaches the epoch's end would move the boundary clock
    /// backwards.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate()?;
        let GovernorConfig {
            epoch, profile_len, ..
        } = self.governor;
        if epoch == Picos::ZERO {
            return Err(ConfigError::new("governor epoch must be > 0"));
        }
        if profile_len >= epoch {
            return Err(ConfigError::new(format!(
                "governor profile_len ({profile_len}) must be shorter than the epoch ({epoch})"
            )));
        }
        if self.timeline_interval == Some(Picos::ZERO) {
            return Err(ConfigError::new("timeline_interval must be > 0"));
        }
        Ok(())
    }

    /// A 64-bit fingerprint of every knob that shapes a run's miss stream
    /// and results — the hardware system, governor, duration, seed, slice
    /// size, timeline, row policy, fault plan and service workload
    /// (arrivals, request model and SLO target).
    ///
    /// Trace artifacts embed this fingerprint, replay refuses a trace
    /// whose fingerprint differs from the replay run's, and the sweep
    /// server keys its caches and journal by it. The hash is FNV-1a over
    /// the stable `Debug` rendering of the fields; it is a *compatibility
    /// guard within one build of the workspace*, not a portable schema
    /// (the trace format version covers cross-build skew). The workload
    /// joins the rendering only when one is set, so a batch configuration
    /// keeps the hash its recorded traces, cache keys and journal entries
    /// carry. The [`audit`](SimConfig::audit) switch is left out: recording
    /// the command stream only observes the run
    /// (`crates/dram/tests/audit_oracle.rs::recording_only_observes`), so
    /// an audited and an unaudited run of one configuration produce the
    /// same results and share its traces, cache entries and journal.
    pub fn fingerprint(&self) -> u64 {
        let mut canonical = format!(
            "{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}",
            self.system,
            self.governor,
            self.duration,
            self.seed,
            self.slice_lines,
            self.timeline_interval,
            self.row_policy,
            self.faults,
        );
        if let Some(svc) = &self.service {
            canonical.push_str(&format!("|{svc:?}"));
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.duration >= c.governor.epoch);
        assert!(c.validate().is_ok());
        assert_eq!(c.timeline_interval, None);
        assert!(c.audit);
    }

    #[test]
    fn generation_rebase_keeps_run_knobs() {
        use memscale_types::config::MemGeneration;
        let c = SimConfig::quick().with_generation(MemGeneration::Lpddr3);
        assert_eq!(c.system.timing.generation, MemGeneration::Lpddr3);
        assert_eq!(c.duration, Picos::from_ms(6));
        assert!(c.system.validate().is_ok());
        let d = SimConfig::for_generation(MemGeneration::Ddr4);
        assert_eq!(d.system.timing.generation, MemGeneration::Ddr4);
        assert_eq!(d.system.topology.banks_per_rank, 16);
    }

    #[test]
    fn job_fields_reach_the_run() {
        use memscale_types::config::MemGeneration;
        let mut job = JobSpec::for_mix("j", "MID1");
        job.generation = MemGeneration::Ddr4;
        job.gamma_pct = 5.0;
        job.seed = Some(9);
        job.channels = 2;
        let c = SimConfig::for_job(&job).unwrap();
        assert_eq!(c.system.timing.generation, MemGeneration::Ddr4);
        assert_eq!(c.duration, Picos::from_ms(4));
        assert_eq!(c.governor.epoch, Picos::from_ms(5));
        assert!((c.governor.gamma - 0.05).abs() < 1e-12);
        assert_eq!((c.seed, c.system.topology.channels), (9, 2));
        assert_eq!(c.system.cpu.cores, 16);
        assert_eq!(c.service, None);
        job.seed = None;
        job.arrivals = Some("poisson:1500".into());
        job.slo_p99_ms = Some(5.0);
        let c = SimConfig::for_job(&job).unwrap();
        assert_eq!(c.seed, SimConfig::default().seed);
        let svc = ServiceConfig::new(ArrivalSpec::parse("poisson:1500").unwrap());
        assert_eq!(c.service, Some(svc.with_slo(SloSpec::p99(5.0))));
        job.arrivals = Some("warp:9".into());
        assert!(SimConfig::for_job(&job).is_err());
    }

    #[test]
    fn builders() {
        let c = SimConfig::quick()
            .with_timeline(Picos::from_ms(1))
            .with_duration(Picos::from_ms(10))
            .with_faults(FaultPlan::uniform(1, 0.25));
        assert_eq!(c.duration, Picos::from_ms(10));
        assert_eq!(c.timeline_interval, Some(Picos::from_ms(1)));
        assert!(c.faults.as_ref().is_some_and(FaultPlan::is_active));
        assert_eq!(SimConfig::default().faults, None);
    }
}
