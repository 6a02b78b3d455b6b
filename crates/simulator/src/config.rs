//! Simulation-run configuration.

use memscale::governor::GovernorConfig;
use memscale_mc::RowPolicy;
use memscale_types::config::SystemConfig;
use memscale_types::faults::FaultPlan;
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

    /// A 64-bit fingerprint of every knob that shapes a run's miss stream
    /// and results — the hardware system, governor, duration, seed, slice
    /// size, timeline, row policy and fault plan.
    ///
    /// Trace artifacts embed this fingerprint, and replay refuses a trace
    /// whose fingerprint differs from the replay run's. The hash is FNV-1a
    /// over the stable `Debug` rendering of the fields; it is a
    /// *compatibility guard within one build of the workspace*, not a
    /// portable schema (the trace format version covers cross-build skew).
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
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
        assert!(c.system.validate().is_ok());
        assert_eq!(c.timeline_interval, None);
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
