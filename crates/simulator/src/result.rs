//! Run outputs.

use memscale_mc::McCounters;
use memscale_power::EnergyAccount;
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;

/// One timeline sample (Figs 7/8): the state of the run over the interval
/// ending at `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// End of the sampled interval.
    pub at: Picos,
    /// Bus frequency in effect at the sample point (MHz).
    pub bus_mhz: u32,
    /// Per-core CPI over the interval (0 when a core retired nothing).
    pub core_cpi: Vec<f64>,
    /// Per-channel data-bus utilization over the interval.
    pub channel_util: Vec<f64>,
}

/// The complete outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy display name.
    pub policy: String,
    /// Workload name.
    pub mix: String,
    /// Memory generation the run was simulated with.
    pub generation: MemGeneration,
    /// Wall-clock simulated time.
    pub duration: Picos,
    /// Integrated energy (memory per category + rest of system).
    pub energy: EnergyAccount,
    /// Fixed rest-of-system power assumed (W).
    pub rest_w: f64,
    /// Instructions each core retired (the run's work).
    pub work: Vec<u64>,
    /// When each core completed its work target (== `duration` for the
    /// baseline, which defines the targets).
    pub completion: Vec<Picos>,
    /// Controller counters over the whole run.
    pub counters: McCounters,
    /// Time spent at each operating point, indexed like [`MemFreq::ALL`].
    pub freq_residency_ps: Vec<u64>,
    /// Total rank-time spent in deep power-down across all ranks (LPDDR
    /// generations; zero elsewhere).
    pub deep_pd_time: Picos,
    /// Captured timeline (empty unless requested).
    pub timeline: Vec<TimelineSample>,
    /// Applied-fault and degradation tally (`None` unless the run was
    /// configured with an active fault plan).
    pub faults: Option<memscale_faults::FaultReport>,
    /// Per-request latency statistics (`None` unless the run carried an
    /// open-loop service workload with a request tracker installed).
    pub requests: Option<memscale_types::requests::RequestStats>,
    /// Protocol conformance report for the run's full command stream,
    /// checked against its generation's rule pack. A [`Simulation`] fills
    /// it when its config asks for the audit ([`SimConfig::audit`], the
    /// default) and leaves it `None` when it does not, as in the sweep
    /// server's runs; results built by hand may leave it `None` too. Every
    /// other field is the same either way.
    ///
    /// [`Simulation`]: crate::Simulation
    /// [`SimConfig::audit`]: crate::SimConfig::audit
    pub audit: Option<memscale_audit::AuditReport>,
    /// Most DRAM commands held at once between recording and audit replay:
    /// a deterministic measure of audit memory, kept out of the report and
    /// of every output format (0 for an unaudited run).
    pub audit_peak_held: usize,
}

impl RunResult {
    /// Average CPI of core `core` over its completed work.
    ///
    /// Returns `None` if that core retired nothing.
    pub fn core_cpi(&self, core: usize, cpu_hz: f64) -> Option<f64> {
        let work = *self.work.get(core)?;
        if work == 0 {
            return None;
        }
        let t = self.completion.get(core)?.as_secs_f64();
        Some(t * cpu_hz / work as f64)
    }

    /// Mean operating frequency weighted by residency (MHz).
    pub fn mean_frequency_mhz(&self) -> f64 {
        let total: u64 = self.freq_residency_ps.iter().sum();
        if total == 0 {
            return MemFreq::MAX.mhz() as f64;
        }
        self.freq_residency_ps
            .iter()
            .enumerate()
            .map(|(i, &ps)| MemFreq::ALL[i].mhz() as f64 * ps as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Average per-rank fraction of the run spent in deep power-down, given
    /// the total rank count.
    ///
    /// Returns 0.0 for an empty run or zero ranks.
    pub fn deep_pd_residency(&self, ranks: usize) -> f64 {
        if self.duration == Picos::ZERO || ranks == 0 {
            return 0.0;
        }
        self.deep_pd_time.as_secs_f64() / (self.duration.as_secs_f64() * ranks as f64)
    }

    /// Fraction of time at the operating point `freq`.
    pub fn residency(&self, freq: MemFreq) -> f64 {
        let total: u64 = self.freq_residency_ps.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.freq_residency_ps[freq.index()] as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        let mut residency = vec![0u64; 10];
        residency[MemFreq::F800.index()] = 3_000;
        residency[MemFreq::F400.index()] = 1_000;
        RunResult {
            policy: "Test".into(),
            mix: "MID1".into(),
            generation: MemGeneration::Ddr3,
            duration: Picos::from_ms(4),
            energy: EnergyAccount::new(),
            rest_w: 60.0,
            work: vec![8_000_000, 0],
            completion: vec![Picos::from_ms(4), Picos::from_ms(4)],
            counters: McCounters::new(),
            freq_residency_ps: residency,
            deep_pd_time: Picos::ZERO,
            timeline: vec![],
            faults: None,
            requests: None,
            audit: None,
            audit_peak_held: 0,
        }
    }

    #[test]
    fn core_cpi_from_work_and_time() {
        let r = result();
        // 8M instructions in 4 ms at 4 GHz = 16M cycles -> CPI 2.
        let cpi = r.core_cpi(0, 4e9).unwrap();
        assert!((cpi - 2.0).abs() < 1e-9);
        assert_eq!(r.core_cpi(1, 4e9), None); // zero work
        assert_eq!(r.core_cpi(7, 4e9), None); // out of range
    }

    #[test]
    fn frequency_aggregates() {
        let r = result();
        // 3/4 at 800, 1/4 at 400 -> mean 700.
        assert!((r.mean_frequency_mhz() - 700.0).abs() < 1e-9);
        assert!((r.residency(MemFreq::F800) - 0.75).abs() < 1e-12);
        assert_eq!(r.residency(MemFreq::F200), 0.0);
    }

    #[test]
    fn empty_residency_defaults_to_max() {
        let mut r = result();
        r.freq_residency_ps = vec![0; 10];
        assert_eq!(r.mean_frequency_mhz(), 800.0);
    }

    #[test]
    fn deep_pd_residency_averages_over_ranks() {
        let mut r = result();
        // 4 ms run, 16 ranks, 8 rank-ms in deep PD -> 1/8 average residency.
        r.deep_pd_time = Picos::from_ms(8);
        assert!((r.deep_pd_residency(16) - 0.125).abs() < 1e-12);
        assert_eq!(r.deep_pd_residency(0), 0.0);
    }
}
