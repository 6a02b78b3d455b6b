//! The per-epoch observation the OS policy consumes.

use memscale_mc::McCounters;
use memscale_power::ActivitySummary;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;

/// Per-application counter activity over one window: the TIC/TLM deltas
/// of one core (§3.1), read by the engine once per boundary.
pub type AppSample = memscale_cpu::CoreCounters;

/// Everything the policy reads at a profiling or epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    /// Length of the observed window.
    pub window: Picos,
    /// Operating point during the window.
    pub freq: MemFreq,
    /// One sample per application instance (per core).
    pub apps: Vec<AppSample>,
    /// Controller counter deltas over the window.
    pub mc: McCounters,
    /// Aggregated rank/channel activity over the window (for Eq 10's power
    /// prediction).
    pub activity: ActivitySummary,
}

impl EpochProfile {
    /// Measured CPI of application `app` at CPU frequency `cpu_hz`.
    /// Returns `None` when the app retired nothing.
    pub fn measured_cpi(&self, app: usize, cpu_hz: f64) -> Option<f64> {
        self.apps
            .get(app)
            .and_then(|s| s.tpi_secs(self.window))
            .map(|tpi| tpi * cpu_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_and_tpi() {
        let s = AppSample {
            tic: 1_000,
            tlm: 20,
        };
        assert!((s.alpha() - 0.02).abs() < 1e-12);
        let tpi = s.tpi_secs(Picos::from_us(1)).unwrap();
        assert!((tpi - 1e-9).abs() < 1e-18);
        assert_eq!(AppSample::default().tpi_secs(Picos::from_us(1)), None);
    }

    #[test]
    fn measured_cpi() {
        let p = EpochProfile {
            window: Picos::from_us(1),
            freq: MemFreq::F800,
            apps: vec![AppSample { tic: 2_000, tlm: 0 }],
            mc: McCounters::new(),
            activity: ActivitySummary::default(),
        };
        // 2000 instructions in 1 us at 4 GHz = 4000 cycles -> CPI 2.
        let cpi = p.measured_cpi(0, 4e9).unwrap();
        assert!((cpi - 2.0).abs() < 1e-9);
        assert_eq!(p.measured_cpi(5, 4e9), None);
    }
}
