//! The combined memory-subsystem power model.

use crate::breakdown::MemoryPowerBreakdown;
use crate::dram_power::DramPowerCalc;
use crate::summary::ActivitySummary;
use memscale_dram::stats::{ChannelStats, RankStats};
use memscale_types::config::SystemConfig;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;

/// Computes memory-subsystem power, either exactly from observed activity
/// deltas or predictively from an [`ActivitySummary`].
#[derive(Debug, Clone)]
pub struct PowerModel {
    cfg: SystemConfig,
    calc: DramPowerCalc,
}

impl PowerModel {
    /// Builds the model for one system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        let calc = DramPowerCalc::new(
            &cfg.power,
            &cfg.timing,
            cfg.topology.chips_per_rank,
            cfg.topology.banks_per_rank,
        );
        PowerModel {
            cfg: cfg.clone(),
            calc,
        }
    }

    /// Memory-controller power (W) at data-bus utilization `util` and
    /// operating point `freq`.
    ///
    /// The utilization-linear idle→peak range (§4.1) is scaled by `V²·f`
    /// relative to the maximum operating point (§2.2's "cubic factor").
    pub fn mc_power_w(&self, util: f64, freq: MemFreq) -> f64 {
        let p = &self.cfg.power;
        let u = util.clamp(0.0, 1.0);
        let base = p.mc_w_idle() + (p.mc_w_peak - p.mc_w_idle()) * u;
        let v = freq.mc_voltage() / MemFreq::MAX.mc_voltage();
        base * v * v * freq.relative()
    }

    /// Register power per DIMM (W): utilization-linear idle→peak, scaled
    /// linearly with channel frequency (§4.1).
    pub fn reg_power_w(&self, util: f64, freq: MemFreq) -> f64 {
        let p = &self.cfg.power;
        let u = util.clamp(0.0, 1.0);
        (p.reg_w_idle() + (p.reg_w_peak - p.reg_w_idle()) * u) * freq.relative()
    }

    /// PLL power per DIMM (W): frequency-linear, utilization-independent
    /// (§4.1).
    pub fn pll_power_w(&self, freq: MemFreq) -> f64 {
        self.cfg.power.pll_w * freq.relative()
    }

    /// Exact memory-subsystem power over a window, from per-rank and
    /// per-channel activity deltas.
    ///
    /// `rank_deltas` must hold all ranks of the system (any order);
    /// `channel_deltas` one entry per channel. All channels are assumed to
    /// run at the same `freq` (the paper scales them in tandem).
    pub fn memory_power(
        &self,
        rank_deltas: &[RankStats],
        channel_deltas: &[ChannelStats],
        window: Picos,
        freq: MemFreq,
    ) -> MemoryPowerBreakdown {
        self.memory_power_split(rank_deltas, channel_deltas, window, freq, freq)
    }

    /// Like [`memory_power`](Self::memory_power) but with distinct DRAM
    /// *device* and channel *interface* frequencies — the Decoupled-DIMM
    /// configuration (§4.2.3), where devices run slow behind a
    /// synchronization buffer while the channel, registers, PLLs and MC stay
    /// at full speed.
    pub fn memory_power_split(
        &self,
        rank_deltas: &[RankStats],
        channel_deltas: &[ChannelStats],
        window: Picos,
        device_freq: MemFreq,
        interface_freq: MemFreq,
    ) -> MemoryPowerBreakdown {
        if window == Picos::ZERO {
            return MemoryPowerBreakdown::default();
        }
        let t = &self.cfg.topology;
        let mut out = MemoryPowerBreakdown::default();

        for delta in rank_deltas {
            let rp = self.calc.rank_power(delta, window, device_freq);
            out.background_w += rp.background_w;
            out.act_pre_w += rp.act_pre_w;
            out.rd_wr_w += rp.rd_wr_w;
        }

        let other_dimms = (t.dimms_per_channel as f64 - 1.0).max(0.0);
        let mut util_sum = 0.0;
        for delta in channel_deltas {
            let util = delta.utilization(window);
            util_sum += util;
            out.term_w += self.cfg.power.term_w_per_dimm * other_dimms * util;
            out.reg_w += self.reg_power_w(util, interface_freq) * t.dimms_per_channel as f64;
        }
        let avg_util = if channel_deltas.is_empty() {
            0.0
        } else {
            util_sum / channel_deltas.len() as f64
        };
        out.pll_w = self.pll_power_w(interface_freq) * t.total_dimms() as f64;
        out.mc_w = self.mc_power_w(avg_util, interface_freq);
        out
    }

    /// Memory-subsystem power when channels run at *different* frequencies
    /// (the paper's §6 per-channel future-work extension).
    ///
    /// `rank_deltas` must be channel-major (all ranks of channel 0 first);
    /// `freqs` holds one operating point per channel. DRAM, register, PLL
    /// and termination power are computed per channel at that channel's
    /// frequency; the single shared MC runs at the *fastest* channel's
    /// operating point with the average utilization.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with the topology.
    pub fn memory_power_heterogeneous(
        &self,
        rank_deltas: &[RankStats],
        channel_deltas: &[ChannelStats],
        window: Picos,
        freqs: &[MemFreq],
    ) -> MemoryPowerBreakdown {
        let t = &self.cfg.topology;
        let n_ch = t.channels as usize;
        let per_ch = t.ranks_per_channel() as usize;
        assert_eq!(channel_deltas.len(), n_ch, "one delta per channel");
        assert_eq!(freqs.len(), n_ch, "one frequency per channel");
        assert_eq!(rank_deltas.len(), n_ch * per_ch, "channel-major ranks");
        if window == Picos::ZERO {
            return MemoryPowerBreakdown::default();
        }

        let mut out = MemoryPowerBreakdown::default();
        let other_dimms = (t.dimms_per_channel as f64 - 1.0).max(0.0);
        let mut util_sum = 0.0;
        for ch in 0..n_ch {
            let f = freqs[ch];
            for delta in &rank_deltas[ch * per_ch..(ch + 1) * per_ch] {
                let rp = self.calc.rank_power(delta, window, f);
                out.background_w += rp.background_w;
                out.act_pre_w += rp.act_pre_w;
                out.rd_wr_w += rp.rd_wr_w;
            }
            let util = channel_deltas[ch].utilization(window);
            util_sum += util;
            out.term_w += self.cfg.power.term_w_per_dimm * other_dimms * util;
            out.reg_w += self.reg_power_w(util, f) * t.dimms_per_channel as f64;
            out.pll_w += self.pll_power_w(f) * t.dimms_per_channel as f64;
        }
        let mc_freq = freqs.iter().copied().max().unwrap_or(MemFreq::MAX);
        out.mc_w = self.mc_power_w(util_sum / n_ch as f64, mc_freq);
        out
    }

    /// Predicted memory-subsystem power at `freq` from an activity summary
    /// (already rescaled to `freq` by the caller; see
    /// [`ActivitySummary::rescale`]).
    pub fn memory_power_from_summary(
        &self,
        s: &ActivitySummary,
        freq: MemFreq,
    ) -> MemoryPowerBreakdown {
        let t = &self.cfg.topology;
        let p = &self.cfg.power;
        let n_ranks = t.total_ranks() as f64;
        let n_dimms = t.total_dimms() as f64;
        let scale = freq.relative();
        let v = p.vdd;
        let chips = t.chips_per_rank as f64;

        let f_dpd = s.deep_pd_frac.clamp(0.0, 1.0);
        let f_pd = s.pd_frac.clamp(0.0, 1.0 - f_dpd);
        let f_act = s.active_frac.clamp(0.0, 1.0 - f_dpd - f_pd);
        let f_pre = (1.0 - f_dpd - f_pd - f_act).max(0.0);
        let standby_per_rank =
            chips * v * (p.i_act_stby_ma * f_act + p.i_pre_stby_ma * f_pre + p.i_pre_pd_ma * f_pd)
                / 1_000.0
                * scale;
        // Deep power-down current does not scale with the (stopped) clock.
        let deep_per_rank = chips * v * p.i_dpd_ma * f_dpd / 1_000.0;
        let background_w =
            (standby_per_rank + deep_per_rank + self.calc.refresh_power_w()) * n_ranks;

        let act_pre_w = self.calc.act_pre_energy_j() * s.act_rate_hz;
        let rd_wr_w = (self.calc.burst_power_w(false) * s.read_burst_frac
            + self.calc.burst_power_w(true) * s.write_burst_frac)
            * n_ranks;

        let other_dimms = (t.dimms_per_channel as f64 - 1.0).max(0.0);
        let term_w = p.term_w_per_dimm * other_dimms * s.bus_util * t.channels as f64;

        MemoryPowerBreakdown {
            background_w,
            act_pre_w,
            rd_wr_w,
            term_w,
            pll_w: self.pll_power_w(freq) * n_dimms,
            reg_w: self.reg_power_w(s.bus_util, freq) * n_dimms,
            mc_w: self.mc_power_w(s.bus_util, freq),
        }
    }

    /// Rest-of-system power derived from the memory-power fraction (§4.1):
    /// with memory at `mem_avg_w` accounting for `mem_power_fraction` of the
    /// server, everything else draws a fixed
    /// `mem_avg_w · (1 − fraction) / fraction`.
    pub fn rest_of_system_w(&self, mem_avg_w: f64) -> f64 {
        let frac = self.cfg.power.mem_power_fraction;
        mem_avg_w * (1.0 - frac) / frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(&SystemConfig::default())
    }

    #[test]
    fn mc_power_scales_cubically() {
        let m = model();
        let hi = m.mc_power_w(0.0, MemFreq::F800);
        let lo = m.mc_power_w(0.0, MemFreq::F200);
        assert_eq!(hi, 7.5); // idle at max V/f
                             // V scales 1.2 -> 0.65, f scales 4x: expect (0.65/1.2)^2 * 0.25.
        let expect = 7.5 * (0.65f64 / 1.2).powi(2) * 0.25;
        assert!((lo - expect).abs() < 1e-9, "{lo} vs {expect}");
        assert!(lo < hi / 10.0, "MC DVFS should be super-linear");
    }

    #[test]
    fn mc_power_scales_with_utilization() {
        let m = model();
        assert_eq!(m.mc_power_w(1.0, MemFreq::F800), 15.0);
        assert_eq!(m.mc_power_w(0.5, MemFreq::F800), 11.25);
        // Out-of-range utilization is clamped.
        assert_eq!(m.mc_power_w(7.0, MemFreq::F800), 15.0);
    }

    #[test]
    fn reg_and_pll_scale_linearly() {
        let m = model();
        assert_eq!(m.pll_power_w(MemFreq::F800), 0.5);
        assert_eq!(m.pll_power_w(MemFreq::F400), 0.25);
        assert_eq!(m.reg_power_w(0.0, MemFreq::F800), 0.25);
        assert_eq!(m.reg_power_w(1.0, MemFreq::F800), 0.5);
        assert_eq!(m.reg_power_w(1.0, MemFreq::F400), 0.25);
    }

    #[test]
    fn idle_system_power_is_dominated_by_background() {
        let m = model();
        let ranks = vec![RankStats::new(); 16];
        let channels = vec![ChannelStats::new(); 4];
        let p = m.memory_power(&ranks, &channels, Picos::from_ms(1), MemFreq::F800);
        assert!(p.background_w > 10.0, "16 idle ranks ≈ 16-20 W: {p:?}");
        assert_eq!(p.act_pre_w, 0.0);
        assert_eq!(p.rd_wr_w, 0.0);
        assert_eq!(p.term_w, 0.0);
        assert_eq!(p.mc_w, 7.5);
        assert_eq!(p.pll_w, 4.0); // 8 DIMMs x 0.5 W
        assert_eq!(p.reg_w, 2.0); // 8 DIMMs x 0.25 W idle
                                  // Total idle memory power should be a plausible server figure.
        assert!(p.total_w() > 25.0 && p.total_w() < 45.0, "{}", p.total_w());
    }

    #[test]
    fn busy_channels_add_term_reg_mc_power() {
        let m = model();
        let ranks = vec![RankStats::new(); 16];
        let mut channels = vec![ChannelStats::new(); 4];
        for c in &mut channels {
            c.burst_time = Picos::from_us(500); // 50% busy
        }
        let p = m.memory_power(&ranks, &channels, Picos::from_ms(1), MemFreq::F800);
        assert!((p.term_w - 0.5 * 0.5 * 4.0).abs() < 1e-9);
        assert!((p.mc_w - 11.25).abs() < 1e-9);
        assert!(p.reg_w > 2.0);
    }

    #[test]
    fn summary_prediction_matches_exact_for_idle() {
        let m = model();
        let ranks = vec![RankStats::new(); 16];
        let channels = vec![ChannelStats::new(); 4];
        let w = Picos::from_ms(1);
        let exact = m.memory_power(&ranks, &channels, w, MemFreq::F800);
        let summary = ActivitySummary::from_deltas(&ranks, &channels, w);
        let pred = m.memory_power_from_summary(&summary, MemFreq::F800);
        assert!((exact.total_w() - pred.total_w()).abs() < 1e-6);
    }

    #[test]
    fn summary_prediction_tracks_exact_under_load() {
        let m = model();
        let w = Picos::from_ms(1);
        let mut ranks = vec![RankStats::new(); 16];
        for r in &mut ranks {
            r.act_count = 5_000;
            r.record_read_burst(Picos::from_us(50));
            r.active_time = Picos::from_us(250);
        }
        let mut channels = vec![ChannelStats::new(); 4];
        for c in &mut channels {
            c.burst_time = Picos::from_us(200);
        }
        let exact = m.memory_power(&ranks, &channels, w, MemFreq::F800);
        let summary = ActivitySummary::from_deltas(&ranks, &channels, w);
        let pred = m.memory_power_from_summary(&summary, MemFreq::F800);
        let err = (exact.total_w() - pred.total_w()).abs() / exact.total_w();
        assert!(err < 0.01, "prediction error {err}");
    }

    #[test]
    fn rest_of_system_from_fraction() {
        let m = model();
        // 40% memory fraction: rest = 1.5x memory.
        assert!((m.rest_of_system_w(40.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_cuts_background_and_mc() {
        let m = model();
        let ranks = vec![RankStats::new(); 16];
        let channels = vec![ChannelStats::new(); 4];
        let w = Picos::from_ms(1);
        let hi = m.memory_power(&ranks, &channels, w, MemFreq::F800);
        let lo = m.memory_power(&ranks, &channels, w, MemFreq::F200);
        assert!(lo.total_w() < hi.total_w() * 0.5);
        assert!(lo.mc_w < hi.mc_w * 0.1);
    }
}
