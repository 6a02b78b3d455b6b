//! System configuration mirroring Table 2 of the paper.
//!
//! All structs here are plain data: the DRAM crate interprets
//! [`DramTimingConfig`], the power crate interprets [`PowerConfig`], and the
//! simulator wires everything together from one [`SystemConfig`].

use crate::time::Picos;

/// Errors raised when validating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// An error whose `message` names the offending field and its bound.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The DRAM standard a [`DramTimingConfig`] describes.
///
/// The paper evaluates DDR3 only; the simulator keeps its mechanism
/// (MC DVFS + channel/DIMM DFS) generation-agnostic and lets the device
/// model plug in later standards:
///
/// * [`MemGeneration::Ddr3`] — Table 2's device, the default everywhere.
/// * [`MemGeneration::Ddr4`] — adds bank groups with split CAS-to-CAS
///   spacing (`tCCD_S`/`tCCD_L`) and same-bank-group `tRRD_L`.
/// * [`MemGeneration::Lpddr3`] — adds deep power-down (a third rank
///   low-power state with exit latency above `tXPDLL` but far cheaper
///   background power) and per-bank refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemGeneration {
    /// DDR3 (the paper's Table 2 device).
    #[default]
    Ddr3,
    /// DDR4: bank groups, `tCCD_S`/`tCCD_L`, `tRRD_L`, tighter `tFAW`.
    Ddr4,
    /// LPDDR3: deep power-down and per-bank refresh.
    Lpddr3,
}

impl MemGeneration {
    /// Every supported generation, in introduction order.
    pub const ALL: [MemGeneration; 3] = [
        MemGeneration::Ddr3,
        MemGeneration::Ddr4,
        MemGeneration::Lpddr3,
    ];

    /// Display name matching the JEDEC standard (`DDR3`, `DDR4`, `LPDDR3`).
    pub fn name(&self) -> &'static str {
        match self {
            MemGeneration::Ddr3 => "DDR3",
            MemGeneration::Ddr4 => "DDR4",
            MemGeneration::Lpddr3 => "LPDDR3",
        }
    }

    /// Whether the standard splits banks into bank groups with a longer
    /// same-group CAS-to-CAS spacing.
    #[inline]
    pub fn has_bank_groups(&self) -> bool {
        matches!(self, MemGeneration::Ddr4)
    }

    /// Whether the standard offers a deep power-down rank state below
    /// slow-exit precharge powerdown.
    #[inline]
    pub fn has_deep_power_down(&self) -> bool {
        matches!(self, MemGeneration::Lpddr3)
    }

    /// Parses a case-insensitive generation name (`ddr3`/`ddr4`/`lpddr3`).
    pub fn parse(name: &str) -> Option<MemGeneration> {
        match name.to_ascii_lowercase().as_str() {
            "ddr3" => Some(MemGeneration::Ddr3),
            "ddr4" => Some(MemGeneration::Ddr4),
            "lpddr3" => Some(MemGeneration::Lpddr3),
            _ => None,
        }
    }

    /// Stable one-byte wire code used by serialized artifacts (trace file
    /// headers). Codes are append-only: existing values never change, new
    /// generations take the next free code.
    #[inline]
    pub const fn code(self) -> u8 {
        match self {
            MemGeneration::Ddr3 => 0,
            MemGeneration::Ddr4 => 1,
            MemGeneration::Lpddr3 => 2,
        }
    }

    /// Decodes a [`Self::code`] wire code back into a generation.
    pub const fn from_code(code: u8) -> Option<MemGeneration> {
        match code {
            0 => Some(MemGeneration::Ddr3),
            1 => Some(MemGeneration::Ddr4),
            2 => Some(MemGeneration::Lpddr3),
            _ => None,
        }
    }
}

impl std::fmt::Display for MemGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical organization of the memory subsystem.
///
/// Defaults to Table 2: 4 DDR3 channels, each with two registered dual-rank
/// DIMMs of 18 x8 DRAM chips (ECC), 8 banks per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of independent memory channels.
    pub channels: u8,
    /// DIMMs per channel.
    pub dimms_per_channel: u8,
    /// Ranks per DIMM.
    pub ranks_per_dimm: u8,
    /// Banks per rank (8 for DDR3).
    pub banks_per_rank: u8,
    /// Rows per bank (folds column bits; used only for address wrapping).
    pub rows_per_bank: u64,
    /// DRAM chips participating in each rank access (9 for x8 + ECC).
    pub chips_per_rank: u8,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            channels: 4,
            dimms_per_channel: 2,
            ranks_per_dimm: 2,
            banks_per_rank: 8,
            rows_per_bank: 32_768,
            chips_per_rank: 9,
        }
    }
}

impl Topology {
    /// Ranks per channel (DIMMs × ranks-per-DIMM).
    #[inline]
    pub fn ranks_per_channel(&self) -> u8 {
        self.dimms_per_channel * self.ranks_per_dimm
    }

    /// Total ranks in the system.
    #[inline]
    pub fn total_ranks(&self) -> usize {
        self.channels as usize * self.ranks_per_channel() as usize
    }

    /// Total DIMMs in the system.
    #[inline]
    pub fn total_dimms(&self) -> usize {
        self.channels as usize * self.dimms_per_channel as usize
    }

    /// Checks that every dimension is non-zero.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channels == 0 {
            return Err(ConfigError::new("channels must be > 0"));
        }
        if self.dimms_per_channel == 0 {
            return Err(ConfigError::new("dimms_per_channel must be > 0"));
        }
        if self.ranks_per_dimm == 0 {
            return Err(ConfigError::new("ranks_per_dimm must be > 0"));
        }
        if self.banks_per_rank == 0 {
            return Err(ConfigError::new("banks_per_rank must be > 0"));
        }
        if self.rows_per_bank == 0 {
            return Err(ConfigError::new("rows_per_bank must be > 0"));
        }
        if self.chips_per_rank == 0 {
            return Err(ConfigError::new("chips_per_rank must be > 0"));
        }
        Ok(())
    }
}

/// CPU-side parameters (Table 2: 16 in-order single-thread cores at 4 GHz).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Number of cores; one application instance per core.
    pub cores: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Default cycles-per-instruction of non-LLC-missing work (the paper's
    /// fixed `E[TPI_cpu]·F_cpu`). Application profiles may override it.
    pub base_cpi: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 16,
            freq_ghz: 4.0,
            base_cpi: 1.0,
        }
    }
}

impl CpuConfig {
    /// Duration of one core cycle.
    #[inline]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // freq_ghz is validated positive
    pub fn cycle(&self) -> Picos {
        Picos::from_ps((1_000.0 / self.freq_ghz).round() as u64)
    }

    /// Checks for physically sensible values.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("cores must be > 0"));
        }
        if self.freq_ghz <= 0.0 || !self.freq_ghz.is_finite() {
            return Err(ConfigError::new("freq_ghz must be > 0"));
        }
        if self.base_cpi <= 0.0 || !self.base_cpi.is_finite() {
            return Err(ConfigError::new("base_cpi must be > 0"));
        }
        Ok(())
    }
}

/// DRAM timing parameters (Table 2 for the DDR3 default; see
/// [`DramTimingConfig::ddr4`] and [`DramTimingConfig::lpddr3`] for the other
/// generations).
///
/// DRAM-core operations are stored in wall-clock nanoseconds because scaling
/// the channel frequency does not change them (§2.2); parameters given in
/// cycles in Table 2 are converted at the 800 MHz reference. Burst length,
/// CAS-to-CAS spacing and MC pipeline depth are stored in cycles because
/// they *do* scale.
#[derive(Debug, Clone, PartialEq)]
pub struct DramTimingConfig {
    /// Which DRAM standard these parameters describe. Selects the audit
    /// rule pack and enables the generation-specific engine features
    /// (bank groups, deep power-down, per-bank refresh).
    pub generation: MemGeneration,
    /// Bank groups per rank (1 when the generation has none; DDR4: 4).
    /// Banks are assigned round-robin: group = bank index mod `bank_groups`.
    pub bank_groups: u8,
    /// CAS-to-CAS spacing to a *different* bank group, in bus cycles
    /// (`tCCD_S`; equals the burst length on every generation).
    pub t_ccd_s_cycles: u32,
    /// CAS-to-CAS spacing within the *same* bank group, in bus cycles
    /// (`tCCD_L`; DDR4: 6 cycles — the shared bank-group datapath cannot
    /// stream back-to-back bursts).
    pub t_ccd_l_cycles: u32,
    /// ACT-to-ACT spacing within the same bank group (ns, `tRRD_L`).
    /// Generations without bank groups set it equal to `t_rrd_ns`.
    pub t_rrd_l_ns: f64,
    /// Exit latency from deep power-down (ns). Only meaningful when the
    /// generation has deep power-down; must then exceed `t_xpdll_ns`.
    pub t_xdpd_ns: f64,
    /// Refresh one bank at a time (LPDDR per-bank refresh, `REFpb`) instead
    /// of all-bank refresh: one REF per bank per `tREFI`, each lasting
    /// `t_rfc_pb_ns` instead of `t_rfc_ns`.
    pub per_bank_refresh: bool,
    /// Duration of one per-bank refresh command (ns, `tRFCpb`); unused
    /// unless `per_bank_refresh` is set.
    pub t_rfc_pb_ns: f64,
    /// Row activate: RAS-to-CAS delay (ns).
    pub t_rcd_ns: f64,
    /// Row precharge time (ns).
    pub t_rp_ns: f64,
    /// Column access (CAS) latency (ns).
    pub t_cl_ns: f64,
    /// Minimum ACT-to-PRE interval (ns; 28 cycles @ 800 MHz).
    pub t_ras_ns: f64,
    /// ACT-to-ACT different banks, same rank (ns; 4 cycles @ 800 MHz).
    pub t_rrd_ns: f64,
    /// Four-activate window per rank (ns; 20 cycles @ 800 MHz).
    pub t_faw_ns: f64,
    /// Read-to-precharge (ns; 5 cycles @ 800 MHz).
    pub t_rtp_ns: f64,
    /// Write recovery time before precharge (ns).
    pub t_wr_ns: f64,
    /// Data burst length in bus cycles (4 for a 64-byte line on DDR3).
    pub burst_cycles: u32,
    /// Exit latency from fast-exit (precharge) powerdown (ns).
    pub t_xp_ns: f64,
    /// Exit latency from slow-exit powerdown / DLL-off (ns).
    pub t_xpdll_ns: f64,
    /// All-rows refresh period (ms); per-rank refreshes are spread evenly.
    pub refresh_period_ms: f64,
    /// Number of refresh commands per refresh period (rows of refresh).
    pub refresh_commands: u64,
    /// Duration of one refresh command, tRFC (ns).
    pub t_rfc_ns: f64,
    /// Frequency-relock penalty: memory cycles (at the *new* frequency)...
    pub relock_cycles: u64,
    /// ...plus this fixed overhead (ns). Paper: 512 cycles + 28 ns.
    pub relock_extra_ns: f64,
    /// MC request-processing pipeline depth in MC cycles (§3.3: five).
    pub mc_pipeline_cycles: u32,
}

impl Default for DramTimingConfig {
    fn default() -> Self {
        // Cycle-denominated Table 2 entries converted at 800 MHz (1.25 ns).
        DramTimingConfig {
            generation: MemGeneration::Ddr3,
            bank_groups: 1,
            t_ccd_s_cycles: 4,
            t_ccd_l_cycles: 4,
            t_rrd_l_ns: 4.0 * 1.25,
            t_xdpd_ns: 0.0,
            per_bank_refresh: false,
            t_rfc_pb_ns: 0.0,
            t_rcd_ns: 15.0,
            t_rp_ns: 15.0,
            t_cl_ns: 15.0,
            t_ras_ns: 28.0 * 1.25,
            t_rrd_ns: 4.0 * 1.25,
            t_faw_ns: 20.0 * 1.25,
            t_rtp_ns: 5.0 * 1.25,
            t_wr_ns: 15.0,
            burst_cycles: 4,
            t_xp_ns: 6.0,
            t_xpdll_ns: 24.0,
            refresh_period_ms: 64.0,
            refresh_commands: 8_192,
            t_rfc_ns: 110.0,
            relock_cycles: 512,
            relock_extra_ns: 28.0,
            mc_pipeline_cycles: 5,
        }
    }
}

impl DramTimingConfig {
    /// DDR4-1600-class timing: four bank groups with split CAS-to-CAS
    /// spacing (`tCCD_S` 4 cycles / `tCCD_L` 6 cycles), same-bank-group
    /// `tRRD_L`, and a tighter four-activate window than DDR3.
    pub fn ddr4() -> Self {
        DramTimingConfig {
            generation: MemGeneration::Ddr4,
            bank_groups: 4,
            t_ccd_s_cycles: 4,
            t_ccd_l_cycles: 6,
            t_rrd_l_ns: 7.5,
            t_rcd_ns: 13.75,
            t_rp_ns: 13.75,
            t_cl_ns: 13.75,
            t_ras_ns: 35.0,
            t_rrd_ns: 5.0,
            t_faw_ns: 20.0,
            t_rtp_ns: 7.5,
            t_rfc_ns: 160.0,
            ..DramTimingConfig::default()
        }
    }

    /// LPDDR3-1600-class timing: deep power-down as a third rank low-power
    /// state (exit far above `tXPDLL`, background power far below `IDD2P`)
    /// and per-bank refresh (`tRFCpb` per bank instead of one all-bank
    /// `tRFCab` per `tREFI`).
    pub fn lpddr3() -> Self {
        DramTimingConfig {
            generation: MemGeneration::Lpddr3,
            t_xdpd_ns: 500.0,
            per_bank_refresh: true,
            t_rfc_pb_ns: 60.0,
            t_rcd_ns: 18.0,
            t_rp_ns: 18.0,
            t_cl_ns: 15.0,
            t_ras_ns: 42.0,
            t_rrd_ns: 10.0,
            t_rrd_l_ns: 10.0,
            t_faw_ns: 50.0,
            t_rtp_ns: 7.5,
            t_xp_ns: 7.5,
            t_rfc_ns: 130.0,
            ..DramTimingConfig::default()
        }
    }

    /// The reference timing for `generation` (DDR3 is [`Default`]).
    pub fn for_generation(generation: MemGeneration) -> Self {
        match generation {
            MemGeneration::Ddr3 => DramTimingConfig::default(),
            MemGeneration::Ddr4 => DramTimingConfig::ddr4(),
            MemGeneration::Lpddr3 => DramTimingConfig::lpddr3(),
        }
    }

    /// The bank group a bank belongs to (round-robin assignment).
    ///
    /// Shared by the engine and the independent auditor so the two can
    /// never disagree on the mapping.
    #[inline]
    pub fn bank_group_of(&self, bank: crate::ids::BankId) -> usize {
        bank.index() % (self.bank_groups.max(1) as usize)
    }

    /// tRCD as simulator time.
    #[inline]
    pub fn t_rcd(&self) -> Picos {
        Picos::from_ns_f64(self.t_rcd_ns)
    }
    /// tRP as simulator time.
    #[inline]
    pub fn t_rp(&self) -> Picos {
        Picos::from_ns_f64(self.t_rp_ns)
    }
    /// tCL as simulator time.
    #[inline]
    pub fn t_cl(&self) -> Picos {
        Picos::from_ns_f64(self.t_cl_ns)
    }
    /// tRAS as simulator time.
    #[inline]
    pub fn t_ras(&self) -> Picos {
        Picos::from_ns_f64(self.t_ras_ns)
    }
    /// tRRD as simulator time.
    #[inline]
    pub fn t_rrd(&self) -> Picos {
        Picos::from_ns_f64(self.t_rrd_ns)
    }
    /// tFAW as simulator time.
    #[inline]
    pub fn t_faw(&self) -> Picos {
        Picos::from_ns_f64(self.t_faw_ns)
    }
    /// tRTP as simulator time.
    #[inline]
    pub fn t_rtp(&self) -> Picos {
        Picos::from_ns_f64(self.t_rtp_ns)
    }
    /// tWR as simulator time.
    #[inline]
    pub fn t_wr(&self) -> Picos {
        Picos::from_ns_f64(self.t_wr_ns)
    }
    /// Fast-exit powerdown exit latency.
    #[inline]
    pub fn t_xp(&self) -> Picos {
        Picos::from_ns_f64(self.t_xp_ns)
    }
    /// Slow-exit powerdown exit latency.
    #[inline]
    pub fn t_xpdll(&self) -> Picos {
        Picos::from_ns_f64(self.t_xpdll_ns)
    }
    /// tRFC as simulator time.
    #[inline]
    pub fn t_rfc(&self) -> Picos {
        Picos::from_ns_f64(self.t_rfc_ns)
    }
    /// Average interval between refresh commands (tREFI).
    #[inline]
    pub fn t_refi(&self) -> Picos {
        Picos::from_ns_f64(self.refresh_period_ms * 1e6 / self.refresh_commands as f64)
    }
    /// Same-bank-group ACT-to-ACT spacing (`tRRD_L`) as simulator time.
    #[inline]
    pub fn t_rrd_l(&self) -> Picos {
        Picos::from_ns_f64(self.t_rrd_l_ns)
    }
    /// Deep power-down exit latency as simulator time.
    #[inline]
    pub fn t_xdpd(&self) -> Picos {
        Picos::from_ns_f64(self.t_xdpd_ns)
    }
    /// Per-bank refresh duration (`tRFCpb`) as simulator time.
    #[inline]
    pub fn t_rfc_pb(&self) -> Picos {
        Picos::from_ns_f64(self.t_rfc_pb_ns)
    }

    /// Checks for physically sensible values.
    ///
    /// The checks themselves live in [`crate::invariants::check_timing`],
    /// part of the at-rest list [`SystemConfig::validate`] and `memscale-sim
    /// check` share. This method reports the first violated invariant.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field(s).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match crate::invariants::check_timing(self).into_iter().next() {
            None => Ok(()),
            Some(d) => Err(ConfigError::new(d.message)),
        }
    }
}

/// Power-model constants (Table 2 currents plus §4.1 MC/register/PLL data).
///
/// DRAM currents are per chip, in milliamps, at the 800 MHz reference
/// frequency and `vdd` volts. Background (standby/powerdown) currents scale
/// linearly with channel frequency, following §2.2 ("lowering frequency
/// lowers background and register/PLL powers linearly").
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// DRAM supply voltage (V).
    pub vdd: f64,
    /// Activate-precharge current, IDD0-like (mA).
    pub i_act_pre_ma: f64,
    /// Precharge standby current, IDD2N (mA).
    pub i_pre_stby_ma: f64,
    /// Precharge powerdown current, IDD2P (mA).
    pub i_pre_pd_ma: f64,
    /// Active standby current, IDD3N (mA).
    pub i_act_stby_ma: f64,
    /// Active powerdown current, IDD3P (mA).
    pub i_act_pd_ma: f64,
    /// Burst read current, IDD4R (mA).
    pub i_rd_ma: f64,
    /// Burst write current, IDD4W (mA).
    pub i_wr_ma: f64,
    /// Refresh current, IDD5 (mA).
    pub i_ref_ma: f64,
    /// Deep power-down current (mA per chip). Unlike the standby and
    /// powerdown currents it does *not* scale with channel frequency — the
    /// clock tree is gated entirely. Zero for generations without deep
    /// power-down.
    pub i_dpd_ma: f64,
    /// Termination power dissipated in each *non-target* DIMM on a channel
    /// while a burst is in flight (W per DIMM).
    pub term_w_per_dimm: f64,
    /// PLL power per DIMM at 800 MHz (W); scales linearly with frequency,
    /// not with utilization.
    pub pll_w: f64,
    /// Register peak power per DIMM at 800 MHz and full utilization (W).
    pub reg_w_peak: f64,
    /// Memory-controller peak power at 800 MHz bus / 1.2 V and full
    /// utilization (W). §4.1: 15 W (AMD ACP data).
    pub mc_w_peak: f64,
    /// Idle power of the MC and registers as a fraction of peak (Fig 15
    /// knob; §4.1 default 50 %).
    pub mc_reg_idle_fraction: f64,
    /// Fraction of total server power attributed to the memory subsystem at
    /// the baseline (Fig 14 knob; §4.1 default 40 %).
    pub mem_power_fraction: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            vdd: 1.575,
            i_act_pre_ma: 120.0,
            i_pre_stby_ma: 70.0,
            i_pre_pd_ma: 45.0,
            i_act_stby_ma: 67.0,
            i_act_pd_ma: 45.0,
            i_rd_ma: 250.0,
            i_wr_ma: 250.0,
            i_ref_ma: 240.0,
            i_dpd_ma: 0.0,
            term_w_per_dimm: 0.5,
            pll_w: 0.5,
            reg_w_peak: 0.5,
            mc_w_peak: 15.0,
            mc_reg_idle_fraction: 0.5,
            mem_power_fraction: 0.4,
        }
    }
}

impl PowerConfig {
    /// DDR4-class currents: 1.2 V supply with proportionally lower
    /// background and burst currents than the 1.575 V DDR3 part.
    pub fn ddr4() -> Self {
        PowerConfig {
            vdd: 1.2,
            i_act_pre_ma: 95.0,
            i_pre_stby_ma: 55.0,
            i_pre_pd_ma: 32.0,
            i_act_stby_ma: 52.0,
            i_act_pd_ma: 32.0,
            i_rd_ma: 210.0,
            i_wr_ma: 210.0,
            i_ref_ma: 200.0,
            ..PowerConfig::default()
        }
    }

    /// LPDDR3-class currents: 1.2 V supply, low standby currents and a
    /// deep power-down floor two orders of magnitude below `IDD2P`.
    pub fn lpddr3() -> Self {
        PowerConfig {
            vdd: 1.2,
            i_act_pre_ma: 70.0,
            i_pre_stby_ma: 28.0,
            i_pre_pd_ma: 12.0,
            i_act_stby_ma: 30.0,
            i_act_pd_ma: 14.0,
            i_rd_ma: 180.0,
            i_wr_ma: 180.0,
            i_ref_ma: 150.0,
            i_dpd_ma: 0.4,
            // Mobile-class DIMMs carry no registers and lighter PLLs.
            term_w_per_dimm: 0.25,
            pll_w: 0.25,
            reg_w_peak: 0.25,
            ..PowerConfig::default()
        }
    }

    /// The reference power constants for `generation` (DDR3 is
    /// [`Default`]).
    pub fn for_generation(generation: MemGeneration) -> Self {
        match generation {
            MemGeneration::Ddr3 => PowerConfig::default(),
            MemGeneration::Ddr4 => PowerConfig::ddr4(),
            MemGeneration::Lpddr3 => PowerConfig::lpddr3(),
        }
    }

    /// Register idle power per DIMM (W) at 800 MHz.
    #[inline]
    pub fn reg_w_idle(&self) -> f64 {
        self.reg_w_peak * self.mc_reg_idle_fraction
    }

    /// MC idle power (W) at 800 MHz / 1.2 V.
    #[inline]
    pub fn mc_w_idle(&self) -> f64 {
        self.mc_w_peak * self.mc_reg_idle_fraction
    }
}

/// Complete hardware configuration of the simulated server.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemConfig {
    /// Memory-subsystem organization.
    pub topology: Topology,
    /// CPU organization.
    pub cpu: CpuConfig,
    /// DDR3 timing parameters.
    pub timing: DramTimingConfig,
    /// Power-model constants.
    pub power: PowerConfig,
}

impl SystemConfig {
    /// Validates every section: the topology and CPU checks, then the first
    /// diagnostic of [`crate::invariants::check_at_rest`], the device-table
    /// rules `memscale-sim check` runs before its per-frequency stage.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any section.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.topology.validate()?;
        self.cpu.validate()?;
        match crate::invariants::check_at_rest(self).into_iter().next() {
            None => Ok(()),
            Some(d) => Err(ConfigError::new(d.message)),
        }
    }

    /// The reference configuration for a memory generation: Table 2 with
    /// the timing and power sections swapped for that standard's parameters
    /// (DDR4 additionally widens each rank to 16 banks in 4 groups).
    pub fn for_generation(generation: MemGeneration) -> Self {
        let mut cfg = SystemConfig {
            timing: DramTimingConfig::for_generation(generation),
            power: PowerConfig::for_generation(generation),
            ..SystemConfig::default()
        };
        if generation == MemGeneration::Ddr4 {
            cfg.topology.banks_per_rank = 16;
        }
        cfg
    }

    /// A configuration with `channels` memory channels and everything else
    /// at Table 2 defaults (Fig 13 sweeps this).
    pub fn with_channels(channels: u8) -> Self {
        let mut cfg = SystemConfig::default();
        cfg.topology.channels = channels;
        cfg
    }

    /// A configuration with `cores` CPU cores and everything else at Table 2
    /// defaults (§4.2.4's 8- and 32-core studies sweep this).
    pub fn with_cores(cores: usize) -> Self {
        let mut cfg = SystemConfig::default();
        cfg.cpu.cores = cores;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.topology.channels, 4);
        assert_eq!(cfg.topology.total_dimms(), 8);
        assert_eq!(cfg.topology.banks_per_rank, 8);
        assert_eq!(cfg.cpu.cores, 16);
        assert_eq!(cfg.cpu.freq_ghz, 4.0);
        assert_eq!(cfg.timing.t_rcd_ns, 15.0);
        assert_eq!(cfg.timing.t_ras_ns, 35.0);
        assert_eq!(cfg.timing.t_faw_ns, 25.0);
        assert_eq!(cfg.power.vdd, 1.575);
        assert_eq!(cfg.power.i_ref_ma, 240.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn refresh_interval_is_7_8_us() {
        let t = DramTimingConfig::default();
        let refi = t.t_refi();
        assert!(refi > Picos::from_ns(7_800) && refi < Picos::from_ns(7_820));
    }

    #[test]
    fn cpu_cycle_at_4ghz_is_250ps() {
        assert_eq!(CpuConfig::default().cycle(), Picos::from_ps(250));
    }

    #[test]
    fn validation_catches_bad_values() {
        let t = Topology {
            channels: 0,
            ..Topology::default()
        };
        assert!(t.validate().is_err());

        let c = CpuConfig {
            freq_ghz: 0.0,
            ..CpuConfig::default()
        };
        assert!(c.validate().is_err());

        let d = DramTimingConfig {
            t_cl_ns: -1.0,
            ..DramTimingConfig::default()
        };
        assert!(d.validate().is_err());

        for power in [
            PowerConfig {
                mem_power_fraction: 1.0,
                ..PowerConfig::default()
            },
            PowerConfig {
                mc_reg_idle_fraction: 1.5,
                ..PowerConfig::default()
            },
        ] {
            let sys = SystemConfig {
                power,
                ..SystemConfig::default()
            };
            assert!(sys.validate().is_err());
        }
    }

    #[test]
    fn cross_parameter_checks_reject_inconsistent_timing() {
        // tRAS shorter than tRCD + tRTP: a read could precharge before the
        // activate completed.
        let d = DramTimingConfig {
            t_ras_ns: 20.0,
            ..DramTimingConfig::default()
        };
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("t_ras_ns"), "{err}");

        // tFAW below 2·tRRD never constrains anything.
        let d = DramTimingConfig {
            t_faw_ns: 9.0,
            ..DramTimingConfig::default()
        };
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("t_faw_ns"), "{err}");

        // tRFC at or above tREFI leaves no time between refreshes.
        let d = DramTimingConfig {
            t_rfc_ns: 8_000.0,
            ..DramTimingConfig::default()
        };
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("t_rfc_ns"), "{err}");

        // The boundary itself is accepted.
        let d = DramTimingConfig {
            t_ras_ns: DramTimingConfig::default().t_rcd_ns + DramTimingConfig::default().t_rtp_ns,
            ..DramTimingConfig::default()
        };
        assert!(d.validate().is_ok());
    }

    #[test]
    fn idle_power_derivation() {
        let p = PowerConfig::default();
        assert_eq!(p.mc_w_idle(), 7.5);
        assert_eq!(p.reg_w_idle(), 0.25);
    }

    #[test]
    fn channel_and_core_sweep_constructors() {
        assert_eq!(SystemConfig::with_channels(2).topology.channels, 2);
        assert_eq!(SystemConfig::with_cores(32).cpu.cores, 32);
    }

    #[test]
    fn generation_reference_configs_validate() {
        for gen in MemGeneration::ALL {
            let cfg = SystemConfig::for_generation(gen);
            assert_eq!(cfg.timing.generation, gen);
            assert!(cfg.validate().is_ok(), "{gen}");
        }
        // DDR3 stays exactly the Table 2 default.
        assert_eq!(
            SystemConfig::for_generation(MemGeneration::Ddr3),
            SystemConfig::default()
        );
        let ddr4 = SystemConfig::for_generation(MemGeneration::Ddr4);
        assert_eq!(ddr4.topology.banks_per_rank, 16);
        assert_eq!(ddr4.timing.bank_groups, 4);
        let lp = SystemConfig::for_generation(MemGeneration::Lpddr3);
        assert!(lp.timing.per_bank_refresh);
        assert!(lp.power.i_dpd_ma > 0.0);
    }

    #[test]
    fn generation_cross_checks_name_the_generation() {
        // DDR4: tCCD_L below tCCD_S.
        let d = DramTimingConfig {
            t_ccd_l_cycles: 2,
            ..DramTimingConfig::ddr4()
        };
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("DDR4") && err.contains("t_ccd_l"), "{err}");

        // DDR4: tRRD_L below tRRD.
        let d = DramTimingConfig {
            t_rrd_l_ns: 1.0,
            ..DramTimingConfig::ddr4()
        };
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("DDR4") && err.contains("t_rrd_l"), "{err}");

        // LPDDR3: deep power-down exit must exceed tXPDLL.
        let d = DramTimingConfig {
            t_xdpd_ns: 10.0,
            ..DramTimingConfig::lpddr3()
        };
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("LPDDR3") && err.contains("t_xdpd"), "{err}");

        // DDR3 has neither bank groups, deep power-down nor REFpb.
        for mutate in [
            |d: &mut DramTimingConfig| d.bank_groups = 4,
            |d: &mut DramTimingConfig| d.t_xdpd_ns = 500.0,
            |d: &mut DramTimingConfig| d.per_bank_refresh = true,
        ] {
            let mut d = DramTimingConfig::default();
            mutate(&mut d);
            let err = d.validate().unwrap_err().to_string();
            assert!(err.contains("DDR3"), "{err}");
        }

        // Topology cross-check: groups must divide the bank count.
        let mut sys = SystemConfig::for_generation(MemGeneration::Ddr4);
        sys.topology.banks_per_rank = 6;
        let err = sys.validate().unwrap_err().to_string();
        assert!(err.contains("bank_groups"), "{err}");
    }

    #[test]
    fn bank_groups_map_round_robin() {
        let d = DramTimingConfig::ddr4();
        assert_eq!(d.bank_group_of(crate::ids::BankId(0)), 0);
        assert_eq!(d.bank_group_of(crate::ids::BankId(5)), 1);
        assert_eq!(d.bank_group_of(crate::ids::BankId(15)), 3);
        // Single-group generations collapse to one group.
        let d3 = DramTimingConfig::default();
        assert_eq!(d3.bank_group_of(crate::ids::BankId(7)), 0);
    }

    #[test]
    fn generation_parse_and_display_round_trip() {
        for gen in MemGeneration::ALL {
            assert_eq!(MemGeneration::parse(gen.name()), Some(gen));
            assert_eq!(MemGeneration::parse(&gen.name().to_lowercase()), Some(gen));
        }
        assert_eq!(MemGeneration::parse("ddr5"), None);
        assert_eq!(MemGeneration::default(), MemGeneration::Ddr3);
    }

    #[test]
    fn config_error_displays() {
        let err = Topology {
            channels: 0,
            ..Topology::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("channels"));
    }
}
