//! Declarative cross-parameter invariants over DRAM timing and power tables,
//! plus plain-data FSM transition tables.
//!
//! This module is the single source of truth for what a *legal* device table
//! looks like. Two consumers share it so they can never disagree:
//!
//! * startup validation ([`SystemConfig::validate`], and
//!   [`DramTimingConfig::validate`] for a timing table alone) maps the
//!   **first** diagnostic of [`check_at_rest`] to a
//!   [`crate::config::ConfigError`];
//! * the `memscale-check` static analyzer collects **every** diagnostic of
//!   [`check_at_rest`] and extends it with per-frequency, power-model and
//!   FSM analyses.
//!
//! Each violation is a structured [`Diagnostic`] carrying a stable invariant
//! identifier, the generation, and the offending parameter names and values.
//! The [`FsmSpec`] type lets stateful crates (`memscale-dram`'s rank
//! power-state machine, `memscale`'s governor hardening ladder) publish
//! their transition structure as data that a model checker can enumerate.

use crate::config::{DramTimingConfig, MemGeneration, PowerConfig, SystemConfig};
use crate::freq::MemFreq;
use std::fmt;

/// One entry of a generation's timing table, named after the
/// [`DramTimingConfig`] field that stores it.
///
/// The enum gives the analyzers a closed, iterable universe of parameters:
/// the rule-pack coverage pass walks [`TimingParam::ALL`] and demands that
/// every parameter relevant to a generation is guarded by an audit rule or
/// explicitly waived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingParam {
    /// `t_rcd_ns` — ACT-to-CAS delay.
    TRcd,
    /// `t_rp_ns` — precharge duration.
    TRp,
    /// `t_cl_ns` — CAS latency.
    TCl,
    /// `t_ras_ns` — minimum ACT-to-PRE interval.
    TRas,
    /// `t_rrd_ns` — ACT-to-ACT spacing, different banks.
    TRrd,
    /// `t_faw_ns` — four-activate window.
    TFaw,
    /// `t_rtp_ns` — read-to-precharge.
    TRtp,
    /// `t_wr_ns` — write recovery.
    TWr,
    /// `burst_cycles` — data burst length in bus cycles.
    BurstCycles,
    /// `t_ccd_s_cycles` — different-bank-group CAS-to-CAS spacing.
    TCcdS,
    /// `t_ccd_l_cycles` — same-bank-group CAS-to-CAS spacing (DDR4).
    TCcdL,
    /// `t_rrd_l_ns` — same-bank-group ACT-to-ACT spacing (DDR4).
    TRrdL,
    /// `bank_groups` — bank groups per rank (DDR4).
    BankGroups,
    /// `t_xp_ns` — fast-exit powerdown exit latency.
    TXp,
    /// `t_xpdll_ns` — slow-exit (DLL-off) powerdown exit latency.
    TXpdll,
    /// `t_xdpd_ns` — deep power-down exit latency (LPDDR3).
    TXdpd,
    /// `refresh_period_ms` — all-rows refresh period.
    RefreshPeriod,
    /// `refresh_commands` — refresh commands per period.
    RefreshCommands,
    /// `t_rfc_ns` — all-bank refresh duration.
    TRfc,
    /// `t_rfc_pb_ns` — per-bank refresh duration (LPDDR3).
    TRfcPb,
    /// `per_bank_refresh` — per-bank refresh mode flag (LPDDR3).
    PerBankRefresh,
    /// `relock_cycles` — cycle part of the frequency re-lock penalty.
    RelockCycles,
    /// `relock_extra_ns` — fixed part of the frequency re-lock penalty.
    RelockExtra,
    /// `mc_pipeline_cycles` — MC request-pipeline depth.
    McPipeline,
}

impl TimingParam {
    /// Every timing parameter, in [`DramTimingConfig`] declaration order.
    pub const ALL: [TimingParam; 24] = [
        TimingParam::TRcd,
        TimingParam::TRp,
        TimingParam::TCl,
        TimingParam::TRas,
        TimingParam::TRrd,
        TimingParam::TFaw,
        TimingParam::TRtp,
        TimingParam::TWr,
        TimingParam::BurstCycles,
        TimingParam::TCcdS,
        TimingParam::TCcdL,
        TimingParam::TRrdL,
        TimingParam::BankGroups,
        TimingParam::TXp,
        TimingParam::TXpdll,
        TimingParam::TXdpd,
        TimingParam::RefreshPeriod,
        TimingParam::RefreshCommands,
        TimingParam::TRfc,
        TimingParam::TRfcPb,
        TimingParam::PerBankRefresh,
        TimingParam::RelockCycles,
        TimingParam::RelockExtra,
        TimingParam::McPipeline,
    ];

    /// The [`DramTimingConfig`] field holding this parameter.
    pub const fn field(self) -> &'static str {
        match self {
            TimingParam::TRcd => "t_rcd_ns",
            TimingParam::TRp => "t_rp_ns",
            TimingParam::TCl => "t_cl_ns",
            TimingParam::TRas => "t_ras_ns",
            TimingParam::TRrd => "t_rrd_ns",
            TimingParam::TFaw => "t_faw_ns",
            TimingParam::TRtp => "t_rtp_ns",
            TimingParam::TWr => "t_wr_ns",
            TimingParam::BurstCycles => "burst_cycles",
            TimingParam::TCcdS => "t_ccd_s_cycles",
            TimingParam::TCcdL => "t_ccd_l_cycles",
            TimingParam::TRrdL => "t_rrd_l_ns",
            TimingParam::BankGroups => "bank_groups",
            TimingParam::TXp => "t_xp_ns",
            TimingParam::TXpdll => "t_xpdll_ns",
            TimingParam::TXdpd => "t_xdpd_ns",
            TimingParam::RefreshPeriod => "refresh_period_ms",
            TimingParam::RefreshCommands => "refresh_commands",
            TimingParam::TRfc => "t_rfc_ns",
            TimingParam::TRfcPb => "t_rfc_pb_ns",
            TimingParam::PerBankRefresh => "per_bank_refresh",
            TimingParam::RelockCycles => "relock_cycles",
            TimingParam::RelockExtra => "relock_extra_ns",
            TimingParam::McPipeline => "mc_pipeline_cycles",
        }
    }

    /// The JEDEC-style display name (`tRCD`, `tCCD_S`, ...), where one
    /// exists; falls back to the field name for model-level knobs.
    pub const fn jedec(self) -> &'static str {
        match self {
            TimingParam::TRcd => "tRCD",
            TimingParam::TRp => "tRP",
            TimingParam::TCl => "tCL",
            TimingParam::TRas => "tRAS",
            TimingParam::TRrd => "tRRD",
            TimingParam::TFaw => "tFAW",
            TimingParam::TRtp => "tRTP",
            TimingParam::TWr => "tWR",
            TimingParam::BurstCycles => "BL",
            TimingParam::TCcdS => "tCCD_S",
            TimingParam::TCcdL => "tCCD_L",
            TimingParam::TRrdL => "tRRD_L",
            TimingParam::BankGroups => "bank groups",
            TimingParam::TXp => "tXP",
            TimingParam::TXpdll => "tXPDLL",
            TimingParam::TXdpd => "tXDPD",
            TimingParam::RefreshPeriod => "refresh period",
            TimingParam::RefreshCommands => "tREFI divisor",
            TimingParam::TRfc => "tRFC",
            TimingParam::TRfcPb => "tRFCpb",
            TimingParam::PerBankRefresh => "REFpb",
            TimingParam::RelockCycles => "relock cycles",
            TimingParam::RelockExtra => "relock extra",
            TimingParam::McPipeline => "MC pipeline",
        }
    }

    /// This parameter's value in `cfg`, as a plain number (booleans map to
    /// 0/1, integer fields are widened).
    #[allow(clippy::cast_precision_loss)] // counts are small
    pub fn value(self, cfg: &DramTimingConfig) -> f64 {
        match self {
            TimingParam::TRcd => cfg.t_rcd_ns,
            TimingParam::TRp => cfg.t_rp_ns,
            TimingParam::TCl => cfg.t_cl_ns,
            TimingParam::TRas => cfg.t_ras_ns,
            TimingParam::TRrd => cfg.t_rrd_ns,
            TimingParam::TFaw => cfg.t_faw_ns,
            TimingParam::TRtp => cfg.t_rtp_ns,
            TimingParam::TWr => cfg.t_wr_ns,
            TimingParam::BurstCycles => f64::from(cfg.burst_cycles),
            TimingParam::TCcdS => f64::from(cfg.t_ccd_s_cycles),
            TimingParam::TCcdL => f64::from(cfg.t_ccd_l_cycles),
            TimingParam::TRrdL => cfg.t_rrd_l_ns,
            TimingParam::BankGroups => f64::from(cfg.bank_groups),
            TimingParam::TXp => cfg.t_xp_ns,
            TimingParam::TXpdll => cfg.t_xpdll_ns,
            TimingParam::TXdpd => cfg.t_xdpd_ns,
            TimingParam::RefreshPeriod => cfg.refresh_period_ms,
            TimingParam::RefreshCommands => cfg.refresh_commands as f64,
            TimingParam::TRfc => cfg.t_rfc_ns,
            TimingParam::TRfcPb => cfg.t_rfc_pb_ns,
            TimingParam::PerBankRefresh => f64::from(u8::from(cfg.per_bank_refresh)),
            TimingParam::RelockCycles => cfg.relock_cycles as f64,
            TimingParam::RelockExtra => cfg.relock_extra_ns,
            TimingParam::McPipeline => f64::from(cfg.mc_pipeline_cycles),
        }
    }

    /// Whether this parameter carries meaning for `generation`: a
    /// parameter that belongs to a generation capability ([`FsmFeature`])
    /// matters only where that capability exists.
    ///
    /// Generations without bank groups collapse `tCCD_L`/`tRRD_L` onto the
    /// short spacings and pin `bank_groups` to 1; generations without deep
    /// power-down pin `tXDPD` to 0; generations without per-bank refresh
    /// never read `tRFCpb`. The coverage pass skips irrelevant parameters
    /// instead of demanding rules for fields that are structurally inert.
    pub fn relevant_for(self, generation: MemGeneration) -> bool {
        let feature = match self {
            TimingParam::TCcdL | TimingParam::TRrdL | TimingParam::BankGroups => {
                FsmFeature::BankGroups
            }
            TimingParam::TXdpd => FsmFeature::DeepPowerDown,
            TimingParam::TRfcPb | TimingParam::PerBankRefresh => FsmFeature::PerBankRefresh,
            _ => return true,
        };
        feature.enabled(generation)
    }
}

impl fmt::Display for TimingParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.field())
    }
}

/// One violated invariant: a stable identifier, the generation it was
/// checked against, a human-readable message, and the parameter names and
/// values involved.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable kebab-case invariant identifier (e.g. `tras-covers-rcd-rtp`).
    /// Mutation self-tests key on this, so identifiers are append-only.
    pub invariant: &'static str,
    /// The generation whose table (or FSM) was being checked.
    pub generation: MemGeneration,
    /// Human-readable explanation with the concrete values involved.
    pub message: String,
    /// `(parameter, value)` pairs the invariant relates.
    pub params: Vec<(&'static str, f64)>,
}

impl Diagnostic {
    /// Builds a diagnostic; `params` name the values the invariant relates.
    pub fn new(
        invariant: &'static str,
        generation: MemGeneration,
        message: impl Into<String>,
        params: Vec<(&'static str, f64)>,
    ) -> Self {
        Diagnostic {
            invariant,
            generation,
            message: message.into(),
            params,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.invariant, self.generation, self.message
        )?;
        if !self.params.is_empty() {
            write!(f, " (")?;
            for (i, (name, value)) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}={value}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Every at-rest invariant of a system's device description, in one list:
/// the timing table ([`check_timing`]), its coupling to the topology
/// ([`check_system_timing`]), then the power table ([`check_power`]).
///
/// [`SystemConfig::validate`] reports the first entry; `memscale-sim check`
/// reports them all before its per-frequency stage.
pub fn check_at_rest(sys: &SystemConfig) -> Vec<Diagnostic> {
    let mut out = check_timing(&sys.timing);
    out.extend(check_system_timing(
        sys.topology.banks_per_rank,
        &sys.timing,
    ));
    out.extend(check_power(&sys.power, sys.timing.generation));
    out
}

/// Checks every pure-table invariant of a timing configuration, returning
/// all diagnostics in deterministic order (positivity first, then
/// cross-parameter, then generation-specific).
///
/// [`DramTimingConfig::validate`] reports the first entry. Cross-parameter
/// checks are skipped when an operand already failed the
/// positivity/finiteness stage so one bad value does not cascade into
/// nonsense comparisons.
#[allow(clippy::too_many_lines)] // a linear checklist reads best unsplit
pub fn check_timing(cfg: &DramTimingConfig) -> Vec<Diagnostic> {
    let gen = cfg.generation;
    let mut out = Vec::new();
    let bad = |p: TimingParam| -> bool {
        let v = p.value(cfg);
        !v.is_finite() || v <= 0.0
    };
    let positive = [
        TimingParam::TRcd,
        TimingParam::TRp,
        TimingParam::TCl,
        TimingParam::TRas,
        TimingParam::TRrd,
        TimingParam::TFaw,
        TimingParam::TRtp,
        TimingParam::TWr,
        TimingParam::TXp,
        TimingParam::TXpdll,
        TimingParam::RefreshPeriod,
        TimingParam::TRfc,
    ];
    for p in positive {
        if bad(p) {
            out.push(Diagnostic::new(
                "param-positive",
                gen,
                format!("{} must be positive", p.field()),
                vec![(p.field(), p.value(cfg))],
            ));
        }
    }
    if cfg.burst_cycles == 0 {
        out.push(Diagnostic::new(
            "param-count-positive",
            gen,
            "burst_cycles must be > 0",
            vec![("burst_cycles", 0.0)],
        ));
    }
    if cfg.refresh_commands == 0 {
        out.push(Diagnostic::new(
            "param-count-positive",
            gen,
            "refresh_commands must be > 0",
            vec![("refresh_commands", 0.0)],
        ));
    }
    if cfg.mc_pipeline_cycles == 0 {
        out.push(Diagnostic::new(
            "param-count-positive",
            gen,
            "mc_pipeline_cycles must be > 0",
            vec![("mc_pipeline_cycles", 0.0)],
        ));
    }

    // Cross-parameter consistency: individually plausible values can still
    // describe a device no datasheet would permit, and the timing engine
    // (and the protocol auditor checking it) assume these orderings hold.
    if !bad(TimingParam::TRas)
        && !bad(TimingParam::TRcd)
        && !bad(TimingParam::TRtp)
        && cfg.t_ras_ns < cfg.t_rcd_ns + cfg.t_rtp_ns
    {
        out.push(Diagnostic::new(
            "tras-covers-rcd-rtp",
            gen,
            format!(
                "t_ras_ns ({}) must be >= t_rcd_ns + t_rtp_ns ({}): a read \
                 could otherwise precharge before the row finished activating",
                cfg.t_ras_ns,
                cfg.t_rcd_ns + cfg.t_rtp_ns
            ),
            vec![
                ("t_ras_ns", cfg.t_ras_ns),
                ("t_rcd_ns", cfg.t_rcd_ns),
                ("t_rtp_ns", cfg.t_rtp_ns),
            ],
        ));
    }
    if !bad(TimingParam::TFaw) && !bad(TimingParam::TRrd) && cfg.t_faw_ns < 2.0 * cfg.t_rrd_ns {
        out.push(Diagnostic::new(
            "tfaw-covers-2trrd",
            gen,
            format!(
                "t_faw_ns ({}) must be >= 2 * t_rrd_ns ({}): a four-activate \
                 window shorter than two ACT-to-ACT gaps never constrains",
                cfg.t_faw_ns,
                2.0 * cfg.t_rrd_ns
            ),
            vec![("t_faw_ns", cfg.t_faw_ns), ("t_rrd_ns", cfg.t_rrd_ns)],
        ));
    }
    if !bad(TimingParam::RefreshPeriod) && cfg.refresh_commands > 0 && !bad(TimingParam::TRfc) {
        let refi_ns = cfg.refresh_period_ms * 1e6 / cfg.refresh_commands as f64;
        if cfg.t_rfc_ns >= refi_ns {
            out.push(Diagnostic::new(
                "refresh-duty",
                gen,
                format!(
                    "t_rfc_ns ({}) must be < the refresh interval tREFI ({refi_ns} \
                     ns): refresh would otherwise consume the whole device",
                    cfg.t_rfc_ns
                ),
                vec![("t_rfc_ns", cfg.t_rfc_ns), ("tREFI_ns", refi_ns)],
            ));
        }
    }
    if !bad(TimingParam::TXp) && !bad(TimingParam::TXpdll) && cfg.t_xp_ns > cfg.t_xpdll_ns {
        out.push(Diagnostic::new(
            "powerdown-exit-ladder",
            gen,
            format!(
                "t_xp_ns ({}) must be <= t_xpdll_ns ({}): the fast powerdown \
                 exit cannot be slower than the DLL-relock slow exit",
                cfg.t_xp_ns, cfg.t_xpdll_ns
            ),
            vec![("t_xp_ns", cfg.t_xp_ns), ("t_xpdll_ns", cfg.t_xpdll_ns)],
        ));
    }
    if cfg.t_ccd_s_cycles != 0 && cfg.burst_cycles != 0 && cfg.t_ccd_s_cycles != cfg.burst_cycles {
        out.push(Diagnostic::new(
            "tccds-matches-burst",
            gen,
            format!(
                "t_ccd_s_cycles ({}) must equal burst_cycles ({}): the \
                 different-group CAS-to-CAS spacing is the burst itself on \
                 every supported generation, and the engine schedules it so",
                cfg.t_ccd_s_cycles, cfg.burst_cycles
            ),
            vec![
                ("t_ccd_s_cycles", f64::from(cfg.t_ccd_s_cycles)),
                ("burst_cycles", f64::from(cfg.burst_cycles)),
            ],
        ));
    }
    if !cfg.relock_extra_ns.is_finite() || cfg.relock_extra_ns < 0.0 {
        out.push(Diagnostic::new(
            "relock-extra-nonnegative",
            gen,
            format!(
                "relock_extra_ns ({}) must be finite and >= 0",
                cfg.relock_extra_ns
            ),
            vec![("relock_extra_ns", cfg.relock_extra_ns)],
        ));
    }
    check_generation(cfg, &mut out);
    out
}

/// Generation-specific cross-checks, with messages naming the generation
/// (appended to `out` in the order startup validation historically used).
fn check_generation(cfg: &DramTimingConfig, out: &mut Vec<Diagnostic>) {
    let gen = cfg.generation;
    if cfg.bank_groups == 0 {
        out.push(Diagnostic::new(
            "bank-groups-positive",
            gen,
            format!("{gen}: bank_groups must be > 0"),
            vec![("bank_groups", 0.0)],
        ));
    }
    if cfg.t_ccd_s_cycles == 0 || cfg.t_ccd_l_cycles == 0 {
        out.push(Diagnostic::new(
            "ccd-cycles-positive",
            gen,
            format!("{gen}: tCCD_S/tCCD_L must be > 0 cycles"),
            vec![
                ("t_ccd_s_cycles", f64::from(cfg.t_ccd_s_cycles)),
                ("t_ccd_l_cycles", f64::from(cfg.t_ccd_l_cycles)),
            ],
        ));
    }
    if !cfg.t_rrd_l_ns.is_finite() || cfg.t_rrd_l_ns <= 0.0 {
        out.push(Diagnostic::new(
            "trrdl-positive",
            gen,
            format!("{gen}: t_rrd_l_ns must be positive"),
            vec![("t_rrd_l_ns", cfg.t_rrd_l_ns)],
        ));
    }
    if gen.has_bank_groups() {
        if cfg.bank_groups < 2 {
            out.push(Diagnostic::new(
                "bank-groups-min",
                gen,
                format!("{gen} splits banks into groups: bank_groups must be >= 2"),
                vec![("bank_groups", f64::from(cfg.bank_groups))],
            ));
        }
        if cfg.t_ccd_l_cycles != 0 && cfg.t_ccd_l_cycles < cfg.t_ccd_s_cycles {
            out.push(Diagnostic::new(
                "ccd-ladder",
                gen,
                format!(
                    "{gen}: t_ccd_l_cycles ({}) must be >= t_ccd_s_cycles ({}): \
                     the same-group CAS spacing is the longer one",
                    cfg.t_ccd_l_cycles, cfg.t_ccd_s_cycles
                ),
                vec![
                    ("t_ccd_l_cycles", f64::from(cfg.t_ccd_l_cycles)),
                    ("t_ccd_s_cycles", f64::from(cfg.t_ccd_s_cycles)),
                ],
            ));
        }
        if cfg.t_rrd_l_ns > 0.0 && cfg.t_rrd_l_ns < cfg.t_rrd_ns {
            out.push(Diagnostic::new(
                "trrd-ladder",
                gen,
                format!(
                    "{gen}: t_rrd_l_ns ({}) must be >= t_rrd_ns ({}): the \
                     same-group ACT spacing is the longer one",
                    cfg.t_rrd_l_ns, cfg.t_rrd_ns
                ),
                vec![("t_rrd_l_ns", cfg.t_rrd_l_ns), ("t_rrd_ns", cfg.t_rrd_ns)],
            ));
        }
    } else if cfg.bank_groups != 1 {
        out.push(Diagnostic::new(
            "bank-groups-collapsed",
            gen,
            format!("{gen} has no bank groups: bank_groups must be 1"),
            vec![("bank_groups", f64::from(cfg.bank_groups))],
        ));
    }
    if gen.has_deep_power_down() {
        if !cfg.t_xdpd_ns.is_finite() || cfg.t_xdpd_ns <= cfg.t_xpdll_ns {
            out.push(Diagnostic::new(
                "xdpd-exceeds-xpdll",
                gen,
                format!(
                    "{gen}: deep power-down exit t_xdpd_ns ({}) must exceed \
                     the slow-exit latency t_xpdll_ns ({})",
                    cfg.t_xdpd_ns, cfg.t_xpdll_ns
                ),
                vec![("t_xdpd_ns", cfg.t_xdpd_ns), ("t_xpdll_ns", cfg.t_xpdll_ns)],
            ));
        }
    } else if cfg.t_xdpd_ns != 0.0 {
        out.push(Diagnostic::new(
            "xdpd-zero-without-deep",
            gen,
            format!("{gen} has no deep power-down state: t_xdpd_ns must be 0"),
            vec![("t_xdpd_ns", cfg.t_xdpd_ns)],
        ));
    }
    if cfg.per_bank_refresh {
        if !FsmFeature::PerBankRefresh.enabled(gen) {
            out.push(Diagnostic::new(
                "refpb-generation",
                gen,
                format!(
                    "{gen} has no per-bank refresh: per_bank_refresh must be \
                     false"
                ),
                vec![("per_bank_refresh", 1.0)],
            ));
        } else if !cfg.t_rfc_pb_ns.is_finite()
            || cfg.t_rfc_pb_ns <= 0.0
            || cfg.t_rfc_pb_ns >= cfg.t_rfc_ns
        {
            out.push(Diagnostic::new(
                "refpb-duration",
                gen,
                format!(
                    "{gen}: per-bank refresh t_rfc_pb_ns ({}) must be \
                     positive and < the all-bank t_rfc_ns ({})",
                    cfg.t_rfc_pb_ns, cfg.t_rfc_ns
                ),
                vec![("t_rfc_pb_ns", cfg.t_rfc_pb_ns), ("t_rfc_ns", cfg.t_rfc_ns)],
            ));
        }
    }
}

/// Cross-section invariants tying a timing table to the physical topology.
pub fn check_system_timing(banks_per_rank: u8, cfg: &DramTimingConfig) -> Vec<Diagnostic> {
    let gen = cfg.generation;
    let mut out = Vec::new();
    if cfg.bank_groups > 0 && !banks_per_rank.is_multiple_of(cfg.bank_groups) {
        out.push(Diagnostic::new(
            "bank-group-divisibility",
            gen,
            format!(
                "{gen}: banks_per_rank ({banks_per_rank}) must be divisible by \
                 bank_groups ({}) for the round-robin group mapping",
                cfg.bank_groups
            ),
            vec![
                ("banks_per_rank", f64::from(banks_per_rank)),
                ("bank_groups", f64::from(cfg.bank_groups)),
            ],
        ));
    }
    if cfg.per_bank_refresh && banks_per_rank > 0 && cfg.refresh_commands > 0 {
        let refi_pb_ns =
            cfg.refresh_period_ms * 1e6 / cfg.refresh_commands as f64 / f64::from(banks_per_rank);
        if cfg.t_rfc_pb_ns >= refi_pb_ns {
            out.push(Diagnostic::new(
                "refpb-duty",
                gen,
                format!(
                    "{gen}: t_rfc_pb_ns ({}) must be < the per-bank refresh \
                     interval tREFI/banks ({refi_pb_ns} ns)",
                    cfg.t_rfc_pb_ns
                ),
                vec![
                    ("t_rfc_pb_ns", cfg.t_rfc_pb_ns),
                    ("tREFI_pb_ns", refi_pb_ns),
                ],
            ));
        }
    }
    out
}

/// Static IDD/power-table invariants for one generation.
///
/// Currents and powers are finite and non-negative, `vdd` positive, and the
/// two calibration fractions in range. The orderings mirror how the power
/// model consumes the currents: powerdown states must not draw more than
/// the standby states they undercut, burst and refresh currents dominate
/// standby, and the deep power-down floor must stay below the
/// *frequency-scaled* precharge-powerdown current at every grid point
/// (`i_dpd_ma` does not scale with frequency, so the binding comparison is
/// at the slowest point).
pub fn check_power(power: &PowerConfig, generation: MemGeneration) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let non_negative = [
        ("i_act_pre_ma", power.i_act_pre_ma),
        ("i_pre_stby_ma", power.i_pre_stby_ma),
        ("i_pre_pd_ma", power.i_pre_pd_ma),
        ("i_act_stby_ma", power.i_act_stby_ma),
        ("i_act_pd_ma", power.i_act_pd_ma),
        ("i_rd_ma", power.i_rd_ma),
        ("i_wr_ma", power.i_wr_ma),
        ("i_ref_ma", power.i_ref_ma),
        ("i_dpd_ma", power.i_dpd_ma),
        ("term_w_per_dimm", power.term_w_per_dimm),
        ("pll_w", power.pll_w),
        ("reg_w_peak", power.reg_w_peak),
        ("mc_w_peak", power.mc_w_peak),
    ];
    let mut sane = true;
    for (name, v) in non_negative {
        if v < 0.0 || !v.is_finite() {
            sane = false;
            out.push(Diagnostic::new(
                "power-nonnegative",
                generation,
                format!("{name} must be >= 0"),
                vec![(name, v)],
            ));
        }
    }
    if power.vdd <= 0.0 || !power.vdd.is_finite() {
        out.push(Diagnostic::new(
            "vdd-positive",
            generation,
            "vdd must be > 0",
            vec![("vdd", power.vdd)],
        ));
    }
    if !(0.0..=1.0).contains(&power.mc_reg_idle_fraction) {
        out.push(Diagnostic::new(
            "idle-fraction-range",
            generation,
            "mc_reg_idle_fraction must be in [0, 1]",
            vec![("mc_reg_idle_fraction", power.mc_reg_idle_fraction)],
        ));
    }
    if !(power.mem_power_fraction > 0.0 && power.mem_power_fraction < 1.0) {
        out.push(Diagnostic::new(
            "mem-fraction-range",
            generation,
            "mem_power_fraction must be in (0, 1)",
            vec![("mem_power_fraction", power.mem_power_fraction)],
        ));
    }
    if !sane {
        return out; // orderings over garbage values only cascade
    }
    let orderings: [(&'static str, &'static str, f64, &'static str, f64); 8] = [
        (
            "idd-powerdown-undercuts-standby",
            "i_pre_pd_ma",
            power.i_pre_pd_ma,
            "i_pre_stby_ma",
            power.i_pre_stby_ma,
        ),
        (
            "idd-powerdown-undercuts-standby",
            "i_act_pd_ma",
            power.i_act_pd_ma,
            "i_act_stby_ma",
            power.i_act_stby_ma,
        ),
        (
            "idd-precharge-pd-floor",
            "i_pre_pd_ma",
            power.i_pre_pd_ma,
            "i_act_pd_ma",
            power.i_act_pd_ma,
        ),
        (
            "idd-activate-peak",
            "i_act_stby_ma",
            power.i_act_stby_ma,
            "i_act_pre_ma",
            power.i_act_pre_ma,
        ),
        (
            "idd-burst-dominates-standby",
            "i_act_stby_ma",
            power.i_act_stby_ma,
            "i_rd_ma",
            power.i_rd_ma,
        ),
        (
            "idd-burst-dominates-standby",
            "i_act_stby_ma",
            power.i_act_stby_ma,
            "i_wr_ma",
            power.i_wr_ma,
        ),
        (
            "idd-refresh-dominates-standby",
            "i_act_stby_ma",
            power.i_act_stby_ma,
            "i_ref_ma",
            power.i_ref_ma,
        ),
        (
            "idd-burst-dominates-activate",
            "i_act_pre_ma",
            power.i_act_pre_ma,
            "i_rd_ma",
            power.i_rd_ma,
        ),
    ];
    for (invariant, lo_name, lo, hi_name, hi) in orderings {
        if lo > hi {
            out.push(Diagnostic::new(
                invariant,
                generation,
                format!("{lo_name} ({lo} mA) must be <= {hi_name} ({hi} mA)"),
                vec![(lo_name, lo), (hi_name, hi)],
            ));
        }
    }
    if generation.has_deep_power_down() {
        // Binding at the slowest grid point: powerdown currents scale with
        // frequency, the gated deep power-down floor does not.
        let scaled_pre_pd = power.i_pre_pd_ma * MemFreq::MIN.relative();
        if power.i_dpd_ma <= 0.0 || power.i_dpd_ma >= scaled_pre_pd {
            out.push(Diagnostic::new(
                "idd-deep-floor",
                generation,
                format!(
                    "deep power-down current i_dpd_ma ({} mA) must be positive \
                     and below the frequency-scaled precharge-powerdown \
                     current at {} ({scaled_pre_pd} mA)",
                    power.i_dpd_ma,
                    MemFreq::MIN
                ),
                vec![
                    ("i_dpd_ma", power.i_dpd_ma),
                    ("i_pre_pd_ma", power.i_pre_pd_ma),
                ],
            ));
        }
    } else if power.i_dpd_ma != 0.0 {
        out.push(Diagnostic::new(
            "idd-deep-absent",
            generation,
            format!("{generation} has no deep power-down state: i_dpd_ma must be 0"),
            vec![("i_dpd_ma", power.i_dpd_ma)],
        ));
    }
    out
}

// --- declarative FSM transition tables -------------------------------------

/// A generation capability gating an FSM state or transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmFeature {
    /// The generation has a deep power-down rank state.
    DeepPowerDown,
    /// The generation splits banks into bank groups.
    BankGroups,
    /// The generation refreshes one bank at a time.
    PerBankRefresh,
}

impl FsmFeature {
    /// Whether `generation` provides this capability.
    pub fn enabled(self, generation: MemGeneration) -> bool {
        match self {
            FsmFeature::DeepPowerDown => generation.has_deep_power_down(),
            FsmFeature::BankGroups => generation.has_bank_groups(),
            FsmFeature::PerBankRefresh => generation == MemGeneration::Lpddr3,
        }
    }
}

/// One row of an [`FsmSpec`] transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmTransition {
    /// Source state.
    pub from: &'static str,
    /// Triggering event.
    pub event: &'static str,
    /// Destination state.
    pub to: &'static str,
    /// The timing parameter paid as exit latency on this transition, if
    /// any. Every transition leaving a low-power state must carry one, and
    /// the model checker verifies the parameter exists (is positive) in the
    /// generation's table.
    pub exit_param: Option<TimingParam>,
    /// Generation capability required for this transition to exist.
    pub requires: Option<FsmFeature>,
}

/// A finite state machine published as data: states, events, and an
/// exhaustive transition table.
///
/// The owning crate (the rank power-state machine in `memscale-dram`, the
/// governor hardening ladder in `memscale`) declares its structure here and
/// keeps unit tests proving the executable implementation agrees; the
/// `memscale-check` model checker then proves determinism, reachability,
/// absence of sink states and exit-latency coverage by enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmSpec {
    /// Machine name used in diagnostics (e.g. `rank-power`).
    pub name: &'static str,
    /// Every state.
    pub states: &'static [&'static str],
    /// Every event the machine reacts to.
    pub events: &'static [&'static str],
    /// The reset state.
    pub initial: &'static str,
    /// The fully-operational state every state must be able to return to
    /// (the model checker's liveness anchor).
    pub operational: &'static str,
    /// States representing a low-power residency whose exits must be timed.
    pub low_power: &'static [&'static str],
    /// Generation capabilities required for a state to exist at all.
    pub state_requires: &'static [(&'static str, FsmFeature)],
    /// The transition table. Pairs `(from, event)` without a row are
    /// rejections: the machine refuses the event in that state (the
    /// implementation asserts or ignores), which the checker treats as
    /// intentional.
    pub transitions: &'static [FsmTransition],
}

impl FsmSpec {
    /// Whether `state` exists for `generation`.
    pub fn state_active(&self, state: &str, generation: MemGeneration) -> bool {
        self.state_requires
            .iter()
            .all(|&(s, feature)| s != state || feature.enabled(generation))
    }

    /// The transitions active for `generation` (feature-gated rows and rows
    /// touching gated-out states are dropped).
    pub fn active_transitions(
        &self,
        generation: MemGeneration,
    ) -> impl Iterator<Item = &FsmTransition> {
        self.transitions.iter().filter(move |t| {
            t.requires.is_none_or(|f| f.enabled(generation))
                && self.state_active(t.from, generation)
                && self.state_active(t.to, generation)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_are_clean() {
        for gen in MemGeneration::ALL {
            let diags = check_at_rest(&SystemConfig::for_generation(gen));
            assert!(diags.is_empty(), "{gen}: {diags:?}");
        }
    }

    #[test]
    fn param_universe_is_exhaustive_and_distinct() {
        let mut fields: Vec<&str> = TimingParam::ALL.iter().map(|p| p.field()).collect();
        fields.sort_unstable();
        fields.dedup();
        assert_eq!(fields.len(), TimingParam::ALL.len());
        // Spot-check values read the right fields.
        let cfg = DramTimingConfig::ddr4();
        assert_eq!(TimingParam::TRcd.value(&cfg), 13.75);
        assert_eq!(TimingParam::BankGroups.value(&cfg), 4.0);
        assert_eq!(TimingParam::PerBankRefresh.value(&cfg), 0.0);
    }

    #[test]
    fn relevance_tracks_generation_capabilities() {
        assert!(!TimingParam::TCcdL.relevant_for(MemGeneration::Ddr3));
        assert!(TimingParam::TCcdL.relevant_for(MemGeneration::Ddr4));
        assert!(TimingParam::TXdpd.relevant_for(MemGeneration::Lpddr3));
        assert!(!TimingParam::TXdpd.relevant_for(MemGeneration::Ddr4));
        assert!(TimingParam::TRcd.relevant_for(MemGeneration::Lpddr3));
    }

    #[test]
    fn diagnostics_name_invariant_and_params() {
        let cfg = DramTimingConfig {
            t_ras_ns: 20.0,
            ..DramTimingConfig::default()
        };
        let diags = check_timing(&cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].invariant, "tras-covers-rcd-rtp");
        assert!(diags[0].params.contains(&("t_ras_ns", 20.0)));
        let shown = diags[0].to_string();
        assert!(shown.contains("tras-covers-rcd-rtp") && shown.contains("t_ras_ns"));
    }

    #[test]
    fn garbage_values_do_not_cascade_into_cross_checks() {
        let cfg = DramTimingConfig {
            t_ras_ns: f64::NAN,
            ..DramTimingConfig::default()
        };
        let diags = check_timing(&cfg);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].invariant, "param-positive");
    }

    #[test]
    fn new_ladder_invariants_fire() {
        let cfg = DramTimingConfig {
            t_xp_ns: 30.0, // above tXPDLL (24)
            ..DramTimingConfig::default()
        };
        let diags = check_timing(&cfg);
        assert!(diags.iter().any(|d| d.invariant == "powerdown-exit-ladder"));

        let cfg = DramTimingConfig {
            t_ccd_s_cycles: 5,
            ..DramTimingConfig::default()
        };
        let diags = check_timing(&cfg);
        assert!(diags.iter().any(|d| d.invariant == "tccds-matches-burst"));

        let cfg = DramTimingConfig {
            relock_extra_ns: -1.0,
            ..DramTimingConfig::default()
        };
        let diags = check_timing(&cfg);
        assert!(diags
            .iter()
            .any(|d| d.invariant == "relock-extra-nonnegative"));
    }

    #[test]
    fn system_timing_checks_cover_topology_couplings() {
        let cfg = DramTimingConfig::ddr4();
        assert!(check_system_timing(16, &cfg).is_empty());
        let diags = check_system_timing(6, &cfg);
        assert_eq!(diags[0].invariant, "bank-group-divisibility");

        let lp = DramTimingConfig::lpddr3();
        assert!(check_system_timing(8, &lp).is_empty());
        let tight = DramTimingConfig {
            t_rfc_pb_ns: 2_000.0, // above tREFI/banks (~977 ns) but below tRFC? no — keep below tRFC via larger t_rfc
            t_rfc_ns: 3_000.0,
            ..DramTimingConfig::lpddr3()
        };
        let diags = check_system_timing(8, &tight);
        assert!(diags.iter().any(|d| d.invariant == "refpb-duty"));
    }

    #[test]
    fn power_orderings_fire_on_inversion() {
        let base = PowerConfig::default();
        let p = PowerConfig {
            i_pre_pd_ma: base.i_pre_stby_ma + 1.0,
            ..base
        };
        let diags = check_power(&p, MemGeneration::Ddr3);
        assert!(diags
            .iter()
            .any(|d| d.invariant == "idd-powerdown-undercuts-standby"));

        let base = PowerConfig::lpddr3();
        let p = PowerConfig {
            i_dpd_ma: base.i_pre_pd_ma, // not a floor any more
            ..base
        };
        let diags = check_power(&p, MemGeneration::Lpddr3);
        assert!(diags.iter().any(|d| d.invariant == "idd-deep-floor"));

        let p = PowerConfig {
            i_dpd_ma: 1.0,
            ..PowerConfig::default()
        };
        let diags = check_power(&p, MemGeneration::Ddr3);
        assert!(diags.iter().any(|d| d.invariant == "idd-deep-absent"));
    }

    #[test]
    fn fsm_feature_gating() {
        assert!(FsmFeature::DeepPowerDown.enabled(MemGeneration::Lpddr3));
        assert!(!FsmFeature::DeepPowerDown.enabled(MemGeneration::Ddr3));
        assert!(FsmFeature::BankGroups.enabled(MemGeneration::Ddr4));
        assert!(FsmFeature::PerBankRefresh.enabled(MemGeneration::Lpddr3));
    }
}
