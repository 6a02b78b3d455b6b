//! Frequency selection (§3.2 "Frequency selection" + Eq 10).
//!
//! Each epoch, the governor exhaustively scores the ten operating points:
//! a point is *feasible* if every application's predicted dilation stays
//! within its slack-adjusted target, and among feasible points the governor
//! minimizes predicted energy — full-system by default (the SER numerator
//! `T(f)·P(f)`; the baseline denominator is a constant and drops out of the
//! arg-min), or memory-only for the MemScale(MemEnergy) variant.

use crate::perf_model::PerfModel;
use crate::profile::EpochProfile;
use crate::slack::SlackTracker;
use memscale_power::PowerModel;
use memscale_types::config::SystemConfig;
use memscale_types::freq::MemFreq;
use memscale_types::invariants::{FsmSpec, FsmTransition};
use memscale_types::time::Picos;

/// What the governor minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnergyObjective {
    /// Minimize full-system energy (the paper's MemScale).
    #[default]
    FullSystem,
    /// Minimize memory-subsystem energy only (MemScale(MemEnergy), §4.2.3).
    MemoryOnly,
}

/// Governor parameters (§3.2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Maximum allowed CPI degradation γ (default 10 %).
    pub gamma: f64,
    /// Epoch length (default 5 ms — an OS quantum).
    pub epoch: Picos,
    /// Profiling-phase length at the start of each epoch (default 300 µs).
    pub profile_len: Picos,
    /// Energy objective.
    pub objective: EnergyObjective,
    /// Whether slack carries across epochs (true per the paper; false is
    /// the per-epoch-reset ablation).
    pub slack_carry: bool,
    /// §3.3's optional refinement for deep queues: remember the queue
    /// factors (ξ) measured at each visited frequency and interpolate them
    /// for candidate frequencies, instead of reusing the profiled value
    /// everywhere. Off by default (the paper's default configuration).
    pub queue_interpolation: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            gamma: 0.10,
            epoch: Picos::from_ms(5),
            profile_len: Picos::from_us(300),
            objective: EnergyObjective::FullSystem,
            slack_carry: true,
            queue_interpolation: false,
        }
    }
}

/// Per-frequency diagnostic: (dilation vs max freq, predicted memory W,
/// SER score); `None` when slack rules the frequency out.
type CandidateScore = Option<(f64, f64, f64)>;

/// Outcome of the governor's plausibility check on one [`EpochProfile`]
/// (the clamp → last-good → `f_max` degradation ladder's first rung).
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileVerdict {
    /// Every counter is plausible; the profile is used as delivered.
    Clean,
    /// Individual counters were implausible and have been clamped into the
    /// plausible envelope; the repaired profile is used.
    Clamped(Box<EpochProfile>),
    /// The profile is poisoned beyond repair (non-monotonic or overflowing
    /// TIC, dropped read); the governor falls back to the last-good profile
    /// or, lacking one, to `f_max`.
    Discarded,
}

/// Degradation bookkeeping of the hardened governor, surfaced in fault
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorHealth {
    /// Poisoned profiles discarded (fell back to last-good or `f_max`).
    pub discarded_profiles: u64,
    /// Profiles with individually implausible counters clamped.
    pub clamped_profiles: u64,
    /// Epochs decided at `f_max` by force (`QoS` guard or failed switch).
    pub forced_max_epochs: u64,
    /// Times the `QoS` guard tripped (measured slack diverged from predicted
    /// for two consecutive epochs).
    pub qos_interventions: u64,
    /// Frequency switches observed landing on a different point than
    /// requested.
    pub failed_switches: u64,
}

/// An application may not plausibly retire more than this many instructions
/// per CPU cycle (real IPC tops out well under 4; the margin guarantees no
/// legitimate profile is ever discarded).
const MAX_PLAUSIBLE_IPC: f64 = 16.0;

/// An arrival may not plausibly find more than this many requests queued
/// ahead of it (bounded by outstanding misses, i.e. cores; generous margin).
const MAX_PLAUSIBLE_QUEUE: f64 = 1024.0;

/// Measured mean dilation may exceed the prediction by this much before an
/// epoch counts as a `QoS` strike (model error in clean runs stays far below).
const QOS_DIVERGENCE: f64 = 0.5;

/// Consecutive strikes before the `QoS` guard forces `f_max` (hysteresis: one
/// noisy epoch never trips it).
const QOS_STRIKES: u32 = 2;

/// Epochs spent at forced `f_max` after a `QoS` intervention.
const QOS_FORCE_EPOCHS: u32 = 2;

/// The governor hardening ladder as a declarative transition table.
///
/// Abstracts the counters of [`MemScaleGovernor`] into three trust states —
/// `trusting` (`force_max == 0`, no strike armed), `strike-armed`
/// (`qos_strikes > 0`), and `forced-max` (`force_max > 0`) — so the
/// `memscale-check` model checker can prove the recovery structure:
/// deterministic reactions, every state reachable, and every state able to
/// return to `trusting` (no recovery dead-end). Unit tests below pin the
/// table to the executable ladder.
///
/// Conventions mirrored from the implementation:
///
/// * Profile verdicts (clean / clamped / discarded) never change the trust
///   state by themselves — a discarded profile degrades one *decision* (to
///   last-good or `f_max`) without arming the ladder.
/// * `qos-diverged` arms a strike; a second consecutive strike converts to
///   forced `f_max` (`QOS_STRIKES == 2` hysteresis). `qos-within-bound`
///   disarms.
/// * `switch-fell-short` (the frequency switch landed below the requested
///   point) forces `f_max` from any state.
/// * `force-elapsed` fires when the owed forced epochs have been served;
///   while forced, the `QoS` comparison is disarmed, so `qos-*` events
///   self-loop.
pub const GOVERNOR_LADDER_FSM: FsmSpec = FsmSpec {
    name: "governor-ladder",
    states: &["trusting", "strike-armed", "forced-max"],
    events: &[
        "profile-clean",
        "profile-clamped",
        "profile-discarded",
        "qos-diverged",
        "qos-within-bound",
        "switch-fell-short",
        "force-elapsed",
    ],
    initial: "trusting",
    operational: "trusting",
    low_power: &[],
    state_requires: &[],
    transitions: &[
        FsmTransition {
            from: "trusting",
            event: "profile-clean",
            to: "trusting",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "trusting",
            event: "profile-clamped",
            to: "trusting",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "trusting",
            event: "profile-discarded",
            to: "trusting",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "trusting",
            event: "qos-diverged",
            to: "strike-armed",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "trusting",
            event: "qos-within-bound",
            to: "trusting",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "trusting",
            event: "switch-fell-short",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "strike-armed",
            event: "profile-clean",
            to: "strike-armed",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "strike-armed",
            event: "profile-clamped",
            to: "strike-armed",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "strike-armed",
            event: "profile-discarded",
            to: "strike-armed",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "strike-armed",
            event: "qos-diverged",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "strike-armed",
            event: "qos-within-bound",
            to: "trusting",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "strike-armed",
            event: "switch-fell-short",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "profile-clean",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "profile-clamped",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "profile-discarded",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "qos-diverged",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "qos-within-bound",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "switch-fell-short",
            to: "forced-max",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "forced-max",
            event: "force-elapsed",
            to: "trusting",
            exit_param: None,
            requires: None,
        },
    ],
};

/// The MemScale OS governor.
#[derive(Debug, Clone)]
pub struct MemScaleGovernor {
    cfg: GovernorConfig,
    perf: PerfModel,
    power: PowerModel,
    slack: SlackTracker,
    rest_w: f64,
    /// Last measured (`ξ_bank`, `ξ_bus`) per operating point, for the §3.3
    /// queue-interpolation refinement.
    xi_observed: [Option<(f64, f64)>; MemFreq::ALL.len()],
    /// Most recent profile that passed the plausibility check; substitutes
    /// for a discarded one.
    last_good: Option<EpochProfile>,
    /// Epochs still owed to forced-`f_max` recovery.
    force_max: u32,
    /// Consecutive epochs whose measured dilation diverged from predicted.
    qos_strikes: u32,
    /// Mean dilation predicted for the frequency chosen this epoch.
    predicted_dilation: Option<f64>,
    health: GovernorHealth,
}

impl MemScaleGovernor {
    /// Builds a governor for the given system.
    ///
    /// The slack tracker is sized on first use; the rest-of-system power
    /// defaults to the §4.1 memory-fraction estimate for an idle memory
    /// subsystem and should be calibrated with
    /// [`set_rest_of_system_w`](Self::set_rest_of_system_w).
    pub fn new(sys: &SystemConfig, cfg: GovernorConfig) -> Self {
        let power = PowerModel::new(sys);
        // Provisional rest-of-system estimate from idle memory power.
        let idle_mem = power
            .memory_power(&[], &[], Picos::from_ms(1), MemFreq::MAX)
            .total_w();
        let rest_w = power.rest_of_system_w(idle_mem.max(1.0) + 20.0);
        MemScaleGovernor {
            cfg,
            perf: PerfModel::new(&sys.timing, &sys.cpu),
            power,
            slack: SlackTracker::new(0, cfg.gamma),
            rest_w,
            xi_observed: [None; MemFreq::ALL.len()],
            last_good: None,
            force_max: 0,
            qos_strikes: 0,
            predicted_dilation: None,
            health: GovernorHealth::default(),
        }
    }

    /// Estimates the queue factors at candidate frequency `f` by linear
    /// interpolation (in bus period, to which queueing roughly scales) over
    /// the observed history; falls back to the profiled values.
    fn interpolated_xi(&self, f: MemFreq) -> Option<(f64, f64)> {
        if !self.cfg.queue_interpolation {
            return None;
        }
        if let Some(xi) = self.xi_observed[f.index()] {
            return Some(xi);
        }
        // Need two observations to interpolate.
        let known: Vec<(f64, f64, f64)> = MemFreq::ALL
            .iter()
            .filter_map(|&g| {
                self.xi_observed[g.index()].map(|(b, c)| (g.cycle().as_ns_f64(), b, c))
            })
            .collect();
        if known.len() < 2 {
            return None;
        }
        // Linear fit through the two period-nearest observations.
        let x = f.cycle().as_ns_f64();
        let mut sorted = known;
        sorted.sort_by(|a, b| {
            (a.0 - x)
                .abs()
                .partial_cmp(&(b.0 - x).abs())
                .expect("finite")
        });
        let (x0, b0, c0) = sorted[0];
        let (x1, b1, c1) = sorted[1];
        if (x1 - x0).abs() < 1e-12 {
            return Some((b0, c0));
        }
        let t = (x - x0) / (x1 - x0);
        Some(((b0 + t * (b1 - b0)).max(1.0), (c0 + t * (c1 - c0)).max(1.0)))
    }

    /// A profile whose controller counters are adjusted so the performance
    /// model sees the interpolated queue factors for frequency `f`.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // clamped non-negative
    fn profile_for(&self, profile: &EpochProfile, f: MemFreq) -> EpochProfile {
        let Some((xi_bank, xi_bus)) = self.interpolated_xi(f) else {
            return profile.clone();
        };
        let mut adjusted = profile.clone();
        let btc = adjusted.mc.btc.max(1);
        let ctc = adjusted.mc.ctc.max(1);
        adjusted.mc.bto = ((xi_bank - 1.0).max(0.0) * btc as f64) as u64;
        adjusted.mc.cto = ((xi_bus - 1.0).max(0.0) * ctc as f64) as u64;
        adjusted
    }

    /// The governor's configuration.
    #[inline]
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// The performance model in use.
    #[inline]
    pub fn perf_model(&self) -> &PerfModel {
        &self.perf
    }

    /// Current per-application slack.
    #[inline]
    pub fn slack(&self) -> &SlackTracker {
        &self.slack
    }

    /// Calibrates the fixed rest-of-system power (W) used by the
    /// full-system objective.
    pub fn set_rest_of_system_w(&mut self, rest_w: f64) {
        self.rest_w = rest_w.max(0.0);
    }

    /// The rest-of-system power currently assumed (W).
    #[inline]
    pub fn rest_of_system_w(&self) -> f64 {
        self.rest_w
    }

    fn ensure_slack(&mut self, apps: usize) {
        if self.slack.len() != apps {
            self.slack = SlackTracker::new(apps, self.cfg.gamma);
        }
    }

    /// Degradation counters accumulated by the hardened decision path.
    #[inline]
    pub fn health(&self) -> &GovernorHealth {
        &self.health
    }

    /// Plausibility check on a delivered profile (§3.1 counters can arrive
    /// corrupted, stale or dropped from real controller hardware).
    ///
    /// Thresholds are deliberately generous — no profile a correct
    /// simulation can produce is ever clamped or discarded — so the check
    /// only fires on genuinely poisoned reads:
    ///
    /// * a TIC of zero (the §3.1 counters are monotonic; a zero delta means
    ///   the read was lost or the counter wrapped) or beyond any plausible
    ///   retirement rate discards the profile;
    /// * TLM exceeding TIC (more misses than instructions) clamps TLM;
    /// * queue-occupancy averages beyond any plausible outstanding count
    ///   clamp BTO/CTO to unit depth.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // bound is positive and < 2^63
    pub fn sanitize_profile(&self, profile: &EpochProfile) -> ProfileVerdict {
        if profile.apps.is_empty() || profile.window == Picos::ZERO {
            return ProfileVerdict::Discarded;
        }
        let max_tic =
            (profile.window.as_secs_f64() * self.perf.cpu_hz() * MAX_PLAUSIBLE_IPC) as u64;
        let mut repaired: Option<EpochProfile> = None;
        for (i, app) in profile.apps.iter().enumerate() {
            if app.tic == 0 || app.tic > max_tic.max(1) {
                return ProfileVerdict::Discarded;
            }
            if app.tlm > app.tic {
                repaired.get_or_insert_with(|| profile.clone()).apps[i].tlm = app.tic;
            }
        }
        if profile.mc.bank_queue_avg() > MAX_PLAUSIBLE_QUEUE
            || profile.mc.channel_queue_avg() > MAX_PLAUSIBLE_QUEUE
        {
            let p = repaired.get_or_insert_with(|| profile.clone());
            p.mc.bto = p.mc.btc;
            p.mc.cto = p.mc.ctc;
        }
        match repaired {
            Some(p) => ProfileVerdict::Clamped(Box::new(p)),
            None => ProfileVerdict::Clean,
        }
    }

    /// The [`GOVERNOR_LADDER_FSM`] state the ladder currently occupies
    /// (`forced-max` dominates an armed strike).
    pub fn ladder_state(&self) -> &'static str {
        if self.force_max > 0 {
            "forced-max"
        } else if self.qos_strikes > 0 {
            "strike-armed"
        } else {
            "trusting"
        }
    }

    /// Informs the governor of the outcome of the frequency switch it
    /// requested. A switch that lands on a *slower* point than requested
    /// puts the `QoS` bound at risk (the slack account assumed the requested
    /// speed), so the governor schedules a forced `f_max` retry; either way
    /// the epoch's dilation prediction no longer matches the operating
    /// point, so the `QoS` comparison is disarmed for this epoch.
    pub fn note_switch_result(&mut self, requested: MemFreq, actual: MemFreq) {
        if requested == actual {
            return;
        }
        self.health.failed_switches += 1;
        if actual < requested {
            self.force_max = self.force_max.max(1);
        }
        self.predicted_dilation = None;
    }

    fn score(&self, raw_profile: &EpochProfile, f: MemFreq) -> CandidateScore {
        let adjusted;
        let profile = if self.cfg.queue_interpolation {
            adjusted = self.profile_for(raw_profile, f);
            &adjusted
        } else {
            raw_profile
        };
        let mut dil_max_sum = 0.0;
        let mut dil_prof_sum = 0.0;
        let mut counted = 0usize;
        for app in 0..profile.apps.len() {
            let Some(d_max) = self.perf.predict_dilation(profile, app, f) else {
                continue;
            };
            if !self.slack.permits(app, d_max, self.cfg.epoch) {
                return None;
            }
            let d_prof = self
                .perf
                .predict_cpi(profile, app, f)
                .zip(self.perf.predict_cpi(profile, app, profile.freq))
                .map(|(a, b)| a / b)
                .unwrap_or(1.0);
            dil_max_sum += d_max;
            dil_prof_sum += d_prof;
            counted += 1;
        }
        let (d_max, d_prof) = if counted > 0 {
            (
                dil_max_sum / counted as f64,
                (dil_prof_sum / counted as f64).max(1e-6),
            )
        } else {
            (1.0, 1.0)
        };
        let burst_ratio = self.perf.bus_time(f) / self.perf.bus_time(profile.freq);
        let activity = profile.activity.rescale(burst_ratio, d_prof);
        let p_mem = self.power.memory_power_from_summary(&activity, f).total_w();
        let score = match self.cfg.objective {
            EnergyObjective::FullSystem => d_max * (p_mem + self.rest_w),
            EnergyObjective::MemoryOnly => d_max * p_mem,
        };
        Some((d_max, p_mem, score))
    }

    /// Picks the operating point for the remainder of the epoch from the
    /// profiling window's observations.
    ///
    /// Hardened path: a pending forced-`f_max` recovery (`QoS` guard, failed
    /// switch) short-circuits the search; otherwise the profile runs through
    /// [`sanitize_profile`](Self::sanitize_profile) and a poisoned one is
    /// clamped or replaced by the last-good profile (`f_max` when none exists)
    /// before the normal arg-min.
    pub fn decide(&mut self, profile: &EpochProfile) -> MemFreq {
        self.ensure_slack(profile.apps.len());
        if self.force_max > 0 {
            self.force_max -= 1;
            self.health.forced_max_epochs += 1;
            self.predicted_dilation = Some(1.0);
            return MemFreq::MAX;
        }
        let substitute: Option<EpochProfile> = match self.sanitize_profile(profile) {
            ProfileVerdict::Clean => {
                self.last_good = Some(profile.clone());
                None
            }
            ProfileVerdict::Clamped(p) => {
                self.health.clamped_profiles += 1;
                Some(*p)
            }
            ProfileVerdict::Discarded => {
                self.health.discarded_profiles += 1;
                match &self.last_good {
                    Some(p) => Some(p.clone()),
                    None => {
                        self.predicted_dilation = Some(1.0);
                        return MemFreq::MAX;
                    }
                }
            }
        };
        let profile = substitute.as_ref().unwrap_or(profile);
        let mut best = MemFreq::MAX;
        let mut best_score = f64::INFINITY;
        let mut best_dilation = 1.0;

        for &f in &MemFreq::ALL {
            // SER numerator: relative time × power (denominator constant).
            if let Some((d_max, _, score)) = self.score(profile, f) {
                if score < best_score {
                    best_score = score;
                    best = f;
                    best_dilation = d_max;
                }
            }
        }
        self.predicted_dilation = Some(best_dilation);
        best
    }

    /// End-of-epoch slack update (§3.2 stage 4): from the epoch's measured
    /// counters, estimate what the epoch's work would have taken at maximum
    /// frequency and roll the difference into each application's slack.
    ///
    /// Hardened path: the measured profile runs through the same
    /// plausibility check as the decision profile. A discarded read skips
    /// the slack update entirely (a poisoned measurement must not corrupt
    /// the slack account). A `QoS` guard then compares the epoch's measured
    /// mean dilation against the prediction the decision was based on; two
    /// consecutive divergent epochs force `f_max` with hysteresis.
    pub fn end_epoch(&mut self, measured: &EpochProfile) {
        self.ensure_slack(measured.apps.len());
        let substitute: Option<EpochProfile> = match self.sanitize_profile(measured) {
            ProfileVerdict::Clean => None,
            ProfileVerdict::Clamped(p) => {
                self.health.clamped_profiles += 1;
                Some(*p)
            }
            ProfileVerdict::Discarded => {
                self.health.discarded_profiles += 1;
                self.predicted_dilation = None;
                return;
            }
        };
        let measured = substitute.as_ref().unwrap_or(measured);
        // Record the queue factors observed at this operating point for the
        // interpolation refinement.
        if measured.mc.btc > 0 {
            self.xi_observed[measured.freq.index()] = Some((
                1.0 + measured.mc.bank_queue_avg(),
                1.0 + measured.mc.channel_queue_avg(),
            ));
        }
        let mut dil_sum = 0.0;
        let mut dil_count = 0usize;
        for app in 0..measured.apps.len() {
            let Some(cpi_actual) = measured.measured_cpi(app, self.perf.cpu_hz()) else {
                continue;
            };
            let Some(cpi_max) = self.perf.predict_cpi(measured, app, MemFreq::MAX) else {
                continue;
            };
            let t_max = measured.window.as_secs_f64() * (cpi_max / cpi_actual).min(1.0);
            self.slack.update(app, t_max, measured.window);
            dil_sum += (cpi_actual / cpi_max).max(1.0);
            dil_count += 1;
        }
        // QoS guard: measured slack consumption diverging from the decision's
        // prediction means the model (or the hardware underneath it) is lying
        // — stop trusting it and recover at f_max until the divergence clears.
        if let Some(predicted) = self.predicted_dilation.take() {
            if dil_count > 0 {
                let actual = dil_sum / dil_count as f64;
                if actual - predicted > QOS_DIVERGENCE {
                    self.qos_strikes += 1;
                    if self.qos_strikes >= QOS_STRIKES {
                        self.qos_strikes = 0;
                        self.force_max = self.force_max.max(QOS_FORCE_EPOCHS);
                        self.health.qos_interventions += 1;
                    }
                } else {
                    self.qos_strikes = 0;
                }
            }
        }
        if !self.cfg.slack_carry {
            self.slack.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppSample;
    use memscale_mc::McCounters;
    use memscale_power::ActivitySummary;

    fn governor(objective: EnergyObjective) -> MemScaleGovernor {
        let mut g = MemScaleGovernor::new(
            &SystemConfig::default(),
            GovernorConfig {
                objective,
                ..GovernorConfig::default()
            },
        );
        g.set_rest_of_system_w(60.0);
        g
    }

    fn ilp_profile() -> EpochProfile {
        // 0.2 misses per kilo-instruction; almost no queueing.
        EpochProfile {
            window: Picos::from_us(300),
            freq: MemFreq::F800,
            apps: vec![
                AppSample {
                    tic: 1_000_000,
                    tlm: 200
                };
                16
            ],
            mc: McCounters {
                btc: 3_200,
                bto: 100,
                ctc: 3_200,
                cto: 200,
                cbmc: 3_200,
                ..McCounters::new()
            },
            activity: ActivitySummary {
                window: Picos::from_us(300),
                act_rate_hz: 1e6,
                read_burst_frac: 0.005,
                write_burst_frac: 0.0005,
                active_frac: 0.02,
                pd_frac: 0.0,
                deep_pd_frac: 0.0,
                bus_util: 0.02,
            },
        }
    }

    fn mem_profile() -> EpochProfile {
        // ~17 RPKI, heavy queueing, high utilization.
        EpochProfile {
            window: Picos::from_us(300),
            freq: MemFreq::F800,
            apps: vec![
                AppSample {
                    tic: 60_000,
                    tlm: 1_020
                };
                16
            ],
            mc: McCounters {
                btc: 16_320,
                bto: 20_000,
                ctc: 16_320,
                cto: 30_000,
                cbmc: 16_000,
                rbhc: 320,
                ..McCounters::new()
            },
            activity: ActivitySummary {
                window: Picos::from_us(300),
                act_rate_hz: 5.4e7,
                read_burst_frac: 0.08,
                write_burst_frac: 0.01,
                active_frac: 0.5,
                pd_frac: 0.0,
                deep_pd_frac: 0.0,
                bus_util: 0.68,
            },
        }
    }

    #[test]
    fn ladder_fsm_matches_implementation() {
        // A failed (slower-than-requested) switch forces f_max from any
        // state, exactly as the table's switch-fell-short rows say.
        let mut g = governor(EnergyObjective::FullSystem);
        assert_eq!(g.ladder_state(), GOVERNOR_LADDER_FSM.initial);
        g.note_switch_result(MemFreq::F800, MemFreq::F200);
        assert_eq!(g.ladder_state(), "forced-max");
        let row = GOVERNOR_LADDER_FSM
            .transitions
            .iter()
            .find(|t| t.from == "trusting" && t.event == "switch-fell-short")
            .expect("row");
        assert_eq!(row.to, "forced-max");
        // Serving the owed forced epoch returns to trusting (force-elapsed).
        let f = g.decide(&mem_profile());
        assert_eq!(f, MemFreq::MAX);
        assert_eq!(g.ladder_state(), "trusting");

        // Two consecutive QoS strikes escalate trusting -> strike-armed ->
        // forced-max, mirroring the qos-diverged rows.
        let mut g = governor(EnergyObjective::FullSystem);
        let p = ilp_profile();
        // A measured epoch far slower than the ILP-based prediction:
        // memory-bound counters observed at the lowest grid point.
        let mut measured = mem_profile();
        measured.freq = MemFreq::F200;
        for expected in ["strike-armed", "forced-max"] {
            g.decide(&p);
            g.end_epoch(&measured);
            assert_eq!(g.ladder_state(), expected);
        }
    }

    #[test]
    fn ilp_workload_drops_to_minimum_frequency() {
        let mut g = governor(EnergyObjective::FullSystem);
        let f = g.decide(&ilp_profile());
        assert!(
            f <= MemFreq::F333,
            "compute-bound mix should scale deep, got {f}"
        );
    }

    #[test]
    fn mem_workload_stays_fast() {
        let mut g = governor(EnergyObjective::FullSystem);
        let f = g.decide(&mem_profile());
        assert!(
            f >= MemFreq::F467,
            "memory-bound mix should stay fast, got {f}"
        );
    }

    #[test]
    fn memory_only_objective_scales_at_least_as_deep() {
        let mut gs = governor(EnergyObjective::FullSystem);
        let mut gm = governor(EnergyObjective::MemoryOnly);
        let p = mem_profile();
        assert!(gm.decide(&p) <= gs.decide(&p));
    }

    #[test]
    fn negative_slack_forces_recovery() {
        let mut g = governor(EnergyObjective::FullSystem);
        let p = ilp_profile();
        g.decide(&p); // size the tracker
                      // Simulate epochs that badly overshot: massive negative slack.
        for app in 0..16 {
            g.slack.update(app, 1e-3, Picos::from_ms(5));
        }
        let f = g.decide(&p);
        assert_eq!(f, MemFreq::MAX, "governor must recover lost slack");
    }

    #[test]
    fn end_epoch_banks_slack_when_running_at_max() {
        let mut g = governor(EnergyObjective::FullSystem);
        let p = ilp_profile();
        g.decide(&p);
        g.end_epoch(&p);
        // Running at max frequency accrues ~gamma x epoch of slack.
        let s = g.slack().slack_secs(0);
        assert!(s > 0.0, "expected positive slack, got {s}");
    }

    #[test]
    fn slack_reset_ablation() {
        let mut g = MemScaleGovernor::new(
            &SystemConfig::default(),
            GovernorConfig {
                slack_carry: false,
                ..GovernorConfig::default()
            },
        );
        let p = ilp_profile();
        g.decide(&p);
        g.end_epoch(&p);
        assert_eq!(g.slack().slack_secs(0), 0.0);
    }

    #[test]
    fn queue_interpolation_uses_observed_history() {
        let mut g = MemScaleGovernor::new(
            &SystemConfig::default(),
            GovernorConfig {
                queue_interpolation: true,
                ..GovernorConfig::default()
            },
        );
        g.set_rest_of_system_w(60.0);
        // Teach the governor two observations: light queues at 800 MHz,
        // heavy queues at 400 MHz.
        let mut at800 = mem_profile();
        at800.freq = MemFreq::F800;
        g.decide(&at800);
        g.end_epoch(&at800);
        let mut at400 = mem_profile();
        at400.freq = MemFreq::F400;
        at400.mc.bto *= 3;
        at400.mc.cto *= 3;
        g.end_epoch(&at400);
        // Interpolation must now produce finite, >= 1 factors between them.
        let xi = g.interpolated_xi(MemFreq::F600).expect("two points");
        let lo = 1.0 + at800.mc.bank_queue_avg();
        let hi = 1.0 + at400.mc.bank_queue_avg();
        assert!(
            xi.0 >= lo.min(hi) - 1e-9 && xi.0 <= lo.max(hi) + 1e-9,
            "{xi:?}"
        );
        // And decide() still returns a safe choice.
        let f = g.decide(&at800);
        assert!(f >= MemFreq::F200);
    }

    #[test]
    fn queue_interpolation_off_by_default() {
        let mut g = governor(EnergyObjective::FullSystem);
        let p = mem_profile();
        g.end_epoch(&p);
        assert!(g.interpolated_xi(MemFreq::F400).is_none());
    }

    #[test]
    fn clean_profile_passes_sanitizer_untouched() {
        let g = governor(EnergyObjective::FullSystem);
        assert_eq!(g.sanitize_profile(&ilp_profile()), ProfileVerdict::Clean);
        assert_eq!(g.sanitize_profile(&mem_profile()), ProfileVerdict::Clean);
    }

    #[test]
    fn dropped_counters_are_discarded_and_fall_back_to_last_good() {
        let mut g = governor(EnergyObjective::FullSystem);
        let clean = ilp_profile();
        let chosen = g.decide(&clean); // establishes last-good
        let mut dropped = clean.clone();
        for app in &mut dropped.apps {
            *app = AppSample::default();
        }
        dropped.mc = McCounters::new();
        assert_eq!(g.sanitize_profile(&dropped), ProfileVerdict::Discarded);
        // The decision from the poisoned read matches the last-good one.
        assert_eq!(g.decide(&dropped), chosen);
        assert_eq!(g.health().discarded_profiles, 1);
    }

    #[test]
    fn discard_without_last_good_forces_max() {
        let mut g = governor(EnergyObjective::FullSystem);
        let mut poisoned = ilp_profile();
        for app in &mut poisoned.apps {
            app.tic = app.tic.saturating_mul(1 << 14); // overflowing TIC
            app.tlm = app.tlm.saturating_mul(1 << 14);
        }
        assert_eq!(g.sanitize_profile(&poisoned), ProfileVerdict::Discarded);
        assert_eq!(g.decide(&poisoned), MemFreq::MAX);
        assert_eq!(g.health().discarded_profiles, 1);
    }

    #[test]
    fn implausible_queue_counters_are_clamped() {
        let g = governor(EnergyObjective::FullSystem);
        let mut p = mem_profile();
        p.mc.bto = p.mc.bto.saturating_mul(1 << 14);
        match g.sanitize_profile(&p) {
            ProfileVerdict::Clamped(fixed) => {
                assert_eq!(fixed.mc.bto, fixed.mc.btc);
                assert_eq!(fixed.mc.cto, fixed.mc.ctc);
                assert_eq!(fixed.apps, p.apps, "apps untouched");
            }
            v => panic!("expected clamp, got {v:?}"),
        }
    }

    #[test]
    fn tlm_beyond_tic_is_clamped() {
        let g = governor(EnergyObjective::FullSystem);
        let mut p = ilp_profile();
        p.apps[3].tlm = p.apps[3].tic + 17;
        match g.sanitize_profile(&p) {
            ProfileVerdict::Clamped(fixed) => {
                assert_eq!(fixed.apps[3].tlm, fixed.apps[3].tic);
                assert_eq!(fixed.apps[0], p.apps[0]);
            }
            v => panic!("expected clamp, got {v:?}"),
        }
    }

    #[test]
    fn failed_downswitch_is_benign_failed_upswitch_forces_max() {
        let mut g = governor(EnergyObjective::FullSystem);
        let p = ilp_profile();
        // Wanted slower, stuck fast: no QoS risk, next decision is normal.
        let f = g.decide(&p);
        g.note_switch_result(f, MemFreq::MAX);
        assert_eq!(g.health().failed_switches, 1);
        assert_eq!(g.decide(&p), f);
        // Wanted faster, stuck slow: forced f_max retry next epoch.
        g.note_switch_result(MemFreq::MAX, MemFreq::F200);
        assert_eq!(g.decide(&p), MemFreq::MAX);
        assert_eq!(g.health().forced_max_epochs, 1);
        // One-shot: the epoch after resumes normal selection.
        assert_eq!(g.decide(&p), f);
    }

    #[test]
    fn qos_guard_needs_two_consecutive_divergent_epochs() {
        let mut g = governor(EnergyObjective::FullSystem);
        let p = ilp_profile();
        // A measured epoch whose actual CPI vastly exceeds the at-f_max
        // prediction: memory-bound counters observed at the lowest grid
        // point, so measured dilation diverges from the ~1.0 the ILP-based
        // decision predicted.
        let mut slow = mem_profile();
        slow.freq = MemFreq::F200;
        g.decide(&p);
        g.end_epoch(&slow); // strike 1
        assert_eq!(g.health().qos_interventions, 0);
        g.decide(&p);
        g.end_epoch(&slow); // strike 2 -> intervention
        assert_eq!(g.health().qos_interventions, 1);
        assert_eq!(g.decide(&p), MemFreq::MAX, "guard forces f_max");
        // A clean epoch in between resets the strike counter.
        let mut g = governor(EnergyObjective::FullSystem);
        g.decide(&p);
        g.end_epoch(&slow); // strike 1
        g.decide(&p);
        g.end_epoch(&p); // on-prediction epoch clears it
        g.decide(&p);
        g.end_epoch(&slow); // strike 1 again, no intervention
        assert_eq!(g.health().qos_interventions, 0);
    }

    #[test]
    fn poisoned_measurement_does_not_corrupt_slack() {
        let mut g = governor(EnergyObjective::FullSystem);
        let p = ilp_profile();
        g.decide(&p);
        g.end_epoch(&p);
        let banked = g.slack().slack_secs(0);
        let mut poisoned = p.clone();
        for app in &mut poisoned.apps {
            app.tic = 0;
        }
        g.end_epoch(&poisoned);
        assert_eq!(g.slack().slack_secs(0), banked, "slack must be untouched");
        assert_eq!(g.health().discarded_profiles, 1);
    }

    #[test]
    fn defaults_match_paper() {
        let c = GovernorConfig::default();
        assert_eq!(c.gamma, 0.10);
        assert_eq!(c.epoch, Picos::from_ms(5));
        assert_eq!(c.profile_len, Picos::from_us(300));
        assert!(c.slack_carry);
        assert!(!c.queue_interpolation);
    }
}
