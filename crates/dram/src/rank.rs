//! Rank state: banks, activate-window constraints, refresh and powerdown.
//!
//! A rank is the unit of power management in DDR3 (§1 of the paper): CKE-low
//! powerdown states apply to all chips of the rank at once, and the
//! tRRD/tFAW activate constraints are rank-wide.

use crate::bank::Bank;
use crate::stats::RankStats;
use crate::timing::TimingSet;
use memscale_types::events::{CmdEvent, CmdKind};
use memscale_types::ids::{BankId, ChannelId, RankId};
use memscale_types::invariants::{FsmFeature, FsmSpec, FsmTransition, TimingParam};
use memscale_types::time::Picos;
use std::collections::VecDeque;

/// Which low-power state a rank is put into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerDownMode {
    /// Fast-exit precharge powerdown (exit costs tXP ≈ 6 ns).
    Fast,
    /// Slow-exit precharge powerdown (exit costs tXPDLL ≈ 24 ns).
    Slow,
    /// Deep power-down (LPDDR generations only): background power collapses
    /// to the `i_dpd` floor, but exit costs `t_xdpd` ≫ tXPDLL.
    Deep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PowerState {
    Up,
    Down(PowerDownMode),
}

/// The rank power-state machine as a declarative transition table.
///
/// This is the executable [`Rank`] machine lifted into data so the
/// `memscale-check` model checker can enumerate it: determinism, full
/// reachability, no sink states, and a timed exit (whose latency parameter
/// must exist in the generation's table) for every low-power state. Unit
/// tests below pin the table to the implementation.
///
/// Conventions mirrored from the implementation:
///
/// * `(state, event)` pairs without a row are refusals — e.g. powerdown
///   entry from a powered-down rank asserts in [`Rank::enter_power_down`].
/// * `refresh-due` self-loops in powerdown states because refresh
///   bookkeeping continues while CKE is low (a documented model
///   approximation, see the audit crate's module docs).
/// * `relock` exits through the re-lock penalty window
///   ([`TimingParam::RelockCycles`] plus the fixed extra), which subsumes
///   the mode's own exit latency.
pub const RANK_POWER_FSM: FsmSpec = FsmSpec {
    name: "rank-power",
    states: &["up", "fast-pd", "slow-pd", "deep-pd"],
    events: &[
        "access",
        "enter-fast",
        "enter-slow",
        "enter-deep",
        "relock",
        "refresh-due",
    ],
    initial: "up",
    operational: "up",
    low_power: &["fast-pd", "slow-pd", "deep-pd"],
    state_requires: &[("deep-pd", FsmFeature::DeepPowerDown)],
    transitions: &[
        FsmTransition {
            from: "up",
            event: "access",
            to: "up",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "up",
            event: "refresh-due",
            to: "up",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "up",
            event: "relock",
            to: "up",
            exit_param: Some(TimingParam::RelockCycles),
            requires: None,
        },
        FsmTransition {
            from: "up",
            event: "enter-fast",
            to: "fast-pd",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "up",
            event: "enter-slow",
            to: "slow-pd",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "up",
            event: "enter-deep",
            to: "deep-pd",
            exit_param: None,
            requires: Some(FsmFeature::DeepPowerDown),
        },
        FsmTransition {
            from: "fast-pd",
            event: "access",
            to: "up",
            exit_param: Some(TimingParam::TXp),
            requires: None,
        },
        FsmTransition {
            from: "fast-pd",
            event: "relock",
            to: "up",
            exit_param: Some(TimingParam::RelockCycles),
            requires: None,
        },
        FsmTransition {
            from: "fast-pd",
            event: "refresh-due",
            to: "fast-pd",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "slow-pd",
            event: "access",
            to: "up",
            exit_param: Some(TimingParam::TXpdll),
            requires: None,
        },
        FsmTransition {
            from: "slow-pd",
            event: "relock",
            to: "up",
            exit_param: Some(TimingParam::RelockCycles),
            requires: None,
        },
        FsmTransition {
            from: "slow-pd",
            event: "refresh-due",
            to: "slow-pd",
            exit_param: None,
            requires: None,
        },
        FsmTransition {
            from: "deep-pd",
            event: "access",
            to: "up",
            exit_param: Some(TimingParam::TXdpd),
            requires: Some(FsmFeature::DeepPowerDown),
        },
        FsmTransition {
            from: "deep-pd",
            event: "relock",
            to: "up",
            exit_param: Some(TimingParam::RelockCycles),
            requires: Some(FsmFeature::DeepPowerDown),
        },
        FsmTransition {
            from: "deep-pd",
            event: "refresh-due",
            to: "deep-pd",
            exit_param: None,
            requires: Some(FsmFeature::DeepPowerDown),
        },
    ],
};

impl PowerDownMode {
    /// The [`RANK_POWER_FSM`] state this mode occupies.
    pub const fn fsm_state(self) -> &'static str {
        match self {
            PowerDownMode::Fast => "fast-pd",
            PowerDownMode::Slow => "slow-pd",
            PowerDownMode::Deep => "deep-pd",
        }
    }
}

/// Maximum refresh commands a rank catches up with in one burst; DDR3
/// permits postponing at most eight REF commands.
const MAX_PENDING_REFRESH: u64 = 8;

/// One DRAM rank: a set of banks plus rank-wide constraints and state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Issue times of recent ACTs (bounded by 4 for the tFAW window).
    act_window: VecDeque<Picos>,
    last_act: Option<Picos>,
    /// Last ACT per bank group (`tRRD_L`; one slot on bank-group-less
    /// generations, where it coincides with `last_act`).
    last_act_group: Vec<Option<Picos>>,
    /// Last CAS per bank group (`tCCD_L`).
    last_cas_group: Vec<Option<Picos>>,
    /// Next bank a recorded per-bank refresh addresses (round-robin).
    refresh_rr: usize,
    state: PowerState,
    /// When the current powerdown interval started (valid while Down).
    pd_since: Picos,
    /// Next scheduled refresh command.
    next_refresh: Picos,
    /// Rank-wide stall horizon (refresh, relock).
    busy_until: Picos,
    /// Aggressive powerdown policy: the rank is considered to drop into this
    /// mode the instant it goes idle (today's MCs; §4.2.3 Fast-PD/Slow-PD).
    auto_pd: Option<PowerDownMode>,
    /// End of the last known activity (bank busy, burst, refresh, relock);
    /// beyond this point an auto-powerdown rank is CKE-low.
    activity_horizon: Picos,
    /// Time up to which auto-powerdown residency has been accounted.
    pd_accounted_until: Picos,
    /// Armed fault-injection spike: extra latency the next powerdown exit
    /// pays on top of tXP/tXPDLL/tXDPD (consumed one-shot).
    pd_exit_extra: Picos,
    /// Powerdown exits that consumed an armed latency spike.
    spiked_exits: u64,
    stats: RankStats,
    /// Recorded command events; channel/rank ids are placeholders re-tagged
    /// by the owning channel and controller.
    events: Vec<CmdEvent>,
    /// Whether events are currently being recorded.
    recording: bool,
    /// End of the last REF issued. Bulk-accounted arrears issue back to
    /// back and can end past `busy_until`; tracked whether or not events
    /// are recorded, so recording never moves a relock.
    last_ref_end: Picos,
}

impl Rank {
    /// Creates a powered-up rank of `banks` closed banks spread over
    /// `groups` bank groups (1 on generations without bank groups), whose
    /// first refresh is due at `first_refresh` (staggered across ranks by
    /// the channel).
    pub fn new(banks: usize, groups: usize, first_refresh: Picos) -> Self {
        let groups = groups.max(1);
        Rank {
            banks: vec![Bank::new(); banks],
            act_window: VecDeque::with_capacity(4),
            last_act: None,
            last_act_group: vec![None; groups],
            last_cas_group: vec![None; groups],
            refresh_rr: 0,
            state: PowerState::Up,
            pd_since: Picos::ZERO,
            next_refresh: first_refresh,
            busy_until: Picos::ZERO,
            auto_pd: None,
            activity_horizon: Picos::ZERO,
            pd_accounted_until: Picos::ZERO,
            pd_exit_extra: Picos::ZERO,
            spiked_exits: 0,
            stats: RankStats::new(),
            events: Vec::new(),
            recording: false,
            last_ref_end: Picos::ZERO,
        }
    }

    /// Starts or stops recording command events for the protocol auditor.
    pub fn set_event_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Moves the recorded events dated strictly below `watermark` to `out`,
    /// in recording order. Rank ids are left at `RankId(0)` for the owning
    /// channel to re-tag.
    pub fn drain_events_below(&mut self, watermark: Picos, out: &mut Vec<CmdEvent>) {
        crate::drain_below(&mut self.events, watermark, out);
    }

    /// Recorded events not yet drained.
    #[inline]
    pub fn held_events(&self) -> usize {
        self.events.len()
    }

    /// A lower bound on the dates of the events this rank can still record
    /// behind the caller's clock: REF arrears replay from the next
    /// scheduled refresh, and an auto-powerdown entry is synthesized at the
    /// activity horizon. Both only move forward.
    pub fn event_floor(&self) -> Picos {
        match self.auto_pd {
            Some(_) => self.next_refresh.min(self.activity_horizon),
            None => self.next_refresh,
        }
    }

    /// Records one command event (no-op unless recording). `bank` is set for
    /// per-bank refreshes; rank-wide commands leave it `None`.
    fn emit(&mut self, at: Picos, bank: Option<BankId>, kind: CmdKind) {
        if self.recording {
            self.events.push(CmdEvent {
                at,
                channel: ChannelId(0),
                rank: RankId(0),
                bank,
                kind,
            });
        }
    }

    /// Enables or disables the aggressive idle-powerdown policy: with a mode
    /// set, the rank enters that powerdown state the instant all its banks
    /// are precharged and idle, and pays the exit latency on the next
    /// access.
    pub fn set_auto_power_down(&mut self, mode: Option<PowerDownMode>) {
        self.auto_pd = mode;
    }

    /// Extends the known-activity horizon (the channel calls this for every
    /// access, refresh and relock it schedules on this rank).
    pub fn note_activity(&mut self, until: Picos) {
        self.activity_horizon = self.activity_horizon.max(until);
    }

    /// Accounts auto-powerdown residency in `[horizon, now)` and reports
    /// whether the rank had actually dropped into powerdown.
    fn settle_auto_pd(&mut self, now: Picos) -> bool {
        let Some(mode) = self.auto_pd else {
            return false;
        };
        if !matches!(self.state, PowerState::Up) {
            return false;
        }
        let was_down = self.activity_horizon < now;
        let start = self.activity_horizon.max(self.pd_accounted_until);
        if start < now {
            let dur = now - start;
            self.accrue_pd(mode, dur);
            self.pd_accounted_until = now;
        }
        was_down
    }

    /// Adds powerdown residency to the mode's accumulator.
    fn accrue_pd(&mut self, mode: PowerDownMode, dur: Picos) {
        match mode {
            PowerDownMode::Fast => self.stats.fast_pd_time += dur,
            PowerDownMode::Slow => self.stats.slow_pd_time += dur,
            PowerDownMode::Deep => self.stats.deep_pd_time += dur,
        }
    }

    /// The exit latency of `mode` at the current timing.
    fn exit_latency(mode: PowerDownMode, t: &TimingSet) -> Picos {
        match mode {
            PowerDownMode::Fast => t.t_xp,
            PowerDownMode::Slow => t.t_xpdll,
            PowerDownMode::Deep => t.t_xdpd,
        }
    }

    /// Fault-injection hook: arms a one-shot latency spike the next
    /// powerdown exit pays on top of its tXP/tXPDLL/tXDPD budget. The spike
    /// extends the exit's `ready` horizon (and the recorded exit event), so
    /// the overrun stays visible to the protocol auditor without violating
    /// its lower-bound exit rule.
    pub fn arm_pd_exit_spike(&mut self, extra: Picos) {
        self.pd_exit_extra = extra;
    }

    /// Powerdown exits that consumed an armed latency spike so far.
    #[inline]
    pub fn spiked_pd_exits(&self) -> u64 {
        self.spiked_exits
    }

    /// Consumes the armed exit spike, if any (one-shot).
    fn take_pd_exit_spike(&mut self) -> Picos {
        let extra = self.pd_exit_extra;
        if extra > Picos::ZERO {
            self.pd_exit_extra = Picos::ZERO;
            self.spiked_exits += 1;
        }
        extra
    }

    /// Fault-injection hook: slips the next scheduled REF later by `by` (a
    /// late REF; for a dropped REF the caller passes one full interval so
    /// the command is skipped without catch-up accounting). The slip only
    /// lands while the rank is fully caught up — never while REFs are
    /// already in arrears — so the postponement window the audit rule packs
    /// enforce cannot be breached. Returns whether the fault landed.
    pub fn delay_refresh(&mut self, by: Picos, now: Picos) -> bool {
        if self.next_refresh <= now {
            return false;
        }
        self.next_refresh += by;
        true
    }

    /// Shared view of a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank.index()]
    }

    /// Mutable view of a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn bank_mut(&mut self, bank: BankId) -> &mut Bank {
        &mut self.banks[bank.index()]
    }

    /// Number of banks in this rank.
    #[inline]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Rank-wide stall horizon.
    #[inline]
    pub fn busy_until(&self) -> Picos {
        self.busy_until
    }

    /// Horizon past every settled refresh: the stall horizon, extended to
    /// the end of the last issued REF (bulk-accounted arrears can run
    /// slightly past `busy_until`). A frequency re-lock must not begin
    /// before this point, or a REF would land in its window.
    #[inline]
    pub fn refresh_horizon(&self) -> Picos {
        self.busy_until.max(self.last_ref_end)
    }

    /// The rank's cumulative statistics.
    #[inline]
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Mutable statistics access (the channel records per-access activity).
    #[inline]
    pub(crate) fn stats_mut(&mut self) -> &mut RankStats {
        &mut self.stats
    }

    /// Whether the rank is currently in a powerdown state.
    #[inline]
    pub fn is_powered_down(&self) -> bool {
        matches!(self.state, PowerState::Down(_))
    }

    /// Earliest time an ACT to bank group `group` may issue given a
    /// `candidate` time and the rank's tRRD / `tRRD_L` / tFAW history.
    pub fn earliest_act(&self, group: usize, candidate: Picos, t: &TimingSet) -> Picos {
        let mut at = candidate;
        if let Some(last) = self.last_act {
            at = at.max(last + t.t_rrd);
        }
        if let Some(last) = self.last_act_group[group % self.last_act_group.len()] {
            at = at.max(last + t.t_rrd_l);
        }
        if self.act_window.len() == 4 {
            at = at.max(self.act_window[0] + t.t_faw);
        }
        at
    }

    /// Records an ACT to bank group `group` at `at` in the rank-wide
    /// history.
    pub fn record_act(&mut self, group: usize, at: Picos) {
        self.last_act = Some(at);
        let slot = group % self.last_act_group.len();
        self.last_act_group[slot] = Some(at);
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(at);
        self.stats.act_count += 1;
    }

    /// Earliest time a CAS to bank group `group` may issue given a
    /// `candidate` time and the same-group `tCCD_L` history. On generations
    /// without bank groups `t_ccd_l` equals the burst, which data-bus
    /// serialization already guarantees.
    pub fn earliest_cas(&self, group: usize, candidate: Picos, t: &TimingSet) -> Picos {
        match self.last_cas_group[group % self.last_cas_group.len()] {
            Some(last) => candidate.max(last + t.t_ccd_l),
            None => candidate,
        }
    }

    /// Records a CAS to bank group `group` at `at`.
    pub fn record_cas(&mut self, group: usize, at: Picos) {
        let slot = group % self.last_cas_group.len();
        self.last_cas_group[slot] = Some(at);
    }

    /// The effective refresh interval and command duration: all-bank
    /// tREFI/tRFC, or — under LPDDR per-bank refresh — tREFI divided across
    /// the banks with the shorter per-bank tRFCpb.
    fn refresh_params(&self, t: &TimingSet) -> (Picos, Picos) {
        if t.per_bank_refresh {
            let interval = t.t_refi.scale(1.0 / self.banks.len() as f64);
            (interval, t.t_rfc_pb)
        } else {
            (t.t_refi, t.t_rfc)
        }
    }

    /// The bank the next per-bank refresh addresses (round-robin), or `None`
    /// for an all-bank refresh.
    fn next_refresh_bank(&mut self, t: &TimingSet) -> Option<BankId> {
        if t.per_bank_refresh {
            let bank = BankId(self.refresh_rr);
            self.refresh_rr = (self.refresh_rr + 1) % self.banks.len();
            Some(bank)
        } else {
            None
        }
    }

    /// Processes refreshes that became due at or before `now`, stalling the
    /// rank for tRFC per command (up to the DDR3 postponing limit of eight;
    /// further arrears are dropped, as their energy is modeled analytically
    /// from wall time by the power crate). Under LPDDR per-bank refresh the
    /// same schedule runs at `tREFI / banks` with the shorter `tRFCpb` per
    /// command, rotating through the banks.
    pub fn catch_up_refresh(&mut self, now: Picos, t: &TimingSet) {
        if self.next_refresh > now {
            return;
        }
        let (t_refi, t_rfc) = self.refresh_params(t);
        // Refreshes that became due while the rank sat idle completed in the
        // background at their scheduled times; bulk-account truly ancient
        // arrears without touching the stall horizon.
        let refi = t_refi.as_ps().max(1);
        let behind = (now - self.next_refresh).as_ps() / refi;
        if behind > 2 * MAX_PENDING_REFRESH {
            let skip = behind - MAX_PENDING_REFRESH;
            self.stats.refresh_count += skip;
            self.stats.refresh_time += t_rfc * skip;
            let mut sched = self.next_refresh;
            for _ in 0..skip {
                self.issue_refresh(sched.max(self.busy_until), t_rfc, t);
                sched += t_refi;
            }
            self.next_refresh += Picos::from_ps(skip * refi);
        }
        // Remaining commands run back-to-back from their due times; only a
        // refresh still in flight at `now` stalls the arriving request.
        while self.next_refresh <= now {
            let start = self.next_refresh.max(self.busy_until);
            let end = start + t_rfc;
            self.issue_refresh(start, t_rfc, t);
            self.busy_until = self.busy_until.max(end);
            self.stats.refresh_count += 1;
            self.stats.refresh_time += t_rfc;
            self.next_refresh += t_refi;
        }
        self.note_activity(self.busy_until);
    }

    /// Issues one REF of `t_rfc` at `due`, or once the previous REF ends,
    /// and records it.
    fn issue_refresh(&mut self, due: Picos, t_rfc: Picos, t: &TimingSet) {
        let at = due.max(self.last_ref_end);
        let bank = self.next_refresh_bank(t);
        self.emit(at, bank, CmdKind::Refresh { end: at + t_rfc });
        self.last_ref_end = at + t_rfc;
    }

    /// The event recorded when `mode` is entered.
    fn enter_event(mode: PowerDownMode) -> CmdKind {
        match mode {
            PowerDownMode::Deep => CmdKind::DeepPowerDownEnter,
            _ => CmdKind::PowerDownEnter {
                fast: matches!(mode, PowerDownMode::Fast),
            },
        }
    }

    /// The event recorded when `mode` is exited.
    fn exit_event(mode: PowerDownMode, entered_at: Picos, ready: Picos) -> CmdKind {
        match mode {
            PowerDownMode::Deep => CmdKind::DeepPowerDownExit { entered_at, ready },
            _ => CmdKind::PowerDownExit {
                fast: matches!(mode, PowerDownMode::Fast),
                entered_at,
                ready,
            },
        }
    }

    /// Counts one exit from `mode` (EPDC, or EDPC for deep power-down).
    fn count_exit(&mut self, mode: PowerDownMode) {
        if matches!(mode, PowerDownMode::Deep) {
            self.stats.deep_pd_exits += 1;
        } else {
            self.stats.pd_exits += 1;
        }
    }

    /// Makes sure the rank is out of powerdown, returning the time at which
    /// it can accept a command and which low-power mode (if any) was exited
    /// (explicit powerdown state *or* the auto-powerdown policy).
    pub fn ensure_awake(&mut self, now: Picos, t: &TimingSet) -> (Picos, Option<PowerDownMode>) {
        match self.state {
            PowerState::Up => {
                if self.settle_auto_pd(now) {
                    let mode = self.auto_pd.expect("settled implies mode");
                    let exit = Self::exit_latency(mode, t) + self.take_pd_exit_spike();
                    self.count_exit(mode);
                    let ready = now.max(self.busy_until) + exit;
                    // The auto-powerdown entry is synthesized retroactively:
                    // the rank dropped CKE at its last activity horizon.
                    let entered_at = self.activity_horizon;
                    self.emit(entered_at, None, Self::enter_event(mode));
                    self.emit(now, None, Self::exit_event(mode, entered_at, ready));
                    (ready, Some(mode))
                } else {
                    (now.max(self.busy_until), None)
                }
            }
            PowerState::Down(mode) => {
                // A wake at the very instant of entry cancels the entry: CKE
                // never effectively dropped, so no exit latency is owed and
                // the enter event is retracted.
                if self.pd_since == now {
                    self.state = PowerState::Up;
                    if self.recording {
                        if let Some(pos) = self.events.iter().rposition(|e| {
                            e.at == now
                                && matches!(
                                    e.kind,
                                    CmdKind::PowerDownEnter { .. } | CmdKind::DeepPowerDownEnter
                                )
                        }) {
                            self.events.remove(pos);
                        }
                    }
                    return (now.max(self.busy_until), None);
                }
                let exit = Self::exit_latency(mode, t) + self.take_pd_exit_spike();
                let entered_at = self.pd_since;
                self.flush_pd(now);
                self.state = PowerState::Up;
                self.count_exit(mode);
                let ready = now.max(self.busy_until) + exit;
                self.emit(now, None, Self::exit_event(mode, entered_at, ready));
                (ready, Some(mode))
            }
        }
    }

    /// Whether the rank may enter powerdown at `now`: powered up, every bank
    /// precharged and idle, and no rank-wide stall pending.
    pub fn can_power_down(&self, now: Picos) -> bool {
        matches!(self.state, PowerState::Up)
            && self.busy_until <= now
            && self
                .banks
                .iter()
                .all(|b| b.open_row().is_none() && b.free_at() <= now)
    }

    /// Enters powerdown at `now`.
    ///
    /// # Panics
    ///
    /// Panics if [`can_power_down`](Self::can_power_down) is false.
    pub fn enter_power_down(&mut self, mode: PowerDownMode, now: Picos) {
        assert!(self.can_power_down(now), "rank not idle at {now}");
        self.state = PowerState::Down(mode);
        self.pd_since = now;
        self.emit(now, None, Self::enter_event(mode));
    }

    /// Flushes accumulated powerdown residency into the statistics without
    /// changing state. Call at sampling boundaries.
    pub fn sync(&mut self, now: Picos) {
        self.flush_pd(now);
        self.settle_auto_pd(now);
    }

    fn flush_pd(&mut self, now: Picos) {
        if let PowerState::Down(mode) = self.state {
            let dur = now.saturating_sub(self.pd_since);
            self.accrue_pd(mode, dur);
            self.pd_since = now;
        }
    }

    /// Quiesces the rank for a frequency re-lock spanning `[now, ready)`:
    /// exits powerdown bookkeeping, closes all banks, stalls until `ready`,
    /// and accounts the window as fast-exit powerdown residency (the paper
    /// re-locks from precharge powerdown, §3.1).
    pub fn relock(&mut self, now: Picos, ready: Picos) {
        self.flush_pd(now);
        self.settle_auto_pd(now);
        self.state = PowerState::Up;
        for bank in &mut self.banks {
            bank.close();
            bank.stall_until(ready);
        }
        self.busy_until = self.busy_until.max(ready);
        self.stats.fast_pd_time += ready.saturating_sub(now);
        self.note_activity(ready);
        self.pd_accounted_until = self.pd_accounted_until.max(ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memscale_types::config::DramTimingConfig;
    use memscale_types::freq::MemFreq;

    fn timing() -> TimingSet {
        TimingSet::resolve(&DramTimingConfig::default(), MemFreq::F800)
    }

    fn rank() -> Rank {
        Rank::new(8, 1, Picos::from_us(7))
    }

    #[test]
    fn fsm_table_matches_implementation() {
        use memscale_types::config::MemGeneration;
        let cfg = DramTimingConfig::lpddr3();
        let t = TimingSet::resolve(&cfg, MemFreq::F800);
        for (mode, param) in [
            (PowerDownMode::Fast, TimingParam::TXp),
            (PowerDownMode::Slow, TimingParam::TXpdll),
            (PowerDownMode::Deep, TimingParam::TXdpd),
        ] {
            let row = RANK_POWER_FSM
                .transitions
                .iter()
                .find(|tr| tr.from == mode.fsm_state() && tr.event == "access")
                .expect("access exit row");
            assert_eq!(row.to, "up");
            assert_eq!(row.exit_param, Some(param));
            // The executable machine pays exactly that parameter.
            let mut r = rank();
            r.enter_power_down(mode, Picos::from_ns(10));
            let (ready, exited) = r.ensure_awake(Picos::from_ns(100), &t);
            assert_eq!(exited, Some(mode));
            let expected = match param {
                TimingParam::TXp => t.t_xp,
                TimingParam::TXpdll => t.t_xpdll,
                TimingParam::TXdpd => t.t_xdpd,
                _ => unreachable!(),
            };
            assert_eq!(ready, Picos::from_ns(100) + expected);
        }
        // Deep power-down exists only behind the generation gate.
        assert!(RANK_POWER_FSM
            .active_transitions(MemGeneration::Ddr3)
            .all(|tr| tr.from != "deep-pd" && tr.to != "deep-pd"));
        assert!(RANK_POWER_FSM
            .active_transitions(MemGeneration::Lpddr3)
            .any(|tr| tr.to == "deep-pd"));
    }

    #[test]
    fn trrd_spaces_activates() {
        let t = timing();
        let mut r = rank();
        r.record_act(0, Picos::from_ns(100));
        let earliest = r.earliest_act(0, Picos::from_ns(100), &t);
        assert_eq!(earliest, Picos::from_ns(105)); // tRRD = 5 ns
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let t = timing();
        let mut r = rank();
        for i in 0..4 {
            r.record_act(0, Picos::from_ns(i * 5));
        }
        // Fifth ACT must wait until first + tFAW = 0 + 25 ns.
        let earliest = r.earliest_act(0, Picos::from_ns(16), &t);
        assert_eq!(earliest, Picos::from_ns(25));
    }

    #[test]
    fn trrd_l_binds_same_group_only() {
        let t = TimingSet::resolve(&DramTimingConfig::ddr4(), MemFreq::F800);
        let mut r = Rank::new(16, 4, Picos::from_us(7));
        r.record_act(2, Picos::from_ns(100));
        // Same group: tRRD_L = 7.5 ns; other group: plain tRRD = 5 ns.
        assert_eq!(
            r.earliest_act(2, Picos::from_ns(100), &t),
            Picos::from_ps(107_500)
        );
        assert_eq!(
            r.earliest_act(3, Picos::from_ns(100), &t),
            Picos::from_ns(105)
        );
    }

    #[test]
    fn tccd_l_spaces_same_group_cas() {
        let t = TimingSet::resolve(&DramTimingConfig::ddr4(), MemFreq::F800);
        let mut r = Rank::new(16, 4, Picos::from_us(7));
        r.record_cas(1, Picos::from_ns(200));
        // Same group: + tCCD_L (6 × 1.25 ns); other group unconstrained.
        assert_eq!(
            r.earliest_cas(1, Picos::from_ns(200), &t),
            Picos::from_ps(207_500)
        );
        assert_eq!(
            r.earliest_cas(0, Picos::from_ns(200), &t),
            Picos::from_ns(200)
        );
    }

    #[test]
    fn per_bank_refresh_runs_shorter_more_often() {
        let t = TimingSet::resolve(&DramTimingConfig::lpddr3(), MemFreq::F800);
        let mut all = Rank::new(8, 1, Picos::from_us(1));
        let mut ddr3 = Rank::new(8, 1, Picos::from_us(1));
        all.catch_up_refresh(Picos::from_ms(1), &t);
        ddr3.catch_up_refresh(Picos::from_ms(1), &timing());
        // tREFI/8 interval: about 8× the all-bank command count.
        assert!(all.stats().refresh_count > 6 * ddr3.stats().refresh_count);
        // Each command is the short per-bank tRFCpb.
        let per_cmd = all.stats().refresh_time.as_ps() / all.stats().refresh_count;
        assert_eq!(per_cmd, t.t_rfc_pb.as_ps());
    }

    #[test]
    fn deep_powerdown_exit_pays_txdpd() {
        let t = TimingSet::resolve(&DramTimingConfig::lpddr3(), MemFreq::F800);
        let mut r = rank();
        r.enter_power_down(PowerDownMode::Deep, Picos::ZERO);
        assert!(r.is_powered_down());
        let (ready, exited) = r.ensure_awake(Picos::from_us(10), &t);
        assert_eq!(exited, Some(PowerDownMode::Deep));
        assert_eq!(ready, Picos::from_us(10) + Picos::from_ns(500)); // + tXDPD
        assert_eq!(r.stats().deep_pd_time, Picos::from_us(10));
        assert_eq!(r.stats().pd_time(), Picos::ZERO);
        assert_eq!(r.stats().deep_pd_exits, 1);
        assert_eq!(r.stats().pd_exits, 0);
    }

    #[test]
    fn in_flight_refresh_stalls_rank() {
        let t = timing();
        let mut r = Rank::new(8, 1, Picos::from_us(1));
        // Arrive 50 ns after the refresh became due: it is still running.
        r.catch_up_refresh(Picos::from_us(1) + Picos::from_ns(50), &t);
        assert_eq!(r.stats().refresh_count, 1);
        assert_eq!(r.busy_until(), Picos::from_us(1) + t.t_rfc);
    }

    #[test]
    fn completed_background_refresh_does_not_stall() {
        let t = timing();
        let mut r = Rank::new(8, 1, Picos::from_us(1));
        // Arrive long after the refresh finished in the background.
        let now = Picos::from_us(5);
        r.catch_up_refresh(now, &t);
        assert_eq!(r.stats().refresh_count, 1);
        assert!(r.busy_until() < now, "background refresh must not stall");
    }

    #[test]
    fn long_idle_accounts_all_refreshes_without_stalling() {
        let t = timing();
        let mut r = Rank::new(8, 1, Picos::from_us(1));
        // Rank idle for a full millisecond: ~128 refreshes ran in the
        // background; all are counted, none stalls the arriving request.
        r.catch_up_refresh(Picos::from_ms(1), &t);
        let count = r.stats().refresh_count;
        assert!((120..=130).contains(&count), "count {count}");
        assert!(r.busy_until() < Picos::from_ms(1));
        // Idempotent at the same instant.
        r.catch_up_refresh(Picos::from_ms(1), &t);
        assert_eq!(r.stats().refresh_count, count);
    }

    #[test]
    fn powerdown_accounting_and_exit_latency() {
        let t = timing();
        let mut r = rank();
        assert!(r.can_power_down(Picos::from_ns(50)));
        r.enter_power_down(PowerDownMode::Fast, Picos::from_ns(50));
        assert!(r.is_powered_down());
        let (ready, exited) = r.ensure_awake(Picos::from_ns(150), &t);
        assert_eq!(exited, Some(PowerDownMode::Fast));
        assert_eq!(ready, Picos::from_ns(156)); // + tXP
        assert_eq!(r.stats().fast_pd_time, Picos::from_ns(100));
        assert_eq!(r.stats().pd_exits, 1);
        assert!(!r.is_powered_down());
    }

    #[test]
    fn slow_powerdown_has_longer_exit() {
        let t = timing();
        let mut r = rank();
        r.enter_power_down(PowerDownMode::Slow, Picos::ZERO);
        let (ready, _) = r.ensure_awake(Picos::from_ns(100), &t);
        assert_eq!(ready, Picos::from_ns(124)); // + tXPDLL
        assert_eq!(r.stats().slow_pd_time, Picos::from_ns(100));
    }

    #[test]
    fn cannot_power_down_with_open_bank() {
        let mut r = rank();
        r.bank_mut(BankId(0)).record_act(5, Picos::ZERO);
        assert!(!r.can_power_down(Picos::from_ns(100)));
    }

    #[test]
    fn sync_flushes_residency_without_exiting() {
        let mut r = rank();
        r.enter_power_down(PowerDownMode::Fast, Picos::ZERO);
        r.sync(Picos::from_us(1));
        assert_eq!(r.stats().fast_pd_time, Picos::from_us(1));
        assert!(r.is_powered_down());
        r.sync(Picos::from_us(2));
        assert_eq!(r.stats().fast_pd_time, Picos::from_us(2));
    }

    #[test]
    fn relock_counts_as_fast_pd_and_stalls() {
        let mut r = rank();
        r.relock(Picos::from_ns(100), Picos::from_ns(768));
        assert_eq!(r.stats().fast_pd_time, Picos::from_ns(668));
        assert_eq!(r.busy_until(), Picos::from_ns(768));
        assert!(!r.is_powered_down());
    }

    #[test]
    fn pd_exit_spike_is_one_shot_and_extends_ready() {
        let t = timing();
        let mut r = rank();
        r.enter_power_down(PowerDownMode::Fast, Picos::ZERO);
        r.arm_pd_exit_spike(Picos::from_ns(100));
        let (ready, _) = r.ensure_awake(Picos::from_ns(150), &t);
        // tXP (6 ns) + injected 100 ns spike.
        assert_eq!(ready, Picos::from_ns(256));
        assert_eq!(r.spiked_pd_exits(), 1);
        // Spike consumed: the next exit pays only tXP.
        r.enter_power_down(PowerDownMode::Fast, Picos::from_ns(300));
        let (ready, _) = r.ensure_awake(Picos::from_ns(400), &t);
        assert_eq!(ready, Picos::from_ns(406));
        assert_eq!(r.spiked_pd_exits(), 1);
    }

    #[test]
    fn refresh_slip_lands_only_when_caught_up() {
        let t = timing();
        let mut r = Rank::new(8, 1, Picos::from_us(10));
        // Caught up (next REF in the future): the slip lands.
        assert!(r.delay_refresh(Picos::from_ns(500), Picos::from_us(5)));
        r.catch_up_refresh(Picos::from_us(10), &t);
        assert_eq!(r.stats().refresh_count, 0, "slipped REF not yet due");
        r.catch_up_refresh(Picos::from_us(11), &t);
        assert_eq!(r.stats().refresh_count, 1);
        // In arrears (next REF already due): the slip is refused.
        let mut r = Rank::new(8, 1, Picos::from_us(1));
        assert!(!r.delay_refresh(Picos::from_ns(500), Picos::from_us(2)));
    }

    #[test]
    fn awake_rank_respects_busy_until() {
        let t = timing();
        let mut r = rank();
        r.relock(Picos::ZERO, Picos::from_ns(500));
        let (ready, exited) = r.ensure_awake(Picos::from_ns(100), &t);
        assert_eq!(exited, None);
        assert_eq!(ready, Picos::from_ns(500));
    }
}
