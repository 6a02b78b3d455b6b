//! The per-channel access engine.
//!
//! A [`DramChannel`] owns its ranks and the shared data bus, and resolves
//! each dispatched access into an [`AccessTimeline`]. The engine implements
//! the transfer-blocking structure of the paper's queueing model (Fig 4): a
//! request occupies its bank from activate to precharge and cannot complete
//! until the data bus accepts its burst.

use crate::generation::GenerationModel;
use crate::rank::{PowerDownMode, Rank};
use crate::stats::ChannelStats;
use crate::timing::TimingSet;
use memscale_types::config::DramTimingConfig;
use memscale_types::events::{CmdEvent, CmdKind};
use memscale_types::freq::MemFreq;
use memscale_types::ids::{BankId, ChannelId, RankId};
use memscale_types::time::Picos;

/// Whether an access reads a cache line from DRAM or writes one back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// LLC miss fill (demand read).
    Read,
    /// LLC writeback.
    Write,
}

/// How an access met the row buffer (feeds the paper's RBHC/OBMC/CBMC
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// Target row already open — CAS only.
    Hit,
    /// A different row was open — precharge, activate, CAS.
    OpenMiss,
    /// Bank was precharged — activate, CAS (the common closed-page case).
    ClosedMiss,
}

/// The resolved schedule of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTimeline {
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// Whether servicing required a powerdown exit.
    pub pd_exit: bool,
    /// Whether the exit was from deep power-down (LPDDR generations).
    pub deep_pd_exit: bool,
    /// When the ACT command issued (None on a row hit).
    pub act_at: Option<Picos>,
    /// When the column access effectively issued (after bus back-pressure).
    pub cas_at: Picos,
    /// First beat of the data burst on the bus.
    pub data_start: Picos,
    /// Last beat of the data burst; a read's fill reaches the LLC here.
    pub data_end: Picos,
    /// When the bank can begin its next operation.
    pub bank_free_at: Picos,
}

/// One memory channel: ranks, the shared data bus, and the current
/// frequency-resolved timing.
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramTimingConfig,
    timing: TimingSet,
    generation: GenerationModel,
    ranks: Vec<Rank>,
    bus_free_at: Picos,
    stats: ChannelStats,
    /// Armed fault-injection overrun: extra latency the next frequency
    /// re-lock pays on top of its 512-cycle + settle budget (one-shot).
    relock_extra: Picos,
    /// Re-locks that consumed an armed overrun.
    relock_overruns: u64,
    /// Recorded command events; channel ids are placeholders re-tagged by
    /// the controller.
    events: Vec<CmdEvent>,
    /// Whether events are currently being recorded.
    recording: bool,
    /// Future-dated auto-precharge events not yet committed: a same-row
    /// reopen may still cancel them. Slot = rank index × banks + bank index.
    pending_pre: Vec<Option<CmdEvent>>,
}

impl DramChannel {
    /// Creates a channel of `ranks` ranks × `banks` banks at `freq`, with
    /// refresh schedules staggered across ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` or `banks` is zero.
    pub fn new(cfg: &DramTimingConfig, ranks: usize, banks: usize, freq: MemFreq) -> Self {
        assert!(ranks > 0 && banks > 0, "channel needs ranks and banks");
        let timing = TimingSet::resolve(cfg, freq);
        let generation = GenerationModel::from_config(cfg);
        let slots = ranks * banks;
        let ranks = (0..ranks)
            .map(|i| {
                let stagger = Picos::from_ps(timing.t_refi.as_ps() * (i as u64 + 1) / ranks as u64);
                Rank::new(banks, generation.bank_groups(), stagger)
            })
            .collect();
        DramChannel {
            cfg: cfg.clone(),
            timing,
            generation,
            ranks,
            bus_free_at: Picos::ZERO,
            stats: ChannelStats::new(),
            relock_extra: Picos::ZERO,
            relock_overruns: 0,
            events: Vec::new(),
            recording: false,
            pending_pre: vec![None; slots],
        }
    }

    /// Starts or stops recording command events for the protocol auditor on
    /// this channel and all its ranks.
    pub fn set_event_recording(&mut self, on: bool) {
        self.recording = on;
        for rank in &mut self.ranks {
            rank.set_event_recording(on);
        }
    }

    /// The event of a command this channel records. Its channel id is a
    /// placeholder the controller re-tags.
    fn cmd(at: Picos, rank: RankId, bank: Option<BankId>, kind: CmdKind) -> CmdEvent {
        CmdEvent {
            at,
            channel: ChannelId(0),
            rank,
            bank,
            kind,
        }
    }

    /// Commits every still-pending auto-precharge into the event log (their
    /// reopen windows are being abandoned).
    fn commit_pending_pre(&mut self) {
        for slot in &mut self.pending_pre {
            if let Some(e) = slot.take() {
                self.events.push(e);
            }
        }
    }

    /// Drains all recorded events, committing outstanding auto-precharges
    /// and re-tagging rank-level events with their rank id. Channel ids stay
    /// `ChannelId(0)` for the controller to re-tag.
    ///
    /// Drain once, at end of simulation: committing an auto-precharge
    /// forfeits its reopen window in the audit stream, so a later same-row
    /// reopen would disagree with the replay. To stream the audit during a
    /// run, use [`drain_events_below`](Self::drain_events_below).
    pub fn drain_events(&mut self) -> Vec<CmdEvent> {
        self.commit_pending_pre();
        let mut events = Vec::new();
        self.drain_events_below(Picos::MAX, &mut events);
        events
    }

    /// Moves the recorded events dated strictly below `watermark` to `out`
    /// — channel-level events first, then each rank's, every source in
    /// recording order — re-tagging rank-level events with their rank id.
    /// Pending auto-precharges are not drained;
    /// [`event_watermark`](Self::event_watermark) never exceeds them.
    pub fn drain_events_below(&mut self, watermark: Picos, out: &mut Vec<CmdEvent>) {
        crate::drain_below(&mut self.events, watermark, out);
        for (i, rank) in self.ranks.iter_mut().enumerate() {
            let start = out.len();
            rank.drain_events_below(watermark, out);
            for e in &mut out[start..] {
                e.rank = RankId(i);
            }
        }
    }

    /// The audit watermark at `now`: no event this channel records from
    /// here on is dated strictly below it, provided every later call passes
    /// a time at or after `now`. ACT, CAS, explicit PRE, powerdown exits
    /// and frequency switches are dated at or after their call's time; the
    /// exceptions are bounded by each rank's
    /// [`event_floor`](Rank::event_floor) and by the pending
    /// auto-precharges.
    pub fn event_watermark(&self, now: Picos) -> Picos {
        let pending = self.pending_pre.iter().flatten().map(|e| e.at);
        let ranks = self.ranks.iter().map(Rank::event_floor);
        pending.chain(ranks).fold(now, Picos::min)
    }

    /// Recorded events not yet drained (pending auto-precharges excluded).
    pub fn held_events(&self) -> usize {
        self.events.len() + self.ranks.iter().map(Rank::held_events).sum::<usize>()
    }

    /// Current operating point.
    #[inline]
    pub fn frequency(&self) -> MemFreq {
        self.timing.freq
    }

    /// The generation model (bank groups, available low-power states) in
    /// effect on this channel.
    #[inline]
    pub fn generation(&self) -> &GenerationModel {
        &self.generation
    }

    /// Current frequency-resolved timing.
    #[inline]
    pub fn timing(&self) -> &TimingSet {
        &self.timing
    }

    /// Cumulative channel statistics.
    #[inline]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Cumulative statistics of one rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn rank_stats(&self, rank: RankId) -> &crate::stats::RankStats {
        self.ranks[rank.index()].stats()
    }

    /// Number of ranks on the channel.
    #[inline]
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Earliest time the data bus is free.
    #[inline]
    pub fn bus_free_at(&self) -> Picos {
        self.bus_free_at
    }

    /// Earliest time `bank` on `rank` can begin a new operation, ignoring
    /// powerdown/refresh (used by the controller's dispatch heuristics).
    #[inline]
    pub fn bank_free_at(&self, rank: RankId, bank: BankId) -> Picos {
        self.ranks[rank.index()]
            .bank(bank.index().into())
            .free_at()
            .max(self.ranks[rank.index()].busy_until())
    }

    /// Services one access dispatched at `now`, reserving bank, rank-window
    /// and bus resources. `keep_open` tells the engine that the controller
    /// already holds another request for the *same row*, so the row should
    /// stay open (closed-page policy, §4.1).
    ///
    /// # Panics
    ///
    /// Panics if `rank`/`bank` are out of range.
    pub fn service(
        &mut self,
        rank: RankId,
        bank: BankId,
        row: u64,
        kind: AccessKind,
        now: Picos,
        keep_open: bool,
    ) -> AccessTimeline {
        let t = self.timing;
        let group = self.generation.group_of(bank);
        let slot = rank.index() * self.ranks[0].bank_count() + bank.index();
        let r = &mut self.ranks[rank.index()];
        // Wake first (powerdown exit + residency accounting anchors at the
        // pre-refresh idle horizon), then catch up on refresh arrears.
        let (ready, woke) = r.ensure_awake(now, &t);
        r.catch_up_refresh(now, &t);
        let ready = ready.max(r.busy_until());

        // A same-row request arriving before the previous access's CAS
        // cancels that access's auto-precharge (closed-page keep-open).
        let reopen = r
            .bank(bank)
            .hit_window()
            .filter(|w| w.row == row && now < w.until);

        // A reopen cancels the stashed auto-precharge event; any other
        // access to the bank makes it definitive.
        if self.recording {
            if reopen.is_some() {
                self.pending_pre[slot] = None;
            } else if let Some(e) = self.pending_pre[slot].take() {
                self.events.push(e);
            }
        }

        // Resolve the row-buffer outcome and the command schedule.
        let (outcome, act_at, cas_ready) = if let Some(w) = reopen {
            r.bank_mut(bank).reopen(row);
            (RowOutcome::Hit, None, ready.max(w.cas_from))
        } else {
            let t0 = ready.max(r.bank(bank).free_at());
            match r.bank(bank).open_row() {
                Some(open) if open == row => (RowOutcome::Hit, None, t0),
                Some(_) => {
                    // Explicit precharge, then activate. The precharge must
                    // clear the open row's tRAS/tRTP/tWR constraints.
                    let last_act = r.bank(bank).last_act().unwrap_or(t0);
                    let pre_at = t0.max(last_act + t.t_ras).max(r.bank(bank).pre_after());
                    if self.recording {
                        self.events
                            .push(Self::cmd(pre_at, rank, Some(bank), CmdKind::Precharge));
                    }
                    let act = r.earliest_act(group, pre_at + t.t_rp, &t);
                    (RowOutcome::OpenMiss, Some(act), act + t.t_rcd)
                }
                None => {
                    let act = r.earliest_act(group, t0, &t);
                    (RowOutcome::ClosedMiss, Some(act), act + t.t_rcd)
                }
            }
        };
        if let Some(act) = act_at {
            r.record_act(group, act);
            r.bank_mut(bank).record_act(row, act);
            if self.recording {
                self.events
                    .push(Self::cmd(act, rank, Some(bank), CmdKind::Activate { row }));
            }
        }

        // Same-bank-group CAS pairs respect tCCD_L (binding on DDR4, where
        // it exceeds the burst; elsewhere subsumed by bus serialization).
        let cas_ready = r.earliest_cas(group, cas_ready, &t);
        // Data burst: CAS latency, then wait for the bus (transfer blocking).
        let data_ready = cas_ready + t.t_cl;
        let data_start = data_ready.max(self.bus_free_at);
        let data_end = data_start + t.burst;
        self.bus_free_at = data_end;
        // The CAS the device actually saw, accounting for bus back-pressure.
        let cas_at = data_start - t.t_cl;
        r.record_cas(group, cas_at);
        if self.recording {
            let cas = match kind {
                AccessKind::Read => CmdKind::CasRead {
                    burst_start: data_start,
                    burst_end: data_end,
                },
                AccessKind::Write => CmdKind::CasWrite {
                    burst_start: data_start,
                    burst_end: data_end,
                },
            };
            self.events.push(Self::cmd(cas_at, rank, Some(bank), cas));
        }

        // Row management: keep open for a pending same-row request, else
        // auto-precharge and arm a reopen opportunity. Either way the bank's
        // next precharge must respect this access's read-to-precharge or
        // write-recovery point (it accumulates across row hits).
        let activity_start = act_at.unwrap_or(cas_at);
        let pre_term = match kind {
            AccessKind::Read => cas_at + t.t_rtp,
            AccessKind::Write => data_end + t.t_wr,
        };
        r.bank_mut(bank).defer_pre_until(pre_term);
        let bank_free_at;
        if keep_open {
            bank_free_at = data_end;
            r.bank_mut(bank).finish_keep_open(row, bank_free_at);
            r.stats_mut().add_active_interval(activity_start, data_end);
        } else {
            let anchor = act_at.or(r.bank(bank).last_act()).unwrap_or(cas_at);
            let pre_at = r.bank(bank).pre_after().max(anchor + t.t_ras);
            bank_free_at = pre_at + t.t_rp;
            r.bank_mut(bank).finish_precharge(bank_free_at);
            if self.recording {
                let pre = Self::cmd(pre_at, rank, Some(bank), CmdKind::Precharge);
                self.pending_pre[slot] = Some(pre);
            }
            r.bank_mut(bank).arm_hit_window(crate::bank::HitWindow {
                row,
                cas_from: cas_at + t.burst,
                until: cas_at,
            });
            r.stats_mut()
                .add_active_interval(activity_start, bank_free_at);
        }
        r.note_activity(bank_free_at.max(data_end));

        // Statistics.
        match kind {
            AccessKind::Read => {
                r.stats_mut().record_read_burst(t.burst);
                self.stats.reads += 1;
            }
            AccessKind::Write => {
                r.stats_mut().record_write_burst(t.burst);
                self.stats.writes += 1;
            }
        }
        self.stats.burst_time += t.burst;
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::OpenMiss => self.stats.open_row_misses += 1,
            RowOutcome::ClosedMiss => self.stats.closed_misses += 1,
        }

        AccessTimeline {
            outcome,
            pd_exit: woke.is_some(),
            deep_pd_exit: woke == Some(PowerDownMode::Deep),
            act_at,
            cas_at,
            data_start,
            data_end,
            bank_free_at,
        }
    }

    /// Re-locks the channel to `freq` starting at `now`, returning when the
    /// channel is operational again. The window is spent in precharge
    /// powerdown (§3.1); all banks close and the bus stalls.
    pub fn set_frequency(&mut self, freq: MemFreq, now: Picos) -> Picos {
        if freq == self.timing.freq {
            return now;
        }
        // The switch cannot begin while data is still in flight: drained
        // writebacks may hold the bus past `now`.
        let mut start = now.max(self.bus_free_at);
        // Refresh obligations gate the switch: arrears that became due
        // before it completed in the background at the old timing, and any
        // still in flight push the window's start — a REF may never land
        // inside the re-lock window, nor be starved across a switch chain.
        let old_timing = self.timing;
        for rank in &mut self.ranks {
            rank.catch_up_refresh(start, &old_timing);
            start = start.max(rank.refresh_horizon());
        }
        let mut penalty = TimingSet::relock_penalty(&self.cfg, freq);
        // An armed fault-injection overrun stretches this re-lock (one-shot);
        // the longer window flows into the emitted FreqSwitch event's `ready`
        // horizon, keeping the audit replay consistent with the slow relock.
        if self.relock_extra > Picos::ZERO {
            penalty += self.relock_extra;
            self.relock_extra = Picos::ZERO;
            self.relock_overruns += 1;
        }
        let ready = start + penalty;
        if self.recording {
            // The relock quiesces every bank, abandoning reopen windows.
            self.commit_pending_pre();
            let switch = CmdKind::FreqSwitch {
                from_mhz: self.timing.freq.mhz(),
                to_mhz: freq.mhz(),
                ready,
            };
            self.events.push(Self::cmd(start, RankId(0), None, switch));
        }
        self.timing = TimingSet::resolve(&self.cfg, freq);
        for rank in &mut self.ranks {
            rank.relock(start, ready);
        }
        self.bus_free_at = ready;
        self.stats.relocks += 1;
        self.stats.relock_time += penalty;
        ready
    }

    /// Fault-injection hook: arms a one-shot relock overrun the next
    /// frequency switch pays on top of its budgeted penalty.
    pub fn arm_relock_overrun(&mut self, extra: Picos) {
        self.relock_extra = extra;
    }

    /// Fault-injection hook: arms a one-shot powerdown-exit latency spike on
    /// every rank of the channel (a rank-wide VR droop).
    pub fn arm_pd_exit_spike(&mut self, extra: Picos) {
        for rank in &mut self.ranks {
            rank.arm_pd_exit_spike(extra);
        }
    }

    /// Fault-injection hook: slips the next scheduled REF on every caught-up
    /// rank later by `by` (or, when `by` is one full tREFI, drops one
    /// interval). Returns how many ranks the fault landed on.
    pub fn delay_refresh(&mut self, by: Picos, now: Picos) -> u64 {
        let mut landed = 0;
        for rank in &mut self.ranks {
            if rank.delay_refresh(by, now) {
                landed += 1;
            }
        }
        landed
    }

    /// Re-locks that consumed an armed fault-injection overrun.
    #[inline]
    pub fn relock_overruns(&self) -> u64 {
        self.relock_overruns
    }

    /// Powerdown exits across all ranks that consumed an armed spike.
    pub fn spiked_pd_exits(&self) -> u64 {
        self.ranks.iter().map(Rank::spiked_pd_exits).sum()
    }

    /// Whether `rank` is idle enough to enter powerdown at `now`.
    #[inline]
    pub fn can_power_down(&self, rank: RankId, now: Picos) -> bool {
        self.ranks[rank.index()].can_power_down(now)
    }

    /// Puts `rank` into powerdown at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not idle (see
    /// [`can_power_down`](Self::can_power_down)).
    pub fn enter_power_down(&mut self, rank: RankId, mode: PowerDownMode, now: Picos) {
        self.ranks[rank.index()].enter_power_down(mode, now);
    }

    /// Whether `rank` is currently powered down.
    #[inline]
    pub fn is_powered_down(&self, rank: RankId) -> bool {
        self.ranks[rank.index()].is_powered_down()
    }

    /// Enables or disables the aggressive idle-powerdown policy on every
    /// rank of the channel (the Fast-PD / Slow-PD baselines of §4.2.3).
    pub fn set_auto_power_down(&mut self, mode: Option<PowerDownMode>) {
        for rank in &mut self.ranks {
            rank.set_auto_power_down(mode);
        }
    }

    /// Flushes time-based accounting (powerdown residency) up to `now` on
    /// every rank. Call at sampling boundaries before reading statistics.
    pub fn sync(&mut self, now: Picos) {
        for rank in &mut self.ranks {
            rank.sync(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> DramChannel {
        DramChannel::new(&DramTimingConfig::default(), 4, 8, MemFreq::F800)
    }

    fn read(ch: &mut DramChannel, rank: usize, bank: usize, row: u64, now: u64) -> AccessTimeline {
        ch.service(
            RankId(rank),
            BankId(bank),
            row,
            AccessKind::Read,
            Picos::from_ns(now),
            false,
        )
    }

    #[test]
    fn closed_read_takes_trcd_tcl_burst() {
        let mut ch = channel();
        let t = read(&mut ch, 0, 0, 1, 0);
        assert_eq!(t.outcome, RowOutcome::ClosedMiss);
        assert_eq!(t.act_at, Some(Picos::ZERO));
        assert_eq!(t.data_end, Picos::from_ns(35)); // 15 + 15 + 5
    }

    #[test]
    fn row_hit_skips_activate() {
        let mut ch = channel();
        // First access keeps the row open for a pending same-row request.
        ch.service(RankId(0), BankId(0), 7, AccessKind::Read, Picos::ZERO, true);
        let t = read(&mut ch, 0, 0, 7, 40);
        assert_eq!(t.outcome, RowOutcome::Hit);
        assert_eq!(t.act_at, None);
        // CAS + burst only.
        assert_eq!(t.data_end, Picos::from_ns(40 + 15 + 5));
    }

    #[test]
    fn open_miss_pays_precharge() {
        let mut ch = channel();
        ch.service(RankId(0), BankId(0), 7, AccessKind::Read, Picos::ZERO, true);
        // Different row: must wait tRAS from ACT(0), precharge, activate.
        let t = read(&mut ch, 0, 0, 9, 40);
        assert_eq!(t.outcome, RowOutcome::OpenMiss);
        // pre at max(40, 0+35)=40, act at 55, cas 70, data 85..90.
        assert_eq!(t.act_at, Some(Picos::from_ns(55)));
        assert_eq!(t.data_end, Picos::from_ns(90));
    }

    #[test]
    fn bus_serializes_bursts_across_banks() {
        let mut ch = channel();
        let a = read(&mut ch, 0, 0, 1, 0);
        let b = read(&mut ch, 0, 1, 1, 0);
        // Both banks proceed in parallel but bursts may not overlap.
        assert!(b.data_start >= a.data_end);
        assert_eq!(ch.stats().burst_time, Picos::from_ns(10));
    }

    #[test]
    fn same_bank_requests_serialize_on_the_bank() {
        let mut ch = channel();
        let a = read(&mut ch, 0, 0, 1, 0);
        let b = read(&mut ch, 0, 0, 2, 0);
        assert!(b.act_at.unwrap() >= a.bank_free_at);
    }

    #[test]
    fn trrd_spaces_activates_across_banks() {
        let mut ch = channel();
        let a = read(&mut ch, 0, 0, 1, 0);
        let b = read(&mut ch, 0, 1, 1, 0);
        assert_eq!(a.act_at, Some(Picos::ZERO));
        assert_eq!(b.act_at, Some(Picos::from_ns(5))); // tRRD
    }

    #[test]
    fn ranks_have_independent_act_windows() {
        let mut ch = channel();
        let a = read(&mut ch, 0, 0, 1, 0);
        let b = read(&mut ch, 1, 0, 1, 0);
        assert_eq!(a.act_at, Some(Picos::ZERO));
        assert_eq!(b.act_at, Some(Picos::ZERO)); // no tRRD across ranks
    }

    #[test]
    fn writes_use_write_recovery() {
        let mut ch = channel();
        let w = ch.service(
            RankId(0),
            BankId(0),
            1,
            AccessKind::Write,
            Picos::ZERO,
            false,
        );
        // Bank free = data_end + tWR + tRP.
        assert_eq!(w.bank_free_at, w.data_end + Picos::from_ns(30));
        assert_eq!(ch.stats().writes, 1);
    }

    #[test]
    fn powerdown_exit_penalty_applies() {
        let mut ch = channel();
        ch.enter_power_down(RankId(0), PowerDownMode::Fast, Picos::ZERO);
        let t = read(&mut ch, 0, 0, 1, 100);
        assert!(t.pd_exit);
        assert_eq!(t.act_at, Some(Picos::from_ns(106))); // + tXP
        assert!(!ch.is_powered_down(RankId(0)));
    }

    #[test]
    fn frequency_change_stalls_and_slows_bursts() {
        let mut ch = channel();
        let ready = ch.set_frequency(MemFreq::F200, Picos::from_us(1));
        // 512 cycles at 5 ns + 28 ns = 2588 ns.
        assert_eq!(ready, Picos::from_us(1) + Picos::from_ns(2588));
        assert_eq!(ch.frequency(), MemFreq::F200);
        let t = read(&mut ch, 0, 0, 1, 1);
        assert!(t.act_at.unwrap() >= ready);
        assert_eq!(t.data_end - t.data_start, Picos::from_ns(20));
        assert_eq!(ch.stats().relocks, 1);
    }

    #[test]
    fn armed_relock_overrun_is_one_shot() {
        let mut ch = channel();
        ch.arm_relock_overrun(Picos::from_ns(500));
        let ready = ch.set_frequency(MemFreq::F200, Picos::from_us(1));
        // 512 cycles at 5 ns + 28 ns + injected 500 ns.
        assert_eq!(ready, Picos::from_us(1) + Picos::from_ns(3088));
        assert_eq!(ch.relock_overruns(), 1);
        // Consumed: the switch back pays only the nominal penalty.
        let t0 = ready + Picos::from_us(1);
        let back = ch.set_frequency(MemFreq::F800, t0);
        assert_eq!(back, t0 + Picos::from_ps(668_000));
        assert_eq!(ch.relock_overruns(), 1);
    }

    #[test]
    fn channel_pd_spike_reaches_ranks() {
        let mut ch = channel();
        ch.enter_power_down(RankId(0), PowerDownMode::Fast, Picos::ZERO);
        ch.arm_pd_exit_spike(Picos::from_ns(100));
        let t = read(&mut ch, 0, 0, 1, 100);
        assert!(t.pd_exit);
        assert_eq!(t.act_at, Some(Picos::from_ns(206))); // tXP + 100 ns
        assert_eq!(ch.spiked_pd_exits(), 1);
    }

    #[test]
    fn set_same_frequency_is_free() {
        let mut ch = channel();
        let ready = ch.set_frequency(MemFreq::F800, Picos::from_us(1));
        assert_eq!(ready, Picos::from_us(1));
        assert_eq!(ch.stats().relocks, 0);
    }

    #[test]
    fn refresh_eventually_stalls_accesses() {
        let mut ch = channel();
        // Access far past the first scheduled refresh of rank 0.
        let t = read(&mut ch, 0, 0, 1, 20_000); // 20 us
                                                // At least one refresh must have been processed.
        assert!(ch.rank_stats(RankId(0)).refresh_count >= 1);
        assert!(t.act_at.unwrap() >= Picos::from_us(20));
    }

    #[test]
    fn row_outcome_counters_track() {
        let mut ch = channel();
        ch.service(RankId(0), BankId(0), 7, AccessKind::Read, Picos::ZERO, true);
        read(&mut ch, 0, 0, 7, 40);
        read(&mut ch, 0, 1, 1, 80);
        let s = ch.stats();
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.closed_misses, 2);
        assert_eq!(s.total_accesses(), 3);
    }

    #[test]
    fn sync_flushes_pd_time() {
        let mut ch = channel();
        ch.enter_power_down(RankId(2), PowerDownMode::Slow, Picos::ZERO);
        ch.sync(Picos::from_us(3));
        assert_eq!(ch.rank_stats(RankId(2)).slow_pd_time, Picos::from_us(3));
    }

    fn ddr4_channel() -> DramChannel {
        DramChannel::new(&DramTimingConfig::ddr4(), 2, 16, MemFreq::F800)
    }

    #[test]
    fn ddr4_tccd_l_spaces_same_group_cas_beyond_the_burst() {
        // Banks 0 and 4 share group 0; banks 0 and 1 do not.
        let mut same = ddr4_channel();
        let a = read(&mut same, 0, 0, 1, 0);
        let b = same.service(
            RankId(0),
            BankId(4),
            1,
            AccessKind::Read,
            Picos::ZERO,
            false,
        );
        let t_ccd_l = same.timing().t_ccd_l;
        assert!(t_ccd_l > same.timing().burst);
        assert!(b.cas_at >= a.cas_at + t_ccd_l);

        let mut cross = ddr4_channel();
        let c = read(&mut cross, 0, 0, 1, 0);
        let d = read(&mut cross, 0, 1, 1, 0);
        // Cross-group pairs are limited only by the burst (tCCD_S).
        assert!(d.cas_at < c.cas_at + t_ccd_l);
        assert!(d.data_start >= c.data_end);
    }

    #[test]
    fn ddr4_trrd_l_spaces_same_group_activates() {
        let mut ch = ddr4_channel();
        let a = read(&mut ch, 0, 0, 1, 0);
        let b = ch.service(
            RankId(0),
            BankId(4),
            1,
            AccessKind::Read,
            Picos::ZERO,
            false,
        );
        // Same group: tRRD_L = 7.5 ns, not plain tRRD = 5 ns.
        assert_eq!(a.act_at, Some(Picos::ZERO));
        assert_eq!(b.act_at, Some(Picos::from_ps(7_500)));
    }

    #[test]
    fn deep_powerdown_round_trip_counts_edpc() {
        let mut ch = DramChannel::new(&DramTimingConfig::lpddr3(), 2, 8, MemFreq::F800);
        ch.enter_power_down(RankId(0), PowerDownMode::Deep, Picos::ZERO);
        assert!(ch.is_powered_down(RankId(0)));
        let t = read(&mut ch, 0, 0, 1, 5000);
        assert!(t.pd_exit && t.deep_pd_exit);
        let s = ch.rank_stats(RankId(0));
        assert_eq!(s.deep_pd_exits, 1);
        assert_eq!(s.deep_pd_time, Picos::from_us(5));
        // ACT waits out the 500 ns deep-powerdown exit.
        assert!(t.act_at.unwrap() >= Picos::from_us(5) + Picos::from_ns(500));
    }
}
