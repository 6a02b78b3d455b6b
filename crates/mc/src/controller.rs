//! The controller proper.

use crate::counters::McCounters;
use crate::outstanding::OutstandingTracker;
use crate::wbqueue::WritebackQueue;
use memscale_dram::channel::{AccessKind, AccessTimeline, DramChannel};
use memscale_dram::rank::PowerDownMode;
use memscale_dram::stats::{ChannelStats, RankStats};
use memscale_types::address::{AddressMap, Location, PhysAddr};
use memscale_types::config::SystemConfig;
use memscale_types::freq::MemFreq;
use memscale_types::ids::{ChannelId, RankId};
use memscale_types::time::Picos;

/// Default writeback-queue capacity per channel.
const WB_CAPACITY: usize = 32;

/// Row-buffer management policy.
///
/// The paper uses closed-page management (§4.1, better for multicore);
/// open-page is provided for the DESIGN.md §5 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Precharge after every access unless a same-row request is pending.
    #[default]
    ClosedPage,
    /// Keep the row open after every access (pay PRE+ACT on conflicts).
    OpenPage,
}

/// Outcome of servicing a demand read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// When the fill reaches the LLC and the blocked core resumes.
    pub completion: Picos,
    /// The channel this read used.
    pub channel: ChannelId,
    /// The resolved device-level schedule.
    pub timeline: AccessTimeline,
}

/// The memory controller: address decode, FCFS dispatch, writeback queueing,
/// powerdown policy and performance counters over a set of channels.
#[derive(Debug, Clone)]
pub struct MemoryController {
    map: AddressMap,
    channels: Vec<DramChannel>,
    wb_queues: Vec<WritebackQueue>,
    bank_track: Vec<OutstandingTracker>,
    chan_track: Vec<OutstandingTracker>,
    counters: McCounters,
    banks_per_rank: usize,
    ranks_per_channel: usize,
    row_policy: RowPolicy,
}

impl MemoryController {
    /// Builds the controller for `cfg`'s topology, all channels at `freq`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &SystemConfig, freq: MemFreq) -> Self {
        cfg.validate().expect("valid configuration");
        let t = &cfg.topology;
        let ranks_per_channel = t.ranks_per_channel() as usize;
        let banks_per_rank = t.banks_per_rank as usize;
        let channels: Vec<DramChannel> = (0..t.channels as usize)
            .map(|_| DramChannel::new(&cfg.timing, ranks_per_channel, banks_per_rank, freq))
            .collect();
        let total_banks = channels.len() * ranks_per_channel * banks_per_rank;
        MemoryController {
            map: AddressMap::new(t.clone()),
            wb_queues: (0..channels.len())
                .map(|_| WritebackQueue::new(WB_CAPACITY))
                .collect(),
            bank_track: vec![OutstandingTracker::new(); total_banks],
            chan_track: vec![OutstandingTracker::new(); channels.len()],
            channels,
            counters: McCounters::new(),
            banks_per_rank,
            ranks_per_channel,
            row_policy: RowPolicy::ClosedPage,
        }
    }

    /// Selects the row-buffer management policy (default closed-page).
    pub fn set_row_policy(&mut self, policy: RowPolicy) {
        self.row_policy = policy;
    }

    /// The row-buffer management policy in effect.
    #[inline]
    pub fn row_policy(&self) -> RowPolicy {
        self.row_policy
    }

    /// Current operating frequency (all channels scale in tandem).
    #[inline]
    pub fn frequency(&self) -> MemFreq {
        self.channels[0].frequency()
    }

    /// The controller's performance counters.
    #[inline]
    pub fn counters(&self) -> &McCounters {
        &self.counters
    }

    /// Pending writebacks on `channel`.
    #[inline]
    pub fn pending_writebacks(&self, channel: ChannelId) -> usize {
        self.wb_queues[channel.index()].len()
    }

    fn bank_index(&self, loc: &Location) -> usize {
        (loc.channel.index() * self.ranks_per_channel + loc.rank.index()) * self.banks_per_rank
            + loc.bank.index()
    }

    /// Services a demand read (LLC miss) arriving at `now`.
    pub fn read(&mut self, addr: PhysAddr, now: Picos) -> ReadResult {
        let loc = self.map.decode(addr);
        let ch = loc.channel.index();

        // Opportunistic writeback drain while the bus is idle.
        while !self.wb_queues[ch].is_empty() && self.channels[ch].bus_free_at() <= now {
            self.dispatch_writeback(ch, now);
        }

        // Transactions-outstanding accumulators sample at arrival.
        let bank_idx = self.bank_index(&loc);
        let bank_ahead = self.bank_track[bank_idx].outstanding_at(now);
        let chan_ahead = self.chan_track[ch].outstanding_at(now);
        self.counters.bto += bank_ahead;
        self.counters.btc += 1;
        self.counters.cto += chan_ahead;
        self.counters.ctc += 1;

        // The request spends the controller pipeline (five MC cycles, §3.3)
        // before its first device command can issue.
        let device_now = now + self.channels[ch].timing().mc_proc;
        let keep_open = self.row_policy == RowPolicy::OpenPage;
        let timeline = self.channels[ch].service(
            loc.rank,
            loc.bank,
            loc.row,
            AccessKind::Read,
            device_now,
            keep_open,
        );
        self.bank_track[bank_idx].arrive(now, timeline.bank_free_at);
        self.chan_track[ch].arrive(now, timeline.data_end);

        self.record_outcome(&timeline);
        self.counters.reads += 1;
        self.counters.read_latency_sum += timeline.data_end - now;

        ReadResult {
            completion: timeline.data_end,
            channel: loc.channel,
            timeline,
        }
    }

    /// Accepts a writeback at `now`. It is queued and drained either when
    /// its channel queue reaches half capacity or opportunistically when the
    /// channel's bus idles at a read arrival.
    pub fn writeback(&mut self, addr: PhysAddr, now: Picos) {
        let ch = self.map.decode(addr).channel.index();
        self.wb_queues[ch].push(addr, now);
        while self.wb_queues[ch].over_half() {
            self.dispatch_writeback(ch, now);
        }
    }

    /// Forces all queued writebacks out (used before frequency re-locks and
    /// at end of simulation).
    pub fn drain_all_writebacks(&mut self, now: Picos) {
        for ch in 0..self.channels.len() {
            while !self.wb_queues[ch].is_empty() {
                self.dispatch_writeback(ch, now);
            }
        }
    }

    fn dispatch_writeback(&mut self, ch: usize, now: Picos) {
        let Some(wb) = self.wb_queues[ch].pop() else {
            return;
        };
        let loc = self.map.decode(wb.addr);
        debug_assert_eq!(loc.channel.index(), ch);
        let dispatch_at = now.max(wb.arrived) + self.channels[ch].timing().mc_proc;
        let keep_open = self.row_policy == RowPolicy::OpenPage;
        let timeline = self.channels[ch].service(
            loc.rank,
            loc.bank,
            loc.row,
            AccessKind::Write,
            dispatch_at,
            keep_open,
        );
        // Writebacks occupy banks and the bus: register them so later reads
        // see them ahead in the queues, but only reads sample BTO/CTO.
        let bank_idx = self.bank_index(&loc);
        self.bank_track[bank_idx].arrive(dispatch_at, timeline.bank_free_at);
        self.chan_track[ch].arrive(dispatch_at, timeline.data_end);
        self.record_outcome(&timeline);
        self.counters.writes += 1;
    }

    fn record_outcome(&mut self, timeline: &AccessTimeline) {
        use memscale_dram::channel::RowOutcome;
        match timeline.outcome {
            RowOutcome::Hit => self.counters.rbhc += 1,
            RowOutcome::OpenMiss => self.counters.obmc += 1,
            RowOutcome::ClosedMiss => self.counters.cbmc += 1,
        }
        if timeline.act_at.is_some() {
            self.counters.pocc += 1;
        }
        if timeline.deep_pd_exit {
            self.counters.edpc += 1;
        } else if timeline.pd_exit {
            self.counters.epdc += 1;
        }
    }

    /// Re-locks every channel to `freq` at `now`, draining writebacks first;
    /// returns when the subsystem is operational again.
    pub fn set_frequency(&mut self, freq: MemFreq, now: Picos) -> Picos {
        if self.channel_frequencies().iter().all(|&f| f == freq) {
            return now;
        }
        self.drain_all_writebacks(now);
        let mut ready = now;
        for channel in &mut self.channels {
            ready = ready.max(channel.set_frequency(freq, now));
        }
        ready
    }

    /// Re-locks a single channel (the paper's §6 per-channel future-work
    /// extension). Only that channel's queued writebacks are flushed.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn set_channel_frequency(
        &mut self,
        channel: ChannelId,
        freq: MemFreq,
        now: Picos,
    ) -> Picos {
        let ch = channel.index();
        if self.channels[ch].frequency() == freq {
            return now;
        }
        while !self.wb_queues[ch].is_empty() {
            self.dispatch_writeback(ch, now);
        }
        self.channels[ch].set_frequency(freq, now)
    }

    /// The operating point of every channel.
    pub fn channel_frequencies(&self) -> Vec<MemFreq> {
        self.channels
            .iter()
            .map(memscale_dram::DramChannel::frequency)
            .collect()
    }

    /// Enables or disables aggressive idle powerdown on every rank.
    ///
    /// # Panics
    ///
    /// Panics if `mode` does not exist on the configured memory generation
    /// (deep power-down is LPDDR-only; each channel checks).
    pub fn set_auto_power_down(&mut self, mode: Option<PowerDownMode>) {
        for channel in &mut self.channels {
            channel.set_auto_power_down(mode);
        }
    }

    /// Flushes time-based accounting up to `now` on every channel; call
    /// before sampling statistics.
    pub fn sync(&mut self, now: Picos) {
        for channel in &mut self.channels {
            channel.sync(now);
        }
    }

    /// Fault-injection hook: arms a one-shot relock overrun on every
    /// channel — the next frequency switch pays `extra` on top of its
    /// budgeted 512-cycle + settle penalty.
    pub fn arm_relock_overrun(&mut self, extra: Picos) {
        for channel in &mut self.channels {
            channel.arm_relock_overrun(extra);
        }
    }

    /// Fault-injection hook: arms a one-shot powerdown-exit latency spike
    /// (tXP/tXPDLL/tXDPD overrun) on every rank.
    pub fn arm_pd_exit_spike(&mut self, extra: Picos) {
        for channel in &mut self.channels {
            channel.arm_pd_exit_spike(extra);
        }
    }

    /// Fault-injection hook: slips the next scheduled REF later by `by` on
    /// every caught-up rank. Returns how many ranks the fault landed on (a
    /// rank already in refresh arrears refuses the slip, keeping the
    /// postponement window conformant).
    pub fn delay_refresh(&mut self, by: Picos, now: Picos) -> u64 {
        self.channels
            .iter_mut()
            .map(|c| c.delay_refresh(by, now))
            .sum()
    }

    /// One full refresh interval at the current timing (the magnitude of a
    /// dropped-REF fault).
    pub fn refresh_interval(&self) -> Picos {
        self.channels[0].timing().t_refi
    }

    /// Applied fault-injection tallies across the device hierarchy:
    /// `(relock overruns, spiked powerdown exits)`.
    pub fn fault_stats(&self) -> (u64, u64) {
        let overruns = self.channels.iter().map(DramChannel::relock_overruns).sum();
        let spikes = self.channels.iter().map(DramChannel::spiked_pd_exits).sum();
        (overruns, spikes)
    }

    /// Snapshot of every rank's cumulative statistics (channel-major order).
    pub fn rank_stats(&self) -> Vec<RankStats> {
        self.channels
            .iter()
            .flat_map(|c| (0..c.rank_count()).map(move |r| c.rank_stats(RankId(r)).clone()))
            .collect()
    }

    /// Snapshot of every channel's cumulative statistics.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats().clone()).collect()
    }

    /// Starts or stops DRAM command-event recording on every channel (for
    /// the `memscale-audit` conformance checker).
    pub fn set_event_recording(&mut self, on: bool) {
        for channel in &mut self.channels {
            channel.set_event_recording(on);
        }
    }

    /// Drains every channel's recorded command events, re-tagged with their
    /// channel ids. Drain once, at end of simulation (see
    /// [`DramChannel::drain_events`]); during a run, drain below
    /// [`command_watermark`](Self::command_watermark) instead.
    pub fn drain_command_events(&mut self) -> Vec<memscale_types::events::CmdEvent> {
        let mut events = Vec::new();
        for (i, channel) in self.channels.iter_mut().enumerate() {
            for mut e in channel.drain_events() {
                e.channel = ChannelId(i);
                events.push(e);
            }
        }
        events
    }

    /// The audit watermark at `now`: no command recorded from here on is
    /// dated strictly below it, provided every later call passes a time at
    /// or after `now` (see [`DramChannel::event_watermark`]).
    pub fn command_watermark(&self, now: Picos) -> Picos {
        self.channels
            .iter()
            .map(|c| c.event_watermark(now))
            .fold(now, Picos::min)
    }

    /// Moves the recorded commands dated strictly below `watermark` (from
    /// [`command_watermark`](Self::command_watermark)) to `out`, channel by
    /// channel in the order [`drain_command_events`](Self::drain_command_events)
    /// uses, re-tagged with their channel ids.
    pub fn drain_command_events_below(
        &mut self,
        watermark: Picos,
        out: &mut Vec<memscale_types::events::CmdEvent>,
    ) {
        for (i, channel) in self.channels.iter_mut().enumerate() {
            let start = out.len();
            channel.drain_events_below(watermark, out);
            for e in &mut out[start..] {
                e.channel = ChannelId(i);
            }
        }
    }

    /// Recorded commands held across every channel, not yet drained.
    pub fn held_command_events(&self) -> usize {
        self.channels.iter().map(DramChannel::held_events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(&SystemConfig::default(), MemFreq::F800)
    }

    #[test]
    fn single_read_latency_is_closed_page() {
        let mut m = mc();
        let r = m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        // MC pipeline (3.125 ns) + tRCD + tCL + burst.
        assert_eq!(r.completion, Picos::from_ps(38_125));
        assert_eq!(m.counters().reads, 1);
        assert_eq!(m.counters().cbmc, 1);
        assert_eq!(m.counters().bto, 0);
        assert_eq!(m.counters().cto, 0);
    }

    #[test]
    fn reads_to_different_channels_do_not_queue() {
        let mut m = mc();
        let a = m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        let b = m.read(PhysAddr::from_cache_line(1), Picos::ZERO);
        assert_eq!(a.completion, b.completion);
        assert_eq!(m.counters().cto, 0);
    }

    #[test]
    fn same_bank_reads_count_outstanding() {
        let mut m = mc();
        // Lines 0 and 128 hit channel 0; 128/4 % 8 = 0 -> same bank 0.
        let a = m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        let b = m.read(PhysAddr::from_cache_line(128), Picos::ZERO);
        assert!(b.completion > a.completion);
        assert_eq!(m.counters().bto, 1);
        assert_eq!(m.counters().btc, 2);
    }

    #[test]
    fn same_channel_different_bank_counts_channel_queue() {
        let mut m = mc();
        // Lines 0 and 4: channel 0, banks 0 and 1.
        m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        m.read(PhysAddr::from_cache_line(4), Picos::ZERO);
        assert_eq!(m.counters().bto, 0);
        assert_eq!(m.counters().cto, 1);
    }

    #[test]
    fn writebacks_wait_until_half_full() {
        let mut m = mc();
        // 15 writebacks to channel 0 stay queued (half of 32 is 16).
        for i in 0..15 {
            m.writeback(PhysAddr::from_cache_line(i * 4 * 8), Picos::ZERO);
        }
        assert_eq!(m.pending_writebacks(ChannelId(0)), 15);
        assert_eq!(m.counters().writes, 0);
        // The 16th forces a drain below half.
        m.writeback(PhysAddr::from_cache_line(15 * 32), Picos::ZERO);
        assert!(m.pending_writebacks(ChannelId(0)) < 16);
        assert!(m.counters().writes >= 1);
    }

    #[test]
    fn idle_bus_drains_writebacks_before_read() {
        let mut m = mc();
        m.writeback(PhysAddr::from_cache_line(0), Picos::ZERO);
        assert_eq!(m.pending_writebacks(ChannelId(0)), 1);
        // A read to the same channel arrives much later: bus is idle, so the
        // writeback goes first.
        let r = m.read(PhysAddr::from_cache_line(4), Picos::from_us(1));
        assert_eq!(m.pending_writebacks(ChannelId(0)), 0);
        assert_eq!(m.counters().writes, 1);
        assert!(r.completion > Picos::from_us(1));
    }

    #[test]
    fn drain_all_writebacks_empties_queues() {
        let mut m = mc();
        for i in 0..5 {
            m.writeback(PhysAddr::from_cache_line(i), Picos::ZERO);
        }
        m.drain_all_writebacks(Picos::from_ns(100));
        for ch in 0..4 {
            assert_eq!(m.pending_writebacks(ChannelId(ch)), 0);
        }
        assert_eq!(m.counters().writes, 5);
    }

    #[test]
    fn frequency_change_affects_later_reads() {
        let mut m = mc();
        let ready = m.set_frequency(MemFreq::F200, Picos::ZERO);
        assert!(ready > Picos::ZERO);
        let r = m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        // Stalled until relock finished, then 15+15 ns + 20 ns burst.
        assert!(r.completion >= ready + Picos::from_ns(50));
        assert_eq!(m.frequency(), MemFreq::F200);
        // Same-frequency change is free.
        assert_eq!(m.set_frequency(MemFreq::F200, ready), ready);
    }

    #[test]
    fn auto_powerdown_counts_exits() {
        let mut m = mc();
        m.set_auto_power_down(Some(PowerDownMode::Fast));
        // Fast-PD (section 4.2.3) enters powerdown the *instant* a rank is
        // idle, so even the first access (after the MC pipeline delay) pays
        // an exit.
        m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        // Long idle gap: rank dropped into powerdown; next read exits again.
        let r = m.read(PhysAddr::from_cache_line(0), Picos::from_us(100));
        assert!(r.timeline.pd_exit);
        assert_eq!(m.counters().epdc, 2);
        m.sync(Picos::from_us(200));
        let pd: Picos = m.rank_stats().iter().map(|s| s.fast_pd_time).sum();
        assert!(pd > Picos::from_us(90));
    }

    #[test]
    fn deep_auto_powerdown_counts_deep_exits_separately() {
        use memscale_types::config::MemGeneration;
        let cfg = SystemConfig::for_generation(MemGeneration::Lpddr3);
        let mut m = MemoryController::new(&cfg, MemFreq::F800);
        m.set_auto_power_down(Some(PowerDownMode::Deep));
        m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        let r = m.read(PhysAddr::from_cache_line(0), Picos::from_us(100));
        assert!(r.timeline.pd_exit);
        assert!(r.timeline.deep_pd_exit);
        assert_eq!(m.counters().edpc, 2);
        assert_eq!(m.counters().epdc, 0);
        m.sync(Picos::from_us(200));
        let deep: Picos = m.rank_stats().iter().map(|s| s.deep_pd_time).sum();
        assert!(deep > Picos::from_us(90));
    }

    #[test]
    #[should_panic(expected = "DDR3: power-down mode Deep")]
    fn deep_powerdown_is_rejected_on_ddr3() {
        let mut m = mc();
        m.set_auto_power_down(Some(PowerDownMode::Deep));
    }

    #[test]
    fn stats_snapshots_cover_topology() {
        let m = mc();
        assert_eq!(m.rank_stats().len(), 16);
        assert_eq!(m.channel_stats().len(), 4);
    }

    #[test]
    fn row_hit_via_reopen_window() {
        let mut m = mc();
        // Two reads to the same row, second arriving while the first is
        // still pre-CAS (same cycle): the second becomes a row hit.
        let a = m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        // Same bank row: lines within a row step of channel 0 bank 0: the
        // row advances every 4*8*4 = 128 lines... line 512 -> row 1. Use the
        // exact same line for a guaranteed same-row target.
        let b = m.read(PhysAddr::from_cache_line(0), Picos::from_ns(1));
        assert_eq!(m.counters().rbhc, 1);
        assert!(b.completion > a.completion);
    }

    #[test]
    fn mean_latency_reported() {
        let mut m = mc();
        m.read(PhysAddr::from_cache_line(0), Picos::ZERO);
        m.read(PhysAddr::from_cache_line(1), Picos::ZERO);
        let mean = m.counters().mean_read_latency().unwrap();
        assert_eq!(mean, Picos::from_ps(38_125));
    }
}
