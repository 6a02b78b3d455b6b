//! Property tests using the protocol auditor as an independent oracle.
//!
//! The access engine in `channel.rs` derives each command's issue time from
//! incremental per-bank/per-rank state; the auditor replays the recorded
//! command stream against a from-scratch model of the same generation's
//! rules. Any random access stream — including streams with frequency
//! switches landing in the middle of open `tFAW`/`tRRD` activate windows,
//! DDR4 bank-group `tCCD_L`/`tRRD_L` chains, or LPDDR3 deep power-down
//! intervals — must replay clean.
//!
//! The same streams also check the streamed audit: releasing a stream to
//! the auditor in batches below the channel's watermark must report
//! exactly what one replay of the whole stream reports.
//!
//! Recording itself must only observe: a channel that records and releases
//! its commands schedules exactly what a silent channel schedules.

use memscale_audit::{AuditReport, ProtocolAuditor, Rule};
use memscale_dram::channel::{AccessKind, DramChannel};
use memscale_dram::rank::PowerDownMode;
use memscale_types::config::{DramTimingConfig, MemGeneration};
use memscale_types::freq::MemFreq;
use memscale_types::ids::{BankId, RankId};
use memscale_types::time::Picos;
use proptest::prelude::*;

const RANKS: usize = 4;
const BANKS: usize = 8;

#[derive(Debug, Clone)]
struct Access {
    rank: usize,
    bank: usize,
    row: u64,
    write: bool,
    keep_open: bool,
    gap_ns: u64,
}

fn access_strategy() -> impl Strategy<Value = Access> {
    (
        0usize..RANKS,
        0usize..BANKS,
        0u64..64,
        any::<bool>(),
        any::<bool>(),
        0u64..200,
    )
        .prop_map(|(rank, bank, row, write, keep_open, gap_ns)| Access {
            rank,
            bank,
            row,
            write,
            keep_open,
            gap_ns,
        })
}

/// Drives `accesses` through `ch` (of `ranks` × `banks`), injecting a
/// frequency switch before every `switch_every`-th access (targeting a
/// pseudo-random operating point derived from the access) and — when
/// `pd_every` is nonzero — opportunistically dropping another rank into
/// `pd_mode` before every `pd_every`-th access. `after` sees the channel
/// and the access's dispatch time after each access.
fn drive(
    ch: &mut DramChannel,
    (ranks, banks): (usize, usize),
    accesses: &[Access],
    switch_every: usize,
    pd_every: usize,
    pd_mode: PowerDownMode,
    mut after: impl FnMut(&mut DramChannel, Picos),
) {
    let mut now = Picos::ZERO;
    for (i, a) in accesses.iter().enumerate() {
        now += Picos::from_ns(a.gap_ns);
        if switch_every > 0 && i % switch_every == switch_every - 1 {
            let target = MemFreq::ALL[(usize::try_from(a.row).unwrap() + i) % MemFreq::ALL.len()];
            ch.set_frequency(target, now);
        }
        if pd_every > 0 && i % pd_every == pd_every - 1 {
            // Power down a rank other than the one about to be accessed, so
            // the entry gets a chance to accumulate residency before a later
            // access wakes it.
            let rank = RankId((a.rank + 1) % ranks);
            if ch.can_power_down(rank, now) {
                ch.enter_power_down(rank, pd_mode, now);
            }
        }
        let kind = if a.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        ch.service(
            RankId(a.rank % ranks),
            BankId(a.bank % banks),
            a.row,
            kind,
            now,
            a.keep_open,
        );
        after(ch, now);
    }
}

/// Replays `accesses` through a recording channel of `ranks` × `banks` at
/// `cfg` (see [`drive`]; `deep_pd_every` enters deep power-down), then
/// audits the whole stream against the same configuration.
fn run_and_audit_cfg(
    cfg: &DramTimingConfig,
    ranks: usize,
    banks: usize,
    accesses: &[Access],
    switch_every: usize,
    deep_pd_every: usize,
    initial: MemFreq,
) -> AuditReport {
    let mut ch = DramChannel::new(cfg, ranks, banks, initial);
    ch.set_event_recording(true);
    drive(
        &mut ch,
        (ranks, banks),
        accesses,
        switch_every,
        deep_pd_every,
        PowerDownMode::Deep,
        |_, _| {},
    );
    let events = ch.drain_events();
    let mut auditor = ProtocolAuditor::new(cfg, 1, ranks, banks, initial);
    auditor.ingest(&events);
    auditor.finalize()
}

/// DDR3 shorthand for [`run_and_audit_cfg`].
fn run_and_audit(accesses: &[Access], switch_every: usize, initial: MemFreq) -> AuditReport {
    let cfg = DramTimingConfig::default();
    run_and_audit_cfg(&cfg, RANKS, BANKS, accesses, switch_every, 0, initial)
}

fn freq_strategy() -> impl Strategy<Value = MemFreq> {
    (0usize..MemFreq::ALL.len()).prop_map(|i| MemFreq::ALL[i])
}

/// Ranks × banks of a channel: DDR4 has sixteen banks in four groups.
fn topology(generation: MemGeneration) -> (usize, usize) {
    match generation {
        MemGeneration::Ddr4 => (2, 16),
        _ => (RANKS, BANKS),
    }
}

/// Timing weakenings as in `crates/audit/tests/mutation.rs`: the channel
/// runs the weakened numbers, the auditor keeps the strict reference, so
/// the stream carries violations.
const WEAKENINGS: [fn(&mut DramTimingConfig); 4] = [
    |c| c.t_rcd_ns = 5.0,
    |c| c.t_rp_ns = 2.0,
    |c| c.t_rrd_ns = 1.0,
    |c| {
        c.t_xp_ns = 1.0;
        c.t_xpdll_ns = 2.0;
        c.t_xdpd_ns = 50.0;
    },
];

/// One stream setup of the streamed-versus-whole comparison.
#[derive(Debug, Clone)]
struct StreamCase {
    generation: MemGeneration,
    /// The auto-powerdown policy (deep only where the generation has it).
    auto_pd: Option<PowerDownMode>,
    /// Index into [`WEAKENINGS`], or `None` for the strict engine.
    weakening: Option<usize>,
    switch_every: usize,
    pd_every: usize,
    initial: MemFreq,
    accesses: Vec<Access>,
    /// Accesses between releases, cycled.
    release_gaps: Vec<usize>,
}

impl StreamCase {
    fn topology(&self) -> (usize, usize) {
        topology(self.generation)
    }

    fn pd_mode(&self) -> PowerDownMode {
        self.auto_pd.unwrap_or(PowerDownMode::Fast)
    }

    /// A channel running the (possibly weakened) engine, plus an auditor
    /// holding the strict reference.
    fn setup(&self) -> (DramChannel, ProtocolAuditor) {
        let strict = DramTimingConfig::for_generation(self.generation);
        let mut engine = strict.clone();
        if let Some(w) = self.weakening {
            WEAKENINGS[w](&mut engine);
        }
        let (ranks, banks) = self.topology();
        let mut ch = DramChannel::new(&engine, ranks, banks, self.initial);
        ch.set_event_recording(true);
        ch.set_auto_power_down(self.auto_pd);
        let auditor = ProtocolAuditor::new(&strict, 1, ranks, banks, self.initial);
        (ch, auditor)
    }

    /// Drives the case's accesses through `ch` (see [`drive`]).
    fn drive(&self, ch: &mut DramChannel, after: impl FnMut(&mut DramChannel, Picos)) {
        let (switch, pd, mode) = (self.switch_every, self.pd_every, self.pd_mode());
        drive(ch, self.topology(), &self.accesses, switch, pd, mode, after);
    }

    /// Audits the whole stream at once.
    fn whole(&self) -> AuditReport {
        let (mut ch, mut auditor) = self.setup();
        self.drive(&mut ch, |_, _| {});
        auditor.ingest(&ch.drain_events());
        auditor.finalize()
    }

    /// Audits the stream released at the channel's watermark after every
    /// `release_gaps` accesses; also returns how many commands replayed
    /// before the final drain.
    fn streamed(&self) -> (AuditReport, usize) {
        let (mut ch, mut auditor) = self.setup();
        let mut gaps = self.release_gaps.iter().cycle();
        let mut until_release = *gaps.next().unwrap();
        let mut batch = Vec::new();
        let mut released = 0;
        self.drive(&mut ch, |ch, now| {
            until_release -= 1;
            if until_release == 0 {
                let watermark = ch.event_watermark(now);
                ch.drain_events_below(watermark, &mut batch);
                released += batch.len();
                auditor.ingest(&batch);
                batch.clear();
                auditor.release(watermark);
                until_release = *gaps.next().unwrap();
            }
        });
        auditor.ingest(&ch.drain_events());
        (auditor.finalize(), released)
    }
}

fn stream_case_strategy() -> impl Strategy<Value = StreamCase> {
    (
        (0usize..MemGeneration::ALL.len(), 0usize..4, 0usize..8),
        (0usize..9, 0usize..7, freq_strategy()),
        (1u64..40, any::<bool>()),
        prop::collection::vec(access_strategy(), 1..150),
        prop::collection::vec(1usize..20, 1..8),
    )
        .prop_map(
            |(
                (g, pd, weak),
                (switch_every, pd_every, initial),
                (gap_scale, sparse_rank),
                mut accesses,
                release_gaps,
            )| {
                let generation = MemGeneration::ALL[g];
                let deep = generation.has_deep_power_down();
                let auto_pd = match pd {
                    0 => None,
                    1 => Some(PowerDownMode::Fast),
                    2 => Some(PowerDownMode::Slow),
                    _ => Some(if deep {
                        PowerDownMode::Deep
                    } else {
                        PowerDownMode::Slow
                    }),
                };
                // Stretched gaps and a rarely touched rank 0 leave refresh
                // arrears and long-pending auto-precharges behind the
                // other ranks' traffic. Auto-powerdown runs closed-page, as
                // the controller drives it: the model drops CKE at the
                // activity horizon without closing a kept-open row.
                for (i, a) in accesses.iter_mut().enumerate() {
                    a.gap_ns *= gap_scale;
                    a.keep_open &= auto_pd.is_none();
                    if sparse_rank && a.rank == 0 && i % 16 != 0 {
                        a.rank = 1;
                    }
                }
                StreamCase {
                    generation,
                    auto_pd,
                    // Half the cases run a weakened engine.
                    weakening: weak.checked_sub(WEAKENINGS.len()),
                    switch_every,
                    pd_every,
                    initial,
                    accesses,
                    release_gaps,
                }
            },
        )
}

/// One call the recording-only-observes property makes on both channels.
#[derive(Debug, Clone)]
enum Op {
    Access(Access),
    Switch(MemFreq),
    /// Explicit powerdown of a rank, when it is idle enough.
    PowerDown(usize, PowerDownMode),
    /// A late REF (a full tREFI drops one).
    SlipRefresh(Picos),
    /// A fault-injected overrun of the next relock.
    RelockOverrun(Picos),
}

/// An operation and the nanoseconds since the previous one.
fn step_strategy() -> impl Strategy<Value = (u64, Op)> {
    let modes = [
        PowerDownMode::Fast,
        PowerDownMode::Slow,
        PowerDownMode::Deep,
    ];
    (
        0u8..16,
        access_strategy(),
        freq_strategy(),
        0u64..400_000,
        0usize..3,
    )
        .prop_map(move |(op, access, freq, idle_ns, mode)| {
            // One step in sixteen idles up to 400 µs: past the 2 × 8 tREFI
            // beyond which a rank bulk-accounts its refresh arrears.
            let gap_ns = if op == 15 { idle_ns } else { access.gap_ns };
            let op = match op {
                11 => Op::Switch(freq),
                12 | 13 => Op::PowerDown(access.rank, modes[mode]),
                14 if idle_ns % 2 == 0 => Op::SlipRefresh(Picos::from_ns(1 + idle_ns % 8_000)),
                14 => Op::RelockOverrun(Picos::from_ns(idle_ns / 4)),
                _ => Op::Access(access),
            };
            (gap_ns, op)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording only observes: a channel that records its commands and
    /// releases them below its watermark, as the simulator does, returns
    /// the same timelines, relock times and refresh-slip counts as a silent
    /// channel, and ends with the same channel and rank statistics — on
    /// every generation, across frequency switches and relock overruns,
    /// explicit and automatic powerdown, refresh slips, and idle gaps long
    /// enough for refresh arrears to be bulk-accounted.
    #[test]
    fn recording_only_observes(
        g in 0usize..MemGeneration::ALL.len(),
        auto_pd in 0usize..3,
        initial in freq_strategy(),
        release_every in 1usize..24,
        steps in prop::collection::vec(step_strategy(), 1..800),
    ) {
        let generation = MemGeneration::ALL[g];
        let cfg = DramTimingConfig::for_generation(generation);
        let (ranks, banks) = topology(generation);
        let auto_pd = [None, Some(PowerDownMode::Fast), Some(PowerDownMode::Slow)][auto_pd];
        let [mut silent, mut recording] = [false, true].map(|on| {
            let mut ch = DramChannel::new(&cfg, ranks, banks, initial);
            ch.set_event_recording(on);
            ch.set_auto_power_down(auto_pd);
            ch
        });
        let mut now = Picos::ZERO;
        let (mut batch, mut released) = (Vec::new(), 0);
        for (i, (gap_ns, op)) in steps.iter().enumerate() {
            now += Picos::from_ns(*gap_ns);
            let both = [&mut silent, &mut recording];
            match op {
                Op::Access(a) => {
                    let kind = if a.write { AccessKind::Write } else { AccessKind::Read };
                    let (rank, bank) = (RankId(a.rank % ranks), BankId(a.bank % banks));
                    let [s, r] = both.map(|ch| ch.service(rank, bank, a.row, kind, now, a.keep_open));
                    prop_assert_eq!(s, r, "step {}", i);
                }
                Op::Switch(freq) => {
                    let [s, r] = both.map(|ch| ch.set_frequency(*freq, now));
                    prop_assert_eq!(s, r, "step {}", i);
                }
                Op::PowerDown(rank, mode) => {
                    let rank = RankId(rank % ranks);
                    if both[0].can_power_down(rank, now) {
                        // Panics unless the recording channel is idle too.
                        for ch in both {
                            ch.enter_power_down(rank, *mode, now);
                        }
                    }
                }
                Op::SlipRefresh(by) => {
                    let [s, r] = both.map(|ch| ch.delay_refresh(*by, now));
                    prop_assert_eq!(s, r, "step {}", i);
                }
                Op::RelockOverrun(by) => {
                    for ch in both {
                        ch.arm_relock_overrun(*by);
                    }
                }
            }
            if i % release_every == 0 {
                recording.drain_events_below(recording.event_watermark(now), &mut batch);
                released += batch.len();
                batch.clear();
            }
        }
        silent.sync(now);
        recording.sync(now);
        prop_assert_eq!(silent.stats(), recording.stats());
        for rank in (0..ranks).map(RankId) {
            prop_assert_eq!(silent.rank_stats(rank), recording.rank_stats(rank));
        }
        // Neither side is vacuous: one channel recorded, the other did not.
        prop_assert_eq!(silent.held_events(), 0);
        if silent.stats().total_accesses() > 0 {
            prop_assert!(released + recording.held_events() > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary read/write/keep-open streams replay with zero violations.
    #[test]
    fn random_streams_conform(
        accesses in prop::collection::vec(access_strategy(), 1..150),
        initial in freq_strategy(),
    ) {
        let report = run_and_audit(&accesses, 0, initial);
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert!(report.commands_checked >= accesses.len());
    }

    /// Frequency switches landing mid-stream — including inside open tFAW
    /// four-activate windows and tRRD spacing chains — never produce a
    /// protocol violation: the relock must quiesce the channel first.
    #[test]
    fn freq_switches_inside_act_windows_conform(
        accesses in prop::collection::vec(access_strategy(), 8..120),
        switch_every in 2usize..9,
        initial in freq_strategy(),
    ) {
        let report = run_and_audit(&accesses, switch_every, initial);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Dense same-rank activate bursts right up against a switch: the
    /// specific tFAW/tRRD rules stay silent.
    #[test]
    fn tfaw_window_survives_a_switch(
        rows in prop::collection::vec(0u64..64, 5..12),
        switch_at in 1usize..5,
        target in freq_strategy(),
    ) {
        let cfg = DramTimingConfig::default();
        let mut ch = DramChannel::new(&cfg, RANKS, BANKS, MemFreq::F800);
        ch.set_event_recording(true);
        // All ACTs on one rank, distinct banks, dispatched at the same
        // instant: the engine must space them by tRRD/tFAW on its own.
        for (i, &row) in rows.iter().enumerate() {
            if i == switch_at {
                ch.set_frequency(target, Picos::from_ns(1));
            }
            ch.service(
                RankId(0),
                BankId(i % BANKS),
                row,
                AccessKind::Read,
                Picos::from_ns(1),
                false,
            );
        }
        let events = ch.drain_events();
        let mut auditor = ProtocolAuditor::new(&cfg, 1, RANKS, BANKS, MemFreq::F800);
        auditor.ingest(&events);
        let report = auditor.finalize();
        let fired: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
        prop_assert!(!fired.contains(&Rule::TFaw), "{}", report);
        prop_assert!(!fired.contains(&Rule::TRrd), "{}", report);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// DDR4 bank-group scheduling: arbitrary streams — with frequency
    /// switches landing inside open same-group tCCD_L/tRRD_L chains — replay
    /// clean against the DDR4 rule pack. Banks 0–7 of a 16-bank rank cover
    /// every group twice, so same-group CAS pairs occur constantly.
    #[test]
    fn ddr4_bank_group_streams_conform(
        accesses in prop::collection::vec(access_strategy(), 8..150),
        switch_every in 0usize..9,
        initial in freq_strategy(),
    ) {
        let cfg = DramTimingConfig::ddr4();
        let report = run_and_audit_cfg(&cfg, 2, 16, &accesses, switch_every, 0, initial);
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert!(report.commands_checked >= accesses.len());
    }

    /// Dense DDR4 same-group bursts (banks 0 and 4, group 0) dispatched at
    /// one instant across a mid-chain switch: the bank-group rules
    /// specifically stay silent.
    #[test]
    fn ddr4_same_group_chain_survives_a_switch(
        rows in prop::collection::vec(0u64..64, 4..10),
        switch_at in 1usize..4,
        target in freq_strategy(),
    ) {
        let cfg = DramTimingConfig::ddr4();
        let mut ch = DramChannel::new(&cfg, 2, 16, MemFreq::F800);
        ch.set_event_recording(true);
        for (i, &row) in rows.iter().enumerate() {
            if i == switch_at {
                ch.set_frequency(target, Picos::from_ns(1));
            }
            // Alternate between the two group-0 banks of rank 0.
            ch.service(
                RankId(0),
                BankId(if i % 2 == 0 { 0 } else { 4 }),
                row,
                AccessKind::Read,
                Picos::from_ns(1),
                false,
            );
        }
        let events = ch.drain_events();
        let mut auditor = ProtocolAuditor::new(&cfg, 1, 2, 16, MemFreq::F800);
        auditor.ingest(&events);
        let report = auditor.finalize();
        let fired: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
        prop_assert!(!fired.contains(&Rule::TCcdL), "{}", report);
        prop_assert!(!fired.contains(&Rule::TRrdL), "{}", report);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// LPDDR3 streams with opportunistic deep power-down entries, per-bank
    /// refresh catch-up and frequency switches replay clean — every exit
    /// pays tXDPD and every per-bank REF lands on schedule.
    #[test]
    fn lpddr3_deep_pd_streams_conform(
        accesses in prop::collection::vec(access_strategy(), 8..150),
        switch_every in 0usize..9,
        pd_every in 1usize..7,
        initial in freq_strategy(),
    ) {
        let cfg = DramTimingConfig::lpddr3();
        let report =
            run_and_audit_cfg(&cfg, RANKS, BANKS, &accesses, switch_every, pd_every, initial);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Releasing a stream at the channel's watermark in random batches —
    /// on every generation, with frequency switches, explicit powerdown and
    /// every auto-powerdown mode, on strict and weakened engines — reports
    /// the same violations in the same order, and the same command count,
    /// as auditing the whole stream at once.
    #[test]
    fn streamed_audit_equals_whole_stream_audit(case in stream_case_strategy()) {
        let whole = case.whole();
        let (streamed, _) = case.streamed();
        prop_assert_eq!(&streamed, &whole);
        if case.weakening.is_none() {
            prop_assert!(whole.is_clean(), "{}", whole);
        }
    }
}

/// The watermark does not lag far: a long stream releases most of its
/// commands before the end of the run.
#[test]
fn watermark_releases_most_commands_before_the_end() {
    let accesses: Vec<Access> = (0..2_000u64)
        .map(|i| Access {
            rank: usize::try_from(i % 4).unwrap(),
            bank: usize::try_from((i / 4) % 8).unwrap(),
            row: i % 13,
            write: i % 5 == 0,
            keep_open: false,
            gap_ns: 20 + i % 50,
        })
        .collect();
    for generation in MemGeneration::ALL {
        let case = StreamCase {
            generation,
            auto_pd: Some(PowerDownMode::Fast),
            weakening: None,
            switch_every: 97,
            pd_every: 0,
            initial: MemFreq::F800,
            accesses: accesses.clone(),
            release_gaps: vec![16],
        };
        let (streamed, released) = case.streamed();
        assert_eq!(streamed, case.whole());
        assert!(streamed.is_clean(), "{streamed}");
        assert!(
            released * 10 >= streamed.commands_checked * 9,
            "{generation}: only {released} of {} commands released early",
            streamed.commands_checked
        );
    }
}
