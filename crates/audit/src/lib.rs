//! Standalone DRAM protocol conformance checker with per-generation rule
//! packs (DDR3, DDR4, LPDDR3).
//!
//! The DRAM and memory-controller crates emit one [`CmdEvent`] per
//! device-level command they schedule while recording is switched on at run
//! time; every simulation switches it on. A [`ProtocolAuditor`] replays
//! that stream against an *independent* implementation of the DDR3 timing rules — `tRCD`, `tRP`, `tCL`, `tRAS`,
//! `tRTP`, `tWR`, `tRRD`, the `tFAW` four-activate window, `tREFI`/`tRFC`,
//! `tXP`/`tXPDLL`, the frequency re-lock penalty — plus the bank and rank
//! state machines (no CAS to a precharged bank, no command to a powered-down
//! rank or inside a re-lock window, no overlapping bursts on the shared data
//! bus). Any discrepancy becomes a structured [`Violation`] naming the
//! [`Rule`], location and both timestamps involved.
//!
//! The generation tag of the [`DramTimingConfig`] selects additional rule
//! packs: DDR4 configurations (bank groups) also enforce same-bank-group
//! `tCCD_L` CAS spacing and `tRRD_L` ACT spacing; LPDDR3 configurations also
//! check the deep power-down lifecycle (`tXDPD` exit latency) and per-bank
//! refresh (`tRFCpb` duration, bank-addressed REF commands, `tREFI / banks`
//! postponement bound).
//!
//! The checker is deliberately decoupled: it depends only on `memscale-types`
//! and recomputes every latency from the raw [`DramTimingConfig`], so a bug
//! in the timing engine cannot silently excuse itself.
//!
//! # Documented model approximations the auditor does not flag
//!
//! The simulator takes a few scheduling shortcuts that are accounted
//! correctly in time and energy but would look like protocol slips to a
//! maximally strict checker. The auditor mirrors these documented decisions
//! (see `DESIGN.md`):
//!
//! * **Refresh vs. in-flight commands** — postponed refreshes are replayed
//!   retroactively when a rank is next touched, so a REF interval may overlap
//!   command/burst tails scheduled earlier. REF commands are therefore only
//!   checked against each other (`tRFC` duration, no overlap, `tREFI`
//!   postponement bound) and against re-lock windows.
//! * **Refresh vs. powerdown** — refresh bookkeeping continues while a rank
//!   is powered down (the model folds it into background accounting), so REF
//!   is exempt from the rank power-state check.
//! * **Precharge tails inside re-lock windows** — a write's auto-precharge
//!   (`tWR` recovery) may complete after a re-lock began; PRE is exempt from
//!   the re-lock-window and powerdown-exit checks.
//! * **PRE to an already-precharged bank** is a legal no-op in DDR3 and is
//!   ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use memscale_types::config::DramTimingConfig;
use memscale_types::events::{CmdEvent, CmdKind};
use memscale_types::freq::MemFreq;
use memscale_types::ids::{BankId, ChannelId, RankId};
use memscale_types::time::Picos;
use std::collections::VecDeque;
use std::fmt;

/// DDR3 permits postponing at most eight REF commands, bounding the gap
/// between consecutive refreshes to nine `tREFI`.
const MAX_POSTPONED_REFRESH: u64 = 8;

/// The protocol rule a [`Violation`] breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// ACT-to-CAS delay (`tRCD`).
    TRcd,
    /// Precharge duration before the next ACT (`tRP`).
    TRp,
    /// CAS-to-first-data-beat latency (`tCL`), checked exactly.
    TCl,
    /// Minimum ACT-to-PRE interval (`tRAS`).
    TRas,
    /// Read CAS to PRE (`tRTP`).
    TRtp,
    /// End of write burst to PRE (`tWR`).
    TWr,
    /// ACT-to-ACT spacing within a rank (`tRRD`).
    TRrd,
    /// Four-activate window within a rank (`tFAW`).
    TFaw,
    /// Refresh postponement bound (at most eight REFs, nine `tREFI`).
    TRefi,
    /// Refresh duration / overlap (`tRFC`).
    TRfc,
    /// Fast-exit powerdown exit latency (`tXP`).
    TXp,
    /// Slow-exit powerdown exit latency (`tXPDLL`).
    TXpdll,
    /// Frequency re-lock must reserve the full penalty window.
    RelockPenalty,
    /// No command may issue inside a frequency re-lock window.
    RelockWindow,
    /// Bank state machine: CAS needs an open row, ACT a precharged bank,
    /// powerdown entry an idle rank.
    BankState,
    /// Rank power state machine: commands need a powered-up rank; exits need
    /// a powered-down one.
    RankPowerState,
    /// Data bursts on a channel's shared bus must not overlap.
    BusOverlap,
    /// A burst must span exactly `burst_cycles` at the current frequency.
    BurstLength,
    /// Event addresses a channel/rank/bank outside the configured topology,
    /// or an unknown operating point.
    Topology,
    /// Same-bank-group CAS-to-CAS spacing (DDR4 `tCCD_L`).
    TCcdL,
    /// Same-bank-group ACT-to-ACT spacing (DDR4 `tRRD_L`).
    TRrdL,
    /// Deep power-down exit latency (LPDDR `tXDPD`), and deep power-down
    /// events on a generation without the state.
    TXdpd,
    /// Per-bank refresh duration / addressing (LPDDR `tRFCpb`).
    TRfcPb,
}

impl Rule {
    /// Every rule the auditor knows, in declaration order.
    pub const ALL: [Rule; 23] = [
        Rule::TRcd,
        Rule::TRp,
        Rule::TCl,
        Rule::TRas,
        Rule::TRtp,
        Rule::TWr,
        Rule::TRrd,
        Rule::TFaw,
        Rule::TRefi,
        Rule::TRfc,
        Rule::TXp,
        Rule::TXpdll,
        Rule::RelockPenalty,
        Rule::RelockWindow,
        Rule::BankState,
        Rule::RankPowerState,
        Rule::BusOverlap,
        Rule::BurstLength,
        Rule::Topology,
        Rule::TCcdL,
        Rule::TRrdL,
        Rule::TXdpd,
        Rule::TRfcPb,
    ];

    /// Short display name (`tRCD`, `bank-state`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Rule::TRcd => "tRCD",
            Rule::TRp => "tRP",
            Rule::TCl => "tCL",
            Rule::TRas => "tRAS",
            Rule::TRtp => "tRTP",
            Rule::TWr => "tWR",
            Rule::TRrd => "tRRD",
            Rule::TFaw => "tFAW",
            Rule::TRefi => "tREFI",
            Rule::TRfc => "tRFC",
            Rule::TXp => "tXP",
            Rule::TXpdll => "tXPDLL",
            Rule::RelockPenalty => "relock-penalty",
            Rule::RelockWindow => "relock-window",
            Rule::BankState => "bank-state",
            Rule::RankPowerState => "rank-power-state",
            Rule::BusOverlap => "bus-overlap",
            Rule::BurstLength => "burst-length",
            Rule::Topology => "topology",
            Rule::TCcdL => "tCCD_L",
            Rule::TRrdL => "tRRD_L",
            Rule::TXdpd => "tXDPD",
            Rule::TRfcPb => "tRFCpb",
        }
    }

    /// The [`DramTimingConfig`] fields this rule independently re-derives a
    /// latency from when replaying a command stream. A field listed here is
    /// *guarded*: if the timing engine honors the wrong value, this rule's
    /// recomputation from the raw config catches the discrepancy. Structural
    /// rules (state machines, topology) return an empty slice — they guard
    /// command legality, not a numeric parameter.
    ///
    /// Field names match `memscale_types::invariants::TimingParam::field`, so
    /// coverage tooling can cross-reference the two universes mechanically.
    pub fn guarded_params(self) -> &'static [&'static str] {
        match self {
            Rule::TRcd => &["t_rcd_ns"],
            Rule::TRp => &["t_rp_ns"],
            Rule::TCl => &["t_cl_ns"],
            Rule::TRas => &["t_ras_ns"],
            Rule::TRtp => &["t_rtp_ns"],
            Rule::TWr => &["t_wr_ns"],
            Rule::TRrd => &["t_rrd_ns"],
            Rule::TFaw => &["t_faw_ns"],
            Rule::TRefi => &["refresh_period_ms", "refresh_commands"],
            Rule::TRfc => &["t_rfc_ns"],
            Rule::TXp => &["t_xp_ns"],
            Rule::TXpdll => &["t_xpdll_ns"],
            Rule::RelockPenalty | Rule::RelockWindow => &["relock_cycles", "relock_extra_ns"],
            // The bus-overlap check spaces bursts by the larger of the burst
            // itself and the short CAS-to-CAS gap, so it guards both.
            Rule::BusOverlap => &["burst_cycles", "t_ccd_s_cycles"],
            Rule::BurstLength => &["burst_cycles"],
            Rule::TCcdL => &["t_ccd_l_cycles", "bank_groups"],
            Rule::TRrdL => &["t_rrd_l_ns", "bank_groups"],
            Rule::TXdpd => &["t_xdpd_ns"],
            Rule::TRfcPb => &["t_rfc_pb_ns", "per_bank_refresh"],
            Rule::BankState | Rule::RankPowerState | Rule::Topology => &[],
        }
    }

    /// The rules the auditor arms for `cfg`: the DDR3 base pack always, the
    /// bank-group pack when the generation splits banks into groups, the
    /// deep power-down pack when the generation has the state, and the
    /// per-bank-refresh pack when `REFpb` is configured.
    ///
    /// [`TXdpd`](Rule::TXdpd) stays armed on *every* generation in the sense
    /// that deep power-down events on a generation without the state are
    /// violations, but the pack lists only rules that actively re-derive
    /// latencies for the configuration, which is what coverage analysis
    /// needs.
    pub fn rule_pack(cfg: &DramTimingConfig) -> Vec<Rule> {
        let mut pack: Vec<Rule> = Rule::ALL
            .into_iter()
            .filter(|r| !matches!(r, Rule::TCcdL | Rule::TRrdL | Rule::TXdpd | Rule::TRfcPb))
            .collect();
        if cfg.bank_groups > 1 {
            pack.push(Rule::TCcdL);
            pack.push(Rule::TRrdL);
        }
        if cfg.generation.has_deep_power_down() {
            pack.push(Rule::TXdpd);
        }
        if cfg.per_bank_refresh {
            pack.push(Rule::TRfcPb);
        }
        pack
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One conformance violation: which rule, where, when, and against what
/// reference time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule breached.
    pub rule: Rule,
    /// Channel of the offending command.
    pub channel: ChannelId,
    /// Rank of the offending command.
    pub rank: RankId,
    /// Bank, for bank-scoped commands.
    pub bank: Option<BankId>,
    /// When the offending command issued.
    pub at: Picos,
    /// The reference instant the rule measures from (e.g. the prior ACT for
    /// `tRCD`, the bus-free time for an overlap).
    pub reference: Picos,
    /// Human-readable explanation with the concrete latencies involved.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {}", self.rule, self.channel, self.rank)?;
        if let Some(bank) = self.bank {
            write!(f, " {bank}")?;
        }
        write!(
            f,
            " at {} (reference {}): {}",
            self.at, self.reference, self.detail
        )
    }
}

/// Outcome of auditing one event stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Every violation found, in replay order.
    pub violations: Vec<Violation>,
    /// Number of command events replayed.
    pub commands_checked: usize,
}

impl AuditReport {
    /// Whether the stream was fully conformant.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one. Fault sweeps audit many seeded
    /// runs and want a single conformance verdict over the whole campaign;
    /// violations keep their per-run replay order, concatenated.
    pub fn absorb(&mut self, other: AuditReport) {
        self.commands_checked += other.commands_checked;
        self.violations.extend(other.violations);
    }

    /// A one-line summary plus the first few violations, for test failures.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} violation(s) in {} command(s)",
            self.violations.len(),
            self.commands_checked
        );
        for v in self.violations.iter().take(8) {
            s.push_str("\n  ");
            s.push_str(&v.to_string());
        }
        s
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankState {
    /// Precharged; the next ACT may issue at `ready` (`tRP` accounted).
    Closed { ready: Picos },
    /// A row is latched in the row buffer.
    Open {
        row: u64,
        act_at: Picos,
        /// Latest read CAS since the ACT (for `tRTP`).
        last_read_cas: Option<Picos>,
        /// Latest write-burst end since the ACT (for `tWR`).
        last_write_end: Option<Picos>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Power {
    Up,
    Down { fast: bool, since: Picos },
    DeepDown { since: Picos },
}

#[derive(Debug, Clone)]
struct RankState {
    power: Power,
    /// Earliest instant a command may issue after a powerdown exit.
    ready_at: Picos,
    /// Up to four most recent ACT issue times (`tRRD`/`tFAW` history).
    acts: VecDeque<Picos>,
    /// Most recent ACT per bank group (`tRRD_L`; one slot when the
    /// generation has no bank groups).
    group_acts: Vec<Option<Picos>>,
    /// Most recent CAS per bank group (`tCCD_L`).
    group_cas: Vec<Option<Picos>>,
    /// Issue time and completion of the most recent REF.
    last_ref: Option<(Picos, Picos)>,
    banks: Vec<BankState>,
}

impl RankState {
    fn new(banks: usize, groups: usize) -> Self {
        let groups = groups.max(1);
        RankState {
            power: Power::Up,
            ready_at: Picos::ZERO,
            acts: VecDeque::with_capacity(4),
            group_acts: vec![None; groups],
            group_cas: vec![None; groups],
            last_ref: None,
            banks: vec![BankState::Closed { ready: Picos::ZERO }; banks],
        }
    }
}

#[derive(Debug, Clone)]
struct ChannelState {
    freq: MemFreq,
    /// A data burst (`burst_cycles`) at `freq`.
    burst: Picos,
    /// Same-bank-group CAS spacing (`tCCD_L`) at `freq`.
    t_ccd_l: Picos,
    bus_busy_until: Picos,
    /// Start and end of the most recent re-lock window.
    relock: Option<(Picos, Picos)>,
    ranks: Vec<RankState>,
}

impl ChannelState {
    /// Locks the channel at `freq` and re-derives its cycle-based
    /// latencies, so CAS replay does no division.
    fn lock(&mut self, freq: MemFreq, cfg: &DramTimingConfig) {
        self.freq = freq;
        self.burst = freq.cycle() * u64::from(cfg.burst_cycles);
        self.t_ccd_l = freq.cycle() * u64::from(cfg.t_ccd_l_cycles);
    }
}

/// The config's nanosecond latencies as simulator time, resolved once when
/// the auditor is built so replay does no float arithmetic per command.
#[derive(Debug, Clone, Copy)]
struct Latencies {
    t_rcd: Picos,
    t_rp: Picos,
    t_cl: Picos,
    t_ras: Picos,
    t_rtp: Picos,
    t_wr: Picos,
    t_rrd: Picos,
    t_faw: Picos,
    t_rrd_l: Picos,
    t_rfc: Picos,
    t_rfc_pb: Picos,
    t_refi: Picos,
    /// The per-bank refresh interval, `tREFI / banks`.
    t_refi_pb: Picos,
    t_xp: Picos,
    t_xpdll: Picos,
    t_xdpd: Picos,
    /// The fixed part of the re-lock penalty.
    relock_extra: Picos,
}

impl Latencies {
    fn new(cfg: &DramTimingConfig, banks_per_rank: usize) -> Self {
        let t_refi = cfg.t_refi();
        Latencies {
            t_rcd: cfg.t_rcd(),
            t_rp: cfg.t_rp(),
            t_cl: cfg.t_cl(),
            t_ras: cfg.t_ras(),
            t_rtp: cfg.t_rtp(),
            t_wr: cfg.t_wr(),
            t_rrd: cfg.t_rrd(),
            t_faw: cfg.t_faw(),
            t_rrd_l: cfg.t_rrd_l(),
            t_rfc: cfg.t_rfc(),
            t_rfc_pb: cfg.t_rfc_pb(),
            t_refi,
            t_refi_pb: t_refi.scale(1.0 / banks_per_rank as f64),
            t_xp: cfg.t_xp(),
            t_xpdll: cfg.t_xpdll(),
            t_xdpd: cfg.t_xdpd(),
            relock_extra: Picos::from_ns_f64(cfg.relock_extra_ns),
        }
    }
}

/// Replays a [`CmdEvent`] stream against the DDR3 rules of one
/// [`DramTimingConfig`].
///
/// Events may be ingested in any order (emitters future-date auto-precharges
/// and synthesize powerdown entries retroactively); the auditor sorts by
/// timestamp before replay. Typical use:
///
/// ```
/// use memscale_audit::ProtocolAuditor;
/// use memscale_types::config::DramTimingConfig;
/// use memscale_types::freq::MemFreq;
///
/// let cfg = DramTimingConfig::default();
/// let mut auditor = ProtocolAuditor::new(&cfg, 4, 4, 8, MemFreq::F800);
/// auditor.ingest(&[]);
/// let report = auditor.finalize();
/// assert!(report.is_clean());
/// ```
///
/// A long run need not hold its whole stream: once the emitter can vouch
/// that no command dated below some instant is still to come, it
/// [`release`](Self::release)s that watermark and the auditor replays the
/// commands dated below it right away. Releases cut the stream into
/// disjoint, increasing time ranges, so the report is identical to one
/// [`finalize`](Self::finalize) over the whole stream. A command ingested
/// below an already-released watermark would break that equivalence and
/// panics.
#[derive(Debug, Clone)]
pub struct ProtocolAuditor {
    replay: Replay,
    /// Ingested commands not yet replayed, in ingest order.
    pending: Vec<CmdEvent>,
    /// Sort keys of one release's commands (see
    /// [`replay_pending`](Self::replay_pending)), reused across releases.
    keys: Vec<u64>,
    /// Every command dated strictly below this instant has been replayed.
    released: Picos,
    commands_checked: usize,
}

impl ProtocolAuditor {
    /// Creates an auditor for a system of `channels` × `ranks_per_channel` ×
    /// `banks_per_rank`, all channels initially locked at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if a timing of `cfg` resolves to
    /// a non-finite or negative latency. Every latency is resolved here,
    /// when the auditor is built, not when a command first needs it.
    pub fn new(
        cfg: &DramTimingConfig,
        channels: usize,
        ranks_per_channel: usize,
        banks_per_rank: usize,
        initial: MemFreq,
    ) -> Self {
        assert!(
            channels > 0 && ranks_per_channel > 0 && banks_per_rank > 0,
            "auditor needs a non-empty topology"
        );
        ProtocolAuditor {
            replay: Replay::new(cfg, channels, ranks_per_channel, banks_per_rank, initial),
            pending: Vec::new(),
            keys: Vec::new(),
            released: Picos::ZERO,
            commands_checked: 0,
        }
    }

    /// Adds events to the stream under audit (any order).
    ///
    /// # Panics
    ///
    /// Panics if an event is dated below an already-released watermark.
    pub fn ingest(&mut self, events: &[CmdEvent]) {
        for e in events {
            assert!(
                e.at >= self.released,
                "command {e} dated below the released audit watermark {}",
                self.released
            );
        }
        self.pending.extend_from_slice(events);
    }

    /// Replays every ingested event dated strictly below `watermark`. The
    /// caller vouches that every event dated below it has been ingested;
    /// later events are held until a higher watermark or
    /// [`finalize`](Self::finalize).
    pub fn release(&mut self, watermark: Picos) {
        self.replay_pending(Some(watermark));
        self.released = self.released.max(watermark);
    }

    /// Replays the rest of the stream and reports every violation found.
    pub fn finalize(mut self) -> AuditReport {
        self.replay_pending(None);
        AuditReport {
            violations: self.replay.violations,
            commands_checked: self.commands_checked,
        }
    }

    /// Replays the held events below `watermark` (all of them without
    /// one) in `(at, replay_priority, ingest index)` order and keeps the
    /// rest in ingest order.
    ///
    /// Each event is sorted by a `u64` key: its time as an offset from a
    /// window base, then its priority, then its index in `pending`. The
    /// index makes every key unique, so the unstable key sort yields
    /// exactly the stable order by `(at, replay_priority)`: same-instant,
    /// same-priority events replay in ingest order, and a stream released
    /// in batches replays exactly as it would sorted whole. The offset gets
    /// the bits the index leaves (`2^37` ps, about 137 ms, while fewer than
    /// 16 M events are held); events beyond that replay in later windows,
    /// so in practice every batch is one window. A `u128` key would hold
    /// any time without windows, but sorts measurably slower.
    fn replay_pending(&mut self, watermark: Option<Picos>) {
        let below = |e: &CmdEvent| watermark.is_none_or(|w| e.at < w);
        let index_bits = usize::BITS - self.pending.len().leading_zeros();
        let time_shift = PRIORITY_BITS + index_bits;
        let index_mask = (1 << index_bits) - 1;
        // Every held event is dated at or after the released watermark.
        let mut base = self.released;
        loop {
            let offset = |e: &CmdEvent| (e.at - base).as_ps();
            let fits = |e: &CmdEvent| offset(e) >> (u64::BITS - time_shift) == 0;
            // The earliest due event beyond this window, if any.
            let mut later: Option<Picos> = None;
            self.keys.clear();
            for (i, e) in self.pending.iter().enumerate().filter(|(_, e)| below(e)) {
                if fits(e) {
                    let priority = u64::from(replay_priority(&e.kind));
                    self.keys
                        .push((offset(e) << time_shift) | (priority << index_bits) | i as u64);
                } else {
                    later = Some(later.map_or(e.at, |t| t.min(e.at)));
                }
            }
            self.keys.sort_unstable();
            for &key in &self.keys {
                self.replay.step(&self.pending[key_index(key, index_mask)]);
            }
            self.commands_checked += self.keys.len();
            self.pending.retain(|e| !(below(e) && fits(e)));
            match later {
                Some(t) => base = t,
                None => return,
            }
        }
    }
}

/// Bits a replay key spends on the [`replay_priority`].
const PRIORITY_BITS: u32 = 3;

/// The `pending` index a replay key carries in its low bits.
#[allow(clippy::cast_possible_truncation)] // the index was a usize
fn key_index(key: u64, index_mask: u64) -> usize {
    (key & index_mask) as usize
}

/// Tie-break for same-instant events: state transitions that *enable*
/// commands (powerdown exit, re-lock completion bookkeeping) replay before
/// the commands themselves; powerdown entry replays last.
fn replay_priority(kind: &CmdKind) -> u8 {
    match kind {
        CmdKind::PowerDownExit { .. } | CmdKind::DeepPowerDownExit { .. } => 0,
        CmdKind::FreqSwitch { .. } => 1,
        CmdKind::Refresh { .. } => 2,
        CmdKind::Precharge => 3,
        CmdKind::Activate { .. } => 4,
        CmdKind::CasRead { .. } | CmdKind::CasWrite { .. } => 5,
        CmdKind::PowerDownEnter { .. } | CmdKind::DeepPowerDownEnter => 6,
    }
}

#[derive(Debug, Clone)]
struct Replay {
    cfg: DramTimingConfig,
    lat: Latencies,
    channels: Vec<ChannelState>,
    violations: Vec<Violation>,
}

impl Replay {
    fn new(
        cfg: &DramTimingConfig,
        channels: usize,
        ranks_per_channel: usize,
        banks_per_rank: usize,
        initial: MemFreq,
    ) -> Self {
        Replay {
            cfg: cfg.clone(),
            lat: Latencies::new(cfg, banks_per_rank),
            channels: (0..channels)
                .map(|_| {
                    let mut ch = ChannelState {
                        freq: initial,
                        burst: Picos::ZERO,
                        t_ccd_l: Picos::ZERO,
                        bus_busy_until: Picos::ZERO,
                        relock: None,
                        ranks: (0..ranks_per_channel)
                            .map(|_| RankState::new(banks_per_rank, usize::from(cfg.bank_groups)))
                            .collect(),
                    };
                    ch.lock(initial, cfg);
                    ch
                })
                .collect(),
            violations: Vec::new(),
        }
    }

    fn relock_penalty(&self, to: MemFreq) -> Picos {
        to.cycle() * self.cfg.relock_cycles + self.lat.relock_extra
    }

    fn violate(&mut self, e: &CmdEvent, rule: Rule, reference: Picos, detail: String) {
        self.violations.push(Violation {
            rule,
            channel: e.channel,
            rank: e.rank,
            bank: e.bank,
            at: e.at,
            reference,
            detail,
        });
    }

    /// Validates topology addressing; returns `false` (after recording a
    /// violation) if the event cannot be replayed at all.
    fn addressable(&mut self, e: &CmdEvent) -> bool {
        let ch_ok = e.channel.index() < self.channels.len();
        let rank_ok = ch_ok && e.rank.index() < self.channels[e.channel.index()].ranks.len();
        let bank_ok = rank_ok
            && e.bank.is_none_or(|b| {
                b.index()
                    < self.channels[e.channel.index()].ranks[e.rank.index()]
                        .banks
                        .len()
            });
        if !(ch_ok && rank_ok && bank_ok) {
            self.violate(
                e,
                Rule::Topology,
                Picos::ZERO,
                "event addresses a channel, rank or bank outside the configured topology"
                    .to_string(),
            );
            return false;
        }
        true
    }

    /// Checks the rank power state and the re-lock window for a command that
    /// requires an operational rank (ACT and CAS; PRE and REF are exempt per
    /// the documented approximations).
    fn check_operational(&mut self, e: &CmdEvent) {
        let ch = &self.channels[e.channel.index()];
        let relock = ch.relock;
        let power = ch.ranks[e.rank.index()].power;
        let ready_at = ch.ranks[e.rank.index()].ready_at;
        if let Some((start, until)) = relock {
            if e.at >= start && e.at < until {
                self.violate(
                    e,
                    Rule::RelockWindow,
                    start,
                    format!("{} inside re-lock window ending {until}", e.kind.mnemonic()),
                );
            }
        }
        match power {
            Power::Down { since, .. } | Power::DeepDown { since } => {
                self.violate(
                    e,
                    Rule::RankPowerState,
                    since,
                    format!("{} to a rank powered down since {since}", e.kind.mnemonic()),
                );
            }
            Power::Up => {
                if e.at < ready_at {
                    self.violate(
                        e,
                        Rule::RankPowerState,
                        ready_at,
                        format!(
                            "{} before the rank finished its powerdown exit at {ready_at}",
                            e.kind.mnemonic()
                        ),
                    );
                }
            }
        }
    }

    fn step(&mut self, e: &CmdEvent) {
        if !self.addressable(e) {
            return;
        }
        match e.kind {
            CmdKind::Activate { row } => self.on_activate(e, row),
            CmdKind::CasRead {
                burst_start,
                burst_end,
            } => {
                self.on_cas(e, burst_start, burst_end, false);
            }
            CmdKind::CasWrite {
                burst_start,
                burst_end,
            } => {
                self.on_cas(e, burst_start, burst_end, true);
            }
            CmdKind::Precharge => self.on_precharge(e),
            CmdKind::Refresh { end } => self.on_refresh(e, end),
            CmdKind::PowerDownEnter { fast } => self.on_pd_enter(e, fast),
            CmdKind::PowerDownExit {
                fast,
                entered_at,
                ready,
            } => {
                self.on_pd_exit(e, fast, entered_at, ready);
            }
            CmdKind::DeepPowerDownEnter => self.on_dpd_enter(e),
            CmdKind::DeepPowerDownExit { entered_at, ready } => {
                self.on_dpd_exit(e, entered_at, ready);
            }
            CmdKind::FreqSwitch {
                from_mhz,
                to_mhz,
                ready,
            } => {
                self.on_freq_switch(e, from_mhz, to_mhz, ready);
            }
        }
    }

    fn on_activate(&mut self, e: &CmdEvent, row: u64) {
        self.check_operational(e);
        let Latencies {
            t_rp, t_rrd, t_faw, ..
        } = self.lat;
        let Some(bank_id) = e.bank else {
            self.violate(
                e,
                Rule::BankState,
                Picos::ZERO,
                "ACT without a bank".to_string(),
            );
            return;
        };
        let group = self.cfg.bank_group_of(bank_id);
        let rank = &self.channels[e.channel.index()].ranks[e.rank.index()];
        let bank_state = rank.banks[bank_id.index()];
        let last_act = rank.acts.back().copied();
        let last_group_act = rank.group_acts[group];
        let four_deep = (rank.acts.len() == 4).then(|| rank.acts[0]);

        // Bank must be precharged, and the precharge must have completed.
        match bank_state {
            BankState::Open {
                row: open, act_at, ..
            } => {
                self.violate(
                    e,
                    Rule::BankState,
                    act_at,
                    format!("ACT row {row} while row {open} is open (no PRE since {act_at})"),
                );
            }
            BankState::Closed { ready } => {
                if e.at < ready {
                    self.violate(
                        e,
                        Rule::TRp,
                        ready,
                        format!(
                            "ACT {} before the precharge completes at {ready} (tRP {t_rp})",
                            e.at
                        ),
                    );
                }
            }
        }

        // Rank-wide activate spacing.
        if let Some(last) = last_act {
            if e.at < last + t_rrd {
                self.violate(
                    e,
                    Rule::TRrd,
                    last,
                    format!("ACT {} within tRRD {t_rrd} of the ACT at {last}", e.at),
                );
            }
        }
        if let Some(oldest) = four_deep {
            if e.at < oldest + t_faw {
                self.violate(
                    e,
                    Rule::TFaw,
                    oldest,
                    format!(
                        "fifth ACT {} within tFAW {t_faw} of the window opened at {oldest}",
                        e.at
                    ),
                );
            }
        }

        // DDR4 rule pack: same-bank-group ACTs must also respect tRRD_L.
        if self.cfg.bank_groups > 1 {
            let t_rrd_l = self.lat.t_rrd_l;
            if let Some(last) = last_group_act {
                if e.at < last + t_rrd_l {
                    self.violate(
                        e,
                        Rule::TRrdL,
                        last,
                        format!(
                            "ACT {} within tRRD_L {t_rrd_l} of the same-group ACT at {last}",
                            e.at
                        ),
                    );
                }
            }
        }

        let rank = &mut self.channels[e.channel.index()].ranks[e.rank.index()];
        if rank.acts.len() == 4 {
            rank.acts.pop_front();
        }
        rank.acts.push_back(e.at);
        rank.group_acts[group] = Some(e.at);
        rank.banks[bank_id.index()] = BankState::Open {
            row,
            act_at: e.at,
            last_read_cas: None,
            last_write_end: None,
        };
    }

    fn on_cas(&mut self, e: &CmdEvent, burst_start: Picos, burst_end: Picos, is_write: bool) {
        self.check_operational(e);
        let Latencies { t_rcd, t_cl, .. } = self.lat;
        let Some(bank_id) = e.bank else {
            self.violate(
                e,
                Rule::BankState,
                Picos::ZERO,
                "CAS without a bank".to_string(),
            );
            return;
        };
        let ch_idx = e.channel.index();
        let ChannelState {
            freq,
            burst,
            t_ccd_l,
            bus_busy_until: bus_free,
            ..
        } = self.channels[ch_idx];
        let bank_state = self.channels[ch_idx].ranks[e.rank.index()].banks[bank_id.index()];
        let group = self.cfg.bank_group_of(bank_id);

        // DDR4 rule pack: same-bank-group CAS pairs must respect tCCD_L,
        // which exceeds the burst (tCCD_S) that bus serialization enforces.
        if self.cfg.bank_groups > 1 {
            let rank = &self.channels[ch_idx].ranks[e.rank.index()];
            if let Some(last) = rank.group_cas[group] {
                if e.at < last + t_ccd_l {
                    self.violate(
                        e,
                        Rule::TCcdL,
                        last,
                        format!(
                            "CAS {} within tCCD_L {t_ccd_l} of the same-group CAS at {last}",
                            e.at
                        ),
                    );
                }
            }
        }

        match bank_state {
            BankState::Closed { ready } => {
                self.violate(
                    e,
                    Rule::BankState,
                    ready,
                    "CAS to a precharged bank (no row open)".to_string(),
                );
            }
            BankState::Open { act_at, .. } => {
                if e.at < act_at + t_rcd {
                    self.violate(
                        e,
                        Rule::TRcd,
                        act_at,
                        format!("CAS {} within tRCD {t_rcd} of the ACT at {act_at}", e.at),
                    );
                }
            }
        }

        // Data timing: the first beat lands exactly tCL after the CAS, the
        // burst spans exactly burst_cycles at the current frequency, and it
        // may not overlap the previous burst on the shared bus.
        if burst_start != e.at + t_cl {
            self.violate(
                e,
                Rule::TCl,
                burst_start,
                format!(
                    "burst starts {burst_start}, expected CAS {} + tCL {t_cl}",
                    e.at
                ),
            );
        }
        if burst_end.saturating_sub(burst_start) != burst {
            let got = burst_end.saturating_sub(burst_start);
            self.violate(
                e,
                Rule::BurstLength,
                burst_start,
                format!("burst spans {got}, expected {burst} at {freq}"),
            );
        }
        if burst_start < bus_free {
            self.violate(
                e,
                Rule::BusOverlap,
                bus_free,
                format!("burst starts {burst_start} while the bus is busy until {bus_free}"),
            );
        }

        let ch = &mut self.channels[ch_idx];
        ch.bus_busy_until = ch.bus_busy_until.max(burst_end);
        let rank = &mut ch.ranks[e.rank.index()];
        rank.group_cas[group] = Some(e.at);
        if let BankState::Open {
            last_read_cas,
            last_write_end,
            ..
        } = &mut ch.ranks[e.rank.index()].banks[bank_id.index()]
        {
            if is_write {
                *last_write_end = Some(last_write_end.map_or(burst_end, |p| p.max(burst_end)));
            } else {
                *last_read_cas = Some(last_read_cas.map_or(e.at, |p| p.max(e.at)));
            }
        }
    }

    fn on_precharge(&mut self, e: &CmdEvent) {
        // PRE is exempt from re-lock-window and powerdown-exit checks
        // (documented write-recovery-tail approximation), but not from the
        // powered-down check.
        let Some(bank_id) = e.bank else {
            self.violate(
                e,
                Rule::BankState,
                Picos::ZERO,
                "PRE without a bank".to_string(),
            );
            return;
        };
        let Latencies {
            t_ras,
            t_rtp,
            t_wr,
            t_rp,
            ..
        } = self.lat;
        let rank = &self.channels[e.channel.index()].ranks[e.rank.index()];
        let power = rank.power;
        let bank_state = rank.banks[bank_id.index()];
        if let Power::Down { since, .. } | Power::DeepDown { since } = power {
            self.violate(
                e,
                Rule::RankPowerState,
                since,
                format!("PRE to a rank powered down since {since}"),
            );
        }
        match bank_state {
            // PRE to a precharged bank is a legal no-op.
            BankState::Closed { .. } => {}
            BankState::Open {
                act_at,
                last_read_cas,
                last_write_end,
                ..
            } => {
                if e.at < act_at + t_ras {
                    self.violate(
                        e,
                        Rule::TRas,
                        act_at,
                        format!("PRE {} within tRAS {t_ras} of the ACT at {act_at}", e.at),
                    );
                }
                if let Some(cas) = last_read_cas {
                    if e.at < cas + t_rtp {
                        self.violate(
                            e,
                            Rule::TRtp,
                            cas,
                            format!("PRE {} within tRTP {t_rtp} of the read CAS at {cas}", e.at),
                        );
                    }
                }
                if let Some(wend) = last_write_end {
                    if e.at < wend + t_wr {
                        self.violate(
                            e,
                            Rule::TWr,
                            wend,
                            format!(
                                "PRE {} within tWR {t_wr} of the write burst ending {wend}",
                                e.at
                            ),
                        );
                    }
                }
                self.channels[e.channel.index()].ranks[e.rank.index()].banks[bank_id.index()] =
                    BankState::Closed { ready: e.at + t_rp };
            }
        }
    }

    fn on_refresh(&mut self, e: &CmdEvent, end: Picos) {
        // REF is exempt from power-state and command-overlap checks
        // (documented approximations) but must not sit inside a re-lock
        // window, must last exactly tRFC (tRFCpb for LPDDR per-bank
        // refresh), must not overlap the previous REF, and must respect the
        // eight-command postponement bound. Per-bank refresh shrinks the
        // effective interval to tREFI / banks and requires a bank tag.
        let per_bank = self.cfg.per_bank_refresh;
        let gen = self.cfg.generation;
        let (t_rfc, dur_rule, t_refi) = if per_bank {
            (self.lat.t_rfc_pb, Rule::TRfcPb, self.lat.t_refi_pb)
        } else {
            (self.lat.t_rfc, Rule::TRfc, self.lat.t_refi)
        };
        let ch = &self.channels[e.channel.index()];
        let relock = ch.relock;
        let last_ref = ch.ranks[e.rank.index()].last_ref;
        if per_bank && e.bank.is_none() {
            self.violate(
                e,
                Rule::TRfcPb,
                e.at,
                format!("{gen}: per-bank REF without a target bank"),
            );
        }
        if !per_bank && e.bank.is_some() {
            self.violate(
                e,
                Rule::TRfc,
                e.at,
                format!("{gen}: all-bank REF carries a bank tag"),
            );
        }
        if let Some((start, until)) = relock {
            if e.at >= start && e.at < until {
                self.violate(
                    e,
                    Rule::RelockWindow,
                    start,
                    format!("REF inside re-lock window ending {until}"),
                );
            }
        }
        if end.saturating_sub(e.at) != t_rfc {
            let got = end.saturating_sub(e.at);
            self.violate(
                e,
                dur_rule,
                end,
                format!("REF spans {got}, expected {} {t_rfc}", dur_rule.name()),
            );
        }
        if let Some((last_at, last_end)) = last_ref {
            if e.at < last_end {
                self.violate(
                    e,
                    dur_rule,
                    last_end,
                    format!("REF {} overlaps the previous REF ending {last_end}", e.at),
                );
            }
            let bound = last_at + t_refi * (MAX_POSTPONED_REFRESH + 1);
            if e.at > bound {
                self.violate(
                    e,
                    Rule::TRefi,
                    last_at,
                    format!(
                        "REF {} more than nine refresh intervals after the previous REF at {last_at}",
                        e.at
                    ),
                );
            }
        }
        self.channels[e.channel.index()].ranks[e.rank.index()].last_ref = Some((e.at, end));
    }

    fn on_pd_enter(&mut self, e: &CmdEvent, fast: bool) {
        let power = self.channels[e.channel.index()].ranks[e.rank.index()].power;
        if let Power::Down { since, .. } | Power::DeepDown { since } = power {
            self.violate(
                e,
                Rule::RankPowerState,
                since,
                format!("powerdown entry while already down since {since}"),
            );
            return;
        }
        // Precharge powerdown requires every bank idle and precharged.
        self.check_banks_idle(e, "powerdown entry");
        self.channels[e.channel.index()].ranks[e.rank.index()].power =
            Power::Down { fast, since: e.at };
    }

    /// Flags every bank of the event's rank that is open or still
    /// precharging at `e.at`, in bank order; `what` names the entry.
    fn check_banks_idle(&mut self, e: &CmdEvent, what: &str) {
        let (ch, rk) = (e.channel.index(), e.rank.index());
        for i in 0..self.channels[ch].ranks[rk].banks.len() {
            let (reference, detail) = match self.channels[ch].ranks[rk].banks[i] {
                BankState::Open { act_at, .. } => (
                    act_at,
                    format!("{what} with a row open since the ACT at {act_at}"),
                ),
                BankState::Closed { ready } if e.at < ready => (
                    ready,
                    format!("{what} before the precharge completes at {ready}"),
                ),
                BankState::Closed { .. } => continue,
            };
            self.violations.push(Violation {
                rule: Rule::BankState,
                channel: e.channel,
                rank: e.rank,
                bank: Some(BankId(i)),
                at: e.at,
                reference,
                detail,
            });
        }
    }

    fn on_pd_exit(&mut self, e: &CmdEvent, fast: bool, entered_at: Picos, ready: Picos) {
        let exit = if fast {
            self.lat.t_xp
        } else {
            self.lat.t_xpdll
        };
        let rule = if fast { Rule::TXp } else { Rule::TXpdll };
        let power = self.channels[e.channel.index()].ranks[e.rank.index()].power;
        match power {
            Power::Up => {
                self.violate(
                    e,
                    Rule::RankPowerState,
                    entered_at,
                    "powerdown exit from a rank that is not powered down".to_string(),
                );
            }
            Power::Down {
                fast: was_fast,
                since,
            } => {
                if was_fast != fast {
                    self.violate(
                        e,
                        Rule::RankPowerState,
                        since,
                        format!(
                            "exit mode (fast={fast}) does not match the entry mode \
                             (fast={was_fast}) at {since}"
                        ),
                    );
                }
            }
            Power::DeepDown { since } => {
                self.violate(
                    e,
                    Rule::RankPowerState,
                    since,
                    format!(
                        "precharge-powerdown exit from a rank in deep power-down \
                         since {since}"
                    ),
                );
            }
        }
        if ready < e.at + exit {
            self.violate(
                e,
                rule,
                ready,
                format!(
                    "rank ready {ready} less than {} {exit} after the exit at {}",
                    rule.name(),
                    e.at
                ),
            );
        }
        let rank = &mut self.channels[e.channel.index()].ranks[e.rank.index()];
        rank.power = Power::Up;
        rank.ready_at = rank.ready_at.max(ready);
    }

    fn on_dpd_enter(&mut self, e: &CmdEvent) {
        let gen = self.cfg.generation;
        if !gen.has_deep_power_down() {
            self.violate(
                e,
                Rule::TXdpd,
                e.at,
                format!("{gen}: deep power-down entry on a generation without it"),
            );
        }
        let power = self.channels[e.channel.index()].ranks[e.rank.index()].power;
        if let Power::Down { since, .. } | Power::DeepDown { since } = power {
            self.violate(
                e,
                Rule::RankPowerState,
                since,
                format!("deep power-down entry while already down since {since}"),
            );
            return;
        }
        // Like precharge powerdown, deep power-down requires every bank idle
        // and precharged.
        self.check_banks_idle(e, "deep power-down entry");
        self.channels[e.channel.index()].ranks[e.rank.index()].power =
            Power::DeepDown { since: e.at };
    }

    fn on_dpd_exit(&mut self, e: &CmdEvent, entered_at: Picos, ready: Picos) {
        let t_xdpd = self.lat.t_xdpd;
        let power = self.channels[e.channel.index()].ranks[e.rank.index()].power;
        match power {
            Power::Up => {
                self.violate(
                    e,
                    Rule::RankPowerState,
                    entered_at,
                    "deep power-down exit from a rank that is not powered down".to_string(),
                );
            }
            Power::Down { since, .. } => {
                self.violate(
                    e,
                    Rule::RankPowerState,
                    since,
                    format!(
                        "deep power-down exit from a rank in precharge powerdown \
                         since {since}"
                    ),
                );
            }
            Power::DeepDown { .. } => {}
        }
        if ready < e.at + t_xdpd {
            self.violate(
                e,
                Rule::TXdpd,
                ready,
                format!(
                    "rank ready {ready} less than tXDPD {t_xdpd} after the exit at {}",
                    e.at
                ),
            );
        }
        let rank = &mut self.channels[e.channel.index()].ranks[e.rank.index()];
        rank.power = Power::Up;
        rank.ready_at = rank.ready_at.max(ready);
    }

    fn on_freq_switch(&mut self, e: &CmdEvent, from_mhz: u32, to_mhz: u32, ready: Picos) {
        let Some(to) = MemFreq::ALL.iter().copied().find(|f| f.mhz() == to_mhz) else {
            self.violate(
                e,
                Rule::Topology,
                Picos::ZERO,
                format!("unknown target operating point {to_mhz} MHz"),
            );
            return;
        };
        let ch_idx = e.channel.index();
        let current = self.channels[ch_idx].freq;
        if from_mhz != current.mhz() {
            self.violate(
                e,
                Rule::RelockPenalty,
                Picos::ZERO,
                format!("switch claims to leave {from_mhz} MHz but the channel is at {current}"),
            );
        }
        let penalty = self.relock_penalty(to);
        if ready.saturating_sub(e.at) < penalty {
            let got = ready.saturating_sub(e.at);
            self.violate(
                e,
                Rule::RelockPenalty,
                ready,
                format!("re-lock window {got} shorter than the {penalty} penalty to {to}"),
            );
        }
        // The window quiesces the channel: every rank powers up (the paper
        // re-locks from precharge powerdown), every bank closes, and the bus
        // stalls until `ready`.
        let ch = &mut self.channels[ch_idx];
        ch.lock(to, &self.cfg);
        ch.bus_busy_until = ch.bus_busy_until.max(ready);
        ch.relock = Some((e.at, ready));
        for rank in &mut ch.ranks {
            rank.power = Power::Up;
            rank.ready_at = rank.ready_at.max(ready);
            for bank in &mut rank.banks {
                *bank = BankState::Closed { ready };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramTimingConfig {
        DramTimingConfig::default()
    }

    fn auditor() -> ProtocolAuditor {
        ProtocolAuditor::new(&cfg(), 1, 2, 8, MemFreq::F800)
    }

    fn ev(at_ns: u64, rank: usize, bank: Option<usize>, kind: CmdKind) -> CmdEvent {
        CmdEvent {
            at: Picos::from_ns(at_ns),
            channel: ChannelId(0),
            rank: RankId(rank),
            bank: bank.map(BankId),
            kind,
        }
    }

    fn act(at_ns: u64, rank: usize, bank: usize, row: u64) -> CmdEvent {
        ev(at_ns, rank, Some(bank), CmdKind::Activate { row })
    }

    fn read_cas(at_ns: u64, rank: usize, bank: usize) -> CmdEvent {
        ev(
            at_ns,
            rank,
            Some(bank),
            CmdKind::CasRead {
                burst_start: Picos::from_ns(at_ns + 15),
                burst_end: Picos::from_ns(at_ns + 20),
            },
        )
    }

    fn pre(at_ns: u64, rank: usize, bank: usize) -> CmdEvent {
        ev(at_ns, rank, Some(bank), CmdKind::Precharge)
    }

    fn rules(report: &AuditReport) -> Vec<Rule> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    /// A conformant closed-page read: ACT 0, CAS 15, burst 30..35, PRE 35
    /// (max of CAS+tRTP = 21.25 and ACT+tRAS = 35).
    fn clean_read() -> Vec<CmdEvent> {
        vec![act(0, 0, 0, 7), read_cas(15, 0, 0), pre(35, 0, 0)]
    }

    #[test]
    fn rule_pack_tracks_generation_features() {
        use memscale_types::config::MemGeneration;
        let ddr3 = Rule::rule_pack(&DramTimingConfig::default());
        assert!(!ddr3.contains(&Rule::TCcdL));
        assert!(!ddr3.contains(&Rule::TRrdL));
        assert!(!ddr3.contains(&Rule::TXdpd));
        assert!(!ddr3.contains(&Rule::TRfcPb));
        assert!(ddr3.contains(&Rule::TRcd) && ddr3.contains(&Rule::BusOverlap));

        let ddr4 = Rule::rule_pack(&DramTimingConfig::ddr4());
        assert!(ddr4.contains(&Rule::TCcdL) && ddr4.contains(&Rule::TRrdL));
        assert!(!ddr4.contains(&Rule::TXdpd) && !ddr4.contains(&Rule::TRfcPb));

        let lpddr3 = Rule::rule_pack(&DramTimingConfig::lpddr3());
        assert!(lpddr3.contains(&Rule::TXdpd) && lpddr3.contains(&Rule::TRfcPb));
        assert!(!lpddr3.contains(&Rule::TCcdL));

        // Every pack is drawn from the closed rule universe, no duplicates.
        for gen in MemGeneration::ALL {
            let pack = Rule::rule_pack(&DramTimingConfig::for_generation(gen));
            for (i, r) in pack.iter().enumerate() {
                assert!(Rule::ALL.contains(r));
                assert!(!pack[i + 1..].contains(r), "{r} duplicated");
            }
        }
    }

    #[test]
    fn guarded_params_name_real_config_fields() {
        use memscale_types::invariants::TimingParam;
        let fields: Vec<&str> = TimingParam::ALL.iter().map(|p| p.field()).collect();
        for rule in Rule::ALL {
            for param in rule.guarded_params() {
                assert!(
                    fields.contains(param),
                    "{rule} guards unknown field {param}"
                );
            }
        }
        // Structural rules guard no numeric parameter.
        assert!(Rule::BankState.guarded_params().is_empty());
        assert!(Rule::Topology.guarded_params().is_empty());
    }

    #[test]
    fn clean_stream_passes() {
        let mut a = auditor();
        a.ingest(&clean_read());
        // A second, fully spaced access on another bank.
        a.ingest(&[act(40, 0, 1, 3), read_cas(55, 0, 1), pre(75, 0, 1)]);
        let r = a.finalize();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.commands_checked, 6);
    }

    #[test]
    fn ingest_order_does_not_matter() {
        let mut a = auditor();
        let mut evs = clean_read();
        evs.reverse();
        a.ingest(&evs);
        assert!(a.finalize().is_clean());
    }

    #[test]
    fn released_batches_replay_like_the_whole_stream() {
        let stream = [
            act(0, 0, 0, 7),
            read_cas(10, 0, 0), // tRCD violation
            pre(35, 0, 0),
            act(40, 0, 1, 3),
            act(42, 0, 2, 3), // tRRD violation
            read_cas(55, 0, 1),
            pre(75, 0, 1),
        ];
        let mut whole = auditor();
        whole.ingest(&stream);
        let whole = whole.finalize();

        let mut streamed = auditor();
        streamed.ingest(&stream[..3]);
        // The PRE at 35 stays held until a watermark above it.
        streamed.release(Picos::from_ns(35));
        streamed.ingest(&stream[3..]);
        streamed.release(Picos::from_ns(50));
        assert_eq!(streamed.finalize(), whole);
        assert_eq!(rules(&whole), vec![Rule::TRcd, Rule::TRrd]);
    }

    /// Two read CASes at 20 ns on ranks 0 and 1 (rows opened at 0 and
    /// 5 ns), both bursting 35..40 ns on the shared bus, in ingest order.
    fn tied_reads(first_rank: usize) -> (Vec<CmdEvent>, CmdEvent, CmdEvent) {
        let acts = vec![act(0, 0, 0, 1), act(5, 1, 0, 1)];
        (
            acts,
            read_cas(20, first_rank, 0),
            read_cas(20, 1 - first_rank, 0),
        )
    }

    /// The lone violation of a tied-reads stream: the bus overlap of the
    /// CAS that replayed second.
    fn overlapping_rank(report: &AuditReport) -> RankId {
        assert_eq!(rules(report), vec![Rule::BusOverlap], "{report}");
        let v = &report.violations[0];
        assert_eq!(
            (v.at, v.reference),
            (Picos::from_ns(20), Picos::from_ns(40))
        );
        v.rank
    }

    #[test]
    fn same_instant_same_priority_commands_replay_in_ingest_order() {
        for first in [0, 1] {
            let (acts, a, b) = tied_reads(first);
            let mut whole = auditor();
            whole.ingest(&acts);
            whole.ingest(&[a, b]);
            assert_eq!(overlapping_rank(&whole.finalize()), b.rank);
        }
    }

    #[test]
    fn a_held_command_replays_before_a_tie_ingested_after_it() {
        for first in [0, 1] {
            let (acts, a, b) = tied_reads(first);
            let mut streamed = auditor();
            streamed.ingest(&acts);
            streamed.ingest(&[a]);
            // The watermark sits at the CAS's own instant, so it is held.
            streamed.release(Picos::from_ns(20));
            assert_eq!((streamed.commands_checked, streamed.pending.len()), (2, 1));
            streamed.ingest(&[b]);
            assert_eq!(overlapping_rank(&streamed.finalize()), b.rank);
        }
    }

    #[test]
    fn events_beyond_one_key_window_replay_in_time_order() {
        // 2^50 ns is about 2^60 ps, more than a key's time offset holds
        // beside six indices, so the stream replays in two windows.
        const FAR: u64 = 1 << 50;
        let mut a = auditor();
        a.ingest(&[
            act(FAR + 5, 1, 0, 1),
            act(FAR, 0, 1, 1),
            read_cas(FAR + 20, 1, 0),
            // Tied with the CAS above and ingested after it: its burst
            // overlaps.
            read_cas(FAR + 20, 0, 1),
        ]);
        // Replays first despite the ingest order: a tRCD violation.
        a.ingest(&[read_cas(10, 0, 0), act(0, 0, 0, 7)]);
        let r = a.finalize();
        assert_eq!(r.commands_checked, 6);
        assert_eq!(rules(&r), vec![Rule::TRcd, Rule::BusOverlap], "{r}");
        assert_eq!(r.violations[1].rank, RankId(0), "{r}");
    }

    #[test]
    fn invalid_latency_panics_when_the_auditor_is_built() {
        let mut bad = cfg();
        bad.t_xdpd_ns = f64::NAN; // DDR3 never replays a deep power-down exit
        let built = std::panic::catch_unwind(|| ProtocolAuditor::new(&bad, 1, 2, 8, MemFreq::F800));
        assert!(built.is_err());
    }

    #[test]
    fn command_below_a_released_watermark_panics() {
        let mut a = auditor();
        a.ingest(&clean_read());
        a.release(Picos::from_ns(40));
        let late = act(39, 1, 3, 2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.ingest(&[late])))
            .expect_err("ingest below the watermark must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains(&late.to_string()), "{msg}");
        assert!(msg.contains("watermark 40ns"), "{msg}");
    }

    #[test]
    fn trcd_violation_detected() {
        let mut a = auditor();
        a.ingest(&[act(0, 0, 0, 7), read_cas(10, 0, 0)]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::TRcd), "{r}");
        let v = &r.violations[0];
        assert_eq!(v.at, Picos::from_ns(10));
        assert_eq!(v.reference, Picos::ZERO);
        assert_eq!(v.bank, Some(BankId(0)));
    }

    #[test]
    fn trp_violation_detected() {
        let mut a = auditor();
        let mut evs = clean_read();
        // PRE at 35 finishes at 50; re-activating at 45 is too early.
        evs.push(act(45, 0, 0, 9));
        a.ingest(&evs);
        assert!(rules(&a.finalize()).contains(&Rule::TRp));
    }

    #[test]
    fn tcl_and_burst_length_checked_exactly() {
        let mut a = auditor();
        a.ingest(&[
            act(0, 0, 0, 7),
            ev(
                15,
                0,
                Some(0),
                CmdKind::CasRead {
                    burst_start: Picos::from_ns(31), // expected 30
                    burst_end: Picos::from_ns(41),   // spans 10, expected 5
                },
            ),
        ]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::TCl), "{r}");
        assert!(rules(&r).contains(&Rule::BurstLength), "{r}");
    }

    #[test]
    fn tras_and_trtp_violations_detected() {
        let mut a = auditor();
        a.ingest(&[act(0, 0, 0, 7), read_cas(15, 0, 0), pre(20, 0, 0)]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::TRas), "{r}");
        assert!(rules(&r).contains(&Rule::TRtp), "{r}");
    }

    #[test]
    fn twr_violation_detected() {
        let mut a = auditor();
        a.ingest(&[
            act(0, 0, 0, 7),
            ev(
                15,
                0,
                Some(0),
                CmdKind::CasWrite {
                    burst_start: Picos::from_ns(30),
                    burst_end: Picos::from_ns(35),
                },
            ),
            // tWR requires 35 + 15 = 50; tRAS alone would allow 35.
            pre(40, 0, 0),
        ]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::TWr), "{r}");
        assert!(!rules(&r).contains(&Rule::TRas), "{r}");
    }

    #[test]
    fn trrd_violation_detected() {
        let mut a = auditor();
        a.ingest(&[act(0, 0, 0, 1), act(3, 0, 1, 1)]); // tRRD = 5 ns
        assert!(rules(&a.finalize()).contains(&Rule::TRrd));
    }

    #[test]
    fn tfaw_violation_detected() {
        let mut a = auditor();
        // Four ACTs at 0/5/10/15; the fifth at 20 sits inside tFAW = 25.
        a.ingest(&[
            act(0, 0, 0, 1),
            act(5, 0, 1, 1),
            act(10, 0, 2, 1),
            act(15, 0, 3, 1),
            act(20, 0, 4, 1),
        ]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::TFaw), "{r}");
        assert!(!rules(&r).contains(&Rule::TRrd), "{r}");
    }

    #[test]
    fn tfaw_window_is_per_rank() {
        let mut a = auditor();
        a.ingest(&[
            act(0, 0, 0, 1),
            act(5, 0, 1, 1),
            act(10, 0, 2, 1),
            act(15, 0, 3, 1),
            act(20, 1, 0, 1), // other rank: unconstrained
        ]);
        assert!(a.finalize().is_clean());
    }

    #[test]
    fn refresh_duration_overlap_and_postponement_checked() {
        let mut a = auditor();
        let rfc = Picos::from_ns_f64(110.0);
        let refi = cfg().t_refi();
        a.ingest(&[
            ev(
                1_000,
                0,
                None,
                CmdKind::Refresh {
                    end: Picos::from_us(1) + rfc,
                },
            ),
            // Overlaps the previous refresh.
            ev(
                1_050,
                0,
                None,
                CmdKind::Refresh {
                    end: Picos::from_ns(1_050) + rfc,
                },
            ),
        ]);
        // Wrong duration.
        a.ingest(&[CmdEvent {
            at: Picos::from_us(1) + refi * 12,
            channel: ChannelId(0),
            rank: RankId(0),
            bank: None,
            kind: CmdKind::Refresh {
                end: Picos::from_us(1) + refi * 12 + Picos::from_ns(5),
            },
        }]);
        let r = a.finalize();
        let rs = rules(&r);
        assert!(rs.contains(&Rule::TRfc), "{r}");
        // The third refresh is both too short and more than nine tREFI late.
        assert!(rs.contains(&Rule::TRefi), "{r}");
    }

    #[test]
    fn cas_to_precharged_bank_is_bank_state_violation() {
        let mut a = auditor();
        a.ingest(&[read_cas(100, 0, 0)]);
        assert!(rules(&a.finalize()).contains(&Rule::BankState));
    }

    #[test]
    fn act_to_open_bank_is_bank_state_violation() {
        let mut a = auditor();
        a.ingest(&[act(0, 0, 0, 1), act(60, 0, 0, 2)]);
        assert!(rules(&a.finalize()).contains(&Rule::BankState));
    }

    #[test]
    fn bus_overlap_detected() {
        let mut a = auditor();
        // Both bursts would occupy 30..35 and 32..37 on the shared bus.
        a.ingest(&[
            act(0, 0, 0, 1),
            act(5, 0, 1, 1),
            read_cas(15, 0, 0),
            ev(
                17,
                0,
                Some(1),
                CmdKind::CasRead {
                    burst_start: Picos::from_ns(32),
                    burst_end: Picos::from_ns(37),
                },
            ),
        ]);
        assert!(rules(&a.finalize()).contains(&Rule::BusOverlap));
    }

    #[test]
    fn powerdown_lifecycle_checked() {
        let mut a = auditor();
        a.ingest(&[
            ev(0, 0, None, CmdKind::PowerDownEnter { fast: true }),
            // ACT while the rank is down.
            act(50, 0, 0, 1),
            // Exit with an undersized tXP window.
            ev(
                100,
                0,
                None,
                CmdKind::PowerDownExit {
                    fast: true,
                    entered_at: Picos::ZERO,
                    ready: Picos::from_ns(103),
                },
            ),
        ]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::RankPowerState), "{r}");
        assert!(rules(&r).contains(&Rule::TXp), "{r}");
    }

    #[test]
    fn powerdown_exit_mode_mismatch_detected() {
        let mut a = auditor();
        a.ingest(&[
            ev(0, 0, None, CmdKind::PowerDownEnter { fast: false }),
            ev(
                100,
                0,
                None,
                CmdKind::PowerDownExit {
                    fast: true,
                    entered_at: Picos::ZERO,
                    ready: Picos::from_ns(106),
                },
            ),
        ]);
        assert!(rules(&a.finalize()).contains(&Rule::RankPowerState));
    }

    #[test]
    fn powerdown_with_open_row_detected() {
        let mut a = auditor();
        a.ingest(&[
            act(0, 0, 0, 1),
            ev(100, 0, None, CmdKind::PowerDownEnter { fast: true }),
        ]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::BankState), "{r}");
    }

    #[test]
    fn relock_window_and_penalty_checked() {
        let mut a = auditor();
        let penalty = Picos::from_ns(2_588); // 512 × 5 ns + 28 ns at 200 MHz
        a.ingest(&[
            ev(
                1_000,
                0,
                None,
                CmdKind::FreqSwitch {
                    from_mhz: 800,
                    to_mhz: 200,
                    ready: Picos::from_ns(1_000) + penalty,
                },
            ),
            // ACT inside the window.
            act(2_000, 0, 0, 1),
        ]);
        let r = a.finalize();
        assert!(rules(&r).contains(&Rule::RelockWindow), "{r}");
        assert!(!rules(&r).contains(&Rule::RelockPenalty), "{r}");

        let mut a = auditor();
        a.ingest(&[ev(
            0,
            0,
            None,
            CmdKind::FreqSwitch {
                from_mhz: 800,
                to_mhz: 200,
                ready: Picos::from_ns(100), // far short of 2588 ns
            },
        )]);
        assert!(rules(&a.finalize()).contains(&Rule::RelockPenalty));
    }

    #[test]
    fn relock_retargets_burst_length() {
        let mut a = auditor();
        a.ingest(&[
            ev(
                0,
                0,
                None,
                CmdKind::FreqSwitch {
                    from_mhz: 800,
                    to_mhz: 400,
                    ready: Picos::from_ns(1_308), // 512 × 2.5 ns + 28 ns
                },
            ),
            act(2_000, 0, 0, 1),
            // At 400 MHz a burst spans 10 ns.
            ev(
                2_015,
                0,
                Some(0),
                CmdKind::CasRead {
                    burst_start: Picos::from_ns(2_030),
                    burst_end: Picos::from_ns(2_040),
                },
            ),
        ]);
        let r = a.finalize();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn freq_switch_from_mismatch_detected() {
        let mut a = auditor();
        a.ingest(&[ev(
            0,
            0,
            None,
            CmdKind::FreqSwitch {
                from_mhz: 400, // channel starts at 800
                to_mhz: 200,
                ready: Picos::from_ns(2_588),
            },
        )]);
        assert!(rules(&a.finalize()).contains(&Rule::RelockPenalty));
    }

    #[test]
    fn out_of_range_ids_reported_as_topology() {
        let mut a = auditor();
        a.ingest(&[act(0, 9, 0, 1), act(0, 0, 99, 1)]);
        let r = a.finalize();
        assert_eq!(rules(&r), vec![Rule::Topology, Rule::Topology]);
    }

    #[test]
    fn pre_to_precharged_bank_is_a_no_op() {
        let mut a = auditor();
        a.ingest(&[pre(10, 0, 0)]);
        assert!(a.finalize().is_clean());
    }

    #[test]
    fn report_display_summarizes() {
        let mut a = auditor();
        a.ingest(&[act(0, 0, 0, 7), read_cas(10, 0, 0)]);
        let r = a.finalize();
        let s = r.to_string();
        assert!(s.contains("violation"), "{s}");
        assert!(s.contains("tRCD"), "{s}");
        assert!(s.contains("rank0"), "{s}");
    }
}
