//! Typed DRAM command events for protocol auditing.
//!
//! The DRAM and memory-controller crates emit one [`CmdEvent`] per
//! device-level command they schedule while recording is switched on at
//! run time (`set_event_recording`); the `memscale-audit` crate replays the
//! stream against an independent model of the DDR3 timing rules. Events
//! are *not* guaranteed to be emitted in timestamp order — auto-precharges
//! are future-dated, and powerdown entries under the auto-powerdown policy
//! are synthesized retroactively at the next access — so consumers must
//! sort by [`CmdEvent::at`] before replay.

use crate::ids::{BankId, ChannelId, RankId};
use crate::time::Picos;

/// The device-level command an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// ACT: open `row` in the event's bank.
    Activate {
        /// The row being opened.
        row: u64,
    },
    /// Read CAS, with its data burst occupying the channel's shared bus over
    /// `[burst_start, burst_end)`.
    CasRead {
        /// First beat of the data burst.
        burst_start: Picos,
        /// End of the data burst.
        burst_end: Picos,
    },
    /// Write CAS, with its data burst occupying the channel's shared bus over
    /// `[burst_start, burst_end)`.
    CasWrite {
        /// First beat of the data burst.
        burst_start: Picos,
        /// End of the data burst.
        burst_end: Picos,
    },
    /// PRE: close the event's bank (explicit or auto-precharge).
    Precharge,
    /// REF: one refresh command occupying the rank until `end` (tRFC).
    Refresh {
        /// Completion time of the refresh (issue + tRFC).
        end: Picos,
    },
    /// CKE-low: the rank enters precharge powerdown.
    PowerDownEnter {
        /// `true` for fast-exit powerdown, `false` for slow-exit (DLL off).
        fast: bool,
    },
    /// CKE-high: the rank leaves powerdown; commands may issue from `ready`.
    PowerDownExit {
        /// Which powerdown flavor is being exited.
        fast: bool,
        /// When the rank entered the powerdown state being exited.
        entered_at: Picos,
        /// First instant a command may issue (exit request + tXP/tXPDLL).
        ready: Picos,
    },
    /// The rank enters deep power-down (LPDDR generations only): background
    /// power collapses to the `i_dpd` floor, but exiting costs `t_xdpd`.
    DeepPowerDownEnter,
    /// The rank leaves deep power-down; commands may issue from `ready`.
    DeepPowerDownExit {
        /// When the rank entered deep power-down.
        entered_at: Picos,
        /// First instant a command may issue (exit request + `t_xdpd`).
        ready: Picos,
    },
    /// The channel re-locks its bus/DIMM frequency; no command may issue on
    /// any rank of the channel until `ready`.
    FreqSwitch {
        /// Operating point before the switch (MHz).
        from_mhz: u32,
        /// Operating point after the switch (MHz).
        to_mhz: u32,
        /// End of the relock window (issue + relock penalty).
        ready: Picos,
    },
}

impl CmdKind {
    /// Short mnemonic for reports (`ACT`, `CAS-RD`, ...).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmdKind::Activate { .. } => "ACT",
            CmdKind::CasRead { .. } => "CAS-RD",
            CmdKind::CasWrite { .. } => "CAS-WR",
            CmdKind::Precharge => "PRE",
            CmdKind::Refresh { .. } => "REF",
            CmdKind::PowerDownEnter { .. } => "PD-ENTER",
            CmdKind::PowerDownExit { .. } => "PD-EXIT",
            CmdKind::DeepPowerDownEnter => "DPD-ENTER",
            CmdKind::DeepPowerDownExit { .. } => "DPD-EXIT",
            CmdKind::FreqSwitch { .. } => "FREQ-SWITCH",
        }
    }
}

/// One device-level command, located in topology and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdEvent {
    /// When the command issues on the command bus.
    pub at: Picos,
    /// The channel the command belongs to. Emitters below the controller
    /// level leave this at `ChannelId(0)`; the controller re-tags it.
    pub channel: ChannelId,
    /// The rank addressed (for [`CmdKind::FreqSwitch`], which is channel-
    /// wide, this is `RankId(0)` by convention).
    pub rank: RankId,
    /// The bank addressed, for bank-scoped commands (ACT/CAS/PRE).
    pub bank: Option<BankId>,
    /// What the command is.
    pub kind: CmdKind,
}

impl std::fmt::Display for CmdEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.at, self.channel, self.rank)?;
        if let Some(bank) = self.bank {
            write!(f, " {bank}")?;
        }
        write!(f, " {}", self.kind.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_topology_and_mnemonic() {
        let e = CmdEvent {
            at: Picos::from_ns(40),
            channel: ChannelId(2),
            rank: RankId(1),
            bank: Some(BankId(5)),
            kind: CmdKind::Activate { row: 9 },
        };
        let s = e.to_string();
        assert!(s.contains("ch2") && s.contains("rank1") && s.contains("bank5"));
        assert!(s.contains("ACT"));
    }

    #[test]
    fn bankless_commands_omit_bank() {
        let e = CmdEvent {
            at: Picos::ZERO,
            channel: ChannelId(0),
            rank: RankId(0),
            bank: None,
            kind: CmdKind::FreqSwitch {
                from_mhz: 800,
                to_mhz: 400,
                ready: Picos::from_ns(2588),
            },
        };
        assert!(e.to_string().contains("FREQ-SWITCH"));
        assert!(!e.to_string().contains("bank"));
    }

    #[test]
    fn mnemonics_are_distinct() {
        let kinds = [
            CmdKind::Activate { row: 0 },
            CmdKind::CasRead {
                burst_start: Picos::ZERO,
                burst_end: Picos::ZERO,
            },
            CmdKind::CasWrite {
                burst_start: Picos::ZERO,
                burst_end: Picos::ZERO,
            },
            CmdKind::Precharge,
            CmdKind::Refresh { end: Picos::ZERO },
            CmdKind::PowerDownEnter { fast: true },
            CmdKind::PowerDownExit {
                fast: true,
                entered_at: Picos::ZERO,
                ready: Picos::ZERO,
            },
            CmdKind::DeepPowerDownEnter,
            CmdKind::DeepPowerDownExit {
                entered_at: Picos::ZERO,
                ready: Picos::ZERO,
            },
            CmdKind::FreqSwitch {
                from_mhz: 800,
                to_mhz: 800,
                ready: Picos::ZERO,
            },
        ];
        let names: std::collections::HashSet<_> = kinds.iter().map(CmdKind::mnemonic).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
