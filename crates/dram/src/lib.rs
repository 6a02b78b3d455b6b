//! Cycle-approximate DRAM timing model for the MemScale simulator,
//! pluggable across DDR3 (the paper's baseline), DDR4 and LPDDR3 through
//! the generation of the [`DramTimingConfig`](memscale_types::config::DramTimingConfig)
//! a channel is built from.
//!
//! The model is *event-analytic*: instead of stepping every DRAM clock, each
//! access is resolved into an [`channel::AccessTimeline`] the
//! moment the memory controller dispatches it, reserving the bank, rank and
//! data-bus resources it needs. This reproduces the latency structure the
//! paper reasons about — activate (tRCD), column access (tCL), precharge
//! (tRP), burst transfer (4 bus cycles), rank-level tRRD/tFAW constraints,
//! refresh, and powerdown exit latencies — at a tiny fraction of the cost of
//! a per-cycle simulator.
//!
//! Frequency scaling follows §2.2 of the paper exactly: DRAM-core operations
//! keep their wall-clock latency while burst transfers stretch linearly with
//! the bus period; re-locking to a new frequency costs 512 memory cycles plus
//! 28 ns spent in precharge powerdown.
//!
//! # Example
//!
//! ```
//! use memscale_dram::channel::{AccessKind, DramChannel};
//! use memscale_types::{config::DramTimingConfig, freq::MemFreq, time::Picos};
//! use memscale_types::ids::{BankId, RankId};
//!
//! let cfg = DramTimingConfig::default();
//! let mut ch = DramChannel::new(&cfg, 4, 8, MemFreq::F800);
//! let t = ch.service(RankId(0), BankId(0), 42, AccessKind::Read, Picos::ZERO, false);
//! // Closed bank: ACT + CAS + burst = 15 ns + 15 ns + 5 ns.
//! assert_eq!(t.data_end, Picos::from_ns(35));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod rank;
pub mod stats;
pub mod timing;

pub use bank::HitWindow;
pub use channel::{AccessKind, AccessTimeline, DramChannel, RowOutcome};
pub use rank::PowerDownMode;
pub use stats::{ChannelStats, RankStats};
pub use timing::TimingSet;

/// Moves the events of `events` dated strictly below `watermark` to `out`,
/// keeping the relative order of both the moved and the kept events.
fn drain_below(
    events: &mut Vec<memscale_types::events::CmdEvent>,
    watermark: memscale_types::time::Picos,
    out: &mut Vec<memscale_types::events::CmdEvent>,
) {
    events.retain(|e| {
        let release = e.at < watermark;
        if release {
            out.push(*e);
        }
        !release
    });
}
