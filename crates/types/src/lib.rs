//! Shared foundation types for the MemScale memory-DVFS simulator.
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks:
//!
//! * [`time::Picos`] — the simulator's picosecond clock, precise enough to
//!   represent every DDR3 frequency in the MemScale grid without rounding
//!   drift.
//! * [`freq::MemFreq`] — the ten-step bus/DIMM frequency grid of the paper
//!   (200–800 MHz) together with the derived memory-controller frequency and
//!   voltage.
//! * [`address`] — physical-address to channel/rank/bank/row mapping with
//!   cache-line channel interleaving and bank interleaving, as assumed by the
//!   paper's memory controller.
//! * [`config`] — plain-data configuration (topology, CPU, DRAM timing,
//!   power constants) mirroring Table 2 of the paper.
//!
//! # Example
//!
//! ```
//! use memscale_types::freq::MemFreq;
//! use memscale_types::time::Picos;
//!
//! let f = MemFreq::F800;
//! assert_eq!(f.mhz(), 800);
//! // A 64-byte cache line takes 4 bus cycles (8 beats, double data rate).
//! let burst = f.cycle() * 4;
//! assert_eq!(burst, Picos::from_ns(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod cancel;
pub mod config;
pub mod events;
pub mod faults;
pub mod freq;
pub mod ids;
pub mod invariants;
pub mod requests;
pub mod rng;
pub mod serve;
pub mod time;

pub use address::{AddressMap, Location, PhysAddr};
pub use cancel::CancelToken;
pub use config::{CpuConfig, DramTimingConfig, MemGeneration, PowerConfig, SystemConfig, Topology};
pub use events::{CmdEvent, CmdKind};
pub use faults::{CounterFault, FaultPlan, FaultSpecError, RefreshFault, SwitchFault};
pub use freq::MemFreq;
pub use ids::{AppId, BankId, ChannelId, CoreId, RankId};
pub use invariants::{Diagnostic, FsmFeature, FsmSpec, FsmTransition, TimingParam};
pub use requests::{RequestStats, SloSpec};
pub use serve::{
    CellFailure, CellMetrics, CellOutcome, DoneReason, ErrorCode, JobSpec, JobSummary,
};
pub use time::Picos;
