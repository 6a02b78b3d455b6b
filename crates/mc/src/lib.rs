//! The memory controller of the MemScale system.
//!
//! Implements the §4.1 controller: FCFS read servicing with bank-level
//! parallelism, a per-channel writeback queue whose entries gain priority
//! once the queue is half full, closed-page row management (via the DRAM
//! crate's reopen windows), optional aggressive powerdown (the Fast-PD /
//! Slow-PD baselines), and — centrally for the paper — the §3.1 performance
//! counters: BTO/BTC and CTO/CTC transactions-outstanding accumulators,
//! RBHC/OBMC/CBMC row-buffer counters and the EPDC powerdown-exit counter.
//!
//! # Example
//!
//! ```
//! use memscale_mc::MemoryController;
//! use memscale_types::{config::SystemConfig, freq::MemFreq, time::Picos};
//! use memscale_types::address::PhysAddr;
//!
//! let mut mc = MemoryController::new(&SystemConfig::default(), MemFreq::F800);
//! let result = mc.read(PhysAddr::from_cache_line(7), Picos::ZERO);
//! // tMC (3.125 ns) + tRCD + tCL + burst = 38.125 ns.
//! assert_eq!(result.completion, Picos::from_ps(38_125));
//! assert_eq!(mc.counters().btc, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod outstanding;
pub mod wbqueue;

mod controller;

pub use controller::{MemoryController, ReadResult, RowPolicy};
pub use counters::McCounters;
