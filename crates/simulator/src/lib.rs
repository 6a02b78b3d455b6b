//! Full-system event-driven simulator for the MemScale reproduction.
//!
//! Composes the workspace's substrates — [`memscale_cpu`] in-order cores,
//! [`memscale_workloads`] synthetic traces, the [`memscale_mc`] controller
//! over [`memscale_dram`] channels, the [`memscale_power`] models and a
//! [`memscale`] policy — into one simulation, reproducing the paper's §4.1
//! methodology: trace-driven cores block on LLC misses, the OS policy runs
//! every 5 ms epoch with a 300 µs profiling phase, and energy is integrated
//! per power category.
//!
//! The measurement protocol follows the paper's fixed-work comparison: a
//! *baseline* run (maximum frequency, no management) executes for a fixed
//! duration and records each core's retired instructions; every policy run
//! then executes until each core completes the same work, so energy and
//! per-application slowdown compare like-for-like.
//!
//! # Example
//!
//! ```no_run
//! use memscale::policies::PolicyKind;
//! use memscale_simulator::harness::Experiment;
//! use memscale_simulator::SimConfig;
//! use memscale_workloads::Mix;
//!
//! let mix = Mix::by_name("MID1").unwrap();
//! let experiment = Experiment::calibrate(&mix, &SimConfig::default()).unwrap();
//! let (run, cmp) = experiment.evaluate(PolicyKind::MemScale).unwrap();
//! println!("{}: {:.1}% system energy saved", run.policy, cmp.system_savings * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod harness;
pub mod result;
pub mod service;
pub mod shard;
pub mod slo;

pub use config::SimConfig;
pub use engine::Simulation;
pub use error::SimError;
pub use harness::{
    check_trace, record_calibrated, record_trace, trace_header, Comparison, Experiment,
};
pub use memscale_faults::FaultReport;
pub use result::{RunResult, TimelineSample};
pub use service::{ServeBaseline, SimulatorBackend};
pub use shard::{default_grid, replay_sequential, replay_sharded, ShardResult, ShardSpec};
pub use slo::{run_slo_sweep, PolicyOutcome, ServiceConfig, SloReport};
