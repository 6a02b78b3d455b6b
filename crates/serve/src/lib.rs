//! memscale-serve: sweep-as-a-service for the `MemScale` simulator.
//!
//! This crate turns one-shot sweep runs into a long-running batch server:
//! clients submit sweep jobs (a workload mix or pre-recorded trace, a
//! memory generation, and a policy grid) as line-delimited JSON over TCP
//! and receive a streamed response — one admission line, one line per
//! completed cell, one summary line. Three serving-layer concerns live
//! here, deliberately separated from the simulator itself:
//!
//! * **Caching** ([`cache`]): results and calibration baselines are kept
//!   in an LRU keyed by `(SimConfig::fingerprint, trace CRC, policy)`, so
//!   a resubmitted grid answers from memory and a moved knob re-simulates
//!   only the moved cells.
//! * **Admission control** ([`server`]): at most `queue_depth` jobs are in
//!   service at once; excess jobs get a structured `overloaded` error with
//!   the observed depth and limit rather than an unbounded queue or a
//!   timeout.
//! * **Load generation** ([`loadgen`]): a closed-loop client fleet that
//!   measures jobs/sec, p50/p99 job latency, and cache hit rate, writing
//!   the `BENCH_serve.json` artifact consumed by CI.
//!
//! * **Fault injection** ([`chaos`]): a seeded TCP proxy that tears
//!   frames, drops requests, stalls reads, and kills connections on the
//!   client→server path, used by the chaos harness to prove the server
//!   degrades into structured errors rather than hangs or leaks.
//! * **Durability** ([`persist`]): with `--state-dir`, job lifecycle and
//!   completed cells go through a write-ahead journal and calibration
//!   bundles to an on-disk baseline log (both `memscale-store` record
//!   logs), so a crashed server restarts with warm caches and resumable
//!   jobs.
//! * **Crash recovery harness** ([`recovery`]): spawns the real server
//!   binary, SIGKILLs it mid-job at a seeded point, restarts it against
//!   the same state directory, and asserts the recovery invariants
//!   (warm hits, byte-identical results, a cleanly truncated journal).
//!
//! The crate depends only on `memscale-types` and the worker pool; the
//! simulation work is injected through [`server::SweepBackend`], which
//! `memscale-simulator` implements. The wire protocol is specified in
//! `DESIGN.md` §13; deadlines, cancellation, drain, and the chaos
//! harness in §14.

#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod json;
pub mod loadgen;
pub mod persist;
pub mod recovery;
pub mod server;
pub mod wire;

pub use cache::{CacheKey, LruCache};
pub use chaos::{open_flood, ChaosConfig, ChaosHandle, ChaosProxy, ChaosReport};
pub use loadgen::{LoadgenConfig, LoadgenStats};
pub use persist::{DurableState, JournalRecord, RecoveryReport};
pub use recovery::{RecoveryConfig, RecoveryOutcome};
pub use server::{JobPlan, ServerConfig, ServerStats, SweepBackend, SweepServer};
pub use wire::Response;
