//! Trace capture & replay for the MemScale simulator (`memscale-trace`).
//!
//! The paper's evaluation substrate is two-step: LLC miss/writeback traces
//! are captured *once*, then replayed through the detailed memory simulator
//! as many times as the study needs (PAPER §4). This crate supplies that
//! record-once/replay-many methodology for the reproduction:
//!
//! * a **versioned, dependency-light binary format** ([`mod@format`]) — an
//!   8-byte magic, a CRC-guarded header (format version, memory generation,
//!   configuration fingerprint, seed, per-app metadata) and per-app streams
//!   of varint/delta-encoded [`MissEvent`] records in CRC-checked blocks;
//! * a streaming [`TraceWriter`] and a fully-validating [`TraceReader`]
//!   whose every failure mode is a structured [`TraceError`] — arbitrary
//!   bytes can never panic the reader;
//! * a [`MissTape`] that recording runs read their live miss streams
//!   through, drawing each event once and holding it in the record
//!   encoding ([`EncodedStream`]), so a run's exact input becomes a
//!   reusable artifact without ever being held decoded;
//! * [`ReplayTrace`] / [`ReplayStream`] — a trace held in memory as its
//!   own file bytes, validated once, and replay cursors implementing the
//!   same [`MissSource`] interface as the live generator. The cursors
//!   decode records as they go, through the record decoder the reader
//!   validates with, and share the bytes behind [`std::sync::Arc`], so
//!   dozens of concurrent replay shards mint cursors without copying them
//!   and a cached trace costs its encoded size (~5 bytes per record), not
//!   32 bytes per decoded event.
//!
//! Replaying a recorded trace through the engine at the recording's seed and
//! configuration reproduces the run **bit-identically** (see DESIGN.md §11).
//!
//! [`MissEvent`]: memscale_workloads::MissEvent
//! [`MissSource`]: memscale_workloads::MissSource

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod reader;
pub mod tape;
pub mod writer;

pub use error::TraceError;
pub use reader::{ReplayStream, ReplayTrace, TraceReader, TraceSummary};
pub use tape::MissTape;
pub use writer::{EncodedStream, TraceHeader, TraceWriter};
