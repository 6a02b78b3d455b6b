//! Experiment harness regenerating every table and figure of the MemScale
//! paper (ASPLOS 2011).
//!
//! Each `fig*`/`table*`/`sens*` function in [`exp`] reproduces one artifact
//! of the paper's evaluation and returns a [`report::Table`] with the same
//! rows/series the paper plots, annotated with the paper's qualitative
//! expectations. The `experiments` binary prints the artifacts it is named
//! and, named none, runs the full set and regenerates `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod exp;
pub mod report;

pub use report::Table;
