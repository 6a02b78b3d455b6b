//! Parallel sharded replay: one recorded trace fanned out across the
//! frequency grid and the policy set.
//!
//! Replay shards share the trace's encoded bytes behind [`Arc`]s, and each
//! shard's cursors decode records as they go (see [`ReplayTrace::streams`]),
//! so a shard costs one simulation's state and no copy of the trace; the
//! shards are embarrassingly parallel and run on a rayon-style thread pool.
//! This is the repository's batch-evaluation substrate: record a workload
//! once, then sweep every operating point and policy against bit-identical
//! input.
//!
//! [`Arc`]: std::sync::Arc

use crate::error::SimError;
use crate::harness::{Comparison, Experiment};
use crate::result::RunResult;
use memscale::policies::PolicyKind;
use memscale_trace::ReplayTrace;
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use rayon::prelude::*;

/// One replay shard: a policy (or static operating point) to evaluate
/// against the shared recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable shard label for result files (e.g. `static-400`, `memscale`).
    pub label: String,
    /// Policy the shard runs.
    pub policy: PolicyKind,
}

impl ShardSpec {
    /// A shard running `policy`, labelled with the policy's kebab-cased
    /// display name (static points become `static-<mhz>`).
    pub fn of(policy: PolicyKind) -> Self {
        let label = match policy {
            PolicyKind::Static(f) => format!("static-{}", f.mhz()),
            PolicyKind::Decoupled { device } => format!("decoupled-{}", device.mhz()),
            other => other.name().to_lowercase().replace([' ', '/'], "-"),
        };
        ShardSpec { label, policy }
    }
}

/// The default shard grid for `generation`: every static frequency of the
/// §4.1 grid plus every adaptive/powerdown policy available on the
/// generation. Baseline is excluded — the replay experiment's calibration
/// already is the baseline.
pub fn default_grid(generation: MemGeneration) -> Vec<ShardSpec> {
    let mut shards: Vec<ShardSpec> = MemFreq::ALL
        .iter()
        .map(|&f| ShardSpec::of(PolicyKind::Static(f)))
        .collect();
    let policies = [
        PolicyKind::FastPd,
        PolicyKind::SlowPd,
        PolicyKind::DeepPd,
        PolicyKind::MemScale,
        PolicyKind::MemScaleMemEnergy,
        PolicyKind::MemScaleFastPd,
        PolicyKind::MemScalePerChannel,
    ];
    shards.extend(
        policies
            .into_iter()
            .filter(|p| p.available_on(generation))
            .map(ShardSpec::of),
    );
    shards
}

/// The per-shard outcome of a sharded replay sweep.
pub type ShardResult = (ShardSpec, Result<(RunResult, Comparison), SimError>);

/// Replays `trace` through every shard in parallel against `exp`'s
/// baseline. Shard order is preserved in the result; a shard's failure
/// (e.g. [`SimError::TraceExhausted`] on a policy slower than the trace's
/// recording margin) is reported in its slot without disturbing the others.
pub fn replay_sharded(
    exp: &Experiment,
    trace: &ReplayTrace,
    shards: &[ShardSpec],
) -> Vec<ShardResult> {
    shards
        .par_iter()
        .map(|s| (s.clone(), exp.evaluate_replay(s.policy, trace)))
        .collect()
}

/// Sequential reference implementation of [`replay_sharded`]: the same
/// shards, evaluated one after another on the calling thread. The parallel
/// sweep must match it shard for shard.
pub fn replay_sequential(
    exp: &Experiment,
    trace: &ReplayTrace,
    shards: &[ShardSpec],
) -> Vec<ShardResult> {
    shards
        .iter()
        .map(|s| (s.clone(), exp.evaluate_replay(s.policy, trace)))
        .collect()
}
