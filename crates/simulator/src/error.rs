//! Structured simulation errors.
//!
//! The engine never panics on conditions reachable from configuration or
//! run-time state; it reports them as [`SimError`] values so callers (the
//! `memscale-sim` CLI, the experiment harness, fault-sweep drivers) can fail
//! with a readable message and a non-zero exit instead of a backtrace.

use memscale_trace::TraceError;
use memscale_types::config::{ConfigError, MemGeneration};
use memscale_types::faults::FaultSpecError;
use memscale_types::time::Picos;
use std::fmt;

/// Everything that can go wrong building or running a [`crate::Simulation`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The system configuration failed validation.
    InvalidConfig(ConfigError),
    /// The fault plan failed validation.
    InvalidFaultPlan(FaultSpecError),
    /// The requested policy does not exist on the configured memory
    /// generation (e.g. deep power-down outside LPDDR).
    PolicyUnavailable {
        /// Display name of the rejected policy.
        policy: &'static str,
        /// Generation the run was configured with.
        generation: MemGeneration,
    },
    /// `run_until_work` was given a target list whose length differs from
    /// the core count.
    TargetMismatch {
        /// Configured core count.
        expected: usize,
        /// Number of targets supplied.
        got: usize,
    },
    /// A core finished a compute interval with no pending miss recorded —
    /// the compute/wait alternation invariant broke.
    MissingPendingMiss {
        /// Core whose pending slot was empty.
        core: usize,
        /// Simulated time of the violation.
        at: Picos,
    },
    /// The run watchdog observed no forward progress: simulated time did
    /// not advance across a full event budget.
    Stalled {
        /// Simulated time the run is stuck at.
        at: Picos,
        /// Events processed when the watchdog fired.
        events: u64,
    },
    /// A replayed trace ran out of recorded events before the run finished
    /// (the trace was recorded with too little margin for this policy).
    TraceExhausted {
        /// App/core whose stream ran dry.
        app: usize,
        /// Simulated time of the exhaustion.
        at: Picos,
    },
    /// Reading, writing or validating a trace artifact failed.
    Trace(TraceError),
    /// The run's cancellation token was raised and the engine stopped
    /// cooperatively at the next epoch boundary (serving-layer deadlines
    /// and shutdown drains, DESIGN.md §14).
    Cancelled {
        /// Simulated time the run stopped at.
        at: Picos,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => write!(f, "invalid system configuration: {e}"),
            SimError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            SimError::PolicyUnavailable { policy, generation } => {
                write!(
                    f,
                    "{generation}: policy {policy} is not available on this generation"
                )
            }
            SimError::TargetMismatch { expected, got } => {
                write!(
                    f,
                    "one work target per core required: {expected} cores, {got} targets"
                )
            }
            SimError::MissingPendingMiss { core, at } => {
                write!(f, "core {core} has no pending miss at {} ps", at.as_ps())
            }
            SimError::Stalled { at, events } => {
                write!(
                    f,
                    "no forward progress at {} ps after {events} events",
                    at.as_ps()
                )
            }
            SimError::TraceExhausted { app, at } => {
                write!(
                    f,
                    "replay trace for app {app} exhausted at {} ps; re-record with more margin",
                    at.as_ps()
                )
            }
            SimError::Trace(e) => write!(f, "{e}"),
            SimError::Cancelled { at } => {
                write!(f, "run cancelled at {} ps", at.as_ps())
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::InvalidFaultPlan(e) => Some(e),
            SimError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::InvalidConfig(e)
    }
}

impl From<FaultSpecError> for SimError {
    fn from(e: FaultSpecError) -> Self {
        SimError::InvalidFaultPlan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_readable() {
        let e = SimError::Stalled {
            at: Picos::from_us(7),
            events: 65_536,
        };
        let msg = e.to_string();
        assert!(msg.contains("no forward progress") && msg.contains("65536"));
        let e = SimError::TargetMismatch {
            expected: 16,
            got: 3,
        };
        assert!(e.to_string().contains("16 cores, 3 targets"));
        let e = SimError::MissingPendingMiss {
            core: 5,
            at: Picos::from_us(1),
        };
        assert!(e.to_string().contains("core 5"));
        let e = SimError::Cancelled {
            at: Picos::from_us(3),
        };
        assert!(e.to_string().contains("cancelled"));
    }

    #[test]
    fn config_errors_convert_and_chain() {
        use memscale_types::config::SystemConfig;
        let mut sys = SystemConfig::default();
        sys.cpu.cores = 0;
        let err: SimError = sys.validate().unwrap_err().into();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("cores"));
    }
}
