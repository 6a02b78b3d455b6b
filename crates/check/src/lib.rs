//! `memscale-check` — static consistency analyzer for the MemScale
//! reproduction.
//!
//! Simulation output is only as trustworthy as the tables it is computed
//! from. This crate analyzes, without running a single simulated cycle,
//! the three kinds of static structure the simulator trusts implicitly:
//!
//! 1. **Device tables** ([`tables`]) — the at-rest invariants startup
//!    validation also enforces (positivity, ranges, cross-parameter
//!    orderings, IDD ladder), plus properties only visible once the table
//!    is resolved at each of the ten grid frequencies (cycle-denominated
//!    parameters stretch as the bus slows) and monotonicity of the
//!    MC/register/PLL power grid.
//! 2. **Power-state machines** ([`fsm`]) — the rank power FSM and the
//!    governor hardening ladder, published as declarative transition tables,
//!    are model-checked per generation: well-formed, deterministic, fully
//!    reachable, free of sink states, and every low-power exit carries a
//!    timed latency parameter the generation's table actually provides.
//! 3. **Audit rule-pack coverage** ([`coverage`]) — every timing parameter
//!    relevant to a generation must be guarded by an audit replay rule or
//!    explicitly waived with a justification; stale and unknown waivers are
//!    errors too.
//!
//! The command-line entry point is `memscale-sim check [--generation all]`,
//! which runs [`run_all`] and exits non-zero on any diagnostic — CI runs it
//! as a gate.
//!
//! # Example
//!
//! ```
//! let reports = memscale_check::run_all();
//! assert_eq!(reports.len(), 3); // DDR3, DDR4, LPDDR3
//! assert!(reports.iter().all(memscale_check::CheckReport::is_clean));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod fsm;
pub mod tables;

use memscale::GOVERNOR_LADDER_FSM;
use memscale_dram::rank::RANK_POWER_FSM;
use memscale_types::config::{MemGeneration, SystemConfig};
use memscale_types::invariants::Diagnostic;
use std::fmt;

/// Outcome of analyzing one generation's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// The generation analyzed.
    pub generation: MemGeneration,
    /// Every violated invariant, in pass order (tables, FSMs, coverage).
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Whether the configuration passed every check.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// One line per diagnostic, prefixed by a per-generation verdict.
    pub fn summary(&self) -> String {
        let mut s = if self.is_clean() {
            format!("{}: clean", self.generation)
        } else {
            format!(
                "{}: {} violation(s)",
                self.generation,
                self.diagnostics.len()
            )
        };
        for d in &self.diagnostics {
            s.push_str("\n  ");
            s.push_str(&d.to_string());
        }
        s
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Runs every pass against an explicit system configuration. The mutation
/// self-tests feed deliberately broken configurations through this to prove
/// each invariant actually fires.
pub fn check_system(sys: &SystemConfig) -> CheckReport {
    let mut diagnostics = tables::check_tables(sys);
    for spec in [&RANK_POWER_FSM, &GOVERNOR_LADDER_FSM] {
        diagnostics.extend(fsm::check_fsm(spec, &sys.timing));
    }
    diagnostics.extend(coverage::check_coverage(&sys.timing));
    CheckReport {
        generation: sys.timing.generation,
        diagnostics,
    }
}

/// Analyzes the reference configuration of one generation.
pub fn run_generation(generation: MemGeneration) -> CheckReport {
    check_system(&SystemConfig::for_generation(generation))
}

/// Analyzes every supported generation, in [`MemGeneration::ALL`] order.
pub fn run_all() -> Vec<CheckReport> {
    MemGeneration::ALL.into_iter().map(run_generation).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configurations_are_clean() {
        for report in run_all() {
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn report_summary_names_generation_and_invariants() {
        let mut sys = SystemConfig::default();
        sys.timing.t_xp_ns = sys.timing.t_xpdll_ns + 1.0;
        let report = check_system(&sys);
        assert!(!report.is_clean());
        let shown = report.to_string();
        assert!(shown.contains("DDR3") && shown.contains("powerdown-exit-ladder"));
    }
}
