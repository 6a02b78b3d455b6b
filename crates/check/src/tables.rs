//! Pass 1: device-table consistency, at rest and at every grid frequency.
//!
//! The at-rest invariants live in `memscale_types::invariants`
//! (`check_at_rest`, the list startup validation reports the first entry
//! of); this module runs them, then extends the analysis to properties only
//! visible once a
//! [`DramTimingConfig`](memscale_types::config::DramTimingConfig) is
//! *resolved* at an operating point: cycle-denominated parameters convert to
//! wall-clock time through the bus period, so an inequality that holds at
//! 800 MHz can still be violated at 200 MHz (or vice versa). The power grid
//! is checked for monotonicity in frequency, which the governor's exhaustive
//! energy search silently assumes.

use memscale_dram::timing::TimingSet;
use memscale_power::PowerModel;
use memscale_types::config::SystemConfig;
use memscale_types::freq::MemFreq;
use memscale_types::invariants::{self, Diagnostic};

/// Runs every table check against `sys`: the shared at-rest invariants
/// (timing, topology coupling, power table), then — only when those are
/// clean, so garbage values do not cascade — the per-frequency resolved
/// checks and the power-grid monotonicity checks.
pub fn check_tables(sys: &SystemConfig) -> Vec<Diagnostic> {
    let mut out = invariants::check_at_rest(sys);
    if !out.is_empty() {
        return out;
    }
    let cfg = &sys.timing;
    let gen = cfg.generation;

    for freq in MemFreq::ALL {
        let ts = TimingSet::resolve(cfg, freq);
        if ts.burst.as_ps() == 0 || ts.mc_proc.as_ps() == 0 || ts.t_refi.as_ps() == 0 {
            out.push(Diagnostic::new(
                "resolved-positive",
                gen,
                format!(
                    "burst/MC-pipeline/tREFI must resolve to a positive \
                     duration at {freq}"
                ),
                vec![
                    ("burst_ns", ts.burst.as_ns_f64()),
                    ("mc_proc_ns", ts.mc_proc.as_ns_f64()),
                    ("tREFI_ns", ts.t_refi.as_ns_f64()),
                ],
            ));
            continue; // the remaining comparisons would be meaningless
        }
        if ts.t_ccd_l < ts.burst {
            out.push(Diagnostic::new(
                "ccdl-covers-burst",
                gen,
                format!(
                    "resolved tCCD_L ({} ns) is shorter than the data burst \
                     ({} ns) at {freq}: same-group CAS spacing cannot cover \
                     the transfer it gates",
                    ts.t_ccd_l.as_ns_f64(),
                    ts.burst.as_ns_f64()
                ),
                vec![
                    ("t_ccd_l_ns", ts.t_ccd_l.as_ns_f64()),
                    ("burst_ns", ts.burst.as_ns_f64()),
                ],
            ));
        }
        // The rank machine charges only the re-lock penalty when a
        // powered-down rank wakes up during a frequency switch, so the
        // penalty must subsume every powerdown exit latency.
        let relock = TimingSet::relock_penalty(cfg, freq);
        let deepest_exit = ts.t_xp.max(ts.t_xpdll).max(ts.t_xdpd);
        if relock < deepest_exit {
            out.push(Diagnostic::new(
                "relock-covers-exit",
                gen,
                format!(
                    "re-lock penalty ({} ns) at {freq} is shorter than the \
                     slowest powerdown exit ({} ns): a rank waking into a \
                     re-lock window would be ready too early",
                    relock.as_ns_f64(),
                    deepest_exit.as_ns_f64()
                ),
                vec![
                    ("relock_ns", relock.as_ns_f64()),
                    ("deepest_exit_ns", deepest_exit.as_ns_f64()),
                ],
            ));
        }
        // Between two refreshes the device must fit the refresh itself plus
        // at least one closed-bank access; the access term stretches with
        // the burst as frequency drops.
        let busy = ts.t_rfc + ts.closed_read_latency();
        if ts.t_refi <= busy {
            out.push(Diagnostic::new(
                "refi-covers-access",
                gen,
                format!(
                    "tREFI ({} ns) at {freq} does not cover a refresh plus \
                     one closed-bank access ({} ns): the device would starve",
                    ts.t_refi.as_ns_f64(),
                    busy.as_ns_f64()
                ),
                vec![
                    ("tREFI_ns", ts.t_refi.as_ns_f64()),
                    ("busy_ns", busy.as_ns_f64()),
                ],
            ));
        }
    }

    check_power_grid(sys, &mut out);
    out
}

/// The governor's energy search assumes MC, register and PLL power never
/// *decrease* when frequency rises (§4.1 scales them by `V²·f`, `f`, `f`);
/// a non-monotonic grid would make "slower is cheaper" silently false.
fn check_power_grid(sys: &SystemConfig, out: &mut Vec<Diagnostic>) {
    let gen = sys.timing.generation;
    let model = PowerModel::new(sys);
    for pair in MemFreq::ALL.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        for util in [0.0, 1.0] {
            let (p_lo, p_hi) = (model.mc_power_w(util, lo), model.mc_power_w(util, hi));
            if p_hi < p_lo {
                out.push(Diagnostic::new(
                    "mc-power-monotonic",
                    gen,
                    format!(
                        "MC power at util {util} falls from {p_lo} W to \
                         {p_hi} W between {lo} and {hi}"
                    ),
                    vec![("p_lo_w", p_lo), ("p_hi_w", p_hi)],
                ));
            }
            let (r_lo, r_hi) = (model.reg_power_w(util, lo), model.reg_power_w(util, hi));
            if r_hi < r_lo {
                out.push(Diagnostic::new(
                    "reg-power-monotonic",
                    gen,
                    format!(
                        "register power at util {util} falls from {r_lo} W \
                         to {r_hi} W between {lo} and {hi}"
                    ),
                    vec![("p_lo_w", r_lo), ("p_hi_w", r_hi)],
                ));
            }
        }
        let (p_lo, p_hi) = (model.pll_power_w(lo), model.pll_power_w(hi));
        if p_hi < p_lo {
            out.push(Diagnostic::new(
                "pll-power-monotonic",
                gen,
                format!("PLL power falls from {p_lo} W to {p_hi} W between {lo} and {hi}"),
                vec![("p_lo_w", p_lo), ("p_hi_w", p_hi)],
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memscale_types::config::MemGeneration;

    #[test]
    fn reference_systems_pass_every_table_check() {
        for gen in MemGeneration::ALL {
            let sys = SystemConfig::for_generation(gen);
            let diags = check_tables(&sys);
            assert!(diags.is_empty(), "{gen}: {diags:#?}");
        }
    }

    fn with_timing(f: impl FnOnce(&mut memscale_types::config::DramTimingConfig)) -> SystemConfig {
        let mut sys = SystemConfig::default();
        f(&mut sys.timing);
        sys
    }

    #[test]
    fn resolved_checks_fire_on_frequency_dependent_violations() {
        // A re-lock penalty far below the slow powerdown exit.
        let sys = with_timing(|t| {
            t.relock_cycles = 1;
            t.relock_extra_ns = 0.0;
        });
        let diags = check_tables(&sys);
        assert!(
            diags.iter().any(|d| d.invariant == "relock-covers-exit"),
            "{diags:#?}"
        );

        // A refresh interval the refresh itself cannot fit into. Keep the
        // pure-table duty cycle legal (tRFC < tREFI) but leave no room for
        // an access on top.
        let sys = with_timing(|t| {
            t.t_rfc_ns = 200.0;
            t.refresh_period_ms = 1.88; // tREFI ~= 229 ns: above tRFC, below tRFC + access
        });
        let diags = check_tables(&sys);
        assert!(
            diags.iter().any(|d| d.invariant == "refi-covers-access"),
            "{diags:#?}"
        );
    }

    #[test]
    fn table_stage_failures_suppress_resolved_stage() {
        let sys = with_timing(|t| t.t_rcd_ns = f64::NAN);
        let diags = check_tables(&sys);
        assert!(diags.iter().all(|d| d.invariant == "param-positive"));
    }
}
