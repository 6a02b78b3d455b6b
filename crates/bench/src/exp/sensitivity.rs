//! Figs 12–15 and the §4.2.4 epoch/core-count studies, all over the MID
//! workloads (as in the paper).

use crate::exp::common::{mean, sweep_cfg};
use crate::report::{pct, Table};
use memscale::policies::PolicyKind;
use memscale_simulator::harness::Experiment;
use memscale_simulator::SimConfig;
use memscale_types::time::Picos;
use memscale_workloads::{Mix, WorkloadClass};

/// Average MemScale system savings and worst CPI increase over the MID
/// workloads `exps` (calibrated by `calibrate_mid`) under `cfg`, which
/// may change governor parameters but not the hardware.
fn mid_point(exps: &[Experiment], cfg: &SimConfig) -> (f64, f64) {
    let mut sys = Vec::new();
    let mut worst: f64 = 0.0;
    for exp in exps {
        let (_, cmp) = exp.evaluate_configured(PolicyKind::MemScale, cfg).unwrap();
        sys.push(cmp.system_savings);
        worst = worst.max(cmp.max_cpi_increase());
    }
    (mean(&sys), worst)
}

fn calibrate_mid(cfg: &SimConfig) -> Vec<Experiment> {
    Mix::by_class(WorkloadClass::Mid)
        .iter()
        .map(|m| Experiment::calibrate(m, cfg).unwrap())
        .collect()
}

/// Regenerates Fig 12: sensitivity to the CPI-degradation bound γ.
pub fn fig12() -> Table {
    let base = sweep_cfg();
    let exps = calibrate_mid(&base);
    let mut t = Table::new(
        "fig12",
        "Impact of the CPI bound gamma (Fig 12, MID average)",
        &[
            "Bound",
            "System energy reduction",
            "Worst-case CPI increase",
        ],
    );
    let mut by_gamma = Vec::new();
    for gamma in [0.01, 0.05, 0.10, 0.15] {
        let mut cfg = base.clone();
        cfg.governor.gamma = gamma;
        let (sys, worst) = mid_point(&exps, &cfg);
        by_gamma.push(sys);
        t.row(vec![pct(gamma), pct(sys), pct(worst)]);
    }
    t.check(
        "small bounds yield smaller savings (1% < 10%)",
        by_gamma[0] < by_gamma[2],
    );
    t.check(
        "raising the bound beyond 10% adds little (paper: no improvement)",
        by_gamma[3] - by_gamma[2] < 0.03,
    );
    t.note("Paper: beyond ~10%, longer runtime costs more than memory saves.");
    t
}

/// Regenerates Fig 13: sensitivity to the number of memory channels.
pub fn fig13() -> Table {
    let mut t = Table::new(
        "fig13",
        "Impact of the number of channels (Fig 13, MID average)",
        &[
            "Channels",
            "System energy reduction",
            "Worst-case CPI increase",
        ],
    );
    let mut series = Vec::new();
    for channels in [4u8, 3, 2] {
        let mut cfg = sweep_cfg();
        cfg.system.topology.channels = channels;
        let (sys, worst) = mid_point(&calibrate_mid(&cfg), &cfg);
        series.push((channels, sys, worst));
        t.row(vec![channels.to_string(), pct(sys), pct(worst)]);
    }
    t.check(
        "more channels -> more headroom -> more savings (4 >= 2)",
        series[0].1 >= series[2].1,
    );
    t.check(
        "even 2 channels keep double-digit-ish savings (paper: ~14%)",
        series[2].1 > 0.08,
    );
    t.check(
        "performance bound holds at every channel count",
        series.iter().all(|&(_, _, w)| w < 0.115),
    );
    t
}

/// Regenerates Fig 14: sensitivity to the memory fraction of server power.
pub fn fig14() -> Table {
    let mut t = Table::new(
        "fig14",
        "Impact of the memory power fraction (Fig 14, MID average)",
        &[
            "Memory fraction",
            "System energy reduction",
            "Worst-case CPI increase",
        ],
    );
    let mut series = Vec::new();
    for frac in [0.3, 0.4, 0.5] {
        let mut cfg = sweep_cfg();
        cfg.system.power.mem_power_fraction = frac;
        let (sys, worst) = mid_point(&calibrate_mid(&cfg), &cfg);
        series.push(sys);
        t.row(vec![pct(frac), pct(sys), pct(worst)]);
    }
    t.check(
        "savings grow with the memory fraction (paper: 11% -> 24%)",
        series[0] < series[1] && series[1] < series[2],
    );
    t.check(
        "50% fraction roughly doubles the 30% fraction's savings",
        series[2] > 1.5 * series[0],
    );
    t
}

/// Regenerates Fig 15: sensitivity to MC/register power proportionality.
pub fn fig15() -> Table {
    let mut t = Table::new(
        "fig15",
        "Impact of MC/register power proportionality (Fig 15, MID average)",
        &[
            "Idle power (of peak)",
            "System energy reduction",
            "Worst-case CPI increase",
        ],
    );
    let mut series = Vec::new();
    for idle in [0.0, 0.5, 1.0] {
        let mut cfg = sweep_cfg();
        cfg.system.power.mc_reg_idle_fraction = idle;
        let (sys, worst) = mid_point(&calibrate_mid(&cfg), &cfg);
        series.push(sys);
        t.row(vec![pct(idle), pct(sys), pct(worst)]);
    }
    t.check(
        "less proportionality (higher idle power) -> larger savings",
        series[0] < series[2],
    );
    t.check(
        "no-proportionality savings are large (paper: ~23%)",
        series[2] > 0.15,
    );
    t
}

/// Regenerates the §4.2.4 epoch/profiling-length study (reported as text in
/// the paper: "essentially insensitive to reasonable values").
pub fn sens_epoch() -> Table {
    let base = sweep_cfg();
    let exps = calibrate_mid(&base);
    let mut t = Table::new(
        "sens_epoch",
        "Epoch and profiling-length sensitivity (section 4.2.4, MID average)",
        &[
            "Epoch",
            "Profiling",
            "System energy reduction",
            "Worst-case CPI increase",
        ],
    );
    let points = [
        (Picos::from_ms(1), Picos::from_us(300)),
        (Picos::from_ms(5), Picos::from_us(300)),
        (Picos::from_ms(10), Picos::from_us(300)),
        (Picos::from_ms(5), Picos::from_us(100)),
        (Picos::from_ms(5), Picos::from_us(500)),
    ];
    let mut sys_all = Vec::new();
    for (epoch, profile) in points {
        let mut cfg = base.clone();
        cfg.governor.epoch = epoch;
        cfg.governor.profile_len = profile;
        let (sys, worst) = mid_point(&exps, &cfg);
        sys_all.push(sys);
        t.row(vec![
            format!("{epoch}"),
            format!("{profile}"),
            pct(sys),
            pct(worst),
        ]);
    }
    let spread = sys_all.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - sys_all.iter().copied().fold(f64::INFINITY, f64::min);
    t.check(
        &format!(
            "savings essentially insensitive to epoch/profiling lengths (spread {:.1} pp)",
            spread * 100.0
        ),
        spread < 0.06,
    );
    t
}

/// Regenerates the §4.2.4 core-count study (8- and 32-core systems on 4
/// channels; 32 cores raise traffic 2-4x).
pub fn sens_cores() -> Table {
    let mut t = Table::new(
        "sens_cores",
        "Core-count sensitivity (section 4.2.4, MID average)",
        &[
            "Cores",
            "System energy reduction",
            "Worst-case CPI increase",
        ],
    );
    let mut series = Vec::new();
    for cores in [8usize, 16, 32] {
        let mut cfg = sweep_cfg();
        cfg.system.cpu.cores = cores;
        let (sys, worst) = mid_point(&calibrate_mid(&cfg), &cfg);
        series.push((cores, sys, worst));
        t.row(vec![cores.to_string(), pct(sys), pct(worst)]);
    }
    t.check(
        "32 cores still save meaningful energy (paper: 7.6-10.4%)",
        series[2].1 > 0.05,
    );
    t.check(
        "higher traffic (32 cores) saves less than 16 cores",
        series[2].1 < series[1].1,
    );
    t.check(
        "performance bound holds at every core count",
        series.iter().all(|&(_, _, w)| w < 0.115),
    );
    t
}
