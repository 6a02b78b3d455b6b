//! SLO-judged diurnal service sweep: the open-loop subsystem
//! (`memscale-arrivals` + `memscale_simulator::slo`) evaluated the way a
//! datacenter operator would — policies run against the identical seeded
//! diurnal request stream at three offered-load tiers and are judged on
//! p99 latency against an SLO, not on CPI slack.

use crate::report::{f, pct, Table};
use memscale::policies::PolicyKind;
use memscale_arrivals::ArrivalSpec;
use memscale_simulator::shard::ShardSpec;
use memscale_simulator::slo::{run_slo_sweep, ServiceConfig, SloReport};
use memscale_simulator::SimConfig;
use memscale_types::freq::MemFreq;
use memscale_types::requests::SloSpec;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

/// The p99 objective all tiers are judged against (ms).
const SLO_P99_MS: f64 = 3.0;

/// The three offered-load tiers: a trough/peak diurnal schedule scaled
/// 1× / 2× / 8×. The top tier deliberately saturates the machine.
const TIERS: [&str; 3] = [
    "diurnal:2x500,2x1500",
    "diurnal:2x1000,2x3000",
    "diurnal:2x4000,2x12000",
];

fn slo_cfg() -> SimConfig {
    let mut cfg = SimConfig::default().with_duration(Picos::from_ms(8));
    cfg.system.cpu.cores = 4;
    cfg.seed = 11;
    cfg
}

fn outcome<'r>(report: &'r SloReport, label: &str) -> &'r memscale_simulator::slo::PolicyOutcome {
    report
        .outcomes
        .iter()
        .find(|o| o.label == label)
        .unwrap_or_else(|| panic!("no outcome for {label}"))
}

/// Three policies × three diurnal load tiers, judged on a 3 ms p99 SLO.
pub fn slo_diurnal() -> Table {
    let mut t = Table::new(
        "slo_diurnal",
        "SLO-judged diurnal service sweep: p99 latency vs offered load (MID1, p99 \u{2264} 3 ms)",
        &[
            "Arrivals",
            "Policy",
            "Submitted",
            "Done",
            "p50 ms",
            "p99 ms",
            "Viol",
            "Mean MHz",
            "Mem J",
            "SLO",
        ],
    );
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = slo_cfg();
    let shards = [
        ShardSpec::of(PolicyKind::Baseline),
        ShardSpec::of(PolicyKind::MemScale),
        ShardSpec::of(PolicyKind::Static(MemFreq::MIN)),
    ];

    let mut reports = Vec::new();
    for arrivals in TIERS {
        let cfg = cfg.clone().with_service(
            ServiceConfig::new(ArrivalSpec::parse(arrivals).unwrap())
                .with_slo(SloSpec::p99(SLO_P99_MS)),
        );
        let report = run_slo_sweep(&mix, &cfg, &shards, None).unwrap();
        for o in &report.outcomes {
            t.row(vec![
                arrivals.into(),
                o.label.clone(),
                o.stats.submitted.to_string(),
                o.stats.completed.to_string(),
                f(o.stats.p50_ms, 2),
                f(o.stats.p99_ms, 2),
                o.stats.slo_violations.to_string(),
                f(o.mean_frequency_mhz, 0),
                f(o.memory_energy_j, 3),
                if o.breach { "BREACH" } else { "meets" }.into(),
            ]);
        }
        reports.push((arrivals, cfg, report));
    }

    let offpeak_hold = reports[..2].iter().all(|(_, _, r)| !r.any_breach());
    t.check(
        "every policy meets the 3 ms p99 SLO at the off-peak tiers",
        offpeak_hold,
    );

    // At 8× load even the full-frequency baseline misses the objective —
    // the peak-tier breach is a capacity limit, not a policy failure.
    let peak = &reports[2].2;
    t.check(
        "the peak tier saturates even the full-frequency baseline",
        outcome(peak, "baseline").breach,
    );

    let halved = reports[..2].iter().all(|(_, _, r)| {
        let ms = outcome(r, "memscale");
        !ms.breach && ms.memory_energy_j <= 0.5 * outcome(r, "baseline").memory_energy_j
    });
    t.check(
        "MemScale at least halves memory energy while meeting the SLO off-peak",
        halved,
    );

    let low_mhz = outcome(&reports[0].2, "memscale").mean_frequency_mhz;
    let peak_mhz = outcome(peak, "memscale").mean_frequency_mhz;
    t.check(
        "the governor tracks load: MemScale mean MHz rises from trough to peak",
        peak_mhz > low_mhz,
    );

    // Determinism gate: a second sweep at the same seed must reproduce the
    // report byte-for-byte (the `memscale-sim slo` contract).
    let (_, cfg, first) = &reports[0];
    let again = run_slo_sweep(&mix, cfg, &shards, None).unwrap();
    t.check(
        "same-seed rerun reproduces the report byte-for-byte",
        again.to_json() == first.to_json(),
    );

    let mid = &reports[1].2;
    let saved =
        1.0 - outcome(mid, "memscale").memory_energy_j / outcome(mid, "baseline").memory_energy_j;
    t.note(format!(
        "Mid tier ({}): MemScale saves {} memory energy at p99 {} ms vs baseline {} ms (SLO {} ms).",
        reports[1].0,
        pct(saved),
        f(outcome(mid, "memscale").stats.p99_ms, 2),
        f(outcome(mid, "baseline").stats.p99_ms, 2),
        f(SLO_P99_MS, 1),
    ));
    t
}
