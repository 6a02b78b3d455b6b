//! Fault-injection integration: seeded fault runs across every memory
//! generation must complete without panicking, keep the recorded command
//! stream protocol-conformant under the generation's audit rule pack, and
//! attach a populated fault report.

use memscale::policies::PolicyKind;
use memscale_simulator::{SimConfig, Simulation};
use memscale_types::config::MemGeneration;
use memscale_types::faults::FaultPlan;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

const GENERATIONS: [MemGeneration; 3] = [
    MemGeneration::Ddr3,
    MemGeneration::Ddr4,
    MemGeneration::Lpddr3,
];

fn fault_run_for(
    generation: MemGeneration,
    policy: PolicyKind,
    plan: FaultPlan,
    duration: Picos,
) -> memscale_simulator::RunResult {
    let mix = Mix::by_name("MEM1").unwrap();
    let cfg = SimConfig::quick()
        .with_generation(generation)
        .with_duration(duration)
        .with_faults(plan);
    Simulation::new(&mix, policy, &cfg)
        .unwrap()
        .run_for(duration, 60.0)
        .unwrap()
}

fn fault_run(
    generation: MemGeneration,
    policy: PolicyKind,
    plan: FaultPlan,
) -> memscale_simulator::RunResult {
    fault_run_for(generation, policy, plan, Picos::from_ms(4))
}

/// The headline robustness claim: a uniform all-class fault plan on every
/// generation finishes, stays audit-clean, and reports injected faults.
#[test]
fn fault_runs_stay_protocol_conformant_across_generations() {
    for generation in GENERATIONS {
        // Several epochs' worth of per-epoch draws so every generation sees
        // injections even when individual draws miss.
        let run = fault_run_for(
            generation,
            PolicyKind::MemScale,
            FaultPlan::uniform(0xF0_01, 0.6),
            Picos::from_ms(12),
        );
        let audit = run.audit.as_ref().expect("the default SimConfig audits");
        assert!(
            audit.is_clean(),
            "{generation}: fault run violated protocol: {}",
            audit.summary()
        );
        let faults = run.faults.expect("fault report attached");
        assert!(
            faults.total_injected() > 0,
            "{generation}: no faults injected at 35% rates"
        );
    }
}

/// How a single-class scenario counts the faults belonging to its class.
type ClassCounter = fn(&memscale_simulator::FaultReport) -> u64;

/// Each fault class can be enabled in isolation: only its counters move,
/// and the run still passes the audit rule pack.
#[test]
fn single_class_plans_fire_only_their_class() {
    let classes: [(&str, FaultPlan, ClassCounter); 4] = [
        (
            "counter",
            FaultPlan {
                counter_rate: 0.5,
                ..FaultPlan::default()
            },
            |f| f.counter_corrupted + f.counter_stale + f.counter_dropped,
        ),
        (
            "refresh",
            FaultPlan {
                refresh_rate: 0.5,
                ..FaultPlan::default()
            },
            |f| f.refresh_slips + f.refresh_drops,
        ),
        (
            "thermal",
            FaultPlan {
                thermal_rate: 0.5,
                ..FaultPlan::default()
            },
            |f| f.thermal_events,
        ),
        (
            "relock",
            FaultPlan {
                relock_rate: 0.9,
                ..FaultPlan::default()
            },
            |f| f.relock_overruns,
        ),
    ];
    for (name, plan, count) in classes {
        let run = fault_run(MemGeneration::Ddr3, PolicyKind::MemScale, plan);
        let audit = run.audit.as_ref().expect("the default SimConfig audits");
        assert!(audit.is_clean(), "{name}: {}", audit.summary());
        let faults = run.faults.expect("fault report attached");
        let fired = count(&faults);
        assert!(fired > 0, "{name}: class never fired");
        assert_eq!(
            faults.total_injected(),
            fired,
            "{name}: other classes fired too: {faults:?}"
        );
    }
}

/// Powerdown-exit spikes need a policy that actually powers ranks down.
#[test]
fn pd_exit_spikes_fire_under_fast_pd() {
    let plan = FaultPlan {
        pd_exit_rate: 1.0,
        ..FaultPlan::default()
    };
    let run = fault_run(MemGeneration::Ddr3, PolicyKind::FastPd, plan);
    let audit = run.audit.as_ref().expect("the default SimConfig audits");
    assert!(audit.is_clean(), "{}", audit.summary());
    let faults = run.faults.expect("fault report attached");
    assert!(faults.pd_exit_spikes > 0, "no spikes despite rate 1.0");
}

/// Same plan, same seed: the fault stream and the simulated outcome are
/// bit-identical.
#[test]
fn fault_runs_are_deterministic() {
    let plan = FaultPlan::uniform(0xDE_7E, 0.25);
    let a = fault_run(MemGeneration::Ddr3, PolicyKind::MemScale, plan.clone());
    let b = fault_run(MemGeneration::Ddr3, PolicyKind::MemScale, plan);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.energy.memory_total_j(), b.energy.memory_total_j());
    assert_eq!(a.completion, b.completion);
}

/// A different seed perturbs the run differently.
#[test]
fn fault_seed_changes_the_stream() {
    let a = fault_run(
        MemGeneration::Ddr3,
        PolicyKind::MemScale,
        FaultPlan::uniform(1, 0.25),
    );
    let b = fault_run(
        MemGeneration::Ddr3,
        PolicyKind::MemScale,
        FaultPlan::uniform(2, 0.25),
    );
    assert_ne!(a.faults, b.faults);
}

/// An all-zero-rate plan is inert: no injector is built and the result
/// carries no fault report, so the clean path stays byte-identical.
#[test]
fn inactive_plan_leaves_run_unchanged() {
    let mix = Mix::by_name("MEM1").unwrap();
    let cfg = SimConfig::quick().with_duration(Picos::from_ms(4));
    let clean = Simulation::new(&mix, PolicyKind::MemScale, &cfg)
        .unwrap()
        .run_for(Picos::from_ms(4), 60.0)
        .unwrap();
    let inert = Simulation::new(
        &mix,
        PolicyKind::MemScale,
        &cfg.clone().with_faults(FaultPlan::default()),
    )
    .unwrap()
    .run_for(Picos::from_ms(4), 60.0)
    .unwrap();
    assert!(inert.faults.is_none(), "inactive plan built an injector");
    assert_eq!(clean.counters, inert.counters);
    assert_eq!(clean.energy.memory_total_j(), inert.energy.memory_total_j());
    assert_eq!(clean.completion, inert.completion);
}

/// Thermal throttling visibly caps the grid: with a harsh always-on cap the
/// governor can never run above it, and the audit stays clean through the
/// forced switches.
#[test]
fn thermal_cap_bounds_the_grid() {
    let plan = FaultPlan {
        thermal_rate: 1.0,
        thermal_cap: MemFreq::F200,
        thermal_epochs: 4,
        ..FaultPlan::default()
    };
    let run = fault_run(MemGeneration::Ddr3, PolicyKind::MemScale, plan);
    let audit = run.audit.as_ref().expect("the default SimConfig audits");
    assert!(audit.is_clean(), "{}", audit.summary());
    let faults = run.faults.expect("fault report attached");
    assert!(faults.thermal_events > 0);
}
