//! End-to-end integration: full simulations spanning every crate.

use memscale::policies::PolicyKind;
use memscale_simulator::harness::Experiment;
use memscale_simulator::{SimConfig, Simulation};
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::{Mix, WorkloadClass};

fn quick() -> SimConfig {
    SimConfig::default().with_duration(Picos::from_ms(6))
}

#[test]
fn every_table1_mix_simulates() {
    for mix in Mix::table1() {
        let run = Simulation::new(&mix, PolicyKind::Baseline, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 50.0)
            .unwrap();
        assert!(run.counters.reads > 100, "{}: too few reads", mix.name);
        assert!(
            run.energy.memory_total_j() > 0.0,
            "{}: no energy accounted",
            mix.name
        );
        assert!(
            run.work.iter().all(|&w| w > 10_000),
            "{}: cores barely progressed",
            mix.name
        );
    }
}

#[test]
fn class_ordering_of_memory_traffic() {
    // MEM mixes must produce far more memory traffic than ILP mixes.
    let reads = |name: &str| {
        Simulation::new(&Mix::by_name(name).unwrap(), PolicyKind::Baseline, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 0.0)
            .unwrap()
            .counters
            .reads
    };
    let ilp = reads("ILP2");
    let mid = reads("MID1");
    let mem = reads("MEM1");
    assert!(mid > 2 * ilp, "MID {mid} vs ILP {ilp}");
    assert!(mem > 2 * mid, "MEM {mem} vs MID {mid}");
}

#[test]
fn memscale_full_loop_on_each_class() {
    for (name, min_mem_savings) in [("ILP3", 0.4), ("MID2", 0.15), ("MEM2", 0.02)] {
        let mix = Mix::by_name(name).unwrap();
        let exp = Experiment::calibrate(&mix, &quick()).unwrap();
        let (run, cmp) = exp.evaluate(PolicyKind::MemScale).unwrap();
        assert!(
            cmp.memory_savings > min_mem_savings,
            "{name}: memory savings {:.3}",
            cmp.memory_savings
        );
        assert!(
            cmp.max_cpi_increase() < 0.115,
            "{name}: bound violated {:.3}",
            cmp.max_cpi_increase()
        );
        assert!(run.duration >= exp.baseline().duration);
    }
}

#[test]
fn ilp_runs_at_min_frequency_most_of_the_time() {
    let mix = Mix::by_name("ILP2").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let (run, _) = exp.evaluate(PolicyKind::MemScale).unwrap();
    assert!(
        run.residency(MemFreq::F200) > 0.5,
        "ILP should park at 200 MHz; residency {:.2}",
        run.residency(MemFreq::F200)
    );
}

#[test]
fn energy_conservation_across_components() {
    // Total memory energy must equal the sum of its categories.
    let mix = Mix::by_name("MID3").unwrap();
    let run = Simulation::new(&mix, PolicyKind::MemScale, &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 40.0)
        .unwrap();
    let e = &run.energy.memory_j;
    let sum = e.background_w + e.act_pre_w + e.rd_wr_w + e.term_w + e.pll_w + e.reg_w + e.mc_w;
    assert!((sum - run.energy.memory_total_j()).abs() < 1e-9);
    // System = memory + rest.
    assert!(
        (run.energy.system_total_j() - run.energy.memory_total_j() - run.energy.rest_j).abs()
            < 1e-9
    );
}

#[test]
fn work_matched_runs_do_the_requested_work() {
    let mix = Mix::by_name("MID4").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    for policy in [PolicyKind::MemScale, PolicyKind::Static(MemFreq::F467)] {
        let (run, _) = exp.evaluate(policy).unwrap();
        for (i, (&target, &done)) in exp.baseline().work.iter().zip(&run.work).enumerate() {
            assert!(done >= target, "core {i}: {done} < {target}");
        }
    }
}

#[test]
fn full_runs_replay_clean_through_the_conformance_checker() {
    // Every `RunResult` carries the DDR3 conformance audit of its own
    // command stream; a full baseline and a full MemScale run (with its
    // frequency transitions) must both report zero violations.
    let mix = Mix::by_name("MID1").unwrap();
    for policy in [PolicyKind::Baseline, PolicyKind::MemScale] {
        let run = Simulation::new(&mix, policy, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 40.0)
            .unwrap();
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{policy:?}: {}", audit.summary());
        assert!(audit.commands_checked > 1_000);
    }
}

#[test]
fn streamed_audit_memory_does_not_grow_with_the_horizon() {
    // The audit replays commands as the run goes, holding only those above
    // the controller's watermark: quadrupling an audited MEM1 run's
    // horizon quadruples the commands checked but leaves the high-water
    // mark of held commands nearly unchanged.
    let mix = Mix::by_name("MEM1").unwrap();
    let run = |us: u64| {
        let run = Simulation::new(&mix, PolicyKind::MemScale, &quick())
            .unwrap()
            .run_for(Picos::from_us(us), 40.0)
            .unwrap();
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{us} us: {}", audit.summary());
        (run.audit_peak_held, audit.commands_checked)
    };
    let (short_peak, short_cmds) = run(500);
    let (long_peak, long_cmds) = run(2_000);
    assert!(long_cmds > 3 * short_cmds, "{short_cmds} -> {long_cmds}");
    assert!(
        4 * long_peak <= 5 * short_peak,
        "held-command peak grew from {short_peak} to {long_peak} over 4x the horizon"
    );
}

#[test]
fn ddr4_and_lpddr3_full_runs_replay_clean() {
    // One configuration switch selects the generation; the run is audited
    // against that generation's rule pack (bank groups on DDR4, deep
    // power-down and per-bank refresh on LPDDR3).
    use memscale_types::config::MemGeneration;
    let mix = Mix::by_name("MID1").unwrap();
    for (generation, policy) in [
        (MemGeneration::Ddr4, PolicyKind::MemScale),
        (MemGeneration::Lpddr3, PolicyKind::DeepPd),
    ] {
        let cfg = quick().with_generation(generation);
        let run = Simulation::new(&mix, policy, &cfg)
            .unwrap()
            .run_for(Picos::from_ms(6), 40.0)
            .unwrap();
        assert_eq!(run.generation, generation);
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{generation}: {}", audit.summary());
        assert!(audit.commands_checked > 1_000);
        if generation == MemGeneration::Lpddr3 {
            assert!(run.counters.edpc > 0, "deep power-down never engaged");
            assert!(run.deep_pd_time > Picos::ZERO);
        }
    }
}

#[test]
fn all_classes_have_four_mixes_that_run_under_every_policy() {
    // A broad smoke matrix: one mix per class x every comparison policy.
    for class in [WorkloadClass::Ilp, WorkloadClass::Mid, WorkloadClass::Mem] {
        let mix = &Mix::by_class(class)[0];
        let exp = Experiment::calibrate(mix, &quick()).unwrap();
        for policy in PolicyKind::comparison_set() {
            let (run, cmp) = exp.evaluate(policy).unwrap();
            assert!(run.counters.reads > 0, "{}/{:?}", mix.name, policy);
            assert!(
                cmp.memory_savings > -0.35,
                "{}/{:?}: implausible loss {:.2}",
                mix.name,
                policy,
                cmp.memory_savings
            );
        }
    }
}
