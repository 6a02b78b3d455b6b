//! Sensitivity integration: the §4.2.4 parameter relationships at test
//! scale (shorter horizons than the full experiment suite).

use memscale::policies::PolicyKind;
use memscale_simulator::harness::Experiment;
use memscale_simulator::SimConfig;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

fn quick() -> SimConfig {
    SimConfig::default().with_duration(Picos::from_ms(6))
}

#[test]
fn gamma_monotonicity_on_mid() {
    let mix = Mix::by_name("MID1").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let mut last_savings = -1.0;
    for gamma in [0.01, 0.05, 0.10] {
        let mut cfg = quick();
        cfg.governor.gamma = gamma;
        let (_, cmp) = exp.evaluate_configured(PolicyKind::MemScale, &cfg).unwrap();
        assert!(
            cmp.system_savings >= last_savings - 0.01,
            "savings fell from {last_savings:.3} at gamma {gamma}"
        );
        assert!(
            cmp.max_cpi_increase() < gamma + 0.02,
            "gamma {gamma}: worst {:.3}",
            cmp.max_cpi_increase()
        );
        last_savings = cmp.system_savings;
    }
}

#[test]
fn fewer_channels_still_respect_the_bound() {
    for channels in [2u8, 3] {
        let mut cfg = quick();
        cfg.system.topology.channels = channels;
        let mix = Mix::by_name("MID2").unwrap();
        let exp = Experiment::calibrate(&mix, &cfg).unwrap();
        let (_, cmp) = exp.evaluate(PolicyKind::MemScale).unwrap();
        assert!(
            cmp.max_cpi_increase() < 0.115,
            "{channels} channels: worst {:.3}",
            cmp.max_cpi_increase()
        );
        assert!(cmp.system_savings > 0.0, "{channels} channels: no savings");
    }
}

#[test]
fn no_proportionality_boosts_savings() {
    let mix = Mix::by_name("MID1").unwrap();
    let mut flat = quick();
    flat.system.power.mc_reg_idle_fraction = 1.0;
    let mut prop = quick();
    prop.system.power.mc_reg_idle_fraction = 0.0;
    let flat_cmp = Experiment::calibrate(&mix, &flat)
        .unwrap()
        .evaluate(PolicyKind::MemScale)
        .unwrap()
        .1;
    let prop_cmp = Experiment::calibrate(&mix, &prop)
        .unwrap()
        .evaluate(PolicyKind::MemScale)
        .unwrap()
        .1;
    assert!(
        flat_cmp.system_savings > prop_cmp.system_savings,
        "no-proportionality {:.3} vs perfect {:.3}",
        flat_cmp.system_savings,
        prop_cmp.system_savings
    );
}

#[test]
fn shorter_epochs_still_work() {
    let mix = Mix::by_name("MID4").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let mut cfg = quick();
    cfg.governor.epoch = Picos::from_ms(1);
    let (_, cmp) = exp.evaluate_configured(PolicyKind::MemScale, &cfg).unwrap();
    assert!(
        cmp.system_savings > 0.05,
        "1 ms epochs: {:.3}",
        cmp.system_savings
    );
    assert!(cmp.max_cpi_increase() < 0.115);
}

#[test]
fn different_profiling_lengths_agree() {
    let mix = Mix::by_name("MID1").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let mut savings = Vec::new();
    for profile_us in [100u64, 300, 500] {
        let mut cfg = quick();
        cfg.governor.profile_len = Picos::from_us(profile_us);
        let (_, cmp) = exp.evaluate_configured(PolicyKind::MemScale, &cfg).unwrap();
        savings.push(cmp.system_savings);
    }
    let spread = savings.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - savings.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.06, "profiling-length spread {spread:.3}");
}

#[test]
fn slack_carry_ablation_is_no_better() {
    // Per-epoch slack reset (the ablation) must not beat carry-forward.
    let mix = Mix::by_name("MID3").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let (_, carry) = exp.evaluate(PolicyKind::MemScale).unwrap();
    let mut cfg = quick();
    cfg.governor.slack_carry = false;
    let (_, reset) = exp.evaluate_configured(PolicyKind::MemScale, &cfg).unwrap();
    assert!(
        reset.system_savings <= carry.system_savings + 0.02,
        "reset {:.3} vs carry {:.3}",
        reset.system_savings,
        carry.system_savings
    );
    // Both must respect the bound.
    assert!(reset.max_cpi_increase() < 0.115);
}

#[test]
fn eight_core_system_scales_deeper() {
    // Fig 8's premise: less traffic on 8 cores leaves more frequency
    // headroom than on 16 cores.
    let mix = Mix::by_name("MEM4").unwrap();
    let mut cfg8 = quick();
    cfg8.system.cpu.cores = 8;
    let run8 = Experiment::calibrate(&mix, &cfg8)
        .unwrap()
        .evaluate(PolicyKind::MemScale)
        .unwrap()
        .0;
    let run16 = Experiment::calibrate(&mix, &quick())
        .unwrap()
        .evaluate(PolicyKind::MemScale)
        .unwrap()
        .0;
    assert!(
        run8.mean_frequency_mhz() <= run16.mean_frequency_mhz() + 1.0,
        "8 cores {:.0} MHz vs 16 cores {:.0} MHz",
        run8.mean_frequency_mhz(),
        run16.mean_frequency_mhz()
    );
}

#[test]
fn narrow_topologies_replay_clean() {
    // The auditor is built from the run's own (possibly narrowed) topology;
    // a two-channel MemScale run must still replay with zero violations.
    use memscale_simulator::Simulation;
    let mix = Mix::by_name("MID2").unwrap();
    let mut cfg = quick();
    cfg.system.topology.channels = 2;
    let run = Simulation::new(&mix, PolicyKind::MemScale, &cfg)
        .unwrap()
        .run_for(Picos::from_ms(6), 30.0)
        .unwrap();
    let audit = run.audit.as_ref().expect("the default SimConfig audits");
    assert!(audit.is_clean(), "{}", audit.summary());
    assert!(audit.commands_checked > 0);
}

#[test]
fn narrow_lpddr3_topology_replays_clean() {
    // Generation re-basing composes with topology narrowing: a two-channel
    // LPDDR3 MemScale run (per-bank refresh + relocks) audits clean against
    // the LPDDR rule pack.
    use memscale_simulator::Simulation;
    use memscale_types::config::MemGeneration;
    let mix = Mix::by_name("MID2").unwrap();
    let mut cfg = quick().with_generation(MemGeneration::Lpddr3);
    cfg.system.topology.channels = 2;
    let run = Simulation::new(&mix, PolicyKind::MemScale, &cfg)
        .unwrap()
        .run_for(Picos::from_ms(6), 30.0)
        .unwrap();
    assert_eq!(run.generation, MemGeneration::Lpddr3);
    let audit = run.audit.as_ref().expect("the default SimConfig audits");
    assert!(audit.is_clean(), "{}", audit.summary());
    assert!(audit.commands_checked > 0);
}

#[test]
fn queue_interpolation_refinement_stays_within_bound() {
    // §3.3's optional deep-queue refinement must not violate the bound and
    // should land near the default configuration's savings.
    let mix = Mix::by_name("MEM2").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let (_, base) = exp.evaluate(PolicyKind::MemScale).unwrap();
    let mut cfg = quick();
    cfg.governor.queue_interpolation = true;
    let (_, refined) = exp.evaluate_configured(PolicyKind::MemScale, &cfg).unwrap();
    assert!(
        refined.max_cpi_increase() < 0.115,
        "refined worst {:.3}",
        refined.max_cpi_increase()
    );
    assert!(
        (refined.system_savings - base.system_savings).abs() < 0.06,
        "refined {:.3} vs base {:.3}",
        refined.system_savings,
        base.system_savings
    );
}
