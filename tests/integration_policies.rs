//! Policy-level integration: the §4.2.3 comparison relationships.

use memscale::policies::PolicyKind;
use memscale_simulator::harness::Experiment;
use memscale_simulator::SimConfig;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

fn experiment(name: &str) -> Experiment {
    let cfg = SimConfig::default().with_duration(Picos::from_ms(8));
    Experiment::calibrate(&Mix::by_name(name).unwrap(), &cfg).unwrap()
}

#[test]
fn memscale_beats_decoupled_on_mid() {
    let exp = experiment("MID1");
    let (_, ms) = exp.evaluate(PolicyKind::MemScale).unwrap();
    let (_, dc) = exp
        .evaluate(PolicyKind::Decoupled {
            device: MemFreq::F400,
        })
        .unwrap();
    assert!(
        ms.system_savings > dc.system_savings,
        "MemScale {:.3} vs Decoupled {:.3}",
        ms.system_savings,
        dc.system_savings
    );
}

#[test]
fn memscale_beats_static_on_mid() {
    let exp = experiment("MID2");
    let (_, ms) = exp.evaluate(PolicyKind::MemScale).unwrap();
    let (_, st) = exp.evaluate(PolicyKind::Static(MemFreq::F467)).unwrap();
    assert!(
        ms.system_savings >= st.system_savings - 0.01,
        "MemScale {:.3} vs Static {:.3}",
        ms.system_savings,
        st.system_savings
    );
}

#[test]
fn slow_pd_degrades_more_than_fast_pd() {
    let exp = experiment("MID1");
    let (_, fast) = exp.evaluate(PolicyKind::FastPd).unwrap();
    let (_, slow) = exp.evaluate(PolicyKind::SlowPd).unwrap();
    assert!(
        slow.max_cpi_increase() > fast.max_cpi_increase(),
        "slow {:.3} vs fast {:.3}",
        slow.max_cpi_increase(),
        fast.max_cpi_increase()
    );
}

#[test]
fn slow_pd_can_lose_system_energy() {
    // The paper's headline negative result: aggressive slow-exit powerdown
    // hurts performance so much the whole server wastes energy.
    let exp = experiment("MEM1");
    let (_, slow) = exp.evaluate(PolicyKind::SlowPd).unwrap();
    assert!(
        slow.system_savings < 0.02,
        "Slow-PD should save (almost) nothing on MEM: {:.3}",
        slow.system_savings
    );
}

#[test]
fn memenergy_variant_saves_more_memory_not_more_system() {
    let exp = experiment("MID3");
    let (_, ms) = exp.evaluate(PolicyKind::MemScale).unwrap();
    let (_, me) = exp.evaluate(PolicyKind::MemScaleMemEnergy).unwrap();
    assert!(
        me.memory_savings >= ms.memory_savings - 0.01,
        "MemEnergy mem {:.3} vs MemScale mem {:.3}",
        me.memory_savings,
        ms.memory_savings
    );
    assert!(
        me.system_savings <= ms.system_savings + 0.01,
        "MemEnergy sys {:.3} vs MemScale sys {:.3}",
        me.system_savings,
        ms.system_savings
    );
}

#[test]
fn adding_fast_pd_to_memscale_changes_little() {
    let exp = experiment("MID4");
    let (_, ms) = exp.evaluate(PolicyKind::MemScale).unwrap();
    let (_, combo) = exp.evaluate(PolicyKind::MemScaleFastPd).unwrap();
    assert!(
        (combo.system_savings - ms.system_savings).abs() < 0.05,
        "combo {:.3} vs memscale {:.3}",
        combo.system_savings,
        ms.system_savings
    );
}

#[test]
fn static_frequency_obeys_its_setting() {
    let exp = experiment("MID1");
    let (run, _) = exp.evaluate(PolicyKind::Static(MemFreq::F533)).unwrap();
    assert!((run.residency(MemFreq::F533) - 1.0).abs() < 1e-9);
    assert!((run.mean_frequency_mhz() - 533.0).abs() < 1e-6);
}

#[test]
fn decoupled_runs_channel_at_max_with_device_power_at_400() {
    let exp = experiment("MID1");
    let (run, cmp) = exp
        .evaluate(PolicyKind::Decoupled {
            device: MemFreq::F400,
        })
        .unwrap();
    // Channel stays at 800 MHz...
    assert!((run.residency(MemFreq::F800) - 1.0).abs() < 1e-9);
    // ...but DRAM background power drops, so memory energy is saved.
    assert!(
        cmp.memory_savings > 0.05,
        "Decoupled memory savings {:.3}",
        cmp.memory_savings
    );
    // The sync-buffer latency costs some performance.
    assert!(cmp.avg_cpi_increase() > 0.0);
}

#[test]
fn tighter_gamma_leads_to_less_aggressive_scaling() {
    let mix = Mix::by_name("MID2").unwrap();
    let base_cfg = SimConfig::default().with_duration(Picos::from_ms(8));
    let exp = Experiment::calibrate(&mix, &base_cfg).unwrap();

    let mut tight = base_cfg.clone();
    tight.governor.gamma = 0.01;
    let (run_tight, cmp_tight) = exp
        .evaluate_configured(PolicyKind::MemScale, &tight)
        .unwrap();
    let (run_loose, cmp_loose) = exp.evaluate(PolicyKind::MemScale).unwrap();

    assert!(
        run_tight.mean_frequency_mhz() >= run_loose.mean_frequency_mhz(),
        "tight {:.0} MHz vs loose {:.0} MHz",
        run_tight.mean_frequency_mhz(),
        run_loose.mean_frequency_mhz()
    );
    assert!(cmp_tight.max_cpi_increase() <= 0.025);
    assert!(cmp_tight.system_savings <= cmp_loose.system_savings + 0.01);
}

#[test]
fn per_channel_extension_is_safe_and_competitive() {
    // §6 future-work extension: per-channel selection must respect the
    // bound and land near tandem MemScale's savings.
    let exp = experiment("MID2");
    let (run, cmp) = exp.evaluate(PolicyKind::MemScalePerChannel).unwrap();
    let (_, tandem) = exp.evaluate(PolicyKind::MemScale).unwrap();
    assert!(
        cmp.max_cpi_increase() < 0.115,
        "worst {:.3}",
        cmp.max_cpi_increase()
    );
    assert!(
        (cmp.system_savings - tandem.system_savings).abs() < 0.05,
        "per-channel {:.3} vs tandem {:.3}",
        cmp.system_savings,
        tandem.system_savings
    );
    // The heterogeneous path actually ran (some residency off channel 0's
    // base point or matching tandem's spread).
    assert!(run.counters.reads > 0);
}

#[test]
fn powerdown_and_per_channel_streams_are_conformant() {
    // The powerdown policies exercise tXP/tXPDLL exit latencies and the
    // per-channel extension drives heterogeneous relocks; all must audit
    // clean against the DDR3 rules.
    use memscale_simulator::Simulation;
    let cfg = SimConfig::default().with_duration(Picos::from_ms(4));
    let mix = Mix::by_name("MID1").unwrap();
    for policy in [
        PolicyKind::FastPd,
        PolicyKind::SlowPd,
        PolicyKind::MemScalePerChannel,
    ] {
        let run = Simulation::new(&mix, policy, &cfg)
            .unwrap()
            .run_for(Picos::from_ms(4), 30.0)
            .unwrap();
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{policy:?}: {}", audit.summary());
        assert!(audit.commands_checked > 0);
    }
}

#[test]
fn ddr4_policy_runs_are_conformant() {
    // DDR4 adds same-group tCCD_L/tRRD_L constraints and a shorter tFAW;
    // the governor's relocks and the powerdown baseline's tXP exits must
    // still replay clean against the DDR4 rule pack.
    use memscale_simulator::Simulation;
    use memscale_types::config::MemGeneration;
    let cfg = SimConfig::default()
        .with_duration(Picos::from_ms(4))
        .with_generation(MemGeneration::Ddr4);
    let mix = Mix::by_name("MID1").unwrap();
    for policy in [PolicyKind::MemScale, PolicyKind::FastPd] {
        let run = Simulation::new(&mix, policy, &cfg)
            .unwrap()
            .run_for(Picos::from_ms(4), 30.0)
            .unwrap();
        assert_eq!(run.generation, MemGeneration::Ddr4);
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{policy:?}: {}", audit.summary());
        assert!(audit.commands_checked > 0);
    }
}

#[test]
fn open_page_streams_are_conformant() {
    // Open-page management defers precharges past row hits; the deferred
    // PRE placement still has to satisfy tRAS/tRTP/tWR.
    use memscale_mc::RowPolicy;
    use memscale_simulator::Simulation;
    let mix = Mix::by_name("MID1").unwrap();
    let mut cfg = SimConfig::default().with_duration(Picos::from_ms(2));
    cfg.row_policy = RowPolicy::OpenPage;
    let run = Simulation::new(&mix, PolicyKind::Baseline, &cfg)
        .unwrap()
        .run_for(Picos::from_ms(2), 0.0)
        .unwrap();
    let audit = run.audit.as_ref().expect("audit enabled in test builds");
    assert!(audit.is_clean(), "{}", audit.summary());
    assert!(audit.commands_checked > 0);
}

#[test]
fn open_page_changes_row_hit_behaviour() {
    use memscale_mc::RowPolicy;
    use memscale_simulator::Simulation;

    let mix = Mix::by_name("MID1").unwrap();
    let mut open_cfg = SimConfig::default().with_duration(Picos::from_ms(4));
    open_cfg.row_policy = RowPolicy::OpenPage;
    let closed_cfg = SimConfig::default().with_duration(Picos::from_ms(4));

    let open = Simulation::new(&mix, PolicyKind::Baseline, &open_cfg)
        .unwrap()
        .run_for(Picos::from_ms(4), 0.0)
        .unwrap();
    let closed = Simulation::new(&mix, PolicyKind::Baseline, &closed_cfg)
        .unwrap()
        .run_for(Picos::from_ms(4), 0.0)
        .unwrap();
    // Open-page must produce strictly more row hits and also open-row
    // conflicts, which closed-page avoids almost entirely.
    assert!(open.counters.rbhc > closed.counters.rbhc);
    assert!(open.counters.obmc > closed.counters.obmc);
}
