//! Energy-model integration: physical sanity of the integrated power
//! accounting across the full stack.

use memscale::policies::PolicyKind;
use memscale_simulator::harness::Experiment;
use memscale_simulator::{SimConfig, Simulation};
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

fn quick() -> SimConfig {
    SimConfig::default().with_duration(Picos::from_ms(6))
}

#[test]
fn memory_power_is_in_a_plausible_server_band() {
    // 8 DIMMs + MC: idle floor tens of watts, loaded well under 100 W.
    for name in ["ILP1", "MID2", "MEM3"] {
        let mix = Mix::by_name(name).unwrap();
        let run = Simulation::new(&mix, PolicyKind::Baseline, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 0.0)
            .unwrap();
        let avg = run.energy.memory_avg_w();
        assert!(
            (20.0..90.0).contains(&avg),
            "{name}: implausible memory power {avg:.1} W"
        );
    }
}

#[test]
fn memory_power_orders_by_class() {
    let avg = |name: &str| {
        Simulation::new(&Mix::by_name(name).unwrap(), PolicyKind::Baseline, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 0.0)
            .unwrap()
            .energy
            .memory_avg_w()
    };
    let ilp = avg("ILP2");
    let mid = avg("MID1");
    let mem = avg("MEM1");
    assert!(
        ilp < mid && mid < mem,
        "ilp {ilp:.1} mid {mid:.1} mem {mem:.1}"
    );
}

#[test]
fn static_low_frequency_cuts_memory_power() {
    let mix = Mix::by_name("ILP1").unwrap();
    let base = Simulation::new(&mix, PolicyKind::Baseline, &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    let slow = Simulation::new(&mix, PolicyKind::Static(MemFreq::F200), &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    // ILP work barely stretches, while background/PLL/REG/MC power drops.
    assert!(
        slow.energy.memory_avg_w() < 0.6 * base.energy.memory_avg_w(),
        "200 MHz {:.1} W vs 800 MHz {:.1} W",
        slow.energy.memory_avg_w(),
        base.energy.memory_avg_w()
    );
}

#[test]
fn mc_energy_falls_superlinearly_with_dvfs() {
    let mix = Mix::by_name("ILP2").unwrap();
    let base = Simulation::new(&mix, PolicyKind::Baseline, &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    let slow = Simulation::new(&mix, PolicyKind::Static(MemFreq::F400), &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    let ratio = slow.energy.memory_j.mc_w / base.energy.memory_j.mc_w;
    // V^2*f at 400 MHz: (0.833/1.2)^2 * 0.5 = 0.24; allow dilation slack.
    assert!(ratio < 0.35, "MC energy ratio {ratio:.3}");
}

#[test]
fn fast_pd_cuts_background_but_not_mc() {
    let mix = Mix::by_name("ILP2").unwrap();
    let base = Simulation::new(&mix, PolicyKind::Baseline, &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    let pd = Simulation::new(&mix, PolicyKind::FastPd, &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    assert!(
        pd.energy.memory_j.background_w < base.energy.memory_j.background_w,
        "powerdown must cut background energy"
    );
    let mc_ratio = pd.energy.memory_j.mc_w / base.energy.memory_j.mc_w;
    assert!(
        (0.95..1.05).contains(&mc_ratio),
        "Fast-PD must not change MC energy: ratio {mc_ratio:.3}"
    );
}

#[test]
fn refresh_energy_is_frequency_independent() {
    // Refresh runs at a fixed duty cycle; its contribution is folded into
    // background power and should not vanish at low frequency.
    let mix = Mix::by_name("ILP2").unwrap();
    let hi = Simulation::new(&mix, PolicyKind::Baseline, &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    let lo = Simulation::new(&mix, PolicyKind::Static(MemFreq::F200), &quick())
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    // Background at 200 MHz keeps more than the pure-linear 25% share
    // because refresh (and powerdown floors) do not scale.
    let ratio = lo.energy.memory_j.background_w / hi.energy.memory_j.background_w;
    assert!(ratio > 0.25, "background ratio {ratio:.3}");
}

#[test]
fn system_savings_never_exceed_memory_share() {
    // System savings are memory savings diluted by the rest-of-system.
    let mix = Mix::by_name("MID3").unwrap();
    let exp = Experiment::calibrate(&mix, &quick()).unwrap();
    let (_, cmp) = exp.evaluate(PolicyKind::MemScale).unwrap();
    assert!(cmp.system_savings < cmp.memory_savings);
    assert!(cmp.system_savings > 0.25 * cmp.memory_savings);
}

#[test]
fn higher_memory_fraction_raises_system_savings() {
    let mix = Mix::by_name("MID1").unwrap();
    let mut lo_cfg = quick();
    lo_cfg.system.power.mem_power_fraction = 0.3;
    let mut hi_cfg = quick();
    hi_cfg.system.power.mem_power_fraction = 0.5;
    let lo = Experiment::calibrate(&mix, &lo_cfg)
        .unwrap()
        .evaluate(PolicyKind::MemScale)
        .unwrap()
        .1;
    let hi = Experiment::calibrate(&mix, &hi_cfg)
        .unwrap()
        .evaluate(PolicyKind::MemScale)
        .unwrap()
        .1;
    assert!(
        hi.system_savings > lo.system_savings,
        "50% fraction {:.3} vs 30% fraction {:.3}",
        hi.system_savings,
        lo.system_savings
    );
}

#[test]
fn scaled_and_decoupled_runs_are_protocol_conformant() {
    // Static low-frequency operation and the decoupled-DIMM mode (whose CAS
    // lag is folded into the audited tCL) must both replay clean.
    let mix = Mix::by_name("ILP2").unwrap();
    for policy in [
        PolicyKind::Static(MemFreq::F200),
        PolicyKind::Decoupled {
            device: MemFreq::F400,
        },
    ] {
        let run = Simulation::new(&mix, policy, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 0.0)
            .unwrap();
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{policy:?}: {}", audit.summary());
        assert!(audit.commands_checked > 0);
    }
}

#[test]
fn lpddr3_deep_powerdown_saves_background_energy_and_audits_clean() {
    // LPDDR3's extra idle state: deep power-down must undercut fast
    // powerdown's background energy on an idle-heavy mix, while the run
    // (tXDPD exits, per-bank refresh) replays clean through the LPDDR pack.
    use memscale_types::config::MemGeneration;
    let mix = Mix::by_name("ILP2").unwrap();
    let cfg = quick().with_generation(MemGeneration::Lpddr3);
    let fast = Simulation::new(&mix, PolicyKind::FastPd, &cfg)
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    let deep = Simulation::new(&mix, PolicyKind::DeepPd, &cfg)
        .unwrap()
        .run_for(Picos::from_ms(6), 0.0)
        .unwrap();
    for run in [&fast, &deep] {
        assert_eq!(run.generation, MemGeneration::Lpddr3);
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{}", audit.summary());
    }
    assert!(deep.counters.edpc > 0, "deep power-down never engaged");
    assert!(
        deep.energy.memory_j.background_w < fast.energy.memory_j.background_w,
        "deep {:.3} J vs fast {:.3} J background",
        deep.energy.memory_j.background_w,
        fast.energy.memory_j.background_w
    );
}

#[test]
fn relock_windows_are_charged_as_powerdown_residency() {
    // MemScale's frequency transitions spend 512 cycles + 28 ns in
    // precharge powerdown; the energy account must reflect *some* CKE-low
    // residency even without a powerdown policy.
    let mix = Mix::by_name("MID3").unwrap();
    let cfg = quick();
    let sim = Simulation::new(&mix, PolicyKind::MemScale, &cfg).unwrap();
    let run = sim.run_for(Picos::from_ms(6), 0.0).unwrap();
    // At least one frequency change happened...
    let changes: u64 = run.freq_residency_ps.iter().filter(|&&ps| ps > 0).count() as u64;
    assert!(
        changes >= 2,
        "expected frequency changes, got {changes} level(s)"
    );
}
