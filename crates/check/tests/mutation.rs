//! Mutation self-test: every invariant the analyzer claims to enforce must
//! actually fire.
//!
//! Each mutant takes the clean reference configuration of a generation,
//! breaks exactly one property, runs the full analyzer, and asserts that a
//! diagnostic naming the expected invariant appears. A silent mutant (the
//! analyzer stays clean) is a test failure — the invariant is decorative.
//!
//! Mutants are expressed as closures over `SystemConfig` so each generation
//! derives its breakage from its own reference values rather than hard-coded
//! DDR3 numbers. A table mutant that breaks an at-rest rule must also be
//! refused by startup validation, which reports the first entry of the same
//! list. FSM-table and coverage mutants perturb the declarative structures
//! directly through the checker's explicit-input entry points.

use memscale_audit::Rule;
use memscale_check::{check_system, coverage, fsm};
use memscale_types::config::{ConfigError, MemGeneration, SystemConfig};
use memscale_types::invariants::{check_at_rest, FsmFeature, FsmSpec, FsmTransition, TimingParam};

type Mutator = fn(&mut SystemConfig);

/// `(name, mutator, expected invariant)` triples valid on every generation.
fn universal_mutants() -> Vec<(&'static str, Mutator, &'static str)> {
    vec![
        ("trcd-zero", |s| s.timing.t_rcd_ns = 0.0, "param-positive"),
        (
            "trp-negative",
            |s| s.timing.t_rp_ns = -3.0,
            "param-positive",
        ),
        ("tcl-nan", |s| s.timing.t_cl_ns = f64::NAN, "param-positive"),
        ("trfc-zero", |s| s.timing.t_rfc_ns = 0.0, "param-positive"),
        ("txp-zero", |s| s.timing.t_xp_ns = 0.0, "param-positive"),
        (
            "burst-zero",
            |s| s.timing.burst_cycles = 0,
            "param-count-positive",
        ),
        (
            "refresh-commands-zero",
            |s| s.timing.refresh_commands = 0,
            "param-count-positive",
        ),
        (
            "mc-pipeline-zero",
            |s| s.timing.mc_pipeline_cycles = 0,
            "param-count-positive",
        ),
        (
            "tras-under-rcd-rtp",
            |s| s.timing.t_ras_ns = s.timing.t_rcd_ns + s.timing.t_rtp_ns - 0.5,
            "tras-covers-rcd-rtp",
        ),
        (
            "tfaw-under-2trrd",
            |s| s.timing.t_faw_ns = 2.0 * s.timing.t_rrd_ns - 0.5,
            "tfaw-covers-2trrd",
        ),
        (
            "trfc-swallows-refi",
            |s| s.timing.t_rfc_ns = 1e7,
            "refresh-duty",
        ),
        (
            "fast-exit-slower-than-slow-exit",
            |s| s.timing.t_xp_ns = s.timing.t_xpdll_ns + 1.0,
            "powerdown-exit-ladder",
        ),
        (
            "tccds-diverges-from-burst",
            |s| s.timing.t_ccd_s_cycles = s.timing.burst_cycles + 1,
            "tccds-matches-burst",
        ),
        (
            "relock-extra-negative",
            |s| s.timing.relock_extra_ns = -1.0,
            "relock-extra-nonnegative",
        ),
        (
            "bank-groups-zero",
            |s| s.timing.bank_groups = 0,
            "bank-groups-positive",
        ),
        (
            "trrdl-negative",
            |s| s.timing.t_rrd_l_ns = -1.0,
            "trrdl-positive",
        ),
        (
            "tccdl-zero",
            |s| s.timing.t_ccd_l_cycles = 0,
            "ccd-cycles-positive",
        ),
        (
            "relock-under-powerdown-exit",
            |s| {
                s.timing.relock_cycles = 1;
                s.timing.relock_extra_ns = 0.0;
            },
            "relock-covers-exit",
        ),
        (
            "refi-leaves-no-access-room",
            |s| {
                // tREFI between tRFC and tRFC + one closed-bank access at
                // the slowest point: passes the duty check, starves access.
                // Per-bank refresh is switched off so LPDDR3's tighter
                // per-bank duty coupling cannot mask the resolved check.
                s.timing.per_bank_refresh = false;
                s.timing.t_rfc_pb_ns = 0.0;
                let refi_ns = s.timing.t_rfc_ns + 5.0;
                s.timing.refresh_period_ms = refi_ns * s.timing.refresh_commands as f64 / 1e6;
            },
            "refi-covers-access",
        ),
        (
            "idd-read-negative",
            |s| s.power.i_rd_ma = -1.0,
            "power-nonnegative",
        ),
        ("vdd-zero", |s| s.power.vdd = 0.0, "vdd-positive"),
        (
            "pre-powerdown-above-standby",
            |s| s.power.i_pre_pd_ma = s.power.i_pre_stby_ma + 5.0,
            "idd-powerdown-undercuts-standby",
        ),
        (
            "act-powerdown-above-standby",
            |s| s.power.i_act_pd_ma = s.power.i_act_stby_ma + 5.0,
            "idd-powerdown-undercuts-standby",
        ),
        (
            "standby-above-activate",
            |s| s.power.i_act_stby_ma = s.power.i_act_pre_ma + 5.0,
            "idd-activate-peak",
        ),
        (
            "read-burst-under-standby",
            |s| s.power.i_rd_ma = s.power.i_act_stby_ma * 0.5,
            "idd-burst-dominates-standby",
        ),
        (
            "write-burst-under-standby",
            |s| s.power.i_wr_ma = s.power.i_act_stby_ma * 0.5,
            "idd-burst-dominates-standby",
        ),
        (
            "refresh-under-standby",
            |s| s.power.i_ref_ma = s.power.i_act_stby_ma * 0.5,
            "idd-refresh-dominates-standby",
        ),
        (
            "memory-share-zero",
            |s| s.power.mem_power_fraction = 0.0,
            "mem-fraction-range",
        ),
        (
            "idle-share-above-one",
            |s| s.power.mc_reg_idle_fraction = 2.0,
            "idle-fraction-range",
        ),
    ]
}

/// Generation-specific table mutants.
fn generation_mutants(gen: MemGeneration) -> Vec<(&'static str, Mutator, &'static str)> {
    let mut m: Vec<(&'static str, Mutator, &'static str)> = Vec::new();
    if gen.has_bank_groups() {
        m.push((
            "bank-groups-collapsed-to-one",
            |s| s.timing.bank_groups = 1,
            "bank-groups-min",
        ));
        m.push((
            "tccdl-below-tccds",
            |s| s.timing.t_ccd_l_cycles = s.timing.t_ccd_s_cycles - 1,
            "ccd-ladder",
        ));
        m.push((
            "trrdl-below-trrd",
            |s| s.timing.t_rrd_l_ns = s.timing.t_rrd_ns - 1.0,
            "trrd-ladder",
        ));
        m.push((
            "banks-not-divisible-by-groups",
            |s| s.topology.banks_per_rank = s.timing.bank_groups * 2 - 1,
            "bank-group-divisibility",
        ));
    } else {
        m.push((
            "bank-groups-on-groupless-generation",
            |s| s.timing.bank_groups = 2,
            "bank-groups-collapsed",
        ));
    }
    if gen.has_deep_power_down() {
        m.push((
            "deep-exit-under-slow-exit",
            |s| s.timing.t_xdpd_ns = s.timing.t_xpdll_ns * 0.5,
            "xdpd-exceeds-xpdll",
        ));
        m.push((
            "deep-current-not-a-floor",
            |s| s.power.i_dpd_ma = s.power.i_pre_pd_ma,
            "idd-deep-floor",
        ));
    } else {
        m.push((
            "deep-exit-on-generation-without-deep",
            |s| s.timing.t_xdpd_ns = 100.0,
            "xdpd-zero-without-deep",
        ));
        m.push((
            "deep-current-on-generation-without-deep",
            |s| s.power.i_dpd_ma = 1.0,
            "idd-deep-absent",
        ));
    }
    if gen == MemGeneration::Lpddr3 {
        m.push((
            "per-bank-refresh-as-long-as-all-bank",
            |s| s.timing.t_rfc_pb_ns = s.timing.t_rfc_ns,
            "refpb-duration",
        ));
        m.push((
            "per-bank-refresh-overruns-interval",
            |s| {
                // tREFIpb = period / commands / banks must fall below
                // tRFCpb while the all-bank duty check stays legal.
                let banks = f64::from(s.topology.banks_per_rank);
                let refi_ns = s.timing.t_rfc_pb_ns * banks * 0.9;
                s.timing.refresh_period_ms = refi_ns * s.timing.refresh_commands as f64 / 1e6;
            },
            "refpb-duty",
        ));
    } else {
        m.push((
            "per-bank-refresh-on-wrong-generation",
            |s| s.timing.per_bank_refresh = true,
            "refpb-generation",
        ));
    }
    m
}

#[test]
fn every_table_mutant_is_detected_on_every_generation() {
    for gen in MemGeneration::ALL {
        let mut mutants = universal_mutants();
        mutants.extend(generation_mutants(gen));
        assert!(
            mutants.len() >= 20,
            "{gen}: only {} table mutants",
            mutants.len()
        );
        for (name, mutate, expected) in mutants {
            let mut sys = SystemConfig::for_generation(gen);
            mutate(&mut sys);
            let report = check_system(&sys);
            assert!(
                report.diagnostics.iter().any(|d| d.invariant == expected),
                "{gen}/{name}: expected `{expected}`, got {report}"
            );
        }
    }
}

/// Whether `invariant` is one only the analyzer's per-frequency stage
/// reports: it needs the table resolved at a grid frequency, which startup
/// validation never does.
fn per_frequency(invariant: &str) -> bool {
    matches!(
        invariant,
        "resolved-positive" | "ccdl-covers-burst" | "relock-covers-exit" | "refi-covers-access"
    ) || invariant.ends_with("-power-monotonic")
}

#[test]
fn startup_validation_refuses_every_at_rest_mutant() {
    for gen in MemGeneration::ALL {
        let mut mutants = universal_mutants();
        mutants.extend(generation_mutants(gen));
        for (name, mutate, expected) in mutants {
            if per_frequency(expected) {
                continue;
            }
            let mut sys = SystemConfig::for_generation(gen);
            mutate(&mut sys);
            let diags = check_at_rest(&sys);
            assert!(
                diags.iter().any(|d| d.invariant == expected),
                "{gen}/{name}: the at-rest list misses `{expected}`: {diags:#?}"
            );
            assert_eq!(
                sys.validate(),
                Err(ConfigError::new(diags[0].message.clone())),
                "{gen}/{name}"
            );
        }
    }
}

// --- FSM-table mutants ------------------------------------------------------
//
// The published specs are consts, so perturbed variants are declared here as
// their own static tables and fed straight to the model checker.

const OK: &[FsmTransition] = &[
    FsmTransition {
        from: "up",
        event: "sleep",
        to: "napping",
        exit_param: None,
        requires: None,
    },
    FsmTransition {
        from: "napping",
        event: "wake",
        to: "up",
        exit_param: Some(TimingParam::TXp),
        requires: None,
    },
];

const BASE: FsmSpec = FsmSpec {
    name: "mutant",
    states: &["up", "napping"],
    events: &["sleep", "wake"],
    initial: "up",
    operational: "up",
    low_power: &["napping"],
    state_requires: &[],
    transitions: OK,
};

fn fsm_mutants() -> Vec<(&'static str, FsmSpec, &'static str)> {
    vec![
        (
            "undeclared-initial-state",
            FsmSpec {
                initial: "bogus",
                ..BASE
            },
            "fsm-wellformed",
        ),
        (
            "nondeterministic-event",
            FsmSpec {
                transitions: &[
                    FsmTransition {
                        from: "up",
                        event: "sleep",
                        to: "napping",
                        exit_param: None,
                        requires: None,
                    },
                    FsmTransition {
                        from: "up",
                        event: "sleep",
                        to: "up",
                        exit_param: None,
                        requires: None,
                    },
                    FsmTransition {
                        from: "napping",
                        event: "wake",
                        to: "up",
                        exit_param: Some(TimingParam::TXp),
                        requires: None,
                    },
                ],
                ..BASE
            },
            "fsm-deterministic",
        ),
        (
            "unreachable-state",
            FsmSpec {
                states: &["up", "napping", "island"],
                transitions: OK,
                ..BASE
            },
            "fsm-unreachable",
        ),
        (
            "low-power-sink",
            FsmSpec {
                transitions: &[FsmTransition {
                    from: "up",
                    event: "sleep",
                    to: "napping",
                    exit_param: None,
                    requires: None,
                }],
                ..BASE
            },
            "fsm-sink",
        ),
        (
            "untimed-low-power-exit",
            FsmSpec {
                transitions: &[
                    FsmTransition {
                        from: "up",
                        event: "sleep",
                        to: "napping",
                        exit_param: None,
                        requires: None,
                    },
                    FsmTransition {
                        from: "napping",
                        event: "wake",
                        to: "up",
                        exit_param: None,
                        requires: None,
                    },
                ],
                ..BASE
            },
            "fsm-exit-missing",
        ),
    ]
}

#[test]
fn every_fsm_mutant_is_detected_on_every_generation() {
    for gen in MemGeneration::ALL {
        let cfg = SystemConfig::for_generation(gen).timing;
        for (name, spec, expected) in fsm_mutants() {
            let diags = fsm::check_fsm(&spec, &cfg);
            assert!(
                diags.iter().any(|d| d.invariant == expected),
                "{gen}/{name}: expected `{expected}`, got {diags:#?}"
            );
        }
        // Exit parameter the generation's table does not provide: deep
        // power-down exit on DDR3/DDR4, bank-group CAS spacing on LPDDR3.
        let rows: &'static [FsmTransition] = if gen.has_deep_power_down() {
            EXIT_VIA_TCCDL
        } else {
            EXIT_VIA_TXDPD
        };
        let spec = FsmSpec {
            transitions: rows,
            ..BASE
        };
        let diags = fsm::check_fsm(&spec, &cfg);
        assert!(
            diags.iter().any(|d| d.invariant == "fsm-exit-param-absent"),
            "{gen}/absent-exit-param: got {diags:#?}"
        );
    }
}

/// `OK` with the low-power exit charging a parameter only DDR4 provides.
const EXIT_VIA_TCCDL: &[FsmTransition] = &[
    OK[0],
    FsmTransition {
        exit_param: Some(TimingParam::TCcdL),
        ..OK[1]
    },
];

/// `OK` with the low-power exit charging a parameter only LPDDR3 provides.
const EXIT_VIA_TXDPD: &[FsmTransition] = &[
    OK[0],
    FsmTransition {
        exit_param: Some(TimingParam::TXdpd),
        ..OK[1]
    },
];

/// `OK` plus a gated-out row whose destination state is a typo.
const GATED_TYPO: &[FsmTransition] = &[
    OK[0],
    OK[1],
    FsmTransition {
        from: "up",
        event: "sleep",
        to: "typo-state",
        exit_param: None,
        requires: Some(FsmFeature::DeepPowerDown),
    },
];

#[test]
fn feature_gated_rows_are_checked_even_when_inactive() {
    // A typo in a row gated behind DeepPowerDown must surface on DDR3 too.
    let spec = FsmSpec {
        transitions: GATED_TYPO,
        ..BASE
    };
    let cfg = SystemConfig::for_generation(MemGeneration::Ddr3).timing;
    let diags = fsm::check_fsm(&spec, &cfg);
    assert!(diags.iter().any(|d| d.invariant == "fsm-wellformed"));
}

// --- coverage mutants -------------------------------------------------------

#[test]
fn every_coverage_mutant_is_detected_on_every_generation() {
    for gen in MemGeneration::ALL {
        let cfg = SystemConfig::for_generation(gen).timing;
        let full = Rule::rule_pack(&cfg);

        // Dropping any latency-guarding rule must unguard some parameter
        // (unless another rule still covers every field it guarded).
        let dropped = Rule::TRas;
        let pack: Vec<Rule> = full.iter().copied().filter(|r| *r != dropped).collect();
        let diags = coverage::check_coverage_with(&cfg, &pack, coverage::WAIVERS);
        assert!(
            diags.iter().any(|d| d.invariant == "coverage-unguarded"
                && d.params.iter().any(|(p, _)| *p == "t_ras_ns")),
            "{gen}: dropping {dropped} undetected: {diags:#?}"
        );

        // A waiver whose parameter the pack still guards is stale.
        let stale = "* t_cl_ns trusted by decree\n* mc_pipeline_cycles reason\n";
        let diags = coverage::check_coverage_with(&cfg, &full, stale);
        assert!(
            diags.iter().any(|d| d.invariant == "coverage-waiver-stale"),
            "{gen}: stale waiver undetected: {diags:#?}"
        );

        // A waiver naming a field that does not exist is an error.
        let unknown = "* t_imaginary_ns because\n* mc_pipeline_cycles reason\n";
        let diags = coverage::check_coverage_with(&cfg, &full, unknown);
        assert!(
            diags
                .iter()
                .any(|d| d.invariant == "coverage-waiver-unknown"),
            "{gen}: unknown waiver undetected: {diags:#?}"
        );

        // Removing the waiver file entirely must flag the known-unguarded
        // parameter instead of silently passing.
        let diags = coverage::check_coverage_with(&cfg, &full, "");
        assert!(
            diags.iter().any(|d| d.invariant == "coverage-unguarded"
                && d.params.iter().any(|(p, _)| *p == "mc_pipeline_cycles")),
            "{gen}: missing waiver undetected: {diags:#?}"
        );
    }
}
