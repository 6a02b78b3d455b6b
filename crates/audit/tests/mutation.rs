//! Mutation self-test of the conformance checker.
//!
//! Each case drives the real `DramChannel` engine with a deliberately
//! *weakened* timing configuration (the channel trusts whatever numbers it is
//! given), records the command stream, and replays it against the *strict*
//! reference configuration of the same memory generation. The auditor must
//! flag the specific rule that was relaxed — proving the checker actually
//! detects timing bugs rather than rubber-stamping whatever the engine
//! emits. DDR3 rules use the default config; the DDR4 (bank-group) and
//! LPDDR3 (deep power-down, per-bank refresh) rule packs get the same
//! treatment against their generation's reference config.

use memscale_audit::{AuditReport, ProtocolAuditor, Rule};
use memscale_dram::channel::{AccessKind, DramChannel};
use memscale_dram::rank::PowerDownMode;
use memscale_types::config::{DramTimingConfig, MemGeneration};
use memscale_types::freq::MemFreq;
use memscale_types::ids::{BankId, RankId};
use memscale_types::time::Picos;

const RANKS: usize = 2;
const BANKS: usize = 8;

/// Runs `drive` against a channel built from `cfg`, then audits the recorded
/// stream against the `strict` reference configuration (which selects the
/// rule pack via its generation).
fn audit_against(
    strict: &DramTimingConfig,
    cfg: &DramTimingConfig,
    drive: impl FnOnce(&mut DramChannel),
) -> AuditReport {
    let mut ch = DramChannel::new(cfg, RANKS, BANKS, MemFreq::F800);
    ch.set_event_recording(true);
    drive(&mut ch);
    let events = ch.drain_events();
    assert!(!events.is_empty(), "the scenario must emit commands");
    let mut auditor = ProtocolAuditor::new(strict, 1, RANKS, BANKS, MemFreq::F800);
    auditor.ingest(&events);
    auditor.finalize()
}

/// DDR3 shorthand: audits against the strict default configuration.
fn audit_with(cfg: &DramTimingConfig, drive: impl FnOnce(&mut DramChannel)) -> AuditReport {
    audit_against(&DramTimingConfig::default(), cfg, drive)
}

fn weakened(mutate: impl FnOnce(&mut DramTimingConfig)) -> DramTimingConfig {
    let mut cfg = DramTimingConfig::default();
    mutate(&mut cfg);
    cfg
}

fn weakened_from(
    base: DramTimingConfig,
    mutate: impl FnOnce(&mut DramTimingConfig),
) -> DramTimingConfig {
    let mut cfg = base;
    mutate(&mut cfg);
    cfg
}

fn read(ch: &mut DramChannel, rank: usize, bank: usize, row: u64, now_ns: u64) {
    ch.service(
        RankId(rank),
        BankId(bank),
        row,
        AccessKind::Read,
        Picos::from_ns(now_ns),
        false,
    );
}

fn rules(report: &AuditReport) -> Vec<Rule> {
    report.violations.iter().map(|v| v.rule).collect()
}

/// The unperturbed engine must produce a conformant stream across every
/// command class: reads, writes, row hits, powerdown and a relock.
#[test]
fn strict_engine_is_clean() {
    let report = audit_with(&DramTimingConfig::default(), |ch| {
        read(ch, 0, 0, 1, 0);
        ch.service(
            RankId(0),
            BankId(1),
            2,
            AccessKind::Write,
            Picos::from_ns(100),
            false,
        );
        // Keep-open row hit pair.
        ch.service(
            RankId(1),
            BankId(0),
            3,
            AccessKind::Read,
            Picos::from_ns(200),
            true,
        );
        read(ch, 1, 0, 3, 300);
        // Explicit powerdown round-trip.
        ch.enter_power_down(RankId(0), PowerDownMode::Slow, Picos::from_us(1));
        read(ch, 0, 2, 5, 2_000);
        // Frequency relock, then traffic at the new operating point.
        ch.set_frequency(MemFreq::F400, Picos::from_us(3));
        read(ch, 0, 3, 6, 7_000);
        read(ch, 1, 4, 7, 7_100);
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.commands_checked > 10);
}

#[test]
fn detects_trcd_mutation() {
    let cfg = weakened(|c| c.t_rcd_ns = 5.0);
    let report = audit_with(&cfg, |ch| read(ch, 0, 0, 1, 0));
    assert!(rules(&report).contains(&Rule::TRcd), "{report}");
}

#[test]
fn detects_trp_mutation() {
    let cfg = weakened(|c| c.t_rp_ns = 2.0);
    let report = audit_with(&cfg, |ch| {
        read(ch, 0, 0, 1, 0);
        // Same bank again: the engine re-activates tRP=2 after the
        // auto-precharge instead of the strict 15.
        read(ch, 0, 0, 2, 30);
    });
    assert!(rules(&report).contains(&Rule::TRp), "{report}");
}

#[test]
fn detects_tras_mutation() {
    let cfg = weakened(|c| c.t_ras_ns = 10.0);
    let report = audit_with(&cfg, |ch| read(ch, 0, 0, 1, 0));
    assert!(rules(&report).contains(&Rule::TRas), "{report}");
}

#[test]
fn detects_trtp_mutation() {
    let cfg = weakened(|c| {
        c.t_rtp_ns = 1.0;
        c.t_ras_ns = 1.0; // so tRTP, not tRAS, gates the auto-precharge
    });
    let report = audit_with(&cfg, |ch| read(ch, 0, 0, 1, 0));
    assert!(rules(&report).contains(&Rule::TRtp), "{report}");
}

#[test]
fn detects_twr_mutation() {
    let cfg = weakened(|c| {
        c.t_wr_ns = 1.0;
        c.t_ras_ns = 1.0; // so tWR, not tRAS, gates the auto-precharge
    });
    let report = audit_with(&cfg, |ch| {
        ch.service(
            RankId(0),
            BankId(0),
            1,
            AccessKind::Write,
            Picos::ZERO,
            false,
        );
    });
    assert!(rules(&report).contains(&Rule::TWr), "{report}");
}

#[test]
fn detects_trrd_mutation() {
    let cfg = weakened(|c| c.t_rrd_ns = 1.0);
    let report = audit_with(&cfg, |ch| {
        read(ch, 0, 0, 1, 0);
        read(ch, 0, 1, 1, 0);
    });
    assert!(rules(&report).contains(&Rule::TRrd), "{report}");
}

#[test]
fn detects_tfaw_mutation() {
    let cfg = weakened(|c| c.t_faw_ns = 12.0);
    let report = audit_with(&cfg, |ch| {
        for bank in 0..5 {
            read(ch, 0, bank, 1, 0);
        }
    });
    let rs = rules(&report);
    assert!(rs.contains(&Rule::TFaw), "{report}");
    // tRRD itself was left strict, so the window rule is the one that fires.
    assert!(!rs.contains(&Rule::TRrd), "{report}");
}

#[test]
fn detects_txp_mutation() {
    let cfg = weakened(|c| c.t_xp_ns = 1.0);
    let report = audit_with(&cfg, |ch| {
        ch.enter_power_down(RankId(0), PowerDownMode::Fast, Picos::ZERO);
        read(ch, 0, 0, 1, 100);
    });
    assert!(rules(&report).contains(&Rule::TXp), "{report}");
}

#[test]
fn detects_txpdll_mutation() {
    let cfg = weakened(|c| c.t_xpdll_ns = 2.0);
    let report = audit_with(&cfg, |ch| {
        ch.enter_power_down(RankId(0), PowerDownMode::Slow, Picos::ZERO);
        read(ch, 0, 0, 1, 100);
    });
    assert!(rules(&report).contains(&Rule::TXpdll), "{report}");
}

#[test]
fn detects_tcl_mutation() {
    let cfg = weakened(|c| c.t_cl_ns = 5.0);
    let report = audit_with(&cfg, |ch| read(ch, 0, 0, 1, 0));
    assert!(rules(&report).contains(&Rule::TCl), "{report}");
}

#[test]
fn detects_relock_penalty_mutation() {
    let cfg = weakened(|c| {
        c.relock_cycles = 0;
        c.relock_extra_ns = 1.0;
    });
    let report = audit_with(&cfg, |ch| {
        ch.set_frequency(MemFreq::F200, Picos::from_us(1));
        read(ch, 0, 0, 1, 1_200);
    });
    assert!(rules(&report).contains(&Rule::RelockPenalty), "{report}");
}

#[test]
fn detects_trfc_mutation() {
    let cfg = weakened(|c| c.t_rfc_ns = 10.0);
    let report = audit_with(&cfg, |ch| {
        // Far enough past the first scheduled refresh that REFs were issued.
        read(ch, 0, 0, 1, 30_000);
    });
    assert!(rules(&report).contains(&Rule::TRfc), "{report}");
}

/// A DDR4 engine run — bank-group-split CAS/ACT traffic plus a relock —
/// replayed through the DDR4 rule pack must be conformant.
#[test]
fn ddr4_strict_engine_is_clean() {
    let ddr4 = DramTimingConfig::ddr4();
    let report = audit_against(&ddr4, &ddr4, |ch| {
        // Same group (banks 0 and 4), different groups (banks 0 and 1).
        read(ch, 0, 0, 1, 0);
        read(ch, 0, 4, 1, 0);
        read(ch, 0, 1, 1, 0);
        ch.service(
            RankId(1),
            BankId(4),
            2,
            AccessKind::Write,
            Picos::from_ns(200),
            false,
        );
        ch.set_frequency(MemFreq::F400, Picos::from_us(1));
        read(ch, 0, 0, 3, 3_000);
        read(ch, 0, 4, 3, 3_000);
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.commands_checked > 10);
}

#[test]
fn detects_tccd_l_mutation() {
    // Weakened tCCD_L collapses to the burst; the strict DDR4 pack expects
    // 6 cycles between same-group CASes. Row hits decouple CAS spacing from
    // ACT spacing so only the CAS rule can fire.
    let cfg = weakened_from(DramTimingConfig::ddr4(), |c| c.t_ccd_l_cycles = 4);
    let report = audit_against(&DramTimingConfig::ddr4(), &cfg, |ch| {
        ch.service(RankId(0), BankId(0), 1, AccessKind::Read, Picos::ZERO, true);
        ch.service(RankId(0), BankId(4), 1, AccessKind::Read, Picos::ZERO, true);
        let later = Picos::from_ns(300);
        ch.service(RankId(0), BankId(0), 1, AccessKind::Read, later, true);
        ch.service(RankId(0), BankId(4), 1, AccessKind::Read, later, true);
    });
    let rs = rules(&report);
    assert!(rs.contains(&Rule::TCcdL), "{report}");
    assert!(!rs.contains(&Rule::TRrdL), "{report}");
}

#[test]
fn detects_trrd_l_mutation() {
    // Same-group ACTs squeezed to the cross-group tRRD; strict DDR4 wants
    // the longer tRRD_L.
    let cfg = weakened_from(DramTimingConfig::ddr4(), |c| c.t_rrd_l_ns = 5.0);
    let report = audit_against(&DramTimingConfig::ddr4(), &cfg, |ch| {
        read(ch, 0, 0, 1, 0);
        read(ch, 0, 4, 1, 0);
    });
    assert!(rules(&report).contains(&Rule::TRrdL), "{report}");
}

/// An LPDDR3 engine run — deep power-down round trip plus per-bank refresh
/// catch-up — replayed through the LPDDR3 rule pack must be conformant.
#[test]
fn lpddr3_strict_engine_is_clean() {
    let lpddr3 = DramTimingConfig::lpddr3();
    let report = audit_against(&lpddr3, &lpddr3, |ch| {
        read(ch, 0, 0, 1, 0);
        ch.enter_power_down(RankId(0), PowerDownMode::Deep, Picos::from_us(1));
        // Wakes rank 0 out of deep power-down; rank 1 catches up on
        // per-bank refreshes it owes by now.
        read(ch, 0, 2, 5, 20_000);
        read(ch, 1, 3, 6, 20_100);
        ch.set_frequency(MemFreq::F400, Picos::from_us(30));
        read(ch, 0, 1, 7, 35_000);
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.commands_checked > 10);
}

#[test]
fn detects_txdpd_mutation() {
    // Deep power-down exited after a fraction of the strict 500 ns tXDPD.
    let cfg = weakened_from(DramTimingConfig::lpddr3(), |c| c.t_xdpd_ns = 50.0);
    let report = audit_against(&DramTimingConfig::lpddr3(), &cfg, |ch| {
        ch.enter_power_down(RankId(0), PowerDownMode::Deep, Picos::ZERO);
        read(ch, 0, 0, 1, 2_000);
    });
    assert!(rules(&report).contains(&Rule::TXdpd), "{report}");
}

#[test]
fn detects_trfc_pb_mutation() {
    // Per-bank refreshes lasting 10 ns instead of the strict 60 ns tRFCpb.
    let cfg = weakened_from(DramTimingConfig::lpddr3(), |c| c.t_rfc_pb_ns = 10.0);
    let report = audit_against(&DramTimingConfig::lpddr3(), &cfg, |ch| {
        read(ch, 0, 0, 1, 30_000);
    });
    assert!(rules(&report).contains(&Rule::TRfcPb), "{report}");
}

/// Deep power-down entry on a generation without it is itself a violation —
/// the DDR4 pack rejects the LPDDR-only command. The channel refuses that
/// entry on DDR4, so the mutant is a DDR4 engine labelled LPDDR3.
#[test]
fn ddr4_pack_rejects_deep_powerdown() {
    let ddr4 = DramTimingConfig::ddr4();
    let cfg = weakened_from(ddr4.clone(), |c| c.generation = MemGeneration::Lpddr3);
    let report = audit_against(&ddr4, &cfg, |ch| {
        read(ch, 0, 0, 1, 0);
        ch.enter_power_down(RankId(0), PowerDownMode::Deep, Picos::from_us(1));
        read(ch, 0, 1, 2, 5_000);
    });
    assert!(rules(&report).contains(&Rule::TXdpd), "{report}");
}

/// The violation report carries enough structure to localize the bug: the
/// rule, the rank/bank, the offending timestamp and the reference instant.
#[test]
fn violations_are_structured() {
    let cfg = weakened(|c| c.t_rcd_ns = 5.0);
    let report = audit_with(&cfg, |ch| read(ch, 1, 3, 9, 50));
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::TRcd)
        .expect("tRCD violation");
    assert_eq!(v.rank, RankId(1));
    assert_eq!(v.bank, Some(BankId(3)));
    // ACT at 50 ns, mutated CAS 5 ns later; strict tRCD is 15 ns.
    assert_eq!(v.reference, Picos::from_ns(50));
    assert_eq!(v.at, Picos::from_ns(55));
    assert!(v.detail.contains("tRCD"), "{}", v.detail);
    let line = v.to_string();
    assert!(line.contains("rank1") && line.contains("bank3"), "{line}");
}
