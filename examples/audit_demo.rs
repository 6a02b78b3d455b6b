//! Demonstrates the generation-aware protocol conformance checker.
//!
//! Drives the real channel engine three times — once with the strict DDR3
//! default timing, once with a deliberately corrupted `tRCD`, and once as a
//! DDR4 device whose same-bank-group CAS spacing (`tCCD_L`) has been
//! weakened — and replays each recorded command stream through
//! `memscale-audit` against the strict rule pack for its generation. The
//! first stream audits clean; the others produce structured violation
//! reports naming the rule, the rank/bank and the offending timestamps.
//!
//! Run with:
//! `cargo run -p memscale-simulator --example audit_demo`

use memscale_audit::ProtocolAuditor;
use memscale_dram::channel::{AccessKind, DramChannel};
use memscale_types::config::DramTimingConfig;
use memscale_types::freq::MemFreq;
use memscale_types::ids::{BankId, RankId};
use memscale_types::time::Picos;

const RANKS: usize = 2;
const BANKS: usize = 8;

/// Runs a short mixed workload on `cfg`, then audits the recorded stream
/// against `strict` (the generation's reference timing).
fn replay(label: &str, strict: &DramTimingConfig, cfg: &DramTimingConfig) {
    let mut ch = DramChannel::new(cfg, RANKS, BANKS, MemFreq::F800);
    ch.set_event_recording(true);
    for i in 0..6usize {
        ch.service(
            RankId(i % RANKS),
            BankId(i % BANKS),
            i as u64,
            AccessKind::Read,
            Picos::from_ns(40 * i as u64),
            false,
        );
    }
    ch.set_frequency(MemFreq::F400, Picos::from_us(1));
    ch.service(
        RankId(0),
        BankId(0),
        9,
        AccessKind::Write,
        Picos::from_us(2),
        false,
    );

    let events = ch.drain_events();
    let mut auditor = ProtocolAuditor::new(strict, 1, RANKS, BANKS, MemFreq::F800);
    auditor.ingest(&events);
    let report = auditor.finalize();
    println!("{label}:\n{}\n", report.summary());
}

/// Drives row-hit CAS pairs on the two group-0 banks of a DDR4 rank, so the
/// weakened same-group CAS spacing becomes visible to the `tCCD_L` rule
/// (row hits decouple CAS spacing from the ACT-side `tRRD_L` constraint).
fn replay_ddr4(label: &str, cfg: &DramTimingConfig) {
    let mut ch = DramChannel::new(cfg, RANKS, 16, MemFreq::F800);
    ch.set_event_recording(true);
    for bank in [0usize, 4] {
        ch.service(
            RankId(0),
            BankId(bank),
            1,
            AccessKind::Read,
            Picos::ZERO,
            true,
        );
    }
    for bank in [0usize, 4] {
        ch.service(
            RankId(0),
            BankId(bank),
            1,
            AccessKind::Read,
            Picos::from_ns(300),
            false,
        );
    }

    let events = ch.drain_events();
    let mut auditor = ProtocolAuditor::new(&DramTimingConfig::ddr4(), 1, RANKS, 16, MemFreq::F800);
    auditor.ingest(&events);
    let report = auditor.finalize();
    println!("{label}:\n{}\n", report.summary());
}

fn main() {
    let ddr3 = DramTimingConfig::default();
    replay("DDR3 engine with strict timing", &ddr3, &ddr3);

    let broken = DramTimingConfig {
        // A silent off-by-several in the row-activate latency.
        t_rcd_ns: 3.0,
        ..DramTimingConfig::default()
    };
    replay("DDR3 engine with corrupted tRCD", &ddr3, &broken);

    let lax = DramTimingConfig {
        // Same-group CAS pairs collapse to the burst: a DDR4 bank-group
        // violation the DDR3 rules would never notice.
        t_ccd_l_cycles: 4,
        ..DramTimingConfig::ddr4()
    };
    replay_ddr4("DDR4 engine with weakened tCCD_L", &lax);
}
