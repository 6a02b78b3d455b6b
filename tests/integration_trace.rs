//! End-to-end trace capture & replay: recording a run and replaying the
//! artifact must reproduce the live simulation bit-for-bit, on every
//! memory generation, through both the in-memory and the on-disk path.

use memscale::policies::PolicyKind;
use memscale_simulator::harness::{check_trace, record_calibrated, record_trace, Experiment};
use memscale_simulator::shard::{default_grid, replay_sequential, replay_sharded, ShardSpec};
use memscale_simulator::{RunResult, SimConfig, SimError};
use memscale_trace::format::crc32;
use memscale_trace::{EncodedStream, ReplayTrace, TraceError};
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

/// Bit-identical comparison of everything a run reports. `RunResult`
/// holds floats, so equality is exact by design: replay must reproduce the
/// arithmetic, not approximate it.
fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.work, b.work);
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.freq_residency_ps, b.freq_residency_ps);
    assert_eq!(a.deep_pd_time, b.deep_pd_time);
    assert!(a.energy.memory_total_j() == b.energy.memory_total_j());
    assert!(a.energy.system_total_j() == b.energy.system_total_j());
    assert!(a.rest_w == b.rest_w);
}

fn record_mid1(cfg: &SimConfig) -> (Mix, ReplayTrace) {
    let mix = Mix::by_name("MID1").unwrap();
    let (header, streams) =
        record_trace(&mix, cfg, &[PolicyKind::Static(MemFreq::MIN)], 50).unwrap();
    (mix, ReplayTrace::from_streams(header, streams))
}

/// CRC-32 of a recording's trace file.
fn encoded_crc(trace: &ReplayTrace) -> u32 {
    crc32(trace.as_bytes())
}

#[test]
fn replay_is_bit_identical_on_every_generation() {
    // The CRC of each recording's encoded bytes: the golden fixture pins
    // the encoder, these pin what recording feeds it. The file starts
    // with the header followed by the header's own CRC-32, so the
    // whole-file CRC cannot see a header byte: the config hash, the
    // header field that ties a trace to its run, is pinned beside it.
    for (generation, expected_crc, expected_hash) in [
        (MemGeneration::Ddr3, 0xb7d6_bd2c_u32, 0x5d39_9a51_0abb_cc31),
        (MemGeneration::Ddr4, 0x1626_d237, 0xa7ea_ab48_214f_bbcb),
        (MemGeneration::Lpddr3, 0x7f3a_acb0, 0xab07_080b_7fc6_7130),
    ] {
        let cfg = SimConfig::quick().with_generation(generation);
        let mix = Mix::by_name("MID1").unwrap();
        let (recorded, header, streams) =
            record_calibrated(&mix, &cfg, &[PolicyKind::Static(MemFreq::MIN)], 50).unwrap();
        let trace = ReplayTrace::from_streams(header, streams);
        let crc = encoded_crc(&trace);
        assert_eq!(crc, expected_crc, "{generation}: recording CRC {crc:#010x}");
        let hash = trace.header().config_hash;
        assert_eq!(
            hash, expected_hash,
            "{generation}: config hash {hash:#018x}"
        );

        let live = Experiment::calibrate(&mix, &cfg).unwrap();
        let replay = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap();
        assert_identical(live.baseline(), replay.baseline());
        assert!(live.rest_w() == replay.rest_w());
        // The recording baseline stands in for the replay: the whole run,
        // audit report included, and the calibrated power.
        assert_eq!(
            format!("{:?}", recorded.baseline()),
            format!("{:?}", replay.baseline()),
            "{generation}"
        );
        assert_eq!(recorded.rest_w().to_bits(), replay.rest_w().to_bits());

        let (live_run, live_cmp) = live.evaluate(PolicyKind::MemScale).unwrap();
        let (replay_run, replay_cmp) = replay
            .evaluate_replay(PolicyKind::MemScale, &trace)
            .unwrap();
        assert_identical(&live_run, &replay_run);
        assert!(
            live_cmp.memory_savings == replay_cmp.memory_savings,
            "{generation}"
        );
        assert!(live_cmp.system_savings == replay_cmp.system_savings);
        assert_eq!(
            live_cmp.per_core_cpi_increase,
            replay_cmp.per_core_cpi_increase
        );
    }
}

#[test]
fn replay_survives_a_disk_round_trip() {
    let cfg = SimConfig::quick();
    let (mix, trace) = record_mid1(&cfg);
    let path = std::env::temp_dir().join(format!("memscale_it_{}.trace", std::process::id()));
    std::fs::write(&path, trace.as_bytes()).unwrap();
    let reloaded = ReplayTrace::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.header(), trace.header());

    let from_memory = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap();
    let from_disk = Experiment::calibrate_replay(&mix, &cfg, &reloaded).unwrap();
    assert_identical(from_memory.baseline(), from_disk.baseline());
}

/// A replayed trace stays in its encoded form: after calibration and a
/// policy run over it, an ILP2 2 ms recording holds at most 8 bytes per
/// record, where decoded events would take 32.
#[test]
fn replayed_trace_stays_encoded() {
    let cfg = SimConfig::default().with_duration(Picos::from_ms(2));
    let mix = Mix::by_name("ILP2").unwrap();
    let (header, streams) =
        record_trace(&mix, &cfg, &[PolicyKind::Static(MemFreq::MIN)], 50).unwrap();
    let trace = ReplayTrace::from_streams(header, streams);
    let exp = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap();
    exp.evaluate_replay(PolicyKind::MemScale, &trace).unwrap();
    let records: u64 = trace.summary().records_per_app.iter().sum();
    let per_record = trace.heap_bytes() as f64 / records as f64;
    assert!(
        per_record <= 8.0,
        "{per_record:.2} B per record over {records} records"
    );
}

/// Recording holds nothing decoded: the tape keeps each app's misses in
/// the record encoding, and those bytes are exactly the payload of the
/// finished trace's blocks, under 8 bytes per record where a decoded miss
/// takes 32.
#[test]
fn recording_holds_only_the_encoded_payload() {
    let cfg = SimConfig::quick();
    let mix = Mix::by_name("MID1").unwrap();
    let (header, streams) =
        record_trace(&mix, &cfg, &[PolicyKind::Static(MemFreq::MIN)], 50).unwrap();
    let held: usize = streams.iter().map(EncodedStream::payload_bytes).sum();
    let records: usize = streams.iter().map(EncodedStream::records).sum();
    let trace = ReplayTrace::from_streams(header, streams);
    let summary = trace.summary();
    assert_eq!(held as u64, summary.payload_bytes);
    assert_eq!(records as u64, summary.records_per_app.iter().sum::<u64>());
    let per_record = held as f64 / records as f64;
    assert!(
        per_record < 8.0,
        "{per_record:.2} B per record over {records} records"
    );
}

#[test]
fn incompatible_traces_are_refused() {
    let cfg = SimConfig::quick();
    let (mix, trace) = record_mid1(&cfg);

    // Wrong generation: the hardware the trace was recorded for differs.
    let ddr4 = SimConfig::quick().with_generation(MemGeneration::Ddr4);
    let err = check_trace(&mix, &ddr4, &trace).unwrap_err();
    assert!(matches!(
        err,
        SimError::Trace(TraceError::ConfigMismatch {
            field: "generation",
            ..
        })
    ));

    // Same hardware, different seed: fingerprint must catch it.
    let mut reseeded = SimConfig::quick();
    reseeded.seed ^= 1;
    let err = check_trace(&mix, &reseeded, &trace).unwrap_err();
    assert!(matches!(
        err,
        SimError::Trace(TraceError::ConfigMismatch {
            field: "config hash",
            ..
        })
    ));

    // Different mix at the same config: the app table disagrees.
    let mem1 = Mix::by_name("MEM1").unwrap();
    let err = check_trace(&mem1, &cfg, &trace).unwrap_err();
    assert!(matches!(
        err,
        SimError::Trace(TraceError::ConfigMismatch {
            field: "app table",
            ..
        })
    ));
}

#[test]
fn exhausted_trace_reports_cleanly_instead_of_panicking() {
    let cfg = SimConfig::quick();
    let mix = Mix::by_name("MID1").unwrap();
    // Record with no policy runs and zero margin... then cut each stream
    // to a tenth: no policy can finish on that.
    let (header, streams) = record_trace(&mix, &cfg, &[], 0).unwrap();
    let full = ReplayTrace::from_streams(header.clone(), streams);
    let cut = (0..full.apps())
        .map(|a| {
            let events = full.events(a);
            events[..events.len() / 10].iter().copied().collect()
        })
        .collect();
    let trace = ReplayTrace::from_streams(header, cut);
    let err = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap_err();
    assert!(
        matches!(err, SimError::TraceExhausted { .. }),
        "unexpected error {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("exhausted") && msg.contains("margin"));
}

#[test]
fn failing_shard_surfaces_in_slot_without_poisoning_siblings() {
    let cfg = SimConfig::quick();
    let mix = Mix::by_name("MID1").unwrap();
    // Record only the baseline prefix with zero margin: the max-frequency
    // static shard replays the same work and fits, while the 200 MHz shard
    // stretches the run far past the recording and must exhaust.
    let (header, streams) = record_trace(&mix, &cfg, &[], 0).unwrap();
    let trace = ReplayTrace::from_streams(header, streams);
    let exp = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap();
    let shards = vec![
        ShardSpec::of(PolicyKind::Static(MemFreq::MAX)),
        ShardSpec::of(PolicyKind::Static(MemFreq::MIN)),
        ShardSpec::of(PolicyKind::Static(MemFreq::MAX)),
    ];
    let results = replay_sharded(&exp, &trace, &shards);
    assert_eq!(results.len(), 3, "every shard gets a result slot");
    for ((spec, _result), expected) in results.iter().zip(&shards) {
        assert_eq!(spec, expected, "shard order must be preserved");
    }
    let (_, fast_a) = &results[0];
    let (_, slow) = &results[1];
    let (_, fast_b) = &results[2];
    assert!(
        matches!(slow, Err(SimError::TraceExhausted { .. })),
        "the slow shard must exhaust: {slow:?}"
    );
    // Both sibling shards still succeed, identically to each other.
    let (run_a, cmp_a) = fast_a.as_ref().expect("sibling shard survives");
    let (run_b, cmp_b) = fast_b.as_ref().expect("sibling shard survives");
    assert_identical(run_a, run_b);
    assert!(cmp_a.memory_savings == cmp_b.memory_savings);
}

#[test]
fn sharded_replay_matches_sequential_replay() {
    let cfg = SimConfig::quick();
    let (mix, trace) = record_mid1(&cfg);
    let exp = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap();
    let shards = vec![
        ShardSpec::of(PolicyKind::Static(MemFreq::F400)),
        ShardSpec::of(PolicyKind::MemScale),
        ShardSpec::of(PolicyKind::FastPd),
    ];
    let par = replay_sharded(&exp, &trace, &shards);
    let seq = replay_sequential(&exp, &trace, &shards);
    assert_eq!(par.len(), shards.len());
    for ((ps, pr), (ss, sr)) in par.iter().zip(&seq) {
        assert_eq!(ps, ss, "shard order must be preserved");
        let (p, pc) = pr.as_ref().unwrap();
        let (s, sc) = sr.as_ref().unwrap();
        assert_identical(p, s);
        assert!(pc.memory_savings == sc.memory_savings);
    }
}

#[test]
fn default_grid_covers_frequencies_and_respects_generations() {
    let ddr3 = default_grid(MemGeneration::Ddr3);
    // 10 static points + the DDR3-available adaptive policies (no DeepPd).
    assert_eq!(
        ddr3.iter()
            .filter(|s| matches!(s.policy, PolicyKind::Static(_)))
            .count(),
        MemFreq::ALL.len()
    );
    assert!(!ddr3.iter().any(|s| s.policy == PolicyKind::DeepPd));
    assert!(ddr3.iter().any(|s| s.policy == PolicyKind::MemScale));
    assert!(ddr3.len() >= 8, "grid too small for a meaningful sweep");

    let lpddr3 = default_grid(MemGeneration::Lpddr3);
    assert!(lpddr3.iter().any(|s| s.policy == PolicyKind::DeepPd));

    // Labels are unique — they key result files.
    let mut labels: Vec<_> = ddr3.iter().map(|s| s.label.clone()).collect();
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), ddr3.len());
}
