//! End-to-end coverage of the open-loop SLO subsystem: a recorded service
//! trace must replay the live sweep bit-for-bit (in memory and through a
//! disk round trip), service runs must stay protocol-audit-clean on every
//! memory generation, and the `memscale-sim slo` CLI must emit
//! byte-identical reports across same-seed reruns and exit non-zero on an
//! SLO breach.

use memscale::policies::PolicyKind;
use memscale_arrivals::ArrivalSpec;
use memscale_simulator::shard::ShardSpec;
use memscale_simulator::slo::{
    record_service_calibrated, record_service_trace, run_service_policy, run_service_policy_replay,
    run_slo_sweep, run_slo_sweep_replay, ServiceConfig,
};
use memscale_simulator::{Experiment, SimConfig};
use memscale_trace::format::crc32;
use memscale_trace::{write_trace_file, ReplayTrace, TraceWriter};
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use memscale_types::requests::SloSpec;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

fn quick_cfg() -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.system.cpu.cores = 4;
    cfg.duration = Picos::from_ms(4);
    cfg
}

fn service(arrivals: &str) -> ServiceConfig {
    ServiceConfig::new(ArrivalSpec::parse(arrivals).unwrap()).with_slo(SloSpec::p99(5.0))
}

fn sweep_shards() -> Vec<ShardSpec> {
    vec![
        ShardSpec::of(PolicyKind::Baseline),
        ShardSpec::of(PolicyKind::MemScale),
        ShardSpec::of(PolicyKind::Static(MemFreq::MIN)),
    ]
}

#[test]
fn recorded_sweep_replays_live_sweep_bit_exactly_through_disk() {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick_cfg();
    let svc = service("diurnal:2x1000,2x3000");
    let shards = sweep_shards();

    let live = run_slo_sweep(&mix, &cfg, &svc, &shards).unwrap();
    let (header, streams) = record_service_trace(&mix, &cfg, &svc, 50).unwrap();

    // In-memory replay reproduces the live sweep byte-for-byte.
    let trace = ReplayTrace::from_streams(header.clone(), streams.clone());
    let replayed = run_slo_sweep_replay(&mix, &cfg, &svc, &shards, &trace).unwrap();
    assert_eq!(live.to_json(), replayed.to_json());

    // So does a replay of the trace after a disk round trip.
    let path = std::env::temp_dir().join(format!("memscale_slo_{}.trace", std::process::id()));
    write_trace_file(&path, &header, &streams).unwrap();
    let reloaded = ReplayTrace::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let from_disk = run_slo_sweep_replay(&mix, &cfg, &svc, &shards, &reloaded).unwrap();
    assert_eq!(live.to_json(), from_disk.to_json());
}

#[test]
fn service_recording_is_pinned_and_its_baseline_is_the_replayed_baseline() {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick_cfg();
    let svc = service("poisson:2000");
    let (recorded, header, streams) = record_service_calibrated(&mix, &cfg, &svc, 50).unwrap();

    // The encoded bytes of the recording (the golden fixture pins only the
    // encoder).
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    for (app, events) in streams.iter().enumerate() {
        writer.append_stream(app, events).unwrap();
    }
    let crc = crc32(&writer.finish().unwrap());
    assert_eq!(crc, 0xbec0_1714, "service recording CRC {crc:#010x}");

    // The recording run is the Baseline service run: its memory energy is
    // every service cell's savings denominator, and a replay of the trace
    // with the request tracker attached spends exactly the same.
    let trace = ReplayTrace::from_streams(header, streams);
    let tracked =
        run_service_policy_replay(&mix, PolicyKind::Baseline, &cfg, &svc, &trace).unwrap();
    assert_eq!(
        recorded.baseline().energy.memory_total_j().to_bits(),
        tracked.energy.memory_total_j().to_bits()
    );
    let replayed = Experiment::calibrate_replay(&mix, &cfg, &trace).unwrap();
    assert_eq!(
        format!("{:?}", recorded.baseline()),
        format!("{:?}", replayed.baseline())
    );
    assert_eq!(recorded.rest_w().to_bits(), replayed.rest_w().to_bits());
}

#[test]
fn breach_verdict_tracks_the_objective() {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick_cfg();
    let shards = [ShardSpec::of(PolicyKind::Baseline)];

    let light =
        ServiceConfig::new(ArrivalSpec::parse("poisson:300").unwrap()).with_slo(SloSpec::p99(5.0));
    let ok = run_slo_sweep(&mix, &cfg, &light, &shards).unwrap();
    assert!(!ok.any_breach(), "light load breached: {}", ok.to_json());

    let heavy = ServiceConfig::new(ArrivalSpec::parse("poisson:20000").unwrap())
        .with_slo(SloSpec::p99(0.5));
    let bad = run_slo_sweep(&mix, &cfg, &heavy, &shards).unwrap();
    assert!(
        bad.any_breach(),
        "overload did not breach: {}",
        bad.to_json()
    );
}

#[test]
fn service_runs_stay_audit_clean_on_every_generation() {
    // Open-loop request traffic goes through the same controller/DRAM
    // substrate as the batch workloads; the conformance audit must stay
    // clean under it for each supported generation.
    let mix = Mix::by_name("MID1").unwrap();
    let svc = service("poisson:2000");
    for generation in [
        MemGeneration::Ddr3,
        MemGeneration::Ddr4,
        MemGeneration::Lpddr3,
    ] {
        let cfg = quick_cfg().with_generation(generation);
        let run = run_service_policy(&mix, PolicyKind::MemScale, &cfg, &svc).unwrap();
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{generation}: {}", audit.summary());
        assert!(run.requests.is_some(), "{generation}: tracker missing");
    }
}

/// Runs `memscale-sim slo` with the given extra flags and returns
/// `(exit code, report file bytes)`.
fn run_slo_cli(tag: &str, extra: &[&str]) -> (i32, Vec<u8>) {
    let out = std::env::temp_dir().join(format!(
        "memscale_slo_cli_{tag}_{}.json",
        std::process::id()
    ));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_memscale-sim"))
        .args([
            "slo",
            "--duration-ms",
            "4",
            "--cores",
            "4",
            "--seed",
            "11",
            "--out",
        ])
        .arg(&out)
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn memscale-sim");
    let bytes = std::fs::read(&out).expect("report file written");
    std::fs::remove_file(&out).ok();
    (status.code().unwrap_or(-1), bytes)
}

#[test]
fn cli_reports_are_byte_identical_across_same_seed_reruns() {
    let flags = [
        "--arrivals",
        "diurnal:2x1000,2x3000",
        "--slo-p99-ms",
        "5",
        "--policies",
        "baseline,memscale",
    ];
    let (code_a, bytes_a) = run_slo_cli("a", &flags);
    let (code_b, bytes_b) = run_slo_cli("b", &flags);
    assert_eq!(code_a, 0, "clean sweep must exit 0");
    assert_eq!(code_b, 0);
    assert_eq!(bytes_a, bytes_b, "same-seed reports differ");
    let text = String::from_utf8(bytes_a).unwrap();
    assert!(text.contains("\"schema\": \"memscale.slo.v1\""), "{text}");
    assert!(text.contains("\"breach\": false"), "{text}");
}

#[test]
fn cli_exits_nonzero_when_the_slo_is_breached() {
    let (code, bytes) = run_slo_cli(
        "breach",
        &[
            "--arrivals",
            "poisson:20000",
            "--slo-p99-ms",
            "0.5",
            "--policies",
            "static:200",
        ],
    );
    assert_eq!(code, 1, "breach must exit 1");
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.contains("\"breach\": true"), "{text}");
}
