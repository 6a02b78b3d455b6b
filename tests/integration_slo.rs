//! End-to-end coverage of the open-loop SLO subsystem: a recorded service
//! trace must replay the live sweep bit-for-bit (in memory and through a
//! disk round trip) and only under the run description it was recorded
//! with, service runs must stay protocol-audit-clean on every memory
//! generation, and the `memscale-sim slo` CLI must emit byte-identical
//! reports across same-seed reruns and thread counts, exit non-zero on an
//! SLO breach and refuse a trace of another workload.

use memscale::policies::PolicyKind;
use memscale_arrivals::ArrivalSpec;
use memscale_simulator::harness::{check_trace, record_calibrated, record_trace};
use memscale_simulator::shard::ShardSpec;
use memscale_simulator::slo::{run_slo_sweep, ServiceConfig};
use memscale_simulator::{Experiment, SimConfig, SimError, Simulation};
use memscale_trace::format::crc32;
use memscale_trace::{write_trace_file, ReplayTrace, TraceError, TraceWriter};
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use memscale_types::requests::SloSpec;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

/// A 4-core, 4 ms batch run of the mix.
fn batch_cfg() -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.system.cpu.cores = 4;
    cfg.duration = Picos::from_ms(4);
    cfg
}

/// [`batch_cfg`] serving `arrivals` under a 5 ms p99 objective.
fn quick_cfg(arrivals: &str) -> SimConfig {
    batch_cfg().with_service(
        ServiceConfig::new(ArrivalSpec::parse(arrivals).unwrap()).with_slo(SloSpec::p99(5.0)),
    )
}

fn sweep_shards() -> Vec<ShardSpec> {
    vec![
        ShardSpec::of(PolicyKind::Baseline),
        ShardSpec::of(PolicyKind::MemScale),
        ShardSpec::of(PolicyKind::Static(MemFreq::MIN)),
    ]
}

fn record(mix: &Mix, cfg: &SimConfig) -> ReplayTrace {
    let (header, streams) = record_trace(mix, cfg, &[], 50).unwrap();
    ReplayTrace::from_streams(header, streams)
}

#[test]
fn recorded_sweep_replays_live_sweep_bit_exactly_through_disk() {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick_cfg("diurnal:2x1000,2x3000");
    let shards = sweep_shards();

    let live = run_slo_sweep(&mix, &cfg, &shards, None).unwrap();
    let (header, streams) = record_trace(&mix, &cfg, &[], 50).unwrap();

    // In-memory replay reproduces the live sweep byte-for-byte.
    let trace = ReplayTrace::from_streams(header.clone(), streams.clone());
    let replayed = run_slo_sweep(&mix, &cfg, &shards, Some(&trace)).unwrap();
    assert_eq!(live.to_json(), replayed.to_json());

    // So does a replay of the trace after a disk round trip.
    let path = std::env::temp_dir().join(format!("memscale_slo_{}.trace", std::process::id()));
    write_trace_file(&path, &header, &streams).unwrap();
    let reloaded = ReplayTrace::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let from_disk = run_slo_sweep(&mix, &cfg, &shards, Some(&reloaded)).unwrap();
    assert_eq!(live.to_json(), from_disk.to_json());
}

#[test]
fn service_recording_is_pinned_and_its_baseline_is_the_replayed_baseline() {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick_cfg("poisson:2000");
    let (recorded, header, streams) = record_calibrated(&mix, &cfg, &[], 50).unwrap();

    // The encoded bytes of the recording (the golden fixture pins only the
    // encoder). The file starts with the header and the header's own
    // CRC-32, so the whole-file CRC cannot see a header byte: the config
    // hash is pinned beside it.
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    for (app, events) in streams.iter().enumerate() {
        writer.append_stream(app, events).unwrap();
    }
    let crc = crc32(&writer.finish().unwrap());
    assert_eq!(crc, 0xbec0_1714, "service recording CRC {crc:#010x}");
    let hash = header.config_hash;
    assert_eq!(
        hash, 0xa15a_c0c2_29c8_4d4c,
        "service config hash {hash:#018x}"
    );

    // The recording run is the Baseline service run: its memory energy is
    // every service cell's savings denominator, and a replay of the trace
    // with the request tracker attached spends exactly the same.
    let trace = ReplayTrace::from_streams(header, streams);
    let (tracked, _) = recorded
        .evaluate_replay(PolicyKind::Baseline, &trace)
        .unwrap();
    assert!(tracked.requests.is_some(), "tracker installed");
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

/// A trace replays only under the run description it was recorded with,
/// its service workload included: every other pairing is a
/// `ConfigMismatch` from `check_trace` and from the sweep.
#[test]
fn traces_of_another_workload_are_refused() {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick_cfg("poisson:2000");
    let service = record(&mix, &cfg);
    let batch = record(&mix, &batch_cfg());

    let mut model = cfg.clone();
    model.service.as_mut().unwrap().model.misses_per_core += 1;
    let mut slo = cfg.clone();
    slo.service.as_mut().unwrap().slo = Some(SloSpec::p99(50.0));
    let cases = [
        ("another arrival spec", quick_cfg("poisson:500"), &service),
        ("another request model", model, &service),
        ("another SLO target", slo, &service),
        ("a batch trace under a service config", cfg.clone(), &batch),
        (
            "a service trace under a batch config",
            batch_cfg(),
            &service,
        ),
    ];
    let shards = [ShardSpec::of(PolicyKind::Baseline)];
    let refused = |r: Result<(), SimError>| {
        matches!(r, Err(SimError::Trace(TraceError::ConfigMismatch { .. })))
    };
    for (what, cfg, trace) in cases {
        assert!(refused(check_trace(&mix, &cfg, trace)), "{what}");
        // The sweep checks the trace before it asks for a workload.
        let swept = run_slo_sweep(&mix, &cfg, &shards, Some(trace)).map(|_| ());
        assert!(refused(swept), "{what}: sweep");
    }
}

#[test]
fn breach_verdict_tracks_the_objective() {
    let mix = Mix::by_name("MID1").unwrap();
    let shards = [ShardSpec::of(PolicyKind::Baseline)];

    let ok = run_slo_sweep(&mix, &quick_cfg("poisson:300"), &shards, None).unwrap();
    assert!(!ok.any_breach(), "light load breached: {}", ok.to_json());

    let mut heavy = quick_cfg("poisson:20000");
    heavy.service.as_mut().unwrap().slo = Some(SloSpec::p99(0.5));
    let bad = run_slo_sweep(&mix, &heavy, &shards, None).unwrap();
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
    for generation in [
        MemGeneration::Ddr3,
        MemGeneration::Ddr4,
        MemGeneration::Lpddr3,
    ] {
        let cfg = quick_cfg("poisson:2000").with_generation(generation);
        let sim = Simulation::new(&mix, PolicyKind::MemScale, &cfg).unwrap();
        let run = sim.run_for(cfg.duration, 0.0).unwrap();
        let audit = run.audit.as_ref().expect("audit enabled in test builds");
        assert!(audit.is_clean(), "{generation}: {}", audit.summary());
        assert!(run.requests.is_some(), "{generation}: tracker missing");
    }
}

/// Runs `memscale-sim slo` with the given extra flags and returns
/// `(exit code, report file bytes)` (empty when no report was written).
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
    let bytes = std::fs::read(&out).unwrap_or_default();
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

/// The sweep's cells run in parallel; the report must not depend on how
/// many threads run them. Only the child's environment sets the count.
#[test]
fn cli_reports_are_byte_identical_at_any_thread_count() {
    let runs: Vec<(Option<i32>, Vec<u8>)> = ["1", "2", "8"]
        .into_iter()
        .map(|threads| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_memscale-sim"))
                .args(["slo", "--arrivals", "poisson:2000", "--slo-p99-ms", "5"])
                .args(["--policies", "baseline,memscale,static:200"])
                .args(["--duration-ms", "2", "--cores", "4", "--seed", "11"])
                .env("RAYON_NUM_THREADS", threads)
                .stderr(std::process::Stdio::null())
                .output()
                .expect("spawn memscale-sim");
            (out.status.code(), out.stdout)
        })
        .collect();
    let text = String::from_utf8_lossy(&runs[0].1);
    assert!(text.contains("\"schema\": \"memscale.slo.v1\""), "{text}");
    for (threads, run) in ["2", "8"].iter().zip(&runs[1..]) {
        assert_eq!(run.0, runs[0].0, "exit code at {threads} threads");
        assert!(run.1 == runs[0].1, "report at {threads} threads differs");
    }
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

#[test]
fn cli_refuses_a_trace_of_another_workload_with_exit_2() {
    let trace = std::env::temp_dir().join(format!("memscale_slo_cli_{}.trace", std::process::id()));
    let trace = trace.to_str().unwrap();
    let run = |tag, arrivals, io| run_slo_cli(tag, &["--arrivals", arrivals, io, trace]).0;
    let recorded = run("rec", "poisson:2000", "--record");
    let same = run("same", "poisson:2000", "--replay");
    let other = run("other", "poisson:500", "--replay");
    std::fs::remove_file(trace).ok();
    assert_eq!((recorded, same, other), (0, 0, 2));
}
