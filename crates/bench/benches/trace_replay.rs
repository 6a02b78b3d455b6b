//! Trace capture & replay benchmarks: codec throughput, replay-cursor
//! overhead versus the live generator, and the sharded-replay sweep that
//! emits the repository's first BENCH artifact (`BENCH_replay.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memscale::policies::PolicyKind;
use memscale_bench::report::BenchArtifact;
use memscale_simulator::harness::{record_calibrated, record_trace};
use memscale_simulator::shard::{default_grid, replay_sequential, replay_sharded};
use memscale_simulator::SimConfig;
use memscale_trace::{ReplayTrace, TraceReader, TraceWriter};
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use memscale_types::ids::AppId;
use memscale_types::time::Picos;
use memscale_workloads::{spec, MissStream, Mix};
use std::time::Instant;

fn quick() -> SimConfig {
    SimConfig::default().with_duration(Picos::from_ms(2))
}

/// One recorded MID1 quick trace, shared by the codec benches.
fn recorded() -> (Mix, SimConfig, ReplayTrace) {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick();
    let (header, streams) =
        record_trace(&mix, &cfg, &[PolicyKind::Static(MemFreq::MIN)], 50).unwrap();
    (mix, cfg, ReplayTrace::from_streams(header, streams))
}

fn bench_codec(c: &mut Criterion) {
    let (_, _, trace) = recorded();
    let streams: Vec<Vec<_>> = (0..trace.apps())
        .map(|a| trace.events(a).to_vec())
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();

    let mut g = c.benchmark_group("trace_codec");
    g.sample_size(10);
    g.bench_function(format!("encode_{total}_records"), |b| {
        b.iter(|| {
            let mut w = TraceWriter::new(Vec::new(), trace.header()).unwrap();
            for (app, events) in streams.iter().enumerate() {
                w.append_stream(app, events).unwrap();
            }
            black_box(w.finish().unwrap().len())
        });
    });

    let mut w = TraceWriter::new(Vec::new(), trace.header()).unwrap();
    for (app, events) in streams.iter().enumerate() {
        w.append_stream(app, events).unwrap();
    }
    let bytes = w.finish().unwrap();
    g.bench_function(format!("decode_{}_bytes", bytes.len()), |b| {
        b.iter(|| black_box(TraceReader::new(&bytes[..]).read().unwrap().apps()));
    });
    g.finish();
}

fn bench_cursor_vs_generator(c: &mut Criterion) {
    let (_, _, trace) = recorded();
    let mut g = c.benchmark_group("miss_source");
    g.bench_function("live_generator_next", |b| {
        let mut stream = MissStream::new(spec::profile("ammp").unwrap(), AppId(0), 1 << 24, 42);
        b.iter(|| black_box(stream.next_miss()));
    });
    g.bench_function("replay_cursor_next", |b| {
        let mut cursors = trace.streams();
        b.iter(|| {
            // Rewind by re-minting when the recording runs out; minting is
            // O(1) (the bytes are Arc-shared), so the loop stays hot.
            match cursors[0].next_event() {
                Some(ev) => black_box(ev),
                None => {
                    cursors = trace.streams();
                    black_box(cursors[0].next_event().unwrap())
                }
            }
        });
    });
    g.finish();
}

/// The sharded-replay sweep: record MID1 once (the recording baseline is
/// the calibrated experiment), fan it across the full DDR3 shard grid
/// sequentially and in parallel, and write the measured wall clocks (plus
/// the derived speedup) to `BENCH_replay.json` at the repo root. On a
/// single-core container the speedup is ~1×; the artifact records
/// `threads` so readers can judge the number in context.
fn bench_sharded_sweep(c: &mut Criterion) {
    let mix = Mix::by_name("MID1").unwrap();
    let cfg = quick();

    let record_start = Instant::now();
    let (exp, header, streams) =
        record_calibrated(&mix, &cfg, &[PolicyKind::Static(MemFreq::MIN)], 100).unwrap();
    let record_s = record_start.elapsed().as_secs_f64();
    let records: usize = streams.iter().map(Vec::len).sum();
    let trace = ReplayTrace::from_streams(header, streams);
    let shards = default_grid(MemGeneration::Ddr3);
    assert!(shards.len() >= 8, "sweep needs at least 8 shards");

    let seq_start = Instant::now();
    let seq = replay_sequential(&exp, &trace, &shards);
    let sequential_s = seq_start.elapsed().as_secs_f64();

    let par_start = Instant::now();
    let par = replay_sharded(&exp, &trace, &shards);
    let sharded_s = par_start.elapsed().as_secs_f64();

    let errors = par.iter().filter(|(_, r)| r.is_err()).count();
    assert_eq!(
        seq.iter().filter(|(_, r)| r.is_err()).count(),
        errors,
        "parallel and sequential sweeps must fail identically"
    );
    // Miss records the sequential sweep replayed, over every shard (each
    // shard replays most of the trace), and whether it audited: some shard
    // ran, and every shard that ran carries an audit report.
    let seq_runs: Vec<_> = seq.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    let seq_records: u64 = seq_runs
        .iter()
        .map(|(run, _)| run.counters.reads + run.counters.writes)
        .sum();
    let audited = !seq_runs.is_empty() && seq_runs.iter().all(|(run, _)| run.audit.is_some());

    // `sim_duration_ms` is the *simulated* horizon; every wall clock goes
    // under a `_s` key: `record_s` covers recording and calibration, and
    // `wall_clock_s` every timed phase (the old artifact wrote the 2 ms
    // simulated horizon as `duration_ms` next to multi-second wall clocks —
    // see `BenchArtifact`).
    let mut artifact = BenchArtifact::new("trace_replay_sharded");
    artifact
        .push_str("mix", mix.name)
        .push_str("generation", MemGeneration::Ddr3)
        .sim_duration_ms("duration", cfg.duration.as_ms_f64())
        .push_count("trace_records", records)
        .push_count("trace_bytes", trace.heap_bytes())
        .push_count("shards", shards.len())
        .push_count("shard_errors", errors)
        .push_count("threads", rayon::current_num_threads())
        .seconds("record", record_s)
        .seconds("sequential", sequential_s)
        .push_int("sequential_miss_records", seq_records)
        .push_f64(
            "sequential_records_per_s",
            seq_records as f64 / sequential_s,
            0,
        )
        .push_bool("audited", audited)
        .seconds("sharded", sharded_s)
        .push_f64("speedup", sequential_s / sharded_s, 3)
        .wall_clock_s(record_s + sequential_s + sharded_s);
    let artifact = artifact.render();
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_replay.json");
    std::fs::write(&out, &artifact).expect("writing BENCH_replay.json");
    eprintln!("sharded sweep: {artifact}");

    // Keep a Criterion-visible sample of the per-shard unit so regressions
    // in single-shard replay cost show up in the usual report.
    let mut g = c.benchmark_group("trace_replay");
    g.sample_size(10);
    g.bench_function("one_shard_memscale", |b| {
        b.iter(|| black_box(exp.evaluate_replay(PolicyKind::MemScale, &trace).unwrap().1));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_cursor_vs_generator,
    bench_sharded_sweep
);
criterion_main!(benches);
