//! `memscale-perfbench`: the MemScale reproduction's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-mem|serve-cold|serve-warm --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Runs one seeded workload through the public APIs users call —
//! `replay_sharded` for batch sweeps, an in-process `SweepServer` over the
//! simulator backend for serving — checks every output, prints a table and
//! ends with one JSON line: end-to-end metrics with `--trace 0`, per-layer
//! metrics from a traced run with `--trace 1`. See `perfbench/README.md`.

mod digests;
mod layers;
mod report;
mod serve;
mod spans;
mod sweep;
mod sys;

use report::Outcome;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Worker threads of the sweep and of the server pool, and closed-loop
/// clients: fixed by configuration, never by the machine's core count.
pub const THREADS: usize = 2;

/// End-to-end metrics, as listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simulator.record_s", "s"),
    ("simulator.calibrate_s", "s"),
    ("simulator.cell_busy_s", "s"),
    ("simulator.cell_max_s", "s"),
    ("simulator.unattributed_frac", "ratio"),
    ("rayon.parallel_efficiency", "ratio"),
    ("rayon.runqueue_wait_frac", "ratio"),
    ("trace.cursor_ns", "ns"),
    ("workloads.next_miss_ns", "ns"),
    ("mc.access_ns", "ns"),
    ("dram.cmd_record_ns", "ns"),
    ("mc.reads", "count"),
    ("mc.writes", "count"),
    ("mc.row_hit_rate", "ratio"),
    ("mc.read_latency_ns", "ns"),
    ("audit.commands", "count"),
    ("audit.commands_per_record", "ratio"),
    ("audit.check_ns", "ns"),
    ("audit.buffer_mb", "MB"),
    ("audit.cell_share", "ratio"),
    ("audit.rss_share", "ratio"),
    ("power.segment_ns", "ns"),
    ("core.decide_ns", "ns"),
    ("serve.plan_ms", "ms"),
    ("serve.calibrate_ms", "ms"),
    ("serve.cell_ms", "ms"),
    ("serve.encode_baseline_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.first_cell_ms", "ms"),
    ("serve.cells_stream_ms", "ms"),
    ("serve.done_gap_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("store.journal_bytes_per_job", "B"),
    ("store.baseline_bytes_per_job", "B"),
    ("perfbench.trace_overhead_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sharded replay sweep of a recorded MEM1 trace.
    SweepMem,
    /// Cold jobs: every job calibrates, persists and runs its cells.
    ServeCold,
    /// Warm jobs: every lookup hits the server's caches.
    ServeWarm,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "sweep-mem" => Some(Workload::SweepMem),
            "serve-cold" => Some(Workload::ServeCold),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepMem => "sweep-mem",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Toy-size inputs.
    pub smoke: bool,
    /// Directory for server state and span files.
    pub state_root: PathBuf,
}

enum Command {
    Run(Args),
    PrintDigests(u64, u64),
}

const USAGE: &str = "usage: memscale-perfbench --workload sweep-mem|serve-cold|serve-warm \
                     --seed N --seconds S --trace 0|1 [--smoke]\n       \
                     memscale-perfbench --print-digests FROM..TO";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            "--print-digests" => {
                let v = value()?;
                let (a, b) = v.split_once("..").ok_or("--print-digests takes FROM..TO")?;
                let a = a
                    .parse::<u64>()
                    .map_err(|e| format!("--print-digests: {e}"))?;
                let b = b
                    .parse::<u64>()
                    .map_err(|e| format!("--print-digests: {e}"))?;
                return Ok(Command::PrintDigests(a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        state_root: PathBuf::from(".perfbench"),
    }))
}

/// Splitmix64 of `seed` and a stream number: every generated input is
/// `input_seed(--seed, stream)`.
pub fn input_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one workload and returns what it measured.
///
/// # Errors
///
/// A description of a failure that stopped the run before it measured.
pub fn run(args: &Args, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    let mut out = match args.workload {
        Workload::SweepMem => {
            let p = if args.smoke {
                sweep::Params::smoke()
            } else {
                sweep::Params::full()
            };
            if args.trace {
                sweep::run_traced(args, &p, tracer)?
            } else {
                sweep::run(args, &p)?
            }
        }
        w => {
            let p = if args.smoke {
                serve::Params::smoke()
            } else {
                serve::Params::full()
            };
            let warm = w == Workload::ServeWarm;
            if args.trace {
                serve::run_traced(args, &p, warm, tracer)?
            } else {
                serve::run(args, &p, warm)?
            }
        }
    };
    out.select(if args.trace { PER_LAYER } else { END_TO_END });
    Ok(out)
}

fn main() -> ExitCode {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("memscale-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Fixed before any parallel work starts; the sweep's thread pool reads
    // it per call.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    assert_eq!(rayon::current_num_threads(), THREADS);
    let args = match cmd {
        Command::PrintDigests(from, to) => {
            for seed in from..to {
                match sweep::reference_digest(seed) {
                    Ok(d) => println!("    ({seed}, {d:#018x}),"),
                    Err(e) => {
                        eprintln!("memscale-perfbench: seed {seed}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            return ExitCode::SUCCESS;
        }
        Command::Run(args) => args,
    };
    if let Err(e) = std::fs::create_dir_all(&args.state_root) {
        eprintln!("memscale-perfbench: {}: {e}", args.state_root.display());
        return ExitCode::FAILURE;
    }
    let tracer = Arc::new(Tracer::default());
    let mut out = match run(&args, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("memscale-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        out.lines.extend(spans::summary(&tracer.spans()));
        let path = args.state_root.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("memscale-perfbench: {}: {e}", path.display()),
        }
    }
    let title = format!(
        "{} seed {} ({}{}, {THREADS} threads, audited)",
        args.workload.name(),
        args.seed,
        if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end"
        },
        if args.smoke { ", smoke size" } else { "" }
    );
    print!("{}", out.table(&title));
    println!("{}", out.json_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: Duration::from_secs(1),
            trace,
            smoke: true,
            state_root: PathBuf::from(".perfbench"),
        }
    }

    #[test]
    fn input_seeds_depend_on_seed_and_stream() {
        assert_eq!(input_seed(1, 2), input_seed(1, 2));
        assert_ne!(input_seed(1, 2), input_seed(2, 1));
        assert_ne!(input_seed(0, 0), input_seed(0, 1));
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv = "--workload serve-warm --seed 3 --seconds 10 --trace 1";
        let Ok(Command::Run(a)) = parse_args(argv.split(' ').map(String::from)) else {
            panic!("must parse");
        };
        assert_eq!(a.workload, Workload::ServeWarm);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (3, 10, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep-mem --seed 1 --seconds 0 --trace 0",
            "--workload sweep-mem --seed 1 --seconds 1 --trace 2",
            "--workload sweep-mem --seconds 1 --trace 0",
        ] {
            assert!(
                parse_args(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = memscale_serve::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(memscale_serve::json::Json::Arr(items)) = json.get(key) else {
                panic!("{key} is a list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    fn smoke(workload: Workload, trace: bool) {
        let tracer = Arc::new(Tracer::default());
        let out = run(&args(workload, trace), &tracer).expect("smoke run");
        assert!(out.correct(), "{}", out.table(workload.name()));
        let want = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(out.metrics.len(), want.len());
        let line = out.json_line();
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        if !trace {
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{}",
                out.table("e2e")
            );
        }
    }

    #[test]
    fn smoke_sweep_mem() {
        smoke(Workload::SweepMem, false);
    }

    #[test]
    fn smoke_sweep_mem_traced() {
        smoke(Workload::SweepMem, true);
    }

    #[test]
    fn smoke_serve_cold() {
        smoke(Workload::ServeCold, false);
    }

    #[test]
    fn smoke_serve_cold_traced() {
        smoke(Workload::ServeCold, true);
    }

    #[test]
    fn smoke_serve_warm() {
        smoke(Workload::ServeWarm, false);
    }

    #[test]
    fn smoke_serve_warm_traced() {
        smoke(Workload::ServeWarm, true);
    }
}
