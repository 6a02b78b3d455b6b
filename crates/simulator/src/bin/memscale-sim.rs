//! `memscale-sim` — command-line front-end to the MemScale simulator.
//!
//! ```text
//! memscale-sim [OPTIONS]                 run baseline + policy (live generator)
//! memscale-sim record --out PATH [OPTIONS]   record a replayable miss trace
//! memscale-sim trace-info PATH           print a trace's header metadata
//! memscale-sim check [--generation all|ddr3|ddr4|lpddr3] [--report PATH]
//!                                        static consistency analysis
//! memscale-sim serve --addr HOST:PORT    long-running sweep-job server
//!                                        (SIGTERM drains gracefully;
//!                                        --state-dir DIR makes caches and
//!                                        job state crash-durable)
//! memscale-sim slo --arrivals SPEC       open-loop service workload: run a
//!                                        policy set against one seeded
//!                                        arrival stream, report per-policy
//!                                        p50/p95/p99 + SLO violations
//!                                        (exit 1 on a p99 breach)
//! memscale-sim loadgen --addr HOST:PORT  closed-loop client fleet
//!                                        (--open-loop RATE switches to a
//!                                        Poisson arrival schedule)
//! memscale-sim chaos --addr HOST:PORT    loadgen through a seeded
//!                                        fault-injecting proxy
//! memscale-sim chaos --kill9 --state-dir DIR
//!                                        process-level crash harness:
//!                                        SIGKILL mid-job, restart, assert
//!                                        recovery invariants
//!
//!   --mix NAME          Table 1 workload (default MID1)
//!   --policy NAME       baseline | fast-pd | slow-pd | deep-pd | static:<mhz> |
//!                       decoupled | memscale | mem-energy | memscale-pd |
//!                       per-channel            (default memscale)
//!   --generation NAME   ddr3 | ddr4 | lpddr3    (default ddr3)
//!   --duration-ms N     baseline horizon in milliseconds (default 20)
//!   --gamma PCT         CPI degradation bound in percent (default 10)
//!   --cores N           core count (default 16)
//!   --channels N        memory channels (default 4)
//!   --epoch-ms N        epoch length (default 5)
//!   --seed N            trace seed (default fixed)
//!   --faults SPEC       fault-injection plan, e.g. `all=0.05,seed=7` or
//!                       `counter=0.1,relock=0.05,thermal=0.02` (see
//!                       `FaultPlan::parse`; default: no faults)
//!   --replay PATH       feed the run from a recorded trace instead of the
//!                       live generator (same seed/config ⇒ bit-identical)
//!   --out PATH          (record) trace artifact to write
//!   --margin PCT        (record) extra continuation events per app beyond
//!                       what the recording runs consumed (default 50)
//!   --json              emit the result as JSON instead of text
//!   --list              list workloads and exit
//! ```
//!
//! The default command runs the baseline calibration followed by the chosen
//! policy over the same work, then prints savings, CPI degradation and
//! frequency residency. `record` runs a recording baseline plus recording
//! runs of the chosen policy and the slowest static point, and writes the
//! merged capture (plus margin) as a replayable artifact. `check` runs the
//! `memscale-check` static analyzer (device-table invariants at every grid
//! frequency, power-state-machine model checking, audit rule-pack coverage)
//! without simulating anything; `--report PATH` additionally writes the
//! diagnostics to a file for CI artifact upload.
//!
//! Exit codes: 0 success, 1 simulation error (or, for `check`, at least one
//! diagnostic), 2 usage error (including a replay trace recorded under an
//! incompatible configuration), 3 fault run whose command stream failed
//! protocol audit.

use memscale::policies::PolicyKind;
use memscale_arrivals::{ArrivalSpec, RequestModel};
use memscale_serve::json::Json;
use memscale_serve::loadgen::LoadgenConfig;
use memscale_serve::server::ServerConfig;
use memscale_serve::SweepServer;
use memscale_simulator::harness::{record_trace, Experiment};
use memscale_simulator::slo::{
    record_service_trace, run_slo_sweep, run_slo_sweep_replay, ServiceConfig,
};
use memscale_simulator::{ShardSpec, SimConfig, SimError, SimulatorBackend};
use memscale_trace::{write_trace_file, ReplayTrace, TraceError};
use memscale_types::config::MemGeneration;
use memscale_types::faults::FaultPlan;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::Mix;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
enum Command {
    /// Baseline + policy evaluation (optionally fed from `Args::replay`).
    Run,
    /// Record a replayable trace to `Args::out`.
    Record,
    /// Print a trace's header metadata.
    TraceInfo(PathBuf),
    /// Static consistency analysis (`None` = every generation).
    Check {
        /// Single generation to analyze, or `None` for all three.
        generation: Option<MemGeneration>,
        /// File to additionally write the diagnostics to.
        report: Option<PathBuf>,
    },
    /// Long-running sweep-job server (`Args::addr` and server knobs).
    Serve(ServeArgs),
    /// Closed-loop load generator driving a running server.
    Loadgen(LoadgenArgs),
    /// Seeded fault-injection run: loadgen through a chaos proxy.
    Chaos(ChaosArgs),
    /// Open-loop SLO-judged policy sweep.
    Slo(SloArgs),
}

/// `memscale-sim slo` parameters.
#[derive(Debug, Clone, PartialEq)]
struct SloArgs {
    /// Arrival-process spec: `poisson:RATE`, `mmpp:ON,OFF,ON_MS,OFF_MS`,
    /// `diurnal:DURxRATE,...` or `diurnal:PATH.json`.
    arrivals: String,
    /// p99 latency objective in milliseconds (`None` = report only).
    slo_p99_ms: Option<f64>,
    /// Policies to sweep.
    policies: Vec<String>,
    /// Per-request work model: misses per core per request.
    misses_per_core: u64,
    /// Per-request work model: instructions between burst misses.
    gap_instructions: u64,
    /// Record the service trace here and replay the sweep from it.
    record: Option<PathBuf>,
    /// Replay the sweep from a previously recorded service trace.
    replay: Option<PathBuf>,
    /// Also write the JSON report here (it always goes to stdout).
    out: Option<PathBuf>,
}

/// `memscale-sim serve` parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ServeArgs {
    /// Listen address, e.g. `127.0.0.1:7119`.
    addr: String,
    /// Admission limit: jobs in service at once before `overloaded`.
    queue_depth: usize,
    /// Worker threads evaluating cells (0 = one per CPU).
    threads: usize,
    /// Entries in each of the result and baseline caches.
    cache_cap: usize,
    /// Bounded cell-queue capacity of the worker pool.
    cell_queue: usize,
    /// Deadline applied to jobs that carry none, milliseconds (0 = none).
    default_deadline_ms: u64,
    /// Per-cell watchdog, milliseconds (0 disables).
    cell_timeout_ms: u64,
    /// Socket read/write timeout, milliseconds (0 = unbounded).
    io_timeout_ms: u64,
    /// SIGTERM drain bound before forced exit, milliseconds.
    drain_timeout_ms: u64,
    /// Durable-state directory (write-ahead journal + baseline log);
    /// `None` keeps the server memory-only.
    state_dir: Option<PathBuf>,
}

/// `memscale-sim loadgen` parameters.
#[derive(Debug, Clone, PartialEq)]
struct LoadgenArgs {
    /// Server address to connect to.
    addr: String,
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Jobs each client submits sequentially.
    jobs: usize,
    /// Workload mix submitted by every job.
    mix: String,
    /// Memory generation submitted by every job.
    generation: MemGeneration,
    /// Baseline horizon of every job, milliseconds.
    duration_ms: u64,
    /// Policy cells of every job (empty = server default grid).
    policies: Vec<String>,
    /// Per-job deadline carried in every request (0 = none).
    deadline_ms: u64,
    /// Retries after `overloaded` rejections.
    retries: usize,
    /// Client connect timeout, milliseconds.
    connect_timeout_ms: u64,
    /// Client read timeout, milliseconds.
    read_timeout_ms: u64,
    /// Extra connection attempts after a failed connect (0 = fail fast).
    reconnect_retries: usize,
    /// Where to write the `BENCH_serve.json` artifact.
    out: PathBuf,
    /// Exit non-zero when the run saw no cache hits.
    require_cache_hits: bool,
    /// Total offered rate for open-loop submission, requests/second
    /// (0 = classic closed loop).
    open_loop_rps: f64,
}

/// `memscale-sim chaos` parameters: a loadgen fleet pointed through a
/// seeded fault-injecting proxy at a running server.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaosArgs {
    /// Upstream server address the proxy forwards to.
    addr: String,
    /// Fault-stream seed (same seed = same fault schedule).
    seed: u64,
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Jobs each client submits sequentially.
    jobs: usize,
    /// Idle flood connections opened alongside the fleet.
    flood: usize,
    /// Workload mix submitted by every job.
    mix: String,
    /// Baseline horizon of every job, milliseconds.
    duration_ms: u64,
    /// Policy cells of every job.
    policies: Vec<String>,
    /// Per-job deadline carried in every request (0 = none).
    deadline_ms: u64,
    /// Where to write the artifact (`BENCH_chaos.json`, or
    /// `BENCH_recovery.json` under `--kill9`).
    out: Option<PathBuf>,
    /// Process-level fault mode: spawn the real server binary, SIGKILL it
    /// mid-job, restart against the same state dir, assert recovery.
    kill9: bool,
    /// Durable-state directory for `--kill9` (required in that mode).
    state_dir: Option<PathBuf>,
    /// Server binary for `--kill9` (default: this `memscale-sim` binary).
    server_bin: Option<PathBuf>,
}

#[derive(Debug)]
struct Args {
    command: Command,
    mix: String,
    policy: String,
    generation: MemGeneration,
    duration_ms: u64,
    gamma_pct: f64,
    cores: usize,
    channels: u8,
    epoch_ms: u64,
    seed: Option<u64>,
    faults: Option<FaultPlan>,
    replay: Option<PathBuf>,
    out: Option<PathBuf>,
    margin_pct: usize,
    json: bool,
    list: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: Command::Run,
            mix: "MID1".into(),
            policy: "memscale".into(),
            generation: MemGeneration::Ddr3,
            duration_ms: 20,
            gamma_pct: 10.0,
            cores: 16,
            channels: 4,
            epoch_ms: 5,
            seed: None,
            faults: None,
            replay: None,
            out: None,
            margin_pct: 50,
            json: false,
            list: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("record") => {
            args.command = Command::Record;
            it.next();
        }
        Some("trace-info") => {
            it.next();
            let path = it.next().ok_or("trace-info requires a trace PATH")?;
            if let Some(extra) = it.next() {
                return Err(format!("trace-info takes exactly one PATH (got `{extra}`)"));
            }
            args.command = Command::TraceInfo(path.into());
            return Ok(args);
        }
        Some("check") => {
            it.next();
            let mut generation = None;
            let mut report = None;
            while let Some(flag) = it.next() {
                let mut value =
                    |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
                match flag.as_str() {
                    "--generation" => {
                        let name = value("--generation")?;
                        generation = if name == "all" {
                            None
                        } else {
                            Some(MemGeneration::parse(&name).ok_or_else(|| {
                                format!("unknown generation {name}; use all|ddr3|ddr4|lpddr3")
                            })?)
                        };
                    }
                    "--report" => report = Some(value("--report")?.into()),
                    "--help" | "-h" => return Err("help".into()),
                    other => return Err(format!("unknown check flag {other}")),
                }
            }
            args.command = Command::Check { generation, report };
            return Ok(args);
        }
        Some("serve") => {
            it.next();
            let mut serve = ServeArgs {
                addr: String::new(),
                queue_depth: 8,
                threads: 0,
                cache_cap: 512,
                cell_queue: 256,
                default_deadline_ms: 0,
                cell_timeout_ms: 60_000,
                io_timeout_ms: 30_000,
                drain_timeout_ms: 30_000,
                state_dir: None,
            };
            while let Some(flag) = it.next() {
                let mut value =
                    |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
                match flag.as_str() {
                    "--addr" => serve.addr = value("--addr")?,
                    "--queue-depth" => {
                        serve.queue_depth = value("--queue-depth")?
                            .parse()
                            .map_err(|e| format!("--queue-depth: {e}"))?;
                    }
                    "--threads" => {
                        serve.threads = value("--threads")?
                            .parse()
                            .map_err(|e| format!("--threads: {e}"))?;
                    }
                    "--cache-cap" | "--cache-capacity" => {
                        serve.cache_cap =
                            value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                    }
                    "--state-dir" => serve.state_dir = Some(value("--state-dir")?.into()),
                    "--cell-queue" => {
                        serve.cell_queue = value("--cell-queue")?
                            .parse()
                            .map_err(|e| format!("--cell-queue: {e}"))?;
                    }
                    "--default-deadline" => {
                        serve.default_deadline_ms = value("--default-deadline")?
                            .parse()
                            .map_err(|e| format!("--default-deadline: {e}"))?;
                    }
                    "--cell-timeout" => {
                        serve.cell_timeout_ms = value("--cell-timeout")?
                            .parse()
                            .map_err(|e| format!("--cell-timeout: {e}"))?;
                    }
                    "--io-timeout" => {
                        serve.io_timeout_ms = value("--io-timeout")?
                            .parse()
                            .map_err(|e| format!("--io-timeout: {e}"))?;
                    }
                    "--drain-timeout" => {
                        serve.drain_timeout_ms = value("--drain-timeout")?
                            .parse()
                            .map_err(|e| format!("--drain-timeout: {e}"))?;
                    }
                    "--help" | "-h" => return Err("help".into()),
                    other => return Err(format!("unknown serve flag {other}")),
                }
            }
            if serve.addr.is_empty() {
                return Err("serve requires --addr HOST:PORT".into());
            }
            args.command = Command::Serve(serve);
            return Ok(args);
        }
        Some("loadgen") => {
            it.next();
            let mut lg = LoadgenArgs {
                addr: String::new(),
                clients: 4,
                jobs: 2,
                mix: "MID1".into(),
                generation: MemGeneration::Ddr3,
                duration_ms: 2,
                policies: vec!["static:800".into(), "memscale".into()],
                deadline_ms: 0,
                retries: 3,
                connect_timeout_ms: 3_000,
                read_timeout_ms: 30_000,
                reconnect_retries: 0,
                out: PathBuf::from("BENCH_serve.json"),
                require_cache_hits: false,
                open_loop_rps: 0.0,
            };
            while let Some(flag) = it.next() {
                let mut value =
                    |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
                match flag.as_str() {
                    "--addr" => lg.addr = value("--addr")?,
                    "--clients" => {
                        lg.clients = value("--clients")?
                            .parse()
                            .map_err(|e| format!("--clients: {e}"))?;
                    }
                    "--jobs" => {
                        lg.jobs = value("--jobs")?
                            .parse()
                            .map_err(|e| format!("--jobs: {e}"))?;
                    }
                    "--mix" => lg.mix = value("--mix")?,
                    "--generation" => {
                        let name = value("--generation")?;
                        lg.generation = MemGeneration::parse(&name).ok_or_else(|| {
                            format!("unknown generation {name}; use ddr3|ddr4|lpddr3")
                        })?;
                    }
                    "--duration-ms" => {
                        lg.duration_ms = value("--duration-ms")?
                            .parse()
                            .map_err(|e| format!("--duration-ms: {e}"))?;
                    }
                    "--policies" => {
                        lg.policies = value("--policies")?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                    }
                    "--deadline-ms" => {
                        lg.deadline_ms = value("--deadline-ms")?
                            .parse()
                            .map_err(|e| format!("--deadline-ms: {e}"))?;
                    }
                    "--retries" => {
                        lg.retries = value("--retries")?
                            .parse()
                            .map_err(|e| format!("--retries: {e}"))?;
                    }
                    "--connect-timeout" => {
                        lg.connect_timeout_ms = value("--connect-timeout")?
                            .parse()
                            .map_err(|e| format!("--connect-timeout: {e}"))?;
                    }
                    "--read-timeout" => {
                        lg.read_timeout_ms = value("--read-timeout")?
                            .parse()
                            .map_err(|e| format!("--read-timeout: {e}"))?;
                    }
                    "--reconnect-retries" => {
                        lg.reconnect_retries = value("--reconnect-retries")?
                            .parse()
                            .map_err(|e| format!("--reconnect-retries: {e}"))?;
                    }
                    "--out" => lg.out = value("--out")?.into(),
                    "--require-cache-hits" => lg.require_cache_hits = true,
                    "--open-loop" => {
                        let raw = value("--open-loop")?;
                        let rate: f64 = raw.parse().map_err(|e| format!("--open-loop: {e}"))?;
                        if !rate.is_finite() || rate <= 0.0 {
                            return Err(format!(
                                "--open-loop must be a positive rate in requests/second, got {raw}"
                            ));
                        }
                        lg.open_loop_rps = rate;
                    }
                    "--help" | "-h" => return Err("help".into()),
                    other => return Err(format!("unknown loadgen flag {other}")),
                }
            }
            if lg.addr.is_empty() {
                return Err("loadgen requires --addr HOST:PORT".into());
            }
            args.command = Command::Loadgen(lg);
            return Ok(args);
        }
        Some("slo") => {
            it.next();
            let mut slo = SloArgs {
                arrivals: String::new(),
                slo_p99_ms: None,
                policies: vec!["baseline".into(), "static:400".into(), "memscale".into()],
                misses_per_core: 2_000,
                gap_instructions: 200,
                record: None,
                replay: None,
                out: None,
            };
            while let Some(flag) = it.next() {
                let mut value =
                    |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
                match flag.as_str() {
                    "--arrivals" => slo.arrivals = value("--arrivals")?,
                    "--slo-p99-ms" => {
                        let ms: f64 = value("--slo-p99-ms")?
                            .parse()
                            .map_err(|e| format!("--slo-p99-ms: {e}"))?;
                        if !ms.is_finite() || ms <= 0.0 {
                            return Err(format!("--slo-p99-ms must be positive, got {ms}"));
                        }
                        slo.slo_p99_ms = Some(ms);
                    }
                    "--policies" => {
                        slo.policies = value("--policies")?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                    }
                    "--misses-per-request" => {
                        slo.misses_per_core = value("--misses-per-request")?
                            .parse()
                            .map_err(|e| format!("--misses-per-request: {e}"))?;
                    }
                    "--request-gap" => {
                        slo.gap_instructions = value("--request-gap")?
                            .parse()
                            .map_err(|e| format!("--request-gap: {e}"))?;
                    }
                    "--record" => slo.record = Some(value("--record")?.into()),
                    "--replay" => slo.replay = Some(value("--replay")?.into()),
                    "--out" => slo.out = Some(value("--out")?.into()),
                    "--mix" => args.mix = value("--mix")?,
                    "--generation" => {
                        let name = value("--generation")?;
                        args.generation = MemGeneration::parse(&name).ok_or_else(|| {
                            format!("unknown generation {name}; use ddr3|ddr4|lpddr3")
                        })?;
                    }
                    "--duration-ms" => {
                        args.duration_ms = value("--duration-ms")?
                            .parse()
                            .map_err(|e| format!("--duration-ms: {e}"))?;
                    }
                    "--seed" => {
                        args.seed = Some(
                            value("--seed")?
                                .parse()
                                .map_err(|e| format!("--seed: {e}"))?,
                        );
                    }
                    "--cores" => {
                        args.cores = value("--cores")?
                            .parse()
                            .map_err(|e| format!("--cores: {e}"))?;
                    }
                    "--channels" => {
                        args.channels = value("--channels")?
                            .parse()
                            .map_err(|e| format!("--channels: {e}"))?;
                    }
                    "--epoch-ms" => {
                        args.epoch_ms = value("--epoch-ms")?
                            .parse()
                            .map_err(|e| format!("--epoch-ms: {e}"))?;
                    }
                    "--margin" => {
                        args.margin_pct = value("--margin")?
                            .parse()
                            .map_err(|e| format!("--margin: {e}"))?;
                    }
                    "--help" | "-h" => return Err("help".into()),
                    other => return Err(format!("unknown slo flag {other}")),
                }
            }
            if slo.arrivals.is_empty() {
                return Err("slo requires --arrivals SPEC (e.g. poisson:2000)".into());
            }
            if slo.policies.is_empty() {
                return Err("slo requires at least one policy".into());
            }
            if slo.record.is_some() && slo.replay.is_some() {
                return Err("slo takes --record or --replay, not both".into());
            }
            args.command = Command::Slo(slo);
            return Ok(args);
        }
        Some("chaos") => {
            it.next();
            let mut ch = ChaosArgs {
                addr: String::new(),
                seed: 7,
                clients: 8,
                jobs: 3,
                flood: 16,
                mix: "MID1".into(),
                duration_ms: 2,
                policies: vec!["static:800".into(), "memscale".into()],
                deadline_ms: 0,
                out: None,
                kill9: false,
                state_dir: None,
                server_bin: None,
            };
            let mut policies_set = false;
            while let Some(flag) = it.next() {
                let mut value =
                    |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
                match flag.as_str() {
                    "--addr" => ch.addr = value("--addr")?,
                    "--seed" => {
                        ch.seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?;
                    }
                    "--clients" => {
                        ch.clients = value("--clients")?
                            .parse()
                            .map_err(|e| format!("--clients: {e}"))?;
                    }
                    "--jobs" => {
                        ch.jobs = value("--jobs")?
                            .parse()
                            .map_err(|e| format!("--jobs: {e}"))?;
                    }
                    "--flood" => {
                        ch.flood = value("--flood")?
                            .parse()
                            .map_err(|e| format!("--flood: {e}"))?;
                    }
                    "--mix" => ch.mix = value("--mix")?,
                    "--duration-ms" => {
                        ch.duration_ms = value("--duration-ms")?
                            .parse()
                            .map_err(|e| format!("--duration-ms: {e}"))?;
                    }
                    "--policies" => {
                        ch.policies = value("--policies")?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                        policies_set = true;
                    }
                    "--deadline-ms" => {
                        ch.deadline_ms = value("--deadline-ms")?
                            .parse()
                            .map_err(|e| format!("--deadline-ms: {e}"))?;
                    }
                    "--out" => ch.out = Some(value("--out")?.into()),
                    "--kill9" => ch.kill9 = true,
                    "--state-dir" => ch.state_dir = Some(value("--state-dir")?.into()),
                    "--server-bin" => ch.server_bin = Some(value("--server-bin")?.into()),
                    "--help" | "-h" => return Err("help".into()),
                    other => return Err(format!("unknown chaos flag {other}")),
                }
            }
            if ch.kill9 {
                if ch.state_dir.is_none() {
                    return Err("chaos --kill9 requires --state-dir DIR".into());
                }
                // The harness kills the server mid-job, which needs a grid
                // wide enough to land the kill between two completed cells
                // and the job's end; widen the 2-cell default.
                if !policies_set {
                    ch.policies = vec![
                        "static:800".into(),
                        "static:400".into(),
                        "static:200".into(),
                        "memscale".into(),
                    ];
                }
            } else if ch.addr.is_empty() {
                return Err("chaos requires --addr HOST:PORT (a running server)".into());
            }
            args.command = Command::Chaos(ch);
            return Ok(args);
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--mix" => args.mix = value("--mix")?,
            "--policy" => args.policy = value("--policy")?,
            "--generation" => {
                let name = value("--generation")?;
                args.generation = MemGeneration::parse(&name)
                    .ok_or_else(|| format!("unknown generation {name}; use ddr3|ddr4|lpddr3"))?;
            }
            "--duration-ms" => {
                args.duration_ms = value("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("--duration-ms: {e}"))?;
            }
            "--gamma" => {
                args.gamma_pct = value("--gamma")?
                    .parse()
                    .map_err(|e| format!("--gamma: {e}"))?;
            }
            "--cores" => {
                args.cores = value("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?;
            }
            "--channels" => {
                args.channels = value("--channels")?
                    .parse()
                    .map_err(|e| format!("--channels: {e}"))?;
            }
            "--epoch-ms" => {
                args.epoch_ms = value("--epoch-ms")?
                    .parse()
                    .map_err(|e| format!("--epoch-ms: {e}"))?;
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--faults" => {
                let spec = value("--faults")?;
                let plan = FaultPlan::parse(&spec).map_err(|e| format!("--faults: {e}"))?;
                plan.validate().map_err(|e| format!("--faults: {e}"))?;
                args.faults = Some(plan);
            }
            "--replay" => args.replay = Some(value("--replay")?.into()),
            "--out" => args.out = Some(value("--out")?.into()),
            "--margin" => {
                args.margin_pct = value("--margin")?
                    .parse()
                    .map_err(|e| format!("--margin: {e}"))?;
            }
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match args.command {
        Command::Record if args.out.is_none() => Err("record requires --out PATH".into()),
        Command::Record if args.replay.is_some() => {
            Err("record captures from the live generator; --replay is not allowed".into())
        }
        _ => Ok(args),
    }
}

/// Parses a policy wire name (the canonical grammar lives in
/// [`PolicyKind::parse`]; this wrapper only decorates the error).
fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(name).map_err(|e| format!("{e}; see `memscale-sim --help`"))
}

/// Renders the run summary as a pretty-printed JSON object without any
/// external serialization dependency (the container builds offline).
fn render_json(
    run: &memscale_simulator::RunResult,
    cmp: &memscale_simulator::harness::Comparison,
    exp: &Experiment,
    gamma: f64,
) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("mix", Json::Str(run.mix.clone()).render()),
        ("policy", Json::Str(run.policy.clone()).render()),
        ("generation", format!("\"{}\"", run.generation)),
        ("gamma", format!("{gamma}")),
        (
            "baseline_duration_ms",
            format!("{}", exp.baseline().duration.as_ms_f64()),
        ),
        ("run_duration_ms", format!("{}", run.duration.as_ms_f64())),
        ("memory_savings", format!("{}", cmp.memory_savings)),
        ("system_savings", format!("{}", cmp.system_savings)),
        ("cpi_increase_avg", format!("{}", cmp.avg_cpi_increase())),
        ("cpi_increase_max", format!("{}", cmp.max_cpi_increase())),
        (
            "mean_frequency_mhz",
            format!("{}", run.mean_frequency_mhz()),
        ),
        ("reads", format!("{}", run.counters.reads)),
        ("writebacks", format!("{}", run.counters.writes)),
        ("powerdown_exits", format!("{}", run.counters.epdc)),
        ("deep_powerdown_exits", format!("{}", run.counters.edpc)),
        (
            "deep_powerdown_time_ms",
            format!("{}", run.deep_pd_time.as_ms_f64()),
        ),
        (
            "memory_energy_j",
            format!("{}", run.energy.memory_total_j()),
        ),
        (
            "system_energy_j",
            format!("{}", run.energy.system_total_j()),
        ),
        ("rest_of_system_w", format!("{}", run.rest_w)),
    ];
    if let Some(f) = &run.faults {
        fields.push(("fault_seed", format!("{}", f.seed)));
        fields.push(("faults_injected", format!("{}", f.total_injected())));
        fields.push((
            "faults_counter_corrupted",
            format!("{}", f.counter_corrupted),
        ));
        fields.push(("faults_counter_stale", format!("{}", f.counter_stale)));
        fields.push(("faults_counter_dropped", format!("{}", f.counter_dropped)));
        fields.push(("faults_relock_overruns", format!("{}", f.relock_overruns)));
        fields.push(("faults_switch_failures", format!("{}", f.switch_failures)));
        fields.push(("faults_refresh_slips", format!("{}", f.refresh_slips)));
        fields.push(("faults_refresh_drops", format!("{}", f.refresh_drops)));
        fields.push(("faults_thermal_events", format!("{}", f.thermal_events)));
        fields.push(("faults_pd_exit_spikes", format!("{}", f.pd_exit_spikes)));
        fields.push((
            "governor_discarded_profiles",
            format!("{}", f.discarded_profiles),
        ));
        fields.push((
            "governor_clamped_profiles",
            format!("{}", f.clamped_profiles),
        ));
        fields.push((
            "governor_forced_max_epochs",
            format!("{}", f.forced_max_epochs),
        ));
        fields.push(("governor_failed_switches", format!("{}", f.failed_switches)));
    }
    if let Some(report) = &run.audit {
        fields.push((
            "audit_commands_checked",
            format!("{}", report.commands_checked),
        ));
        fields.push(("audit_violations", format!("{}", report.violations.len())));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

/// Reports a simulation error: exit 2 for a trace/configuration mismatch
/// (a usage problem — wrong trace for these flags), exit 1 otherwise.
fn sim_error(e: &SimError) -> ExitCode {
    eprintln!("error: {e}");
    match e {
        SimError::Trace(TraceError::ConfigMismatch { .. }) => ExitCode::from(2),
        _ => ExitCode::from(1),
    }
}

/// `memscale-sim record`: capture the miss streams of a recording baseline
/// plus recording runs of `policy` and the slowest static point, extend by
/// the margin, and write the artifact to `out`.
fn record(
    mix: &Mix,
    cfg: &SimConfig,
    policy: PolicyKind,
    margin_pct: usize,
    out: &std::path::Path,
) -> ExitCode {
    // The slowest static point stretches the run the furthest, so early
    // finishers pull the most events; recording it makes the artifact
    // replayable across the whole frequency grid.
    let mut policies = vec![PolicyKind::Static(MemFreq::MIN)];
    if policy != policies[0] && policy != PolicyKind::Baseline {
        policies.push(policy);
    }
    eprintln!(
        "recording {} under {} run(s) ...",
        mix.name,
        policies.len() + 1
    );
    let (header, streams) = match record_trace(mix, cfg, &policies, margin_pct) {
        Ok(hs) => hs,
        Err(e) => return sim_error(&e),
    };
    if let Err(e) = write_trace_file(out, &header, &streams) {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    let total: usize = streams.iter().map(Vec::len).sum();
    println!(
        "wrote {} ({} apps, {} records, config {:#018x})",
        out.display(),
        streams.len(),
        total,
        header.config_hash
    );
    ExitCode::SUCCESS
}

/// `memscale-sim slo`: sweep a policy set against one seeded open-loop
/// arrival stream and print the per-policy latency/SLO report as JSON.
///
/// With `--record PATH` the service trace is captured first and the sweep
/// replays from it (proving the artifact reproduces the live run); with
/// `--replay PATH` an existing artifact feeds the sweep. Exit 1 when any
/// policy breaches the configured p99 objective.
fn run_slo(mix: &Mix, cfg: &SimConfig, slo: &SloArgs, margin_pct: usize) -> ExitCode {
    let spec = match ArrivalSpec::parse(&slo.arrivals) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: --arrivals: {e}");
            return ExitCode::from(2);
        }
    };
    if slo.misses_per_core == 0 || slo.gap_instructions == 0 {
        eprintln!("error: --misses-per-request and --request-gap must be at least 1");
        return ExitCode::from(2);
    }
    let mut shards = Vec::with_capacity(slo.policies.len());
    for name in &slo.policies {
        let policy = match parse_policy(name) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        if !policy.available_on(cfg.system.timing.generation) {
            eprintln!(
                "error: {}: policy {} is not available on this generation",
                cfg.system.timing.generation,
                policy.name()
            );
            return ExitCode::from(2);
        }
        shards.push(ShardSpec::of(policy));
    }
    let mut svc = ServiceConfig::new(spec);
    svc.model = RequestModel {
        misses_per_core: slo.misses_per_core,
        gap_instructions: slo.gap_instructions,
        ..RequestModel::default()
    };
    if let Some(ms) = slo.slo_p99_ms {
        svc = svc.with_slo(memscale_types::requests::SloSpec::p99(ms));
    }

    let report = if let Some(path) = &slo.replay {
        let trace = match ReplayTrace::open(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        };
        eprintln!(
            "slo: replaying {} policy run(s) from {} ...",
            shards.len(),
            path.display()
        );
        run_slo_sweep_replay(mix, cfg, &svc, &shards, &trace)
    } else if let Some(path) = &slo.record {
        eprintln!("slo: recording service trace ...");
        let (header, streams) = match record_service_trace(mix, cfg, &svc, margin_pct) {
            Ok(hs) => hs,
            Err(e) => return sim_error(&e),
        };
        let total: usize = streams.iter().map(Vec::len).sum();
        let trace = ReplayTrace::from_streams(header, streams);
        if let Err(e) = std::fs::write(path, trace.as_bytes()) {
            eprintln!("error: {}", TraceError::io("writing trace file", &e));
            return ExitCode::from(1);
        }
        eprintln!(
            "slo: wrote {} ({} records); replaying {} policy run(s) ...",
            path.display(),
            total,
            shards.len()
        );
        run_slo_sweep_replay(mix, cfg, &svc, &shards, &trace)
    } else {
        eprintln!(
            "slo: running {} policy run(s) (live sources) ...",
            shards.len()
        );
        run_slo_sweep(mix, cfg, &svc, &shards)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return sim_error(&e),
    };
    let json = report.to_json();
    println!("{json}");
    if let Some(out) = &slo.out {
        let mut bytes = json;
        bytes.push('\n');
        if let Err(e) = std::fs::write(out, &bytes) {
            eprintln!("error: writing {}: {e}", out.display());
            return ExitCode::from(1);
        }
    }
    if report.any_breach() {
        let worst = report
            .outcomes
            .iter()
            .filter(|o| o.breach)
            .map(|o| format!("{} (p99 {:.2} ms)", o.label, o.stats.p99_ms))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!("error: SLO breached by {worst}");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `memscale-sim trace-info`: parse and verify `path`, print its metadata.
fn trace_info(path: &std::path::Path) -> ExitCode {
    let trace = match ReplayTrace::open(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let header = trace.header();
    let summary = trace.summary();
    let total: u64 = summary.records_per_app.iter().sum();
    println!("trace           : {}", path.display());
    println!("format version  : {}", summary.version);
    println!("generation      : {}", header.generation);
    println!("config hash     : {:#018x}", header.config_hash);
    println!("seed            : {:#x}", header.seed);
    println!("slice lines     : {}", header.slice_lines);
    println!("apps            : {}", header.apps.len());
    for (i, app) in header.apps.iter().enumerate() {
        println!(
            "  app {i:>2}        : {app} ({} records)",
            summary.records_per_app[i]
        );
    }
    println!("records         : {total}");
    println!(
        "blocks          : {} ({} payload bytes)",
        summary.blocks, summary.payload_bytes
    );
    ExitCode::SUCCESS
}

/// `memscale-sim check`: run the static consistency analyzer over one or
/// every generation; exit 0 only when no pass produced a diagnostic.
fn run_check(generation: Option<MemGeneration>, report_path: Option<&std::path::Path>) -> ExitCode {
    let reports = match generation {
        Some(gen) => vec![memscale_check::run_generation(gen)],
        None => memscale_check::run_all(),
    };
    let mut text = String::new();
    for report in &reports {
        text.push_str(&report.summary());
        text.push('\n');
    }
    print!("{text}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let total: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: static analysis found {total} violation(s)");
        ExitCode::from(1)
    }
}

/// SIGTERM/SIGINT → drain flag. The handler only stores to a static
/// atomic, which is async-signal-safe; the accept loop polls the flag.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Raised by the signal handler; observed by the accept loop.
    pub static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::Release);
    }

    /// Registers the handler for SIGTERM and SIGINT. The single `unsafe`
    /// in the workspace: `signal(2)` with a handler that does nothing but
    /// store to an atomic.
    #[allow(unsafe_code)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler = on_term as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Non-unix stand-in: the flag exists but nothing raises it, so `serve`
/// runs until killed (the pre-drain behaviour).
#[cfg(not(unix))]
mod sigterm {
    use std::sync::atomic::AtomicBool;

    /// Never raised on this platform.
    pub static TERM: AtomicBool = AtomicBool::new(false);

    /// No signal to hook; nothing to install.
    pub fn install() {}
}

/// `memscale-sim serve`: bind the sweep-job server and run the accept loop
/// until SIGTERM/SIGINT triggers a graceful drain (exit 0) or the listener
/// fails (exit 1).
fn run_serve(serve: &ServeArgs) -> ExitCode {
    let mut cfg = ServerConfig {
        queue_depth: serve.queue_depth,
        cell_queue: serve.cell_queue,
        cache_cap: serve.cache_cap,
        default_deadline_ms: (serve.default_deadline_ms > 0).then_some(serve.default_deadline_ms),
        cell_timeout_ms: serve.cell_timeout_ms,
        io_timeout_ms: serve.io_timeout_ms,
        drain_timeout_ms: serve.drain_timeout_ms,
        state_dir: serve.state_dir.clone(),
        ..ServerConfig::default()
    };
    if serve.threads > 0 {
        cfg.threads = serve.threads;
    }
    let server = match SweepServer::bind(&serve.addr, cfg, SimulatorBackend) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", serve.addr);
            return ExitCode::from(1);
        }
    };
    if let Some(report) = server.recovery_report() {
        eprintln!(
            "memscale-serve recovered {} cell(s), {} baseline(s), {} interrupted job(s) \
             in {} ms (corrupt records {}, journal truncated {} B, baselines truncated {} B)",
            report.cells_recovered,
            report.baselines_recovered,
            report.interrupted_jobs.len(),
            report.replay_wall_ms,
            report.corrupt_records,
            report.journal_truncated_bytes,
            report.baseline_truncated_bytes
        );
    }
    match server.local_addr() {
        Ok(addr) => eprintln!("memscale-serve listening on {addr}"),
        Err(_) => eprintln!("memscale-serve listening on {}", serve.addr),
    }
    sigterm::install();
    match server.run_with_shutdown(&sigterm::TERM) {
        Ok(()) => {
            eprintln!("memscale-serve drained and exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: accept loop failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// `memscale-sim loadgen`: drive a running server with a closed-loop client
/// fleet, write the `BENCH_serve.json` artifact, and summarize the run.
///
/// Exit 1 when any protocol error occurred, when nothing completed at all
/// (no `done` and no structured `overloaded`), or — under
/// `--require-cache-hits` — when the run saw no cache hits.
fn run_loadgen(lg: &LoadgenArgs) -> ExitCode {
    let mut template = memscale_types::serve::JobSpec::for_mix("job", &lg.mix);
    template.generation = lg.generation;
    template.duration_ms = lg.duration_ms;
    template.policies = lg.policies.clone();
    template.deadline_ms = (lg.deadline_ms > 0).then_some(lg.deadline_ms);
    let mut cfg = LoadgenConfig::new(lg.addr.clone(), lg.clients, lg.jobs, template);
    cfg.max_retries = lg.retries;
    cfg.connect_timeout_ms = lg.connect_timeout_ms;
    cfg.read_timeout_ms = lg.read_timeout_ms;
    cfg.reconnect_retries = lg.reconnect_retries;
    cfg.open_loop_rps = lg.open_loop_rps;
    if cfg.open_loop_rps > 0.0 {
        eprintln!(
            "loadgen: {} client(s) x {} job(s) against {} (open loop, {} req/s offered) ...",
            cfg.clients, cfg.jobs_per_client, cfg.addr, cfg.open_loop_rps
        );
    } else {
        eprintln!(
            "loadgen: {} client(s) x {} job(s) against {} ...",
            cfg.clients, cfg.jobs_per_client, cfg.addr
        );
    }
    let stats = match memscale_serve::loadgen::run(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut artifact = stats.to_bench_json(&cfg);
    artifact.push('\n');
    if let Err(e) = std::fs::write(&lg.out, &artifact) {
        eprintln!("error: writing {}: {e}", lg.out.display());
        return ExitCode::from(1);
    }
    println!(
        "jobs ok {} | overloaded {} | failed {} | transport {} | protocol errors {}",
        stats.jobs_ok,
        stats.jobs_overloaded,
        stats.jobs_failed,
        stats.jobs_transport,
        stats.protocol_errors
    );
    println!(
        "retries {} | deadline misses {} | cells cancelled {} | cells timed out {}",
        stats.retries, stats.deadline_misses, stats.cells_cancelled, stats.cells_timed_out
    );
    println!(
        "throughput {:.2} jobs/s | p50 {:.1} ms | p99 {:.1} ms | cache hit rate {:.1}%",
        stats.jobs_per_sec(),
        stats.latency_quantile(0.50),
        stats.latency_quantile(0.99),
        stats.cache_hit_rate() * 100.0
    );
    if lg.open_loop_rps > 0.0 {
        println!(
            "open loop: offered {:.2} req/s | achieved {:.2} req/s | late submissions {}",
            lg.open_loop_rps,
            stats.jobs_per_sec(),
            stats.late_submissions
        );
    }
    println!("wrote {}", lg.out.display());
    let starved = stats.jobs_ok == 0 && stats.jobs_overloaded == 0;
    let hits_missing = lg.require_cache_hits && stats.cache_hits == 0;
    if stats.protocol_errors > 0 || starved || hits_missing {
        if hits_missing {
            eprintln!("error: --require-cache-hits: the run saw no cache hits");
        }
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `memscale-sim chaos`: point a loadgen fleet at a running server through
/// an in-process seeded fault proxy, then verify the server survived.
///
/// The proxy tears frames, drops requests, stalls reads and kills
/// connections on the client→server path while `--flood` idle connections
/// sit open. Afterwards a clean one-job probe submits *directly* to the
/// server: it proves admission slots were not leaked by the faulted jobs.
/// Exit 0 requires zero protocol violations, every job accounted for, and
/// a successful probe.
fn run_chaos(ch: &ChaosArgs) -> ExitCode {
    let mut template = memscale_types::serve::JobSpec::for_mix("job", &ch.mix);
    template.duration_ms = ch.duration_ms;
    template.policies = ch.policies.clone();
    template.deadline_ms = (ch.deadline_ms > 0).then_some(ch.deadline_ms);

    if ch.kill9 {
        return run_kill9(ch, template);
    }
    let out = ch
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_chaos.json"));

    let proxy_cfg = memscale_serve::ChaosConfig::new(ch.addr.clone(), ch.seed);
    let proxy = match memscale_serve::ChaosProxy::bind("127.0.0.1:0", proxy_cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot bind chaos proxy: {e}");
            return ExitCode::from(1);
        }
    };
    let handle = match proxy.spawn() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start chaos proxy: {e}");
            return ExitCode::from(1);
        }
    };
    let proxy_addr = handle.addr().to_string();
    eprintln!(
        "chaos: seed {} | {} client(s) x {} job(s) via {} -> {} | {} flood conns",
        ch.seed, ch.clients, ch.jobs, proxy_addr, ch.addr, ch.flood
    );
    let flood = memscale_serve::open_flood(&proxy_addr, ch.flood);

    let mut cfg = LoadgenConfig::new(proxy_addr, ch.clients, ch.jobs, template.clone());
    cfg.seed = ch.seed;
    cfg.read_timeout_ms = 15_000;
    let mut stats = match memscale_serve::loadgen::run(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            drop(flood);
            handle.stop();
            return ExitCode::from(1);
        }
    };
    drop(flood);
    let report = handle.stop();
    stats.chaos_faults_injected = report.total_injected();

    // Admission-correctness probe: after the chaos run settles, one clean
    // job straight at the server must still be admitted and complete.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut probe_template = template;
    probe_template.deadline_ms = None;
    let probe_cfg = LoadgenConfig::new(ch.addr.clone(), 1, 1, probe_template);
    let probe_ok = match memscale_serve::loadgen::run(&probe_cfg) {
        Ok(p) => p.jobs_ok == 1,
        Err(e) => {
            eprintln!("error: post-chaos probe: {e}");
            false
        }
    };

    let mut artifact = stats.to_bench_json_named(&cfg, "serve_chaos");
    artifact.push('\n');
    if let Err(e) = std::fs::write(&out, &artifact) {
        eprintln!("error: writing {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let offered = ch.clients * ch.jobs;
    println!(
        "faults injected {} (torn {} | dropped {} | disconnects {} | stalls {}) over {} conns",
        report.total_injected(),
        report.torn_frames,
        report.dropped_frames,
        report.disconnects,
        report.stalls,
        report.connections
    );
    println!(
        "jobs ok {} | overloaded {} | failed {} | transport {} | accounted {}/{}",
        stats.jobs_ok,
        stats.jobs_overloaded,
        stats.jobs_failed,
        stats.jobs_transport,
        stats.jobs_accounted(),
        offered
    );
    println!(
        "protocol errors {} | retries {} | deadline misses {} | post-chaos probe {}",
        stats.protocol_errors,
        stats.retries,
        stats.deadline_misses,
        if probe_ok { "ok" } else { "FAILED" }
    );
    println!("wrote {}", out.display());
    if stats.protocol_errors == 0 && stats.jobs_accounted() == offered && probe_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: chaos run violated serving invariants");
        ExitCode::from(1)
    }
}

/// `memscale-sim chaos --kill9`: process-level crash-recovery harness.
///
/// Spawns the real server binary with `--state-dir`, SIGKILLs it at a
/// seeded point mid-job, tears the journal tail, restarts it against the
/// same directory, and asserts the recovery invariants (no duplicate or
/// corrupt cells, warm cache hits on resubmit, byte-identical results vs
/// an uninterrupted control run). Writes `BENCH_recovery.json`.
fn run_kill9(ch: &ChaosArgs, template: memscale_types::serve::JobSpec) -> ExitCode {
    let state_dir = ch.state_dir.clone().expect("checked in parse_args");
    let server_bin = match &ch.server_bin {
        Some(path) => path.clone(),
        None => match std::env::current_exe() {
            Ok(path) => path,
            Err(e) => {
                eprintln!("error: cannot locate this binary (pass --server-bin): {e}");
                return ExitCode::from(1);
            }
        },
    };
    let out = ch
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_recovery.json"));
    let mut cfg = memscale_serve::recovery::RecoveryConfig::new(server_bin, state_dir, template);
    cfg.seed = ch.seed;
    eprintln!(
        "chaos --kill9: seed {} | {} cell(s) | state dir {}",
        ch.seed,
        ch.policies.len(),
        cfg.state_dir.display()
    );
    let outcome = match memscale_serve::recovery::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: recovery invariants violated: {e}");
            return ExitCode::from(1);
        }
    };
    let mut artifact = outcome.to_bench_json(ch.seed);
    artifact.push('\n');
    if let Err(e) = std::fs::write(&out, &artifact) {
        eprintln!("error: writing {}: {e}", out.display());
        return ExitCode::from(1);
    }
    println!(
        "killed after {} of {} cell(s) | journal tail torn {} B | interrupted job marked: {}",
        outcome.cells_before_kill,
        outcome.cells,
        outcome.torn_tail_bytes,
        if outcome.interrupted_job { "yes" } else { "no" }
    );
    println!(
        "recovery {:.1} ms | resubmit {:.1} ms | warm hits {}/{} ({:.0}%) | byte-identical {}",
        outcome.recovery_wall_ms,
        outcome.resubmit_wall_ms,
        outcome.warm_hits,
        outcome.warm_hits + outcome.warm_misses,
        outcome.warm_hit_rate() * 100.0,
        if outcome.byte_identical { "yes" } else { "NO" }
    );
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            let mixes: Vec<&str> = Mix::table1().iter().map(|m| m.name).collect();
            eprintln!(
                "usage: memscale-sim [--mix NAME] [--policy NAME] [--duration-ms N]\n\
                 \x20                  [--generation ddr3|ddr4|lpddr3]\n\
                 \x20                  [--gamma PCT] [--cores N] [--channels N]\n\
                 \x20                  [--epoch-ms N] [--seed N] [--faults SPEC]\n\
                 \x20                  [--replay PATH] [--json] [--list]\n\
                 \x20      memscale-sim record --out PATH [--margin PCT] [run options]\n\
                 \x20      memscale-sim trace-info PATH\n\
                 \x20      memscale-sim check [--generation all|ddr3|ddr4|lpddr3] [--report PATH]\n\
                 \x20      memscale-sim serve --addr HOST:PORT [--queue-depth N] [--threads N]\n\
                 \x20                  [--cache-capacity N] [--cell-queue N] [--default-deadline MS]\n\
                 \x20                  [--cell-timeout MS] [--io-timeout MS] [--drain-timeout MS]\n\
                 \x20                  [--state-dir DIR]\n\
                 \x20      memscale-sim slo --arrivals SPEC [--slo-p99-ms N] [--policies a,b,c]\n\
                 \x20                  [--mix NAME] [--generation G] [--duration-ms N] [--seed N]\n\
                 \x20                  [--cores N] [--channels N] [--epoch-ms N]\n\
                 \x20                  [--misses-per-request N] [--request-gap N]\n\
                 \x20                  [--record PATH | --replay PATH] [--margin PCT] [--out PATH]\n\
                 \x20                  (SPEC: poisson:RATE | mmpp:ON,OFF,ON_MS,OFF_MS |\n\
                 \x20                   diurnal:DURxRATE,... | diurnal:FILE.json)\n\
                 \x20      memscale-sim loadgen --addr HOST:PORT [--clients N] [--jobs N]\n\
                 \x20                  [--mix NAME] [--generation G] [--duration-ms N]\n\
                 \x20                  [--policies a,b,c] [--deadline-ms N] [--retries N]\n\
                 \x20                  [--connect-timeout MS] [--read-timeout MS]\n\
                 \x20                  [--reconnect-retries N] [--out PATH] [--require-cache-hits]\n\
                 \x20                  [--open-loop RPS]\n\
                 \x20      memscale-sim chaos --addr HOST:PORT [--seed N] [--clients N] [--jobs N]\n\
                 \x20                  [--flood N] [--mix NAME] [--duration-ms N]\n\
                 \x20                  [--policies a,b,c] [--deadline-ms N] [--out PATH]\n\
                 \x20      memscale-sim chaos --kill9 --state-dir DIR [--seed N]\n\
                 \x20                  [--policies a,b,c] [--server-bin PATH] [--out PATH]\n\
                 policies: baseline fast-pd slow-pd deep-pd static:<mhz> decoupled\n\
                 \x20         memscale mem-energy memscale-pd per-channel\n\
                 mixes:    {}",
                mixes.join(" ")
            );
            return if e == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    if let Command::TraceInfo(path) = &args.command {
        return trace_info(path);
    }

    if let Command::Check { generation, report } = &args.command {
        return run_check(*generation, report.as_deref());
    }

    if let Command::Serve(serve) = &args.command {
        return run_serve(serve);
    }

    if let Command::Loadgen(lg) = &args.command {
        return run_loadgen(lg);
    }

    if let Command::Chaos(ch) = &args.command {
        return run_chaos(ch);
    }

    if args.list {
        for mix in Mix::table1() {
            println!("{mix}  apps: {}", mix.apps.join(", "));
        }
        return ExitCode::SUCCESS;
    }

    let mix = match Mix::by_name(&args.mix) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e} (or try --list)");
            return ExitCode::from(2);
        }
    };
    let policy = match parse_policy(&args.policy) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !policy.available_on(args.generation) {
        eprintln!(
            "error: {}: policy {} is not available on this generation",
            args.generation,
            policy.name()
        );
        return ExitCode::from(2);
    }

    let mut cfg =
        SimConfig::for_generation(args.generation).with_duration(Picos::from_ms(args.duration_ms));
    cfg.governor.gamma = args.gamma_pct / 100.0;
    cfg.governor.epoch = Picos::from_ms(args.epoch_ms);
    cfg.system.cpu.cores = args.cores;
    cfg.system.topology.channels = args.channels;
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    cfg.faults = args.faults.clone();
    if let Err(e) = cfg.system.validate() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    if args.command == Command::Record {
        let out = args.out.as_ref().expect("checked in parse_args");
        return record(&mix, &cfg, policy, args.margin_pct, out);
    }

    if let Command::Slo(slo) = &args.command {
        return run_slo(&mix, &cfg, slo, args.margin_pct);
    }

    let replay = match args.replay.as_ref().map(|p| ReplayTrace::open(p)) {
        None => None,
        Some(Ok(trace)) => Some(trace),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    eprintln!(
        "calibrating baseline for {mix} ({} ms{}) ...",
        args.duration_ms,
        if replay.is_some() { ", replay" } else { "" }
    );
    let calibrated = match &replay {
        None => Experiment::calibrate(&mix, &cfg),
        Some(trace) => Experiment::calibrate_replay(&mix, &cfg, trace),
    };
    let exp = match calibrated {
        Ok(exp) => exp,
        Err(e) => return sim_error(&e),
    };
    eprintln!("running {} ...", policy.name());
    let evaluated = match &replay {
        None => exp.evaluate(policy),
        Some(trace) => exp.evaluate_replay(policy, trace),
    };
    let (run, cmp) = match evaluated {
        Ok(rc) => rc,
        Err(e) => return sim_error(&e),
    };

    if args.json {
        println!("{}", render_json(&run, &cmp, &exp, cfg.governor.gamma));
    } else {
        println!("workload            : {}", run.mix);
        println!("policy              : {}", run.policy);
        println!("generation          : {}", run.generation);
        println!("memory energy saved : {:+.1}%", cmp.memory_savings * 100.0);
        println!("system energy saved : {:+.1}%", cmp.system_savings * 100.0);
        println!(
            "CPI increase        : avg {:.1}%, worst {:.1}% (bound {:.0}%)",
            cmp.avg_cpi_increase() * 100.0,
            cmp.max_cpi_increase() * 100.0,
            args.gamma_pct
        );
        println!("mean bus frequency  : {:.0} MHz", run.mean_frequency_mhz());
        println!(
            "memory traffic      : {} reads, {} writebacks",
            run.counters.reads, run.counters.writes
        );
        if run.deep_pd_time > Picos::ZERO {
            println!(
                "deep power-down     : {} exits, {:.2} rank-ms resident",
                run.counters.edpc,
                run.deep_pd_time.as_ms_f64()
            );
        }
        if let Some(f) = &run.faults {
            println!(
                "faults injected     : {} (seed {:#x}): {} counter, {} relock, {} switch-fail, {} refresh, {} thermal, {} pd-exit",
                f.total_injected(),
                f.seed,
                f.counter_corrupted + f.counter_stale + f.counter_dropped,
                f.relock_overruns,
                f.switch_failures,
                f.refresh_slips + f.refresh_drops,
                f.thermal_events,
                f.pd_exit_spikes
            );
            println!(
                "governor degraded   : {} discarded, {} clamped, {} forced-max epochs, {} failed switches",
                f.discarded_profiles, f.clamped_profiles, f.forced_max_epochs, f.failed_switches
            );
        }
        if let Some(report) = &run.audit {
            if report.is_clean() {
                println!(
                    "{} conformance : clean ({} commands audited)",
                    run.generation, report.commands_checked
                );
            } else {
                println!(
                    "{} conformance : {} violation(s)\n{}",
                    run.generation,
                    report.violations.len(),
                    report.summary()
                );
            }
        }
    }
    // A fault run must still be protocol-conformant: injected perturbations
    // are bounded so the command stream passes the audit rule pack. A dirty
    // audit under faults is a distinct, scriptable failure.
    if run.faults.is_some() && run.audit.as_ref().is_some_and(|r| !r.is_clean()) {
        eprintln!("error: fault run violated protocol conformance");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
