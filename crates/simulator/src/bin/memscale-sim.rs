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
//! ```
//!
//! `memscale-sim --help` lists the flags of every subcommand and
//! `memscale-sim SUBCOMMAND --help` those of one. Each subcommand's flags
//! are one table (`RUN`, `SLO`, `SERVE`, …), and a single loop parses every
//! table and prints the help. A row writes its value straight into the
//! library type that owns it: the run description is a `JobSpec` (which
//! `SimConfig::for_job` turns into a run, as the sweep server does), `serve`
//! fills a `ServerConfig`, and `loadgen` and `chaos` fill a `LoadgenConfig`
//! whose template is that same `JobSpec`.
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
use memscale_arrivals::RequestModel;
use memscale_serve::loadgen::LoadgenConfig;
use memscale_serve::recovery::RecoveryConfig;
use memscale_serve::server::ServerConfig;
use memscale_serve::{ChaosConfig, ChaosProxy, SweepServer};
use memscale_simulator::harness::{record_trace, Comparison, Experiment};
use memscale_simulator::slo::run_slo_sweep;
use memscale_simulator::{RunResult, ShardSpec, SimConfig, SimError, SimulatorBackend};
use memscale_trace::{write_trace_file, ReplayTrace, TraceError};
use memscale_types::config::MemGeneration;
use memscale_types::faults::FaultPlan;
use memscale_types::freq::MemFreq;
use memscale_types::json::Json;
use memscale_types::serve::JobSpec;
use memscale_types::time::Picos;
use memscale_workloads::Mix;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// What a subcommand does once its flags are parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Baseline + policy evaluation (optionally fed from a `--replay` trace).
    Run,
    /// Record a replayable trace to `--out`.
    Record,
    /// Print a trace's header metadata.
    TraceInfo,
    /// Static consistency analysis.
    Check,
    /// Long-running sweep-job server.
    Serve,
    /// Open-loop SLO-judged policy sweep.
    Slo,
    /// Closed-loop load generator driving a running server.
    Loadgen,
    /// Seeded fault-injection run: loadgen through a chaos proxy.
    Chaos,
}

/// One invocation: the subcommand and the values its flags wrote. A flag
/// writes into the library type that owns its value; only values no
/// library type holds are fields of their own.
#[derive(Debug)]
struct Cli {
    command: Command,
    /// `loadgen` and `chaos`: the client fleet. Its `template` is the run
    /// description of every subcommand: `run`, `record` and `slo` simulate
    /// it, the fleet submits it, and `trace-info` reads its `trace`.
    fleet: LoadgenConfig,
    /// `serve`: the server knobs (`chaos --kill9` keeps its `state_dir`
    /// here too).
    server: ServerConfig,
    /// `serve`: the address to listen on.
    addr: String,
    /// `slo`: the work each request does.
    model: RequestModel,
    /// `check`: the one generation to analyse (`None`: all of them).
    check: Option<MemGeneration>,
    /// `run` and `record`: the fault-injection plan.
    faults: Option<FaultPlan>,
    /// `run`: print the result as JSON.
    json: bool,
    /// `run`: list the workload mixes and exit.
    list: bool,
    /// The artifact to write: `record`'s trace, the reports of `slo`,
    /// `loadgen` and `chaos`, and `check --report`'s diagnostics.
    out: Option<PathBuf>,
    /// `slo`: record the service trace here and replay the sweep from it.
    record: Option<PathBuf>,
    /// `loadgen`: fail a run that saw no cache hits.
    require_cache_hits: bool,
    /// `chaos`: idle connections opened beside the fleet.
    flood: usize,
    /// `chaos`: SIGKILL the real server mid-job and check its recovery.
    kill9: bool,
    /// `chaos --kill9`: the server binary (default: this one).
    server_bin: Option<PathBuf>,
}

impl Cli {
    /// The defaults of `command`: the bare run command's (MID1 under
    /// `memscale` for 20 ms), adjusted per subcommand.
    fn new(command: Command) -> Self {
        let job = JobSpec {
            duration_ms: 20,
            policies: vec!["memscale".into()],
            ..JobSpec::for_mix("job", "MID1")
        };
        let mut cli = Cli {
            command,
            fleet: LoadgenConfig::new(String::new(), 4, 2, job),
            server: ServerConfig::default(),
            addr: String::new(),
            model: RequestModel::default(),
            check: None,
            faults: None,
            json: false,
            list: false,
            out: None,
            record: None,
            require_cache_hits: false,
            flood: 0,
            kill9: false,
            server_bin: None,
        };
        match command {
            Command::Slo => cli.job().policies = grid(&["baseline", "static:400", "memscale"]),
            Command::Loadgen | Command::Chaos => {
                cli.job().duration_ms = 2;
                cli.job().policies = grid(&["static:800", "memscale"]);
            }
            _ => {}
        }
        if command == Command::Chaos {
            cli.fleet = LoadgenConfig {
                clients: 8,
                jobs_per_client: 3,
                seed: 7,
                read_timeout_ms: 15_000,
                ..cli.fleet
            };
            cli.flood = 16;
        }
        cli
    }

    /// The run description.
    fn job(&mut self) -> &mut JobSpec {
        &mut self.fleet.template
    }

    /// The rules that tie a subcommand's flags together, checked once all
    /// of them are applied (`given`: the flags on the command line).
    fn check(&mut self, given: &[&str]) -> Result<(), String> {
        let job = &self.fleet.template;
        let arrivals = job.arrivals.as_deref().unwrap_or_default();
        let message = match self.command {
            Command::Record if self.out.is_none() => "record requires --out PATH",
            Command::Serve if self.addr.is_empty() => "serve requires --addr HOST:PORT",
            Command::Loadgen if self.fleet.addr.is_empty() => "loadgen requires --addr HOST:PORT",
            Command::Slo if arrivals.is_empty() => {
                "slo requires --arrivals SPEC (e.g. poisson:2000)"
            }
            Command::Slo if job.policies.is_empty() => "slo requires at least one policy",
            Command::Slo if self.record.is_some() && job.trace.is_some() => {
                "slo takes --record or --replay, not both"
            }
            Command::Chaos if self.kill9 && self.server.state_dir.is_none() => {
                "chaos --kill9 requires --state-dir DIR"
            }
            Command::Chaos if self.kill9 => {
                // The harness kills the server mid-job, which needs a grid
                // wide enough to land the kill between two completed cells
                // and the job's end; widen the 2-cell default.
                if !given.contains(&"--policies") {
                    let wide = ["static:800", "static:400", "static:200", "memscale"];
                    self.job().policies = grid(&wide);
                }
                return Ok(());
            }
            Command::Chaos if self.fleet.addr.is_empty() => {
                "chaos requires --addr HOST:PORT (a running server)"
            }
            _ => return Ok(()),
        };
        Err(message.into())
    }
}

/// Policy names as a job's policy list.
fn grid(names: &[&str]) -> Vec<String> {
    names.iter().map(|&name| name.into()).collect()
}

/// The value given to a flag, with the flag's name for error messages.
#[derive(Clone, Copy)]
struct Arg<'a> {
    flag: &'a str,
    text: &'a str,
}

impl Arg<'_> {
    /// The value parsed as `T`; a parse error names the flag.
    fn parse<T: FromStr>(self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.text.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    /// Parses the value into `slot`.
    fn set<T: FromStr>(self, slot: &mut T) -> Result<(), String>
    where
        T::Err: Display,
    {
        *slot = self.parse()?;
        Ok(())
    }

    /// Parses the value into `slot`, as present.
    fn set_some<T: FromStr>(self, slot: &mut Option<T>) -> Result<(), String>
    where
        T::Err: Display,
    {
        *slot = Some(self.parse()?);
        Ok(())
    }
}

/// Writes a flag's value into the invocation, or says why it cannot.
type Setter = fn(&mut Cli, Arg<'_>) -> Result<(), String>;

/// One row of a flag table: the flag, its value placeholder (empty for a
/// switch) and its setter.
struct Flag(&'static str, &'static str, Setter);

/// Turns a switch on.
fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

// Rows that several subcommands share.
const MIX: Flag = Flag("--mix", "NAME", |c, a| a.set(&mut c.job().mix));
const GENERATION: Flag = Flag("--generation", "ddr3|ddr4|lpddr3", |c, a| {
    let g = MemGeneration::parse(a.text);
    c.job().generation =
        g.ok_or_else(|| format!("unknown generation {}; use ddr3|ddr4|lpddr3", a.text))?;
    Ok(())
});
const DURATION: Flag = Flag("--duration-ms", "N", |c, a| a.set(&mut c.job().duration_ms));
const CORES: Flag = Flag("--cores", "N", |c, a| a.set(&mut c.job().cores));
const CHANNELS: Flag = Flag("--channels", "N", |c, a| a.set(&mut c.job().channels));
const EPOCH: Flag = Flag("--epoch-ms", "N", |c, a| a.set(&mut c.job().epoch_ms));
const SEED: Flag = Flag("--seed", "N", |c, a| a.set_some(&mut c.job().seed));
const MARGIN: Flag = Flag("--margin", "PCT", |c, a| a.set(&mut c.job().margin_pct));
const REPLAY: Flag = Flag("--replay", "PATH", |c, a| a.set_some(&mut c.job().trace));
const OUT: Flag = Flag("--out", "PATH", |c, a| a.set_some(&mut c.out));
const POLICIES: Flag = Flag("--policies", "a,b,c", |c, a| {
    let names = a.text.split(',').filter(|name| !name.is_empty());
    c.job().policies = names.map(String::from).collect();
    Ok(())
});
const DEADLINE: Flag = Flag("--deadline-ms", "N", |c, a| {
    a.parse()
        .map(|ms| c.job().deadline_ms = (ms > 0).then_some(ms))
});
const FLEET_ADDR: Flag = Flag("--addr", "HOST:PORT", |c, a| a.set(&mut c.fleet.addr));
const CLIENTS: Flag = Flag("--clients", "N", |c, a| a.set(&mut c.fleet.clients));
const JOBS: Flag = Flag("--jobs", "N", |c, a| a.set(&mut c.fleet.jobs_per_client));
const STATE_DIR: Flag = Flag("--state-dir", "DIR", |c, a| {
    a.set_some(&mut c.server.state_dir)
});
const CACHE_CAP: Flag = Flag("--cache-cap", "N", |c, a| a.set(&mut c.server.cache_cap));

const POLICY: Flag = Flag("--policy", "NAME", |c, a| {
    a.parse().map(|v| c.job().policies = vec![v])
});
const GAMMA: Flag = Flag("--gamma", "PCT", |c, a| a.set(&mut c.job().gamma_pct));
const FAULTS: Flag = Flag("--faults", "SPEC", |c, a| {
    let plan = FaultPlan::parse(a.text).map_err(|e| format!("--faults: {e}"))?;
    plan.validate().map_err(|e| format!("--faults: {e}"))?;
    c.faults = Some(plan);
    Ok(())
});
const JSON: Flag = Flag("--json", "", |c, _| on(&mut c.json));
const LIST: Flag = Flag("--list", "", |c, _| on(&mut c.list));

/// The bare run command.
const RUN: &[Flag] = &[
    MIX, POLICY, GENERATION, DURATION, GAMMA, CORES, CHANNELS, EPOCH, SEED, FAULTS, REPLAY, JSON,
    LIST,
];

/// `record`: the run flags, less `--replay` (it records the live
/// generator) and `--json` (it prints no report), plus where to write the
/// trace and its margin.
const RECORD: &[Flag] = &[
    MIX, POLICY, GENERATION, DURATION, GAMMA, CORES, CHANNELS, EPOCH, SEED, FAULTS, OUT, MARGIN,
    LIST,
];

/// `check`.
const CHECK: &[Flag] = &[
    Flag("--generation", "all|ddr3|ddr4|lpddr3", |c, a| {
        c.check =
            match a.text {
                "all" => None,
                name => Some(MemGeneration::parse(name).ok_or_else(|| {
                    format!("unknown generation {name}; use all|ddr3|ddr4|lpddr3")
                })?),
            };
        Ok(())
    }),
    Flag("--report", "PATH", OUT.2),
];

/// `serve`.
const SERVE: &[Flag] = &[
    Flag("--addr", "HOST:PORT", |c, a| a.set(&mut c.addr)),
    Flag("--queue-depth", "N", |c, a| {
        a.set(&mut c.server.queue_depth)
    }),
    Flag("--threads", "N", |c, a| {
        // Zero keeps the default: one worker per CPU.
        let default = ServerConfig::default().threads;
        a.parse()
            .map(|n| c.server.threads = if n > 0 { n } else { default })
    }),
    CACHE_CAP,
    Flag("--cache-capacity", "N", CACHE_CAP.2),
    STATE_DIR,
    Flag("--cell-queue", "N", |c, a| a.set(&mut c.server.cell_queue)),
    Flag("--default-deadline", "MS", |c, a| {
        a.parse()
            .map(|ms| c.server.default_deadline_ms = (ms > 0).then_some(ms))
    }),
    Flag("--cell-timeout", "MS", |c, a| {
        a.set(&mut c.server.cell_timeout_ms)
    }),
    Flag("--io-timeout", "MS", |c, a| {
        a.set(&mut c.server.io_timeout_ms)
    }),
    Flag("--drain-timeout", "MS", |c, a| {
        a.set(&mut c.server.drain_timeout_ms)
    }),
];

/// `slo`.
const SLO: &[Flag] = &[
    Flag("--arrivals", "SPEC", |c, a| {
        a.set_some(&mut c.job().arrivals)
    }),
    Flag("--slo-p99-ms", "MS", |c, a| {
        let ms: f64 = a.parse()?;
        if !ms.is_finite() || ms <= 0.0 {
            return Err(format!("--slo-p99-ms must be positive, got {ms}"));
        }
        c.job().slo_p99_ms = Some(ms);
        Ok(())
    }),
    POLICIES,
    Flag("--misses-per-request", "N", |c, a| {
        a.set(&mut c.model.misses_per_core)
    }),
    Flag("--request-gap", "N", |c, a| {
        a.set(&mut c.model.gap_instructions)
    }),
    Flag("--record", "PATH", |c, a| a.set_some(&mut c.record)),
    REPLAY,
    OUT,
    MIX,
    GENERATION,
    DURATION,
    SEED,
    CORES,
    CHANNELS,
    EPOCH,
    MARGIN,
];

/// `loadgen`.
const LOADGEN: &[Flag] = &[
    FLEET_ADDR,
    CLIENTS,
    JOBS,
    MIX,
    GENERATION,
    DURATION,
    POLICIES,
    DEADLINE,
    Flag("--retries", "N", |c, a| a.set(&mut c.fleet.max_retries)),
    Flag("--connect-timeout", "MS", |c, a| {
        a.set(&mut c.fleet.connect_timeout_ms)
    }),
    Flag("--read-timeout", "MS", |c, a| {
        a.set(&mut c.fleet.read_timeout_ms)
    }),
    Flag("--reconnect-retries", "N", |c, a| {
        a.set(&mut c.fleet.reconnect_retries)
    }),
    OUT,
    Flag("--require-cache-hits", "", |c, _| {
        on(&mut c.require_cache_hits)
    }),
    Flag("--open-loop", "RPS", |c, a| {
        let rate: f64 = a.parse()?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!(
                "--open-loop must be a positive rate in requests/second, got {}",
                a.text
            ));
        }
        c.fleet.open_loop_rps = rate;
        Ok(())
    }),
];

/// `chaos`.
const CHAOS: &[Flag] = &[
    FLEET_ADDR,
    Flag("--seed", "N", |c, a| a.set(&mut c.fleet.seed)),
    CLIENTS,
    JOBS,
    Flag("--flood", "N", |c, a| a.set(&mut c.flood)),
    MIX,
    DURATION,
    POLICIES,
    DEADLINE,
    OUT,
    Flag("--kill9", "", |c, _| on(&mut c.kill9)),
    STATE_DIR,
    Flag("--server-bin", "PATH", |c, a| a.set_some(&mut c.server_bin)),
];

/// A subcommand: its name (empty for the bare run command), what it does,
/// the required part of its usage line and its flag table.
struct Subcommand(&'static str, Command, &'static str, &'static [Flag]);

/// Every subcommand; the first is the bare run command.
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand("", Command::Run, "", RUN),
    Subcommand("record", Command::Record, "--out PATH", RECORD),
    Subcommand("trace-info", Command::TraceInfo, "PATH", &[]),
    Subcommand("check", Command::Check, "", CHECK),
    Subcommand("serve", Command::Serve, "--addr HOST:PORT", SERVE),
    Subcommand("slo", Command::Slo, "--arrivals SPEC", SLO),
    Subcommand("loadgen", Command::Loadgen, "--addr HOST:PORT", LOADGEN),
    Subcommand(
        "chaos",
        Command::Chaos,
        "(--addr HOST:PORT | --kill9 --state-dir DIR)",
        CHAOS,
    ),
];

/// A usage error: the subcommand whose usage to print and, unless help
/// was asked for, what was wrong.
type Usage = (&'static str, Option<String>);

/// Parses the arguments after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, Usage> {
    let mut args = args.into_iter().peekable();
    let first = args.peek().cloned().unwrap_or_default();
    let sub = SUBCOMMANDS.iter().skip(1).find(|s| s.0 == first);
    let &Subcommand(name, command, _, flags) = sub.unwrap_or(&SUBCOMMANDS[0]);
    if sub.is_some() {
        args.next();
    }
    let usage = |e: String| (name, Some(e));
    let mut cli = Cli::new(command);
    if command == Command::TraceInfo {
        let path = args
            .next()
            .ok_or_else(|| usage("trace-info requires a trace PATH".into()))?;
        if path == "--help" || path == "-h" {
            return Err((name, None));
        }
        if let Some(extra) = args.next() {
            return Err(usage(format!(
                "trace-info takes exactly one PATH (got `{extra}`)"
            )));
        }
        cli.job().trace = Some(path);
        return Ok(cli);
    }
    let mut given = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err((name, None));
        }
        let Some(Flag(flag, value, set)) = flags.iter().find(|f| f.0 == arg) else {
            let what = format!("{name} flag");
            return Err(usage(format!("unknown {} {arg}", what.trim_start())));
        };
        let text = if value.is_empty() {
            String::new()
        } else {
            let missing = || usage(format!("missing value for {flag}"));
            args.next().ok_or_else(missing)?
        };
        set(&mut cli, Arg { flag, text: &text }).map_err(usage)?;
        given.push(*flag);
    }
    cli.check(&given).map_err(usage)?;
    Ok(cli)
}

/// The usage of subcommand `name` (of every subcommand for the bare run
/// command), generated from the flag tables.
fn usage(name: &str) -> String {
    let mut text = String::new();
    for Subcommand(sub, _, synopsis, flags) in SUBCOMMANDS {
        if !name.is_empty() && *sub != name {
            continue;
        }
        let required = |flag: &str| synopsis.split([' ', '(', ')']).any(|word| word == flag);
        let optional = flags
            .iter()
            .filter(|f| !required(f.0))
            .map(|Flag(flag, value, _)| {
                if value.is_empty() {
                    format!("[{flag}]")
                } else {
                    format!("[{flag} {value}]")
                }
            });
        let words = format!("{sub} {synopsis}");
        let lead = if text.is_empty() { "usage:" } else { "      " };
        let mut line = format!("{lead} memscale-sim");
        for word in words.split_whitespace().map(String::from).chain(optional) {
            if line.len() + word.len() >= 80 {
                text.push_str(&line);
                line = format!("\n{:19}", "");
            }
            line.push(' ');
            line.push_str(&word);
        }
        text.push_str(&line);
        text.push('\n');
    }
    let mixes: Vec<&str> = Mix::table1().iter().map(|m| m.name).collect();
    format!(
        "{text}policies: baseline fast-pd slow-pd deep-pd static:<mhz> decoupled\n\
         \x20         memscale mem-energy memscale-pd per-channel\n\
         arrivals: poisson:RATE | mmpp:ON,OFF,ON_MS,OFF_MS | diurnal:DURxRATE,... |\n\
         \x20         diurnal:FILE.json\n\
         mixes:    {}",
        mixes.join(" ")
    )
}

/// A failed command: the exit code and the message `main` prints.
#[derive(Debug)]
struct Exit(u8, String);

impl Exit {
    /// A usage problem (exit 2).
    fn usage(e: impl Display) -> Self {
        Exit(2, e.to_string())
    }

    /// A failure while running (exit 1).
    fn run(e: impl Display) -> Self {
        Exit(1, e.to_string())
    }

    /// A simulation error: exit 2 for a trace recorded under another
    /// configuration (a usage problem — wrong trace for these flags),
    /// exit 1 otherwise.
    fn sim(e: SimError) -> Self {
        let mismatch = matches!(e, SimError::Trace(TraceError::ConfigMismatch { .. }));
        Exit(if mismatch { 2 } else { 1 }, e.to_string())
    }
}

/// What a subcommand returns: its exit code, or the error that ends it.
type Outcome = Result<ExitCode, Exit>;

/// Writes an artifact; a failure names the file.
fn write(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), Exit> {
    std::fs::write(path, bytes).map_err(|e| Exit::run(format!("writing {}: {e}", path.display())))
}

/// Resolves a policy name (the grammar lives in [`PolicyKind::parse`])
/// and checks that `generation` has it.
fn parse_policy(name: &str, generation: MemGeneration) -> Result<PolicyKind, Exit> {
    let policy = PolicyKind::parse(name)
        .map_err(|e| Exit::usage(format!("{e}; see `memscale-sim --help`")))?;
    if !policy.available_on(generation) {
        return Err(Exit::usage(format!(
            "{generation}: policy {} is not available on this generation",
            policy.name()
        )));
    }
    Ok(policy)
}

/// Renders the run summary as a pretty-printed JSON object.
fn render_json(run: &RunResult, cmp: &Comparison, exp: &Experiment, gamma: f64) -> String {
    let mut fields: Vec<(&str, String)> = Vec::new();
    let mut put = |key: &'static str, value: &dyn Display| fields.push((key, value.to_string()));
    put("mix", &Json::Str(run.mix.clone()).render());
    put("policy", &Json::Str(run.policy.clone()).render());
    put("generation", &format_args!("\"{}\"", run.generation));
    put("gamma", &gamma);
    put("baseline_duration_ms", &exp.baseline().duration.as_ms_f64());
    put("run_duration_ms", &run.duration.as_ms_f64());
    put("memory_savings", &cmp.memory_savings);
    put("system_savings", &cmp.system_savings);
    put("cpi_increase_avg", &cmp.avg_cpi_increase());
    put("cpi_increase_max", &cmp.max_cpi_increase());
    put("mean_frequency_mhz", &run.mean_frequency_mhz());
    put("reads", &run.counters.reads);
    put("writebacks", &run.counters.writes);
    put("powerdown_exits", &run.counters.epdc);
    put("deep_powerdown_exits", &run.counters.edpc);
    put("deep_powerdown_time_ms", &run.deep_pd_time.as_ms_f64());
    put("memory_energy_j", &run.energy.memory_total_j());
    put("system_energy_j", &run.energy.system_total_j());
    put("rest_of_system_w", &run.rest_w);
    if let Some(f) = &run.faults {
        put("fault_seed", &f.seed);
        put("faults_injected", &f.total_injected());
        put("faults_counter_corrupted", &f.counter_corrupted);
        put("faults_counter_stale", &f.counter_stale);
        put("faults_counter_dropped", &f.counter_dropped);
        put("faults_relock_overruns", &f.relock_overruns);
        put("faults_switch_failures", &f.switch_failures);
        put("faults_refresh_slips", &f.refresh_slips);
        put("faults_refresh_drops", &f.refresh_drops);
        put("faults_thermal_events", &f.thermal_events);
        put("faults_pd_exit_spikes", &f.pd_exit_spikes);
        put("governor_discarded_profiles", &f.discarded_profiles);
        put("governor_clamped_profiles", &f.clamped_profiles);
        put("governor_forced_max_epochs", &f.forced_max_epochs);
        put("governor_failed_switches", &f.failed_switches);
    }
    if let Some(report) = &run.audit {
        put("audit_commands_checked", &report.commands_checked);
        put("audit_violations", &report.violations.len());
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

/// `memscale-sim record`: capture the miss streams of a recording baseline
/// plus recording runs of `policy` and the slowest static point, extend by
/// the margin, and write the artifact to `out`.
fn record(
    mix: &Mix,
    cfg: &SimConfig,
    policy: PolicyKind,
    margin_pct: usize,
    out: &Path,
) -> Outcome {
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
    let (header, streams) = record_trace(mix, cfg, &policies, margin_pct).map_err(Exit::sim)?;
    write_trace_file(out, &header, &streams).map_err(Exit::run)?;
    let total: usize = streams.iter().map(Vec::len).sum();
    println!(
        "wrote {} ({} apps, {} records, config {:#018x})",
        out.display(),
        streams.len(),
        total,
        header.config_hash
    );
    Ok(ExitCode::SUCCESS)
}

/// `memscale-sim slo`: sweep a policy set against one seeded open-loop
/// arrival stream and print the per-policy latency/SLO report as JSON.
///
/// With `--record PATH` the service trace is captured first and the sweep
/// replays from it (proving the artifact reproduces the live run); with
/// `--replay PATH` an existing artifact feeds the sweep, provided it was
/// recorded under the same run description, workload included. Exit 1
/// when any policy breaches the configured p99 objective.
fn run_slo(mix: &Mix, cfg: &SimConfig, cli: &Cli) -> Outcome {
    let job = &cli.fleet.template;
    if cli.model.misses_per_core == 0 || cli.model.gap_instructions == 0 {
        let e = "--misses-per-request and --request-gap must be at least 1";
        return Err(Exit::usage(e));
    }
    let shards = job
        .policies
        .iter()
        .map(|name| parse_policy(name, job.generation).map(ShardSpec::of))
        .collect::<Result<Vec<_>, _>>()?;

    let trace = if let Some(path) = &job.trace {
        let trace = ReplayTrace::open(Path::new(path)).map_err(Exit::run)?;
        eprintln!(
            "slo: replaying {} policy run(s) from {path} ...",
            shards.len()
        );
        Some(trace)
    } else if let Some(path) = &cli.record {
        eprintln!("slo: recording service trace ...");
        let (header, streams) = record_trace(mix, cfg, &[], job.margin_pct).map_err(Exit::sim)?;
        let total: usize = streams.iter().map(Vec::len).sum();
        let trace = ReplayTrace::from_streams(header, streams);
        std::fs::write(path, trace.as_bytes())
            .map_err(|e| Exit::run(TraceError::io("writing trace file", &e)))?;
        eprintln!(
            "slo: wrote {} ({} records); replaying {} policy run(s) ...",
            path.display(),
            total,
            shards.len()
        );
        Some(trace)
    } else {
        eprintln!(
            "slo: running {} policy run(s) (live sources) ...",
            shards.len()
        );
        None
    };
    let report = run_slo_sweep(mix, cfg, &shards, trace.as_ref()).map_err(Exit::sim)?;
    let json = report.to_json();
    println!("{json}");
    if let Some(out) = &cli.out {
        write(out, format!("{json}\n"))?;
    }
    if !report.any_breach() {
        return Ok(ExitCode::SUCCESS);
    }
    let worst = report
        .outcomes
        .iter()
        .filter(|o| o.breach)
        .map(|o| format!("{} (p99 {:.2} ms)", o.label, o.stats.p99_ms))
        .collect::<Vec<_>>()
        .join(", ");
    Err(Exit::run(format!("SLO breached by {worst}")))
}

/// `memscale-sim trace-info`: parse and verify `path`, print its metadata.
fn trace_info(path: &Path) -> Outcome {
    let trace = ReplayTrace::open(path).map_err(Exit::run)?;
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
    Ok(ExitCode::SUCCESS)
}

/// `memscale-sim check`: run the static consistency analyzer over one or
/// every generation; exit 0 only when no pass produced a diagnostic.
fn run_check(generation: Option<MemGeneration>, report_path: Option<&Path>) -> Outcome {
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
        write(path, &text)?;
    }
    let total: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    if total > 0 {
        return Err(Exit::run(format!(
            "static analysis found {total} violation(s)"
        )));
    }
    Ok(ExitCode::SUCCESS)
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
fn run_serve(addr: &str, cfg: ServerConfig) -> Outcome {
    let server = SweepServer::bind(addr, cfg, SimulatorBackend)
        .map_err(|e| Exit::run(format!("cannot bind {addr}: {e}")))?;
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
        Ok(bound) => eprintln!("memscale-serve listening on {bound}"),
        Err(_) => eprintln!("memscale-serve listening on {addr}"),
    }
    sigterm::install();
    server
        .run_with_shutdown(&sigterm::TERM)
        .map_err(|e| Exit::run(format!("accept loop failed: {e}")))?;
    eprintln!("memscale-serve drained and exiting");
    Ok(ExitCode::SUCCESS)
}

/// `memscale-sim loadgen`: drive a running server with a closed-loop client
/// fleet, write the `BENCH_serve.json` artifact, and summarize the run.
///
/// Exit 1 when any protocol error occurred, when nothing completed at all
/// (no `done` and no structured `overloaded`), or — under
/// `--require-cache-hits` — when the run saw no cache hits.
fn run_loadgen(cli: &Cli) -> Outcome {
    let cfg = &cli.fleet;
    let open = match cfg.open_loop_rps {
        rps if rps > 0.0 => format!(" (open loop, {rps} req/s offered)"),
        _ => String::new(),
    };
    eprintln!(
        "loadgen: {} client(s) x {} job(s) against {}{open} ...",
        cfg.clients, cfg.jobs_per_client, cfg.addr
    );
    let stats = memscale_serve::loadgen::run(cfg).map_err(Exit::run)?;
    let out = cli.out.clone().unwrap_or_else(|| "BENCH_serve.json".into());
    write(&out, stats.to_bench_json(cfg) + "\n")?;
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
    if cfg.open_loop_rps > 0.0 {
        println!(
            "open loop: offered {:.2} req/s | achieved {:.2} req/s | late submissions {}",
            cfg.open_loop_rps,
            stats.jobs_per_sec(),
            stats.late_submissions
        );
    }
    println!("wrote {}", out.display());
    let starved = stats.jobs_ok == 0 && stats.jobs_overloaded == 0;
    let hits_missing = cli.require_cache_hits && stats.cache_hits == 0;
    if stats.protocol_errors > 0 || starved || hits_missing {
        if hits_missing {
            eprintln!("error: --require-cache-hits: the run saw no cache hits");
        }
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
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
fn run_chaos(cli: &Cli) -> Outcome {
    if cli.kill9 {
        return run_kill9(cli);
    }
    let (upstream, seed) = (&cli.fleet.addr, cli.fleet.seed);
    let out = cli.out.clone().unwrap_or_else(|| "BENCH_chaos.json".into());
    let proxy = ChaosProxy::bind("127.0.0.1:0", ChaosConfig::new(upstream.clone(), seed))
        .map_err(|e| Exit::run(format!("cannot bind chaos proxy: {e}")))?;
    let handle = proxy
        .spawn()
        .map_err(|e| Exit::run(format!("cannot start chaos proxy: {e}")))?;
    let cfg = LoadgenConfig {
        addr: handle.addr().to_string(),
        ..cli.fleet.clone()
    };
    eprintln!(
        "chaos: seed {seed} | {} client(s) x {} job(s) via {} -> {upstream} | {} flood conns",
        cfg.clients, cfg.jobs_per_client, cfg.addr, cli.flood
    );
    let flood = memscale_serve::open_flood(&cfg.addr, cli.flood);
    let stats = memscale_serve::loadgen::run(&cfg);
    drop(flood);
    let report = handle.stop();
    let mut stats = stats.map_err(Exit::run)?;
    stats.chaos_faults_injected = report.total_injected();

    // Admission-correctness probe: after the chaos run settles, one clean
    // job straight at the server must still be admitted and complete.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let probe = JobSpec {
        deadline_ms: None,
        ..cfg.template.clone()
    };
    let probe_ok = match memscale_serve::loadgen::run(&LoadgenConfig::new(upstream, 1, 1, probe)) {
        Ok(p) => p.jobs_ok == 1,
        Err(e) => {
            eprintln!("error: post-chaos probe: {e}");
            false
        }
    };

    write(&out, stats.to_bench_json_named(&cfg, "serve_chaos") + "\n")?;
    let offered = cfg.clients * cfg.jobs_per_client;
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
        Ok(ExitCode::SUCCESS)
    } else {
        Err(Exit::run("chaos run violated serving invariants"))
    }
}

/// `memscale-sim chaos --kill9`: process-level crash-recovery harness.
///
/// Spawns the real server binary with `--state-dir`, SIGKILLs it at a
/// seeded point mid-job, tears the journal tail, restarts it against the
/// same directory, and asserts the recovery invariants (no duplicate or
/// corrupt cells, warm cache hits on resubmit, byte-identical results vs
/// an uninterrupted control run). Writes `BENCH_recovery.json`.
fn run_kill9(cli: &Cli) -> Outcome {
    let state_dir = cli.server.state_dir.clone().expect("checked in parse_args");
    let server_bin = match &cli.server_bin {
        Some(path) => path.clone(),
        None => std::env::current_exe().map_err(|e| {
            Exit::run(format!(
                "cannot locate this binary (pass --server-bin): {e}"
            ))
        })?,
    };
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_recovery.json".into());
    let template = cli.fleet.template.clone();
    let mut cfg = RecoveryConfig::new(server_bin, state_dir, template);
    cfg.seed = cli.fleet.seed;
    eprintln!(
        "chaos --kill9: seed {} | {} cell(s) | state dir {}",
        cfg.seed,
        cfg.template.policies.len(),
        cfg.state_dir.display()
    );
    let outcome = memscale_serve::recovery::run(&cfg)
        .map_err(|e| Exit::run(format!("recovery invariants violated: {e}")))?;
    write(&out, outcome.to_bench_json(cfg.seed) + "\n")?;
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
    Ok(ExitCode::SUCCESS)
}

/// The simulating subcommands: the bare run command, `record` and `slo`.
fn simulate(cli: &Cli) -> Outcome {
    if cli.list {
        for mix in Mix::table1() {
            println!("{mix}  apps: {}", mix.apps.join(", "));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let job = &cli.fleet.template;
    let mix = Mix::by_name(&job.mix).map_err(|e| Exit::usage(format!("{e} (or try --list)")))?;
    // `slo` resolves its own policy list; the others run one policy.
    let policy = match cli.command {
        Command::Slo => None,
        _ => Some(parse_policy(&job.policies[0], job.generation)?),
    };
    let mut cfg = SimConfig::for_job(job).map_err(|e| Exit::usage(format!("--arrivals: {e}")))?;
    cfg.faults = cli.faults.clone();
    if let Some(svc) = &mut cfg.service {
        svc.model = cli.model;
    }
    cfg.system.validate().map_err(Exit::usage)?;
    let Some(policy) = policy else {
        return run_slo(&mix, &cfg, cli);
    };
    if cli.command == Command::Record {
        let out = cli.out.as_deref().expect("checked in parse_args");
        return record(&mix, &cfg, policy, job.margin_pct, out);
    }

    let replay = job
        .trace
        .as_deref()
        .map(|p| ReplayTrace::open(Path::new(p)));
    let replay = replay.transpose().map_err(Exit::run)?;
    eprintln!(
        "calibrating baseline for {mix} ({} ms{}) ...",
        job.duration_ms,
        if replay.is_some() { ", replay" } else { "" }
    );
    let exp = match &replay {
        None => Experiment::calibrate(&mix, &cfg),
        Some(trace) => Experiment::calibrate_replay(&mix, &cfg, trace),
    };
    let exp = exp.map_err(Exit::sim)?;
    eprintln!("running {} ...", policy.name());
    let evaluated = match &replay {
        None => exp.evaluate(policy),
        Some(trace) => exp.evaluate_replay(policy, trace),
    };
    let (run, cmp) = evaluated.map_err(Exit::sim)?;

    if cli.json {
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
            job.gamma_pct
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
        return Err(Exit(3, "fault run violated protocol conformance".into()));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err((name, error)) => {
            if let Some(e) = &error {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage(name));
            return ExitCode::from(if error.is_some() { 2 } else { 0 });
        }
    };
    let outcome = match cli.command {
        Command::TraceInfo => trace_info(Path::new(
            cli.fleet.template.trace.as_deref().unwrap_or_default(),
        )),
        Command::Check => run_check(cli.check, cli.out.as_deref()),
        Command::Serve => run_serve(&cli.addr, cli.server),
        Command::Loadgen => run_loadgen(&cli),
        Command::Chaos => run_chaos(&cli),
        Command::Run | Command::Record | Command::Slo => simulate(&cli),
    };
    outcome.unwrap_or_else(|Exit(code, e)| {
        eprintln!("error: {e}");
        ExitCode::from(code)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses space-separated arguments.
    fn parse(args: &str) -> Result<Cli, Usage> {
        parse_args(args.split(' ').filter(|a| !a.is_empty()).map(String::from))
    }

    fn error(args: &str) -> String {
        let e = parse(args).err().and_then(|(_, e)| e);
        e.unwrap_or_else(|| panic!("`{args}` parses"))
    }

    /// The flags each subcommand accepts (the bare run command first):
    /// the ones it accepted before the tables replaced the hand-written
    /// loops, less the bare command's `--out` and `--margin`, which only
    /// `record` reads, and `record`'s `--json` and `--replay`, which it
    /// never honoured.
    const ACCEPTED: [(&str, &str); 7] = [
        ("", "--mix --policy --generation --duration-ms --gamma --cores --channels --epoch-ms --seed --faults --replay --json --list"),
        ("record", "--mix --policy --generation --duration-ms --gamma --cores --channels --epoch-ms --seed --faults --out --margin --list"),
        ("check", "--generation --report"),
        ("serve", "--addr --queue-depth --threads --cache-cap --cache-capacity --state-dir --cell-queue --default-deadline --cell-timeout --io-timeout --drain-timeout"),
        ("slo", "--arrivals --slo-p99-ms --policies --misses-per-request --request-gap --record --replay --out --mix --generation --duration-ms --seed --cores --channels --epoch-ms --margin"),
        ("loadgen", "--addr --clients --jobs --mix --generation --duration-ms --policies --deadline-ms --retries --connect-timeout --read-timeout --reconnect-retries --out --require-cache-hits --open-loop"),
        ("chaos", "--addr --seed --clients --jobs --flood --mix --duration-ms --policies --deadline-ms --out --kill9 --state-dir --server-bin"),
    ];

    #[test]
    fn each_subcommand_accepts_the_flags_it_always_did() {
        for (name, accepted) in ACCEPTED {
            let sub = SUBCOMMANDS.iter().find(|s| s.0 == name).expect(name);
            let mut table: Vec<&str> = sub.3.iter().map(|f| f.0).collect();
            let mut want: Vec<&str> = accepted.split(' ').collect();
            table.sort_unstable();
            want.sort_unstable();
            assert_eq!(table, want, "{name}");
            let help = usage(name);
            assert!(want.iter().all(|flag| help.contains(flag)), "{help}");
        }
        assert_eq!(SUBCOMMANDS.len(), ACCEPTED.len() + 1, "plus trace-info");
    }

    #[test]
    fn defaults_are_the_library_defaults() {
        let run = parse("").unwrap().fleet.template;
        assert_eq!((run.mix.as_str(), run.duration_ms), ("MID1", 20));
        assert_eq!(run.policies, ["memscale"]);
        let cfg = SimConfig::default().with_duration(Picos::from_ms(20));
        assert_eq!(SimConfig::for_job(&run), Ok(cfg));
        let slo = parse("slo --arrivals poisson:1").unwrap();
        assert_eq!(
            slo.fleet.template.policies,
            ["baseline", "static:400", "memscale"]
        );
        assert_eq!(slo.model, RequestModel::default());
        let serve = parse("serve --addr a:1").unwrap();
        assert_eq!(serve.server, ServerConfig::default());

        let grid = ["static:800", "memscale"].map(String::from).to_vec();
        let job = JobSpec::for_mix("job", "MID1");
        let lg = parse("loadgen --addr a:1").unwrap().fleet;
        assert_eq!((lg.clients, lg.jobs_per_client), (4, 2));
        let template = JobSpec {
            duration_ms: 2,
            policies: grid.clone(),
            ..job.clone()
        };
        assert_eq!(lg.template, template);
        // `LoadgenConfig` has no `PartialEq`; its `Debug` shows every field.
        let want = LoadgenConfig::new("a:1", 4, 2, template);
        assert_eq!(format!("{lg:?}"), format!("{want:?}"));

        let chaos = parse("chaos --addr a:1").unwrap();
        let f = &chaos.fleet;
        assert_eq!(
            (f.seed, f.clients, f.jobs_per_client, chaos.flood),
            (7, 8, 3, 16)
        );
        assert_eq!((f.read_timeout_ms, &f.template.policies), (15_000, &grid));
    }

    #[test]
    fn alias_zero_and_all_keep_their_meaning() {
        for flag in ["--cache-cap", "--cache-capacity"] {
            let serve = parse(&format!("serve --addr a {flag} 9")).unwrap();
            assert_eq!(serve.server.cache_cap, 9, "{flag}");
        }
        let zeros = parse("serve --addr a --threads 0 --default-deadline 0");
        assert_eq!(zeros.unwrap().server, ServerConfig::default());
        let set = parse("serve --addr a --threads 3 --default-deadline 5").unwrap();
        assert_eq!(
            (set.server.threads, set.server.default_deadline_ms),
            (3, Some(5))
        );
        let lg = parse("loadgen --addr a --deadline-ms 0").unwrap();
        assert_eq!(lg.fleet.template.deadline_ms, None);
        assert_eq!(parse("check --generation all").unwrap().check, None);
        let one = parse("check --generation lpddr3").unwrap().check;
        assert_eq!(one, Some(MemGeneration::Lpddr3));
    }

    #[test]
    fn kill9_widens_only_the_default_grid() {
        let wide = parse("chaos --kill9 --state-dir d").unwrap();
        assert_eq!(wide.fleet.template.policies.len(), 4);
        let mine = parse("chaos --kill9 --state-dir d --policies memscale").unwrap();
        assert_eq!(mine.fleet.template.policies, ["memscale"]);
        let live = parse("chaos --addr a --state-dir d").unwrap();
        assert_eq!(live.fleet.template.policies.len(), 2);
    }

    #[test]
    fn usage_errors_say_what_is_wrong() {
        for (args, want) in [
            ("--mxi", "unknown flag --mxi"),
            ("serve --bogus", "unknown serve flag --bogus"),
            ("--mix", "missing value for --mix"),
            ("--cores x", "--cores: invalid digit"),
            ("serve --cache-capacity x", "--cache-capacity: invalid"),
            ("--generation ddr5", "unknown generation ddr5; use ddr3"),
            ("check --generation x", "unknown generation x; use all"),
            ("--faults all=2", "--faults: "),
            ("loadgen --open-loop -1", "--open-loop must be a positive"),
            ("slo --slo-p99-ms nan", "--slo-p99-ms must be positive"),
            ("record", "record requires --out PATH"),
            ("record --out t --replay r", "unknown record flag --replay"),
            ("record --out t --json", "unknown record flag --json"),
            ("serve", "serve requires --addr HOST:PORT"),
            ("loadgen", "loadgen requires --addr HOST:PORT"),
            ("slo", "slo requires --arrivals SPEC"),
            ("slo --arrivals p --policies ,", "slo requires at least one"),
            (
                "slo --arrivals p --record a --replay b",
                "slo takes --record",
            ),
            ("chaos", "chaos requires --addr HOST:PORT"),
            ("chaos --kill9", "chaos --kill9 requires --state-dir DIR"),
            ("trace-info", "trace-info requires a trace PATH"),
            ("trace-info a b", "trace-info takes exactly one PATH"),
        ] {
            let e = error(args);
            assert!(e.starts_with(want), "{args}: {e}");
        }
        assert!(matches!(parse("slo --help"), Err(("slo", None))));
        assert!(matches!(parse("-h"), Err(("", None))));
        assert!(matches!(
            parse("trace-info --help"),
            Err(("trace-info", None))
        ));
        for flag in ["--out", "--margin"] {
            let e = error(&format!("{flag} x"));
            assert!(e.starts_with(&format!("unknown flag {flag}")), "{e}");
        }
    }
}
