//! Isolated per-layer passes. They run after the timed phase, on the
//! workload's own recorded input, and price one call into each layer so
//! the accounting check can multiply the prices by the cells' call counts.

use crate::report::{count, median, Metric, Outcome};
use crate::spans::Tracer;
use crate::THREADS;
use memscale::policies::{Policy, PolicyKind};
use memscale::profile::{AppSample, EpochProfile};
use memscale_audit::ProtocolAuditor;
use memscale_mc::MemoryController;
use memscale_power::{ActivitySummary, PowerModel};
use memscale_simulator::{check_trace, record_trace, Experiment, RunResult, SimConfig, Simulation};
use memscale_trace::ReplayTrace;
use memscale_types::address::PhysAddr;
use memscale_types::events::CmdEvent;
use memscale_types::freq::MemFreq;
use memscale_types::ids::AppId;
use memscale_types::time::Picos;
use memscale_workloads::{spec, MissEvent, MissSource, Mix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Each isolated pass is repeated this many times; the median is kept.
const REPEATS: usize = 3;

/// Calls per repeat of the power-split and governor-decision passes.
const BOUNDARY_CALLS: u32 = 5_000;

/// The policy of the cell replayed through the timing cursor wrapper: an
/// adaptive one, so the cell crosses governor decisions too.
pub const CURSOR_POLICY: PolicyKind = PolicyKind::MemScale;

/// The recorded input of one workload.
pub struct Input<'a> {
    /// The mix the trace was recorded from.
    pub mix: &'a Mix,
    /// The run configuration it was recorded under.
    pub cfg: &'a SimConfig,
    /// The recorded trace.
    pub trace: &'a ReplayTrace,
    /// The calibrated baseline over that trace.
    pub exp: &'a Experiment,
}

/// Per-call prices of each layer, in nanoseconds, with the counts they
/// were measured over.
#[derive(Debug, Clone)]
pub struct LayerCosts {
    /// Cost of one `Instant::now` + `elapsed` pair on this host.
    pub timer_ns: f64,
    /// `ReplayTrace` cursor: one `MissSource::next_event` call.
    pub cursor_ns: f64,
    /// Cursor calls the wrapped cell made.
    pub cursor_calls: u64,
    /// The wrapper's in-place time per call, clock reads included.
    pub cursor_in_place_ns: f64,
    /// The wrapped cell's result (bit-identical to the sweep's cell).
    pub cursor_run: RunResult,
    /// Live generator: one `MissStream::next_miss` call.
    pub next_miss_ns: f64,
    /// Generator calls timed.
    pub next_miss_calls: u64,
    /// One `MemoryController::read`/`writeback` with recording off.
    pub access_ns: f64,
    /// Accesses in the controller drive.
    pub accesses: u64,
    /// Extra cost per DRAM command of recording it for the auditor.
    pub record_ns: f64,
    /// Commands the controller drive emitted.
    pub commands: u64,
    /// `ProtocolAuditor::ingest` + `finalize`, per command.
    pub check_ns: f64,
    /// Violations the auditor found in the drive's command stream.
    pub violations: usize,
    /// `PowerModel::memory_power_split`, per call.
    pub segment_ns: f64,
    /// MemScale governor `decide`, per call.
    pub decide_ns: f64,
}

/// Records `mix` under `cfg` with the grid's slowest static point, as the
/// sweep server records a job, and calibrates a baseline over the
/// recording; both steps become spans when traced.
///
/// # Errors
///
/// A description of the recording or calibration failure.
pub fn record_input(
    mix: &Mix,
    cfg: &SimConfig,
    margin_pct: usize,
    tracer: Option<&Tracer>,
    key: &str,
) -> Result<(ReplayTrace, Experiment), String> {
    let t0 = Instant::now();
    let slowest = [PolicyKind::Static(MemFreq::MIN)];
    let (header, streams) =
        record_trace(mix, cfg, &slowest, margin_pct).map_err(|e| format!("record: {e}"))?;
    let trace = ReplayTrace::from_streams(header, streams);
    let t1 = Instant::now();
    let exp =
        Experiment::calibrate_replay(mix, cfg, &trace).map_err(|e| format!("calibrate: {e}"))?;
    if let Some(t) = tracer {
        t.record("simulator.record", None, key, t0, t1);
        t.record("simulator.calibrate", None, key, t1, Instant::now());
    }
    Ok((trace, exp))
}

/// Runs every isolated pass on `input`, each as a child span of one
/// `perfbench.isolated_passes` span keyed `key`.
///
/// # Errors
///
/// A description of the first simulation error.
pub fn measure(input: &Input<'_>, tracer: &Tracer, key: &str) -> Result<LayerCosts, String> {
    tracer.span("perfbench.isolated_passes", None, key, |parent| {
        passes(input, tracer, parent)
    })
}

fn passes(input: &Input<'_>, tracer: &Tracer, parent: u64) -> Result<LayerCosts, String> {
    let timer_ns = timer_overhead_ns();
    let (cursor_ns, cursor_calls, cursor_in_place_ns, cursor_run) =
        tracer.span("trace.cursor_pass", Some(parent), "", |_| {
            cursor_pass(input)
        })?;
    let (next_miss_ns, next_miss_calls) =
        tracer.span("workloads.next_miss_pass", Some(parent), "", |_| {
            next_miss_pass(input)
        });
    let drive = tracer.span("mc.drive_pass", Some(parent), "", |_| drive_pass(input));
    let (check_ns, violations) = tracer.span("audit.check_pass", Some(parent), "", |_| {
        check_pass(input.cfg, &drive.events)
    });
    let segment_ns = tracer.span("power.segment_pass", Some(parent), "", |_| {
        segment_pass(input.cfg, &drive.mc)
    });
    let decide_ns = tracer.span("core.decide_pass", Some(parent), "", |_| {
        decide_pass(input, &drive)
    });
    Ok(LayerCosts {
        timer_ns,
        cursor_ns,
        cursor_calls,
        cursor_in_place_ns,
        cursor_run,
        next_miss_ns,
        next_miss_calls,
        access_ns: drive.access_ns,
        accesses: drive.calls.len() as u64,
        record_ns: drive.record_ns,
        commands: drive.events.len() as u64,
        check_ns,
        violations,
        segment_ns,
        decide_ns,
    })
}

/// Median cost of the `Instant::now()` + `elapsed()` pair the cursor
/// wrapper puts around every call (reported beside its in-place timing).
fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = std::time::Duration::ZERO;
            for _ in 0..PAIRS {
                let a = Instant::now();
                acc += a.elapsed();
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&batches).unwrap_or(0.0)
}

fn median_of(f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = std::iter::repeat_with(f).take(REPEATS).collect();
    median(&v).unwrap_or(0.0)
}

/// A `MissSource` that times every call into the replay cursor it wraps
/// and publishes its totals when the simulation drops it.
#[derive(Debug)]
struct TimedSource {
    inner: Box<dyn MissSource + Send>,
    app: usize,
    calls: u64,
    ns: u64,
    tally: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl MissSource for TimedSource {
    fn app(&self) -> AppId {
        self.inner.app()
    }

    fn next_event(&mut self) -> Option<MissEvent> {
        let t = Instant::now();
        let ev = self.inner.next_event();
        self.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        ev
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        if let Ok(mut t) = self.tally.lock() {
            t[self.app] = (self.calls, self.ns);
        }
    }
}

/// Replays one cell with every cursor wrapped, built exactly as
/// `Experiment::evaluate_replay` builds it. The wrapper counts the cell's
/// calls per cursor in place and times each one; a clock read can cost
/// more than a cursor step, so the per-call price comes from replaying the
/// same per-cursor call counts through fresh cursors in one timed loop.
/// Returns `(price ns, calls, in-place ns per call, the cell's result)`.
fn cursor_pass(input: &Input<'_>) -> Result<(f64, u64, f64, RunResult), String> {
    check_trace(input.mix, input.cfg, input.trace).map_err(|e| e.to_string())?;
    let tally = Arc::new(Mutex::new(vec![(0u64, 0u64); input.trace.apps()]));
    let sources: Vec<Box<dyn MissSource + Send>> = input
        .trace
        .streams()
        .into_iter()
        .enumerate()
        .map(|(app, inner)| {
            Box::new(TimedSource {
                inner,
                app,
                calls: 0,
                ns: 0,
                tally: Arc::clone(&tally),
            }) as Box<dyn MissSource + Send>
        })
        .collect();
    let mut sim = Simulation::with_sources(input.mix, CURSOR_POLICY, input.cfg, sources)
        .map_err(|e| e.to_string())?;
    sim.set_rest_of_system_w(input.exp.rest_w());
    let run = sim
        .run_until_work(&input.exp.baseline().work, input.exp.rest_w())
        .map_err(|e| e.to_string())?;
    let per_app = tally
        .lock()
        .map_err(|_| "cursor tally poisoned".to_string())?
        .clone();
    let calls: u64 = per_app.iter().map(|t| t.0).sum();
    let in_place: u64 = per_app.iter().map(|t| t.1).sum();
    let price = median_of(|| {
        let mut streams = input.trace.streams();
        let mut left: Vec<u64> = per_app.iter().map(|t| t.0).collect();
        let mut remaining = calls;
        let t = Instant::now();
        while remaining > 0 {
            for (s, l) in streams.iter_mut().zip(left.iter_mut()) {
                if *l > 0 {
                    black_box(s.next_event());
                    *l -= 1;
                    remaining -= 1;
                }
            }
        }
        t.elapsed().as_nanos() as f64 / calls.max(1) as f64
    });
    Ok((price, calls, in_place as f64 / calls.max(1) as f64, run))
}

/// Prices the live generator: as many `next_miss` calls as the trace
/// holds records, round-robin over the cores. Returns `(ns, calls)`.
fn next_miss_pass(input: &Input<'_>) -> (f64, u64) {
    let cores = input.cfg.system.cpu.cores;
    let total: usize = (0..input.trace.apps())
        .map(|a| input.trace.events(a).len())
        .sum();
    let ns = median_of(|| {
        let mut streams = input
            .mix
            .traces(cores, input.cfg.slice_lines, input.cfg.seed);
        let t = Instant::now();
        for i in 0..total {
            black_box(streams[i % cores].next_miss());
        }
        t.elapsed().as_nanos() as f64 / total.max(1) as f64
    });
    (ns, total as u64)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Writeback,
}

/// One controller call of the drive, in issue order.
#[derive(Debug, Clone, Copy)]
struct Call {
    op: Op,
    addr: PhysAddr,
    at: Picos,
}

/// What the controller drive produced.
struct Drive {
    calls: Vec<Call>,
    /// The controller after one unrecorded replay (stats for the
    /// power and governor passes).
    mc: MemoryController,
    /// Per-core instructions and misses of the drive.
    apps: Vec<AppSample>,
    /// Simulated time the drive covered.
    window: Picos,
    access_ns: f64,
    record_ns: f64,
    /// Commands of one recorded replay.
    events: Vec<CmdEvent>,
}

fn fresh_mc(cfg: &SimConfig, record: bool) -> MemoryController {
    let mut mc = MemoryController::new(&cfg.system, MemFreq::MAX);
    mc.set_row_policy(cfg.row_policy);
    mc.set_event_recording(record);
    mc
}

/// Drives the controller with the recorded misses, one outstanding miss
/// per core at the baseline frequency, for the baseline's horizon: each
/// core computes its miss's instruction gap at the application's base CPI,
/// issues the miss (and its writeback), and waits for the data. Returns
/// the call sequence, which then replays into fresh controllers.
fn schedule(input: &Input<'_>) -> (Vec<Call>, Vec<AppSample>, Picos) {
    let cfg = input.cfg;
    let cores = cfg.system.cpu.cores;
    let cycle = cfg.system.cpu.cycle();
    let cpi: Vec<f64> = (0..cores)
        .map(|c| spec::profile(input.mix.app_on_core(c)).map_or(1.0, |p| p.base_cpi))
        .collect();
    let compute = |c: usize, ev: &MissEvent| cycle.scale(cpi[c] * ev.gap_instructions as f64);
    let mut mc = fresh_mc(cfg, false);
    let mut pos = vec![0usize; cores];
    let mut apps = vec![AppSample { tic: 0, tlm: 0 }; cores];
    let mut heap = BinaryHeap::with_capacity(cores);
    for c in 0..cores {
        if let Some(ev) = input.trace.events(c).first() {
            heap.push(Reverse((compute(c, ev), c)));
        }
    }
    let mut calls = Vec::new();
    let mut end = Picos::ZERO;
    while let Some(Reverse((t, c))) = heap.pop() {
        let events = input.trace.events(c);
        let Some(ev) = events.get(pos[c]) else {
            continue;
        };
        if t > cfg.duration {
            continue;
        }
        pos[c] += 1;
        apps[c].tic += ev.gap_instructions;
        apps[c].tlm += 1;
        if let Some(wb) = ev.writeback {
            mc.writeback(wb, t);
            calls.push(Call {
                op: Op::Writeback,
                addr: wb,
                at: t,
            });
        }
        let done = mc.read(ev.addr, t).completion;
        calls.push(Call {
            op: Op::Read,
            addr: ev.addr,
            at: t,
        });
        end = end.max(done);
        if let Some(next) = events.get(pos[c]) {
            heap.push(Reverse((done + compute(c, next), c)));
        }
    }
    (calls, apps, end)
}

fn replay(cfg: &SimConfig, calls: &[Call], record: bool) -> (f64, MemoryController) {
    let mut mc = fresh_mc(cfg, record);
    let t = Instant::now();
    for c in calls {
        match c.op {
            Op::Read => {
                black_box(mc.read(black_box(c.addr), c.at));
            }
            Op::Writeback => mc.writeback(black_box(c.addr), c.at),
        }
    }
    (t.elapsed().as_secs_f64(), mc)
}

/// Prices one controller access with recording off, and the extra cost
/// per command of recording on, alternating the two.
fn drive_pass(input: &Input<'_>) -> Drive {
    let (calls, apps, window) = schedule(input);
    let mut off = Vec::with_capacity(REPEATS);
    let mut on = Vec::with_capacity(REPEATS);
    let mut kept = None;
    let mut events = Vec::new();
    for _ in 0..REPEATS {
        let (t_off, mc) = replay(input.cfg, &calls, false);
        off.push(t_off);
        kept = Some(mc);
        let (t_on, mut mc) = replay(input.cfg, &calls, true);
        on.push(t_on);
        events = mc.drain_command_events();
    }
    let t_off = median(&off).unwrap_or(0.0);
    let t_on = median(&on).unwrap_or(0.0);
    let n = calls.len().max(1) as f64;
    let record_ns = if events.is_empty() {
        0.0
    } else {
        ((t_on - t_off) * 1e9 / events.len() as f64).max(0.0)
    };
    Drive {
        access_ns: t_off * 1e9 / n,
        record_ns,
        mc: kept.unwrap_or_else(|| fresh_mc(input.cfg, false)),
        calls,
        apps,
        window,
        events,
    }
}

/// Prices the conformance checker: ingest + finalize over the drive's
/// command stream, per command. Also returns the violations it found.
fn check_pass(cfg: &SimConfig, events: &[CmdEvent]) -> (f64, usize) {
    let t = &cfg.system.topology;
    let mut violations = 0;
    let ns = median_of(|| {
        let mut auditor = ProtocolAuditor::new(
            &cfg.system.timing,
            t.channels as usize,
            t.ranks_per_channel() as usize,
            t.banks_per_rank as usize,
            MemFreq::MAX,
        );
        let start = Instant::now();
        auditor.ingest(events);
        let report = auditor.finalize();
        let secs = start.elapsed().as_secs_f64();
        violations = report.violations.len();
        secs * 1e9 / events.len().max(1) as f64
    });
    (ns, violations)
}

/// Prices one energy-segment integration over the drive's activity.
fn segment_pass(cfg: &SimConfig, mc: &MemoryController) -> f64 {
    let power = PowerModel::new(&cfg.system);
    let ranks = mc.rank_stats();
    let chans = mc.channel_stats();
    let window = Picos::from_ms(1);
    median_of(|| {
        let t = Instant::now();
        for _ in 0..BOUNDARY_CALLS {
            black_box(power.memory_power_split(
                black_box(&ranks),
                black_box(&chans),
                window,
                MemFreq::MAX,
                MemFreq::MAX,
            ));
        }
        t.elapsed().as_nanos() as f64 / f64::from(BOUNDARY_CALLS)
    })
}

/// Prices one MemScale governor decision over a profile built from the
/// drive's counters.
fn decide_pass(input: &Input<'_>, drive: &Drive) -> f64 {
    let ranks = drive.mc.rank_stats();
    let chans = drive.mc.channel_stats();
    let window = drive.window.max(Picos::from_us(1));
    let profile = EpochProfile {
        window,
        freq: MemFreq::MAX,
        apps: drive.apps.clone(),
        mc: *drive.mc.counters(),
        activity: ActivitySummary::from_deltas(&ranks, &chans, window),
    };
    median_of(|| {
        let mut policy = Policy::new(CURSOR_POLICY, &input.cfg.system, input.cfg.governor);
        policy.set_rest_of_system_w(input.exp.rest_w());
        let t = Instant::now();
        for _ in 0..BOUNDARY_CALLS {
            black_box(policy.decide(black_box(&profile)));
        }
        t.elapsed().as_nanos() as f64 / f64::from(BOUNDARY_CALLS)
    })
}

/// Simulated statistics of a set of runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellStats {
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_misses: u64,
    read_latency_ps: u64,
    commands: u64,
    max_commands: u64,
}

impl CellStats {
    /// Sums the counters and audit command counts of `runs`.
    pub fn of(runs: &[&RunResult]) -> Self {
        let mut s = CellStats::default();
        for run in runs {
            let c = &run.counters;
            s.reads += c.reads;
            s.writes += c.writes;
            s.row_hits += c.rbhc;
            s.row_misses += c.obmc + c.cbmc;
            s.read_latency_ps += c.read_latency_sum.as_ps();
            let cmds = run.audit.as_ref().map_or(0, |a| a.commands_checked as u64);
            s.commands += cmds;
            s.max_commands = s.max_commands.max(cmds);
        }
        s
    }
}

/// The per-layer metrics every workload reports from its isolated passes
/// and the simulated statistics of its own runs.
pub fn layer_metrics(
    out: &mut Outcome,
    costs: &LayerCosts,
    s: &CellStats,
    peak_rss_mb: f64,
    tracer: &Tracer,
) {
    let records = (s.reads + s.writes).max(1);
    for (span, metric) in [
        ("simulator.record", "simulator.record_s"),
        ("simulator.calibrate", "simulator.calibrate_s"),
    ] {
        let d = tracer.durations(span);
        out.metric(Metric::new(metric, "s", d.iter().sum(), d.len()).note("workload input"));
    }
    out.metric(
        Metric::new(
            "trace.cursor_ns",
            "ns",
            costs.cursor_ns,
            count(costs.cursor_calls),
        )
        .note(format!(
            "per next_event call; in place {:.1} ns incl. a {:.1} ns clock pair",
            costs.cursor_in_place_ns, costs.timer_ns
        )),
    );
    out.metric(Metric::new(
        "workloads.next_miss_ns",
        "ns",
        costs.next_miss_ns,
        count(costs.next_miss_calls),
    ));
    out.metric(
        Metric::new("mc.access_ns", "ns", costs.access_ns, count(costs.accesses))
            .note("read/writeback, recording off"),
    );
    out.metric(
        Metric::new(
            "dram.cmd_record_ns",
            "ns",
            costs.record_ns,
            count(costs.commands),
        )
        .note("recording on minus off, per command"),
    );
    out.metric(Metric::new("mc.reads", "count", s.reads as f64, 0).note("simulated"));
    out.metric(Metric::new("mc.writes", "count", s.writes as f64, 0).note("simulated"));
    out.metric(
        Metric::new(
            "mc.row_hit_rate",
            "ratio",
            s.row_hits as f64 / (s.row_hits + s.row_misses).max(1) as f64,
            0,
        )
        .note("simulated"),
    );
    out.metric(
        Metric::new(
            "mc.read_latency_ns",
            "ns",
            s.read_latency_ps as f64 / 1e3 / s.reads.max(1) as f64,
            0,
        )
        .note("simulated, mean"),
    );
    out.metric(Metric::new("audit.commands", "count", s.commands as f64, 0));
    out.metric(Metric::new(
        "audit.commands_per_record",
        "ratio",
        s.commands as f64 / records as f64,
        0,
    ));
    out.metric(
        Metric::new(
            "audit.check_ns",
            "ns",
            costs.check_ns,
            count(costs.commands),
        )
        .note(format!(
            "ingest + finalize per command, {} violations",
            costs.violations
        )),
    );
    let buffer_mb = s.max_commands as f64 * std::mem::size_of::<CmdEvent>() as f64 / 1048576.0;
    out.metric(
        Metric::new("audit.buffer_mb", "MB", buffer_mb, 0)
            .note("largest cell's commands x size_of::<CmdEvent>()"),
    );
    // While a cell finishes, its drained command vector and the auditor's
    // copy are both live, on each of the worker threads.
    let held = buffer_mb * 2.0 * THREADS as f64;
    out.metric(
        Metric::new("audit.rss_share", "ratio", held / peak_rss_mb.max(1e-9), 0).note(format!(
            "{THREADS} threads x 2 copies x buffer / peak RSS {peak_rss_mb:.0} MB (computed)"
        )),
    );
    out.metric(Metric::new("power.segment_ns", "ns", costs.segment_ns, 0));
    out.metric(Metric::new("core.decide_ns", "ns", costs.decide_ns, 0));
}

/// Epoch boundaries a cell of simulated length `duration` crosses:
/// `(energy segments integrated, governor decisions)`. Every boundary and
/// the run's end integrate a segment; adaptive policies decide at each
/// profiling boundary.
pub fn boundaries(cfg: &SimConfig, duration: Picos, adaptive: bool) -> (u64, u64) {
    let epoch = cfg.governor.epoch.as_ps().max(1);
    let profile = cfg.governor.profile_len.as_ps();
    let d = duration.as_ps();
    let full = d / epoch;
    let profiles = full + u64::from(d % epoch >= profile);
    (profiles + full + 1, if adaptive { profiles } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_count_profiles_epochs_and_the_end() {
        let cfg = SimConfig::default(); // 5 ms epochs, 300 us profiling
        assert_eq!(boundaries(&cfg, Picos::from_us(200), true), (1, 0));
        assert_eq!(boundaries(&cfg, Picos::from_ms(2), true), (2, 1));
        assert_eq!(boundaries(&cfg, Picos::from_ms(2), false), (2, 0));
        assert_eq!(boundaries(&cfg, Picos::from_ms(11), true), (6, 3));
    }
}
