//! `sweep-mem`: one recorded MEM1 trace swept over the 16-cell DDR3 grid
//! with `replay_sharded`, the batch-sweep entry point.

use crate::layers::{self, Input, LayerCosts, CURSOR_POLICY};
use crate::report::{median, Digest, Metric, Outcome};
use crate::spans::Tracer;
use crate::{digests, input_seed, sys, Args, THREADS};
use memscale::policies::Policy;
use memscale_simulator::{
    default_grid, replay_sharded, Experiment, RunResult, ShardResult, ShardSpec, SimConfig,
};
use memscale_trace::ReplayTrace;
use memscale_types::config::MemGeneration;
use memscale_types::time::Picos;
use memscale_workloads::Mix;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// The mix with the highest miss rate: the per-miss path does the work.
const MIX: &str = "MEM1";

/// Continuation margin recorded past the slowest static point, as the
/// sweep server records it.
const MARGIN_PCT: usize = 50;

/// The accounting residual above which the per-layer table is missing a
/// layer.
const UNATTRIBUTED_LIMIT: f64 = 0.15;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Simulated baseline horizon.
    pub horizon: Picos,
    /// Cells of the default grid swept.
    pub cells: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Whether to compare sweep digests with the shipped table.
    pub check_digest: bool,
}

impl Params {
    /// The benchmark's size: 2 ms horizon, all 16 cells, 3 set-ups.
    pub fn full() -> Self {
        Params {
            horizon: Picos::from_ms(2),
            cells: 16,
            setups: 3,
            check_digest: true,
        }
    }

    /// Toy size for tests.
    pub fn smoke() -> Self {
        Params {
            horizon: Picos::from_us(100),
            cells: 3,
            setups: 1,
            check_digest: false,
        }
    }
}

/// The workload's recorded and calibrated input.
pub struct Prepared {
    mix: Mix,
    cfg: SimConfig,
    trace: ReplayTrace,
    exp: Experiment,
    grid: Vec<ShardSpec>,
}

impl Prepared {
    fn input(&self) -> Input<'_> {
        Input {
            mix: &self.mix,
            cfg: &self.cfg,
            trace: &self.trace,
            exp: &self.exp,
        }
    }
}

/// Records MEM1 and calibrates it.
///
/// # Errors
///
/// A description of the recording or calibration failure.
pub fn prepare(seed: u64, p: &Params, tracer: Option<&Tracer>) -> Result<Prepared, String> {
    let mix = Mix::by_name(MIX).map_err(|e| e.to_string())?;
    let mut cfg = SimConfig::for_generation(MemGeneration::Ddr3).with_duration(p.horizon);
    cfg.seed = input_seed(seed, 0);
    let (trace, exp) = layers::record_input(&mix, &cfg, MARGIN_PCT, tracer, MIX)?;
    let grid = default_grid(MemGeneration::Ddr3)
        .into_iter()
        .take(p.cells)
        .collect();
    Ok(Prepared {
        mix,
        cfg,
        trace,
        exp,
        grid,
    })
}

/// Folds one cell's simulated outcome into `d`: counters, energy by
/// category, work and completion times.
pub fn digest_cell(d: &mut Digest, label: &str, run: &RunResult) {
    let c = &run.counters;
    d.str(label);
    for v in [
        c.bto, c.btc, c.cto, c.ctc, c.rbhc, c.obmc, c.cbmc, c.epdc, c.edpc, c.pocc, c.reads,
        c.writes,
    ] {
        d.u64(v);
    }
    d.u64(c.read_latency_sum.as_ps());
    let m = &run.energy.memory_j;
    for v in [
        m.background_w,
        m.act_pre_w,
        m.rd_wr_w,
        m.term_w,
        m.pll_w,
        m.reg_w,
        m.mc_w,
        run.energy.rest_j,
    ] {
        d.f64(v);
    }
    d.u64(run.energy.elapsed.as_ps()).u64(run.duration.as_ps());
    for (w, t) in run.work.iter().zip(&run.completion) {
        d.u64(*w).u64(t.as_ps());
    }
}

/// What checking one sweep's results found.
#[derive(Debug, Default)]
pub struct SweepCheck {
    /// Digest over every cell, in grid order.
    pub digest: u64,
    /// Miss records served (`reads + writes`) over all cells.
    pub records: u64,
    /// Cells that failed or failed a check.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
}

/// Checks one sweep: every cell `Ok`, audited, with zero violations.
pub fn check_sweep(results: &[ShardResult]) -> SweepCheck {
    let mut out = SweepCheck::default();
    let mut d = Digest::default();
    for (spec, result) in results {
        match result {
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("cell {}: {e}", spec.label));
            }
            Ok((run, _)) => {
                digest_cell(&mut d, &spec.label, run);
                out.records += run.counters.reads + run.counters.writes;
                match &run.audit {
                    None => {
                        out.failed += 1;
                        out.problems.push(format!(
                            "cell {}: no audit report (unaudited build)",
                            spec.label
                        ));
                    }
                    Some(a) if !a.is_clean() => {
                        out.failed += 1;
                        out.problems.push(format!(
                            "cell {}: {} protocol violations",
                            spec.label,
                            a.violations.len()
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    out.digest = d.value();
    out
}

/// One sweep's digest over `seed` at the benchmark's size (used to build
/// the shipped table).
///
/// # Errors
///
/// A description of the first set-up failure or failed cell.
pub fn reference_digest(seed: u64) -> Result<u64, String> {
    let prep = prepare(seed, &Params::full(), None)?;
    let check = check_sweep(&replay_sharded(&prep.exp, &prep.trace, &prep.grid));
    match check.problems.first() {
        Some(p) => Err(p.clone()),
        None => Ok(check.digest),
    }
}

/// What the timed phase measured, one entry per sweep.
struct Timed {
    walls: Vec<f64>,
    rates: Vec<f64>,
    digests: Vec<u64>,
}

/// The timed phase: `replay_sharded` sweeps back to back until `seconds`
/// have passed, and at least two, so every run compares two sweeps.
fn timed_sweeps(prep: &Prepared, seconds: Duration, out: &mut Outcome) -> Timed {
    let phase = Instant::now();
    let mut t = Timed {
        walls: Vec::new(),
        rates: Vec::new(),
        digests: Vec::new(),
    };
    loop {
        let cpu0 = sys::process_cpu_s();
        let start = Instant::now();
        let results = replay_sharded(&prep.exp, &prep.trace, &prep.grid);
        let wall = start.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_s() - cpu0;
        let check = check_sweep(&results);
        drop(results);
        out.attempted += prep.grid.len() as u64;
        out.failed += check.failed;
        out.problems.extend(check.problems);
        t.walls.push(wall);
        t.rates.push(check.records as f64 / cpu.max(1e-9));
        t.digests.push(check.digest);
        if t.walls.len() >= 2 && phase.elapsed() >= seconds {
            return t;
        }
    }
}

/// Every sweep of a run must produce the same digest, and at the
/// benchmark's size it must equal the shipped digest for the seed. A
/// mismatching sweep fails all its cells.
fn check_digests(seed: u64, p: &Params, cells: usize, digests: &[u64], out: &mut Outcome) {
    let expected = if p.check_digest {
        digests::sweep_mem(seed)
    } else {
        None
    };
    let reference = expected.or_else(|| digests.first().copied());
    for (i, d) in digests.iter().enumerate() {
        if Some(*d) != reference {
            out.failed += cells as u64;
            out.problem(format!(
                "sweep {i}: digest {d:#018x} != expected {:#018x}",
                reference.unwrap_or(0)
            ));
        }
    }
    if p.check_digest && expected.is_none() {
        out.lines.push(format!(
            "digest: seed {seed} has no shipped digest; checked that every sweep agrees"
        ));
    }
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// A description of a set-up failure.
pub fn run(args: &Args, p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let prep = prepare(args.seed, p, None)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let timed = timed_sweeps(&prep, args.seconds, &mut out);
    // Read before the repeated set-ups below, so their freed-but-retained
    // heap never shows in the peak.
    let peak_rss_mb = sys::peak_rss_mb();
    for _ in 1..p.setups {
        let t = Instant::now();
        drop(prepare(args.seed, p, None)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    check_digests(args.seed, p, prep.grid.len(), &timed.digests, &mut out);
    let wall = median(&timed.walls).unwrap_or(0.0);
    out.metric(
        Metric::new("setup_s", "s", median(&setup).unwrap_or(0.0), setup.len())
            .note("record MEM1 + calibrate"),
    );
    out.metric(
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1)
            .note("VmHWM over the first set-up and the timed phase"),
    );
    out.metric(
        Metric::new("latency_p50_ms", "ms", wall * 1e3, timed.walls.len()).note(format!(
            "sweep_wall_s = {wall:.3} s per {}-cell sweep",
            prep.grid.len()
        )),
    );
    out.metric(
        Metric::new(
            "throughput_per_s",
            "1/s",
            median(&timed.rates).unwrap_or(0.0),
            timed.rates.len(),
        )
        .note("records_per_s: miss records per CPU-second of the sweep (one shard)"),
    );
    Ok(out)
}

/// Host-side measurements of one cell of the traced sweep.
#[derive(Debug, Clone, Copy)]
struct CellTiming {
    wall_s: f64,
    wait_s: f64,
}

/// `replay_sharded`'s body with a span and run-queue reading around each
/// cell.
fn traced_sweep(
    prep: &Prepared,
    tracer: &Tracer,
    parent: u64,
) -> (Vec<ShardResult>, Vec<CellTiming>) {
    prep.grid
        .par_iter()
        .map(|s| {
            let wait0 = sys::thread_wait_ns();
            let start = Instant::now();
            let result = prep.exp.evaluate_replay(s.policy, &prep.trace);
            let end = Instant::now();
            let wait1 = sys::thread_wait_ns();
            tracer.record("simulator.cell", Some(parent), &s.label, start, end);
            let timing = CellTiming {
                wall_s: (end - start).as_secs_f64(),
                wait_s: wait1.saturating_sub(wait0) as f64 / 1e9,
            };
            ((s.clone(), result), timing)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip()
}

/// The traced run: per-layer metrics.
///
/// # Errors
///
/// A description of a set-up or isolated-pass failure.
pub fn run_traced(args: &Args, p: &Params, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prep = prepare(args.seed, p, Some(tracer))?;

    // Untraced timed phase first: the baseline for the tracing overhead.
    let timed = timed_sweeps(&prep, args.seconds, &mut out);
    let untraced_wall = median(&timed.walls).unwrap_or(0.0);

    let start = Instant::now();
    let (results, timings) = tracer.span("rayon.sweep", None, MIX, |id| {
        traced_sweep(&prep, tracer, id)
    });
    let end = Instant::now();
    let wall = (end - start).as_secs_f64();
    let check = check_sweep(&results);
    out.attempted += prep.grid.len() as u64;
    out.failed += check.failed;
    out.problems.extend(check.problems);
    let mut digests = timed.digests;
    digests.push(check.digest);
    check_digests(args.seed, p, prep.grid.len(), &digests, &mut out);

    let costs = layers::measure(&prep.input(), tracer, MIX)?;

    // The wrapped cell must be bit-identical to the sweep's cell.
    let label = memscale_simulator::ShardSpec::of(CURSOR_POLICY).label;
    if let Some((_, Ok((run, _)))) = results.iter().find(|(s, _)| s.label == label) {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        digest_cell(&mut a, &label, run);
        digest_cell(&mut b, &label, &costs.cursor_run);
        if a != b {
            out.failed += 1;
            out.problem(format!(
                "cursor-wrapped {label} cell differs from the sweep's"
            ));
        }
    }

    let runs: Vec<&RunResult> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|(run, _)| run))
        .collect();
    let busy: f64 = timings.iter().map(|c| c.wall_s).sum();
    let max = timings.iter().map(|c| c.wall_s).fold(0.0, f64::max);
    let wait: f64 = timings.iter().map(|c| c.wait_s).sum();
    out.metric(
        Metric::new("simulator.cell_busy_s", "s", busy, timings.len())
            .note("summed cell wall time of the traced sweep"),
    );
    out.metric(Metric::new("simulator.cell_max_s", "s", max, timings.len()).note("slowest cell"));
    out.metric(
        Metric::new(
            "rayon.parallel_efficiency",
            "ratio",
            busy / (THREADS as f64 * wall),
            1,
        )
        .note(format!("cell busy / ({THREADS} x sweep wall {wall:.3} s)")),
    );
    out.metric(
        Metric::new(
            "rayon.runqueue_wait_frac",
            "ratio",
            wait / busy.max(1e-9),
            timings.len(),
        )
        .note("run-queue wait / cell wall, from /proc/thread-self/schedstat"),
    );
    let stats = layers::CellStats::of(&runs);
    layers::layer_metrics(&mut out, &costs, &stats, sys::peak_rss_mb(), tracer);
    accounting(&mut out, &prep, &costs, &results, busy);
    out.metric(
        Metric::new(
            "perfbench.trace_overhead_frac",
            "ratio",
            wall / untraced_wall.max(1e-9) - 1.0,
            1,
        )
        .note(format!(
            "traced sweep {wall:.3} s vs untraced median {untraced_wall:.3} s"
        )),
    );
    Ok(out)
}

/// Multiplies each per-call price by the cells' call counts and compares
/// the total with the summed cell wall time.
fn accounting(
    out: &mut Outcome,
    prep: &Prepared,
    costs: &LayerCosts,
    results: &[ShardResult],
    busy_s: f64,
) {
    let cores = prep.cfg.system.cpu.cores as u64;
    let (mut source, mut access, mut record, mut check, mut boundary) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut cells = 0;
    for (spec, result) in results {
        let Ok((run, _)) = result else { continue };
        cells += 1;
        let c = &run.counters;
        let commands = run.audit.as_ref().map_or(0, |a| a.commands_checked) as f64;
        let adaptive = Policy::new(spec.policy, &prep.cfg.system, prep.cfg.governor).is_adaptive();
        let (segments, decides) = layers::boundaries(&prep.cfg, run.duration, adaptive);
        source += (c.reads + cores) as f64 * costs.cursor_ns;
        access += (c.reads + c.writes) as f64 * costs.access_ns;
        record += commands * costs.record_ns;
        check += commands * costs.check_ns;
        boundary += segments as f64 * costs.segment_ns + decides as f64 * costs.decide_ns;
    }
    let total_ns = busy_s * 1e9;
    let attributed = source + access + record + check + boundary;
    let residual = 1.0 - attributed / total_ns.max(1.0);
    let share = |x: f64| 100.0 * x / total_ns.max(1.0);
    out.metric(
        Metric::new("simulator.unattributed_frac", "ratio", residual, cells)
            .note("1 - (per-call prices x call counts) / summed cell wall"),
    );
    out.metric(
        Metric::new(
            "audit.cell_share",
            "ratio",
            (record + check) / total_ns.max(1.0),
            cells,
        )
        .note("recording + checking share of cell wall time"),
    );
    out.lines.push(format!(
        "accounting over {} cells ({busy_s:.3} s): source {:.1}%  access {:.1}%  \
         record {:.1}%  check {:.1}%  boundary {:.2}%  unattributed {:.1}%",
        cells,
        share(source),
        share(access),
        share(record),
        share(check),
        share(boundary),
        100.0 * residual
    ));
    if residual > UNATTRIBUTED_LIMIT {
        out.lines.push(
            "accounting: the table is missing a layer: the engine's own loop (in-order core \
             model, event heap, epoch snapshots) and the audit event drain are not priced \
             in isolation"
                .to_string(),
        );
    }
}
