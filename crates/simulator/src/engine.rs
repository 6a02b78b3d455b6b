//! The event-driven simulation engine.
//!
//! Cores alternate between analytic compute intervals and blocking memory
//! waits; a binary heap orders their transitions. Epoch machinery (profiling
//! at +300 µs, decision + re-lock, end-of-epoch slack update), timeline
//! sampling and per-segment energy integration run at deterministic
//! boundaries interleaved with the event stream.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::result::{RunResult, TimelineSample};
use memscale::policies::{Policy, PolicyKind};
use memscale::profile::{AppSample, EpochProfile};
use memscale_cpu::{CoreCounters, CoreState, InOrderCore};
use memscale_faults::FaultInjector;
use memscale_mc::{McCounters, MemoryController};
use memscale_power::{ActivitySummary, EnergyAccount, PowerModel};
use memscale_trace::TraceError;
use memscale_types::faults::{CounterFault, RefreshFault, SwitchFault};
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_types::CancelToken;
use memscale_workloads::{spec, MissEvent, MissSource, Mix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events the watchdog lets pass between forward-progress checks. Far above
/// anything a healthy run produces at one timestamp (one event per core per
/// compute/wait transition), far below a hang's event budget.
const WATCHDOG_EVENTS: u64 = 1 << 16;

/// Counter deltas the engine hands the governor when a stale-read fault
/// replays the previous window.
type StaleCache = Option<(Vec<AppSample>, McCounters)>;

/// Fewest held commands that trigger an audit release; above it the
/// release cadence doubles with what the previous release left held.
const MIN_AUDIT_RELEASE: usize = 4096;

/// Accesses between two looks at the held count: summing every rank's
/// buffer on each access would cost a few percent of the run.
const AUDIT_POLL_STRIDE: u32 = 16;

/// The run's protocol audit, streamed: recorded commands are released to
/// the auditor below the controller's watermark whenever the held count
/// has doubled since the last release, so audit memory stays bounded by
/// the watermark's lag instead of growing with the horizon.
#[derive(Debug)]
struct AuditStream {
    auditor: memscale_audit::ProtocolAuditor,
    /// Reused buffer of one release's commands.
    batch: Vec<memscale_types::events::CmdEvent>,
    /// Accesses since the held count was last looked at.
    unpolled: u32,
    /// Held count at which the next release happens.
    release_at: usize,
    /// Most commands held at once so far.
    peak_held: usize,
}

impl AuditStream {
    /// Audits `system` (the *modified* config: it includes the
    /// decoupled-DIMM CAS lag) with the rule pack of its generation.
    fn new(system: &memscale_types::config::SystemConfig, initial: MemFreq) -> Self {
        let t = &system.topology;
        AuditStream {
            auditor: memscale_audit::ProtocolAuditor::new(
                &system.timing,
                t.channels as usize,
                t.ranks_per_channel() as usize,
                t.banks_per_rank as usize,
                initial,
            ),
            batch: Vec::new(),
            unpolled: 0,
            release_at: MIN_AUDIT_RELEASE,
            peak_held: 0,
        }
    }

    /// Called after every access at `now`: releases the commands dated
    /// below the controller's watermark once enough are held. Held
    /// commands only accumulate between releases, so the peak is sampled
    /// here and at finish.
    fn poll(&mut self, mc: &mut MemoryController, now: Picos) {
        self.unpolled += 1;
        if self.unpolled < AUDIT_POLL_STRIDE {
            return;
        }
        self.unpolled = 0;
        let held = mc.held_command_events();
        if held < self.release_at {
            return;
        }
        self.peak_held = self.peak_held.max(held);
        let watermark = mc.command_watermark(now);
        mc.drain_command_events_below(watermark, &mut self.batch);
        self.auditor.ingest(&self.batch);
        self.batch.clear();
        self.auditor.release(watermark);
        self.release_at = (2 * mc.held_command_events()).max(MIN_AUDIT_RELEASE);
    }

    /// Replays the rest of the stream; returns the report and the peak
    /// held count.
    fn finish(mut self, mc: &mut MemoryController) -> (memscale_audit::AuditReport, usize) {
        self.peak_held = self.peak_held.max(mc.held_command_events());
        self.auditor.ingest(&mc.drain_command_events());
        (self.auditor.finalize(), self.peak_held)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CorePhase {
    Computing,
    WaitingMemory,
}

/// A configured, runnable simulation of one mix under one policy.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    mix: Mix,
    policy: Policy,
    power: PowerModel,

    now: Picos,
    cores: Vec<InOrderCore>,
    sources: Vec<Box<dyn MissSource + Send>>,
    pending: Vec<Option<MissEvent>>,
    phase: Vec<CorePhase>,
    heap: BinaryHeap<Reverse<(Picos, usize)>>,
    mc: MemoryController,

    // Epoch machinery.
    epoch_start: Picos,
    profile_pending: bool,
    epoch_cores: Vec<CoreCounters>,
    epoch_mc: McCounters,
    epoch_ranks: Vec<memscale_dram::RankStats>,
    epoch_chans: Vec<memscale_dram::ChannelStats>,

    // Energy segments.
    seg_start: Picos,
    seg_ranks: Vec<memscale_dram::RankStats>,
    seg_chans: Vec<memscale_dram::ChannelStats>,
    energy: EnergyAccount,
    freq_residency_ps: Vec<u64>,

    // Timeline.
    timeline: Vec<TimelineSample>,
    tl_next: Option<Picos>,
    tl_cores: Vec<CoreCounters>,
    tl_chans: Vec<memscale_dram::ChannelStats>,

    // Work targets (None = fixed-duration baseline mode).
    targets: Option<Vec<u64>>,
    completion: Vec<Option<Picos>>,
    remaining_targets: usize,

    // Cooperative cancellation: checked at epoch boundaries, so raising
    // the token stops the run within one epoch of simulated progress.
    cancel: CancelToken,

    // Open-loop request-latency tracking (None for batch runs). Fed one
    // observation per served miss; folded into the result at finish.
    request_tracker: Option<memscale_arrivals::RequestTracker>,

    // Fault injection (None unless the config carries an active plan; the
    // clean path is then byte-identical to a build without the subsystem).
    injector: Option<FaultInjector>,
    epoch_faults: memscale_faults::EpochFaultSet,
    stale_decide: StaleCache,
    stale_measured: StaleCache,

    /// The streamed conformance audit of the run's command stream.
    audit: AuditStream,
}

impl Simulation {
    /// Builds a simulation of `mix` under `policy_kind`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid configuration,
    /// [`SimError::PolicyUnavailable`] if the policy does not exist on the
    /// configured memory generation (e.g. deep power-down outside LPDDR),
    /// and [`SimError::InvalidFaultPlan`] for an out-of-bounds fault plan.
    pub fn new(mix: &Mix, policy_kind: PolicyKind, cfg: &SimConfig) -> Result<Self, SimError> {
        Simulation::with_sources(mix, policy_kind, cfg, live_sources(mix, cfg))
    }

    /// Builds a simulation of `mix` under `policy_kind` whose miss events
    /// come from `sources` (one per core) instead of the live generator —
    /// the replay entry point ([`memscale_trace::ReplayTrace::streams`]
    /// supplies such sources from a recorded artifact).
    ///
    /// # Errors
    ///
    /// The errors of [`Simulation::new`], plus
    /// [`SimError::Trace`]/[`TraceError::ConfigMismatch`] when `sources`
    /// does not provide exactly one stream per configured core.
    pub fn with_sources(
        mix: &Mix,
        policy_kind: PolicyKind,
        cfg: &SimConfig,
        sources: Vec<Box<dyn MissSource + Send>>,
    ) -> Result<Self, SimError> {
        cfg.system.validate()?;
        if sources.len() != cfg.system.cpu.cores {
            return Err(TraceError::ConfigMismatch {
                field: "app count",
                expected: cfg.system.cpu.cores.to_string(),
                got: sources.len().to_string(),
            }
            .into());
        }
        let generation = cfg.system.timing.generation;
        if !policy_kind.available_on(generation) {
            return Err(SimError::PolicyUnavailable {
                policy: policy_kind.name(),
                generation,
            });
        }
        let injector = match &cfg.faults {
            Some(plan) => {
                plan.validate()?;
                plan.is_active().then(|| FaultInjector::new(plan.clone()))
            }
            None => None,
        };
        let mut system = cfg.system.clone();
        let policy = Policy::new(policy_kind, &system, cfg.governor);

        // Decoupled DIMMs: the synchronization buffer adds the slow device
        // burst behind the fast channel burst; fold it into the CAS path.
        let lag = policy.device_lag_ns(system.timing.burst_cycles);
        if lag > 0.0 {
            system.timing.t_cl_ns += lag;
        }

        let cores = (0..system.cpu.cores)
            .map(|i| {
                let name = mix.app_on_core(i);
                let cpi = spec::profile(name)
                    .unwrap_or_else(|| panic!("unknown application {name}"))
                    .base_cpi;
                InOrderCore::new(i.into(), cpi, system.cpu.cycle())
            })
            .collect::<Vec<_>>();
        let mut mc = MemoryController::new(&system, policy.initial_frequency());
        mc.set_auto_power_down(policy.auto_power_down());
        mc.set_row_policy(cfg.row_policy);
        mc.set_event_recording(true);
        let audit = AuditStream::new(&system, policy.initial_frequency());

        let n = system.cpu.cores;
        let rank_zero = mc.rank_stats();
        let chan_zero = mc.channel_stats();
        // Power is always computed against the *unmodified* system config.
        let power = PowerModel::new(&cfg.system);
        Ok(Simulation {
            cfg: SimConfig {
                system,
                ..cfg.clone()
            },
            mix: mix.clone(),
            policy,
            power,
            now: Picos::ZERO,
            cores,
            sources,
            pending: vec![None; n],
            phase: vec![CorePhase::Computing; n],
            heap: BinaryHeap::with_capacity(n + 1),
            mc,
            epoch_start: Picos::ZERO,
            profile_pending: true,
            epoch_cores: vec![CoreCounters::default(); n],
            epoch_mc: McCounters::new(),
            epoch_ranks: rank_zero.clone(),
            epoch_chans: chan_zero.clone(),
            seg_start: Picos::ZERO,
            seg_ranks: rank_zero.clone(),
            seg_chans: chan_zero.clone(),
            energy: EnergyAccount::new(),
            freq_residency_ps: vec![0; MemFreq::ALL.len()],
            timeline: Vec::new(),
            tl_next: cfg.timeline_interval.map(|i| Picos::ZERO + i),
            tl_cores: vec![CoreCounters::default(); n],
            tl_chans: chan_zero,
            targets: None,
            completion: vec![None; n],
            remaining_targets: 0,
            cancel: CancelToken::new(),
            request_tracker: None,
            injector,
            epoch_faults: memscale_faults::EpochFaultSet::default(),
            stale_decide: None,
            stale_measured: None,
            audit,
        })
    }

    /// Sets the governor's rest-of-system power (from baseline calibration).
    pub fn set_rest_of_system_w(&mut self, rest_w: f64) {
        self.policy.set_rest_of_system_w(rest_w);
    }

    /// Installs a shared cancellation token. The run loop checks it at
    /// every epoch boundary; once raised, the run returns
    /// [`SimError::Cancelled`] instead of continuing to completion. The
    /// default token is never raised, so untokened runs are unaffected.
    pub fn set_cancel_token(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Installs an open-loop request-latency tracker (service-workload
    /// runs). The engine reports every served miss to it — tagged with the
    /// instant the memory wait finished — and the final `RunResult` carries
    /// the aggregated [`memscale_types::requests::RequestStats`]. The
    /// tracker must be built for the same core count and request model as
    /// the installed sources, or request accounting will be misaligned.
    pub fn set_request_tracker(&mut self, tracker: memscale_arrivals::RequestTracker) {
        self.request_tracker = Some(tracker);
    }

    /// Pulls core `c`'s next miss from its source. A live
    /// [`memscale_workloads::MissStream`] never runs dry; a replay cursor
    /// that does means the trace was recorded with too little margin for
    /// this policy.
    fn pull_miss(&mut self, c: usize, at: Picos) -> Result<MissEvent, SimError> {
        self.sources[c]
            .next_event()
            .ok_or(SimError::TraceExhausted { app: c, at })
    }

    /// Runs for a fixed duration (baseline mode) and reports the result
    /// with `rest_w` rest-of-system power applied post-hoc.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the event loop violates an engine
    /// invariant ([`SimError::MissingPendingMiss`], [`SimError::Stalled`]).
    pub fn run_for(mut self, duration: Picos, rest_w: f64) -> Result<RunResult, SimError> {
        self.targets = None;
        self.run_loop(Some(duration))?;
        Ok(self.finish(duration, rest_w))
    }

    /// Runs until every core has retired its target instruction count
    /// (fixed-work policy mode).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TargetMismatch`] when `targets` length differs
    /// from the core count, plus the run-time errors of [`Self::run_for`].
    pub fn run_until_work(mut self, targets: &[u64], rest_w: f64) -> Result<RunResult, SimError> {
        if targets.len() != self.cores.len() {
            return Err(SimError::TargetMismatch {
                expected: self.cores.len(),
                got: targets.len(),
            });
        }
        self.remaining_targets = targets.iter().filter(|&&t| t > 0).count();
        for (i, &t) in targets.iter().enumerate() {
            if t == 0 {
                self.completion[i] = Some(Picos::ZERO);
            }
        }
        self.targets = Some(targets.to_vec());
        self.run_loop(None)?;
        let end = self
            .completion
            .iter()
            .map(|c| c.unwrap_or(self.now))
            .max()
            .unwrap_or(self.now);
        Ok(self.finish(end, rest_w))
    }

    fn run_loop(&mut self, deadline: Option<Picos>) -> Result<(), SimError> {
        self.begin_epoch_faults(Picos::ZERO);
        // Seed every core with its first compute interval.
        for c in 0..self.cores.len() {
            let ev = self.pull_miss(c, Picos::ZERO)?;
            let done = self.cores[c].start_compute(Picos::ZERO, ev.gap_instructions);
            self.pending[c] = Some(ev);
            self.phase[c] = CorePhase::Computing;
            self.heap.push(Reverse((done, c)));
        }

        // Watchdog: simulated time must advance across any WATCHDOG_EVENTS
        // consecutive events (core transitions or boundaries); otherwise the
        // run is livelocked and must die with a diagnosis, not hang.
        let mut events: u64 = 0;
        let mut watchdog_mark = self.now;
        loop {
            let boundary = self.next_boundary(deadline);
            while let Some(&Reverse((t, c))) = self.heap.peek() {
                if t > boundary {
                    break;
                }
                self.heap.pop();
                self.advance_core(c, t)?;
                events += 1;
                if events.is_multiple_of(WATCHDOG_EVENTS) {
                    if self.now <= watchdog_mark && events > WATCHDOG_EVENTS {
                        return Err(SimError::Stalled {
                            at: self.now,
                            events,
                        });
                    }
                    watchdog_mark = self.now;
                }
                if self.targets.is_some() && self.remaining_targets == 0 {
                    return Ok(());
                }
            }
            self.now = boundary;
            self.handle_boundary(boundary)?;
            if self.cancel.is_cancelled() {
                return Err(SimError::Cancelled { at: boundary });
            }
            if let Some(d) = deadline {
                if boundary >= d {
                    return Ok(());
                }
            }
        }
    }

    fn next_boundary(&self, deadline: Option<Picos>) -> Picos {
        let epoch_b = if self.profile_pending {
            self.epoch_start + self.cfg.governor.profile_len
        } else {
            self.epoch_start + self.cfg.governor.epoch
        };
        let mut b = epoch_b;
        if let Some(t) = self.tl_next {
            b = b.min(t);
        }
        if let Some(d) = deadline {
            b = b.min(d);
        }
        b
    }

    fn advance_core(&mut self, c: usize, t: Picos) -> Result<(), SimError> {
        self.now = t;
        match self.phase[c] {
            CorePhase::Computing => {
                // Work-target crossing with intra-interval interpolation.
                if let (
                    Some(targets),
                    CoreState::Computing {
                        since,
                        until,
                        instructions,
                    },
                ) = (self.targets.as_ref(), self.cores[c].state())
                {
                    let before = self.cores[c].instructions_retired();
                    let after = before + instructions;
                    let target = targets[c];
                    if self.completion[c].is_none() && after >= target {
                        let need = target.saturating_sub(before);
                        let frac = if instructions == 0 {
                            0.0
                        } else {
                            need as f64 / instructions as f64
                        };
                        let cross = since + (until - since).scale(frac);
                        self.completion[c] = Some(cross);
                        self.remaining_targets -= 1;
                    }
                }
                self.cores[c].finish_compute(t);
                let ev = self.pending[c]
                    .take()
                    .ok_or(SimError::MissingPendingMiss { core: c, at: t })?;
                if let Some(wb) = ev.writeback {
                    self.mc.writeback(wb, t);
                }
                let res = self.mc.read(ev.addr, t);
                // Every later controller call is at or after `t`.
                self.audit.poll(&mut self.mc, t);
                self.cores[c].start_memory_wait(t);
                self.phase[c] = CorePhase::WaitingMemory;
                self.heap.push(Reverse((res.completion, c)));
            }
            CorePhase::WaitingMemory => {
                self.cores[c].finish_memory_wait(t);
                if let Some(tracker) = self.request_tracker.as_mut() {
                    tracker.note_miss(c, t);
                }
                let ev = self.pull_miss(c, t)?;
                let done = self.cores[c].start_compute(t, ev.gap_instructions);
                self.pending[c] = Some(ev);
                self.phase[c] = CorePhase::Computing;
                self.heap.push(Reverse((done, c)));
            }
        }
        Ok(())
    }

    fn handle_boundary(&mut self, b: Picos) -> Result<(), SimError> {
        self.mc.sync(b);
        self.integrate_segment(b);

        if self.tl_next == Some(b) {
            self.sample_timeline(b)?;
            self.tl_next = self.cfg.timeline_interval.map(|i| b + i);
        }

        let profile_b = self.epoch_start + self.cfg.governor.profile_len;
        let epoch_b = self.epoch_start + self.cfg.governor.epoch;
        if self.profile_pending && b == profile_b {
            self.profile_pending = false;
            if self.policy.is_adaptive() {
                let mut profile = self.epoch_profile(b);
                if let Some(fault) = self.epoch_faults.counter {
                    if apply_counter_fault(&mut profile, fault, &mut self.stale_decide) {
                        if let Some(inj) = self.injector.as_mut() {
                            inj.note_counter_applied(fault);
                        }
                    }
                }
                if self.policy.is_per_channel() {
                    // §6 extension: independent operating points per channel.
                    let window = b - self.epoch_start;
                    let utils = self.mc.channel_utilizations(&self.epoch_chans, window);
                    let mut freqs = self.policy.decide_per_channel(&profile, &utils);
                    if let Some(cap) = self.injector.as_ref().and_then(FaultInjector::thermal_cap) {
                        for f in &mut freqs {
                            *f = (*f).min(cap);
                        }
                    }
                    for (ch, freq) in freqs.into_iter().enumerate() {
                        self.mc
                            .set_channel_frequency(memscale_types::ids::ChannelId(ch), freq, b);
                    }
                } else {
                    let requested = self.policy.decide(&profile);
                    self.apply_frequency(requested, b);
                }
            }
        } else if b == epoch_b {
            if self.policy.is_adaptive() {
                let mut measured = self.epoch_profile(b);
                if let Some(fault) = self.epoch_faults.counter {
                    // Same draw as the decision read; tallied once there.
                    apply_counter_fault(&mut measured, fault, &mut self.stale_measured);
                }
                self.policy.end_epoch(&measured);
            }
            self.epoch_start = b;
            self.profile_pending = true;
            self.snapshot_epoch(b);
            self.begin_epoch_faults(b);
        }
        Ok(())
    }

    /// Moves the memory system to `requested`, routing the switch through
    /// the fault injector: an active thermal throttle caps the grid, a
    /// drawn relock overrun extends the re-lock penalty, and an outright
    /// switch failure leaves the frequency unchanged — which the governor
    /// is told about so it can rebuild its slack account.
    fn apply_frequency(&mut self, requested: MemFreq, b: Picos) {
        let mut freq = requested;
        let current = self.mc.frequency();
        if let Some(inj) = self.injector.as_mut() {
            if let Some(cap) = inj.thermal_cap() {
                freq = freq.min(cap);
            }
            if freq != current {
                match inj.on_switch() {
                    Some(SwitchFault::Fail) => {
                        self.policy.note_switch_result(freq, current);
                        return;
                    }
                    Some(SwitchFault::Overrun(extra)) => self.mc.arm_relock_overrun(extra),
                    None => {}
                }
            }
        }
        self.mc.set_frequency(freq, b);
    }

    /// Draws the fault set for the epoch starting at `at` and applies the
    /// hardware-level perturbations that take effect immediately (refresh
    /// slip/drop, powerdown-exit spike). Counter and switch faults are held
    /// in `epoch_faults` until their injection points come round.
    fn begin_epoch_faults(&mut self, at: Picos) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let set = inj.begin_epoch();
        self.epoch_faults = set;
        if let Some(fault) = set.refresh {
            let by = match fault {
                RefreshFault::Slip(late) => late,
                RefreshFault::Drop => self.mc.refresh_interval(),
            };
            if self.mc.delay_refresh(by, at) > 0 {
                if let Some(inj) = self.injector.as_mut() {
                    inj.note_refresh_applied(fault);
                }
            }
        }
        if let Some(extra) = set.pd_exit_spike {
            self.mc.arm_pd_exit_spike(extra);
        }
    }

    fn snapshot_epoch(&mut self, at: Picos) {
        for (i, core) in self.cores.iter().enumerate() {
            self.epoch_cores[i] = core.counters_at(at);
        }
        self.epoch_mc = *self.mc.counters();
        self.epoch_ranks = self.mc.rank_stats();
        self.epoch_chans = self.mc.channel_stats();
    }

    fn epoch_profile(&self, at: Picos) -> EpochProfile {
        let window = at - self.epoch_start;
        let apps = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let d = core.counters_at(at).delta(&self.epoch_cores[i]);
                AppSample {
                    tic: d.tic,
                    tlm: d.tlm,
                }
            })
            .collect();
        let mc = self.mc.counters().delta(&self.epoch_mc);
        let ranks = self.mc.rank_stats();
        let chans = self.mc.channel_stats();
        let rank_d: Vec<_> = ranks
            .iter()
            .zip(&self.epoch_ranks)
            .map(|(now, then)| now.delta(then))
            .collect();
        let chan_d: Vec<_> = chans
            .iter()
            .zip(&self.epoch_chans)
            .map(|(now, then)| now.delta(then))
            .collect();
        let freq = self
            .mc
            .channel_frequencies()
            .into_iter()
            .max()
            .unwrap_or_else(|| self.mc.frequency());
        EpochProfile {
            window,
            freq,
            apps,
            mc,
            activity: ActivitySummary::from_deltas(&rank_d, &chan_d, window),
        }
    }

    fn integrate_segment(&mut self, b: Picos) {
        let window = b.saturating_sub(self.seg_start);
        if window == Picos::ZERO {
            return;
        }
        let ranks = self.mc.rank_stats();
        let chans = self.mc.channel_stats();
        let rank_d: Vec<_> = ranks
            .iter()
            .zip(&self.seg_ranks)
            .map(|(now, then)| now.delta(then))
            .collect();
        let chan_d: Vec<_> = chans
            .iter()
            .zip(&self.seg_chans)
            .map(|(now, then)| now.delta(then))
            .collect();
        let freqs = self.mc.channel_frequencies();
        let heterogeneous = freqs.windows(2).any(|w| w[0] != w[1]);
        let p = if heterogeneous {
            self.power
                .memory_power_heterogeneous(&rank_d, &chan_d, window, &freqs)
        } else {
            let interface = freqs[0];
            let device = self.policy.device_power_freq(interface);
            self.power
                .memory_power_split(&rank_d, &chan_d, window, device, interface)
        };
        self.energy.add(&p, 0.0, window);
        // Residency: average across channels (identical for tandem scaling).
        let share = window.as_ps() / freqs.len() as u64;
        for f in &freqs {
            self.freq_residency_ps[f.index()] += share;
        }
        self.seg_ranks = ranks;
        self.seg_chans = chans;
        self.seg_start = b;
    }

    fn sample_timeline(&mut self, b: Picos) -> Result<(), SimError> {
        let interval = self
            .cfg
            .timeline_interval
            .ok_or(SimError::TimelineDisabled)?;
        let window = interval.min(b);
        let cpu_cycle = self.cfg.system.cpu.cycle();
        let core_cpi = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let d = core.counters_at(b).delta(&self.tl_cores[i]);
                if d.tic == 0 {
                    0.0
                } else {
                    window.ratio(cpu_cycle) / d.tic as f64
                }
            })
            .collect();
        let chans = self.mc.channel_stats();
        let channel_util = chans
            .iter()
            .zip(&self.tl_chans)
            .map(|(now, then)| now.delta(then).utilization(window))
            .collect();
        for (i, core) in self.cores.iter().enumerate() {
            self.tl_cores[i] = core.counters_at(b);
        }
        self.tl_chans = chans;
        self.timeline.push(TimelineSample {
            at: b,
            bus_mhz: self.mc.frequency().mhz(),
            core_cpi,
            channel_util,
        });
        Ok(())
    }

    fn finish(mut self, end: Picos, rest_w: f64) -> RunResult {
        self.mc.sync(end.max(self.now));
        self.integrate_segment(end.max(self.seg_start));
        // Replay the rest of the run's command stream through the
        // independent conformance checker.
        let (audit, audit_peak_held) = self.audit.finish(&mut self.mc);
        let mut energy = self.energy;
        energy.rest_j = rest_w * energy.elapsed.as_secs_f64();
        let work = self
            .cores
            .iter()
            .map(|c| c.instructions_at(end))
            .collect::<Vec<_>>();
        let completion = self.completion.iter().map(|c| c.unwrap_or(end)).collect();
        let deep_pd_time = self
            .mc
            .rank_stats()
            .iter()
            .map(|s| s.deep_pd_time)
            .sum::<Picos>();
        // Fold the device-level applied tallies and the governor's
        // degradation counters into the injector's draw record.
        let faults = self.injector.as_mut().map(|inj| {
            let (_, pd_spikes) = self.mc.fault_stats();
            inj.note_pd_spikes(pd_spikes);
            let mut report = inj.report();
            if let Some(h) = self.policy.governor_health() {
                report.discarded_profiles = h.discarded_profiles;
                report.clamped_profiles = h.clamped_profiles;
                report.forced_max_epochs = h.forced_max_epochs;
                report.failed_switches = h.failed_switches;
            }
            report
        });
        RunResult {
            policy: self.policy.name().to_string(),
            mix: self.mix.name.to_string(),
            generation: self.cfg.system.timing.generation,
            duration: end,
            energy,
            rest_w,
            work,
            completion,
            counters: *self.mc.counters(),
            freq_residency_ps: self.freq_residency_ps,
            deep_pd_time,
            timeline: self.timeline,
            faults,
            requests: self
                .request_tracker
                .as_ref()
                .map(memscale_arrivals::RequestTracker::finalize),
            audit: Some(audit),
            audit_peak_held,
        }
    }
}

/// The live generator's miss sources for `mix` under `cfg`, one per core.
pub(crate) fn live_sources(mix: &Mix, cfg: &SimConfig) -> Vec<Box<dyn MissSource + Send>> {
    mix.traces(cfg.system.cpu.cores, cfg.slice_lines, cfg.seed)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn MissSource + Send>)
        .collect()
}

/// Perturbs one counter read per the drawn fault. Returns whether the fault
/// actually landed (a stale read with no previous window to replay is a
/// no-op). `cache` always ends up holding this window's clean values, so the
/// next stale read replays them.
fn apply_counter_fault(
    profile: &mut EpochProfile,
    fault: CounterFault,
    cache: &mut StaleCache,
) -> bool {
    let clean = (profile.apps.clone(), profile.mc);
    let applied = match fault {
        CounterFault::Corrupt { factor } => {
            // Overflow-style glitch: both the per-app instruction counters
            // and the controller's occupancy counters jump by orders of
            // magnitude, which the governor's plausibility check must trip.
            profile.mc.apply_fault(fault);
            for app in &mut profile.apps {
                app.tic = app.tic.saturating_mul(factor);
                app.tlm = app.tlm.saturating_mul(factor);
            }
            true
        }
        CounterFault::Drop => {
            profile.mc.apply_fault(fault);
            for app in &mut profile.apps {
                *app = AppSample::default();
            }
            true
        }
        CounterFault::Stale => match cache.as_ref() {
            Some((apps, mc)) if apps.len() == profile.apps.len() => {
                profile.apps.clone_from(apps);
                profile.mc = *mc;
                true
            }
            _ => false,
        },
    };
    *cache = Some(clean);
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        SimConfig::quick()
    }

    #[test]
    fn baseline_run_completes_and_accounts_energy() {
        let mix = Mix::by_name("MID1").unwrap();
        let sim = Simulation::new(&mix, PolicyKind::Baseline, &quick()).unwrap();
        let r = sim.run_for(Picos::from_ms(6), 60.0).unwrap();
        assert_eq!(r.duration, Picos::from_ms(6));
        assert!(r.energy.memory_total_j() > 0.0);
        assert!(r.energy.rest_j > 0.0);
        assert!(r.work.iter().all(|&w| w > 0));
        assert!(r.counters.reads > 1_000);
        // Baseline never leaves 800 MHz.
        assert!((r.residency(MemFreq::F800) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memscale_changes_frequency_on_ilp() {
        let mix = Mix::by_name("ILP2").unwrap();
        let sim = Simulation::new(&mix, PolicyKind::MemScale, &quick()).unwrap();
        let r = sim.run_for(Picos::from_ms(6), 60.0).unwrap();
        assert!(
            r.mean_frequency_mhz() < 700.0,
            "expected deep scaling, mean {} MHz",
            r.mean_frequency_mhz()
        );
    }

    #[test]
    fn fixed_work_mode_completes_targets() {
        let mix = Mix::by_name("MID1").unwrap();
        let base = Simulation::new(&mix, PolicyKind::Baseline, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        let sim = Simulation::new(&mix, PolicyKind::Baseline, &quick()).unwrap();
        let r = sim.run_until_work(&base.work, 60.0).unwrap();
        // Identical policy and seed: completion within a whisker of 6 ms.
        let diff = r.duration.as_ms_f64() - 6.0;
        assert!(diff.abs() < 0.5, "duration {} ms", r.duration.as_ms_f64());
        for (w, t) in base.work.iter().zip(&r.work) {
            assert!(t >= w);
        }
    }

    #[test]
    fn timeline_capture_produces_samples() {
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = quick().with_timeline(Picos::from_ms(1));
        let sim = Simulation::new(&mix, PolicyKind::Baseline, &cfg).unwrap();
        let r = sim.run_for(Picos::from_ms(6), 60.0).unwrap();
        assert_eq!(r.timeline.len(), 6);
        let s = &r.timeline[2];
        assert_eq!(s.bus_mhz, 800);
        assert_eq!(s.core_cpi.len(), 16);
        assert_eq!(s.channel_util.len(), 4);
        assert!(s.core_cpi.iter().any(|&c| c > 0.5));
    }

    #[test]
    fn runs_are_deterministic() {
        let mix = Mix::by_name("MEM4").unwrap();
        let a = Simulation::new(&mix, PolicyKind::MemScale, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        let b = Simulation::new(&mix, PolicyKind::MemScale, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        assert_eq!(a.work, b.work);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.freq_residency_ps, b.freq_residency_ps);
        assert!((a.energy.memory_total_j() - b.energy.memory_total_j()).abs() < 1e-12);
    }

    #[test]
    fn ddr4_run_is_audit_clean() {
        use memscale_types::config::MemGeneration;
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = SimConfig::quick().with_generation(MemGeneration::Ddr4);
        let r = Simulation::new(&mix, PolicyKind::MemScale, &cfg)
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        assert_eq!(r.generation, MemGeneration::Ddr4);
        assert!(r.counters.reads > 1_000);
        let report = r.audit.as_ref().expect("audit report");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn lpddr3_deep_pd_run_is_audit_clean_and_tracks_residency() {
        use memscale_types::config::MemGeneration;
        let mix = Mix::by_name("ILP2").unwrap();
        let cfg = SimConfig::quick().with_generation(MemGeneration::Lpddr3);
        let r = Simulation::new(&mix, PolicyKind::DeepPd, &cfg)
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        assert_eq!(r.generation, MemGeneration::Lpddr3);
        assert!(r.counters.edpc > 0, "no deep power-down exits recorded");
        assert!(r.deep_pd_time > Picos::ZERO);
        assert!(r.deep_pd_residency(16) > 0.0);
        let report = r.audit.as_ref().expect("audit report");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn deep_pd_policy_rejected_outside_lpddr() {
        use memscale_types::config::MemGeneration;
        let mix = Mix::by_name("MID1").unwrap();
        let cfg = SimConfig::quick().with_generation(MemGeneration::Ddr4);
        let err = Simulation::new(&mix, PolicyKind::DeepPd, &cfg).unwrap_err();
        assert!(
            matches!(err, SimError::PolicyUnavailable { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(
            err.to_string(),
            "DDR4: policy Deep-PD is not available on this generation"
        );
    }

    #[test]
    fn fast_pd_accumulates_powerdown_residency() {
        let mix = Mix::by_name("ILP2").unwrap();
        let base = Simulation::new(&mix, PolicyKind::Baseline, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        let pd = Simulation::new(&mix, PolicyKind::FastPd, &quick())
            .unwrap()
            .run_for(Picos::from_ms(6), 60.0)
            .unwrap();
        assert!(pd.counters.epdc > 0, "no powerdown exits recorded");
        assert!(
            pd.energy.memory_total_j() < base.energy.memory_total_j(),
            "fast powerdown should save DRAM energy"
        );
    }
}
