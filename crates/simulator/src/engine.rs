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
use crate::slo::{request_sources, request_tracker};
use memscale::policies::{Policy, PolicyKind};
use memscale::profile::{AppSample, EpochProfile};
use memscale_cpu::{CoreCounters, CoreState, InOrderCore};
use memscale_dram::{ChannelStats, RankStats};
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

/// One reading of the counters the engine integrates over windows: each
/// core's TIC/TLM (§3.1), the controller's counters, and every rank's and
/// channel's cumulative statistics. Each boundary takes one; the epoch
/// profile, the energy segment and the timeline sample are its
/// [`since`](Reading::since) deltas against the reading that opened their
/// window.
#[derive(Debug, Clone)]
struct Reading {
    /// When it was taken; in a delta, the window's length.
    at: Picos,
    cores: Vec<CoreCounters>,
    mc: McCounters,
    ranks: Vec<RankStats>,
    chans: Vec<ChannelStats>,
}

impl Reading {
    /// Reads every counter at `at` (after the controller's `sync(at)`).
    fn take(at: Picos, cores: &[InOrderCore], mc: &MemoryController) -> Self {
        Reading {
            at,
            cores: cores.iter().map(|core| core.counters_at(at)).collect(),
            mc: *mc.counters(),
            ranks: mc.rank_stats(),
            chans: mc.channel_stats(),
        }
    }

    /// The growth of every counter over the window since `earlier`.
    fn since(&self, earlier: &Reading) -> Reading {
        fn deltas<T>(now: &[T], then: &[T], delta: fn(&T, &T) -> T) -> Vec<T> {
            now.iter().zip(then).map(|(n, t)| delta(n, t)).collect()
        }
        Reading {
            at: self.at - earlier.at,
            cores: deltas(&self.cores, &earlier.cores, CoreCounters::delta),
            mc: self.mc.delta(&earlier.mc),
            ranks: deltas(&self.ranks, &earlier.ranks, RankStats::delta),
            chans: deltas(&self.chans, &earlier.chans, ChannelStats::delta),
        }
    }
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
    heap: BinaryHeap<Reverse<(Picos, usize)>>,
    mc: MemoryController,

    // The readings that opened the current epoch, energy segment and
    // timeline interval.
    epoch: Reading,
    profile_pending: bool,
    segment: Reading,
    sampled: Reading,
    energy: EnergyAccount,
    freq_residency_ps: Vec<u64>,
    timeline: Vec<TimelineSample>,
    tl_next: Option<Picos>,

    // Work targets (None = fixed-duration baseline mode).
    targets: Option<Vec<u64>>,
    completion: Vec<Option<Picos>>,
    remaining_targets: usize,

    // Cooperative cancellation: checked at epoch boundaries, so raising
    // the token stops the run within one epoch of simulated progress.
    cancel: CancelToken,

    // Open-loop request-latency tracking (None for batch runs). Built
    // from the config's service workload, fed one observation per served
    // miss (tagged with the instant the memory wait finished), and folded
    // into the result at finish.
    request_tracker: Option<memscale_arrivals::RequestTracker>,

    // Fault injection (None unless the config carries an active plan; the
    // clean path is then byte-identical to a build without the subsystem).
    injector: Option<FaultInjector>,
    epoch_faults: memscale_faults::EpochFaultSet,
    stale_decide: StaleCache,
    stale_measured: StaleCache,

    /// The streamed conformance audit of the run's command stream (`None`
    /// when the config turns the audit off: nothing is recorded then).
    audit: Option<AuditStream>,
}

impl Simulation {
    /// Builds a simulation of `mix` under `policy_kind`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid configuration
    /// (see [`SimConfig::validate`]), [`SimError::PolicyUnavailable`] if
    /// the policy does not exist on the configured memory generation (e.g.
    /// deep power-down outside LPDDR), and [`SimError::InvalidFaultPlan`]
    /// for an out-of-bounds fault plan.
    pub fn new(mix: &Mix, policy_kind: PolicyKind, cfg: &SimConfig) -> Result<Self, SimError> {
        Simulation::with_sources(mix, policy_kind, cfg, live_sources(mix, cfg))
    }

    /// Builds a simulation of `mix` under `policy_kind` whose miss events
    /// come from `sources` (one per core) instead of the live generator —
    /// the replay entry point ([`memscale_trace::ReplayTrace::streams`]
    /// supplies such sources from a recorded artifact). When `cfg` carries
    /// a service workload, the run tracks its requests and the result
    /// reports their latencies ([`RunResult::requests`]). When `cfg` asks
    /// for the audit ([`SimConfig::audit`]), the controller records every
    /// DRAM command and the run streams them through the protocol auditor
    /// ([`RunResult::audit`]); otherwise nothing is recorded.
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
        cfg.validate()?;
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
        mc.set_event_recording(cfg.audit);
        let audit = cfg
            .audit
            .then(|| AuditStream::new(&system, policy.initial_frequency()));

        let n = system.cpu.cores;
        let start = Reading::take(Picos::ZERO, &cores, &mc);
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
            heap: BinaryHeap::with_capacity(n + 1),
            mc,
            epoch: start.clone(),
            profile_pending: true,
            segment: start.clone(),
            sampled: start,
            energy: EnergyAccount::new(),
            freq_residency_ps: vec![0; MemFreq::ALL.len()],
            timeline: Vec::new(),
            tl_next: cfg.timeline_interval.map(|i| Picos::ZERO + i),
            targets: None,
            completion: vec![None; n],
            remaining_targets: 0,
            cancel: CancelToken::new(),
            request_tracker: cfg.service.as_ref().map(|svc| request_tracker(cfg, svc)),
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
            self.handle_boundary(boundary);
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
            self.epoch.at + self.cfg.governor.profile_len
        } else {
            self.epoch.at + self.cfg.governor.epoch
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
        match self.cores[c].state() {
            CoreState::Computing {
                since,
                until,
                instructions,
            } => {
                // Work-target crossing with intra-interval interpolation.
                if let Some(targets) = self.targets.as_ref() {
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
                if let Some(audit) = self.audit.as_mut() {
                    audit.poll(&mut self.mc, t);
                }
                self.cores[c].start_memory_wait(t);
                self.heap.push(Reverse((res.completion, c)));
            }
            // Waiting for memory; an idle core here is an engine bug and
            // panics in `finish_memory_wait`.
            _ => {
                self.cores[c].finish_memory_wait(t);
                if let Some(tracker) = self.request_tracker.as_mut() {
                    tracker.note_miss(c, t);
                }
                let ev = self.pull_miss(c, t)?;
                let done = self.cores[c].start_compute(t, ev.gap_instructions);
                self.pending[c] = Some(ev);
                self.heap.push(Reverse((done, c)));
            }
        }
        Ok(())
    }

    fn handle_boundary(&mut self, b: Picos) {
        self.mc.sync(b);
        let now = Reading::take(b, &self.cores, &self.mc);
        self.integrate_segment(&now);

        if self.tl_next == Some(b) {
            self.sample_timeline(&now);
            self.tl_next = self.cfg.timeline_interval.map(|i| b + i);
        }

        let profile_b = self.epoch.at + self.cfg.governor.profile_len;
        let epoch_b = self.epoch.at + self.cfg.governor.epoch;
        if self.profile_pending && b == profile_b {
            self.profile_pending = false;
            if self.policy.is_adaptive() {
                let window = now.since(&self.epoch);
                let mut profile = self.epoch_profile(&window);
                if let Some(fault) = self.epoch_faults.counter {
                    if apply_counter_fault(&mut profile, fault, &mut self.stale_decide) {
                        if let Some(inj) = self.injector.as_mut() {
                            inj.note_counter_applied(fault);
                        }
                    }
                }
                if self.policy.is_per_channel() {
                    // §6 extension: independent operating points per channel.
                    let utils: Vec<f64> = window
                        .chans
                        .iter()
                        .map(|d| d.utilization(window.at))
                        .collect();
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
                let mut measured = self.epoch_profile(&now.since(&self.epoch));
                if let Some(fault) = self.epoch_faults.counter {
                    // Same draw as the decision read; tallied once there.
                    apply_counter_fault(&mut measured, fault, &mut self.stale_measured);
                }
                self.policy.end_epoch(&measured);
            }
            self.epoch = now;
            self.profile_pending = true;
            self.begin_epoch_faults(b);
        }
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

    /// The governor's view of `window`, a delta of two readings.
    fn epoch_profile(&self, window: &Reading) -> EpochProfile {
        let freq = self
            .mc
            .channel_frequencies()
            .into_iter()
            .max()
            .unwrap_or_else(|| self.mc.frequency());
        EpochProfile {
            window: window.at,
            freq,
            apps: window.cores.clone(),
            mc: window.mc,
            activity: ActivitySummary::from_deltas(&window.ranks, &window.chans, window.at),
        }
    }

    /// Charges the energy of the segment that `now` closes. A boundary at
    /// or before the segment's start (a second one at the same instant)
    /// closes nothing.
    fn integrate_segment(&mut self, now: &Reading) {
        if now.at <= self.segment.at {
            return;
        }
        let d = now.since(&self.segment);
        let freqs = self.mc.channel_frequencies();
        let heterogeneous = freqs.windows(2).any(|w| w[0] != w[1]);
        let p = if heterogeneous {
            self.power
                .memory_power_heterogeneous(&d.ranks, &d.chans, d.at, &freqs)
        } else {
            let interface = freqs[0];
            let device = self.policy.device_power_freq(interface);
            self.power
                .memory_power_split(&d.ranks, &d.chans, d.at, device, interface)
        };
        self.energy.add(&p, 0.0, d.at);
        // Residency: average across channels (identical for tandem scaling).
        let share = d.at.as_ps() / freqs.len() as u64;
        for f in &freqs {
            self.freq_residency_ps[f.index()] += share;
        }
        self.segment = now.clone();
    }

    /// Records the timeline sample of the interval that `now` closes.
    fn sample_timeline(&mut self, now: &Reading) {
        let d = now.since(&self.sampled);
        let core_cpi = self
            .cores
            .iter()
            .zip(&d.cores)
            .map(|(core, c)| core.observed_cpi(c, d.at).unwrap_or(0.0))
            .collect();
        let channel_util = d.chans.iter().map(|c| c.utilization(d.at)).collect();
        self.timeline.push(TimelineSample {
            at: now.at,
            bus_mhz: self.mc.frequency().mhz(),
            core_cpi,
            channel_util,
        });
        self.sampled = now.clone();
    }

    fn finish(mut self, end: Picos, rest_w: f64) -> RunResult {
        self.mc.sync(end.max(self.now));
        let last = Reading::take(end.max(self.segment.at), &self.cores, &self.mc);
        self.integrate_segment(&last);
        // Replay the rest of the run's command stream through the
        // independent conformance checker.
        let (audit, audit_peak_held) = self
            .audit
            .take()
            .map(|stream| stream.finish(&mut self.mc))
            .unzip();
        let mut energy = self.energy;
        energy.rest_j = rest_w * energy.elapsed.as_secs_f64();
        let work = self
            .cores
            .iter()
            .map(|c| c.instructions_at(end))
            .collect::<Vec<_>>();
        let completion = self.completion.iter().map(|c| c.unwrap_or(end)).collect();
        let deep_pd_time = last.ranks.iter().map(|s| s.deep_pd_time).sum::<Picos>();
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
            audit,
            audit_peak_held: audit_peak_held.unwrap_or(0),
        }
    }
}

/// The live generator's miss sources for `mix` under `cfg`, one per core:
/// the request stream of `cfg`'s service workload when it has one, the
/// mix's batch traces otherwise.
pub(crate) fn live_sources(mix: &Mix, cfg: &SimConfig) -> Vec<Box<dyn MissSource + Send>> {
    if let Some(svc) = &cfg.service {
        return request_sources(mix, cfg, svc);
    }
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

    /// The message of the [`SimError::InvalidConfig`] that building a run
    /// of `cfg` returns (`None` when the run builds).
    fn refused(cfg: &SimConfig) -> Option<String> {
        let mix = Mix::by_name("ILP2").unwrap();
        match Simulation::new(&mix, PolicyKind::MemScale, cfg).err()? {
            SimError::InvalidConfig(e) => Some(e.to_string()),
            other => panic!("expected an invalid configuration, got {other}"),
        }
    }

    #[test]
    fn zero_epoch_is_refused() {
        let mut cfg = quick();
        cfg.governor.epoch = Picos::ZERO;
        let msg = refused(&cfg).expect("refused");
        assert!(msg.contains("epoch must be > 0"), "{msg}");
    }

    #[test]
    fn profile_reaching_the_epoch_end_is_refused() {
        let mut cfg = quick();
        cfg.governor.epoch = Picos::from_us(300);
        let msg = refused(&cfg).expect("refused");
        assert!(
            msg.contains("profile_len (300us) must be shorter than the epoch (300us)"),
            "{msg}"
        );
        cfg.governor.epoch = Picos::from_us(200);
        assert!(refused(&cfg).is_some());
        cfg.governor.epoch = Picos::from_us(301);
        assert_eq!(refused(&cfg), None);
    }

    #[test]
    fn zero_timeline_interval_is_refused() {
        let msg = refused(&quick().with_timeline(Picos::ZERO)).expect("refused");
        assert!(msg.contains("timeline_interval must be > 0"), "{msg}");
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
