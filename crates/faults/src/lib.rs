//! `memscale-faults` — seeded, deterministic fault injector.
//!
//! The MemScale reproduction only exercises the happy path unless told
//! otherwise: counters are exact, relocks finish on budget, refreshes never
//! slip. This crate turns a [`FaultPlan`] into a replayable stream of
//! perturbations across five injection points:
//!
//! 1. **Counter reads** (§3.1) — the `EpochProfile` handed to the governor
//!    is corrupted, stale, or dropped ([`CounterFault`]).
//! 2. **Frequency switches** — relock overruns and outright failures
//!    ([`SwitchFault`]).
//! 3. **Refresh** — REFs slip late or drop within the postponement window
//!    ([`RefreshFault`]).
//! 4. **Thermal throttling** — the frequency grid is capped for a bounded
//!    number of epochs.
//! 5. **Powerdown exits** — tXP/tXPDLL overrun spikes.
//!
//! All randomness flows from one [`SplitMix64`] stream seeded by the
//! plan, so the same plan over the same run injects the same faults. The
//! injector never touches simulator state itself: the engine asks it what to
//! inject ([`FaultInjector::begin_epoch`], [`FaultInjector::on_switch`]) and
//! drives the mechanism hooks in `dram`/`mc`, then records what actually
//! landed so [`FaultInjector::report`] reflects applied — not merely drawn —
//! faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use memscale_types::faults::{CounterFault, FaultPlan, RefreshFault, SwitchFault};
use memscale_types::freq::MemFreq;
use memscale_types::rng::SplitMix64;
use memscale_types::time::Picos;

/// The faults drawn for one epoch, to be applied by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochFaultSet {
    /// Perturbation of the counter read delivered to the governor.
    pub counter: Option<CounterFault>,
    /// Refresh-schedule perturbation for this epoch.
    pub refresh: Option<RefreshFault>,
    /// Whether a thermal-throttle event starts this epoch.
    pub thermal_started: bool,
    /// Powerdown-exit latency spike armed for this epoch.
    pub pd_exit_spike: Option<Picos>,
}

/// What actually landed over a fault run, summed across injection points
/// and merged with the governor's degradation counters by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Seed the injector ran with.
    pub seed: u64,
    /// Counter reads corrupted (multiplied by a large factor).
    pub counter_corrupted: u64,
    /// Counter reads replaced by the previous window's values.
    pub counter_stale: u64,
    /// Counter reads dropped (all-zero).
    pub counter_dropped: u64,
    /// Relock overruns applied to frequency switches.
    pub relock_overruns: u64,
    /// Frequency switches that failed outright.
    pub switch_failures: u64,
    /// REF commands slipped late within the arrears window.
    pub refresh_slips: u64,
    /// REF intervals dropped outright.
    pub refresh_drops: u64,
    /// Thermal-throttle events started.
    pub thermal_events: u64,
    /// Powerdown exits that consumed a latency spike.
    pub pd_exit_spikes: u64,
    /// Poisoned profiles the governor discarded (fell back to last-good).
    pub discarded_profiles: u64,
    /// Profiles the governor clamped into plausibility.
    pub clamped_profiles: u64,
    /// Epochs the governor forced to `f_max` (`QoS` guard / failed switch).
    pub forced_max_epochs: u64,
    /// Switch attempts the governor observed landing on the wrong frequency.
    pub failed_switches: u64,
}

impl FaultReport {
    /// Total faults injected into the hardware/counter path.
    pub fn total_injected(&self) -> u64 {
        self.counter_corrupted
            + self.counter_stale
            + self.counter_dropped
            + self.relock_overruns
            + self.switch_failures
            + self.refresh_slips
            + self.refresh_drops
            + self.thermal_events
            + self.pd_exit_spikes
    }
}

/// Seeded runtime injector: draws from a [`FaultPlan`] and tracks both the
/// thermal-throttle interval and the applied-fault tally.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    thermal_remaining: u32,
    report: FaultReport,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        let report = FaultReport {
            seed: plan.seed,
            ..FaultReport::default()
        };
        FaultInjector {
            plan,
            rng,
            thermal_remaining: 0,
            report,
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the fault set for the next epoch and advances the thermal
    /// throttle interval. Call exactly once per epoch, in epoch order.
    pub fn begin_epoch(&mut self) -> EpochFaultSet {
        let mut set = EpochFaultSet::default();
        if self.rng.chance(self.plan.counter_rate) {
            set.counter = Some(match self.rng.range(0, 3) {
                0 => CounterFault::Corrupt {
                    // Overflow-style glitch: large enough that plausibility
                    // checks must trip, never a near-miss.
                    factor: self.rng.range(1 << 13, 1 << 17),
                },
                1 => CounterFault::Stale,
                _ => CounterFault::Drop,
            });
        }
        if self.rng.chance(self.plan.refresh_rate) {
            set.refresh = Some(if self.rng.chance(0.5) {
                let late = self.rng.range(1, self.plan.refresh_slip.as_ps().max(2));
                RefreshFault::Slip(Picos::from_ps(late))
            } else {
                RefreshFault::Drop
            });
        }
        if self.thermal_remaining > 0 {
            self.thermal_remaining -= 1;
        } else if self.rng.chance(self.plan.thermal_rate) {
            self.thermal_remaining = self.plan.thermal_epochs;
            set.thermal_started = true;
            self.report.thermal_events += 1;
        }
        if self.rng.chance(self.plan.pd_exit_rate) {
            set.pd_exit_spike = Some(self.plan.pd_exit_extra);
        }
        set
    }

    /// The frequency cap currently imposed by an active thermal-throttle
    /// event, if any.
    pub fn thermal_cap(&self) -> Option<MemFreq> {
        (self.thermal_remaining > 0).then_some(self.plan.thermal_cap)
    }

    /// Draws the fault (if any) perturbing one frequency-switch attempt.
    pub fn on_switch(&mut self) -> Option<SwitchFault> {
        if self.rng.chance(self.plan.switch_fail_rate) {
            self.report.switch_failures += 1;
            return Some(SwitchFault::Fail);
        }
        if self.rng.chance(self.plan.relock_rate) {
            self.report.relock_overruns += 1;
            return Some(SwitchFault::Overrun(self.plan.relock_overrun));
        }
        None
    }

    /// Records a counter fault the engine actually delivered.
    pub fn note_counter_applied(&mut self, fault: CounterFault) {
        match fault {
            CounterFault::Corrupt { .. } => self.report.counter_corrupted += 1,
            CounterFault::Stale => self.report.counter_stale += 1,
            CounterFault::Drop => self.report.counter_dropped += 1,
        }
    }

    /// Records a refresh fault the memory controller actually applied
    /// (injection is skipped when the rank's arrears window is full).
    pub fn note_refresh_applied(&mut self, fault: RefreshFault) {
        match fault {
            RefreshFault::Slip(_) => self.report.refresh_slips += 1,
            RefreshFault::Drop => self.report.refresh_drops += 1,
        }
    }

    /// Records powerdown exits that consumed an armed latency spike.
    pub fn note_pd_spikes(&mut self, exits: u64) {
        self.report.pd_exit_spikes = exits;
    }

    /// The applied-fault tally so far. Governor-side degradation counters
    /// (`discarded_profiles` …) are merged in by the engine at run end.
    pub fn report(&self) -> FaultReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The injector draws the plan seed's own splitmix64 stream, so a fault
    /// schedule is named by its seed alone.
    #[test]
    fn rng_is_deterministic_and_uniform_ish() {
        let mut a = FaultInjector::new(FaultPlan::uniform(42, 0.5)).rng;
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = FaultInjector::new(FaultPlan::uniform(7, 0.5)).rng;
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let mut r = FaultInjector::new(FaultPlan::uniform(9, 0.5)).rng;
        for _ in 0..1000 {
            assert!((10..20).contains(&r.range(10, 20)));
        }
    }

    #[test]
    fn inert_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..1000 {
            let set = inj.begin_epoch();
            assert_eq!(set, EpochFaultSet::default());
            assert!(inj.on_switch().is_none());
            assert!(inj.thermal_cap().is_none());
        }
        assert_eq!(inj.report().total_injected(), 0);
    }

    #[test]
    fn same_seed_replays_identically() {
        let plan = FaultPlan::uniform(123, 0.5);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..500 {
            assert_eq!(a.begin_epoch(), b.begin_epoch());
            assert_eq!(a.on_switch(), b.on_switch());
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn uniform_plan_fires_every_class() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(7, 0.8));
        let mut saw_counter = false;
        let mut saw_refresh = false;
        let mut saw_pd = false;
        for _ in 0..200 {
            let set = inj.begin_epoch();
            if let Some(c) = set.counter {
                saw_counter = true;
                inj.note_counter_applied(c);
                if let CounterFault::Corrupt { factor } = c {
                    assert!(factor >= 1 << 13);
                }
            }
            if let Some(r) = set.refresh {
                saw_refresh = true;
                inj.note_refresh_applied(r);
            }
            saw_pd |= set.pd_exit_spike.is_some();
            inj.on_switch();
        }
        assert!(saw_counter && saw_refresh && saw_pd);
        let rep = inj.report();
        assert!(rep.thermal_events > 0);
        assert!(rep.switch_failures > 0);
        assert!(rep.relock_overruns > 0);
        assert!(rep.total_injected() > 0);
    }

    #[test]
    fn thermal_cap_spans_configured_epochs() {
        let plan = FaultPlan {
            thermal_rate: 1.0,
            thermal_epochs: 3,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        let set = inj.begin_epoch();
        assert!(set.thermal_started);
        assert_eq!(inj.thermal_cap(), Some(MemFreq::F400));
        // The event holds for `thermal_epochs` epochs before it can re-arm.
        let mut active = 1;
        while inj.thermal_cap().is_some() && !inj.begin_epoch().thermal_started {
            active += 1;
            assert!(active < 100, "throttle never ends");
        }
        assert!(active >= 3);
    }
}
