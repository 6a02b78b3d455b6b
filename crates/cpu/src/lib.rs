//! Analytic in-order multicore CPU model.
//!
//! Mirrors the processor model of §3.3 of the paper: each core is in-order,
//! retires non-missing instructions at a fixed CPI, and blocks on exactly
//! one outstanding LLC miss at a time, so any increase in memory access time
//! translates directly into execution time. Writebacks do not block.
//!
//! The model is analytic rather than cycle-stepped: a core alternates
//! between *compute* intervals (whose duration is `instructions × CPI ×
//! cycle time`) and *memory wait* intervals (whose end the memory controller
//! supplies). The simulator crate drives these transitions from its event
//! loop; this crate owns the per-core state and the TIC/TLM instruction
//! counters the MemScale policy reads (§3.1).
//!
//! # Example
//!
//! ```
//! use memscale_cpu::{CoreState, InOrderCore};
//! use memscale_types::ids::CoreId;
//! use memscale_types::time::Picos;
//!
//! let mut core = InOrderCore::new(CoreId(0), 1.0, Picos::from_ps(250));
//! let done = core.start_compute(Picos::ZERO, 1_000);
//! assert_eq!(done, Picos::from_ns(250)); // 1000 instr × CPI 1 × 250 ps
//! core.finish_compute(done);
//! assert_eq!(core.instructions_retired(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use memscale_types::ids::CoreId;
use memscale_types::time::Picos;

/// What a core is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Retiring instructions; finishes at `until`.
    Computing {
        /// When this compute interval began.
        since: Picos,
        /// When it retires its last instruction.
        until: Picos,
        /// Instructions in the interval.
        instructions: u64,
    },
    /// Blocked on an outstanding LLC miss.
    WaitingForMemory {
        /// When the miss issued.
        since: Picos,
    },
    /// Not yet started or between transitions.
    Idle,
}

/// Snapshot of a core's §3.1 instruction counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreCounters {
    /// Total Instructions Committed.
    pub tic: u64,
    /// Total LLC misses (demand reads to main memory).
    pub tlm: u64,
}

impl CoreCounters {
    /// Counter delta since an `earlier` snapshot.
    pub fn delta(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            tic: self.tic - earlier.tic,
            tlm: self.tlm - earlier.tlm,
        }
    }

    /// Fraction of instructions that miss the LLC (the model's α).
    pub fn alpha(&self) -> f64 {
        if self.tic == 0 {
            0.0
        } else {
            self.tlm as f64 / self.tic as f64
        }
    }

    /// Measured seconds per instruction over `window`, for a delta.
    /// Returns `None` when no instruction retired.
    pub fn tpi_secs(&self, window: Picos) -> Option<f64> {
        if self.tic == 0 {
            None
        } else {
            Some(window.as_secs_f64() / self.tic as f64)
        }
    }
}

/// One in-order core with a single outstanding LLC miss.
#[derive(Debug, Clone)]
pub struct InOrderCore {
    id: CoreId,
    cpi: f64,
    cycle: Picos,
    state: CoreState,
    instructions_retired: u64,
    misses: u64,
    mem_wait: Picos,
    compute_time: Picos,
}

impl InOrderCore {
    /// Creates an idle core retiring non-missing instructions at `cpi`
    /// cycles per instruction with the given clock `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cpi` is not positive or `cycle` is zero.
    pub fn new(id: CoreId, cpi: f64, cycle: Picos) -> Self {
        assert!(cpi > 0.0, "CPI must be positive");
        assert!(cycle > Picos::ZERO, "cycle time must be positive");
        InOrderCore {
            id,
            cpi,
            cycle,
            state: CoreState::Idle,
            instructions_retired: 0,
            misses: 0,
            mem_wait: Picos::ZERO,
            compute_time: Picos::ZERO,
        }
    }

    /// This core's identifier.
    #[inline]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Instructions retired in *completed* compute intervals.
    #[inline]
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// LLC misses issued.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total time spent blocked on memory.
    #[inline]
    pub fn memory_wait(&self) -> Picos {
        self.mem_wait
    }

    /// Total time spent computing (completed intervals).
    #[inline]
    pub fn compute_time(&self) -> Picos {
        self.compute_time
    }

    /// Duration of a compute interval of `instructions` instructions.
    #[inline]
    pub fn compute_duration(&self, instructions: u64) -> Picos {
        self.cycle.scale(self.cpi * instructions as f64)
    }

    /// Begins computing `instructions` instructions at `now`; returns the
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if the core is already computing or waiting.
    pub fn start_compute(&mut self, now: Picos, instructions: u64) -> Picos {
        assert!(
            matches!(self.state, CoreState::Idle),
            "core {} busy at {now}",
            self.id
        );
        let until = now + self.compute_duration(instructions);
        self.state = CoreState::Computing {
            since: now,
            until,
            instructions,
        };
        until
    }

    /// Completes the current compute interval at `now`, retiring its
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if the core is not computing.
    pub fn finish_compute(&mut self, now: Picos) {
        match self.state {
            CoreState::Computing {
                since,
                instructions,
                ..
            } => {
                self.instructions_retired += instructions;
                self.compute_time += now.saturating_sub(since);
                self.state = CoreState::Idle;
            }
            _ => panic!("core {} not computing at {now}", self.id),
        }
    }

    /// Issues the core's LLC miss at `now`; it blocks until
    /// [`finish_memory_wait`](Self::finish_memory_wait).
    ///
    /// # Panics
    ///
    /// Panics if the core is not idle.
    pub fn start_memory_wait(&mut self, now: Picos) {
        assert!(
            matches!(self.state, CoreState::Idle),
            "core {} busy at {now}",
            self.id
        );
        self.misses += 1;
        self.state = CoreState::WaitingForMemory { since: now };
    }

    /// Unblocks the core at `now` (its miss completed).
    ///
    /// # Panics
    ///
    /// Panics if the core is not waiting for memory.
    pub fn finish_memory_wait(&mut self, now: Picos) {
        match self.state {
            CoreState::WaitingForMemory { since } => {
                self.mem_wait += now.saturating_sub(since);
                self.state = CoreState::Idle;
            }
            _ => panic!("core {} not waiting at {now}", self.id),
        }
    }

    /// Instructions retired by time `now`, pro-rating a compute interval in
    /// progress — the basis of the TIC counter at arbitrary sampling points.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // frac is in [0, 1]
    pub fn instructions_at(&self, now: Picos) -> u64 {
        match self.state {
            CoreState::Computing {
                since,
                until,
                instructions,
            } if now < until => {
                let frac = (now.saturating_sub(since)).ratio(until - since);
                self.instructions_retired + (instructions as f64 * frac) as u64
            }
            CoreState::Computing { instructions, .. } => self.instructions_retired + instructions,
            _ => self.instructions_retired,
        }
    }

    /// TIC/TLM counter snapshot at `now`.
    pub fn counters_at(&self, now: Picos) -> CoreCounters {
        CoreCounters {
            tic: self.instructions_at(now),
            tlm: self.misses,
        }
    }

    /// Observed CPI over `[from, to)` given counter snapshots at both ends.
    /// Returns `None` if no instruction retired in the window.
    pub fn observed_cpi(&self, delta: &CoreCounters, window: Picos) -> Option<f64> {
        if delta.tic == 0 {
            return None;
        }
        let cycles = window.ratio(self.cycle);
        Some(cycles / delta.tic as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> InOrderCore {
        InOrderCore::new(CoreId(0), 1.0, Picos::from_ps(250))
    }

    #[test]
    fn compute_duration_follows_cpi() {
        let c = InOrderCore::new(CoreId(0), 2.0, Picos::from_ps(250));
        assert_eq!(c.compute_duration(1_000), Picos::from_ns(500));
    }

    #[test]
    fn compute_cycle_retires_instructions() {
        let mut c = core();
        let done = c.start_compute(Picos::ZERO, 4_000);
        assert_eq!(done, Picos::from_us(1));
        assert_eq!(c.instructions_retired(), 0);
        c.finish_compute(done);
        assert_eq!(c.instructions_retired(), 4_000);
        assert_eq!(c.compute_time(), Picos::from_us(1));
    }

    #[test]
    fn memory_wait_accumulates() {
        let mut c = core();
        c.start_memory_wait(Picos::ZERO);
        assert_eq!(c.misses(), 1);
        c.finish_memory_wait(Picos::from_ns(60));
        assert_eq!(c.memory_wait(), Picos::from_ns(60));
        assert!(matches!(c.state(), CoreState::Idle));
    }

    #[test]
    fn instructions_interpolate_mid_interval() {
        let mut c = core();
        c.start_compute(Picos::ZERO, 1_000);
        assert_eq!(c.instructions_at(Picos::from_ns(125)), 500);
        assert_eq!(c.instructions_at(Picos::from_ns(250)), 1_000);
        assert_eq!(c.instructions_at(Picos::from_ns(999)), 1_000);
    }

    #[test]
    fn counters_and_alpha() {
        let mut c = core();
        let done = c.start_compute(Picos::ZERO, 1_000);
        c.finish_compute(done);
        c.start_memory_wait(done);
        let snap = c.counters_at(done);
        assert_eq!(snap.tic, 1_000);
        assert_eq!(snap.tlm, 1);
        assert!((snap.alpha() - 0.001).abs() < 1e-12);
        assert_eq!(CoreCounters::default().alpha(), 0.0);
    }

    #[test]
    fn counter_delta() {
        let a = CoreCounters { tic: 100, tlm: 2 };
        let b = CoreCounters { tic: 350, tlm: 7 };
        let d = b.delta(&a);
        assert_eq!(d.tic, 250);
        assert_eq!(d.tlm, 5);
    }

    #[test]
    fn observed_cpi() {
        let c = core();
        let delta = CoreCounters { tic: 1_000, tlm: 0 };
        // 1000 instructions in 500 ns at 4 GHz = 2000 cycles -> CPI 2.
        let cpi = c.observed_cpi(&delta, Picos::from_ns(500)).unwrap();
        assert!((cpi - 2.0).abs() < 1e-12);
        assert_eq!(
            c.observed_cpi(&CoreCounters::default(), Picos::from_ns(1)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_compute_panics() {
        let mut c = core();
        c.start_compute(Picos::ZERO, 10);
        c.start_compute(Picos::ZERO, 10);
    }

    #[test]
    #[should_panic(expected = "not waiting")]
    fn finish_wait_when_idle_panics() {
        let mut c = core();
        c.finish_memory_wait(Picos::ZERO);
    }
}
