//! Service-request latency statistics and SLO targets.
//!
//! The arrivals subsystem (`memscale-arrivals`) injects open-loop service
//! requests into a run and measures each request's submit-to-complete
//! latency. These are the plain-data types the rest of the stack speaks:
//! the simulator attaches a [`RequestStats`] to its `RunResult`, the `slo`
//! CLI subcommand and the sweep server judge policies against an
//! [`SloSpec`]. Keeping them here (dependency-free) lets the serve layer
//! carry SLO verdicts without depending on the simulator or the arrivals
//! crate.

use crate::time::Picos;

/// A service-level objective on request latency.
///
/// The only objective modeled today is a tail-latency bound: the p99
/// request latency must stay at or below `p99_ms`. Violations are counted
/// per *request* (every request slower than the bound), so a breach is
/// visible both in the aggregate percentile and in the raw count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The p99 latency bound, in milliseconds of simulated time.
    pub p99_ms: f64,
}

impl SloSpec {
    /// Creates a p99 latency objective.
    ///
    /// # Panics
    ///
    /// Panics if `p99_ms` is not finite and positive.
    pub fn p99(p99_ms: f64) -> Self {
        assert!(
            p99_ms.is_finite() && p99_ms > 0.0,
            "SLO p99 bound must be finite and positive, got {p99_ms}"
        );
        SloSpec { p99_ms }
    }

    /// The bound as simulated time.
    pub fn p99_bound(&self) -> Picos {
        Picos::from_ns_f64(self.p99_ms * 1e6)
    }
}

/// The nearest-rank `q`-quantile (`0.0..=1.0`) of an ascending sample: the
/// smallest value with at least `q·n` observations at or below it, that is
/// rank `ceil(q·n)` clamped to `[1, n]`. `None` for an empty sample.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let last = sorted.len().checked_sub(1)?;
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )] // a sample size is far below 2^52; the rank is clamped below
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(last)])
}

/// Aggregated per-request latency statistics of one run.
///
/// Latencies are measured submit-to-complete in simulated time: from the
/// request's scheduled (open-loop) arrival instant to the instant the last
/// core finishes the request's memory burst, as observed by the engine at
/// its next event boundary. Percentiles use the nearest-rank method over
/// the exact integer-picosecond latency population, so equal runs produce
/// bit-equal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestStats {
    /// Requests that were submitted within the run horizon.
    pub submitted: u64,
    /// Requests that completed before the run ended.
    pub completed: u64,
    /// Median (p50) latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Requests whose latency exceeded the SLO bound (0 when no SLO was
    /// configured).
    pub slo_violations: u64,
}

impl RequestStats {
    /// Builds the statistics from a population of completed-request
    /// latencies. `latencies` need not be sorted; it is consumed so the
    /// sort happens in place. Requests still in flight at the end of the
    /// run count as submitted but not completed (and are *not* judged
    /// against the SLO — the run horizon censors them).
    pub fn from_latencies(mut latencies: Vec<Picos>, submitted: u64, slo: Option<SloSpec>) -> Self {
        latencies.sort_unstable();
        let completed = latencies.len() as u64;
        if latencies.is_empty() {
            return RequestStats {
                submitted,
                ..RequestStats::default()
            };
        }
        let pct = |p: f64| nearest_rank(&latencies, p).map_or(0.0, Picos::as_ms_f64);
        let sum_ps: u128 = latencies.iter().map(|l| u128::from(l.as_ps())).sum();
        let mean_ms = (sum_ps as f64 / completed as f64) / 1e9;
        let slo_violations = slo.map_or(0, |s| {
            let bound = s.p99_bound();
            latencies.iter().filter(|&&l| l > bound).count() as u64
        });
        RequestStats {
            submitted,
            completed,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            mean_ms,
            max_ms: latencies[latencies.len() - 1].as_ms_f64(),
            slo_violations,
        }
    }

    /// Whether this run breached `slo` on its p99 latency.
    pub fn breaches(&self, slo: SloSpec) -> bool {
        self.completed > 0 && self.p99_ms > slo.p99_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Picos {
        Picos::from_ms(v)
    }

    #[test]
    fn empty_population_yields_zeroed_stats() {
        let s = RequestStats::from_latencies(Vec::new(), 3, Some(SloSpec::p99(1.0)));
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 0);
        assert_eq!(s.p99_ms, 0.0);
        assert_eq!(s.slo_violations, 0);
        assert!(!s.breaches(SloSpec::p99(1.0)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 100 latencies 1..=100 ms: p50 = 50, p95 = 95, p99 = 99.
        let pop: Vec<Picos> = (1..=100).map(ms).collect();
        let s = RequestStats::from_latencies(pop, 100, None);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.mean_ms, 50.5);
    }

    #[test]
    fn single_sample_population() {
        let s = RequestStats::from_latencies(vec![ms(7)], 1, None);
        assert_eq!(s.p50_ms, 7.0);
        assert_eq!(s.p99_ms, 7.0);
        assert_eq!(s.mean_ms, 7.0);
    }

    #[test]
    fn violations_count_requests_over_the_bound() {
        let pop: Vec<Picos> = (1..=10).map(ms).collect();
        let s = RequestStats::from_latencies(pop, 10, Some(SloSpec::p99(8.0)));
        // 9 ms and 10 ms exceed the 8 ms bound.
        assert_eq!(s.slo_violations, 2);
        assert!(s.breaches(SloSpec::p99(8.0)));
        assert!(!s.breaches(SloSpec::p99(10.0)));
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let s = RequestStats::from_latencies(vec![ms(30), ms(10), ms(20)], 3, None);
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.max_ms, 30.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn slo_rejects_nonpositive_bound() {
        let _ = SloSpec::p99(0.0);
    }
}
