//! Sample statistics, result digests and the benchmark's printed output.

use std::fmt::Write as _;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, its value would be set by one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count),
/// or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `pct` (1..=99) of `samples`, or `None` unless
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank, ceil(pct * n / 100), clamped into the sample.
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

/// A 64-bit count as a sample count.
pub fn count(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over a canonical byte rendering of simulated results: equal
/// digests mean bit-identical counters, energies and completion times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds one float's exact bit pattern into the digest.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a length-prefixed string into the digest.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises (0 for a computed value).
    pub samples: usize,
    /// One-line explanation printed beside the value in the table.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Attaches a note shown in the human-readable table.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one invocation of the benchmark measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells for `sweep-mem`, jobs for the serve
    /// workloads), timed phase only.
    pub attempted: u64,
    /// Attempted operations that failed or failed a correctness check.
    pub failed: u64,
    /// Every failed check, in the order found.
    pub problems: Vec<String>,
    /// Metrics in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Extra table lines (per-layer breakdowns, accounting verdicts).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Records a failed check.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Adds (or replaces) a metric.
    pub fn metric(&mut self, m: Metric) {
        match self.metrics.iter_mut().find(|x| x.name == m.name) {
            Some(slot) => *slot = m,
            None => self.metrics.push(m),
        }
    }

    /// Keeps exactly the metrics named in `names`, in that order; a name
    /// this run did not measure is reported as 0 (its layer did no work).
    pub fn select(&mut self, names: &[(&'static str, &'static str)]) {
        let mut out = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0, 0).note("layer not exercised"));
            out.push(m);
        }
        self.metrics = out;
    }

    /// The human-readable table.
    pub fn table(&self, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {title}");
        let _ = writeln!(
            s,
            "   operations attempted {}  failed {}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "   {:<30} {:>16} {:<6} n={:<5} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        for line in &self.lines {
            let _ = writeln!(s, "   {line}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "   FAILED CHECK: {p}");
        }
        s
    }

    /// The machine-readable result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; JSON has no infinity, so a failed operation's infinite latency
/// prints as the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "0".into()
    } else if v.is_infinite() {
        format!("{:e}", f64::MAX.copysign(v))
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond.
        assert_eq!(percentile(&hundred, 90), Some(90.0));
        // One sample fewer leaves nine beyond: not reported.
        assert_eq!(percentile(&hundred[..99], 90), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&hundred, 99), None);
        assert_eq!(percentile(&[], 50), None);
        // The median of 21 samples has ten beyond it.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&small, 50), Some(11.0));
        assert_eq!(percentile(&small[..19], 50), None);
    }

    #[test]
    fn failed_operations_sort_beyond_every_limit() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend([f64::INFINITY; 10]);
        // Ten failures push the p90 up by ten ranks' worth of samples.
        assert_eq!(percentile(&v, 90), Some(99.0));
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.value()
        };
        let a = d(&|x| {
            x.u64(1).u64(2);
        });
        let b = d(&|x| {
            x.u64(2).u64(1);
        });
        assert_ne!(a, b);
        assert_eq!(
            a,
            d(&|x| {
                x.u64(1).u64(2);
            })
        );
        // 0.0 and -0.0 compare equal but differ in bits.
        assert_ne!(
            d(&|x| {
                x.f64(0.0);
            }),
            d(&|x| {
                x.f64(-0.0);
            })
        );
        // Length prefixes keep concatenations apart.
        assert_ne!(
            d(&|x| {
                x.str("ab").str("c");
            }),
            d(&|x| {
                x.str("a").str("bc");
            })
        );
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 32,
            failed: 0,
            ..Outcome::default()
        };
        o.metric(Metric::new("setup_s", "s", 3.25, 3));
        o.metric(Metric::new("latency_p50_ms", "ms", 0.1 + 0.2, 2));
        let line = o.json_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":32,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":3.25,\"unit\":\"s\"},\
             \"latency_p50_ms\":{\"value\":0.30000000000000004,\"unit\":\"ms\"}}}"
        );
        o.problem("digest mismatch");
        assert!(o.json_line().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn json_numbers_stay_valid_for_failed_latencies() {
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(12.5), "12.5");
    }

    #[test]
    fn select_orders_and_fills_unmeasured_layers() {
        let mut o = Outcome::default();
        o.metric(Metric::new("b", "ms", 2.0, 1));
        o.metric(Metric::new("a", "ms", 1.0, 1));
        o.metric(Metric::new("a", "ms", 1.5, 2));
        o.select(&[("a", "ms"), ("b", "ms"), ("c", "count")]);
        let names: Vec<_> = o.metrics.iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(names, vec![("a", 1.5), ("b", 2.0), ("c", 0.0)]);
        assert_eq!(o.metrics[2].unit, "count");
    }

    #[test]
    fn outcome_without_operations_is_not_correct() {
        assert!(!Outcome::default().correct());
    }
}
