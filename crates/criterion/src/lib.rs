//! Offline stand-in for the [`criterion`](https://docs.rs/criterion)
//! benchmark harness.
//!
//! The growth container builds without network access, so this crate
//! provides the small API surface the workspace's `benches/` targets use:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`black_box`] and
//! the `criterion_group!` / `criterion_main!` macros. Under `cargo test`
//! each benchmark body runs exactly once (a smoke test). Under
//! `cargo bench` (detected via the `--bench` argument cargo passes) each
//! benchmark makes one warm-up call, then times 10 samples and prints one
//! line with the median and minimum ns/iter.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export of the standard optimization barrier.
pub use std::hint::black_box;

/// Timed samples per benchmark.
const SAMPLES: usize = 10;

/// Each sample repeats the routine for about this long, so a routine far
/// shorter than a clock read is still timed over many calls.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Timing context handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    /// Time the routine, rather than make a single untimed smoke call.
    bench: bool,
    /// Mean ns/iter of each sample of the last [`iter`](Self::iter).
    measured: Vec<f64>,
}

impl Bencher {
    /// Runs `f` once (test mode), or times it (bench mode): one warm-up
    /// call, whose duration only sizes the samples, then each of 10
    /// samples calls `f` as often as fits in about 10 ms (at least once)
    /// and records the mean wall-clock nanoseconds per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if !self.bench {
            black_box(f());
            return;
        }
        let warm_up = Instant::now();
        black_box(f());
        let once = warm_up.elapsed().as_nanos().max(1);
        let iters = u32::try_from(SAMPLE_TARGET.as_nanos() / once)
            .unwrap_or(u32::MAX)
            .max(1);
        self.measured = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
            })
            .collect();
    }
}

/// Runs one benchmark body, timed in bench mode. Returns the report line
/// in bench mode.
fn run(name: &str, bench: bool, f: impl FnOnce(&mut Bencher)) -> Option<String> {
    let mut b = Bencher {
        bench,
        measured: Vec::new(),
    };
    f(&mut b);
    if !bench {
        return None;
    }
    let mut ns = b.measured;
    if ns.is_empty() {
        return Some(format!("bench {name}: no timed iter"));
    }
    ns.sort_by(f64::total_cmp);
    let mid = ns.len() / 2;
    let median = if ns.len() % 2 == 1 {
        ns[mid]
    } else {
        (ns[mid - 1] + ns[mid]) / 2.0
    };
    Some(format!(
        "bench {name}: median {median:.1} ns/iter, min {:.1} ns/iter ({} samples)",
        ns[0],
        ns.len()
    ))
}

/// A named set of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    bench: bool,
}

impl BenchmarkGroup {
    /// Sets the sample count (accepted for API compatibility; no-op).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Registers and immediately runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into());
        if let Some(line) = run(&name, self.bench, f) {
            println!("{line}");
        }
        self
    }

    /// Ends the group (accepted for API compatibility; no-op).
    pub fn finish(&mut self) {}
}

/// Benchmark registry and runner.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            bench: bench_mode(),
        }
    }

    /// Registers and immediately runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        if let Some(line) = run(&id.into(), bench_mode(), f) {
            println!("{line}");
        }
        self
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(c: &mut Criterion) {
        c.bench_function("add", |b| {
            b.iter(|| black_box(2u64) + black_box(3u64));
        });
        let mut g = c.benchmark_group("grp");
        g.bench_function("mul", |b| {
            b.iter(|| black_box(6u64) * black_box(7u64));
        });
        g.finish();
    }

    criterion_group!(benches, sample);

    #[test]
    fn runs_once_in_test_mode() {
        benches();
        let mut calls = 0;
        let line = run("once", false, |b| b.iter(|| calls += 1));
        assert_eq!((line, calls), (None, 1));
    }

    #[test]
    fn bench_mode_reports_median_and_min_over_the_samples() {
        let mut calls = 0u64;
        let line = run("grp/sleep", true, |b| {
            b.iter(|| {
                calls += 1;
                std::thread::sleep(Duration::from_millis(6));
            });
        })
        .expect("bench mode reports a line");
        // A call of 6 ms or more fits once in a 10 ms sample: the warm-up
        // plus ten samples of one call.
        assert_eq!(calls, 11, "{line}");
        let (head, tail) = line.split_once(" ns/iter, min ").expect(&line);
        let median: f64 = head
            .strip_prefix("bench grp/sleep: median ")
            .expect(&line)
            .parse()
            .unwrap();
        let (min, samples) = tail.split_once(" ns/iter (").expect(&line);
        let min: f64 = min.parse().unwrap();
        assert_eq!(samples, "10 samples)");
        assert!(min >= 6e6 && median >= min, "{line}");
    }
}
