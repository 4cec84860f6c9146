//! A minimal, dependency-free stand-in for the Criterion benchmark API.
//!
//! Implements exactly the surface the `benches/` targets use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — so the bench sources
//! read identically to upstream Criterion while the workspace keeps zero
//! mandatory external dependencies.
//!
//! Methodology: each benchmark is calibrated so one timed sample lasts at
//! least ~1 ms (batching fast routines), then `sample_size` samples are
//! collected and the min / median / mean per-iteration times reported.
//! That is cruder than Criterion's bootstrap analysis but plenty to rank
//! hot paths; end-to-end regressions are judged by `perfbench/`, which
//! repeats each workload and reports its spread.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` should amortise setup cost. The stand-in times each
/// routine invocation individually, so the variants behave identically;
/// the enum exists for source compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs (the only variant the benches use).
    SmallInput,
    /// Larger inputs; same behaviour in this harness.
    LargeInput,
    /// One setup per timed iteration; same behaviour in this harness.
    PerIteration,
}

/// Collects timing samples for one benchmark function.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    /// Per-iteration sample durations in nanoseconds.
    samples: Vec<f64>,
}

const TARGET_SAMPLE: Duration = Duration::from_millis(1);

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples: Vec::new(),
        }
    }

    /// Time `routine`, batching calls so each sample lasts ≥ ~1 ms.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: double the inner count until one sample is long enough.
        let mut inner: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= TARGET_SAMPLE || inner >= 1 << 20 {
                break;
            }
            inner *= 2;
        }
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            self.samples
                .push(t0.elapsed().as_nanos() as f64 / inner as f64);
        }
    }

    /// Time `routine` over fresh inputs from `setup`; setup is untimed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_size.max(1) {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed().as_nanos() as f64);
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean: f64 = sorted.iter().sum::<f64>() / sorted.len() as f64;
        println!(
            "{name:<44} min {:>12}  median {:>12}  mean {:>12}",
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean)
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Set the default number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("── group {name}");
        BenchmarkGroup {
            name,
            sample_size: self.sample_size,
            _c: self,
        }
    }

    /// Run one standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&name);
        self
    }
}

/// A named group of benchmarks, mirroring `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name.into());
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&label);
        self
    }

    /// End the group (report output is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// Declare a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declare the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

// Make `use ccr_bench::harness::{criterion_group, criterion_main}` work
// like the upstream `use criterion::{criterion_group, criterion_main}`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        c.sample_size(3);
        let mut runs = 0u32;
        c.bench_function("t", |b| {
            b.iter(|| {
                runs += 1;
                std::thread::sleep(Duration::from_micros(200));
            })
        });
        assert!(runs >= 3);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(5);
        let mut setups = 0u32;
        g.bench_function("b", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 64]
                },
                |v| v.len(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
        assert_eq!(setups, 5);
    }
}
