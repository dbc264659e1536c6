//! A tiny, dependency-free benchmark harness.
//!
//! The workspace builds offline, so the benches cannot use Criterion;
//! this module provides the small part of it they need: a warmup pass,
//! a fixed number of timed samples, and a mean/min/max summary line.
//! All four `[[bench]]` targets (`harness = false`) are plain `main`
//! functions built on [`Harness::bench`].

use std::time::{Duration, Instant};

/// Summary of one benchmarked closure.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark id, e.g. `table2/MM08/spllift/R. Def.`.
    pub name: String,
    /// Number of timed samples (excludes the warmup pass).
    pub samples: usize,
    /// Mean sample time.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl std::fmt::Display for BenchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} {:>10.3?} (min {:>9.3?}, max {:>9.3?}, n={})",
            self.name, self.mean, self.min, self.max, self.samples
        )
    }
}

/// Runs benches with a fixed sample count and prints one line each.
#[derive(Debug, Clone)]
pub struct Harness {
    group: String,
    samples: usize,
}

impl Harness {
    /// A harness whose bench names are prefixed `group/`; `samples`
    /// timed runs per bench (clamped to at least 1) after one warmup.
    pub fn new(group: impl Into<String>, samples: usize) -> Self {
        Harness {
            group: group.into(),
            samples: samples.max(1),
        }
    }

    /// A sub-harness with `suffix` appended to the group prefix.
    pub fn group(&self, suffix: &str) -> Harness {
        Harness {
            group: format!("{}/{suffix}", self.group),
            samples: self.samples,
        }
    }

    /// Times `f`: one untimed warmup call, then `samples` timed calls.
    /// Prints the summary line to stdout and returns it.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) -> BenchStats {
        f();
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        for _ in 0..self.samples {
            let start = Instant::now();
            f();
            let t = start.elapsed();
            total += t;
            min = min.min(t);
            max = max.max(t);
        }
        let stats = BenchStats {
            name: format!("{}/{name}", self.group),
            samples: self.samples,
            mean: total / self.samples as u32,
            min,
            max,
        };
        println!("{stats}");
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_counts_calls_and_orders_extremes() {
        let h = Harness::new("t", 5);
        let mut calls = 0;
        let stats = h.bench("busy", || calls += 1);
        assert_eq!(calls, 6, "1 warmup + 5 samples");
        assert_eq!(stats.samples, 5);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
        assert_eq!(stats.name, "t/busy");
    }

    #[test]
    fn group_nests_prefixes() {
        let h = Harness::new("table2", 1).group("MM08");
        let stats = h.bench("spllift", || {});
        assert_eq!(stats.name, "table2/MM08/spllift");
    }

    #[test]
    fn zero_samples_clamps_to_one() {
        let h = Harness::new("t", 0);
        let mut calls = 0;
        let _ = h.bench("x", || calls += 1);
        assert_eq!(calls, 2);
    }
}
