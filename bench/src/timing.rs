//! The timing rule: min-of-R samples per input, percentiles across inputs,
//! and the budget that decides R.
//!
//! This sandbox is bimodal (see `README.md`): the same call reads its fast
//! time or something 1.1–1.6× slower depending on what the neighbours are
//! doing, so means and medians of raw executions do not repeat within a
//! tenth.  Every host-time number is therefore built the same way: a phase
//! is cut into *inputs*, each input is executed R times with the
//! repetitions spread over the phase, the input's *sample* is the minimum of
//! its R executions, and statistics are taken across inputs.

use std::time::Instant;

/// Executions of every input of one phase, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    runs: Vec<Vec<u64>>,
}

impl Sampler {
    pub fn new(inputs: usize) -> Sampler {
        Sampler {
            runs: vec![Vec::new(); inputs],
        }
    }

    pub fn inputs(&self) -> usize {
        self.runs.len()
    }

    /// Records one execution of `input`.
    pub fn record(&mut self, input: usize, ns: u64) {
        self.runs[input].push(ns);
    }

    /// Records one repetition of the whole phase (`ns[i]` is input `i`).
    pub fn record_rep(&mut self, ns: &[u64]) {
        assert_eq!(ns.len(), self.runs.len(), "repetition covers every input");
        for (input, &t) in ns.iter().enumerate() {
            self.record(input, t);
        }
    }

    /// Repetitions every input has had.
    pub fn reps(&self) -> usize {
        self.runs.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The sample of one input: its fastest execution.
    pub fn sample(&self, input: usize) -> u64 {
        self.runs[input].iter().copied().min().unwrap_or(0)
    }

    /// One sample per input, in input order.
    pub fn samples(&self) -> Vec<u64> {
        (0..self.runs.len()).map(|i| self.sample(i)).collect()
    }

    /// Σ samples: the time one pass over every input takes at its best.
    pub fn total_ns(&self) -> u64 {
        self.samples().iter().sum()
    }

    /// Share of executions slower than `factor` × their input's sample —
    /// how much of the phase ran in the sandbox's slow mode.
    pub fn slow_share(&self, factor: f64) -> f64 {
        let mut slow = 0usize;
        let mut all = 0usize;
        for (input, runs) in self.runs.iter().enumerate() {
            let limit = self.sample(input) as f64 * factor;
            slow += runs.iter().filter(|&&t| t as f64 > limit).count();
            all += runs.len();
        }
        if all == 0 {
            0.0
        } else {
            slow as f64 / all as f64
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100): a value that was observed.
/// For populations of hundreds (the fleet's simulated latencies).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `p`-th percentile (`p` in 0..=100) of input samples, interpolated
/// linearly between the two order statistics around rank `p`·(n−1)/100.
/// Several workloads have fewer than ten inputs, where the nearest-rank
/// p90 is the slowest input alone; this one always leans on two.
pub fn quantile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    let (lo, hi) = (sorted[below] as f64, sorted[above] as f64);
    lo + (rank - below as f64) * (hi - lo)
}

/// Median of floating-point values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times one call.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as u64)
}

/// Decides how many cycles a run gets: at least `min_reps`, then one more
/// while a cycle of the mean length so far would still end inside the
/// window.  The window opens when the budget is made, so what ran before
/// the first cycle (set-up) is paid from it.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    seconds: f64,
    min_reps: usize,
    first_asked: Option<Instant>,
}

impl Budget {
    pub fn start(seconds: f64, min_reps: usize) -> Budget {
        Budget {
            started: Instant::now(),
            seconds,
            min_reps,
            first_asked: None,
        }
    }

    /// Call before every cycle with the number already run; true when
    /// another should follow.
    pub fn more(&mut self, done: usize) -> bool {
        let now = Instant::now();
        let first = *self.first_asked.get_or_insert(now);
        let mean_cycle = (now - first).as_secs_f64() / done.max(1) as f64;
        let end_of_next = (now - self.started).as_secs_f64() + mean_cycle;
        done < self.min_reps || end_of_next <= self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_the_minimum_of_an_inputs_repetitions() {
        let mut s = Sampler::new(3);
        s.record_rep(&[30, 100, 7]);
        s.record_rep(&[20, 140, 9]);
        s.record_rep(&[25, 90, 8]);
        assert_eq!(s.reps(), 3);
        assert_eq!(s.samples(), vec![20, 90, 7]);
        assert_eq!(s.total_ns(), 117);
    }

    #[test]
    fn reps_is_the_least_covered_input() {
        let mut s = Sampler::new(2);
        s.record(0, 5);
        s.record(0, 6);
        s.record(1, 1);
        assert_eq!(s.reps(), 1);
        assert_eq!(Sampler::new(0).reps(), 0);
    }

    #[test]
    fn slow_share_counts_executions_beyond_the_factor() {
        let mut s = Sampler::new(2);
        s.record_rep(&[100, 100]);
        s.record_rep(&[131, 129]);
        s.record_rep(&[200, 100]);
        // input 0: 131 and 200 exceed 130; input 1: none does.
        assert!((s.slow_share(1.3) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(Sampler::new(1).slow_share(1.3), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_across_inputs() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 90.0), 90);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7, 3, 9, 1], 50.0), 3);
        assert_eq!(percentile(&[7, 3, 9, 1], 90.0), 9);
        assert_eq!(percentile(&[42], 90.0), 42);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quantile_interpolates_between_neighbouring_inputs() {
        assert_eq!(quantile(&[10, 20, 30, 40, 50], 50.0), 30.0);
        assert_eq!(quantile(&[40, 10, 30, 20], 50.0), 25.0);
        // Eight inputs: rank 6.3, so three tenths of the way from 70 to 80.
        let eight: Vec<u64> = (1..=8).map(|i| i * 10).collect();
        assert!((quantile(&eight, 90.0) - 73.0).abs() < 1e-9);
        assert_eq!(quantile(&eight, 0.0), 10.0);
        assert_eq!(quantile(&eight, 100.0), 80.0);
        assert_eq!(quantile(&[42], 90.0), 42.0);
        assert_eq!(quantile(&[], 90.0), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn budget_always_grants_the_minimum() {
        let mut b = Budget::start(0.0, 3);
        assert!(b.more(0) && b.more(2));
        assert!(!b.more(3));
    }

    #[test]
    fn budget_stops_when_another_cycle_no_longer_fits() {
        use std::time::Duration;
        let mut b = Budget::start(0.2, 1);
        assert!(b.more(0));
        std::thread::sleep(Duration::from_millis(150));
        // 150 ms gone in one cycle: the next would end at 300.
        assert!(!b.more(1));
        let mut roomy = Budget::start(60.0, 1);
        assert!(roomy.more(0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(roomy.more(1));
    }
}
