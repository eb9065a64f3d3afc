//! Machine-speed calibration for the simulated workloads.
//!
//! On a shared host the speed of one core drifts by ±20% over tens of
//! seconds, for programs and for a fixed loop alike. The DES workloads run
//! a fixed reference kernel, which uses only the standard library and none
//! of the program's code, between their timed calls, and scale every timed
//! call by the kernel's nominal time over its measured time: a timing is
//! reported as the time the call would take at the reference speed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed, in nanoseconds. Fixed, so that
/// scaled timings compare across runs and commits; the kernel took 350–550
/// µs on the 2-thread x86-64 VM the benchmark was sized on.
const NOMINAL_NANOS: f64 = 450_000.0;

/// Kernel repetitions per calibration sample; the sample is their median,
/// so an interrupt during one repetition does not move it.
const REPEATS: usize = 3;

/// One run of the reference kernel, in two halves that the host's drift
/// slows differently: data-structure work (ordered-map inserts and lookups,
/// a binary heap, short-lived vectors) slows less than the simulator, and
/// string formatting, parsing and sorting slows more; together they slowed
/// like the simulator on the host the benchmark was sized on.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let mut acc = 0u64;
    for i in 0..1024u64 {
        let k = next() % 16384;
        map.insert(k, i);
        heap.push(Reverse(next() % 100_000));
        if i % 4 == 0 {
            lists.push((0..(k % 32) as u32).collect());
        }
        if i % 3 == 0 {
            if let Some(Reverse(t)) = heap.pop() {
                acc = acc.wrapping_add(t);
            }
        }
        if let Some(v) = map.get(&(next() % 16384)) {
            acc = acc.wrapping_add(*v);
        }
    }
    for l in &lists {
        acc = acc.wrapping_add(l.iter().map(|&y| u64::from(y)).sum::<u64>());
    }

    let mut words: Vec<String> = (0..300)
        .map(|_| {
            let a = next();
            format!("{a:x}-{}:{:.3}", a % 977, (a % 10007) as f64 / 7.0)
        })
        .collect();
    words.sort_unstable();
    let mut prefixes: BTreeMap<&str, usize> = BTreeMap::new();
    for w in &words {
        for part in w.split(['-', ':']) {
            if let Ok(v) = part.parse::<u64>() {
                acc = acc.wrapping_add(v);
            } else if let Ok(f) = part.parse::<f64>() {
                acc = acc.wrapping_add(f as u64);
            }
        }
        *prefixes.entry(&w[..3]).or_default() += w.len();
    }
    acc ^ prefixes.len() as u64
}

/// Time of one kernel repetition, in nanoseconds.
fn kernel_nanos() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_nanos() as f64
}

/// Calibrates timed calls against the reference kernel.
#[derive(Debug, Default)]
pub struct Calibrator {
    /// The latest calibration sample in nanoseconds, taken right after the
    /// previous timed call.
    last: Option<f64>,
    /// Every calibration sample, for reporting the machine's speed.
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator::default()
    }

    /// A calibration sample: the median of `REPEATS` kernel repetitions.
    fn sample(&mut self) -> f64 {
        let mut reps: Vec<f64> = (0..REPEATS).map(|_| kernel_nanos()).collect();
        reps.sort_by(f64::total_cmp);
        let s = reps[REPEATS / 2];
        self.samples.push(s);
        s
    }

    /// Runs `f`, returning its result and its wall time in nanoseconds
    /// scaled to the reference speed: the call's time is multiplied by the
    /// nominal kernel time over the mean of two kernel samples, the one
    /// taken after the previous timed call (a fresh one for the first call)
    /// and one taken right after this call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some(s) => s,
            None => self.sample(),
        };
        let t = Instant::now();
        let out = f();
        let nanos = t.elapsed().as_nanos() as f64;
        let after = self.sample();
        self.last = Some(after);
        (out, nanos * NOMINAL_NANOS * 2.0 / (before + after))
    }

    /// The machine's speed over the run: nominal over median kernel time
    /// (1 at the reference speed, below 1 when slower).
    pub fn speed(&self) -> f64 {
        let med = crate::metrics::median(&self.samples);
        if med == 0.0 {
            1.0
        } else {
            NOMINAL_NANOS / med
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::median;

    #[test]
    fn a_call_of_two_kernels_scales_to_about_two_nominal_kernels() {
        let mut cal = Calibrator::new();
        let scaled: Vec<f64> = (0..9)
            .map(|_| {
                cal.time(|| {
                    black_box(kernel());
                    black_box(kernel());
                })
                .1
            })
            .collect();
        let kernels = median(&scaled) / NOMINAL_NANOS;
        assert!((1.0..4.0).contains(&kernels), "{kernels} nominal kernels");
        assert!(cal.speed() > 0.0);
    }
}
