//! Host speed calibration. On a shared host the same sweep can take
//! twice as long from one minute to the next; a fixed kernel of this
//! benchmark's own, timed between the measurements of a run, slows down
//! with it. Host times are reported divided by the run's host factor
//! (the kernel's median time over [`REF_S`]), so they read as at the
//! reference host speed; the raw values are in the detail. The kernel
//! shares no code with the simulator, so a change to the simulator moves
//! the reported times fully.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds at the reference host speed (on `jobs` threads).
pub const REF_S: f64 = 0.05;

/// Steps per thread of one kernel run.
const STEPS: u64 = 5_000_000;

/// Words in each thread's table (4 MiB: beyond L2, so the kernel also
/// feels the shared cache and memory, as the simulator does).
const TABLE_WORDS: usize = 1 << 20;

/// Pseudo-random read-modify-write over a table, with a data-dependent
/// branch: integer work, cache misses and mispredictions in one loop.
fn kernel(seed: u64, steps: u64) -> u64 {
    let mask = TABLE_WORDS - 1;
    let mut table = vec![0u32; TABLE_WORDS];
    let mut x = seed;
    let mut odd = 0;
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 40) as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add((x >> 32) as u32);
        } else {
            table[(i ^ 0x5555) & mask] ^= v;
            odd += 1;
        }
    }
    odd
}

/// The calibration samples of one run.
#[derive(Clone, Debug)]
pub struct Calib {
    jobs: usize,
    steps: u64,
    samples: Vec<f64>,
}

impl Calib {
    /// Calibrate on `jobs` threads, the benchmark's own parallelism. A
    /// smoke run uses a kernel a hundred times shorter.
    pub fn new(jobs: usize, smoke: bool) -> Calib {
        Calib {
            jobs,
            steps: if smoke { STEPS / 100 } else { STEPS },
            samples: Vec::new(),
        }
    }

    /// Time one kernel run on every thread at once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::thread::scope(|s| {
            for i in 0..self.jobs {
                let steps = self.steps;
                s.spawn(move || black_box(kernel(i as u64 + 1, steps)));
            }
        });
        let full = self.steps as f64 / STEPS as f64;
        self.samples.push(t.elapsed().as_secs_f64() / full);
    }

    /// The run's host factor: median kernel time over [`REF_S`] (above
    /// 1 on a slower host). Takes a sample if there is none yet.
    pub fn factor(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        median(&self.samples) / REF_S
    }

    /// Every kernel time, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_the_factor_is_a_median_ratio() {
        assert_eq!(kernel(1, 10_000), kernel(1, 10_000));
        let mut c = Calib::new(1, true);
        c.samples = vec![0.1, 0.05, 0.075];
        assert!((c.factor() - 0.075 / REF_S).abs() < 1e-12);
    }
}
