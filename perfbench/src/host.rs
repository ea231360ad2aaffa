//! Host-speed calibration.
//!
//! The benchmark runs on a machine it shares with other work, and the
//! speed that machine gives it drifts: the same campaigns ran at a median
//! of 0.79 s in one run and 1.2 s an hour later, with CPU time tracking
//! wall time throughout (contention for the cores' shared resources, not
//! scheduling). No bound a later change is judged by survives that. So a
//! run interleaves a fixed reference kernel — code of the benchmark's own,
//! which no change to the program under test touches — with the work it
//! measures, and reports every time scaled to a host on which one pass of
//! the kernel takes [`NOMINAL_S`]: `reported = measured × NOMINAL_S ÷
//! kernel median`. The raw times and the kernel's own timings are in the
//! metadata line.
//!
//! The kernel is the same kind of work a search is: an interpreter loop
//! over a small fixed program of floating-point operations with
//! data-dependent branches, a branch-distance-like fold, and a small
//! table lookup, all resident in the first-level caches. It runs on as
//! many threads as the measured campaign has workers, so it sees the same
//! cores the campaign does.
//!
//! The kernel follows the drift over minutes and hours, not every phase:
//! a slowdown of a few seconds can hit a campaign and miss the kernel
//! passes around it. Runs therefore still average over many campaigns.

use std::time::{Duration, Instant};

use crate::stats::{median, Summary};

/// Time of one kernel pass on the reference host, about its median on a
/// two-vCPU 2.1 GHz Xeon virtual machine. Reported times are scaled to
/// this host.
pub const NOMINAL_S: f64 = 0.017;

/// Interpreter steps of one kernel pass.
const PASS_STEPS: u32 = 5_000_000;

/// Reference-kernel share of the measured work after each calibration
/// point: the kernel runs until its time since the last point reaches this
/// share of the work measured since then.
const SHARE: f64 = 0.10;

/// One interpreter instruction: `dst = op(a, b)`, or a conditional jump.
#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Sub(u8, u8, u8),
    Div(u8, u8, u8),
    Sqrt(u8, u8),
    /// Jumps to the target when register `a` is below register `b`.
    JumpLess(u8, u8, u8),
    /// Folds the distance between two registers into the accumulator.
    Distance(u8, u8),
    /// `dst = table[bits of a]`, then the table slot takes `b`.
    Table(u8, u8, u8),
}

/// The kernel's program: a damped iteration with two data-dependent
/// branches. It never produces NaN or infinity (every divisor is at least
/// 1, every square root takes an absolute value).
const PROGRAM: &[Op] = &[
    Op::Mul(2, 0, 1),
    Op::Add(3, 2, 4),
    Op::JumpLess(3, 5, 5),
    Op::Sub(3, 3, 5),
    Op::Distance(3, 5),
    Op::Sqrt(6, 3),
    Op::Add(7, 6, 4),
    Op::Div(0, 6, 7),
    Op::Table(1, 0, 3),
    Op::JumpLess(0, 1, 11),
    Op::Distance(0, 1),
    Op::Add(1, 1, 0),
    Op::Mul(1, 1, 4),
    Op::Sub(5, 7, 4),
];

/// One kernel pass; returns a value that depends on every step.
fn kernel(seed: u64) -> f64 {
    let mut regs = [0.5, 0.25, 0.0, 0.0, 0.5, 1.5, 0.0, 0.0];
    regs[0] += (seed % 97) as f64 * 1e-3;
    let mut table = [0.75f64; 256];
    let mut acc = 0.0f64;
    let mut pc = 0usize;
    for _ in 0..PASS_STEPS {
        match PROGRAM[pc] {
            Op::Add(d, a, b) => regs[d as usize] = regs[a as usize] + regs[b as usize],
            Op::Mul(d, a, b) => regs[d as usize] = regs[a as usize] * regs[b as usize],
            Op::Sub(d, a, b) => regs[d as usize] = regs[a as usize] - regs[b as usize],
            Op::Div(d, a, b) => regs[d as usize] = regs[a as usize] / regs[b as usize].max(1.0),
            Op::Sqrt(d, a) => regs[d as usize] = regs[a as usize].abs().sqrt(),
            Op::JumpLess(a, b, target) => {
                if regs[a as usize] < regs[b as usize] {
                    pc = target as usize;
                    continue;
                }
            }
            Op::Distance(a, b) => {
                let d = regs[a as usize] - regs[b as usize];
                acc += if d > 0.0 { d * d } else { -d };
            }
            Op::Table(d, a, b) => {
                let slot = (regs[a as usize].to_bits() >> 44) as usize & 0xff;
                regs[d as usize] = table[slot];
                table[slot] = regs[b as usize].fract().abs();
            }
        }
        pc += 1;
        if pc == PROGRAM.len() {
            pc = 0;
        }
    }
    acc + regs.iter().sum::<f64>()
}

/// The run's calibration: every timed kernel pass.
#[derive(Debug)]
pub struct HostClock {
    threads: usize,
    samples: Vec<f64>,
    passes: u64,
}

impl HostClock {
    /// A calibration that runs the kernel on `threads` threads at once.
    pub fn new(threads: usize) -> HostClock {
        HostClock {
            threads: threads.max(1),
            samples: Vec::new(),
            passes: 0,
        }
    }

    /// One timed pass on every thread; the sample is the slowest thread's
    /// time.
    fn pass(&mut self) -> Duration {
        self.passes += 1;
        let seed = self.passes;
        let start = Instant::now();
        if self.threads == 1 {
            std::hint::black_box(kernel(seed));
        } else {
            std::thread::scope(|scope| {
                for thread in 0..self.threads as u64 {
                    scope.spawn(move || std::hint::black_box(kernel(seed + thread)));
                }
            });
        }
        let elapsed = start.elapsed();
        self.samples.push(elapsed.as_secs_f64());
        elapsed
    }

    /// A calibration point after `measured` of measured work: kernel
    /// passes until they have taken [`SHARE`] of it, and at least one.
    pub fn calibrate(&mut self, measured: Duration) {
        let want = measured.mul_f64(SHARE);
        let mut spent = self.pass();
        while spent < want {
            spent += self.pass();
        }
    }

    /// Measured time ÷ this factor is the time on the reference host.
    pub fn factor(&self) -> f64 {
        assert!(!self.samples.is_empty(), "no calibration point yet");
        median(&self.samples) / NOMINAL_S
    }

    /// Every sample `seconds` scaled to the reference host.
    pub fn scale_all(&self, seconds: &[f64]) -> Vec<f64> {
        let factor = self.factor();
        seconds.iter().map(|s| s / factor).collect()
    }

    /// The kernel's timings, for the metadata line.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_finite() {
        let a = kernel(3);
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), kernel(3).to_bits());
        assert_ne!(a.to_bits(), kernel(4).to_bits());
    }

    #[test]
    fn calibration_scales_by_the_kernel_median() {
        let mut clock = HostClock::new(1);
        clock.calibrate(Duration::ZERO);
        assert_eq!(clock.samples.len(), 1);
        let factor = clock.factor();
        assert!(factor > 0.0);
        assert_eq!(clock.scale_all(&[factor, 2.0 * factor]), vec![1.0, 2.0]);
    }
}
