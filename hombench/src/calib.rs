//! Host-speed calibration.
//!
//! On a shared host the CPU's speed drifts: a neighbour on the same
//! core or cache slows every instruction, for seconds or minutes at a
//! time. A run measured in such a period reads slower although the
//! program did not change. To keep runs comparable, the benchmark
//! times a fixed loop of its own ([`Calibrator::sample`]) next to
//! every timed interval and reports times scaled to the speed at which
//! that loop takes [`REFERENCE_NS`] per step.
//!
//! The loop shares no code with the measured program, so a change to
//! the program cannot move it. It is timed on the calling thread's CPU
//! clock, so the server's threads (a busy-polling executor, say) do
//! not affect it: it sees how fast the CPU runs while the loop runs.

use crate::stats::median;

/// Nanoseconds per calibration step on the reference machine (an idle
/// 2-vCPU Xeon virtual machine). Fixes only the scale of the scaled
/// times: a run whose calibration reads exactly this reports its times
/// as measured.
pub const REFERENCE_NS: f64 = 2.3;

/// Steps per sample: about 2 ms on the reference machine.
const STEPS: u32 = 1 << 20;

/// Table entries: 256 KiB, so the loop mixes ALU work, branches and
/// cache traffic roughly as the solver does.
const TABLE: usize = 1 << 16;

/// The calibration loop's state and its samples (ns per step).
pub struct Calibrator {
    table: Vec<u32>,
    state: u64,
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: (0..TABLE as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
            state: 1,
            samples: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Runs the loop once and records its time per step.
    pub fn sample(&mut self) {
        let t0 = thread_cpu_ns();
        let mut x = self.state;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let i = (x >> 48) as usize % TABLE;
            let v = self.table[i];
            self.table[i] = if v & 1 == 0 {
                v.wrapping_add(x as u32)
            } else {
                v ^ (x >> 32) as u32
            };
        }
        self.state = x;
        let ns = thread_cpu_ns() - t0;
        self.samples.push(ns as f64 / f64::from(STEPS));
    }

    /// Host speed relative to the reference over the samples so far:
    /// above 1 when the CPU ran faster. Times measured at this speed
    /// are multiplied by it, rates divided. 1 before any sample.
    pub fn speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        REFERENCE_NS / median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// CPU time the calling thread has used, in ns.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout the
    // call fills in.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_median_sample() {
        let mut c = Calibrator::default();
        assert_eq!(c.speed(), 1.0);
        let r = REFERENCE_NS;
        c.samples = vec![2.0 * r, r, 3.0 * r];
        // Median 2 × reference: the host ran at half speed.
        assert_eq!(c.speed(), 0.5);
    }

    #[test]
    fn a_sample_takes_measurable_cpu_time() {
        let mut c = Calibrator::default();
        c.sample();
        c.sample();
        assert_eq!(c.samples(), 2);
        assert!(c.speed().is_finite() && c.speed() > 0.0);
    }
}
