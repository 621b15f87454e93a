//! Machine-speed normalization of end-to-end times.
//!
//! The benchmark shares its host with other work: on the 2-vCPU machine
//! the benchmark was tuned on, identical blocks of `fig5-bounds` work
//! ran anywhere from 0.29 to 0.52 s as the host got busier, in episodes
//! lasting longer than a run, so the median block time of six runs
//! spread by 20% (quartile distance over median). A fixed loop of the
//! harness's own, timed right after each unit of program work, slows
//! down with it (correlation 0.92); the median of the per-unit ratios
//! spread by 3% over six seeds. End-to-end times are therefore
//! reported as `median(work / reference) × NOMINAL_S`: seconds at the
//! reference speed. A change to the program moves the work, never the
//! reference, so it moves the metric by the same factor; the raw
//! medians are printed alongside.
//!
//! The memory-bound `onoff-2m` solve does not slow down with this loop,
//! nor with a STREAM triad timed the same way: paired with either, its
//! spread over five seeds grew from 10% to 17–20%. Its times are
//! reported as measured.

use crate::stats::{median, timed};
use std::hint::black_box;

/// What the reference takes on the tuning machine when the host is
/// quiet; only a scale, so normalized times read as seconds.
const NOMINAL_S: f64 = 1.05e-3;

/// One pass of the reference: dependent multiply–divide chains over a
/// 64-element array that stays in L1, about a millisecond.
pub fn reference_s() -> f64 {
    timed(|| {
        let mut a = [1.0f64; 64];
        for k in 0..20_000 {
            for (i, x) in a.iter_mut().enumerate() {
                *x = (*x * 0.999 + i as f64 * 1e-9) / 1.000_000_1;
            }
            if k % 1000 == 0 {
                black_box(&mut a);
            }
        }
        black_box(a);
    })
    .1
}

/// Units of program work, each paired with a reference measurement
/// timed right after it.
#[derive(Debug, Default)]
pub struct Paired {
    work: Vec<f64>,
    ratio: Vec<f64>,
}

impl Paired {
    /// Records one unit of work that took `work_s` seconds.
    pub fn push(&mut self, work_s: f64) {
        self.work.push(work_s);
        self.ratio.push(work_s / reference_s());
    }

    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// Median unit time at the reference speed, seconds.
    pub fn normalized_s(&self) -> f64 {
        median(&self.ratio) * NOMINAL_S
    }

    /// Median unit time as measured, seconds.
    pub fn raw_s(&self) -> f64 {
        median(&self.work)
    }
}
