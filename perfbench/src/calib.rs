//! Host-speed calibration.
//!
//! On a shared host the simulator's speed swings 1.5–2× over tens of
//! seconds as co-tenants come and go, far more than any change under test
//! moves it. Tight arithmetic loops do not see those swings; code that
//! allocates, hashes, formats and branches the way the simulator does sees
//! them in the same proportion. This module times such a fixed,
//! standard-library-only kernel between the measured operations and scales
//! every host time by `REFERENCE_NS / kernel time nearby`. The result reads
//! in *reference-host* units: seconds on a host where the kernel takes
//! exactly [`REFERENCE_NS`]. The kernel shares no code with the simulator,
//! so a change to the simulator moves the scaled times exactly as it moves
//! the raw ones.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, in ns.
pub const REFERENCE_NS: f64 = 10e6;
/// Samples on each side of an operation that set its scale.
const NEIGHBOURS: usize = 3;

/// The calibration kernel: string keys through a hash map and a B-tree,
/// formatting, parsing and a sort, driven by a fixed xorshift stream.
fn kernel() -> u64 {
    let mut h: HashMap<String, u64> = HashMap::new();
    let mut b: BTreeMap<u64, String> = BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut s = 0u64;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = format!("k{}", x % 4093);
        if x.is_multiple_of(7) {
            s ^= k[1..].parse::<u64>().unwrap_or(i);
        }
        *h.entry(k.clone()).or_insert(0) += i;
        if x.is_multiple_of(3) {
            b.insert(x % 10_007, k);
        } else if let Some((_, v)) = b.range(x % 10_007..).next() {
            s += v.len() as u64;
        }
    }
    let mut keys: Vec<&String> = h.keys().collect();
    keys.sort_unstable();
    s + keys.len() as u64
}

/// Times one kernel run, in ns.
fn time_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_nanos() as f64
}

/// Calibration samples of one run, stamped with when they were taken.
pub struct Calibrator {
    epoch: Instant,
    /// `(seconds since epoch at the sample's midpoint, kernel ns)`.
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator { epoch: Instant::now(), samples: Vec::new() }
    }

    /// Seconds since this calibrator was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let start = self.now();
        let ns = time_kernel();
        self.samples.push(((start + self.now()) / 2.0, ns));
    }

    /// Median kernel time over all samples, in ms.
    pub fn median_ms(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.1 / 1e6).collect();
        if v.is_empty() {
            0.0
        } else {
            crate::host::median(&v)
        }
    }

    /// The scale for an operation that ran around time `at`: the reference
    /// time over the median of the nearest samples before and after it.
    pub fn scale_at(&self, at: f64) -> f64 {
        let split = self.samples.partition_point(|s| s.0 < at);
        let lo = split.saturating_sub(NEIGHBOURS);
        let hi = (split + NEIGHBOURS).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        if near.is_empty() {
            1.0
        } else {
            REFERENCE_NS / crate::host::median(&near)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_nearby_samples() {
        let mut c = Calibrator::new();
        c.samples =
            vec![(1.0, 5e6), (2.0, 5e6), (3.0, 5e6), (10.0, 20e6), (11.0, 20e6), (12.0, 20e6)];
        assert_eq!(c.scale_at(0.5), 2.0);
        assert_eq!(c.scale_at(11.5), 0.5);
        assert_eq!(Calibrator::new().scale_at(1.0), 1.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
        let mut c = Calibrator::new();
        c.sample();
        assert_eq!(c.samples.len(), 1);
        assert!(c.samples[0].1 > 0.0);
    }
}
