//! A reference CPU workload, independent of this repository's code, that
//! gauges how fast the machine runs at the moment a pass runs.
//!
//! The CPU under this benchmark switches between speed states within
//! seconds: the same pass ran ~1.5× faster in one state than in the
//! other, and a 20 s run could spend nearly all its time in either.  The
//! ratio of a CPU-bound pass's throughput to this kernel's rate stayed
//! the same in both states, so the CPU-bound workloads sample the kernel
//! between blocks of their work ([`Timeline`], [`Meter`]) and report
//! times and rates scaled to [`REFERENCE`] units per second, block by
//! block.  The per-layer replays are scaled the same way, so figures
//! taken at different moments of a run can be added and subtracted.
//!
//! A sample must not share the CPU with a thread of the work it gauges:
//! a server thread that burns CPU would slow the kernel, and the scaled
//! figures would read faster than the raw ones.  [`around`] takes its
//! samples before and after a closure that starts and joins every such
//! thread.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Units of reference work per calibration sample (about 1 ms).
pub const UNITS: u32 = 150;
/// Timed calls between two speed samples in the layer replays (a few
/// to ~20 ms of work).
pub const REPLAY_BLOCK: usize = 8192;
/// The speed CPU-bound figures are scaled to, in units per second: about
/// midway between the two speed states of the machine the benchmark was
/// built on, so scaled figures read close to raw ones.
pub const REFERENCE: f64 = 150_000.0;

/// One unit: small-string formatting, hashing, ordered-map churn and
/// short-lived allocations — the kinds of work a request does.
fn unit(seed: u64) -> u64 {
    let mut map: BTreeMap<u32, String> = BTreeMap::new();
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..32u64 {
        let s = format!("v{}", (seed.wrapping_mul(31) + i) % 977);
        for b in s.bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let copy: Vec<u8> = s.bytes().rev().collect();
        acc ^= copy.len() as u64;
        map.insert((acc % 61) as u32, s);
    }
    acc ^ map.len() as u64
}

/// Reference units per second, measured now over [`UNITS`] units.
pub fn units_per_s() -> f64 {
    let started = Instant::now();
    let mut acc = 0u64;
    for i in 0..u64::from(UNITS) {
        acc ^= unit(black_box(i));
    }
    black_box(acc);
    f64::from(UNITS) / started.elapsed().as_secs_f64()
}

/// Speed samples taken between blocks of work: sample `b` before block
/// `b`, one more after the last block.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    samples: Vec<f64>,
}

impl Timeline {
    /// Room for `blocks` blocks, so sampling allocates nothing.
    pub fn with_blocks(blocks: usize) -> Timeline {
        Timeline {
            samples: Vec::with_capacity(blocks + 1),
        }
    }

    /// Takes one speed sample now.
    pub fn sample(&mut self) {
        self.samples.push(units_per_s());
    }

    /// What scales a time measured in block `b` to [`REFERENCE`] speed:
    /// the block's speed (the mean of the samples around it) over the
    /// reference.  Rates scale by the inverse.
    pub fn time_factor(&self, block: usize) -> f64 {
        let last = self.samples.len() - 1;
        let (a, b) = (
            self.samples[block.min(last)],
            self.samples[(block + 1).min(last)],
        );
        (a + b) / 2.0 / REFERENCE
    }

    /// `ns` measured in block `b`, at reference speed.
    pub fn scale(&self, ns: u64, block: usize) -> u64 {
        (ns as f64 * self.time_factor(block)) as u64
    }

    /// Mean of the samples, units per second.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64
    }
}

/// Runs `block` between two samples of `speed` (units per second), so
/// every thread `block` starts and joins is gone while they are taken.
/// Returns `block`'s result and a one-block [`Timeline`].
pub fn around<T>(mut speed: impl FnMut() -> f64, block: impl FnOnce() -> T) -> (T, Timeline) {
    let mut timeline = Timeline::with_blocks(1);
    timeline.samples.push(speed());
    let out = block();
    timeline.samples.push(speed());
    (out, timeline)
}

/// `K` sums of times over a stretch of work, at [`REFERENCE`] speed.  A
/// speed sample opens the stretch and follows every `every` additions;
/// each block's sums scale by the samples around it.
#[derive(Debug)]
pub struct Meter<const K: usize> {
    speed: fn() -> f64,
    every: usize,
    added: usize,
    timeline: Timeline,
    blocks: Vec<[u64; K]>,
}

impl<const K: usize> Meter<K> {
    /// A meter whose first block starts now.
    pub fn start(every: usize) -> Meter<K> {
        Meter::with_speed(every, units_per_s)
    }

    fn with_speed(every: usize, speed: fn() -> f64) -> Meter<K> {
        Meter {
            speed,
            every: every.max(1),
            added: 0,
            timeline: Timeline {
                samples: vec![speed()],
            },
            blocks: vec![[0; K]],
        }
    }

    /// Adds `ns`, measured just now, to sum `k`.
    pub fn add(&mut self, k: usize, ns: u64) {
        self.blocks.last_mut().expect("a meter has a block")[k] += ns;
        self.added += 1;
        if self.added.is_multiple_of(self.every) {
            self.timeline.samples.push((self.speed)());
            self.blocks.push([0; K]);
        }
    }

    /// The sums at reference speed, ns.
    pub fn finish(mut self) -> [f64; K] {
        self.timeline.samples.push((self.speed)());
        let mut sums = [0.0; K];
        for (b, block) in self.blocks.iter().enumerate() {
            let factor = self.timeline.time_factor(b);
            for (sum, &ns) in sums.iter_mut().zip(block) {
                *sum += ns as f64 * factor;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn samples_around_a_block_miss_the_threads_it_starts() {
        // The sampler reads half speed while the busy thread runs, as the
        // kernel would if it shared the CPU with it.
        let busy = AtomicBool::new(false);
        let speed = || {
            if busy.load(Ordering::SeqCst) {
                REFERENCE / 2.0
            } else {
                REFERENCE
            }
        };
        let ((), timeline) = around(speed, || {
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                busy.store(true, Ordering::SeqCst);
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    busy.store(false, Ordering::SeqCst);
                });
                std::thread::sleep(Duration::from_millis(20));
                stop.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(timeline.time_factor(0), 1.0);
    }

    #[test]
    fn meter_scales_each_block_by_its_own_samples() {
        // Samples REFERENCE, 2x, 4x: block 0 scales by 1.5, block 1 by 3.
        fn doubling() -> f64 {
            static CALLS: AtomicU32 = AtomicU32::new(0);
            REFERENCE * f64::from(1u32 << CALLS.fetch_add(1, Ordering::SeqCst))
        }
        let mut m = Meter::<2>::with_speed(2, doubling);
        m.add(0, 100);
        m.add(1, 10);
        m.add(0, 40);
        assert_eq!(m.finish(), [150.0 + 120.0, 15.0]);
    }
}
