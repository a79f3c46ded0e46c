//! The reference clock.
//!
//! The host's effective speed drifts, in bursts shorter than a round and in
//! phases lasting tens of seconds, so a raw wall-clock round time does not
//! repeat from one run to the next. Every timed section is therefore paired
//! with runs of a fixed reference kernel at the same thread count, and
//! reported as `raw × (nominal reference time ÷ observed reference time)`.
//! The observed time is the mean of the reference runs just before and just
//! after the section; each lasts about as long as one round, since a short
//! reference misses the bursts that land in the round.
//!
//! The kernel calls no program code, so no change to the program can move it.
//! It is shaped like the per-user client path (a seeded generator, a small
//! hash map built per item, `ln`, short buffer writes into a batch that is
//! accumulated per key), because the host's slowdowns hit kinds of code
//! unequally: a pure arithmetic loop, or one that streams memory, tracked
//! the program's drift much worse.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Sampled keys per iteration, as `m` in the sparse client path.
const KEYS: u64 = 8;
/// Key domain, as `d` in the sparse client path.
const DOMAIN: u64 = 256;

/// Reference-kernel time per iteration, in µs, at 1 and at 2 or more
/// threads: the median over back-to-back runs on a 2-vCPU Intel Xeon at
/// 2.1 GHz. They only fix the unit of the reference clock: on that machine a
/// reference-clock time is close to the wall-clock time.
const NOMINAL_US_1: f64 = 0.641;
const NOMINAL_US_N: f64 = 0.680;

/// SplitMix64 finalizer.
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rescale a raw duration onto the reference clock.
pub fn to_reference(raw: f64, observed_ref_ms: f64, nominal_ref_ms: f64) -> f64 {
    raw * (nominal_ref_ms / observed_ref_ms)
}

/// The reference kernel at a fixed thread count.
pub struct RefClock {
    threads: usize,
    iterations: u64,
}

impl RefClock {
    /// A reference clock running `iterations` kernel iterations on each of
    /// `threads` threads at once.
    pub fn new(threads: usize, iterations: u64) -> Self {
        Self {
            threads: threads.max(1),
            iterations,
        }
    }

    /// The kernel's nominal time at this thread count, in ms.
    pub fn nominal_ms(&self) -> f64 {
        let per_iteration_us = if self.threads == 1 {
            NOMINAL_US_1
        } else {
            NOMINAL_US_N
        };
        per_iteration_us * self.iterations as f64 / 1e3
    }

    /// Run the kernel once on every thread and return the wall time in ms.
    pub fn measure(&self, salt: u64) -> f64 {
        let start = Instant::now();
        if self.threads == 1 {
            black_box(kernel(salt, self.iterations));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|t| scope.spawn(move || kernel(salt ^ t as u64, self.iterations)))
                    .collect();
                for handle in handles {
                    black_box(handle.join().expect("reference kernel thread panicked"));
                }
            });
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Scale of the Laplace noise the kernel draws.
const NOISE_SCALE: f64 = 16.0;
/// Items between accumulations of the batch buffer.
const BATCH: usize = 256;

/// xoshiro256++ seeded through SplitMix64.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn new(seed: u64) -> Self {
        let a = mix(seed);
        let b = mix(a);
        let c = mix(b);
        Self([a, b, c, mix(c) | 1])
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One thread's share of the reference work: per item, seed a generator,
/// sample `KEYS` of `DOMAIN` keys by a partial Fisher–Yates shuffle over a
/// freshly allocated hash map, draw Laplace noise for each, and push the
/// entries through a batch buffer into per-key sums.
fn kernel(salt: u64, iterations: u64) -> f64 {
    let mut sums = vec![0.0f64; DOMAIN as usize];
    let mut counts = vec![0u64; DOMAIN as usize];
    let mut batch: Vec<(u32, f64)> = Vec::with_capacity(BATCH * KEYS as usize);
    let mut scratch: Vec<(u64, f64)> = Vec::new();
    for i in 0..iterations {
        let mut rng = Xoshiro::new(salt.wrapping_add(mix(i)));
        let mut displaced: HashMap<u64, u64> = HashMap::with_capacity(2 * KEYS as usize);
        let mut chosen = Vec::with_capacity(KEYS as usize);
        for k in 0..KEYS {
            let j = k + rng.next() % (DOMAIN - k);
            let value_j = displaced.get(&j).copied().unwrap_or(j);
            let value_k = displaced.get(&k).copied().unwrap_or(k);
            chosen.push(value_j);
            displaced.insert(j, value_k);
        }
        scratch.clear();
        for j in chosen {
            let u = rng.unit() - 0.5;
            let noise =
                -NOISE_SCALE * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
            let value =
                (mix(salt ^ i ^ j.rotate_left(32)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            scratch.push((j, value + noise));
        }
        batch.extend(scratch.iter().map(|&(j, v)| (j as u32, v)));
        if batch.len() >= BATCH * KEYS as usize {
            for &(j, v) in &batch {
                sums[j as usize] += v;
                counts[j as usize] += 1;
            }
            batch.clear();
        }
    }
    sums.iter().sum::<f64>() + counts.iter().sum::<u64>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reference_at_its_nominal_time_leaves_timings_unchanged() {
        for raw in [0.0, 1e-9, 0.125, 37.5, 1e6] {
            for nominal in [
                RefClock::new(1, 1000).nominal_ms(),
                RefClock::new(2, 10).nominal_ms(),
                3.25,
            ] {
                assert_eq!(to_reference(raw, nominal, nominal), raw);
            }
        }
    }

    #[test]
    fn a_slow_reference_scales_timings_down_and_a_fast_one_up() {
        assert_eq!(to_reference(100.0, 20.0, 10.0), 50.0);
        assert_eq!(to_reference(100.0, 5.0, 10.0), 200.0);
    }

    #[test]
    fn the_kernel_is_deterministic_and_takes_time() {
        assert_eq!(kernel(7, 1000), kernel(7, 1000));
        assert!(RefClock::new(1, 1000).measure(1) > 0.0);
        assert!(RefClock::new(2, 1000).measure(1) > 0.0);
    }
}
