//! Host-speed calibration: a fixed kernel, timed around every repetition.
//!
//! A shared host's speed drifts by tens of percent over minutes (other
//! tenants on the same cores, caches and memory), so two runs of the same
//! code minutes apart differ by more than any change worth detecting. The
//! drift is slow next to one repetition, so timing a fixed kernel just before
//! and just after a repetition measures the host's speed during it, and
//! scaling the repetition's times by that speed cancels the drift. The kernel
//! is the benchmark's own code and never calls the library, so no change to
//! the library moves it.
//!
//! It mimics the sweep's mix: one worker per sweep thread, each drawing
//! 64-bit words from a xorshift generator, combining them bitwise, counting
//! bits and scattering into a table the size of a decoder's working set.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host. Reported times are scaled to a
/// host on which one calibration takes this long; a quiet 2-core x86-64 host
/// takes about 0.11 s.
pub const REFERENCE_S: f64 = 0.1;

/// Words in each worker's table (256 KiB).
const TABLE_WORDS: usize = 1 << 15;

/// Rounds per worker.
const ROUNDS: usize = 16 << 20;

fn kernel(seed: u64) -> u64 {
    let mut table = vec![0u64; TABLE_WORDS];
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let w = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let slot = (w >> 49) as usize & (TABLE_WORDS - 1);
        let old = table[slot];
        table[slot] = old ^ (w & (x >> 3));
        acc = acc.wrapping_add(u64::from((old | w).count_ones()));
        if acc & 1 == 1 {
            acc = acc.rotate_left(5);
        }
    }
    acc ^ table[acc as usize & (TABLE_WORDS - 1)]
}

/// Wall seconds for `threads` workers to run the kernel once each.
pub fn run(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1) as u64)
            .map(|t| scope.spawn(move || black_box(kernel(black_box(0x9E37_79B9 + t)))))
            .collect();
        for w in workers {
            black_box(w.join().expect("calibration worker"));
        }
    });
    start.elapsed().as_secs_f64()
}
