//! The machine's speed, measured by fixed kernels of the benchmark's own.
//!
//! On a shared host the speed of the whole machine drifts by tens of
//! percent from one minute to the next, which no number of repeats inside
//! one run averages away. Each pipeline repeat therefore runs its
//! workload's kernel right before and right after its timed section, on
//! as many threads as the campaign's workers, and the end-to-end figures
//! are scaled by how long the kernel took against its reference time.
//! The kernels belong to the benchmark, not the library, so a change to
//! the program moves the campaign's times and leaves the kernels' alone.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::thread;
use std::time::Instant;

use crate::common::Res;

/// What a workload spends its time on, and so which kernel tracks the
/// machine's speed for it.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// Long stretches of serial simulation on every worker.
    Compute,
    /// Many short waves: spawn the workers, a little simulation each,
    /// join, append a small record and sync it.
    Waves,
}

/// Robot moves of one `Compute` kernel thread.
const COMPUTE_MOVES: u32 = 5_000_000;
/// Waves of one `Waves` kernel, robot moves per thread and bytes appended
/// per wave (about one 8-unit wave of `store-churn`).
const WAVES: usize = 200;
const WAVE_MOVES: u32 = 3_000;
const WAVE_BYTES: usize = 3_300;

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Compute => "compute",
            Kernel::Waves => "waves",
        }
    }

    pub fn parse(name: &str) -> Option<Kernel> {
        [Kernel::Compute, Kernel::Waves]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Seconds the kernel takes at reference speed (about its median on
    /// the 2-vCPU host the bounds were set on). Only the scale of the
    /// reported figures depends on it.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Compute => 0.05,
            Kernel::Waves => 0.04,
        }
    }

    /// Wall seconds of one run of the kernel on `threads` threads; the
    /// `Waves` kernel writes and removes a scratch file in `dir`.
    pub fn measure(self, threads: usize, dir: &Path) -> Res<f64> {
        match self {
            Kernel::Compute => {
                let t0 = Instant::now();
                wave(threads, 0, COMPUTE_MOVES);
                Ok(t0.elapsed().as_secs_f64())
            }
            Kernel::Waves => {
                let path = dir.join("calibrate.bin");
                let mut file = File::create(&path)?;
                let t0 = Instant::now();
                for w in 0..WAVES {
                    wave(threads, (w * threads) as u64, WAVE_MOVES);
                    file.write_all(&[b'x'; WAVE_BYTES])?;
                    file.sync_data()?;
                }
                let elapsed = t0.elapsed().as_secs_f64();
                drop(file);
                fs::remove_file(&path)?;
                Ok(elapsed)
            }
        }
    }
}

/// Spawns `threads` threads that each make `moves` robot moves, and joins
/// them.
fn wave(threads: usize, seed: u64, moves: u32) {
    thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || black_box(simulate(black_box(seed + t + 1), moves)));
        }
    });
}

/// A small ring-exploration loop: three robots on a 1024-node ring, each
/// move drawing the edges it may cross from a xorshift stream and
/// counting visits. Integer, branchy and cache-resident, like the
/// serial simulators the campaigns spend their time in.
fn simulate(seed: u64, moves: u32) -> u64 {
    const N: usize = 1024;
    let mut visits = vec![0u32; N];
    let mut robots = [0usize, N / 3, 2 * N / 3];
    let mut x = seed | 1;
    for _ in 0..moves / 3 {
        for r in &mut robots {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 6 != 0 {
                *r = if x & 1 == 1 {
                    (*r + 1) % N
                } else {
                    (*r + N - 1) % N
                };
            }
            visits[*r] = visits[*r].wrapping_add(1);
        }
    }
    visits.iter().enumerate().fold(0u64, |h, (i, &v)| {
        h.wrapping_mul(31).wrapping_add(v as u64 ^ i as u64)
    })
}
