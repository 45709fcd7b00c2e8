//! Host-speed calibration of the end-to-end timings.
//!
//! The benchmark is meant for hosts whose cores are shared with other
//! tenants. On the 2-vCPU host it was tuned on, the same operation ran up to
//! 1.8× slower for minutes at a time, in step with the neighbours' load, and
//! a run of a few seconds often sits inside one such phase: raw medians of
//! ten runs spread by more than any usable bound. So a fixed reference
//! kernel, the benchmark's own code that never calls the simulator, is timed
//! before each operation. Its time follows the host's phases as the
//! simulator's does, and no change to the simulator moves it. Each
//! operation's host time is multiplied by [`REF_NS`] ÷ the median kernel time
//! over the operations around it: the time it would have taken with the host
//! at its reference speed.
//!
//! The kernel mixes four kinds of work in the simulator's instruction mix,
//! because each tracked one workload's slow-downs best and none tracked all:
//! hash-map inserts with string formatting, hash-map lookups, a
//! branch-heavy dispatch loop over a bounded queue, and a sort. Its time is
//! the geometric mean of the four parts' times.

use crate::workloads::mix;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in ns, with the host at its reference speed: its
/// median over a 20 s `fig10_sample` run on the 2-vCPU Xeon host the
/// benchmark was tuned on, in a fast phase (363 µs).
pub const REF_NS: f64 = 360_000.0;

/// A time is scaled by the median kernel time over this many operations
/// before and after it.
const HALF_WINDOW: usize = 10;

fn timed(f: impl FnOnce() -> u64) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_nanos() as f64
}

/// Hash-map inserts and string formatting: allocation-heavy.
fn insert_format() -> u64 {
    let mut map = HashMap::new();
    let mut lines = Vec::new();
    for i in 0..2_500u64 {
        map.insert(mix(i), i);
        lines.push(format!("{{\"e\":{i},\"x\":{}}}", mix(i) & 0xffff));
    }
    (map.len() + lines.iter().map(String::len).sum::<usize>()) as u64
}

/// Lookups and updates in a small hash map.
fn lookup() -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1024);
    let mut acc = 0;
    for i in 0..25_000u64 {
        let k = mix(i) & 1023;
        *map.entry(k).or_default() += i;
        acc += map.get(&(k ^ 5)).copied().unwrap_or(1);
    }
    acc
}

/// A dispatch loop over a random program, retiring through a bounded queue
/// the way a reorder buffer does: unpredictable branches.
fn dispatch() -> u64 {
    let program: Vec<u8> = (0..256u64).map(|i| (mix(i) % 7) as u8).collect();
    let mut regs = [0u64; 16];
    let mut queue: VecDeque<(u64, bool)> = VecDeque::with_capacity(64);
    let mut pc = 0usize;
    for seq in 0..50_000u64 {
        let r = seq as usize & 15;
        let v = match program[pc & 255] {
            0 => regs[r].wrapping_add(regs[(r + 3) & 15]),
            1 => regs[r] ^ seq,
            2 => regs[r].rotate_left(5),
            3 => {
                pc = pc.wrapping_add((regs[r] & 7) as usize);
                regs[r]
            }
            4 => regs[r].wrapping_mul(3),
            5 if regs[r] & 1 == 0 => regs[r] >> 1,
            5 => regs[r].wrapping_add(seq),
            _ => seq,
        };
        regs[(r + 1) & 15] = v;
        queue.push_back((v.wrapping_add(seq), v & 3 != 0));
        if queue.len() > 48 {
            while let Some(&(v, done)) = queue.front() {
                if !done && queue.len() <= 60 {
                    break;
                }
                regs[0] ^= v;
                queue.pop_front();
            }
            for e in queue.iter_mut().take(8) {
                e.1 = true;
            }
        }
        pc += 1;
    }
    regs.iter().fold(0, |a, r| a.wrapping_add(*r))
}

/// An unstable sort of pseudo-random keys.
fn sort() -> u64 {
    let mut keys: Vec<u64> = (0..25_000u64).map(mix).collect();
    keys.sort_unstable();
    keys[keys.len() / 2]
}

/// Runs the reference kernel once; returns its time in ns.
pub fn kernel_ns() -> f64 {
    let parts = [
        timed(insert_format),
        timed(lookup),
        timed(dispatch),
        timed(sort),
    ];
    (parts.iter().map(|t| t.ln()).sum::<f64>() / parts.len() as f64).exp()
}

/// For kernel times taken one before each timed item, the factor that
/// scales each item's time to the reference speed.
pub fn scales(kernel_ns: &[f64]) -> Vec<f64> {
    (0..kernel_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(kernel_ns.len());
            REF_NS / crate::quantile(&kernel_ns[lo..hi], 0.5)
        })
        .collect()
}
