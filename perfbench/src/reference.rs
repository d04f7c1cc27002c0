//! The reference kernel: fixed host work timed next to every `run()`.
//!
//! The benchmark runs on a shared host whose speed changes for seconds
//! to minutes at a time, by up to 2x for the simulator (README.md,
//! "Steadiness"). `measure` times this kernel before the first job and
//! after every job (`bracket`), and `run.py` divides each `run()` by the
//! mean of the two kernel times around it. A slow phase stretches both, so the
//! ratio keeps the simulator's own speed and drops most of the host's.
//!
//! The kernel stands in for the simulator's kind of host work: hashed
//! and ordered maps, a queue and a sort, over a few hundred KiB, with
//! data-dependent branches. Among the kernels tried (README.md), this
//! mix slowed most like the simulator did. It uses only the standard
//! library and none of the simulator's code, so a change to the
//! simulator never moves it. Do not change it: its time is the unit the
//! throughputs are measured in.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Keys the maps draw from.
const KEYS: u64 = 20_000;
/// Map operations per kernel run.
const MAP_OPS: u64 = 100_000;
/// Entries a queued key stays in the maps.
const QUEUE: usize = 64;
/// Words sorted per kernel run.
const SORT_LEN: usize = 200_000;

/// xorshift64: the kernel's fixed input stream.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The kernel's work; returns a checksum that depends on all of it.
fn work() -> u64 {
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut ordered = BTreeMap::new();
    let mut queue = VecDeque::with_capacity(QUEUE + 1);
    let mut sum = 0u64;
    for i in 0..MAP_OPS {
        let k = next(&mut rng) % KEYS;
        *hashed.entry(k).or_insert(0) += i;
        ordered.insert(k ^ 0x55, i);
        queue.push_back(k);
        if queue.len() > QUEUE {
            let old = queue.pop_front().unwrap_or_default();
            sum = sum.wrapping_add(hashed.get(&old).copied().unwrap_or_default());
            ordered.remove(&(old ^ 0x55));
        }
    }
    let mut words: Vec<u64> = (0..SORT_LEN).map(|_| next(&mut rng)).collect();
    words.sort_unstable();
    sum ^ ordered.len() as u64 ^ words[SORT_LEN / 2]
}

/// Host seconds of one kernel run.
pub fn time() -> f64 {
    let t = Instant::now();
    black_box(work());
    t.elapsed().as_secs_f64()
}

/// Share of a job's `run()` time spent on the kernel after it, so that a
/// long job is compared with more than one short kernel sample.
const SHARE: f64 = 0.125;

/// Runs the kernel at least once and until it has taken `SHARE` of
/// `run_s`; returns its mean host seconds per run.
pub fn bracket(run_s: f64) -> f64 {
    let (mut total, mut n) = (0.0, 0.0);
    while n == 0.0 || total < SHARE * run_s {
        total += time();
        n += 1.0;
    }
    total / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(work(), work());
        assert!(time() > 0.0);
        assert!(bracket(0.0) > 0.0);
    }
}
