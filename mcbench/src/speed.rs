//! The box's speed, measured with a fixed kernel of the benchmark's own.
//!
//! A shared host's speed drifts by ±20 % over minutes (other tenants on
//! the same cores and caches), and every wall time the benchmark takes
//! moves with it — by more than a regression bound can allow. So every
//! end-to-end time is reported in reference seconds: next to each unit of
//! measured work the benchmark runs its own kernel for a fixed share of
//! that work's time, and scales the work's time by how fast the kernel ran
//! against its speed on the reference box. The kernel does what the
//! optimizer spends its time on — allocating, hashing into maps of small
//! vectors, sorting — but calls nothing in the program, so a change to the
//! program moves a scaled time exactly as it moves the raw one; only the
//! box's drift cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel chunks per second on the reference box (2 cores, quiet).
pub const REF_CHUNKS_PER_S: f64 = 5500.0;

/// Kernel time per second of measured work.
const SHARE: f64 = 0.05;

/// Keys one chunk hashes and sorts.
const CHUNK_KEYS: usize = 1500;

/// Accumulates kernel chunks and their time until [`SpeedMeter::take`].
#[derive(Debug)]
pub struct SpeedMeter {
    /// Threads the kernel runs on at once: as many as the measured work
    /// keeps busy, so that every core it ran on is sampled.
    threads: usize,
    chunks: u64,
    secs: f64,
}

impl SpeedMeter {
    /// A meter that runs the kernel on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        SpeedMeter {
            threads: threads.max(1),
            chunks: 0,
            secs: 0.0,
        }
    }

    /// Runs the kernel for [`SHARE`] of `work_s` seconds (at least one
    /// chunk per thread), to be called right after that much measured work.
    pub fn follow(&mut self, work_s: f64) {
        let budget = SHARE * work_s;
        let runs: Vec<(u64, f64)> = if self.threads == 1 {
            vec![run_for(budget, 0)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|t| s.spawn(move || run_for(budget, t as u64)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("kernel thread"))
                    .collect()
            })
        };
        for (chunks, secs) in runs {
            self.chunks += chunks;
            self.secs += secs;
        }
    }

    /// The box's speed since the last call, relative to the reference box
    /// (0.8: the kernel ran 20 % slower); starts afresh. A time `t` taken
    /// meanwhile is `t × speed` reference seconds. 1.0 when nothing ran.
    pub fn take(&mut self) -> f64 {
        let speed = if self.chunks == 0 || self.secs <= 0.0 {
            1.0
        } else {
            self.chunks as f64 / self.secs / REF_CHUNKS_PER_S
        };
        self.chunks = 0;
        self.secs = 0.0;
        speed
    }
}

/// Runs kernel chunks on this thread until `budget` seconds have passed
/// (at least one); returns the chunks run and the time they took.
fn run_for(budget: f64, thread: u64) -> (u64, f64) {
    // xorshift64: the kernel's input is the same on every run.
    let mut state = 0x2545_f491_4f6c_dd1d ^ thread.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let t0 = Instant::now();
    let mut chunks = 0;
    loop {
        chunk(&mut state);
        chunks += 1;
        let spent = t0.elapsed().as_secs_f64();
        if spent >= budget {
            return (chunks, spent);
        }
    }
}

/// One chunk: a map of small vectors built from fresh keys, and the keys
/// sorted.
fn chunk(state: &mut u64) {
    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut keys = Vec::with_capacity(CHUNK_KEYS);
    for _ in 0..CHUNK_KEYS {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        groups.entry(x & 0x7ff).or_default().push(x as u32);
        keys.push(x);
    }
    keys.sort_unstable();
    black_box((&groups, &keys));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn following_work_runs_the_kernel_for_its_share() {
        for threads in [1, 2] {
            let mut m = SpeedMeter::new(threads);
            assert_eq!(m.take(), 1.0);
            let t0 = Instant::now();
            m.follow(0.2);
            let spent = t0.elapsed().as_secs_f64();
            assert!(spent >= SHARE * 0.2, "{spent}");
            assert!(m.chunks >= threads as u64);
            assert!(m.secs >= threads as f64 * SHARE * 0.2);
            let speed = m.take();
            assert!(speed.is_finite() && speed > 0.0);
            assert_eq!((m.chunks, m.secs), (0, 0.0));
        }
    }
}
