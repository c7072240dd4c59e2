//! Host-speed calibration.
//!
//! The host clock of a shared machine drifts by 20% or more over minutes,
//! with neighbours' load. A fixed kernel of the benchmark's own — random
//! read-modify-writes over 16 MiB, hash-map updates and a sort, the kinds
//! of work the simulator does — is timed before every repetition and after
//! the last. Host metrics are reported in *reference seconds*: measured
//! seconds scaled by `REFERENCE_S / median kernel seconds` of the run. The
//! kernel is not the program's code, so a change to the program moves the
//! host metrics in full, while a change in the machine's speed moves
//! kernel and workload alike and cancels out. One median per run, rather
//! than a scale per repetition, keeps the kernel's own noise out.

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's time on the machine the bounds were set on (a 2-core
/// x86-64 VM), so reference seconds read close to wall seconds there.
pub const REFERENCE_S: f64 = 0.125;

/// Words in the kernel's buffer (16 MiB).
const WORDS: usize = 1 << 21;

/// The kernel and its buffer. The buffer lives as long as the run, so it
/// adds a constant 16 MiB to the peak resident set instead of a spike.
pub struct Kernel {
    buf: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            buf: vec![0; WORDS],
        }
    }

    /// Runs the kernel once; returns its wall time in seconds.
    pub fn run_s(&mut self) -> f64 {
        let t = Instant::now();
        let v = &mut self.buf;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2 * WORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            v[i] = v[i].wrapping_add(x);
        }
        let mut m: HashMap<u64, u64> = HashMap::new();
        for i in 0..200_000u64 {
            *m.entry(v[(i as usize * 7919) & (WORDS - 1)] % 50_000)
                .or_insert(0) += i;
        }
        let mut sorted = v[..WORDS / 8].to_vec();
        sorted.sort_unstable();
        std::hint::black_box((&sorted, &m));
        t.elapsed().as_secs_f64()
    }
}
