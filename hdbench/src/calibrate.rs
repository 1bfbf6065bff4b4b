//! Host-speed calibration.
//!
//! The reference host is shared: its single-thread speed for this kind
//! of work drifts by ±25 % over minutes (NCI1 encode moved between about
//! 8,600 and 14,700 graphs/s in one 150-second probe), and from one fit
//! to the next by a coefficient of variation of about 0.13, while steal
//! time stays near zero. A fixed kernel that does the encoder's kind of
//! work — xorshift basis vectors, XOR binding, bit-sliced counter planes
//! and a majority threshold over 10,000-bit vectors — follows that
//! drift in part. A run measures it just before each timed operation and
//! scales the operation's timing by it to the speed the host has when
//! this kernel runs at [`REFERENCE`] graphs/s. Over the fits of one run,
//! the ratio of fit throughput to the kernel's rate varied by a
//! coefficient of about 0.09, against 0.13–0.15 for the throughput
//! alone. A DD-sized kernel graph tracked the fits of both NCI1 and DD
//! better than an NCI1-sized one (correlation 0.75–0.80 against
//! 0.64–0.75).
//!
//! The kernel is the benchmark's own code, and it runs only while the
//! benchmark's main thread is the only thread of the process: every
//! thread the suite started (pool workers, engine dispatcher, server
//! acceptor and connections) has ended. So nothing the suite does, busy
//! or idle, can share the CPU with the kernel and move the factor.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration rate, in kernel graphs per second, that the end-to-end
/// timings are scaled to: about the median on the reference host.
pub const REFERENCE: f64 = 625.0;
/// 64-bit words of a 10,000-bit vector.
const WORDS: usize = 157;
/// Shape of one kernel graph: DD-sized.
const VERTICES: usize = 284;
const EDGES: usize = 751;
/// Counter planes: enough bits to count every edge.
const PLANES: usize = (usize::BITS - EDGES.leading_zeros()) as usize;
/// Kernel graphs per timed batch, and batches per calibration.
const BATCH: u64 = 2;
const BATCHES: usize = 9;

/// One graph's worth of encoder-like work; returns the count of set
/// majority bits so the work cannot be dropped.
fn kernel_graph(seed: u64) -> usize {
    let mut x = seed | 1;
    let mut basis = vec![[0u64; WORDS]; VERTICES];
    for vector in &mut basis {
        for word in vector.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *word = x;
        }
    }
    let mut planes = vec![[0u64; WORDS]; PLANES];
    let mut edge = [0u64; WORDS];
    for e in 0..EDGES {
        let (a, b) = (e % VERTICES, (e * 7 + 3) % VERTICES);
        for i in 0..WORDS {
            edge[i] = basis[a][i] ^ basis[b][i];
        }
        for i in 0..WORDS {
            let mut carry = edge[i];
            for plane in &mut planes {
                let next = plane[i] & carry;
                plane[i] ^= carry;
                carry = next;
                if carry == 0 {
                    break;
                }
            }
        }
    }
    let mut counts = vec![0i32; WORDS * 64];
    for (j, plane) in planes.iter().enumerate() {
        for (i, &word) in plane.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                counts[i * 64 + bits.trailing_zeros() as usize] += 1 << j;
                bits &= bits - 1;
            }
        }
    }
    let half = (EDGES / 2) as i32;
    counts.iter().filter(|&&c| c > half).count()
}

/// How long the suite's threads get to end before a calibration.
const SETTLE: Duration = Duration::from_secs(2);

/// Threads of this process (`Threads:` in `/proc/self/status`).
fn process_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

/// The host's current speed: median kernel graphs per second over a few
/// short batches (about 30 ms in all). Waits until the calling thread is
/// the process's only one, and fails if that does not happen soon.
pub fn host_speed() -> Result<f64, String> {
    let deadline = Instant::now() + SETTLE;
    loop {
        match process_threads() {
            Some(1) => break,
            Some(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Some(n) => {
                return Err(format!(
                    "calibration needs the program stopped, but {} threads besides the \
                     benchmark's are still alive",
                    n - 1
                ))
            }
            None => return Err("cannot read the thread count from /proc/self/status".into()),
        }
    }
    let mut rates: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            let mut sink = 0;
            for g in 0..BATCH {
                sink += kernel_graph(black_box(b as u64 * BATCH + g));
            }
            black_box(sink);
            BATCH as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    Ok(rates[BATCHES / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_thread_count_readable() {
        assert_eq!(kernel_graph(7), kernel_graph(7));
        assert!(process_threads().is_some());
    }
}
