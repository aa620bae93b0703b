//! The machine-speed probe.
//!
//! The sandbox is a small guest on a shared host, and how fast its cores run
//! changes with what the neighbours do: by 1.2–1.7× for seconds to minutes at
//! a time (a busy hyperthread sibling, most likely), with no steal time
//! reported. Ten runs of the same code then spread by 20–50 %, whatever
//! statistic each run reports, and no bound under that can tell a regression
//! from a neighbour.
//!
//! So every run measures the machine beside the program. After each timed
//! request the probe runs a fixed computation for a fifth of the time the
//! request took: *chunks* of work that does not depend on the engine — binary
//! searches in a cache-resident sorted array, small sorts, open-addressing
//! inserts; instruction throughput, branch prediction and the core's own
//! caches, which is what a busy sibling takes away. What a chunk costs now,
//! over what it costs on the reference machine, is the *speed factor* of
//! that stretch of the run, and the end-to-end times are divided by it (see
//! `workload.rs`). Over ten 20 s runs that met slow states the four
//! workloads spread by 9–28 % as measured and by 1–4 % scaled (`churn`,
//! whose writes run on a second thread, 6–11 %).
//!
//! The probe is part of the benchmark, not of the engine: a change to the
//! engine cannot move it, so a faster engine still reads faster. A probe of
//! dependent loads over 16 MiB (memory latency) was tried beside this one;
//! blending it in made every spread wider, so it is not here.

use std::time::Instant;

/// What a chunk costs on the reference machine — this sandbox when little
/// disturbs it; its quietest minutes read 0.9 — in nanoseconds: a speed
/// factor of 1.0 means "as fast as that".
pub const REFERENCE_CHUNK_NS: f64 = 5_400.0;

/// Probe time spent per unit of request time.
pub const PROBE_SHARE: f64 = 0.2;

const SORTED_LEN: usize = 1 << 16; // 256 KiB of u32: stays in L2
const ROUNDS: usize = 8;
const INTERRUPTED: u64 = 5;

/// Probe work done and the time it took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    pub chunks: u64,
    pub ns: u64,
}

impl Reading {
    pub fn add(&mut self, other: Reading) {
        self.chunks += other.chunks;
        self.ns += other.ns;
    }

    /// How much slower than the reference machine the probe ran; 1.0 for no
    /// reading.
    pub fn speed_factor(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        self.ns as f64 / self.chunks as f64 / REFERENCE_CHUNK_NS
    }
}

pub struct Probe {
    sorted: Vec<u32>,
    x: u64,
    sink: usize,
    /// Probe time owed to the requests so far and not yet spent (ns).
    owed_ns: f64,
    /// The cheapest chunk so far (ns).
    fastest_ns: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            sorted: (0..SORTED_LEN as u32).map(|i| i * 7 + 3).collect(),
            x: 0x9E37_79B9_7F4A_7C15,
            sink: 0,
            owed_ns: 0.0,
            fastest_ns: u64::MAX,
        }
    }

    /// One chunk, timed. Neighbours slow a chunk by up to 2×; one that took
    /// [`INTERRUPTED`] times the cheapest seen was interrupted (the thread
    /// lost the CPU for a time slice), which says nothing about speed and
    /// would outweigh a thousand honest chunks, so it counts as that much
    /// and no more.
    fn chunk(&mut self) -> Reading {
        let start = Instant::now();
        self.work();
        let ns = start.elapsed().as_nanos() as u64;
        self.fastest_ns = self.fastest_ns.min(ns);
        Reading {
            chunks: 1,
            ns: ns.min(INTERRUPTED * self.fastest_ns),
        }
    }

    /// Probe after a request that took `request_ns`: whole chunks while the
    /// probe is owed time, [`PROBE_SHARE`] of all request time so far. A
    /// request shorter than a chunk's worth leaves its share to the next.
    pub fn after_request(&mut self, request_ns: u64) -> Reading {
        self.owed_ns += request_ns as f64 * PROBE_SHARE;
        let mut reading = Reading::default();
        while self.owed_ns > 0.0 {
            let chunk = self.chunk();
            self.owed_ns -= chunk.ns as f64;
            reading.add(chunk);
        }
        reading
    }

    fn work(&mut self) {
        let mut acc = self.sink;
        let mut buf = [0u32; 48];
        for _ in 0..ROUNDS {
            for _ in 0..8 {
                let key = (xorshift(&mut self.x) >> 40) as u32 % (SORTED_LEN as u32 * 7);
                acc += self.sorted.partition_point(|v| *v < key);
            }
            for slot in buf.iter_mut() {
                *slot = (xorshift(&mut self.x) >> 33) as u32 | 1;
            }
            buf.sort_unstable();
            acc += buf[7] as usize;
            let mut table = [0u32; 64];
            for value in &buf[..16] {
                let mut h = (value.wrapping_mul(0x9E37_79B1) >> 26) as usize;
                while table[h] != 0 && table[h] != *value {
                    h = (h + 1) & 63;
                }
                table[h] = *value;
            }
            acc += table[acc & 63] as usize;
        }
        self.sink = std::hint::black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_spends_its_share_and_no_more() {
        let mut probe = Probe::new();
        assert_eq!(probe.after_request(0), Reading::default());
        let reading = probe.after_request(10_000_000);
        assert!(reading.chunks > 1 && reading.ns as f64 >= 10_000_000.0 * PROBE_SHARE);
        // That overspent by part of a chunk, which the next request pays.
        assert!(probe.owed_ns <= 0.0);
    }

    #[test]
    fn speed_factor_is_chunk_cost_over_reference() {
        assert_eq!(Reading::default().speed_factor(), 1.0);
        let twice = Reading {
            chunks: 10,
            ns: (20.0 * REFERENCE_CHUNK_NS) as u64,
        };
        assert!((twice.speed_factor() - 2.0).abs() < 1e-9);
    }
}
