//! The three traffic mixes and their seeded job generators.
//!
//! Why each workload exists is recorded in `servebench/README.md`; in
//! short, `mixed-closed` is bound by the paper's selector and simulator,
//! `small-open` by the gateway's wire and admission path, and
//! `router-batch` by the simulator behind the router ring, the batch path
//! and the write side of the schedule cache.

use drift_gateway::protocol::{batch_request_line_traced, request_line_traced};
use drift_obs::TraceDecision;
use drift_serve::job::{synthetic_jobs, synthetic_schedule_jobs, JobKind, JobSpec};
use drift_tensor::rng::{derive_seed, seeded};
use rand::Rng;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `synthetic_jobs` mix, singleton lines, closed loop, one gateway.
    MixedClosed,
    /// Cache-hit Schedule jobs, singleton lines, open loop, one gateway.
    SmallOpen,
    /// Half-miss Simulate jobs in batches of 32, closed loop, router over
    /// two persistent gateways.
    RouterBatch,
}

/// How a workload is served and driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Backend gateways.
    pub gateways: usize,
    /// Worker threads per gateway.
    pub workers: usize,
    /// Whether a router fronts the gateways (and each gateway gets a
    /// fresh `--store`).
    pub router: bool,
    /// Jobs per request line (1 = singleton lines).
    pub batch: usize,
    /// Closed-loop connections (ignored for open loop).
    pub connections: usize,
    /// Requests each closed-loop connection keeps in flight.
    pub depth: usize,
    /// Open-loop send rate in jobs per second; `None` for closed loop.
    pub open_rate: Option<f64>,
    /// Latency limit per request line, microseconds.
    pub limit_us: f64,
}

/// Open-loop rate of `small-open`, jobs per second: about 60% of the
/// singleton small-job capacity of a 2-CPU host. At lower rates the gaps
/// between requests let virtual CPUs halt, and how late the host wakes
/// them swings latency from run to run (see the README).
pub const SMALL_OPEN_RATE: f64 = 6000.0;
/// Jobs each `mixed-closed` connection keeps in flight: with two per
/// worker, a worker never idles while the next request travels.
pub const MIXED_DEPTH: usize = 2;
/// Batch size of `router-batch`.
pub const ROUTER_BATCH: usize = 32;
/// Batches each `router-batch` connection keeps in flight. A batch is
/// about 13 ms of simulation per gateway on a 2-CPU host, so with one
/// per connection each gateway has the other connection's half-batch
/// queued behind the one it runs.
pub const ROUTER_DEPTH: usize = 1;
/// Distinct shapes in the `synthetic_*` generators.
const SHAPES: usize = 4;
/// `router-batch` draws repeats from the last this-many new keys: far
/// below the gateways' cache capacity, so a repeat is a real hit.
const REPEAT_WINDOW: usize = 256;
/// `router-batch`'s new keys cycle through this many keys: 1.5 times the
/// two gateways' schedule caches (4096 entries each, LRU), so a key seen
/// again a pool later has been evicted and misses, while the router's
/// table of seen keys stops growing once the pool is used, early in a
/// run. Without the cycle that table grew with the jobs a run served, and
/// the router's peak memory followed the host's speed (8 or 12 MiB).
const KEY_POOL: usize = 3 * 4096;
/// GEMM shapes `router-batch` spreads its keys over.
const ROUTER_SHAPES: [(usize, usize, usize); 8] = [
    (256, 768, 768),
    (512, 768, 3072),
    (128, 1024, 1024),
    (64, 512, 512),
    (384, 768, 768),
    (256, 2048, 2048),
    (512, 512, 2048),
    (96, 4096, 1024),
];

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MixedClosed,
        Workload::SmallOpen,
        Workload::RouterBatch,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedClosed => "mixed-closed",
            Workload::SmallOpen => "small-open",
            Workload::RouterBatch => "router-batch",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serving topology and load shape on a host with `nproc` CPUs.
    pub fn plan(self, nproc: usize) -> Plan {
        let closed = nproc.clamp(1, 2);
        match self {
            Workload::MixedClosed => Plan {
                gateways: 1,
                workers: nproc,
                router: false,
                batch: 1,
                connections: closed,
                depth: MIXED_DEPTH,
                open_rate: None,
                limit_us: 50_000.0,
            },
            Workload::SmallOpen => Plan {
                gateways: 1,
                workers: nproc,
                router: false,
                batch: 1,
                connections: 1,
                depth: 1,
                open_rate: Some(SMALL_OPEN_RATE),
                limit_us: 2_000.0,
            },
            Workload::RouterBatch => Plan {
                gateways: 2,
                workers: 1,
                router: true,
                batch: ROUTER_BATCH,
                connections: closed,
                depth: ROUTER_DEPTH,
                open_rate: None,
                limit_us: 100_000.0,
            },
        }
    }

    /// The first `count` jobs of this workload's stream under `seed`.
    /// Job ids are `0..count`. Equal arguments give equal jobs.
    pub fn jobs(self, count: usize, seed: u64) -> Vec<JobSpec> {
        match self {
            Workload::MixedClosed => synthetic_jobs(count, SHAPES, seed),
            Workload::SmallOpen => synthetic_schedule_jobs(count, SHAPES, seed),
            Workload::RouterBatch => half_miss_jobs(count, seed),
        }
    }

    /// Jobs the gateway's cache is warmed with during set-up (answers
    /// are not timed).
    pub fn warmup(self, seed: u64) -> Vec<JobSpec> {
        match self {
            // Every key of the stream: 4 shapes x 4 fraction pairs.
            Workload::SmallOpen => synthetic_schedule_jobs(SHAPES * 4, SHAPES, seed),
            Workload::MixedClosed | Workload::RouterBatch => Vec::new(),
        }
    }
}

/// A `router-batch` stream: Simulate jobs where each job, with
/// probability one half, asks for a key no earlier job used, and
/// otherwise repeats one of the last [`REPEAT_WINDOW`] new keys. New
/// keys cycle through a pool of [`KEY_POOL`] keys, far more than the
/// gateways' caches keep, so about half the jobs miss the schedule
/// cache. A repeat repeats the whole spec (the seed follows the key), so
/// the offline check serves it once.
pub fn half_miss_jobs(count: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = seeded(derive_seed(seed, "servebench-router-batch"));
    let mut fresh = 0usize;
    (0..count)
        .map(|i| {
            let key = if fresh == 0 || rng.gen_bool(0.5) {
                fresh += 1;
                fresh - 1
            } else {
                fresh - 1 - rng.gen_range(0..fresh.min(REPEAT_WINDOW))
            };
            let key = key % KEY_POOL;
            JobSpec {
                id: i as u64,
                seed: seed.wrapping_add(key as u64),
                kind: key_kind(key),
            }
        })
        .collect()
}

/// The Simulate job of the `index`-th key: a shape from the pool and
/// high-precision row/column counts from a bijective scramble of the
/// index, so distinct indices below the pool's `m * n` per shape give
/// distinct schedule keys.
fn key_kind(index: usize) -> JobKind {
    let (m, k, n) = ROUTER_SHAPES[index % ROUTER_SHAPES.len()];
    let slot = index / ROUTER_SHAPES.len();
    // Every m * n in the pool is 2^a * 3^b and 2654435761 is divisible by
    // neither 2 nor 3, so the multiplication permutes `0..m * n`.
    let cell = (slot as u64 * 2_654_435_761 % (m * n) as u64) as usize;
    let (act, weight) = (cell % m, cell / m);
    // Centred fractions: `(m as f64 * fa) as usize` recovers `act`.
    JobKind::Simulate {
        m,
        k,
        n,
        fa: (act as f64 + 0.5) / m as f64,
        fw: (weight as f64 + 0.5) / n as f64,
    }
}

/// One request line of a run: the jobs it carries and its wire text.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The jobs (one for a singleton line).
    pub jobs: Vec<JobSpec>,
    /// The request line, without the newline.
    pub line: String,
}

/// Groups `jobs` into request lines of `batch` jobs: singleton lines for
/// `batch == 1`, else batch lines whose batch id is the unit index.
/// `trace(u)` gives unit `u`'s sampling decision.
pub fn units(
    jobs: Vec<JobSpec>,
    batch: usize,
    trace: impl Fn(usize) -> TraceDecision,
) -> Vec<Unit> {
    let mut units = Vec::with_capacity(jobs.len().div_ceil(batch));
    let mut iter = jobs.into_iter().peekable();
    while iter.peek().is_some() {
        let u = units.len();
        let jobs: Vec<JobSpec> = iter.by_ref().take(batch).collect();
        let line = if batch == 1 {
            request_line_traced(&jobs[0], None, &trace(u))
        } else {
            batch_request_line_traced(u as u64, &jobs, None, &trace(u))
        };
        units.push(Unit { jobs, line });
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_core::arch::paper_fabric;
    use drift_serve::worker::schedule_key_for;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.jobs(500, 7), w.jobs(500, 7), "{}", w.name());
            assert_eq!(w.warmup(7), w.warmup(7));
            let ids: Vec<u64> = w.jobs(50, 7).iter().map(|j| j.id).collect();
            assert_eq!(ids, (0..50).collect::<Vec<u64>>());
        }
        assert_ne!(
            Workload::RouterBatch.jobs(500, 7),
            Workload::RouterBatch.jobs(500, 8)
        );
        assert_ne!(
            Workload::MixedClosed.jobs(500, 7),
            Workload::MixedClosed.jobs(500, 8)
        );
    }

    #[test]
    fn router_batch_misses_about_half_the_time() {
        for seed in [1, 42, 9001] {
            let jobs = half_miss_jobs(20_000, seed);
            let mut seen = HashSet::new();
            let misses = jobs
                .iter()
                .filter(|j| seen.insert(schedule_key_for(j, paper_fabric()).unwrap()))
                .count();
            let share = misses as f64 / jobs.len() as f64;
            assert!((0.48..=0.52).contains(&share), "seed {seed}: {share}");
        }
    }

    #[test]
    fn small_open_warmup_covers_every_key() {
        let key = |j: &JobSpec| schedule_key_for(j, paper_fabric()).unwrap();
        let warm: HashSet<_> = Workload::SmallOpen.warmup(3).iter().map(key).collect();
        assert!(Workload::SmallOpen
            .jobs(1000, 3)
            .iter()
            .all(|j| warm.contains(&key(j))));
    }

    #[test]
    fn units_group_jobs_into_lines() {
        let jobs = Workload::RouterBatch.jobs(70, 1);
        let units = units(jobs.clone(), 32, |_| TraceDecision::Undecided);
        assert_eq!(
            units.iter().map(|u| u.jobs.len()).collect::<Vec<_>>(),
            [32, 32, 6]
        );
        assert!(units[1].line.starts_with("{\"id\":1,\"batch\":["));
        let single = super::units(jobs, 1, |_| TraceDecision::Undecided);
        assert_eq!(single.len(), 70);
        assert!(single[3].line.starts_with("{\"id\":3,"));
    }
}
