//! Per-call layer probes at a workload's fleet size, on fresh
//! instances built through public API: the placement and idle-heartbeat
//! costs that heartbeat quiescence and placement sampling target.

use dfs::{FileKind, NameNode, NameNodeConfig, NodeClass, NodeId, ReplicationFactor};
use mapred::JobTracker;
use rand::SeedableRng;
use simkit::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed chunk, measured seconds per batch, and batches
/// per probe (the median batch is kept). Batches are time-bounded so
/// an O(fleet) call at 11k nodes costs no more than a cheap one.
const CHUNK: usize = 64;
const BATCH_SECS: f64 = 0.02;
const BATCHES: usize = 9;

/// Median seconds per call; `timed_chunk` makes `CHUNK` calls and
/// returns the seconds they took.
fn median_per_call(mut timed_chunk: impl FnMut() -> f64) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (mut secs, mut calls) = (0.0, 0);
            while secs < BATCH_SECS {
                secs += timed_chunk();
                calls += CHUNK;
            }
            secs / calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// Median µs per `NameNode::choose_write_targets` call for a fresh
/// opportunistic `{1,3}` block, on a NameNode with `n_volatile` +
/// `n_dedicated` registered nodes that have each heartbeated once.
pub fn place_us(cfg: NameNodeConfig, n_volatile: u32, n_dedicated: u32, seed: u64) -> f64 {
    let mut nn = NameNode::new(cfg);
    let n = n_volatile + n_dedicated;
    for i in 0..n {
        let class = if i < n_volatile {
            NodeClass::Volatile
        } else {
            NodeClass::Dedicated
        };
        nn.register_node(SimTime::ZERO, NodeId(i), class);
    }
    let now = SimTime::from_secs(3);
    for i in 0..n {
        nn.heartbeat(now, NodeId(i), 0.0);
    }
    let file = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 3));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let per_call = median_per_call(|| {
        let blocks: Vec<_> = (0..CHUNK)
            .map(|_| nn.allocate_block(file, 1 << 20))
            .collect();
        let t0 = Instant::now();
        for &b in &blocks {
            black_box(nn.choose_write_targets(now, b, None, &mut rng));
        }
        t0.elapsed().as_secs_f64()
    });
    per_call * 1e6
}

/// Median ns per `JobTracker::heartbeat` over `n` registered trackers
/// with no job submitted, so nothing is assignable.
pub fn idle_hb_ns(policy: &moon::PolicyConfig, n_volatile: u32, n_dedicated: u32) -> f64 {
    let mut jt = JobTracker::new(policy.scheduler.clone(), policy.fetch);
    let n = n_volatile + n_dedicated;
    for i in 0..n {
        jt.register_tracker(SimTime::ZERO, NodeId(i), 2, 1, i >= n_volatile);
    }
    let mut now = SimTime::ZERO;
    let mut node = 0;
    let per_call = median_per_call(|| {
        let t0 = Instant::now();
        for _ in 0..CHUNK {
            now += SimDuration::from_micros(1_000);
            black_box(jt.heartbeat(now, NodeId(node)));
            node = (node + 1) % n;
        }
        t0.elapsed().as_secs_f64()
    });
    per_call * 1e9
}
