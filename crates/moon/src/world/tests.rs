//! Unit tests for the composed world, carried over intact from the
//! pre-split `world.rs` so the refactor is verifiably behavior-neutral.

use super::attempts::Phase;
use super::*;
use crate::config::{ClusterConfig, PolicyConfig};
use crate::experiment::Experiment;
use workloads::WorkloadSpec;

fn quick() -> WorkloadSpec {
    crate::quick_workload()
}

#[test]
fn stable_cluster_completes_job() {
    let r = Experiment {
        cluster: ClusterConfig::small(0.0),
        policy: PolicyConfig::moon_hybrid(),
        workload: quick(),
        seed: 1,
    }
    .run();
    assert!(
        r.job_time.is_some(),
        "job must finish on a stable cluster: {r:?}"
    );
    let t = r.job_time.unwrap().as_secs_f64();
    assert!(t > 10.0 && t < 600.0, "implausible job time {t}");
    assert_eq!(r.job.completed_maps, 16);
    assert_eq!(r.job.completed_reduces, 4);
}

#[test]
fn stable_cluster_hadoop_policy_completes_job() {
    let r = Experiment {
        cluster: ClusterConfig::small(0.0),
        policy: PolicyConfig::hadoop(SimDuration::from_mins(10), 3),
        workload: quick(),
        seed: 2,
    }
    .run();
    assert!(r.job_time.is_some(), "{r:?}");
}

#[test]
fn runs_are_deterministic() {
    let run = |seed| {
        Experiment {
            cluster: ClusterConfig::small(0.3),
            policy: PolicyConfig::moon_hybrid(),
            workload: quick(),
            seed,
        }
        .run()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.job_secs().to_bits(), b.job_secs().to_bits());
    assert_eq!(a.events, b.events);
    assert_eq!(a.job.duplicated_tasks, b.job.duplicated_tasks);
    let c = run(8);
    assert!(a.events != c.events || a.job_secs() != c.job_secs());
}

#[test]
fn closed_stream_clients_keep_their_own_workloads() {
    use workloads::{ArrivalModel, DurationModel, JobStream};
    // Client 0 runs a slow app, client 1 a fast one. The fast client
    // commits (and resubmits) while the slow job is still running; its
    // successor must still be *its* app — cycling is by the client's
    // own position in the stream, not by global commit order.
    let mut slow = crate::quick_workload();
    slow.name = "app-slow".into();
    slow.map_cpu = DurationModel::Fixed(SimDuration::from_secs(120));
    let mut fast = crate::quick_workload();
    fast.name = "app-fast".into();
    fast.map_cpu = DurationModel::Fixed(SimDuration::from_secs(2));
    let r = Experiment {
        cluster: ClusterConfig::small(0.0),
        policy: PolicyConfig::moon_hybrid(),
        workload: quick(),
        seed: 3,
    }
    .run_stream(Some(JobStream {
        workloads: vec![slow, fast],
        ..JobStream::new(ArrivalModel::Closed {
            clients: 2,
            jobs_per_client: 2,
            think: DurationModel::Fixed(SimDuration::from_secs(5)),
        })
    }));
    let rows = r.jobs.as_ref().expect("stream run");
    assert_eq!(rows.len(), 4, "{rows:?}");
    let names: Vec<&str> = rows.iter().map(|j| j.workload.as_str()).collect();
    // Initial burst: client 0 → slow, client 1 → fast. The first
    // successor submitted (slot 2) belongs to the fast client — under
    // global-index cycling it would wrongly flip to app-slow.
    assert_eq!(names[0], "app-slow");
    assert_eq!(names[1], "app-fast");
    assert_eq!(names[2], "app-fast", "fast client keeps its app: {names:?}");
    assert_eq!(names[3], "app-slow", "slow client keeps its app: {names:?}");
    assert!(rows.iter().all(|j| j.finished.is_some()), "{rows:?}");
}

#[test]
fn volatile_cluster_moon_completes_job() {
    let r = Experiment {
        cluster: ClusterConfig::small(0.3),
        policy: PolicyConfig::moon_hybrid(),
        workload: quick(),
        seed: 11,
    }
    .run();
    assert!(r.job_time.is_some(), "MOON should survive p=0.3: {r:?}");
}

#[test]
#[ignore]
fn probe_stable_run() {
    let world = World::new(
        ClusterConfig::small(0.0),
        PolicyConfig::moon_hybrid(),
        crate::quick_workload(),
    );
    let mut sim = simkit::Simulation::new(world, 1).with_event_limit(10_000_000);
    World::init(&mut sim);
    let outcome = sim.run_until(SimTime::from_secs(1200));
    let w = sim.model();
    eprintln!("outcome={outcome:?} events={}", sim.events_handled());
    eprintln!("job_status={:?}", w.job_status());
    eprintln!("metrics={:?}", w.job_metrics());
    eprintln!(
        "tasks_done={} finished={:?}",
        w.jobs.iter().all(|s| s.tasks_done),
        w.metrics.job_finished
    );
    eprintln!("live attempts={}", w.attempts.len());
    eprintln!("flows in flight={}", w.net.n_flows());
    for (id, rt) in &w.attempts {
        let ph = match &rt.phase {
            Phase::MapRead { .. } => "read",
            Phase::Compute { .. } => "compute",
            Phase::Write { .. } => "write",
            Phase::Shuffle(s) => {
                eprintln!(
                    "  {id}: shuffle fetched={} waiting={} inflight={}",
                    s.fetched.len(),
                    s.waiting.len(),
                    s.inflight.len()
                );
                continue;
            }
        };
        eprintln!("  {id}: {ph}");
    }
    if let Some(out) = w.jobs[0].output_file {
        eprintln!("output fully replicated: {}", w.nn.is_fully_replicated(out));
        eprintln!("replication queue: {}", w.nn.replication_queue_len());
    }
}

mod failure_path_tests {
    use super::*;
    use availability::{AvailabilityTrace, Outage};

    /// All holders of volatile-only intermediate data go down mid-job:
    /// the MOON fetch rule must re-execute maps and the job must still
    /// finish (the paper's livelock scenario, solved).
    #[test]
    fn map_outputs_lost_triggers_reexecution_not_livelock() {
        let horizon = SimTime::from_secs(8 * 3600);
        // 10 volatile nodes: 0..5 vanish for a long stretch after maps
        // complete; intermediate is volatile-only with a single copy.
        let mut traces = Vec::new();
        for i in 0..12u32 {
            if i < 5 {
                traces.push(AvailabilityTrace::new(
                    vec![Outage {
                        start: SimTime::from_secs(25),
                        end: SimTime::from_secs(5000),
                    }],
                    horizon,
                ));
            } else {
                traces.push(AvailabilityTrace::always_available(horizon));
            }
        }
        let mut cluster = ClusterConfig::small(0.3);
        cluster.n_volatile = 10;
        cluster.n_dedicated = 2;
        cluster.trace_overrides = Some(traces);
        // Three map waves (~45 s) so the t=25 outage strikes while the
        // reduces still need outputs stored on the vanishing nodes.
        let workload = workloads::WorkloadSpec {
            n_maps: 48,
            input_bytes: 48 * 16 * (1 << 20),
            ..crate::quick_workload()
        };
        let r = Experiment {
            cluster,
            policy: PolicyConfig::vo_intermediate(1),
            workload,
            seed: 13,
        }
        .run();
        assert!(r.job_time.is_some(), "must not livelock: {r:?}");
        let t = r.job_time.unwrap().as_secs_f64();
        assert!(
            t < 4900.0,
            "job ({t}s) should finish via re-execution well before the \
             nodes return at t=5000s"
        );
        assert!(
            r.job.map_output_relaunches > 0,
            "lost outputs must be regenerated: {r:?}"
        );
    }

    /// With a dedicated copy (HA-{1,1}), the same outage needs no map
    /// re-execution at all.
    #[test]
    fn dedicated_intermediate_copy_prevents_reexecution() {
        let horizon = SimTime::from_secs(8 * 3600);
        let mut traces = Vec::new();
        for i in 0..12u32 {
            if i < 5 {
                traces.push(AvailabilityTrace::new(
                    vec![Outage {
                        start: SimTime::from_secs(25),
                        end: SimTime::from_secs(5000),
                    }],
                    horizon,
                ));
            } else {
                traces.push(AvailabilityTrace::always_available(horizon));
            }
        }
        let mut cluster = ClusterConfig::small(0.3);
        cluster.n_volatile = 10;
        cluster.n_dedicated = 2;
        cluster.trace_overrides = Some(traces);
        let workload = workloads::WorkloadSpec {
            n_maps: 48,
            input_bytes: 48 * 16 * (1 << 20),
            ..crate::quick_workload()
        };
        let r = Experiment {
            cluster,
            policy: PolicyConfig::ha_intermediate(1),
            workload,
            seed: 13,
        }
        .run();
        assert!(r.job_time.is_some());
        assert_eq!(
            r.job.map_output_relaunches, 0,
            "dedicated copies keep outputs reachable: {r:?}"
        );
    }

    /// A short blip (shorter than the suspension interval) must not cost
    /// MOON any task kills at all.
    #[test]
    fn short_blip_is_absorbed_without_kills() {
        let horizon = SimTime::from_secs(8 * 3600);
        let mut traces = Vec::new();
        for i in 0..12u32 {
            if i < 6 {
                traces.push(AvailabilityTrace::new(
                    vec![Outage {
                        start: SimTime::from_secs(40),
                        end: SimTime::from_secs(70),
                    }],
                    horizon,
                ));
            } else {
                traces.push(AvailabilityTrace::always_available(horizon));
            }
        }
        let mut cluster = ClusterConfig::small(0.0);
        cluster.n_volatile = 10;
        cluster.n_dedicated = 2;
        cluster.trace_overrides = Some(traces);
        let r = Experiment {
            cluster,
            policy: PolicyConfig::moon_hybrid(),
            workload: crate::quick_workload(),
            seed: 2,
        }
        .run();
        assert!(r.job_time.is_some());
        // Homestretch copies are killed benignly when a sibling finishes;
        // what a 30-second blip must NOT cause is tracker-expiry kills.
        assert_eq!(r.job.killed_by_tracker_expiry, 0, "{r:?}");
    }
}

/// The single job-slot recount really catches drift: each world-side
/// counter, corrupted on its own after a completed run, yields exactly
/// one line naming it, and the end-of-run audit carries that line.
#[test]
fn job_counter_audit_names_each_corrupted_counter() {
    let world = World::new(
        ClusterConfig::small(0.0),
        PolicyConfig::moon_hybrid(),
        quick(),
    );
    let mut sim = simkit::Simulation::new(world, 1).with_event_limit(10_000_000);
    World::init(&mut sim);
    sim.run();
    let w = sim.model_mut();
    assert_eq!(w.job_status(), Some(mapred::JobStatus::Succeeded));
    assert_eq!(w.debug_final_audit(), Vec::<String>::new());
    type Poke = fn(&mut World);
    let cases: [(&str, Poke, Poke); 4] = [
        (
            "submitted-slot counter",
            |w| w.n_submitted += 1,
            |w| w.n_submitted -= 1,
        ),
        (
            "tasks-incomplete counter",
            |w| w.n_tasks_incomplete += 1,
            |w| w.n_tasks_incomplete -= 1,
        ),
        (
            "committed-slot counter",
            |w| w.n_committed -= 1,
            |w| w.n_committed += 1,
        ),
        (
            "commit-pending set",
            |w| {
                w.commit_pending.insert(0);
            },
            |w| {
                w.commit_pending.remove(&0);
            },
        ),
    ];
    for (name, corrupt, restore) in cases {
        corrupt(w);
        let drift = w.audit_job_counters();
        assert_eq!(drift.len(), 1, "{name}: {drift:?}");
        assert!(drift[0].contains(name), "{name}: {drift:?}");
        let audit = w.debug_final_audit();
        assert!(audit.iter().any(|l| l.contains(name)), "{name}: {audit:?}");
        restore(w);
        assert_eq!(w.audit_job_counters(), Vec::<String>::new(), "{name}");
    }
}

/// Quiescent idle nodes: sleepers keep the liveness deadlines and the
/// assignment order of always-beating nodes, and the sleeper audit
/// names each drift.
mod quiescence_tests {
    use super::*;
    use availability::{AvailabilityTrace, Outage};
    use dfs::NodeLiveness;
    use mapred::TrackerState;
    use workloads::{DurationModel, ReduceCount, MB};

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// A 12 + 2 node world, stable except for the given
    /// `(node, down, up)` outages, serving one job of `n_maps` maps of
    /// `map_secs` each and one reduce (gated until a map finishes).
    fn sim_with(
        policy: PolicyConfig,
        n_maps: u32,
        map_secs: u64,
        outages: &[(u32, SimTime, SimTime)],
    ) -> simkit::Simulation<World> {
        let horizon = SimTime::from_secs(8 * 3600);
        let mut cluster = ClusterConfig::small(0.0);
        let traces = (0..cluster.n_nodes())
            .map(|i| {
                let own = outages.iter().filter(|o| o.0 == i);
                AvailabilityTrace::new(
                    own.map(|&(_, start, end)| Outage { start, end }).collect(),
                    horizon,
                )
            })
            .collect();
        cluster.trace_overrides = Some(traces);
        let workload = WorkloadSpec {
            n_maps,
            input_bytes: u64::from(n_maps) * 16 * MB,
            reduces: ReduceCount::Fixed(1),
            map_cpu: DurationModel::Fixed(SimDuration::from_secs(map_secs)),
            ..quick()
        };
        let mut sim = simkit::Simulation::new(World::new(cluster, policy, workload), 5)
            .with_event_limit(10_000_000);
        World::init(&mut sim);
        sim
    }

    fn asleep(sim: &simkit::Simulation<World>, n: u32) -> bool {
        sim.model().nodes[n as usize].asleep_since.is_some()
    }

    /// Node `n` has heartbeat ticks at `n · 50 ms + 1 µs + k · 3 s`
    /// until its first outage. Nodes 2 and 11 sleep, then go down at
    /// 91 s and 100 s: their last beats were at 90.100001 s and
    /// 99.550001 s, so an always-beating node is suspended and
    /// hibernated at the 160 s sweep and dead at the 1900 s sweep
    /// (sweeps every 10 s). One beat earlier would move node 2's
    /// deadlines to the 150 s / 1890 s sweeps, one beat later node 11's
    /// to 170 s / 1910 s.
    #[test]
    fn sleeping_node_that_goes_down_keeps_its_liveness_deadlines() {
        let mut sim = sim_with(
            PolicyConfig::moon_hybrid(),
            2,
            3000,
            &[
                (2, SimTime::from_secs(91), SimTime::from_secs(5000)),
                (11, SimTime::from_secs(100), SimTime::from_secs(5000)),
            ],
        );
        sim.run_until(us(90_999_999));
        assert!(
            asleep(&sim, 2) && asleep(&sim, 11),
            "both must sleep until they go down"
        );
        for (deadline, (jt_state, nn_state)) in [
            (160, (TrackerState::Suspended, NodeLiveness::Hibernated)),
            (1900, (TrackerState::Dead, NodeLiveness::Dead)),
        ] {
            sim.run_until(us(deadline * 1_000_000 - 1));
            let w = sim.model();
            for n in [NodeId(2), NodeId(11)] {
                assert_ne!(w.jt.tracker_state(n), jt_state, "{n:?} before {deadline} s");
                assert_ne!(w.nn.node_liveness(n), nn_state, "{n:?} before {deadline} s");
            }
            sim.run_until(SimTime::from_secs(deadline));
            let w = sim.model();
            for n in [NodeId(2), NodeId(11)] {
                assert_eq!(w.jt.tracker_state(n), jt_state, "{n:?} at {deadline} s");
                assert_eq!(w.nn.node_liveness(n), nn_state, "{n:?} at {deadline} s");
            }
        }
        assert_eq!(sim.model().debug_final_audit(), Vec::<String>::new());
    }

    /// Hadoop with a 1 min expiry: node 0 runs the only map and goes
    /// down at 40 s, so the 100 s sweep declares it dead and requeues
    /// the map while every idle node sleeps. Untouched nodes tick at
    /// phases 50 ms to 650 ms of the 3 s interval, so their next ticks
    /// are after 102 s. Nodes 5 and 6 came back from an outage at
    /// 20.52 s (phase 20 ms, the lowest), nodes 7 and 8 at 21.7 s
    /// (phase 1.2 s, ticking at 100.200001 s). The requeued map goes to
    /// the earliest (tick, id): node 7.
    #[test]
    fn requeued_task_goes_to_the_sleeper_with_the_earliest_tick() {
        let (early, late) = (us(20_520_001), us(21_700_001));
        let mut sim = sim_with(
            PolicyConfig::hadoop(SimDuration::from_mins(1), 3),
            1,
            600,
            &[
                (0, SimTime::from_secs(40), SimTime::from_secs(5000)),
                (5, SimTime::from_secs(10), early),
                (6, SimTime::from_secs(10), early),
                (7, SimTime::from_secs(10), late),
                (8, SimTime::from_secs(10), late),
            ],
        );
        sim.run_until(us(99_999_999));
        let w = sim.model();
        let map = w.attempts.keys().copied().next().expect("the map runs");
        assert_eq!(w.attempts[&map].node, NodeId(0));
        let interval = w.cluster.heartbeat_interval.as_micros();
        let mut earliest = None;
        for (i, rt) in w.nodes.iter().enumerate() {
            if !rt.up {
                continue;
            }
            let since = rt.asleep_since.expect("every up node is idle and asleep");
            let mut tick = since.as_micros();
            while tick < 100_000_000 {
                tick += interval;
            }
            let cand = (tick, i);
            earliest = Some(earliest.map_or(cand, |e: (u64, usize)| e.min(cand)));
        }
        assert_eq!(earliest, Some((100_200_001, 7)));
        sim.run_until(SimTime::from_secs(103));
        let w = sim.model();
        let relaunched: Vec<_> = w
            .attempts
            .iter()
            .map(|(id, rt)| (id.task, rt.node, rt.started))
            .collect();
        assert_eq!(relaunched, vec![(map.task, NodeId(7), us(100_200_001))]);
    }

    /// From any position, the next sleeper is the one whose next tick
    /// after it comes first in (instant, rank) order: a same-phase
    /// sleeper whose rank is not above the position's rank ticks one
    /// interval later.
    #[test]
    fn next_sleeper_tick_is_the_first_tick_after_the_position() {
        let back = us(20_650_001); // same phase as node 3
        let mut sim = sim_with(
            PolicyConfig::hadoop(SimDuration::from_mins(1), 3),
            1,
            600,
            &[
                (5, SimTime::from_secs(10), back),
                (9, SimTime::from_secs(10), back),
            ],
        );
        sim.run_until(SimTime::from_secs(60));
        let w = sim.model();
        let i = w.cluster.heartbeat_interval.as_micros();
        let sleepers: Vec<(u64, NodeId)> = w.sleepers[0].iter().copied().collect();
        assert!(
            [3, 5, 9]
                .iter()
                .all(|&n| sleepers.contains(&(150_001, NodeId(n)))),
            "{sleepers:?}"
        );
        let brute = |t: u64, r: u64| {
            sleepers
                .iter()
                .map(|&(phase, n)| {
                    let mut tick = t - t % i + phase;
                    if (tick, 1 + u64::from(n.0)) <= (t, r) {
                        tick += i;
                    }
                    (us(tick), n)
                })
                .min()
        };
        for t in [60_000_000, 60_150_000, 60_150_001, 60_150_002, 62_999_999] {
            for r in 0..16 {
                assert_eq!(
                    w.next_sleeper_tick(0, (us(t), r)),
                    brute(t, r),
                    "({t}, {r})"
                );
            }
        }
    }

    /// Each sleeper check, violated on its own in a mid-run world with
    /// sleepers, yields exactly one audit line naming it.
    #[test]
    fn sleeper_audit_names_each_violation() {
        let fresh = || {
            let mut sim = sim_with(
                PolicyConfig::hadoop(SimDuration::from_mins(1), 3),
                1,
                600,
                &[],
            );
            sim.run_until(SimTime::from_secs(60));
            sim
        };
        let sim = fresh();
        let w = sim.model();
        assert_eq!(w.audit_sleepers(), Vec::<String>::new());
        assert!(asleep(&sim, 3) && asleep(&sim, 4), "idle nodes sleep");
        type Poke = fn(&mut World);
        let cases: [(&str, Poke); 6] = [
            ("class-0 sleeper set", |w| {
                w.sleepers[0].pop_first();
            }),
            ("sleeper NodeId(3) is down", |w| w.nodes[3].up = false),
            ("sleeper NodeId(3) has 1 local attempt(s)", |w| {
                let busy = *w.attempts.keys().next().unwrap();
                w.nodes[3].local_attempts.insert(busy);
            }),
            ("NodeId(3) disagrees with the NameNode", |w| {
                w.nn.wake_node(NodeId(3), SimTime::ZERO)
            }),
            ("NodeId(3) disagrees with the JobTracker", |w| {
                w.jt.wake_tracker(NodeId(3), SimTime::ZERO)
            }),
            ("class-0 wakes", |w| {
                let armed = w.nodes[0].heartbeat_ev;
                let spare = [3usize, 4]
                    .into_iter()
                    .find(|&n| w.wakes[0].is_none_or(|wk| wk.node != NodeId(n as u32)))
                    .unwrap();
                w.nodes[spare].heartbeat_ev = armed;
            }),
        ];
        for (name, poke) in cases {
            let mut sim = fresh();
            poke(sim.model_mut());
            let audit = sim.model().audit_sleepers();
            assert_eq!(audit.len(), 1, "{name}: {audit:?}");
            assert!(audit[0].contains(name), "{name}: {audit:?}");
            let full = sim.model().debug_final_audit();
            assert!(full.iter().any(|l| l.contains(name)), "{name}: {full:?}");
        }
    }
}
