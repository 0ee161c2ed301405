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
