//! Determinism regression test for the world refactor: the same seed
//! must produce bit-identical `RunMetrics` (and derived results), run
//! after run. This is the safety net behind the `world/` subsystem
//! split and any future resequencing of its internals — if a refactor
//! introduces iteration-order or RNG-stream dependence, this fails.

use moon::{ClusterConfig, Experiment, PolicyConfig, RunResult};

fn quickstart_run(seed: u64, rate: f64) -> RunResult {
    Experiment {
        cluster: ClusterConfig::small(rate),
        policy: PolicyConfig::moon_hybrid(),
        workload: moon::quick_workload(),
        seed,
    }
    .run()
}

/// Compare every measured field of two runs, bit-exact for floats —
/// including the per-job SLO rows of multi-job runs.
fn assert_identical(a: &RunResult, b: &RunResult) {
    match (&a.jobs, &b.jobs) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.len(), y.len(), "job-stream row counts diverged");
            for (ja, jb) in x.iter().zip(y) {
                assert_eq!(ja.job, jb.job);
                assert_eq!(ja.workload, jb.workload);
                assert_eq!(ja.submitted, jb.submitted, "job {} arrival", ja.job);
                assert_eq!(ja.first_launch, jb.first_launch, "job {} launch", ja.job);
                assert_eq!(ja.finished, jb.finished, "job {} commit", ja.job);
                assert_eq!(ja.deadline, jb.deadline, "job {} deadline", ja.job);
                assert_eq!(ja.priority, jb.priority, "job {} priority", ja.job);
                assert_eq!(ja.tenant, jb.tenant, "job {} tenant", ja.job);
                // Whole per-job counter block, preemption included.
                assert_eq!(ja.metrics, jb.metrics, "job {} counters", ja.job);
            }
        }
        _ => panic!("one run has SLO rows, the other does not"),
    }
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(
        a.job_secs().to_bits(),
        b.job_secs().to_bits(),
        "job time diverged: {} vs {}",
        a.job_secs(),
        b.job_secs()
    );
    assert_eq!(a.fetch_failures, b.fetch_failures);
    assert_eq!(a.job.completed_maps, b.job.completed_maps);
    assert_eq!(a.job.completed_reduces, b.job.completed_reduces);
    assert_eq!(a.job.duplicated_tasks, b.job.duplicated_tasks);
    assert_eq!(a.job.killed_maps, b.job.killed_maps);
    assert_eq!(a.job.killed_reduces, b.job.killed_reduces);
    assert_eq!(a.job.map_output_relaunches, b.job.map_output_relaunches);
    assert_eq!(
        a.job.killed_by_tracker_expiry,
        b.job.killed_by_tracker_expiry
    );
    assert_eq!(
        a.profile.avg_map_time.to_bits(),
        b.profile.avg_map_time.to_bits()
    );
    assert_eq!(
        a.profile.avg_shuffle_time.to_bits(),
        b.profile.avg_shuffle_time.to_bits()
    );
    assert_eq!(
        a.profile.avg_reduce_time.to_bits(),
        b.profile.avg_reduce_time.to_bits()
    );
    // The end-of-run conservation audit must agree — and hold — on
    // both runs; a drifted counter here is a world bug, not noise.
    assert_eq!(a.audit, b.audit, "audit findings diverged");
    assert!(a.audit.is_empty(), "audit: {:?}", a.audit);
}

#[test]
fn quickstart_workload_is_deterministic_per_seed() {
    // Stable and volatile clusters: volatility exercises the outage /
    // pause / retry / re-replication paths, where hidden nondeterminism
    // (hash-map iteration, stream reuse) would most likely hide.
    for rate in [0.0, 0.3] {
        for seed in [1u64, 7, 99] {
            let a = quickstart_run(seed, rate);
            let b = quickstart_run(seed, rate);
            assert_identical(&a, &b);
        }
    }
}

/// Thread-count independence: an N-thread `bench::run_grid_with_seeds`
/// sweep must produce per-seed results bit-identical to the same sweep
/// executed serially on one thread, in grid order. Each task is an
/// independent fully-seeded experiment, so the pool may only affect
/// *where* a run executes, never *what* it computes — this pins that
/// invariant against future shared-state creep (caches, memo tables,
/// global RNG).
#[test]
fn parallel_sweep_matches_single_thread_sweep() {
    // Force a real multi-worker pool even on a 1-core runner. First
    // configuration wins process-wide; this binary's other tests don't
    // touch the pool, so this cannot race.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();

    // Multiple seeds per point, so the (point, seed) flattening and the
    // grid-order regrouping in run_grid_with_seeds are exercised for real — with
    // one seed they degenerate to the old per-point loop. Passed
    // explicitly (not via MOON_SEEDS) so no test thread mutates process
    // environment.
    let seeds: Vec<u64> = vec![42, 1042, 2042];
    let mut points = Vec::new();
    for policy in [
        PolicyConfig::moon_hybrid(),
        PolicyConfig::hadoop(simkit::SimDuration::from_mins(1), 3),
    ] {
        for rate in [0.0, 0.3, 0.5] {
            points.push(bench::Point {
                policy: policy.clone(),
                cluster: ClusterConfig::small(rate),
                workload: moon::quick_workload(),
                jobs: None,
                telemetry: None,
            });
        }
    }
    // Multi-job points: every arrival model under both cross-job
    // policies, so concurrent-jobs bookkeeping (per-slot shuffle state,
    // closed-stream think-time sampling, Poisson arrival derivation)
    // is pinned to be thread-placement-independent too.
    for (policy, stream) in [
        (
            PolicyConfig::moon_hybrid(),
            workloads::JobStream::new(workloads::ArrivalModel::Poisson {
                rate_per_hour: 240.0,
                count: 5,
            }),
        ),
        (
            PolicyConfig::moon_hybrid().with_fair_share(),
            workloads::JobStream::new(workloads::ArrivalModel::Batch(vec![
                simkit::SimDuration::ZERO,
                simkit::SimDuration::from_secs(20),
                simkit::SimDuration::from_secs(40),
            ])),
        ),
        (
            PolicyConfig::hadoop(simkit::SimDuration::from_mins(1), 3),
            workloads::JobStream::new(workloads::ArrivalModel::Closed {
                clients: 2,
                jobs_per_client: 2,
                think: workloads::DurationModel::Fixed(simkit::SimDuration::from_secs(15)),
            }),
        ),
    ] {
        points.push(bench::Point {
            policy,
            cluster: ClusterConfig::small(0.3),
            workload: moon::quick_workload(),
            jobs: Some(stream),
            telemetry: None,
        });
    }
    // Preemption-heavy points: overlapping jobs with scheduling
    // metadata under every deadline-/priority-/tenant-aware ranking,
    // kill-and-requeue on, under churn — pinning the preemption path
    // (victim ranking, kill-before-assign ordering, requeue) to be
    // thread-placement-independent and bit-identical per seed.
    let burst = || {
        workloads::ArrivalModel::Batch(vec![
            simkit::SimDuration::ZERO,
            simkit::SimDuration::from_secs(5),
            simkit::SimDuration::from_secs(10),
        ])
    };
    for (policy, stream) in [
        (
            PolicyConfig::moon_hybrid()
                .with_cross_job(mapred::CrossJobPolicy::Edf)
                .with_preemption(),
            workloads::JobStream {
                deadlines: vec![
                    simkit::SimDuration::from_secs(60),
                    simkit::SimDuration::from_secs(600),
                ],
                ..workloads::JobStream::new(burst())
            },
        ),
        (
            PolicyConfig::moon_hybrid()
                .with_cross_job(mapred::CrossJobPolicy::StrictPriority)
                .with_preemption(),
            workloads::JobStream {
                priorities: vec![0, 5, 2],
                ..workloads::JobStream::new(workloads::ArrivalModel::Closed {
                    clients: 3,
                    jobs_per_client: 2,
                    think: workloads::DurationModel::Fixed(simkit::SimDuration::from_secs(5)),
                })
            },
        ),
        (
            PolicyConfig::moon_hybrid()
                .with_cross_job(mapred::CrossJobPolicy::TenantFair)
                .with_preemption(),
            workloads::JobStream {
                tenants: vec![0, 1],
                tenant_weights: vec![2, 1],
                tenant_min_slots: vec![1, 1],
                ..workloads::JobStream::new(burst())
            },
        ),
        (
            PolicyConfig::moon_hybrid()
                .with_fair_share()
                .with_preemption(),
            workloads::JobStream::new(burst()),
        ),
    ] {
        points.push(bench::Point {
            policy,
            cluster: ClusterConfig::small(0.3),
            workload: moon::quick_workload(),
            jobs: Some(stream),
            telemetry: None,
        });
    }

    // Serial reference: the exact sweep run_grid_with_seeds performs, one task at
    // a time on this thread, in grid order.
    let serial: Vec<Vec<RunResult>> = points
        .iter()
        .map(|pt| {
            seeds
                .iter()
                .map(|&seed| {
                    Experiment {
                        cluster: pt.cluster.clone(),
                        policy: pt.policy.clone(),
                        workload: pt.workload.clone(),
                        seed,
                    }
                    .run_stream(pt.jobs.clone())
                })
                .collect()
        })
        .collect();

    let parallel = bench::run_grid_with_seeds(points, &seeds);

    assert_eq!(parallel.len(), serial.len(), "grid shape diverged");
    for (pi, (par_point, ser_point)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(par_point.len(), ser_point.len(), "seed count diverged");
        for (si, (p, s)) in par_point.iter().zip(ser_point).enumerate() {
            assert_eq!(p.seed, s.seed, "seed order diverged at point {pi}");
            assert_eq!(p.label, s.label, "grid order diverged at point {pi}");
            assert_eq!(
                p.unavailability, s.unavailability,
                "grid order diverged at point {pi}"
            );
            eprintln!("point {pi} seed {si}: parallel == serial check");
            assert_identical(p, s);
        }
    }
}

/// Fleet-scale determinism: a 4-thread sweep over the `fleet-1k`
/// scenario (trimmed to two load columns and a shorter horizon so the
/// debug-build test stays fast) must be bit-identical to the same grid
/// run serially. This drives the O(active) index paths — the
/// heartbeat-ordered liveness sweeps, maintained slot counters, and
/// per-column scaled arrival streams — at 1000-node scale, where any
/// iteration-order or shared-state dependence they introduced would
/// surface as cross-thread divergence.
#[test]
fn fleet_scale_parallel_sweep_matches_serial() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();

    let mut spec = scenarios::registry::find("fleet-1k").expect("registered");
    let scenarios::Axis::Load(ref mut l) = spec.axis else {
        panic!("fleet-1k sweeps a load axis");
    };
    l.points = vec![120.0, 480.0];
    spec.horizon_secs = Some(1200);
    if let Some(jobs) = &mut spec.jobs {
        jobs.arrivals = scenarios::ArrivalSpec::Poisson {
            rate_per_hour: 120.0,
            count: 4,
        };
    }
    let plan = scenarios::expand(&spec).expect("fleet spec expands");
    assert_eq!(plan.points.len(), 4, "2 policies x 2 load columns");
    assert!(plan.points.iter().all(|p| p.cluster.n_volatile == 1_000));

    let seeds = vec![42u64];
    let serial: Vec<Vec<RunResult>> = plan
        .points
        .iter()
        .map(|pt| {
            seeds
                .iter()
                .map(|&seed| {
                    Experiment {
                        cluster: pt.cluster.clone(),
                        policy: pt.policy.clone(),
                        workload: pt.workload.clone(),
                        seed,
                    }
                    .run_stream(pt.jobs.clone())
                })
                .collect()
        })
        .collect();

    let parallel = bench::run_grid_with_seeds(plan.points.clone(), &seeds);
    assert_eq!(parallel.len(), serial.len(), "grid shape diverged");
    for (pi, (par_point, ser_point)) in parallel.iter().zip(&serial).enumerate() {
        for (p, s) in par_point.iter().zip(ser_point) {
            eprintln!("fleet point {pi}: parallel == serial check");
            assert_identical(p, s);
        }
    }
}

#[test]
fn job_stream_runs_are_deterministic_per_seed() {
    let run = |seed| {
        Experiment {
            cluster: ClusterConfig::small(0.3),
            policy: PolicyConfig::moon_hybrid().with_fair_share(),
            workload: moon::quick_workload(),
            seed,
        }
        .run_stream(Some(workloads::JobStream::new(
            workloads::ArrivalModel::Poisson {
                rate_per_hour: 240.0,
                count: 4,
            },
        )))
    };
    let a = run(7);
    let b = run(7);
    assert_identical(&a, &b);
    let rows = a.jobs.as_ref().expect("stream runs carry SLO rows");
    assert_eq!(rows.len(), 4, "all four jobs submitted: {rows:?}");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the degenerate "deterministic because the seed is
    // ignored" failure mode.
    let a = quickstart_run(1, 0.3);
    let b = quickstart_run(2, 0.3);
    assert!(
        a.events != b.events || a.job_secs() != b.job_secs(),
        "seeds 1 and 2 produced identical runs — seed plumbed through?"
    );
}
