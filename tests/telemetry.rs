//! Telemetry invariants, end to end:
//!
//! 1. **Off-path neutrality** — enabling the recorder must not change
//!    what the simulation computes. The observer hook runs after each
//!    dispatch with no access to the event queue or RNG streams, so an
//!    instrumented run and a bare run of the same seed must agree on
//!    every measured field, bit for bit.
//! 2. **Artifact determinism** — same seed ⇒ byte-identical metrics
//!    JSONL and Chrome trace JSON, whether runs execute serially or on
//!    a multi-worker pool (telemetry buffers are per-run, never
//!    shared).

use moon::{ClusterConfig, Experiment, PolicyConfig, RunLimits, RunResult};
use scenarios::{Axis, TelemetrySpec};

fn experiment(seed: u64, rate: f64) -> Experiment {
    Experiment {
        cluster: ClusterConfig::small(rate),
        policy: PolicyConfig::moon_hybrid(),
        workload: moon::quick_workload(),
        seed,
    }
}

/// Every measured (non-telemetry) field must agree, floats bit-exact.
fn assert_same_simulation(a: &RunResult, b: &RunResult) {
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.job_secs().to_bits(), b.job_secs().to_bits());
    assert_eq!(a.fetch_failures, b.fetch_failures);
    assert_eq!(a.job.completed_maps, b.job.completed_maps);
    assert_eq!(a.job.completed_reduces, b.job.completed_reduces);
    assert_eq!(a.job.duplicated_tasks, b.job.duplicated_tasks);
    assert_eq!(a.job.killed_maps, b.job.killed_maps);
    assert_eq!(a.job.killed_reduces, b.job.killed_reduces);
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
    assert_eq!(a.audit, b.audit, "audit findings diverged");
}

#[test]
fn enabling_telemetry_does_not_perturb_the_simulation() {
    // Volatile cluster so the run crosses the node-outage, kill, and
    // re-replication paths — where an observer that accidentally
    // touched simulation state would most likely show up.
    for (seed, rate) in [(1u64, 0.0), (7, 0.3), (99, 0.5)] {
        let bare = experiment(seed, rate).run();
        let instrumented = experiment(seed, rate).run_with_limits(
            None,
            Some(simkit::TelemetryConfig::default()),
            RunLimits::default(),
        );
        assert!(bare.telemetry.is_none());
        let t = instrumented
            .telemetry
            .as_ref()
            .expect("recorder comes back with the result");
        assert!(t.n_samples() > 0, "cadence sampling never fired");
        assert!(t.n_spans() > 0, "no spans recorded");
        assert_eq!(t.dropped_spans(), 0, "default capacity overflowed");
        assert_same_simulation(&bare, &instrumented);
    }
}

#[test]
fn identical_seeds_produce_identical_recorders() {
    let recorded = || {
        experiment(7, 0.3).run_with_limits(
            None,
            Some(simkit::TelemetryConfig::default()),
            RunLimits::default(),
        )
    };
    let (a, b) = (recorded(), recorded());
    let (ta, tb) = (a.telemetry.unwrap(), b.telemetry.unwrap());
    let mut ja = String::new();
    let mut jb = String::new();
    ta.metrics_jsonl_into(&[("seed", "7".into())], &mut ja);
    tb.metrics_jsonl_into(&[("seed", "7".into())], &mut jb);
    assert_eq!(ja, jb, "metrics JSONL diverged between identical seeds");
    assert_eq!(ta.n_spans(), tb.n_spans());
}

/// A small telemetry-enabled sweep spec: one policy, two rates, two
/// seeds on a shrunken fleet.
fn telemetry_spec() -> scenarios::ScenarioSpec {
    let mut spec = scenarios::registry::find("fig4").expect("registered");
    spec.telemetry = Some(TelemetrySpec::default());
    spec.policies.truncate(1);
    spec.workloads = vec!["quick".into()];
    spec.panels.truncate(1);
    spec.axis = Axis::Rates(vec![0.1, 0.3]);
    spec.n_volatile = Some(12);
    spec.dedicated = 2;
    spec.horizon_secs = Some(1800);
    spec
}

#[test]
fn artifacts_are_identical_across_thread_counts() {
    // Force a real multi-worker pool even on a 1-core runner (first
    // configuration wins process-wide; the other tests in this binary
    // run experiments directly and never touch the pool).
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
    let seeds = vec![42u64, 1042];

    let spec = telemetry_spec();
    let pooled =
        bench::run_spec(&spec, Some(seeds.clone()), &Default::default()).expect("sweep runs");

    // Serial reference: the same grid, one run at a time on this
    // thread, rendered by the same renderers and stitched from the
    // same per-run fragments.
    let plan = scenarios::expand(&spec).expect("expands");
    let mut metrics_frags = Vec::new();
    let mut trace_frags = Vec::new();
    let results: Vec<Vec<RunResult>> = plan
        .points
        .iter()
        .map(|pt| {
            seeds
                .iter()
                .map(|&seed| {
                    let r = Experiment {
                        cluster: pt.cluster.clone(),
                        policy: pt.policy.clone(),
                        workload: pt.workload.clone(),
                        seed,
                    }
                    .run_with_limits(
                        pt.jobs.clone(),
                        pt.telemetry.clone(),
                        RunLimits::default(),
                    );
                    let idx = metrics_frags.len();
                    metrics_frags.push(bench::obs::run_metrics_fragment(idx, &r));
                    trace_frags.push(bench::obs::run_trace_fragment(idx, &r));
                    r
                })
                .collect()
        })
        .collect();

    assert_eq!(scenarios::render_tables(&plan, &results), pooled.tables);
    assert_eq!(
        scenarios::report_json(&plan, &results, &seeds),
        pooled.report_json
    );
    let m_serial = bench::obs::metrics_from_fragments(metrics_frags.iter().map(Option::as_deref));
    assert!(!m_serial.is_empty());
    assert_eq!(
        m_serial, pooled.metrics_jsonl,
        "metrics JSONL depends on thread count"
    );
    let t_serial = bench::obs::trace_from_fragments(trace_frags.iter().map(Option::as_deref));
    assert_eq!(
        t_serial, pooled.chrome_trace,
        "trace JSON depends on thread count"
    );
}
