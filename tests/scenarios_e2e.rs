//! End-to-end tests of the scenario engine: a TOML spec (no Rust)
//! drives a real simulation through `bench::run_spec`, and the
//! committed example trace file expands into a replayable cluster.

use scenarios::codec;

#[test]
fn toml_spec_runs_end_to_end() {
    let text = r#"
name = "e2e-quick"
title = "engine smoke: quick workload, one policy, one rate"
workloads = ["quick"]
policies = ["moon-hybrid", "hadoop-1min"]
seeds = [7]
tables = [
  { kind = "time", title = "E2E{panel}: execution time" },
  { kind = "duplicates", title = "E2E{panel}: duplicated tasks" },
]

[axis]
kind = "rates"
points = [0.2]
"#;
    let spec = codec::from_str(text).expect("spec parses");
    assert_eq!(spec.runs_per_seed(), 2);
    let run = bench::run_spec(&spec, None, &Default::default()).expect("scenario runs");
    assert_eq!(run.seeds, vec![7]);
    assert_eq!(run.results.len(), 2);
    assert!(
        run.tables.contains("## E2E: execution time (seconds)"),
        "{}",
        run.tables
    );
    assert!(run.tables.contains("MOON-Hybrid\t"), "{}", run.tables);
    assert!(run.tables.contains("Hadoop1Min\t"), "{}", run.tables);
    assert!(
        run.report_json.contains("\"scenario\": \"e2e-quick\""),
        "{}",
        run.report_json
    );
    assert!(
        run.report_json.contains("\"seed\": 7"),
        "{}",
        run.report_json
    );
    // Outcomes are recorded per run (completed / horizon / event_limit).
    for rs in &run.results {
        for r in rs {
            assert!(matches!(
                r.outcome,
                moon::Outcome::Completed | moon::Outcome::Horizon
            ));
        }
    }
}

#[test]
fn job_stream_toml_runs_end_to_end() {
    // A multi-job scenario entirely from TOML: a batch of three quick
    // jobs under FIFO vs fair share, with per-job SLO tables and rows.
    let text = r#"
name = "e2e-stream"
title = "engine smoke: three-job batch stream"
workloads = ["quick"]
policies = ["moon-hybrid", "moon-hybrid+fair"]
seeds = [7]
horizon_secs = 3600
tables = [
  { kind = "time", title = "Stream{panel}: makespan" },
  { kind = "jobs", title = "Stream{panel}: per-job SLOs" },
]

[axis]
kind = "rates"
points = [0.2]

[jobs]
kind = "batch"
offsets_secs = [0.0, 15.0, 30.0]
"#;
    let spec = codec::from_str(text).expect("spec parses");
    assert_eq!(spec.jobs.as_ref().unwrap().total_jobs(), 3);
    let run = bench::run_spec(&spec, None, &Default::default()).expect("scenario runs");
    assert!(
        run.tables.contains("## Stream: per-job SLOs"),
        "{}",
        run.tables
    );
    assert!(
        run.tables
            .contains("policy\tjob_runs\tcompleted\tmakespan_mean(s)"),
        "{}",
        run.tables
    );
    assert!(
        run.tables.contains("MOON-Hybrid+fair\t3\t"),
        "{}",
        run.tables
    );
    // Every run carries three per-job SLO rows, and the report JSON
    // exposes them machine-readably.
    for rs in &run.results {
        for r in rs {
            let rows = r.jobs.as_ref().expect("stream run has SLO rows");
            assert_eq!(rows.len(), 3);
            assert!(rows.iter().all(|j| j.finished.is_some()), "{rows:?}");
        }
    }
    assert!(
        run.report_json.contains("\"jobs\": ["),
        "{}",
        run.report_json
    );
    assert!(
        run.report_json.contains("\"queue_secs\": "),
        "{}",
        run.report_json
    );
    // Braces still balance with the nested job rows.
    assert_eq!(
        run.report_json.matches('{').count(),
        run.report_json.matches('}').count()
    );
}

#[test]
fn trace_replay_expands_against_committed_trace() {
    let spec = scenarios::registry::find("trace-replay").expect("registered");
    let plan = scenarios::expand(&spec).expect("committed trace file loads");
    // The committed lab-day trace drives a 60-volatile-node fleet.
    let pt = &plan.points[0];
    assert_eq!(pt.cluster.n_volatile, 60);
    let overrides = pt.cluster.trace_overrides.as_ref().expect("replayed fleet");
    assert_eq!(overrides.len(), 60);
    assert!(
        overrides.iter().any(|t| t.n_outages() > 0),
        "trace has outages"
    );
    // The recorded mean unavailability is carried as run metadata.
    assert!(pt.cluster.unavailability > 0.05 && pt.cluster.unavailability < 0.95);
    assert_eq!(plan.col_labels, vec!["trace"]);
    // The run is bounded by the trace file's own recorded window — a
    // shorter trace must not be padded with silent always-available
    // hours up to the 8-hour cluster default.
    assert_eq!(pt.cluster.horizon, overrides[0].horizon());
}

#[test]
fn empty_seed_list_is_rejected_not_a_panic() {
    let text = r#"
name = "e2e-empty-seeds"
title = "empty seeds must error"
workloads = ["quick"]
policies = ["moon-hybrid"]

[axis]
kind = "rates"
points = [0.2]
"#;
    let mut spec = scenarios::codec::from_str(text).unwrap();
    // The codec rejects `seeds = []` in files; a spec built in code can
    // still carry one — run_spec must refuse it instead of panicking
    // the renderer or emitting an all-DNF table.
    spec.seeds = Some(Vec::new());
    let e = bench::run_spec(&spec, None, &Default::default()).unwrap_err();
    assert!(e.message.contains("seed list is empty"), "{e}");
    let e = bench::run_spec(&spec, Some(Vec::new()), &Default::default()).unwrap_err();
    assert!(e.message.contains("seed list is empty"), "{e}");
}

#[test]
fn registry_fig4_matches_spec_of_record() {
    // The acceptance pin behind the thin binaries: the fig4 scenario
    // sweeps exactly the policy x rate grid the hand-written binary
    // did, under the same labels and seeds derivation.
    let spec = scenarios::registry::find("fig4").expect("registered");
    assert_eq!(
        spec.workloads,
        vec!["sleep(sort)".to_string(), "sleep(word count)".to_string()]
    );
    assert_eq!(spec.policies.len(), 5);
    assert_eq!(spec.axis, scenarios::Axis::Rates(vec![0.1, 0.3, 0.5]));
    assert_eq!(spec.runs_per_seed(), 30);
    assert!(spec.seeds.is_none(), "seeds come from MOON_SEEDS");
}
