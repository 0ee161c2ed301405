//! Integration tests for the sweep runner's checkpointed campaigns
//! ([`bench::campaign`]): in-memory vs checkpointed and kill-and-resume
//! byte-identity (tables, JSON report, telemetry artifacts),
//! campaign-key verification, per-cell panic containment that is
//! bit-identical serial vs pooled, livelock containment into the DLQ,
//! and bounded `dlq retry` attempts.
//!
//! The global worker pool is pinned to 4 threads (this test binary is
//! its own process), and every "serial" reference below is computed by
//! running the same cells directly in a plain loop — no pool — so the
//! comparisons pin exactly the property the campaign layer promises:
//! artifacts do not depend on scheduling, interruption, or thread
//! count.

use bench::campaign::{self, dlq_path_for, load_dlq};
use bench::{run_spec, CampaignConfig, CampaignOutcome};
use moon::{Experiment, Outcome, RunLimits, RunResult};
use std::path::PathBuf;

fn pool4() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
}

/// A fresh scratch directory for one test's checkpoint + DLQ.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moon-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 3-point × 1-seed scenario small enough to run in seconds:
/// one policy over three unavailability rates on a shrunken fleet.
fn small_spec(telemetry: bool) -> scenarios::ScenarioSpec {
    let mut spec = scenarios::registry::find("fig4").expect("registered");
    spec.policies.truncate(1);
    spec.workloads = vec!["quick".into()];
    spec.panels.truncate(1);
    spec.axis = scenarios::Axis::Rates(vec![0.1, 0.3, 0.5]);
    spec.n_volatile = Some(12);
    spec.dedicated = 2;
    spec.horizon_secs = Some(1800);
    spec.seeds = Some(vec![42]);
    spec.telemetry = telemetry.then(scenarios::TelemetrySpec::default);
    spec
}

/// Run every cell of the spec directly — no pool, no checkpoint — and
/// return grid-ordered results, exactly what the campaign's stitched
/// grid must reproduce.
fn serial_results(
    spec: &scenarios::ScenarioSpec,
    seeds: &[u64],
    limits: RunLimits,
    replace: Option<(usize, RunResult)>,
) -> (scenarios::Plan, Vec<Vec<RunResult>>) {
    let plan = scenarios::expand(spec).unwrap();
    let mut results = Vec::new();
    for (p, point) in plan.points.iter().enumerate() {
        let mut per_point = Vec::new();
        for &seed in seeds {
            if let Some((cell, r)) = &replace {
                if *cell == p * seeds.len() + (per_point.len()) {
                    per_point.push(r.clone());
                    continue;
                }
            }
            let exp = Experiment {
                cluster: point.cluster.clone(),
                policy: point.policy.clone(),
                workload: point.workload.clone(),
                seed,
            };
            let mut r = exp.run_with_limits(point.jobs.clone(), None, limits);
            r.telemetry = None;
            per_point.push(r);
        }
        results.push(per_point);
    }
    (plan, results)
}

fn run(spec: &scenarios::ScenarioSpec, cfg: &CampaignConfig) -> CampaignOutcome {
    run_spec(spec, None, cfg).expect("campaign runs")
}

#[test]
fn resumed_campaign_is_byte_identical_including_torn_tail() {
    pool4();
    let dir = scratch("resume");
    let spec = small_spec(true);
    let ckpt = dir.join("sweep.ckpt.jsonl");

    // Uninterrupted reference campaign (telemetry on, so all three
    // artifact kinds are exercised).
    let full = run(&spec, &CampaignConfig::new(ckpt.clone()));
    assert_eq!(full.restored, 0);
    assert_eq!(full.executed, 3);
    assert!(full.failed.is_empty());
    assert!(!full.metrics_jsonl.is_empty());

    // An in-memory run must equal the checkpointed one byte for byte —
    // the checkpoint adds durability, never a different output.
    let in_memory = run(&spec, &CampaignConfig::default());
    assert_eq!(in_memory.tables, full.tables);
    assert_eq!(in_memory.report_json, full.report_json);
    assert_eq!(in_memory.metrics_jsonl, full.metrics_jsonl);
    assert_eq!(in_memory.chrome_trace, full.chrome_trace);

    // Simulate a SIGKILL mid-sweep: keep the header + one completed
    // cell, then a torn (half-written) record.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let mut lines = text.lines();
    let mut truncated = String::new();
    truncated.push_str(lines.next().unwrap()); // header
    truncated.push('\n');
    truncated.push_str(lines.next().unwrap()); // one cell
    truncated.push('\n');
    truncated.push_str("{\"cell\":1,\"status\":\"ok\",\"att"); // torn write
    std::fs::write(&ckpt, truncated).unwrap();

    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.resume = true;
    let resumed = run(&spec, &cfg);
    assert_eq!(resumed.restored, 1, "the surviving cell is reused");
    assert_eq!(resumed.executed, 2, "only the lost cells re-run");
    assert_eq!(resumed.tables, full.tables);
    assert_eq!(resumed.report_json, full.report_json);
    assert_eq!(resumed.metrics_jsonl, full.metrics_jsonl);
    assert_eq!(resumed.chrome_trace, full.chrome_trace);

    // Resuming a complete checkpoint runs nothing and still stitches
    // identical artifacts.
    let again = run(&spec, &cfg);
    assert_eq!(again.restored, 3);
    assert_eq!(again.executed, 0);
    assert_eq!(again.report_json, full.report_json);
    assert_eq!(again.metrics_jsonl, full.metrics_jsonl);
}

#[test]
fn resume_refuses_a_mismatched_campaign_key() {
    pool4();
    let dir = scratch("key");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");
    run(&spec, &CampaignConfig::new(ckpt.clone()));

    // Same checkpoint, different seeds => different campaign key.
    let mut other = spec.clone();
    other.seeds = Some(vec![43]);
    let mut cfg = CampaignConfig::new(ckpt);
    cfg.resume = true;
    let err = run_spec(&other, None, &cfg).expect_err("key mismatch must refuse");
    let msg = format!("{err}");
    assert!(msg.contains("campaign key mismatch"), "{msg}");
}

#[test]
fn panicking_cell_is_contained_and_bit_identical_to_serial() {
    pool4();
    let dir = scratch("panic");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");

    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.inject_panic = Some(1);
    let outcome = run(&spec, &cfg);

    // The panic is contained: exactly one failed cell, every other
    // cell completed normally.
    assert_eq!(outcome.failed.len(), 1);
    let entry = &outcome.failed[0];
    assert_eq!(entry.cell, 1);
    assert_eq!(entry.reason, "panic");
    assert_eq!(entry.attempts, 1);
    assert!(entry.detail.contains("injected fault"), "{}", entry.detail);
    let flat: Vec<&RunResult> = outcome.results.iter().flatten().collect();
    assert_eq!(flat.len(), 3);
    assert_eq!(flat[1].outcome, Outcome::Crashed);
    assert!(flat[0].outcome != Outcome::Crashed);
    assert!(flat[2].outcome != Outcome::Crashed);
    assert!(outcome.tables.contains("DNF"), "{}", outcome.tables);

    // The DLQ file round-trips the entry.
    let dlq = load_dlq(&dlq_path_for(&ckpt)).unwrap();
    assert_eq!(dlq.len(), 1);
    assert_eq!(dlq[0], *entry);

    // Bit-identical serial vs 4-thread: rebuild the whole grid in a
    // plain loop, with the panicked cell's documented placeholder
    // (grid coordinates, zeroed counters, outcome `crashed`).
    let plan = scenarios::expand(&spec).unwrap();
    let placeholder = RunResult {
        label: plan.points[1].policy.label.clone(),
        workload: plan.points[1].workload.name.clone(),
        unavailability: plan.points[1].cluster.unavailability,
        job_time: None,
        outcome: Outcome::Crashed,
        job: Default::default(),
        profile: Default::default(),
        fetch_failures: 0,
        events: 0,
        seed: 42,
        jobs: None,
        audit: Vec::new(),
        telemetry: None,
    };
    let (plan, serial) = serial_results(&spec, &[42], RunLimits::default(), Some((1, placeholder)));
    assert_eq!(outcome.tables, scenarios::render_tables(&plan, &serial));
    assert_eq!(
        outcome.report_json,
        scenarios::report_json(&plan, &serial, &[42])
    );
}

#[test]
fn livelocked_cells_land_in_dlq_and_retry_is_bounded() {
    pool4();
    let dir = scratch("livelock");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");

    // An absurdly small event budget livelocks every cell.
    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.limits.event_budget = 10;
    let starved = run(&spec, &cfg);
    assert_eq!(starved.failed.len(), 3);
    assert!(starved.failed.iter().all(|e| e.reason == "livelock"));
    assert!(starved.failed.iter().all(|e| e.attempts == 1));
    assert!(starved
        .failed
        .iter()
        .all(|e| e.detail.contains("event budget 10")));
    // Livelocked cells must not leak partial rows: every table kind
    // renders them DNF (the render-layer rule), visible here as a
    // fully-DNF sweep.
    assert!(starved.tables.contains("DNF"));

    // Retry with the same starvation budget: attempts increment.
    cfg.retry = Some(2);
    let retried = run(&spec, &cfg);
    assert_eq!(retried.executed, 3);
    assert!(retried.failed.iter().all(|e| e.attempts == 2));

    // At the attempt bound nothing re-runs; the DLQ is stable.
    let capped = run(&spec, &cfg);
    assert_eq!(capped.executed, 0);
    assert_eq!(capped.restored, 3);
    assert!(capped.failed.iter().all(|e| e.attempts == 2));

    // Raising the budget and the bound heals the campaign, and the
    // healed artifacts are byte-identical to a never-starved run.
    cfg.limits = RunLimits::default();
    cfg.retry = Some(3);
    let healed = run(&spec, &cfg);
    assert!(healed.failed.is_empty());
    assert!(load_dlq(&dlq_path_for(&ckpt)).unwrap().is_empty());
    let fresh = run(
        &spec,
        &CampaignConfig::new(dir.join("reference.ckpt.jsonl")),
    );
    assert_eq!(healed.tables, fresh.tables);
    assert_eq!(healed.report_json, fresh.report_json);
}

#[test]
fn wall_deadline_classifies_cells_as_deadline() {
    pool4();
    let dir = scratch("deadline");
    let spec = small_spec(false);
    let mut cfg = CampaignConfig::new(dir.join("sweep.ckpt.jsonl"));
    cfg.limits.wall_deadline = Some(std::time::Duration::ZERO);
    let outcome = run(&spec, &cfg);
    assert_eq!(outcome.failed.len(), 3);
    assert!(outcome.failed.iter().all(|e| e.reason == "deadline"));
    assert!(outcome.tables.contains("DNF"));

    // Deadline cells are kept (not re-run) on a plain resume — burning
    // bounded retry attempts is `dlq retry`'s job, not `--resume`'s.
    cfg.resume = true;
    let resumed = run(&spec, &cfg);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.failed.len(), 3);
}

#[test]
fn default_checkpoint_and_dlq_paths_are_conventional() {
    let ckpt = campaign::default_checkpoint_path("fleet-1k");
    assert_eq!(
        ckpt,
        PathBuf::from("bench_results/campaigns/fleet-1k.ckpt.jsonl")
    );
    assert_eq!(
        dlq_path_for(&ckpt),
        PathBuf::from("bench_results/campaigns/fleet-1k.dlq.jsonl")
    );
}
