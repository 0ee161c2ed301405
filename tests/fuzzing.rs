//! The fuzzer end to end: campaign determinism, fault injection, and
//! the committed regression fixtures that earlier campaigns produced.

use scenarios::{codec, invariants, Fault, FuzzConfig};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("moon-fuzz-it-{tag}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn small_campaign_is_clean_and_deterministic() {
    let cfg = FuzzConfig {
        n_cases: 8,
        seed: 11,
        out_dir: tmp_dir("clean-a"),
        fault: None,
    };
    let a = scenarios::run_fuzz(&cfg).expect("campaign runs");
    assert!(a.ok(), "violations: {:?}", a.violations);
    assert!(a.experiments > 0);
    let b = scenarios::run_fuzz(&FuzzConfig {
        out_dir: tmp_dir("clean-b"),
        ..cfg.clone()
    })
    .expect("campaign runs");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "same seed, same report — bit for bit"
    );
    assert_eq!(a.experiments, b.experiments);
}

/// The oracle-validation acceptance test: a deliberately inverted
/// fair-share ranking must be caught by the tail-latency invariant and
/// shrunk to a small-cluster ready-to-run repro.
#[test]
fn injected_fair_inversion_is_caught_and_shrunk() {
    let cfg = FuzzConfig {
        n_cases: 12,
        seed: 7,
        out_dir: tmp_dir("fault"),
        fault: Some(Fault::InvertFairShare),
    };
    let report = scenarios::run_fuzz(&cfg).expect("campaign runs");
    let caught: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.invariant == "inv4-fair-tail")
        .collect();
    assert!(
        !caught.is_empty(),
        "the inverted ranking must trip invariant 4; report: {:?}",
        report.violations
    );
    for v in caught {
        let path = v.repro.as_ref().expect("invariant violations write repros");
        let spec = codec::load_file(Path::new(path)).expect("repro spec parses");
        let nodes = spec.n_volatile.expect("fuzz specs pin the fleet") + spec.dedicated;
        assert!(
            nodes <= 10,
            "shrunk repro must stay small, got {nodes} nodes"
        );
        assert!(
            spec.policies
                .iter()
                .any(|p| p.id.ends_with("+fair-inverted")),
            "the repro must carry the faulty policy so it reruns as-is"
        );
    }
}

fn run_fixture(name: &str) -> (scenarios::ScenarioSpec, bench::CampaignOutcome) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data/fuzz")
        .join(name);
    let spec = codec::load_file(&path).expect("fixture parses");
    let run = bench::run_spec(&spec, None, &Default::default()).expect("fixture runs");
    (spec, run)
}

/// Committed repro from a fault-injected campaign: 5 nodes, closed
/// load, FIFO vs the inverted ranking. The inverted row's pooled p95
/// queueing delay must exceed the oracle's tolerance — this is the
/// regression net under the `+fair-inverted` catalog entry and the
/// invariant-4 thresholds.
#[test]
fn fixture_fair_inverted_trips_the_tail_invariant() {
    let (spec, run) = run_fixture("repro-fair-inverted.toml");
    assert!(spec.n_volatile.unwrap() + spec.dedicated <= 10);
    // Single panel and column, so points 0 and 1 are the policy rows:
    // FIFO first, the inverted twin second.
    let fifo = invariants::pooled_p95_queue_delay(&run.results[0]).expect("jobs launched");
    let fair = invariants::pooled_p95_queue_delay(&run.results[1]).expect("jobs launched");
    assert!(
        invariants::check_fair_tail(fifo, fair).is_some(),
        "inverted ranking must starve the tail (fifo p95 {fifo:.1}s, inverted p95 {fair:.1}s)"
    );
}

/// Committed repro of a real bug this fuzzer found (conservation
/// invariant 5): output blocks born under-replicated on a small busy
/// fleet never entered the replication queue, so their jobs could
/// never commit — the stream hung at the horizon with every task done.
/// With the NameNode fix the whole stream must drain and the end-of-run
/// audit must stay empty.
#[test]
fn fixture_commit_starvation_stays_fixed() {
    let (spec, run) = run_fixture("repro-commit-starvation.toml");
    let total = spec.jobs.as_ref().unwrap().total_jobs() as usize;
    for r in run.results.iter().flatten() {
        assert_eq!(r.outcome, moon::Outcome::Completed, "stream must drain");
        assert!(r.audit.is_empty(), "audit: {:?}", r.audit);
        let rows = r.jobs.as_ref().expect("stream runs carry job rows");
        assert_eq!(rows.len(), total);
        assert!(rows.iter().all(|j| j.finished.is_some()));
    }
}
