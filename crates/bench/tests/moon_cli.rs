//! Golden-output tests for `moon-cli`: every pinned registry scenario,
//! the telemetry emitters and a fixed-seed fuzz campaign are re-run
//! through the real binary and diffed byte-for-byte against the files
//! committed under `data/golden/`.
//!
//! The binary runs from the workspace root (scenario files such as
//! `trace-replay`'s trace resolve relative to it) with every inherited
//! `MOON_*`/`RAYON_*` variable stripped and `MOON_QUICK=1` set, so the
//! caller's environment cannot change an output. A mismatch names the
//! first differing line and prints the exact command that regenerates
//! the golden file; a deliberate behaviour change is then a reviewable
//! diff of `data/golden/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Registry scenarios whose tables and JSON report are pinned.
const SCENARIOS: &[&str] = &[
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "ablations",
    "diurnal-lab",
    "blackout",
    "trace-replay",
    "high-churn",
    "job-stream-light",
    "job-stream-heavy",
    "mixed-apps-contention",
    "mixed-apps-contention+edf",
    "mixed-apps-contention+preempt",
];

/// How a golden file is regenerated from the workspace root (the
/// prefix of every "regenerate:" hint).
const REGEN: &str = "MOON_QUICK=1 cargo run -q -p bench --bin moon-cli --";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn golden_dir() -> PathBuf {
    workspace_root().join("data/golden")
}

/// A fresh scratch directory for one test's outputs.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moon-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `moon-cli <args>` from the workspace root in a pinned environment.
fn moon_cli(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_moon-cli"));
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key.starts_with("MOON_") || key.starts_with("RAYON_") {
            cmd.env_remove(key.as_ref());
        }
    }
    cmd.env("MOON_QUICK", "1")
        .current_dir(workspace_root())
        .args(args)
        .output()
        .expect("spawn moon-cli")
}

/// Run `moon-cli` and insist it exits 0.
fn run_ok(args: &[&str]) -> Output {
    let out = moon_cli(args);
    assert!(
        out.status.success(),
        "moon-cli {} exited {:?}\nstderr:\n{}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Compare `actual` with the golden file `name`. On a mismatch, return
/// a message naming the first differing line and the `regen` command.
fn check_golden(name: &str, actual: &[u8], regen: &str) -> Option<String> {
    let path = golden_dir().join(name);
    let expected = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            return Some(format!(
                "{name}: cannot read {}: {e}\n  regenerate: {regen}",
                path.display()
            ))
        }
    };
    if expected == actual {
        return None;
    }
    let expected = String::from_utf8_lossy(&expected);
    let actual = String::from_utf8_lossy(actual);
    let mut exp_lines = expected.lines();
    let mut act_lines = actual.lines();
    let mut line = 1;
    loop {
        match (exp_lines.next(), act_lines.next()) {
            (Some(e), Some(a)) if e == a => line += 1,
            (e, a) => {
                return Some(format!(
                    "data/golden/{name} differs at line {line}\n  golden: {}\n  actual: {}\n  regenerate: {regen}",
                    e.unwrap_or("<end of file>"),
                    a.unwrap_or("<end of file>"),
                ));
            }
        }
    }
}

fn assert_no_mismatches(mismatches: Vec<String>) {
    assert!(
        mismatches.is_empty(),
        "{} golden file(s) differ:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn scenario_tables_and_reports_match_goldens() {
    let dir = scratch("scenarios");
    let mut mismatches = Vec::new();
    for name in SCENARIOS {
        let json = dir.join(format!("{name}.json"));
        let out = run_ok(&["run", name, "--seeds", "1", "--out", json.to_str().unwrap()]);
        let regen = format!(
            "{REGEN} run {name} --seeds 1 --out data/golden/{name}.json > data/golden/{name}.tables"
        );
        mismatches.extend(check_golden(&format!("{name}.tables"), &out.stdout, &regen));
        mismatches.extend(check_golden(
            &format!("{name}.json"),
            &std::fs::read(&json).unwrap(),
            &regen,
        ));
    }
    assert_no_mismatches(mismatches);
}

#[test]
fn telemetry_artifacts_match_goldens() {
    let dir = scratch("telemetry");
    let json = dir.join("report.json");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    run_ok(&[
        "run",
        "job-stream-light",
        "--seeds",
        "1",
        "--out",
        json.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let regen = &format!(
        "{REGEN} run job-stream-light --seeds 1 --out bench_results/job-stream-light.json \
         --metrics-out data/golden/job-stream-light.metrics.jsonl \
         --trace-out data/golden/job-stream-light.trace.json"
    );
    let mut mismatches = Vec::new();
    // Recording telemetry must not change the report itself.
    mismatches.extend(check_golden(
        "job-stream-light.json",
        &std::fs::read(&json).unwrap(),
        regen,
    ));
    mismatches.extend(check_golden(
        "job-stream-light.metrics.jsonl",
        &std::fs::read(&metrics).unwrap(),
        regen,
    ));
    mismatches.extend(check_golden(
        "job-stream-light.trace.json",
        &std::fs::read(&trace).unwrap(),
        regen,
    ));
    assert_no_mismatches(mismatches);
}

#[test]
fn fuzz_report_matches_golden() {
    let dir = scratch("fuzz");
    let report = dir.join("fuzz.json");
    run_ok(&[
        "fuzz",
        "25",
        "--seed",
        "7",
        "--out",
        report.to_str().unwrap(),
    ]);
    let regen = &format!("{REGEN} fuzz 25 --seed 7 --out data/golden/fuzz-25-seed-7.json");
    assert_no_mismatches(
        check_golden(
            "fuzz-25-seed-7.json",
            &std::fs::read(&report).unwrap(),
            regen,
        )
        .into_iter()
        .collect(),
    );
}

#[test]
fn zero_is_rejected_for_positive_integer_flags() {
    let dir = scratch("zero-flags");
    let out = dir.join("report.json");
    for flag in ["--seeds", "--event-budget", "--cell-deadline-secs"] {
        let res = moon_cli(&[
            "run",
            "job-stream-light",
            flag,
            "0",
            "--out",
            out.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(2), "{flag} 0 must exit 2: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a positive integer")),
            "{flag} 0 must name the flag: {stderr}"
        );
        assert!(!out.exists(), "{flag} 0 must not run the scenario");
    }
}

/// The committed demo sweep: 1 policy × 3 rates × 1 seed.
const CAMPAIGN_DEMO: &str = "data/scenarios/campaign-demo.toml";

/// Names and modification times of the files under the conventional
/// checkpoint directory, to show a run left it untouched.
fn checkpoint_dir_listing() -> Vec<(std::ffi::OsString, std::time::SystemTime)> {
    let Ok(entries) = std::fs::read_dir(workspace_root().join("bench_results/campaigns")) else {
        return Vec::new();
    };
    let mut files: Vec<_> = entries
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), e.metadata().unwrap().modified().unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The demo's one table row, split into its cells.
fn demo_row(stdout: &[u8]) -> Vec<String> {
    let tables = String::from_utf8_lossy(stdout);
    let row = tables
        .lines()
        .find(|l| l.starts_with("MOON-Hybrid\t"))
        .unwrap_or_else(|| panic!("no MOON-Hybrid row in:\n{tables}"));
    row.split('\t').map(String::from).collect()
}

#[test]
fn event_budget_without_checkpoint_fails_in_memory() {
    let dir = scratch("event-budget");
    let out = dir.join("report.json");
    let before = checkpoint_dir_listing();
    let res = moon_cli(&[
        "run",
        CAMPAIGN_DEMO,
        "--event-budget",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert_eq!(
        res.status.code(),
        Some(1),
        "livelocked cells must fail the run: {stderr}"
    );
    assert_eq!(demo_row(&res.stdout), ["MOON-Hybrid", "DNF", "DNF", "DNF"]);
    assert!(
        out.exists(),
        "the report is written before the failing exit"
    );
    assert_eq!(
        checkpoint_dir_listing(),
        before,
        "a run without --checkpoint must not write a checkpoint"
    );
}

#[test]
fn injected_panic_is_contained_without_checkpoint() {
    let dir = scratch("inject-panic");
    let out = dir.join("report.json");
    let before = checkpoint_dir_listing();
    let res = moon_cli(&[
        "run",
        CAMPAIGN_DEMO,
        "--inject-panic",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert_eq!(
        res.status.code(),
        Some(1),
        "a contained panic exits 1: {stderr}"
    );
    assert!(stderr.contains("failed cell 0 "), "{stderr}");
    let row = demo_row(&res.stdout);
    assert_eq!(row[..2], ["MOON-Hybrid", "DNF"]);
    for cell in &row[2..] {
        assert!(
            cell.parse::<f64>().is_ok(),
            "the rest of the grid must complete: {row:?}"
        );
    }
    assert!(
        out.exists(),
        "the report is written before the failing exit"
    );
    assert_eq!(checkpoint_dir_listing(), before);
}
