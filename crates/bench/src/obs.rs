//! Sweep-level telemetry artifact assembly. Each cell's
//! [`Telemetry`](simkit::Telemetry) recorder is pre-rendered into
//! fragments as the cell finishes ([`run_metrics_fragment`],
//! [`run_trace_fragment`]), and the sweep runner stitches the two
//! artifact formats `moon-cli run` writes from them:
//!
//! - **Metrics JSONL** ([`metrics_from_fragments`]): one line per gauge
//!   sample per run, every line carrying the same fixed key set — run
//!   index, policy label, workload, unavailability, seed, `t_secs`,
//!   then the gauge columns. Loads as a flat table in
//!   pandas/duckdb/jq.
//! - **Chrome trace JSON** ([`trace_from_fragments`]): a single
//!   `{"traceEvents": [...]}` document loadable in Perfetto or
//!   `chrome://tracing`. Each run gets two *processes* — its node
//!   tracks (attempts, fetches, outages) and its job tracks
//!   (queued/run intervals) — named after the run's grid coordinates.
//!
//! Fragments are stitched in grid order (point-major, seeds inside),
//! so identical sweeps produce byte-identical artifacts regardless of
//! how the worker pool scheduled them, and a resumed campaign splices
//! checkpointed fragments in byte for byte.

use moon::report::json::{escape, number};
use moon::RunResult;
use simkit::telemetry::SpanGroup;

/// The fixed per-line metadata for one run, values pre-rendered as
/// JSON fragments.
fn run_meta(idx: usize, r: &RunResult) -> Vec<(&'static str, String)> {
    vec![
        ("run", idx.to_string()),
        ("label", format!("\"{}\"", escape(&r.label))),
        ("workload", format!("\"{}\"", escape(&r.workload))),
        ("unavailability", number(r.unavailability)),
        ("seed", r.seed.to_string()),
    ]
}

/// One run's contribution to the metrics JSONL artifact: its gauge
/// sample lines at flat run index `idx`. `None` when the run carries
/// no telemetry recorder.
///
/// The campaign checkpoint stores these fragments per cell, so a
/// resumed sweep can stitch the artifact byte-identically without the
/// (unserializable) live recorders.
pub fn run_metrics_fragment(idx: usize, r: &RunResult) -> Option<String> {
    let t = r.telemetry.as_deref()?;
    let mut out = String::new();
    t.metrics_jsonl_into(&run_meta(idx, r), &mut out);
    Some(out)
}

/// One run's contribution to the Chrome trace artifact: its trace
/// events (process metadata + spans) joined with `",\n"`, for flat run
/// index `idx`, which owns pids `2*idx+1` (nodes) and `2*idx+2`
/// (jobs). `None` when the run carries no telemetry recorder.
pub fn run_trace_fragment(idx: usize, r: &RunResult) -> Option<String> {
    let t = r.telemetry.as_deref()?;
    let coord = format!(
        "run {idx}: {} {} p={} seed={}",
        r.label, r.workload, r.unavailability, r.seed
    );
    let pid_nodes = (2 * idx + 1) as u64;
    let pid_jobs = (2 * idx + 2) as u64;
    let mut events: Vec<String> = Vec::new();
    t.trace_events_into(
        &move |g| match g {
            SpanGroup::Nodes => pid_nodes,
            SpanGroup::Jobs => pid_jobs,
        },
        &[
            (SpanGroup::Nodes, format!("{coord} — nodes")),
            (SpanGroup::Jobs, format!("{coord} — jobs")),
        ],
        &mut events,
    );
    Some(events.join(",\n"))
}

/// Assemble the metrics JSONL artifact from per-run fragments in grid
/// order (`None` = run without telemetry): plain concatenation.
pub fn metrics_from_fragments<'a>(frags: impl IntoIterator<Item = Option<&'a str>>) -> String {
    frags.into_iter().flatten().collect()
}

/// Assemble the Chrome trace document from per-run fragments in grid
/// order: non-empty fragments joined with `",\n"` inside the fixed
/// `{"traceEvents": [...]}` wrapper.
pub fn trace_from_fragments<'a>(frags: impl IntoIterator<Item = Option<&'a str>>) -> String {
    let blocks: Vec<&str> = frags
        .into_iter()
        .flatten()
        .filter(|f| !f.is_empty())
        .collect();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    fn telemetry_run() -> crate::CampaignOutcome {
        let mut spec = scenarios::registry::find("fig4").expect("registered");
        spec.telemetry = Some(scenarios::TelemetrySpec::default());
        // One tiny point: a single policy, rate, and the doctest-sized
        // workload on a shrunken fleet, so the test runs in seconds.
        spec.policies.truncate(1);
        spec.workloads = vec!["quick".into()];
        spec.panels.truncate(1);
        spec.axis = scenarios::Axis::Rates(vec![0.3]);
        spec.n_volatile = Some(12);
        spec.dedicated = 2;
        spec.horizon_secs = Some(1800);
        crate::run_spec(&spec, Some(vec![42]), &Default::default()).expect("runs")
    }

    #[test]
    fn artifacts_cover_runs_and_stay_well_formed() {
        let run = telemetry_run();
        let jsonl = &run.metrics_jsonl;
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(!lines.is_empty(), "sampling produced no rows");
        for line in &lines {
            assert!(line.starts_with("{\"run\":0,\"label\":"), "{line}");
            assert!(line.contains("\"t_secs\":"), "{line}");
            assert!(line.contains("\"events\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }

        let trace = &run.chrome_trace;
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(trace.ends_with("\n]}\n"));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.contains("— nodes"));
        assert!(trace.contains("— jobs"));
        assert!(trace.contains("\"ph\":\"X\""));
    }

    #[test]
    fn identical_seed_runs_produce_identical_artifacts() {
        let a = telemetry_run();
        let b = telemetry_run();
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert_eq!(a.chrome_trace, b.chrome_trace);
    }
}
