//! The execution layer behind the `moon-cli` scenario runner.
//!
//! `moon-cli run <name>` regenerates a table or figure of the MOON
//! paper (see DESIGN.md §3 for the index) by running a *scenario* from
//! the [`scenarios`] registry. This crate runs it: a sweep runner
//! fanning every (point, seed) task out across rayon's work-stealing
//! pool (`MOON_THREADS` / `RAYON_NUM_THREADS` override the worker
//! count), progress lines with run outcomes, paper-style text tables,
//! machine-readable JSON reports, and checkpointed campaigns.

#![warn(missing_docs)]

use moon::{Experiment, RunResult};
use rayon::prelude::*;

pub mod campaign;
pub mod obs;
mod scenario;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, DlqEntry};
pub use scenario::{run_spec, write_report, ScenarioRun};
pub use scenarios::Point;

/// Run the whole grid (each point × every seed in `seeds`) in
/// parallel; results come back in grid order, one inner vec per point
/// with its seeds inside.
///
/// The grid is flattened to one task per (point, seed) pair so seeds
/// parallelize too — every task is an independent, fully-seeded
/// [`Experiment`], and the pool's order-preserving collect puts results
/// back in grid order regardless of which worker finished first.
/// Worker count comes from `MOON_THREADS` / `RAYON_NUM_THREADS`
/// (default: all hardware threads).
pub fn run_grid_with_seeds(points: Vec<Point>, seeds: &[u64]) -> Vec<Vec<RunResult>> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n_seeds = seeds.len();
    // One task per (point, seed): the experiment plus the point's
    // optional job stream and telemetry config (cloned per task so
    // workers stay independent — telemetry buffers are per-run, never
    // shared, which is what keeps enabled-telemetry sweeps bit-identical
    // across thread counts).
    type Task = (
        Experiment,
        Option<workloads::JobStream>,
        Option<simkit::TelemetryConfig>,
    );
    let tasks: Vec<Task> = points
        .iter()
        .flat_map(|pt| {
            seeds.iter().map(|&seed| {
                (
                    Experiment {
                        cluster: pt.cluster.clone(),
                        policy: pt.policy.clone(),
                        workload: pt.workload.clone(),
                        seed,
                    },
                    pt.jobs.clone(),
                    pt.telemetry.clone(),
                )
            })
        })
        .collect();
    let total = tasks.len();
    // Progress lines carry a monotone completion counter; each line is
    // one `eprintln!` (a single stderr lock), so concurrent workers
    // never interleave mid-line.
    let done = AtomicUsize::new(0);
    let flat: Vec<RunResult> = tasks
        .into_par_iter()
        .map(|(exp, stream, telemetry)| {
            let r = exp.run_with_telemetry(stream, telemetry);
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            progress_line(k, total, &r);
            r
        })
        .collect();
    let mut flat = flat.into_iter();
    (0..points.len())
        .map(|_| flat.by_ref().take(n_seeds).collect())
        .collect()
}

/// Emit one progress line for a finished run (`k` of `total`). Each
/// line is a single `eprintln!` (one stderr lock), so concurrent pool
/// workers never interleave mid-line.
pub(crate) fn progress_line(k: usize, total: usize, r: &RunResult) {
    let shown = match r.outcome {
        moon::Outcome::Completed => moon::report::secs_or_dnf(r.job_time.map(|d| d.as_secs_f64())),
        // Distinguish a legitimate horizon DNF from the containment
        // verdicts right in the progress stream.
        moon::Outcome::Horizon => "DNF(horizon)".into(),
        moon::Outcome::EventLimit => "DNF(EVENT-LIMIT — livelock!)".into(),
        moon::Outcome::Deadline => "DNF(WALL-DEADLINE — cell budget exceeded)".into(),
        moon::Outcome::Crashed => "DNF(CRASHED — panic contained)".into(),
    };
    eprintln!(
        "[{}/{}] {} {} p={} seed={}: {}s",
        k, total, r.label, r.workload, r.unavailability, r.seed, shown
    );
}
