//! Scenario execution: expand a [`ScenarioSpec`], fan the grid out
//! through [`run_grid_with_seeds`](crate::run_grid_with_seeds), and
//! assemble the paper-style tables plus the JSON report. This is the
//! engine behind `moon-cli run`.

use moon::RunResult;
use scenarios::{Plan, ScenarioError, ScenarioSpec};

/// A completed scenario run.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The expanded plan (grid + table layout).
    pub plan: Plan,
    /// Seeds actually used.
    pub seeds: Vec<u64>,
    /// Grid-ordered results, one inner vec per point (seeds inside).
    pub results: Vec<Vec<RunResult>>,
    /// Rendered text tables (what the binaries print).
    pub tables: String,
    /// The machine-readable scenario report.
    pub report_json: String,
}

/// Expand and run a scenario. Seed precedence: explicit override
/// (`--seeds N`) > the spec's `seeds` list > the `MOON_SEEDS` env
/// default.
pub fn run_spec(
    spec: &ScenarioSpec,
    seeds_override: Option<Vec<u64>>,
) -> Result<ScenarioRun, ScenarioError> {
    let plan = scenarios::expand(spec)?;
    let seeds = seeds_override
        .or_else(|| spec.seeds.clone())
        .unwrap_or_else(scenarios::seeds);
    if seeds.is_empty() {
        // Zero runs per point would panic the profile/detail renderers
        // and silently produce all-DNF series tables.
        return Err(ScenarioError::msg(
            "seed list is empty — provide at least one seed",
        ));
    }
    let results = crate::run_grid_with_seeds(plan.points.clone(), &seeds);
    let tables = scenarios::render_tables(&plan, &results);
    let report_json = scenarios::report_json(&plan, &results, &seeds);
    Ok(ScenarioRun {
        plan,
        seeds,
        results,
        tables,
        report_json,
    })
}

/// Write a scenario report to `path` (creating parent directories),
/// logging the destination on stderr. The write is atomic (temp file +
/// rename), so a killed process never leaves a truncated artifact.
pub fn write_report(path: &std::path::Path, report_json: &str) {
    match simkit::fsio::atomic_write(path, report_json.as_bytes()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
