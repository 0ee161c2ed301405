//! The execution layer behind the `moon-cli` scenario runner.
//!
//! `moon-cli run <name>` regenerates a table or figure of the MOON
//! paper (see DESIGN.md §3 for the index) by running a *scenario* from
//! the [`scenarios`] registry. This crate runs it: one sweep runner
//! ([`campaign`]) that fans every (point, seed) cell out across rayon's
//! work-stealing pool (`MOON_THREADS` / `RAYON_NUM_THREADS` override
//! the worker count) with per-cell fault containment and an optional
//! checkpoint, progress lines with run outcomes, paper-style text
//! tables, machine-readable JSON reports, and telemetry artifacts
//! stitched from per-cell fragments ([`obs`]).

#![warn(missing_docs)]

pub mod campaign;
pub mod obs;

pub use campaign::{run_grid_with_seeds, run_spec, CampaignConfig, CampaignOutcome, DlqEntry};
pub use scenarios::Point;

/// Write a scenario report to `path` (creating parent directories),
/// logging the destination on stderr. The write is atomic (temp file +
/// rename), so a killed process never leaves a truncated artifact.
pub fn write_report(path: &std::path::Path, report_json: &str) {
    match simkit::fsio::atomic_write(path, report_json.as_bytes()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
