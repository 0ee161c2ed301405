//! # scenarios — declarative scenario engine
//!
//! Scenarios are *data*, not code: a [`ScenarioSpec`] names workloads,
//! a policy set, an unavailability axis (synthetic rates, correlated
//! lab-session fleets, or an on-disk trace file), seeds, a horizon and
//! output tables — and the engine expands it into a grid of
//! fully-configured experiments ([`expand()`](expand::expand)) and folds the results
//! back into paper-style tables plus a JSON report ([`render`]).
//!
//! Specs come from two places:
//!
//! - the built-in [`registry`] — the paper reproductions (`fig4` …
//!   `fig7`, `table1`, `table2`, `ablations`) and stress scenarios
//!   (`diurnal-lab`, `blackout`, `trace-replay`, `high-churn`);
//! - TOML files parsed by the self-contained subset parser in
//!   [`toml`] (no registry access; line-numbered errors) via
//!   [`codec`].
//!
//! The `bench` crate layers the parallel sweep harness and the
//! `moon-cli` binary on top.

#![warn(missing_docs)]

pub mod codec;
pub mod expand;
pub mod fuzz;
pub mod invariants;
pub mod knobs;
pub mod policy;
pub mod registry;
pub mod render;
pub mod spec;
pub mod toml;
pub mod workload;

pub use expand::{expand, Plan, Point};
pub use fuzz::{run_fuzz, Fault, FuzzConfig, FuzzReport};
pub use knobs::{cluster, maybe_shrink, quick_mode, seed_list, seeds, PAPER_RATES};
pub use render::{mean_duplicates, mean_slowdown, mean_time, render_tables, report_json};
pub use spec::{
    ArrivalSpec, Axis, CorrelatedAxis, CorrelatedKnob, JobStreamSpec, LoadAxis, PolicyRef,
    ScenarioError, ScenarioSpec, TableKind, TableSpec, TelemetrySpec,
};
