//! # mapred — a from-scratch MapReduce execution framework
//!
//! The Hadoop-equivalent control plane the MOON paper extends, plus
//! MOON's scheduler, built with no Hadoop interop:
//!
//! - [`JobTracker`] — task bookkeeping, slot assignment, speculative
//!   execution, TaskTracker liveness (suspension vs expiry), fetch-failure
//!   handling.
//! - [`SchedulerPolicy`] — stock Hadoop (progress-gap stragglers,
//!   `TrackerExpiryInterval` kills), MOON §V (frozen/slow task lists,
//!   `SuspensionInterval`, 20 % global speculative cap, two-phase
//!   homestretch with `H`/`R`, hybrid-aware placement on dedicated
//!   nodes).
//! - [`FetchFailurePolicy`] — Hadoop's 50 %-of-reduces rule vs MOON's
//!   3-failures-then-query-the-file-system rule (§VI-B).
//!
//! Timing, data placement, and failure injection live in the `moon`
//! crate, which embeds these state machines in a discrete-event world.

#![warn(missing_docs)]

mod job;
mod jobtracker;
mod policy;
mod types;

pub use job::{AttemptInfo, JobSpec, JobStatus, TaskState};
pub use jobtracker::{
    HeartbeatResponse, JobMetrics, JobTracker, SuccessResponse, TrackerState, TrackerSweep,
};
pub use policy::{
    CrossJobPolicy, FetchFailurePolicy, HadoopPolicy, MoonPolicy, SchedulerPolicy, StragglerRule,
};
pub use types::{AttemptId, AttemptState, JobId, LaunchReason, TaskAssignment, TaskId, TaskKind};
