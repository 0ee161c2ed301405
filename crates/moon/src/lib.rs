//! # moon — MapReduce On Opportunistic eNvironments
//!
//! The integrated reproduction of the MOON system (Lin et al.,
//! HPDC 2010): a discrete-event simulation of a volunteer-computing
//! cluster running a from-scratch MapReduce stack, with MOON's hybrid
//! data management ([`dfs`]) and volatility-aware scheduling
//! ([`mapred`]).
//!
//! ## Quickstart
//!
//! One small job simulated on a volunteer cluster at 30 % node
//! unavailability under MOON and stock Hadoop. The block below *is*
//! `examples/quickstart.rs`, included verbatim (single source —
//! `cargo run --release --example quickstart` runs exactly this code)
//! and compiled + executed as a doctest on every `cargo test`, so the
//! documented entry point can never drift:
//!
//! ```
#![doc = include_str!("../../../examples/quickstart.rs")]
//! ```
//!
//! One [`Experiment`] reproduces one measurement of the paper: the input
//! is pre-staged into the simulated file system, the job is submitted at
//! t = 1 s, every volatile node is suspended/resumed by a synthetic
//! availability trace (Normal outages, mean 409 s, inserted by a Poisson
//! process to hit the target unavailability rate), and the run ends when
//! the job's output file reaches its replication factor.
//!
//! ## Multi-job streams
//!
//! Beyond the paper's one-job-per-run setup, [`Experiment::run_stream`]
//! serves a whole [`workloads::JobStream`] on one shared cluster —
//! deterministic batches, open Poisson arrivals, or closed think-time
//! clients — with cross-job FIFO or max-min fair-share scheduling
//! layered under the per-task policies, and per-job SLO rows
//! ([`JobSlo`]: queueing delay, makespan, bounded slowdown) in the
//! result. Like the quickstart above, the block below *is*
//! `examples/job_stream.rs`, compiled and executed as a doctest:
//!
//! ```
#![doc = include_str!("../../../examples/job_stream.rs")]
//! ```

#![warn(missing_docs)]

mod config;
mod experiment;
mod metrics;
pub mod report;
mod world;

pub use config::{ClusterConfig, PolicyConfig};
pub use experiment::{Experiment, RunLimits};
pub use metrics::{ExecutionProfile, JobSlo, Outcome, RunMetrics, RunResult};
pub use world::{Ev, World};

/// A small workload for doctests and smoke tests: 16 maps over 256 MB,
/// 4 reduces, fast tasks.
pub fn quick_workload() -> workloads::WorkloadSpec {
    use simkit::SimDuration;
    use workloads::{DurationModel, ReduceCount, WorkloadSpec, MB};
    WorkloadSpec {
        name: "quick".into(),
        input_bytes: 256 * MB,
        n_maps: 16,
        reduces: ReduceCount::Fixed(4),
        map_cpu: DurationModel::around(SimDuration::from_secs(10)),
        map_output_bytes: 16 * MB,
        reduce_cpu: DurationModel::around(SimDuration::from_secs(8)),
        output_bytes: 256 * MB,
    }
}
