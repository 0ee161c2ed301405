//! Quickstart: simulate a small MapReduce job on a volunteer cluster at
//! 30 % node unavailability under MOON and under stock Hadoop, and
//! compare their job times and duplicated tasks.
//!
//! This file is included verbatim into the crate-level rustdoc of
//! `moon` (`crates/moon/src/lib.rs`) and runs there as a doctest on
//! every `cargo test` — it is the single source for the documented
//! quickstart.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use moon::{ClusterConfig, Experiment, PolicyConfig};

fn main() {
    println!("simulating a 12+2-node volunteer cluster at p = 0.3 ...");
    for policy in [
        PolicyConfig::moon_hybrid(),
        PolicyConfig::hadoop(simkit::SimDuration::from_mins(1), 3),
    ] {
        let result = Experiment {
            cluster: ClusterConfig::small(0.3),
            policy,
            workload: moon::quick_workload(),
            seed: 42,
        }
        .run();
        assert!(
            result.job_time.is_some(),
            "{} job did not finish",
            result.label
        );
        println!(
            "  {:<12} job time: {:>6}s   duplicated tasks: {}",
            result.label,
            moon::report::secs_or_dnf(result.job_time.map(|d| d.as_secs_f64())),
            result.job.duplicated_tasks,
        );
    }
}
