//! Named workload resolution, including the paper's measured-`sleep`
//! calibration (§VI-A).
//!
//! Scenario specs reference workloads by name: the Table I
//! applications (`sort`, `word count`), the doctest-sized `quick`
//! workload, and `sleep(<base>)` — the paper's trick of replaying a
//! workload's *measured* map/reduce times with negligible data to
//! isolate scheduling from data management. Resolving a `sleep(…)`
//! reference runs one calibration experiment on an idle cluster, so
//! resolution is where Figure 4's measurement step lives now.

use crate::knobs::{cluster, maybe_shrink};
use crate::spec::ScenarioError;
use moon::{Experiment, PolicyConfig};
use workloads::WorkloadSpec;

/// Measure sort/word-count task-time means on an idle cluster, for the
/// `sleep` workload (the paper feeds measured means into sleep, §VI-A).
///
/// The calibration runs the (quick-shrunk) base workload under
/// MOON-Hybrid at p = 0 with a fixed seed, then builds a sleep workload
/// from the *unshrunk* base shape and the measured means.
pub fn measured_sleep(base: &WorkloadSpec) -> WorkloadSpec {
    let r = Experiment {
        cluster: cluster(0.0, 6),
        policy: PolicyConfig::moon_hybrid(),
        workload: maybe_shrink(base.clone()),
        seed: 7,
    }
    .run();
    let map_mean = simkit::SimDuration::from_secs_f64(r.profile.avg_map_time.max(1.0));
    // Shuffle time is deliberately excluded from the reduce sleep: the
    // sleep workload replays *compute* time only, and the shuffle is
    // re-simulated by the network layer when the sleep job runs —
    // folding the measured shuffle mean into the reduce mean would
    // count the transfer twice.
    let reduce_mean = simkit::SimDuration::from_secs_f64(r.profile.avg_reduce_time.max(1.0));
    workloads::paper::sleep(base, map_mean, reduce_mean)
}

/// Resolve a workload name to its (unshrunk) spec. Quick-mode
/// shrinking is applied later, per grid point, exactly as the fig
/// binaries did — so `sleep(sort)` calibrates against the shrunk base
/// but inherits the full base's shape.
pub fn resolve(name: &str) -> Result<WorkloadSpec, ScenarioError> {
    if let Some(inner) = name
        .strip_prefix("sleep(")
        .and_then(|r| r.strip_suffix(')'))
    {
        let base = resolve(inner)?;
        return Ok(measured_sleep(&base));
    }
    match name {
        "sort" => Ok(workloads::paper::sort()),
        "word count" | "word-count" => Ok(workloads::paper::word_count()),
        "quick" => Ok(moon::quick_workload()),
        other => Err(ScenarioError::msg(format!(
            "unknown workload `{other}` (try: sort, word count, quick, sleep(sort))"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_workloads_resolve() {
        assert_eq!(resolve("sort").unwrap().name, "sort");
        assert_eq!(resolve("word count").unwrap().name, "word count");
        assert_eq!(resolve("word-count").unwrap().name, "word count");
        assert_eq!(resolve("quick").unwrap().name, "quick");
        assert!(resolve("nope").is_err());
        assert!(resolve("sleep(nope)").is_err());
    }

    #[test]
    fn sleep_resolution_calibrates() {
        // Calibrate against the quick workload (cheap): the result is a
        // sleep replay with the base's shape and near-zero data.
        let s = resolve("sleep(quick)").unwrap();
        assert_eq!(s.name, "sleep(quick)");
        let base = resolve("quick").unwrap();
        assert_eq!(s.n_maps, base.n_maps);
        assert_eq!(s.output_bytes, 0);
        assert!(s.map_cpu.mean() >= simkit::SimDuration::from_secs(1));
    }
}
