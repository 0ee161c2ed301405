//! The three benchmark workloads, built from the scenario registry so
//! they run through the same expansion and sweep path as `moon-cli run`.
//!
//! Each one loads a different layer hard and leaves the others nearly
//! idle (see README.md for the measured reasons):
//!
//! - `paper-sweep`: Figure 4's grid at full paper scale, netsim-bound;
//! - `fleet-stream`: the fleet-1k shape, heartbeat- and control-plane-bound;
//! - `churn-stream`: closed mixed-app clients at high churn, where
//!   attempts are killed and requeued and the NameNode re-replicates.

use scenarios::{ArrivalSpec, Axis, LoadAxis, PolicyRef, ScenarioError, ScenarioSpec};

/// A named workload: its scenario, whether it runs in quick mode, and
/// how many sweep seeds one benchmark seed expands to.
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// The scenario the workload sweeps.
    pub spec: ScenarioSpec,
    /// Value of `MOON_QUICK` the workload needs (checked at start-up).
    pub quick: bool,
    /// Sweep seeds per benchmark seed.
    pub seeds_per_run: u64,
}

/// Every workload name, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 3] = ["paper-sweep", "fleet-stream", "churn-stream"];

impl Workload {
    /// Build the named workload.
    pub fn named(name: &str) -> Result<Workload, ScenarioError> {
        let find = |n: &str| {
            scenarios::registry::find(n)
                .ok_or_else(|| ScenarioError::msg(format!("registry lost scenario `{n}`")))
        };
        match name {
            "paper-sweep" => Ok(Workload {
                name: "paper-sweep",
                spec: find("fig4")?,
                quick: false,
                seeds_per_run: 1,
            }),
            "fleet-stream" => {
                // The fleet-1k shape (1k volatile + 100 dedicated nodes)
                // at its highest arrival rate and twice it, ten seeds
                // per run. On the fleet-10k shape only two or three
                // seeds fit a run, and its host time per simulated hour
                // moved by 18-27 % (IQR / median) across benchmark
                // seeds, against 14 % here.
                let mut spec = find("fleet-1k")?;
                let Axis::Load(LoadAxis {
                    rate, n_volatile, ..
                }) = spec.axis
                else {
                    return Err(ScenarioError::msg("fleet-1k lost its load axis"));
                };
                spec.axis = Axis::Load(LoadAxis {
                    points: vec![240.0, 480.0],
                    rate,
                    n_volatile,
                });
                spec.name = "fleet-stream".into();
                Ok(Workload {
                    name: "fleet-stream",
                    spec,
                    quick: true,
                    seeds_per_run: 10,
                })
            }
            "churn-stream" => {
                let mut spec = find("mixed-apps-contention+preempt")?;
                spec.name = "churn-stream".into();
                spec.policies = [
                    "moon-hybrid+fair+preempt",
                    "moon-hybrid+tenant-fair",
                    "hadoop-1min",
                ]
                .into_iter()
                .map(PolicyRef::new)
                .collect();
                spec.axis = Axis::Rates(vec![0.5, 0.7]);
                // Pin the paper's 60 + 6 node cluster; quick mode still
                // shrinks each job.
                spec.n_volatile = Some(60);
                spec.dedicated = 6;
                // Hadoop's cells cannot finish at these rates within
                // the default 8 h; a 2 h horizon ends them as DNFs at a
                // fixed simulated length while every MOON cell commits.
                spec.horizon_secs = Some(7200);
                let jobs = spec
                    .jobs
                    .as_mut()
                    .ok_or_else(|| ScenarioError::msg("mixed-apps lost its job stream"))?;
                jobs.arrivals = ArrivalSpec::Closed {
                    clients: 3,
                    jobs_per_client: 3,
                    think_secs: 30.0,
                };
                Ok(Workload {
                    name: "churn-stream",
                    spec,
                    quick: true,
                    seeds_per_run: 2,
                })
            }
            other => Err(ScenarioError::msg(format!(
                "unknown workload `{other}` (known: {})",
                NAMES.join(", ")
            ))),
        }
    }

    /// The sweep seeds for benchmark seed `seed`. Different benchmark
    /// seeds never share a sweep seed.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.seeds_per_run)
            .map(|k| seed.wrapping_mul(self.seeds_per_run).wrapping_add(k))
            .collect()
    }

    /// Fleet size `(volatile, dedicated)` of the workload's grid, for
    /// the per-call layer probes.
    pub fn fleet(plan: &scenarios::Plan) -> (u32, u32) {
        let c = &plan.points[0].cluster;
        (c.n_volatile, c.n_dedicated)
    }
}
