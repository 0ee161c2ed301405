//! Measured results of one simulation run — everything the paper's
//! figures and Table II report.

use mapred::JobMetrics;
use simkit::{SimDuration, SimTime, Summary};
use std::fmt;

/// Raw measurements accumulated while the world runs.
#[derive(Debug, Default, Clone)]
pub struct RunMetrics {
    /// When the job was submitted.
    pub job_submitted: Option<SimTime>,
    /// When the job's output reached its replication factor.
    pub job_finished: Option<SimTime>,
    /// Resolved reduce count (Table I's 0.9 × AvailSlots for sort).
    pub n_reduces: u32,
    /// Per-successful-map-attempt wall time (launch → success).
    pub map_times: Summary,
    /// Per-successful-reduce shuffle time (launch → last fetch).
    pub shuffle_times: Summary,
    /// Per-successful-reduce compute+write time (shuffle end → success).
    pub reduce_times: Summary,
    /// Total shuffle fetch failures reported.
    pub fetch_failures: u64,
    /// Fetch batches that completed after their map output had been
    /// invalidated (map re-execution decided mid-flight) — the stale
    /// data is discarded and the maps re-fetched.
    pub stale_fetches: u64,
}

impl RunMetrics {
    /// Job response time, if it finished.
    pub fn job_time(&self) -> Option<SimDuration> {
        Some(self.job_finished?.since(self.job_submitted?))
    }
}

/// How a run ended. The paper's figures only distinguish finished
/// from "unable to finish", but a sweep must also distinguish a job
/// that legitimately ran out of horizon from a simulator livelock
/// (event-limit hit) — previously only a `debug_assert!`, so release
/// sweeps silently reported livelocked runs as ordinary DNFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The job's output committed within the horizon.
    Completed,
    /// The horizon passed first (the paper's "unable to finish").
    Horizon,
    /// The event-count safety limit was hit — a livelock in the world
    /// model, not a legitimate DNF. Investigate, don't average.
    EventLimit,
    /// The wall-clock deadline of a campaign cell passed first — the
    /// run made too little progress per second of real time. Like
    /// [`Outcome::EventLimit`], a containment verdict, not a DNF.
    Deadline,
    /// The run panicked and was contained by the campaign runner; the
    /// rest of the result row is a deterministic placeholder. Only the
    /// campaign layer produces this.
    Crashed,
}

impl Outcome {
    /// Stable machine-readable name (`completed` / `horizon` /
    /// `event_limit` / `wall_deadline` / `crashed`), used by the JSON
    /// report writer and the campaign checkpoint codec.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Horizon => "horizon",
            Outcome::EventLimit => "event_limit",
            Outcome::Deadline => "wall_deadline",
            Outcome::Crashed => "crashed",
        }
    }

    /// Inverse of [`Outcome::as_str`], used when decoding checkpoint
    /// rows. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "completed" => Outcome::Completed,
            "horizon" => Outcome::Horizon,
            "event_limit" => Outcome::EventLimit,
            "wall_deadline" => Outcome::Deadline,
            "crashed" => Outcome::Crashed,
            _ => return None,
        })
    }

    /// True for the containment outcomes ([`Outcome::EventLimit`],
    /// [`Outcome::Deadline`], [`Outcome::Crashed`]): the run did not
    /// end by simulation semantics, so its partial counters must not
    /// be pooled into table cells.
    pub fn is_contained_failure(self) -> bool {
        matches!(
            self,
            Outcome::EventLimit | Outcome::Deadline | Outcome::Crashed
        )
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-job service-level row of a multi-job run: when the job arrived,
/// how long it queued, and how long it took end to end. Single-job
/// runs don't carry these (their one job *is* the run).
#[derive(Debug, Clone)]
pub struct JobSlo {
    /// JobTracker id (submission order).
    pub job: u32,
    /// Workload the job ran.
    pub workload: String,
    /// Submission time.
    pub submitted: SimTime,
    /// First attempt launch (None = starved until the run ended).
    pub first_launch: Option<SimTime>,
    /// Output-commit time (None = DNF within the horizon).
    pub finished: Option<SimTime>,
    /// Absolute completion deadline (None = no deadline attached).
    pub deadline: Option<SimTime>,
    /// Strict-priority tier the job ran at (0 = default).
    pub priority: i32,
    /// Owning tenant id (0 = default tenant).
    pub tenant: u32,
    /// The job's own JobTracker counters.
    pub metrics: JobMetrics,
}

impl JobSlo {
    /// Floor for bounded slowdown: jobs whose solo service time is
    /// shorter than this don't inflate the metric (the classic
    /// "bounded" in bounded slowdown).
    pub const SLOWDOWN_BOUND_SECS: f64 = 10.0;

    /// Queueing delay in seconds: submission → first attempt launch.
    pub fn queue_delay_secs(&self) -> Option<f64> {
        Some(self.first_launch?.since(self.submitted).as_secs_f64())
    }

    /// Makespan in seconds: submission → output commit.
    pub fn makespan_secs(&self) -> Option<f64> {
        Some(self.finished?.since(self.submitted).as_secs_f64())
    }

    /// Service time in seconds: first launch → output commit.
    pub fn service_secs(&self) -> Option<f64> {
        Some(self.finished?.since(self.first_launch?).as_secs_f64())
    }

    /// Bounded slowdown: `max(1, makespan / max(service, bound))` —
    /// how much longer the job took than it would have with the
    /// cluster to itself, robust to near-zero service times.
    pub fn bounded_slowdown(&self) -> Option<f64> {
        let makespan = self.makespan_secs()?;
        let service = self.service_secs()?;
        Some((makespan / service.max(Self::SLOWDOWN_BOUND_SECS)).max(1.0))
    }

    /// Did the job miss its deadline? A deadline-less job never misses;
    /// a job with a deadline misses unless it committed at or before
    /// it (so a DNF with a deadline counts as a miss).
    pub fn deadline_missed(&self) -> bool {
        self.deadline
            .is_some_and(|d| self.finished.is_none_or(|f| f > d))
    }

    /// Does this job carry scheduling metadata (or was it preempted)?
    /// Gates the extra report columns/keys so metadata-free streams
    /// keep their historical byte-stable output.
    pub fn has_metadata(&self) -> bool {
        self.deadline.is_some()
            || self.priority != 0
            || self.tenant != 0
            || self.metrics.preempted > 0
    }
}

/// Final, flattened result of one run (what the bench harness prints).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy label ("MOON-Hybrid", "Hadoop1Min", "VO-V3", …).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Target unavailability rate of the run.
    pub unavailability: f64,
    /// Job response time; `None` = did not finish within the horizon
    /// (the paper's "unable to finish" outcome).
    pub job_time: Option<SimDuration>,
    /// How the run ended (completed / horizon / event-limit livelock).
    pub outcome: Outcome,
    /// Counters from the JobTracker.
    pub job: JobMetrics,
    /// Table II row: averages per task.
    pub profile: ExecutionProfile,
    /// Total shuffle fetch failures.
    pub fetch_failures: u64,
    /// Events processed (simulator diagnostics).
    pub events: u64,
    /// Seed used.
    pub seed: u64,
    /// Per-job SLO rows of a multi-job run (None for the paper's
    /// single-job experiments — their tables and JSON stay byte-stable).
    pub jobs: Option<Vec<JobSlo>>,
    /// End-of-run conservation audit ([`World::debug_final_audit`]):
    /// one line per violated invariant, empty when the run is clean.
    /// Never rendered in tables; the JSON report embeds the findings
    /// as an `"audit"` array only when non-empty, so clean runs keep
    /// the historical byte-stable schema while fuzz/CI artifacts stay
    /// self-contained.
    ///
    /// [`World::debug_final_audit`]: crate::World::debug_final_audit
    pub audit: Vec<String>,
    /// Telemetry recorder of the run (gauge series + spans), present
    /// only when the run was started via
    /// [`Experiment::run_with_limits`] with a config. Never rendered
    /// in tables or the per-run JSON rows; the sweep-level exporters
    /// turn it into the metrics JSONL and Chrome-trace artifacts.
    ///
    /// [`Experiment::run_with_limits`]: crate::Experiment::run_with_limits
    pub telemetry: Option<Box<simkit::Telemetry>>,
}

impl RunResult {
    /// Job time in seconds, or NaN for DNF (plots well as a gap).
    pub fn job_secs(&self) -> f64 {
        self.job_time.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN)
    }
}

/// The per-task execution profile of Table II.
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    /// Avg Map Time (s).
    pub avg_map_time: f64,
    /// Avg Shuffle Time (s).
    pub avg_shuffle_time: f64,
    /// Avg Reduce Time (s).
    pub avg_reduce_time: f64,
    /// Avg # Killed Maps.
    pub killed_maps: u32,
    /// Avg # Killed Reduces.
    pub killed_reduces: u32,
}

impl fmt::Display for ExecutionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "map {:.1}s, shuffle {:.1}s, reduce {:.1}s, killed {}m/{}r",
            self.avg_map_time,
            self.avg_shuffle_time,
            self.avg_reduce_time,
            self.killed_maps,
            self.killed_reduces
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_time_requires_both_endpoints() {
        let mut m = RunMetrics::default();
        assert_eq!(m.job_time(), None);
        m.job_submitted = Some(SimTime::from_secs(1));
        assert_eq!(m.job_time(), None);
        m.job_finished = Some(SimTime::from_secs(100));
        assert_eq!(m.job_time(), Some(SimDuration::from_secs(99)));
    }

    #[test]
    fn dnf_formats_as_nan() {
        let r = RunResult {
            label: "x".into(),
            workload: "sort".into(),
            unavailability: 0.5,
            job_time: None,
            outcome: Outcome::Horizon,
            job: JobMetrics::default(),
            profile: ExecutionProfile::default(),
            fetch_failures: 0,
            events: 0,
            seed: 0,
            jobs: None,
            audit: Vec::new(),
            telemetry: None,
        };
        assert!(r.job_secs().is_nan());
    }

    #[test]
    fn slo_row_derivations() {
        let row = JobSlo {
            job: 3,
            workload: "quick".into(),
            submitted: SimTime::from_secs(100),
            first_launch: Some(SimTime::from_secs(160)),
            finished: Some(SimTime::from_secs(400)),
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: JobMetrics::default(),
        };
        assert_eq!(row.queue_delay_secs(), Some(60.0));
        assert_eq!(row.makespan_secs(), Some(300.0));
        assert_eq!(row.service_secs(), Some(240.0));
        assert!((row.bounded_slowdown().unwrap() - 300.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn slo_row_dnf_and_bound() {
        let mut row = JobSlo {
            job: 0,
            workload: "quick".into(),
            submitted: SimTime::from_secs(10),
            first_launch: None,
            finished: None,
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: JobMetrics::default(),
        };
        assert_eq!(row.queue_delay_secs(), None);
        assert_eq!(row.bounded_slowdown(), None);
        // A tiny job: slowdown is bounded, never exploding on short
        // service times, and never below 1.
        row.first_launch = Some(SimTime::from_secs(11));
        row.finished = Some(SimTime::from_secs(12));
        assert!((row.bounded_slowdown().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slo_bound_floor_divides_short_services() {
        // Service shorter than the 10 s floor: the *floor*, not the
        // measured service, divides the makespan — a 5 s job that
        // queued 45 s reports 50/10 = 5×, not 50/5 = 10×.
        let row = JobSlo {
            job: 1,
            workload: "quick".into(),
            submitted: SimTime::from_secs(0),
            first_launch: Some(SimTime::from_secs(45)),
            finished: Some(SimTime::from_secs(50)),
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: JobMetrics::default(),
        };
        assert_eq!(row.service_secs(), Some(5.0));
        assert!((row.bounded_slowdown().unwrap() - 5.0).abs() < 1e-12);
        // Exactly at the floor the two formulas agree.
        let at_floor = JobSlo {
            first_launch: Some(SimTime::from_secs(40)),
            ..row
        };
        assert_eq!(at_floor.service_secs(), Some(10.0));
        assert!((at_floor.bounded_slowdown().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn slo_launched_but_never_committed_is_dnf() {
        // A job that launched but never committed: queue delay is
        // known, every commit-derived metric is None — the run-level
        // aggregations must treat it as DNF, not zero.
        let row = JobSlo {
            job: 2,
            workload: "sort".into(),
            submitted: SimTime::from_secs(100),
            first_launch: Some(SimTime::from_secs(130)),
            finished: None,
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: JobMetrics::default(),
        };
        assert_eq!(row.queue_delay_secs(), Some(30.0));
        assert_eq!(row.makespan_secs(), None);
        assert_eq!(row.service_secs(), None);
        assert_eq!(row.bounded_slowdown(), None);
    }

    #[test]
    fn deadline_miss_semantics() {
        let mut row = JobSlo {
            job: 4,
            workload: "quick".into(),
            submitted: SimTime::from_secs(0),
            first_launch: Some(SimTime::from_secs(5)),
            finished: Some(SimTime::from_secs(90)),
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: JobMetrics::default(),
        };
        assert!(!row.deadline_missed(), "no deadline → never a miss");
        row.deadline = Some(SimTime::from_secs(90));
        assert!(!row.deadline_missed(), "finishing exactly on time is met");
        row.deadline = Some(SimTime::from_secs(89));
        assert!(row.deadline_missed());
        row.finished = None;
        assert!(row.deadline_missed(), "a deadline DNF is a miss");
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(Outcome::Completed.as_str(), "completed");
        assert_eq!(Outcome::Horizon.as_str(), "horizon");
        assert_eq!(Outcome::EventLimit.to_string(), "event_limit");
        assert_eq!(Outcome::Deadline.as_str(), "wall_deadline");
        assert_eq!(Outcome::Crashed.as_str(), "crashed");
        for o in [
            Outcome::Completed,
            Outcome::Horizon,
            Outcome::EventLimit,
            Outcome::Deadline,
            Outcome::Crashed,
        ] {
            assert_eq!(Outcome::from_name(o.as_str()), Some(o));
            assert_eq!(
                o.is_contained_failure(),
                !matches!(o, Outcome::Completed | Outcome::Horizon)
            );
        }
        assert_eq!(Outcome::from_name("nope"), None);
    }

    #[test]
    fn profile_display() {
        let p = ExecutionProfile {
            avg_map_time: 21.25,
            avg_shuffle_time: 1150.25,
            avg_reduce_time: 155.25,
            killed_maps: 1389,
            killed_reduces: 59,
        };
        let s = p.to_string();
        assert!(s.contains("21.2"));
        assert!(s.contains("1389m"));
    }
}
