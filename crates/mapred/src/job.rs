//! Job specifications and per-task runtime state.

use crate::types::{AttemptId, AttemptState, JobId, LaunchReason, TaskId, TaskKind};
use dfs::NodeId;
use simkit::SimTime;

/// Static description of a job as submitted.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Number of map tasks (one per input split).
    pub n_maps: u32,
    /// Number of reduce tasks.
    pub n_reduces: u32,
    /// Replica locations of each map's input split at submit time
    /// (locality hints for the scheduler; length = `n_maps`, may be empty).
    pub map_input_locations: Vec<Vec<NodeId>>,
    /// Fraction of maps that must finish before reduces are scheduled
    /// (Hadoop's "slowstart"; default 0.05).
    pub reduce_slowstart: f64,
    /// A task failing this many times fails the whole job (Hadoop
    /// reschedules an incomplete map up to 4 times — paper footnote 1).
    pub max_task_failures: u32,
    /// Absolute completion deadline, for deadline-aware cross-job
    /// policies ([`crate::CrossJobPolicy::Edf`]) and deadline-miss
    /// reporting. `None` = no deadline.
    pub deadline: Option<SimTime>,
    /// Scheduling priority for [`crate::CrossJobPolicy::StrictPriority`]
    /// (higher wins; default 0).
    pub priority: i32,
    /// Owning tenant for [`crate::CrossJobPolicy::TenantFair`]
    /// (default tenant 0).
    pub tenant: u32,
}

impl JobSpec {
    /// A spec with the Hadoop defaults and no locality hints.
    pub fn new(n_maps: u32, n_reduces: u32) -> Self {
        JobSpec {
            n_maps,
            n_reduces,
            map_input_locations: Vec::new(),
            reduce_slowstart: 0.05,
            max_task_failures: 4,
            deadline: None,
            priority: 0,
            tenant: 0,
        }
    }

    /// Attach input locality hints (length must equal `n_maps`).
    pub fn with_locations(mut self, locations: Vec<Vec<NodeId>>) -> Self {
        assert!(locations.len() == self.n_maps as usize);
        self.map_input_locations = locations;
        self
    }

    /// Attach an absolute completion deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the strict-priority tier (higher wins).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Set the owning tenant id.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Terminal status of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Still has incomplete tasks.
    Running,
    /// Every task completed.
    Succeeded,
    /// A task exhausted its failure budget.
    Failed,
}

/// One attempt's bookkeeping inside the JobTracker.
#[derive(Debug, Clone)]
pub struct AttemptInfo {
    /// Attempt identity.
    pub id: AttemptId,
    /// Node it runs on.
    pub node: NodeId,
    /// Lifecycle state.
    pub state: AttemptState,
    /// Last reported progress score in [0, 1].
    pub progress: f64,
    /// Launch time.
    pub started: SimTime,
    /// Why it was launched.
    pub reason: LaunchReason,
}

/// Runtime state of one logical task.
#[derive(Debug, Clone)]
pub struct TaskState {
    /// Task identity.
    pub id: TaskId,
    /// All attempts ever launched, in launch order.
    pub attempts: Vec<AttemptInfo>,
    /// Completed successfully?
    pub completed: bool,
    /// The attempt that completed it.
    pub completed_by: Option<AttemptId>,
    /// Times this task's attempts *failed* (not kills); counts against
    /// `max_task_failures`.
    pub failures: u32,
    /// For completed maps: output later became unavailable and the task
    /// returned to the runnable pool.
    pub output_lost_count: u32,
}

impl TaskState {
    /// Fresh, never-scheduled task.
    pub fn new(id: TaskId) -> Self {
        TaskState {
            id,
            attempts: Vec::new(),
            completed: false,
            completed_by: None,
            failures: 0,
            output_lost_count: 0,
        }
    }

    /// Attempts still occupying slots (Running or Inactive).
    pub fn live_attempts(&self) -> impl Iterator<Item = &AttemptInfo> {
        self.attempts.iter().filter(|a| a.state.is_live())
    }

    /// Number of live attempts.
    pub fn n_live(&self) -> usize {
        self.live_attempts().count()
    }

    /// Number of attempts currently Running (active tracker).
    pub fn n_running(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.state == AttemptState::Running)
            .count()
    }

    /// A task is *frozen* when it has live attempts but none of them is
    /// active (every copy sits on a suspended tracker) — MOON §V-A. A
    /// never-scheduled task is not frozen (it is merely pending).
    pub fn is_frozen(&self) -> bool {
        !self.completed && self.n_live() > 0 && self.n_running() == 0
    }

    /// Best progress over live attempts (0 if none).
    pub fn best_progress(&self) -> f64 {
        self.live_attempts().map(|a| a.progress).fold(0.0, f64::max)
    }

    /// Needs a (re)launch: not completed and no live attempts.
    pub fn needs_launch(&self) -> bool {
        !self.completed && self.n_live() == 0
    }

    /// Live speculative copies (reason other than Original/Retry —
    /// i.e. launched while a sibling was alive).
    pub fn n_live_speculative(&self) -> usize {
        self.live_attempts()
            .filter(|a| {
                matches!(
                    a.reason,
                    LaunchReason::Speculative | LaunchReason::Homestretch
                )
            })
            .count()
    }

    /// Does any live attempt run on one of `nodes`?
    pub fn has_live_attempt_on<F: Fn(NodeId) -> bool>(&self, pred: F) -> bool {
        self.live_attempts().any(|a| pred(a.node))
    }

    /// Kind shorthand.
    pub fn kind(&self) -> TaskKind {
        self.id.kind
    }

    /// Job shorthand.
    pub fn job(&self) -> JobId {
        self.id.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid() -> TaskId {
        TaskId {
            job: JobId(0),
            kind: TaskKind::Map,
            index: 0,
        }
    }

    fn attempt(n: u32, state: AttemptState, progress: f64, reason: LaunchReason) -> AttemptInfo {
        AttemptInfo {
            id: AttemptId {
                task: tid(),
                attempt: n,
            },
            node: NodeId(n),
            state,
            progress,
            started: SimTime::ZERO,
            reason,
        }
    }

    #[test]
    fn fresh_task_needs_launch_and_is_not_frozen() {
        let t = TaskState::new(tid());
        assert!(t.needs_launch());
        assert!(!t.is_frozen());
        assert_eq!(t.best_progress(), 0.0);
    }

    #[test]
    fn frozen_detection() {
        let mut t = TaskState::new(tid());
        t.attempts.push(attempt(
            0,
            AttemptState::Inactive,
            0.6,
            LaunchReason::Original,
        ));
        assert!(t.is_frozen(), "all copies inactive → frozen");
        t.attempts.push(attempt(
            1,
            AttemptState::Running,
            0.1,
            LaunchReason::Speculative,
        ));
        assert!(!t.is_frozen(), "a running copy unfreezes the task");
        assert_eq!(t.n_live(), 2);
        assert_eq!(t.n_live_speculative(), 1);
        assert!((t.best_progress() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn killed_attempts_do_not_count() {
        let mut t = TaskState::new(tid());
        t.attempts.push(attempt(
            0,
            AttemptState::Killed,
            0.9,
            LaunchReason::Original,
        ));
        assert!(t.needs_launch());
        assert!(!t.is_frozen());
        assert_eq!(t.best_progress(), 0.0);
    }

    #[test]
    fn spec_defaults() {
        let s = JobSpec::new(384, 108);
        assert_eq!(s.n_maps, 384);
        assert!((s.reduce_slowstart - 0.05).abs() < 1e-12);
        assert_eq!(s.max_task_failures, 4);
        assert_eq!(s.deadline, None);
        assert_eq!(s.priority, 0);
        assert_eq!(s.tenant, 0);
        let s = s
            .with_deadline(SimTime::from_secs(90))
            .with_priority(3)
            .with_tenant(2);
        assert_eq!(s.deadline, Some(SimTime::from_secs(90)));
        assert_eq!(s.priority, 3);
        assert_eq!(s.tenant, 2);
    }
}
