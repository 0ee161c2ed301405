//! Identifiers and small shared types for the MapReduce engine.

use dfs::NodeId;
use std::fmt;

/// A submitted MapReduce job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Map or Reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// A map task (consumes an input split).
    Map,
    /// A reduce task (consumes one partition of every map's output).
    Reduce,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Map => write!(f, "m"),
            TaskKind::Reduce => write!(f, "r"),
        }
    }
}

/// One logical task of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// Owning job.
    pub job: JobId,
    /// Map or Reduce.
    pub kind: TaskKind,
    /// Index within its kind (map 0..M, reduce 0..R).
    pub index: u32,
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}{}", self.job, self.kind, self.index)
    }
}

/// One execution attempt of a task. Attempt numbers are dense per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttemptId {
    /// The logical task.
    pub task: TaskId,
    /// 0 for the original execution; >0 for speculative copies and
    /// re-executions.
    pub attempt: u32,
}

impl fmt::Display for AttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.task, self.attempt)
    }
}

/// Why an attempt was launched (metrics distinguish Figure 5's
/// "duplicated tasks" from first executions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchReason {
    /// First scheduling of the task.
    Original,
    /// Re-execution after the previous attempt was killed or failed.
    Retry,
    /// Speculative copy launched while another attempt was alive.
    Speculative,
    /// Copy launched by MOON's homestretch phase.
    Homestretch,
    /// Re-execution of a *completed* map whose output became unavailable
    /// (fetch failures).
    MapOutputLost,
}

impl LaunchReason {
    /// Does this launch count as a "duplicated task" in the paper's
    /// Figure 5? Everything except the first execution does.
    pub fn is_duplicate(self) -> bool {
        !matches!(self, LaunchReason::Original)
    }
}

/// A work order handed to a TaskTracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAssignment {
    /// The attempt to start.
    pub attempt: AttemptId,
    /// Node that will run it.
    pub node: NodeId,
    /// Why it was launched.
    pub reason: LaunchReason,
}

/// Lifecycle of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptState {
    /// Running on an active tracker.
    Running,
    /// Its tracker has been silent past the suspension interval; the
    /// attempt is *inactive* but not killed (MOON, §V-A).
    Inactive,
    /// Finished successfully.
    Succeeded,
    /// Killed (tracker death, superseded by a sibling, or invalidated).
    Killed,
    /// Failed with an error.
    Failed,
}

impl AttemptState {
    /// Is the attempt still occupying a slot (running or inactive)?
    pub fn is_live(self) -> bool {
        matches!(self, AttemptState::Running | AttemptState::Inactive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let t = TaskId {
            job: JobId(3),
            kind: TaskKind::Map,
            index: 17,
        };
        assert_eq!(t.to_string(), "job3/m17");
        let a = AttemptId {
            task: t,
            attempt: 2,
        };
        assert_eq!(a.to_string(), "job3/m17_2");
    }

    #[test]
    fn duplicate_classification() {
        assert!(!LaunchReason::Original.is_duplicate());
        assert!(LaunchReason::Retry.is_duplicate());
        assert!(LaunchReason::Speculative.is_duplicate());
        assert!(LaunchReason::Homestretch.is_duplicate());
        assert!(LaunchReason::MapOutputLost.is_duplicate());
    }

    #[test]
    fn liveness() {
        assert!(AttemptState::Running.is_live());
        assert!(AttemptState::Inactive.is_live());
        assert!(!AttemptState::Succeeded.is_live());
        assert!(!AttemptState::Killed.is_live());
        assert!(!AttemptState::Failed.is_live());
    }
}
