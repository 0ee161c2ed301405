//! The JobTracker: task bookkeeping, tracker liveness, slot assignment,
//! speculative execution, and fetch-failure handling.
//!
//! Like the NameNode, this is a pure state machine: the embedding world
//! calls [`JobTracker::heartbeat`] when a TaskTracker reports in, feeds
//! back attempt outcomes, and periodically runs
//! [`JobTracker::check_trackers`]. All policy differences between stock
//! Hadoop, MOON, and MOON-Hybrid live here and in [`crate::policy`].

use crate::job::{AttemptInfo, JobSpec, JobStatus, TaskState};
use crate::policy::{
    CrossJobPolicy, FetchFailurePolicy, HadoopPolicy, MoonPolicy, SchedulerPolicy, StragglerRule,
};
use crate::types::{
    AttemptId, AttemptState, JobId, LaunchReason, TaskAssignment, TaskId, TaskKind,
};
use dfs::NodeId;
use simkit::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Liveness of a TaskTracker as seen by the JobTracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerState {
    /// Heartbeating normally.
    Alive,
    /// Silent past the suspension interval (MOON only).
    Suspended,
    /// Silent past the expiry interval; its attempts were killed.
    Dead,
}

#[derive(Debug)]
struct Tracker {
    dedicated: bool,
    map_slots: u32,
    reduce_slots: u32,
    last_heartbeat: SimTime,
    state: TrackerState,
    /// Live attempts assigned to this tracker.
    running: BTreeSet<AttemptId>,
    /// The embedding model stopped delivering this tracker's
    /// heartbeats (see [`JobTracker::sleep_tracker`]): it is out of
    /// `tracker_hb_order` and `last_heartbeat` is stale until
    /// [`JobTracker::wake_tracker`].
    asleep: bool,
}

/// Windowed fetch-failure reports for one map task. Reports arrive in
/// nondecreasing sim-time order, so expiring the window is a prefix
/// drop, and the distinct-reporter count is maintained incrementally
/// instead of re-sorting the report list on every report.
#[derive(Debug, Default)]
struct FetchReports {
    /// (reporting reduce, report time), time-ascending.
    reports: std::collections::VecDeque<(TaskId, SimTime)>,
    /// Reports-in-window per distinct reporting reduce.
    reporter_counts: BTreeMap<TaskId, u32>,
}

impl FetchReports {
    fn push(&mut self, reduce: TaskId, now: SimTime) {
        debug_assert!(
            self.reports.back().is_none_or(|&(_, t)| t <= now),
            "fetch-failure reports arrived out of order"
        );
        self.reports.push_back((reduce, now));
        *self.reporter_counts.entry(reduce).or_insert(0) += 1;
    }

    /// Drop reports before `cutoff` (a prefix, since times ascend).
    fn expire(&mut self, cutoff: SimTime) {
        while let Some(&(r, t)) = self.reports.front() {
            if t >= cutoff {
                break;
            }
            self.reports.pop_front();
            let c = self
                .reporter_counts
                .get_mut(&r)
                .expect("count tracks reports");
            *c -= 1;
            if *c == 0 {
                self.reporter_counts.remove(&r);
            }
        }
    }
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    tasks: BTreeMap<TaskId, TaskState>,
    status: JobStatus,
    completed_maps: u32,
    completed_reduces: u32,
    submitted: SimTime,
    finished: Option<SimTime>,
    /// When the job's first attempt launched (queueing-delay endpoint).
    first_launch: Option<SimTime>,
    /// Launch order: task → sequence number of first launch.
    first_launch_seq: BTreeMap<TaskId, u32>,
    next_launch_seq: u32,
    /// map task → fetch-failure reports as (reporting reduce, time).
    /// Reports expire so that disjoint outage episodes do not accumulate
    /// into a spurious re-execution.
    fetch_failures: BTreeMap<TaskId, FetchReports>,
    /// Live (Running or Inactive) attempts across the job's tasks,
    /// maintained incrementally at launch / kill / success / failure —
    /// the job's cluster share, ranked by fair-share ordering without
    /// an O(tasks) scan per slot grant.
    live_attempts: u32,
    /// Metrics.
    duplicated_launches: u32,
    killed_map_attempts: u32,
    killed_reduce_attempts: u32,
    killed_by_tracker_expiry: u32,
    map_output_relaunches: u32,
    /// Attempts of *this* job killed by cross-job preemption (subset of
    /// the killed counts, like `killed_by_tracker_expiry`).
    preempted_attempts: u32,
}

/// Per-job counters used by the paper's figures and Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobMetrics {
    /// Attempts launched beyond each task's first (Figure 5's
    /// "duplicated tasks").
    pub duplicated_tasks: u32,
    /// Map attempts killed (tracker death, sibling success, invalidation).
    pub killed_maps: u32,
    /// Reduce attempts killed.
    pub killed_reduces: u32,
    /// Attempts killed specifically by tracker expiry (subset of the
    /// killed counts; sibling-success kills are benign bookkeeping).
    pub killed_by_tracker_expiry: u32,
    /// Completed maps re-executed because their output became
    /// unavailable.
    pub map_output_relaunches: u32,
    /// Maps completed so far.
    pub completed_maps: u32,
    /// Reduces completed so far.
    pub completed_reduces: u32,
    /// Attempts killed by cross-job preemption (subset of the killed
    /// counts — the cost side of the preemption tradeoff).
    pub preempted: u32,
}

impl JobMetrics {
    /// Accumulate another job's counters (for whole-run aggregates
    /// across a multi-job stream; summing one job is the identity).
    pub fn accumulate(&mut self, other: &JobMetrics) {
        self.duplicated_tasks += other.duplicated_tasks;
        self.killed_maps += other.killed_maps;
        self.killed_reduces += other.killed_reduces;
        self.killed_by_tracker_expiry += other.killed_by_tracker_expiry;
        self.map_output_relaunches += other.map_output_relaunches;
        self.completed_maps += other.completed_maps;
        self.completed_reduces += other.completed_reduces;
        self.preempted += other.preempted;
    }
}

/// What a heartbeat returned: work to start and attempts to abort.
#[derive(Debug, Default, Clone)]
pub struct HeartbeatResponse {
    /// New attempts the tracker must start.
    pub assignments: Vec<TaskAssignment>,
    /// Attempts the tracker must abort (task finished elsewhere while the
    /// tracker was suspended).
    pub kill: Vec<AttemptId>,
}

/// Outcome of a liveness sweep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TrackerSweep {
    /// Trackers that just became suspended.
    pub suspended: Vec<NodeId>,
    /// Trackers that were just declared dead.
    pub expired: Vec<NodeId>,
    /// Attempts killed because their tracker died.
    pub killed: Vec<AttemptId>,
}

/// Result of reporting a task success.
#[derive(Debug, Default, Clone)]
pub struct SuccessResponse {
    /// Sibling attempts to abort.
    pub kill: Vec<AttemptId>,
    /// True if this completed the whole job.
    pub job_completed: bool,
}

/// The MapReduce master.
///
/// Hot-path state is indexed so per-event cost tracks *active* work,
/// not lifetime totals: `running_jobs` keeps the pickers off completed
/// jobs, the alive-slot counters make `available_slots` O(1), and the
/// heartbeat-ordered tracker index turns liveness sweeps into a prefix
/// scan of the silent trackers. Debug builds cross-check every index
/// against a from-scratch recomputation (see [`Self::audit_indexes`]).
///
/// A heartbeat that assigns nothing is nearly O(1): an empty pick for
/// an idle tracker is memoised per (tracker class, task kind) until the
/// next mutation or the next straggler coming of age (see
/// `pick_task_memoised`).
pub struct JobTracker {
    policy: SchedulerPolicy,
    fetch_policy: FetchFailurePolicy,
    cross_job: CrossJobPolicy,
    trackers: BTreeMap<NodeId, Tracker>,
    jobs: BTreeMap<JobId, Job>,
    next_job: u32,
    /// Jobs with status Running, ascending JobId (= submission order,
    /// so iterating it *is* the FIFO ranking). Maintained at submit /
    /// completion / failure.
    running_jobs: BTreeSet<JobId>,
    /// Map/reduce slot totals over Alive trackers, maintained on every
    /// liveness transition.
    alive_map_slots: u32,
    alive_reduce_slots: u32,
    /// Dedicated trackers (a registration-time property, state-blind —
    /// mirrors the set the MOON speculative picker used to rebuild).
    dedicated_trackers: BTreeSet<NodeId>,
    /// Non-dead, awake trackers keyed by last heartbeat, oldest first.
    /// A liveness sweep only visits the prefix that has been silent past
    /// the earliest transition deadline; dead trackers leave the index
    /// and re-enter on their revival heartbeat, sleeping ones on waking.
    tracker_hb_order: BTreeSet<(SimTime, NodeId)>,
    /// Fair-share ranking scratch, cleared and refilled per pick so
    /// the fair-share hot path is allocation-free like FIFO.
    fair_share_scratch: RefCell<Vec<(u32, JobId)>>,
    /// Ranking scratch for the keyed policies (EDF / strict-priority /
    /// tenant-fair), same refill discipline as `fair_share_scratch`.
    rank_scratch: RefCell<Vec<(u128, JobId)>>,
    /// Kill-and-requeue preemption: when on, a saturated tracker may
    /// reclaim an occupied slot for a more policy-deserving job.
    preempt: bool,
    /// Tenant weights for [`CrossJobPolicy::TenantFair`], indexed by
    /// tenant id (missing / zero entries count as weight 1).
    tenant_weights: Vec<u32>,
    /// Per-tenant minimum slot guarantees (missing entries = 0).
    tenant_min_slots: Vec<u32>,
    /// Lifetime preemption count across all jobs (gauge feed).
    total_preempted: u64,
    /// Mutation epoch: bumped by every entry point that can change what
    /// a pick returns, so a memoised pick holds while it is unchanged.
    epoch: u64,
    /// Idle-pick memo, one slot per [`Self::memo_slot`]: the epoch and
    /// `valid_until` time of the last empty pick for an idle tracker.
    idle_memo: [Option<(u64, SimTime)>; 4],
}

impl JobTracker {
    /// A JobTracker with the given scheduling and fetch-failure policies
    /// (cross-job ordering defaults to FIFO; see [`Self::with_cross_job`]).
    pub fn new(policy: SchedulerPolicy, fetch_policy: FetchFailurePolicy) -> Self {
        JobTracker {
            policy,
            fetch_policy,
            cross_job: CrossJobPolicy::default(),
            trackers: BTreeMap::new(),
            jobs: BTreeMap::new(),
            next_job: 0,
            running_jobs: BTreeSet::new(),
            alive_map_slots: 0,
            alive_reduce_slots: 0,
            dedicated_trackers: BTreeSet::new(),
            tracker_hb_order: BTreeSet::new(),
            fair_share_scratch: RefCell::new(Vec::new()),
            rank_scratch: RefCell::new(Vec::new()),
            preempt: false,
            tenant_weights: Vec::new(),
            tenant_min_slots: Vec::new(),
            total_preempted: 0,
            epoch: 0,
            idle_memo: [None; 4],
        }
    }

    /// Cross-check every incremental index against a from-scratch scan;
    /// each discrepancy becomes one line. Debug builds assert it is
    /// empty at each liveness sweep, and release-mode fuzzing runs it
    /// after every experiment (`World::debug_final_audit`), where a
    /// panic would abort the whole campaign instead of becoming a
    /// shrinkable finding.
    pub fn audit_indexes(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let running: BTreeSet<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.status == JobStatus::Running)
            .map(|(&id, _)| id)
            .collect();
        if self.running_jobs != running {
            issues.push(format!(
                "running-job index drifted: indexed {:?}, statuses say {:?}",
                self.running_jobs, running
            ));
        }
        let mut maps = 0u32;
        let mut reduces = 0u32;
        let mut hb_order: BTreeSet<(SimTime, NodeId)> = BTreeSet::new();
        let mut dedicated: BTreeSet<NodeId> = BTreeSet::new();
        for (&node, tr) in &self.trackers {
            if tr.state == TrackerState::Alive {
                maps += tr.map_slots;
                reduces += tr.reduce_slots;
            }
            if tr.asleep {
                if tr.state != TrackerState::Alive {
                    issues.push(format!("sleeping tracker {node:?} is {:?}", tr.state));
                }
                if !tr.running.is_empty() {
                    issues.push(format!(
                        "sleeping tracker {node:?} has {} running attempt(s)",
                        tr.running.len()
                    ));
                }
            } else if tr.state != TrackerState::Dead {
                hb_order.insert((tr.last_heartbeat, node));
            }
            if tr.dedicated {
                dedicated.insert(node);
            }
        }
        if self.alive_map_slots != maps {
            issues.push(format!(
                "alive map-slot counter drifted: counter {}, recount {maps}",
                self.alive_map_slots
            ));
        }
        if self.alive_reduce_slots != reduces {
            issues.push(format!(
                "alive reduce-slot counter drifted: counter {}, recount {reduces}",
                self.alive_reduce_slots
            ));
        }
        let mut indexed = self.tracker_hb_order.clone();
        indexed.retain(|(_, node)| {
            let asleep = self.trackers.get(node).is_some_and(|tr| tr.asleep);
            if asleep {
                issues.push(format!(
                    "sleeping tracker {node:?} is in the heartbeat-ordered index"
                ));
            }
            !asleep
        });
        if indexed != hb_order {
            issues.push("heartbeat-ordered tracker index drifted".into());
        }
        if self.dedicated_trackers != dedicated {
            issues.push("dedicated-tracker index drifted".into());
        }
        for (&jid, job) in &self.jobs {
            let live: u32 = job.tasks.values().map(|t| t.n_live() as u32).sum();
            if job.live_attempts != live {
                issues.push(format!(
                    "job {jid:?} live-attempt counter drifted: counter {}, recount {live}",
                    job.live_attempts
                ));
            }
        }
        issues
    }

    /// Set the cross-job ordering policy (FIFO vs max-min fair share).
    pub fn with_cross_job(mut self, cross_job: CrossJobPolicy) -> Self {
        self.cross_job = cross_job;
        self
    }

    /// Enable kill-and-requeue preemption: a heartbeat with no free
    /// slots may kill a running attempt of a policy-disfavored job to
    /// make room for a more deserving one, in the same scheduling round.
    pub fn with_preemption(mut self, preempt: bool) -> Self {
        self.preempt = preempt;
        self
    }

    /// Configure tenant weights and minimum-share guarantees for
    /// [`CrossJobPolicy::TenantFair`] (both indexed by tenant id;
    /// missing weights default to 1, missing minimums to 0).
    pub fn with_tenants(mut self, weights: Vec<u32>, min_slots: Vec<u32>) -> Self {
        self.tenant_weights = weights;
        self.tenant_min_slots = min_slots;
        self
    }

    /// Is kill-and-requeue preemption enabled?
    pub fn preemption(&self) -> bool {
        self.preempt
    }

    /// Lifetime count of attempts killed by preemption, across jobs.
    pub fn preempted_total(&self) -> u64 {
        self.total_preempted
    }

    /// The scheduling policy in force.
    pub fn policy(&self) -> &SchedulerPolicy {
        &self.policy
    }

    /// The cross-job ordering policy in force.
    pub fn cross_job(&self) -> CrossJobPolicy {
        self.cross_job
    }

    // ------------------------------------------------------------------
    // Trackers
    // ------------------------------------------------------------------

    /// Register a TaskTracker (`dedicated` marks MOON's dedicated nodes).
    pub fn register_tracker(
        &mut self,
        now: SimTime,
        node: NodeId,
        map_slots: u32,
        reduce_slots: u32,
        dedicated: bool,
    ) {
        self.epoch += 1;
        if let Some(old) = self.trackers.insert(
            node,
            Tracker {
                dedicated,
                map_slots,
                reduce_slots,
                last_heartbeat: now,
                state: TrackerState::Alive,
                running: BTreeSet::new(),
                asleep: false,
            },
        ) {
            // Re-registration: retire the old tracker's index entries.
            if old.state == TrackerState::Alive {
                self.alive_map_slots -= old.map_slots;
                self.alive_reduce_slots -= old.reduce_slots;
            }
            if old.state != TrackerState::Dead && !old.asleep {
                self.tracker_hb_order.remove(&(old.last_heartbeat, node));
            }
            self.dedicated_trackers.remove(&node);
        }
        self.alive_map_slots += map_slots;
        self.alive_reduce_slots += reduce_slots;
        if dedicated {
            self.dedicated_trackers.insert(node);
        }
        self.tracker_hb_order.insert((now, node));
    }

    /// Current tracker state.
    pub fn tracker_state(&self, node: NodeId) -> TrackerState {
        self.trackers[&node].state
    }

    /// Stop expecting heartbeats from an idle, Alive tracker: the
    /// embedding model delivers only those that could change something
    /// (see [`Self::idle_pick_until`]). The tracker leaves the
    /// heartbeat-ordered index, so liveness sweeps skip it, until
    /// [`Self::wake_tracker`].
    pub fn sleep_tracker(&mut self, node: NodeId) {
        let tr = self.trackers.get_mut(&node).expect("unknown tracker");
        debug_assert!(
            !tr.asleep && tr.state == TrackerState::Alive && tr.running.is_empty(),
            "only an awake, idle, Alive tracker may sleep"
        );
        tr.asleep = true;
        self.tracker_hb_order.remove(&(tr.last_heartbeat, node));
    }

    /// Expect a sleeping tracker's heartbeats again. `last_heartbeat` is
    /// the time of the last heartbeat it would have sent while asleep.
    pub fn wake_tracker(&mut self, node: NodeId, last_heartbeat: SimTime) {
        let tr = self.trackers.get_mut(&node).expect("unknown tracker");
        debug_assert!(tr.asleep, "waking a tracker that is not asleep");
        tr.asleep = false;
        tr.last_heartbeat = last_heartbeat;
        self.tracker_hb_order.insert((last_heartbeat, node));
    }

    /// Is the tracker asleep (see [`Self::sleep_tracker`])?
    pub fn tracker_asleep(&self, node: NodeId) -> bool {
        self.trackers[&node].asleep
    }

    /// How long an idle, Alive tracker of this class is known to get an
    /// empty heartbeat response. `Some(t)`: both idle-pick memo slots of
    /// the class hold an empty pick at the current epoch, so every such
    /// heartbeat before `t` hits them and changes nothing but the
    /// tracker's timestamp (`t` is `SimTime::MAX` when no straggler test
    /// is waiting on runtime). `None`: a slot is stale or unset, so the
    /// next such heartbeat must run the pickers.
    pub fn idle_pick_until(&self, dedicated: bool) -> Option<SimTime> {
        let mut until = SimTime::MAX;
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            match self.idle_memo[Self::memo_slot(dedicated, kind)] {
                Some((epoch, u)) if epoch == self.epoch => until = until.min(u),
                _ => return None,
            }
        }
        Some(until)
    }

    /// Sweep tracker liveness (call periodically). Suspends and expires
    /// silent trackers per the policy's intervals.
    pub fn check_trackers(&mut self, now: SimTime) -> TrackerSweep {
        #[cfg(any(test, debug_assertions))]
        {
            let drift = self.audit_indexes();
            assert!(
                drift.is_empty(),
                "JobTracker index drift:\n{}",
                drift.join("\n")
            );
        }
        let mut sweep = TrackerSweep::default();
        let suspension = self.policy.suspension_interval();
        let expiry = self.policy.tracker_expiry();
        // Only trackers silent past the earlier deadline can transition;
        // the heartbeat-ordered index yields exactly that prefix instead
        // of a full-table walk. Suspended trackers keep their stale key
        // and are revisited until they expire or heartbeat — bounded by
        // the silent population, not the fleet. Candidates are processed
        // in ascending node order to match the old walk exactly (sweep
        // vectors and kill ordering feed the deterministic event stream).
        let threshold = suspension.min(expiry);
        let mut nodes: Vec<NodeId> = self
            .tracker_hb_order
            .iter()
            .take_while(|&&(hb, _)| now.since(hb) >= threshold)
            .map(|&(_, node)| node)
            .collect();
        nodes.sort_unstable();
        for node in nodes {
            let tr = &self.trackers[&node];
            let silent = now.since(tr.last_heartbeat);
            match tr.state {
                TrackerState::Alive if silent >= expiry => {
                    sweep.killed.extend(self.expire_tracker(node));
                    sweep.expired.push(node);
                }
                TrackerState::Alive if silent >= suspension => {
                    self.suspend_tracker(node);
                    sweep.suspended.push(node);
                }
                TrackerState::Suspended if silent >= expiry => {
                    sweep.killed.extend(self.expire_tracker(node));
                    sweep.expired.push(node);
                }
                _ => {}
            }
        }
        if !(sweep.suspended.is_empty() && sweep.expired.is_empty()) {
            self.epoch += 1;
        }
        sweep
    }

    fn suspend_tracker(&mut self, node: NodeId) {
        let tr = self.trackers.get_mut(&node).unwrap();
        tr.state = TrackerState::Suspended;
        let (map_slots, reduce_slots) = (tr.map_slots, tr.reduce_slots);
        let attempts: Vec<AttemptId> = tr.running.iter().copied().collect();
        self.alive_map_slots -= map_slots;
        self.alive_reduce_slots -= reduce_slots;
        for a in attempts {
            if let Some(info) = self.attempt_mut(a) {
                if info.state == AttemptState::Running {
                    info.state = AttemptState::Inactive;
                }
            }
        }
    }

    fn expire_tracker(&mut self, node: NodeId) -> Vec<AttemptId> {
        let tr = self.trackers.get_mut(&node).unwrap();
        let was_alive = tr.state == TrackerState::Alive;
        tr.state = TrackerState::Dead;
        let (map_slots, reduce_slots) = (tr.map_slots, tr.reduce_slots);
        let hb_key = (tr.last_heartbeat, node);
        let attempts: Vec<AttemptId> = std::mem::take(&mut tr.running).into_iter().collect();
        if was_alive {
            self.alive_map_slots -= map_slots;
            self.alive_reduce_slots -= reduce_slots;
        }
        self.tracker_hb_order.remove(&hb_key);
        for &a in &attempts {
            self.kill_attempt(a);
            if let Some(job) = self.jobs.get_mut(&a.task.job) {
                job.killed_by_tracker_expiry += 1;
            }
        }
        attempts
    }

    fn kill_attempt(&mut self, id: AttemptId) {
        let kind = id.task.kind;
        let job = self.jobs.get_mut(&id.task.job).expect("unknown job");
        match kind {
            TaskKind::Map => job.killed_map_attempts += 1,
            TaskKind::Reduce => job.killed_reduce_attempts += 1,
        }
        let task = job.tasks.get_mut(&id.task).expect("unknown task");
        if let Some(info) = task.attempts.iter_mut().find(|a| a.id == id) {
            if info.state.is_live() {
                info.state = AttemptState::Killed;
                job.live_attempts -= 1;
            }
        }
    }

    fn attempt_mut(&mut self, id: AttemptId) -> Option<&mut AttemptInfo> {
        self.jobs
            .get_mut(&id.task.job)?
            .tasks
            .get_mut(&id.task)?
            .attempts
            .iter_mut()
            .find(|a| a.id == id)
    }

    fn attempt(&self, id: AttemptId) -> Option<&AttemptInfo> {
        self.jobs
            .get(&id.task.job)?
            .tasks
            .get(&id.task)?
            .attempts
            .iter()
            .find(|a| a.id == id)
    }

    // ------------------------------------------------------------------
    // Jobs
    // ------------------------------------------------------------------

    /// Submit a job; its tasks become schedulable immediately.
    pub fn submit_job(&mut self, now: SimTime, spec: JobSpec) -> JobId {
        self.epoch += 1;
        let id = JobId(self.next_job);
        self.next_job += 1;
        let mut tasks = BTreeMap::new();
        for i in 0..spec.n_maps {
            let t = TaskId {
                job: id,
                kind: TaskKind::Map,
                index: i,
            };
            tasks.insert(t, TaskState::new(t));
        }
        for i in 0..spec.n_reduces {
            let t = TaskId {
                job: id,
                kind: TaskKind::Reduce,
                index: i,
            };
            tasks.insert(t, TaskState::new(t));
        }
        self.jobs.insert(
            id,
            Job {
                spec,
                tasks,
                status: JobStatus::Running,
                completed_maps: 0,
                completed_reduces: 0,
                submitted: now,
                finished: None,
                first_launch: None,
                first_launch_seq: BTreeMap::new(),
                next_launch_seq: 0,
                fetch_failures: BTreeMap::new(),
                live_attempts: 0,
                duplicated_launches: 0,
                killed_map_attempts: 0,
                killed_reduce_attempts: 0,
                killed_by_tracker_expiry: 0,
                map_output_relaunches: 0,
                preempted_attempts: 0,
            },
        );
        self.running_jobs.insert(id);
        id
    }

    /// Job status.
    pub fn job_status(&self, job: JobId) -> JobStatus {
        self.jobs[&job].status
    }

    /// When the job was submitted.
    pub fn job_submitted(&self, job: JobId) -> SimTime {
        self.jobs[&job].submitted
    }

    /// When the job's first attempt launched (None while it still
    /// queues) — the endpoint of its queueing delay.
    pub fn job_first_launch(&self, job: JobId) -> Option<SimTime> {
        self.jobs[&job].first_launch
    }

    /// Jobs currently running (submitted, not yet succeeded/failed) —
    /// an instantaneous diagnostic; the perf-log gauges track peaks on
    /// the world side.
    pub fn active_job_count(&self) -> usize {
        self.running_jobs.len()
    }

    /// Jobs submitted whose first attempt has not launched yet — the
    /// instantaneous cross-job queue depth. O(running), not O(ever
    /// submitted).
    pub fn queued_job_count(&self) -> usize {
        self.running_jobs
            .iter()
            .filter(|jid| self.jobs[jid].first_launch.is_none())
            .count()
    }

    /// When the job finished (all tasks completed), if it has.
    pub fn job_finished(&self, job: JobId) -> Option<SimTime> {
        self.jobs[&job].finished
    }

    /// Snapshot of the job's counters.
    pub fn job_metrics(&self, job: JobId) -> JobMetrics {
        let j = &self.jobs[&job];
        JobMetrics {
            duplicated_tasks: j.duplicated_launches,
            killed_maps: j.killed_map_attempts,
            killed_reduces: j.killed_reduce_attempts,
            killed_by_tracker_expiry: j.killed_by_tracker_expiry,
            map_output_relaunches: j.map_output_relaunches,
            completed_maps: j.completed_maps,
            completed_reduces: j.completed_reduces,
            preempted: j.preempted_attempts,
        }
    }

    /// The job's spec as submitted (deadline / priority / tenant reads
    /// for the world's SLO rows).
    pub fn job_spec(&self, job: JobId) -> &JobSpec {
        &self.jobs[&job].spec
    }

    /// State of one task (for tests and the world model).
    pub fn task(&self, id: TaskId) -> &TaskState {
        &self.jobs[&id.task_job()].tasks[&id]
    }

    // ------------------------------------------------------------------
    // Heartbeats & assignment
    // ------------------------------------------------------------------

    /// Process a TaskTracker heartbeat: revive it if needed, then hand it
    /// work for its free slots.
    pub fn heartbeat(&mut self, now: SimTime, node: NodeId) -> HeartbeatResponse {
        let mut resp = HeartbeatResponse::default();
        let (old_hb, old_state, map_slots, reduce_slots) = {
            let tr = self.trackers.get_mut(&node).expect("unknown tracker");
            debug_assert!(!tr.asleep, "heartbeat from a sleeping tracker");
            let prior = (tr.last_heartbeat, tr.state, tr.map_slots, tr.reduce_slots);
            tr.last_heartbeat = now;
            tr.state = TrackerState::Alive;
            prior
        };
        // Dead trackers left the heartbeat index at expiry; everyone
        // else moves from their stale key to (now, node).
        if old_state != TrackerState::Dead {
            self.tracker_hb_order.remove(&(old_hb, node));
        }
        self.tracker_hb_order.insert((now, node));
        if old_state != TrackerState::Alive {
            self.epoch += 1;
        }
        match old_state {
            TrackerState::Alive => {}
            TrackerState::Suspended => {
                self.alive_map_slots += map_slots;
                self.alive_reduce_slots += reduce_slots;
                let attempts: Vec<AttemptId> =
                    self.trackers[&node].running.iter().copied().collect();
                for a in attempts {
                    // Reactivate attempts unless the task finished (or
                    // the attempt was individually killed) meanwhile.
                    let completed = self.jobs[&a.task.job].tasks[&a.task].completed;
                    if completed {
                        self.release_attempt(a);
                        self.kill_attempt(a);
                        resp.kill.push(a);
                    } else if let Some(info) = self.attempt_mut(a) {
                        if info.state == AttemptState::Inactive {
                            info.state = AttemptState::Running;
                        }
                    }
                }
            }
            TrackerState::Dead => {
                // Re-registration after expiry; attempts were killed.
                self.alive_map_slots += map_slots;
                self.alive_reduce_slots += reduce_slots;
            }
        }

        // Assignment loop: fill map slots then reduce slots. With
        // preemption on, a saturated tracker may first reclaim an
        // occupied slot (kill lands in `resp.kill`, handled by the
        // world *before* the assignments) and the freed slot is granted
        // by the next iteration — same scheduling round, so preemption
        // is work-conserving by construction.
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            loop {
                if self.free_slots(node, kind) == 0 {
                    if self.preempt && self.try_preempt(node, kind, &mut resp.kill) {
                        continue;
                    }
                    break;
                }
                match self.pick_task_memoised(now, node, kind) {
                    Some((task, reason)) => {
                        let a = self.launch(now, task, node, reason);
                        resp.assignments.push(a);
                    }
                    None => break,
                }
            }
        }
        resp
    }

    fn free_slots(&self, node: NodeId, kind: TaskKind) -> u32 {
        let tr = &self.trackers[&node];
        let cap = match kind {
            TaskKind::Map => tr.map_slots,
            TaskKind::Reduce => tr.reduce_slots,
        };
        let used = tr.running.iter().filter(|a| a.task.kind == kind).count() as u32;
        cap.saturating_sub(used)
    }

    fn launch(
        &mut self,
        now: SimTime,
        task: TaskId,
        node: NodeId,
        reason: LaunchReason,
    ) -> TaskAssignment {
        self.epoch += 1;
        let job = self.jobs.get_mut(&task.job).unwrap();
        let state = job.tasks.get_mut(&task).unwrap();
        let attempt_no = state.attempts.len() as u32;
        let id = AttemptId {
            task,
            attempt: attempt_no,
        };
        state.attempts.push(AttemptInfo {
            id,
            node,
            state: AttemptState::Running,
            progress: 0.0,
            started: now,
            reason,
        });
        job.first_launch.get_or_insert(now);
        job.live_attempts += 1;
        job.first_launch_seq.entry(task).or_insert_with(|| {
            let s = job.next_launch_seq;
            job.next_launch_seq += 1;
            s
        });
        if reason.is_duplicate() {
            job.duplicated_launches += 1;
        }
        self.trackers.get_mut(&node).unwrap().running.insert(id);
        TaskAssignment {
            attempt: id,
            node,
            reason,
        }
    }

    /// Remove the attempt from its tracker's running set.
    fn release_attempt(&mut self, id: AttemptId) {
        if let Some(info) = self.attempt(id) {
            let node = info.node;
            if let Some(tr) = self.trackers.get_mut(&node) {
                tr.running.remove(&id);
            }
        }
    }

    /// The idle-pick memo slot of a tracker class and task kind.
    fn memo_slot(dedicated: bool, kind: TaskKind) -> usize {
        2 * usize::from(dedicated) + usize::from(kind == TaskKind::Reduce)
    }

    /// [`Self::pick_task`] behind the idle-pick memo. An empty pick for
    /// an idle tracker (no running attempts) is the same for every idle
    /// tracker of its class: locality only ranks candidates, and an idle
    /// node has no live attempt for `has_live_attempt_on` to see. So it
    /// is stored per (class, kind) and reused while the epoch is
    /// unchanged and `now` is before the earliest moment a straggler
    /// test that failed would pass. Test and debug builds re-run the
    /// full pick on every hit and assert that it is still empty.
    fn pick_task_memoised(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        let mut valid_until = SimTime::MAX;
        let tr = &self.trackers[&node];
        if !tr.running.is_empty() {
            return self.pick_task(now, node, kind, &mut valid_until);
        }
        let slot = Self::memo_slot(tr.dedicated, kind);
        if let Some((epoch, until)) = self.idle_memo[slot] {
            if epoch == self.epoch && now < until {
                #[cfg(any(test, debug_assertions))]
                assert!(
                    self.pick_task(now, node, kind, &mut valid_until).is_none(),
                    "idle-pick memo hit for {node:?} ({kind:?}) at {now}, but a full pick assigns"
                );
                return None;
            }
        }
        let pick = self.pick_task(now, node, kind, &mut valid_until);
        if pick.is_none() {
            self.idle_memo[slot] = Some((self.epoch, valid_until));
        }
        pick
    }

    /// Choose the next task of `kind` for `node`, with the launch reason.
    /// A straggler test that fails only for lack of runtime lowers
    /// `valid_until` to the moment it would pass.
    fn pick_task(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        valid_until: &mut SimTime,
    ) -> Option<(TaskId, LaunchReason)> {
        let dedicated = self.trackers[&node].dedicated;
        // MOON treats dedicated nodes as data servers; only the hybrid
        // variant runs (speculative) tasks there (§V-C).
        if dedicated && !self.policy.dedicated_runs_originals() {
            if !self.policy.hybrid() {
                return None;
            }
            return self.pick_speculative(now, node, kind, valid_until);
        }
        // 1. Fresh launches and retries.
        if let Some(pick) = self.pick_pending(node, kind) {
            return Some(pick);
        }
        // 2. Speculation.
        self.pick_speculative(now, node, kind, valid_until)
    }

    /// Drive `f` over running jobs in cross-job policy order, stopping
    /// at the first `Some`. FIFO walks ascending JobId (= submission
    /// order) straight off the map — allocation-free, so the single-job
    /// hot path is untouched; fair share sorts runnable jobs by live
    /// attempt count (fewest first, JobId tie-break).
    fn pick_across_jobs<T>(&self, mut f: impl FnMut(JobId, &Job) -> Option<T>) -> Option<T> {
        match self.cross_job {
            CrossJobPolicy::Fifo => {
                for &jid in &self.running_jobs {
                    if let Some(x) = f(jid, &self.jobs[&jid]) {
                        return Some(x);
                    }
                }
                None
            }
            CrossJobPolicy::FairShare | CrossJobPolicy::FairShareInverted => {
                // The ranking Vec is owned by the tracker and refilled
                // per pick (clear, don't drop), so steady-state picks
                // allocate nothing. Taken out of the cell for the
                // duration so `f` can never observe a held borrow.
                let mut order = self.fair_share_scratch.take();
                order.clear();
                order.extend(
                    self.running_jobs
                        .iter()
                        .map(|&jid| (self.jobs[&jid].live_attempts, jid)),
                );
                order.sort_unstable();
                if self.cross_job == CrossJobPolicy::FairShareInverted {
                    // Fault injection: most live attempts first, latest
                    // submission among ties — starves the queue tail so
                    // the fuzzer's tail-latency oracle has a known bug
                    // to catch.
                    order.reverse();
                }
                let mut found = None;
                for &(_, jid) in order.iter() {
                    if let Some(x) = f(jid, &self.jobs[&jid]) {
                        found = Some(x);
                        break;
                    }
                }
                self.fair_share_scratch.replace(order);
                found
            }
            CrossJobPolicy::Edf | CrossJobPolicy::StrictPriority | CrossJobPolicy::TenantFair => {
                // Keyed ranking: one u128 per job (lower = more
                // deserving), JobId tie-break in the tuple. Same
                // owned-scratch discipline as the fair-share path.
                let tenant_live = (self.cross_job == CrossJobPolicy::TenantFair)
                    .then(|| self.tenant_live_counts());
                let mut order = self.rank_scratch.take();
                order.clear();
                order.extend(
                    self.running_jobs
                        .iter()
                        .map(|&jid| (self.rank_key(&self.jobs[&jid], tenant_live.as_ref()), jid)),
                );
                order.sort_unstable();
                let mut found = None;
                for &(_, jid) in order.iter() {
                    if let Some(x) = f(jid, &self.jobs[&jid]) {
                        found = Some(x);
                        break;
                    }
                }
                self.rank_scratch.replace(order);
                found
            }
        }
    }

    /// Live attempts per tenant over running jobs — the shares the
    /// tenant-fair ranking and preemption guards compare. O(running
    /// jobs) per call; no maintained index to drift.
    fn tenant_live_counts(&self) -> BTreeMap<u32, u64> {
        let mut live = BTreeMap::new();
        for &jid in &self.running_jobs {
            let j = &self.jobs[&jid];
            *live.entry(j.spec.tenant).or_insert(0u64) += u64::from(j.live_attempts);
        }
        live
    }

    fn tenant_weight(&self, tenant: u32) -> u64 {
        u64::from(
            self.tenant_weights
                .get(tenant as usize)
                .copied()
                .unwrap_or(1)
                .max(1),
        )
    }

    fn tenant_min(&self, tenant: u32) -> u64 {
        u64::from(
            self.tenant_min_slots
                .get(tenant as usize)
                .copied()
                .unwrap_or(0),
        )
    }

    /// One job's scheduling rank under the keyed cross-job policies
    /// (lower = scheduled sooner; preemption kills the *highest*-ranked
    /// slot holder). `tenant_live` is precomputed for picks and `None`
    /// for one-off victim ranking.
    ///
    /// - EDF: the absolute deadline in microseconds; deadline-less jobs
    ///   rank at `u128::MAX`, so an all-`None` stream degenerates to
    ///   FIFO via the JobId tie-break.
    /// - Strict priority: `i32::MAX - priority` (higher priority ⇒
    ///   smaller key), never negative.
    /// - Tenant-fair: `class · 2^120 | weighted_share · 2^40 |
    ///   job_live` — tenants below their minimum share first, then
    ///   ascending `tenant_live/weight`, then max-min within a tenant.
    /// - FIFO / fair share: submission order and live-attempt count
    ///   (victim-ranking only; their pick paths don't use keys).
    fn rank_key(&self, job: &Job, tenant_live: Option<&BTreeMap<u32, u64>>) -> u128 {
        match self.cross_job {
            CrossJobPolicy::Fifo | CrossJobPolicy::FairShareInverted => 0,
            CrossJobPolicy::FairShare => u128::from(job.live_attempts),
            CrossJobPolicy::Edf => job
                .spec
                .deadline
                .map_or(u128::MAX, |d| u128::from(d.as_micros())),
            CrossJobPolicy::StrictPriority => {
                (i64::from(i32::MAX) - i64::from(job.spec.priority)) as u128
            }
            CrossJobPolicy::TenantFair => {
                let tenant = job.spec.tenant;
                let owned;
                let live = match tenant_live {
                    Some(m) => m,
                    None => {
                        owned = self.tenant_live_counts();
                        &owned
                    }
                };
                let t_live = live.get(&tenant).copied().unwrap_or(0);
                let class: u128 = u128::from(t_live >= self.tenant_min(tenant));
                // < 2^52: live attempts are bounded by cluster slots.
                let share = u128::from(t_live * 1_000_000 / self.tenant_weight(tenant));
                (class << 120) | (share << 40) | u128::from(job.live_attempts)
            }
        }
    }

    /// May a pending task of `challenger` kill a running attempt of
    /// `victim`? Each guard is strict enough that a preemption strictly
    /// improves a policy potential, so kill/relaunch ping-pong cannot
    /// occur within or across scheduling rounds:
    ///
    /// - FIFO: earlier submission only.
    /// - Fair share: only while the gap stays ≥ 2 (`ch + 1 < victim`) —
    ///   after the transfer the loser still has at least as many slots.
    /// - EDF / strict priority: strictly earlier deadline / strictly
    ///   higher priority (static total orders).
    /// - Tenant-fair: within a tenant, the fair-share rule; across
    ///   tenants, only when the victim's tenant stays at or above its
    ///   minimum share *and* either the challenger's tenant is below
    ///   its own minimum or the weighted shares strictly rebalance
    ///   (`(ch_live+1)·w_v ≤ (v_live−1)·w_c`).
    /// - Inverted fair share never preempts (fault-injection variant).
    fn may_preempt(&self, challenger: JobId, victim: JobId) -> bool {
        let ch = &self.jobs[&challenger];
        let vi = &self.jobs[&victim];
        match self.cross_job {
            CrossJobPolicy::Fifo => challenger < victim,
            CrossJobPolicy::FairShare => ch.live_attempts + 1 < vi.live_attempts,
            CrossJobPolicy::FairShareInverted => false,
            CrossJobPolicy::Edf => match (ch.spec.deadline, vi.spec.deadline) {
                (Some(c), Some(v)) => c < v,
                (Some(_), None) => true,
                (None, _) => false,
            },
            CrossJobPolicy::StrictPriority => ch.spec.priority > vi.spec.priority,
            CrossJobPolicy::TenantFair => {
                let (ct, vt) = (ch.spec.tenant, vi.spec.tenant);
                if ct == vt {
                    return ch.live_attempts + 1 < vi.live_attempts;
                }
                let live = self.tenant_live_counts();
                let cl = live.get(&ct).copied().unwrap_or(0);
                let vl = live.get(&vt).copied().unwrap_or(0);
                if vl <= self.tenant_min(vt) {
                    return false; // never push a tenant below its floor
                }
                cl < self.tenant_min(ct)
                    || (cl + 1) * self.tenant_weight(vt) <= (vl - 1) * self.tenant_weight(ct)
            }
        }
    }

    /// Kill-and-requeue one occupied `kind` slot on `node`, if some
    /// pending job deserves it more than a current occupant. The victim
    /// attempt is killed through the normal attempt-kill path (its task
    /// re-enters the pending pool via `needs_launch`) and pushed onto
    /// `kill` for the world to tear down physically. Returns whether a
    /// slot was reclaimed; the caller grants it in the same round.
    fn try_preempt(&mut self, node: NodeId, kind: TaskKind, kill: &mut Vec<AttemptId>) -> bool {
        // Dedicated nodes under MOON-style policies run speculative
        // copies only (§V-C); reclaiming a slot there would grant it to
        // an original, which those nodes never run.
        if self.trackers[&node].dedicated && !self.policy.dedicated_runs_originals() {
            return false;
        }
        // Challenger: the first job in policy order with a pending
        // launchable task of this kind — exactly the pick the freed
        // slot will serve, so a successful preemption always re-grants.
        let Some(challenger) = self
            .pick_across_jobs(|jid, job| self.pick_pending_in(jid, job, node, kind).map(|_| jid))
        else {
            return false;
        };
        // Victim: among this tracker's running attempts of `kind`, the
        // one owned by the most policy-disfavored job the challenger may
        // preempt — preferring speculative copies, then the youngest
        // attempt, so the least progress is discarded.
        let mut victim: Option<(u128, JobId, bool, AttemptId)> = None;
        let tr = &self.trackers[&node];
        for &aid in tr.running.iter().filter(|a| a.task.kind == kind) {
            let vjid = aid.task.job;
            if vjid == challenger || !self.may_preempt(challenger, vjid) {
                continue;
            }
            let key = self.rank_key(&self.jobs[&vjid], None);
            let speculative = self.attempt(aid).is_some_and(|a| a.reason.is_duplicate());
            let cand = (key, vjid, speculative, aid);
            if victim.is_none_or(|v| cand > v) {
                victim = Some(cand);
            }
        }
        let Some((_, vjid, _, aid)) = victim else {
            return false;
        };
        self.epoch += 1;
        self.release_attempt(aid);
        self.kill_attempt(aid);
        let job = self.jobs.get_mut(&vjid).expect("victim job exists");
        job.preempted_attempts += 1;
        self.total_preempted += 1;
        kill.push(aid);
        true
    }

    /// Non-running tasks: retries first (Hadoop prioritises recently
    /// failed tasks), then unscheduled tasks — maps preferring input
    /// locality to the requesting node. Jobs are visited in cross-job
    /// policy order; the first job with any candidate wins.
    fn pick_pending(&self, node: NodeId, kind: TaskKind) -> Option<(TaskId, LaunchReason)> {
        self.pick_across_jobs(|jid, job| self.pick_pending_in(jid, job, node, kind))
    }

    /// The per-job half of [`Self::pick_pending`]: best pending task of
    /// `kind` in one job, by (class, index).
    fn pick_pending_in(
        &self,
        jid: JobId,
        job: &Job,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        if kind == TaskKind::Reduce {
            let gate = (job.spec.reduce_slowstart * job.spec.n_maps as f64).ceil() as u32;
            if job.completed_maps < gate.min(job.spec.n_maps) {
                return None;
            }
        }
        let mut best: Option<(u8, u32, TaskId)> = None; // (class, order, task)
        for (tid, task) in job.tasks.range(Self::kind_range(jid, kind)) {
            if !task.needs_launch() {
                continue;
            }
            let retried = !task.attempts.is_empty() || task.output_lost_count > 0;
            let local = kind == TaskKind::Map
                && job
                    .spec
                    .map_input_locations
                    .get(tid.index as usize)
                    .is_some_and(|locs| locs.contains(&node));
            // Lower class = higher priority: 0 retry, 1 local fresh,
            // 2 any fresh.
            let class = if retried {
                0
            } else if local {
                1
            } else {
                2
            };
            let order = tid.index;
            let cand = (class, order, *tid);
            if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
        best.map(|(class, _, tid)| {
            let reason = if class == 0 {
                // Distinguish retry-after-kill from lost-output relaunch.
                let t = &job.tasks[&tid];
                if t.output_lost_count > 0
                    && t.attempts
                        .iter()
                        .any(|a| a.state == AttemptState::Succeeded)
                {
                    LaunchReason::MapOutputLost
                } else if t.attempts.is_empty() {
                    LaunchReason::Original
                } else {
                    LaunchReason::Retry
                }
            } else {
                LaunchReason::Original
            };
            (tid, reason)
        })
    }

    /// Range covering every task of `kind` in `job` (TaskId orders by
    /// (job, kind, index), so one kind is a contiguous key range).
    fn kind_range(jid: JobId, kind: TaskKind) -> std::ops::RangeInclusive<TaskId> {
        TaskId {
            job: jid,
            kind,
            index: 0,
        }..=TaskId {
            job: jid,
            kind,
            index: u32::MAX,
        }
    }

    /// Slots of `kind` across Alive trackers (the paper's "currently
    /// available execution slots"). O(1): the counters are maintained
    /// on liveness transitions and recounted by [`Self::audit_indexes`].
    fn available_slots(&self, kind: Option<TaskKind>) -> u32 {
        match kind {
            Some(TaskKind::Map) => self.alive_map_slots,
            Some(TaskKind::Reduce) => self.alive_reduce_slots,
            None => self.alive_map_slots + self.alive_reduce_slots,
        }
    }

    fn live_speculative(&self, job: &Job) -> u32 {
        job.tasks
            .values()
            .map(|t| t.n_live_speculative() as u32)
            .sum()
    }

    /// Mean best-progress over scheduled tasks of `kind` (completed
    /// count as 1.0) — the baseline for the Hadoop straggler rule.
    fn avg_progress(&self, jid: JobId, job: &Job, kind: TaskKind) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for (_, t) in job.tasks.range(Self::kind_range(jid, kind)) {
            if t.completed {
                sum += 1.0;
                n += 1;
            } else if t.n_live() > 0 {
                sum += t.best_progress();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// MOON's homestretch trigger for `kind` in one job: fewer remaining
    /// tasks than `H%` of the available slots (§V-B).
    fn homestretch_on(&self, jid: JobId, job: &Job, kind: TaskKind, p: &MoonPolicy) -> bool {
        let remaining = job
            .tasks
            .range(Self::kind_range(jid, kind))
            .filter(|(_, t)| !t.completed)
            .count() as u32;
        (remaining as f64)
            < (p.homestretch_h_percent / 100.0) * self.available_slots(Some(kind)) as f64
    }

    /// Has the task's oldest live attempt run for the straggler rule's
    /// minimum runtime? This is the only time-dependent test in either
    /// speculative picker, so a failure lowers `valid_until` to the
    /// moment it would pass.
    fn ran_long_enough(
        task: &TaskState,
        now: SimTime,
        rule: &StragglerRule,
        valid_until: &mut SimTime,
    ) -> bool {
        let oldest_start = task.live_attempts().map(|a| a.started).min().unwrap_or(now);
        if now.since(oldest_start) >= rule.min_runtime {
            return true;
        }
        *valid_until = (*valid_until).min(oldest_start.saturating_add(rule.min_runtime));
        false
    }

    fn pick_speculative(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        valid_until: &mut SimTime,
    ) -> Option<(TaskId, LaunchReason)> {
        match &self.policy {
            SchedulerPolicy::Hadoop(p) => {
                self.pick_speculative_hadoop(now, node, kind, p, valid_until)
            }
            SchedulerPolicy::Moon(p) => self.pick_speculative_moon(now, node, kind, p, valid_until),
        }
    }

    /// Per-job aggregates (`avg_progress`, the homestretch trigger, the
    /// speculative cap) are computed only once a task has passed the
    /// cheaper filters that make them matter, so a walk that ends empty
    /// — nearly every idle heartbeat — mostly skips them.
    fn pick_speculative_hadoop(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        p: &HadoopPolicy,
        valid_until: &mut SimTime,
    ) -> Option<(TaskId, LaunchReason)> {
        self.pick_across_jobs(|jid, job| {
            let mut avg = None;
            let mut best: Option<(bool, u32, TaskId)> = None; // (non_local, seq, id)
            for (tid, task) in job.tasks.range(Self::kind_range(jid, kind)) {
                if task.completed || task.n_live() == 0 {
                    continue;
                }
                if task.n_live_speculative() as u32 >= p.max_speculative_per_task {
                    continue;
                }
                if task.has_live_attempt_on(|n| n == node) {
                    continue;
                }
                // Straggler test on the best live attempt.
                if !Self::ran_long_enough(task, now, &p.straggler, valid_until) {
                    continue;
                }
                let avg = *avg.get_or_insert_with(|| self.avg_progress(jid, job, kind));
                if task.best_progress() >= avg - p.straggler.gap {
                    continue;
                }
                let local = kind == TaskKind::Map
                    && job
                        .spec
                        .map_input_locations
                        .get(tid.index as usize)
                        .is_some_and(|locs| locs.contains(&node));
                let seq = job.first_launch_seq.get(tid).copied().unwrap_or(u32::MAX);
                let cand = (!local, seq, *tid);
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
            best.map(|(_, _, tid)| (tid, LaunchReason::Speculative))
        })
    }

    fn pick_speculative_moon(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        p: &MoonPolicy,
        valid_until: &mut SimTime,
    ) -> Option<(TaskId, LaunchReason)> {
        // Maintained at registration — no per-pick rebuild.
        let dedicated_nodes = &self.dedicated_trackers;
        let has_dedicated_copy =
            |task: &TaskState| task.has_live_attempt_on(|n| dedicated_nodes.contains(&n));
        self.pick_across_jobs(|jid, job| {
            let mut avg = None;
            let mut homestretch_on = None;
            // Each list keeps only its first entry in sort order.
            // 1. Frozen list: all copies inactive; exempt from the
            //    per-task cap; lowest progress first (§V-A).
            let mut frozen: Option<(u64, TaskId)> = None;
            // 2. Slow list: Hadoop straggler criteria.
            let mut slow: Option<(u64, TaskId)> = None;
            // 3. Homestretch: remaining tasks short of R active copies.
            let mut homestretch: Option<(u32, u64, TaskId)> = None;

            for (tid, task) in job.tasks.range(Self::kind_range(jid, kind)) {
                if task.completed || task.n_live() == 0 {
                    continue;
                }
                if task.has_live_attempt_on(|n| n == node) {
                    continue;
                }
                // Tasks already backed by a dedicated copy have reliable
                // backup; skip them for further replication (§V-C).
                if p.hybrid && has_dedicated_copy(task) {
                    continue;
                }
                let progress_key = (task.best_progress() * 1e9) as u64;
                if task.is_frozen() {
                    let cand = (progress_key, *tid);
                    frozen = Some(frozen.map_or(cand, |f| f.min(cand)));
                    continue;
                }
                if (task.n_live_speculative() as u32) < p.max_speculative_per_task
                    && Self::ran_long_enough(task, now, &p.straggler, valid_until)
                {
                    let avg = *avg.get_or_insert_with(|| self.avg_progress(jid, job, kind));
                    if task.best_progress() < avg - p.straggler.gap {
                        let cand = (progress_key, *tid);
                        slow = Some(slow.map_or(cand, |s| s.min(cand)));
                    }
                }
                // Dedicated nodes also take homestretch copies; volatile
                // nodes do too — the phase just guarantees R active copies.
                let running = task.n_running() as u32;
                if running < p.homestretch_r
                    && *homestretch_on.get_or_insert_with(|| self.homestretch_on(jid, job, kind, p))
                {
                    let cand = (running, progress_key, *tid);
                    homestretch = Some(homestretch.map_or(cand, |h| h.min(cand)));
                }
            }
            let pick = frozen
                .map(|(_, tid)| (tid, LaunchReason::Speculative))
                .or(slow.map(|(_, tid)| (tid, LaunchReason::Speculative)))
                .or(homestretch.map(|(_, _, tid)| (tid, LaunchReason::Homestretch)))?;
            // Global cap on concurrent speculative instances (§V-A).
            let cap =
                (p.speculative_slot_fraction * self.available_slots(None) as f64).floor() as u32;
            (self.live_speculative(job) < cap.max(1)).then_some(pick)
        })
    }

    // ------------------------------------------------------------------
    // Attempt outcomes
    // ------------------------------------------------------------------

    /// Record a progress report for an attempt. Only a report that
    /// changes the stored value bumps the epoch, so steady reports keep
    /// the idle-pick memo valid.
    pub fn report_progress(&mut self, attempt: AttemptId, progress: f64) {
        let progress = progress.clamp(0.0, 1.0);
        if let Some(info) = self.attempt_mut(attempt) {
            if info.state.is_live() && info.progress.to_bits() != progress.to_bits() {
                info.progress = progress;
                self.epoch += 1;
            }
        }
    }

    /// An attempt finished successfully.
    pub fn attempt_succeeded(&mut self, now: SimTime, attempt: AttemptId) -> SuccessResponse {
        self.epoch += 1;
        let mut resp = SuccessResponse::default();
        let task_id = attempt.task;
        self.release_attempt(attempt);
        let job = self.jobs.get_mut(&task_id.job).expect("unknown job");
        let task = job.tasks.get_mut(&task_id).expect("unknown task");
        if task.completed {
            // A sibling already finished; treat this as a benign kill.
            if let Some(info) = task.attempts.iter_mut().find(|a| a.id == attempt) {
                if info.state.is_live() {
                    info.state = AttemptState::Killed;
                    job.live_attempts -= 1;
                }
            }
            return resp;
        }
        if let Some(info) = task.attempts.iter_mut().find(|a| a.id == attempt) {
            if info.state.is_live() {
                job.live_attempts -= 1;
            }
            info.state = AttemptState::Succeeded;
            info.progress = 1.0;
        }
        task.completed = true;
        task.completed_by = Some(attempt);
        let siblings: Vec<AttemptId> = task
            .attempts
            .iter()
            .filter(|a| a.state.is_live())
            .map(|a| a.id)
            .collect();
        match task_id.kind {
            TaskKind::Map => job.completed_maps += 1,
            TaskKind::Reduce => job.completed_reduces += 1,
        }
        let done =
            job.completed_maps == job.spec.n_maps && job.completed_reduces == job.spec.n_reduces;
        if done {
            job.status = JobStatus::Succeeded;
            job.finished = Some(now);
            resp.job_completed = true;
            self.running_jobs.remove(&task_id.job);
        }
        for s in siblings {
            self.release_attempt(s);
            self.kill_attempt(s);
            resp.kill.push(s);
        }
        resp
    }

    /// An attempt failed (e.g. its input block is unreadable).
    pub fn attempt_failed(&mut self, _now: SimTime, attempt: AttemptId) {
        self.epoch += 1;
        self.release_attempt(attempt);
        let job = self.jobs.get_mut(&attempt.task.job).expect("unknown job");
        let task = job.tasks.get_mut(&attempt.task).expect("unknown task");
        if let Some(info) = task.attempts.iter_mut().find(|a| a.id == attempt) {
            if info.state.is_live() {
                job.live_attempts -= 1;
            }
            info.state = AttemptState::Failed;
        }
        task.failures += 1;
        if task.failures > job.spec.max_task_failures {
            job.status = JobStatus::Failed;
            self.running_jobs.remove(&attempt.task.job);
        }
    }

    /// Fetch-failure reports older than this no longer count toward
    /// re-execution thresholds (reducers back off and earlier outage
    /// episodes become stale evidence).
    const FETCH_REPORT_WINDOW: SimDuration = SimDuration::from_secs(120);

    /// A reduce reported that it cannot fetch `map`'s output.
    /// `output_active` is the DFS's answer to "does any active replica of
    /// the output exist?" (only consulted by the MOON policy). Returns
    /// true if the map task was re-opened for execution.
    pub fn report_fetch_failure(
        &mut self,
        now: SimTime,
        map: TaskId,
        reduce: TaskId,
        output_active: bool,
    ) -> bool {
        debug_assert_eq!(map.kind, TaskKind::Map);
        self.epoch += 1;
        let job = self.jobs.get_mut(&map.job).expect("unknown job");
        if !job.tasks[&map].completed {
            return false; // already being re-executed
        }
        let cutoff = now
            .since(SimTime::ZERO)
            .saturating_sub(Self::FETCH_REPORT_WINDOW);
        let cutoff = SimTime::ZERO + cutoff;
        let (reporters, in_window) = {
            let reports = job.fetch_failures.entry(map).or_default();
            reports.push(reduce, now);
            reports.expire(cutoff);
            (reports.reporter_counts.len(), reports.reports.len())
        };
        let reexec = match self.fetch_policy {
            FetchFailurePolicy::HadoopMajority => {
                // "More than 50% of the running Reduce tasks report
                // fetching failures for the Map task" — distinct reduces.
                // Reduce TaskIds sort after map TaskIds within a job, so
                // scan only that range instead of every task.
                let reduce_start = TaskId {
                    job: map.job,
                    kind: TaskKind::Reduce,
                    index: 0,
                };
                let running_reduces = job
                    .tasks
                    .range(reduce_start..)
                    .filter(|(_, t)| !t.completed && t.n_live() > 0)
                    .count();
                reporters * 2 > running_reduces.max(1)
            }
            FetchFailurePolicy::MoonQuery => {
                // "Once it observes three fetch failures from this task,
                // it immediately reissues a new copy" — cumulative
                // failures, so even a single starving reduce escalates.
                in_window >= 3 && !output_active
            }
        };
        if !reexec {
            return false;
        }
        // Re-open the map task.
        let task = job.tasks.get_mut(&map).unwrap();
        task.completed = false;
        task.completed_by = None;
        task.output_lost_count += 1;
        job.completed_maps -= 1;
        job.fetch_failures.remove(&map);
        job.map_output_relaunches += 1;
        job.killed_map_attempts += 1; // the completed attempt is invalidated
        true
    }

    /// Total live attempts across all jobs (diagnostics). Sums the
    /// per-job maintained counters instead of walking every task.
    pub fn live_attempt_count(&self) -> usize {
        self.jobs.values().map(|j| j.live_attempts as usize).sum()
    }
}

trait TaskIdExt {
    fn task_job(&self) -> JobId;
}
impl TaskIdExt for TaskId {
    fn task_job(&self) -> JobId {
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HadoopPolicy, MoonPolicy};
    use simkit::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn hadoop_jt() -> JobTracker {
        JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::default()),
            FetchFailurePolicy::HadoopMajority,
        )
    }

    fn moon_jt(hybrid: bool) -> JobTracker {
        let p = if hybrid {
            MoonPolicy::default()
        } else {
            MoonPolicy::without_hybrid()
        };
        JobTracker::new(SchedulerPolicy::Moon(p), FetchFailurePolicy::MoonQuery)
    }

    /// Register `n_vol` volatile (n0..) and `n_ded` dedicated trackers,
    /// 2 map + 2 reduce slots each.
    fn cluster(jt: &mut JobTracker, n_vol: u32, n_ded: u32) {
        for i in 0..n_vol {
            jt.register_tracker(t(0), NodeId(i), 2, 2, false);
        }
        for i in n_vol..(n_vol + n_ded) {
            jt.register_tracker(t(0), NodeId(i), 2, 2, true);
        }
    }

    fn map_task(job: JobId, i: u32) -> TaskId {
        TaskId {
            job,
            kind: TaskKind::Map,
            index: i,
        }
    }

    fn reduce_task(job: JobId, i: u32) -> TaskId {
        TaskId {
            job,
            kind: TaskKind::Reduce,
            index: i,
        }
    }

    #[test]
    fn heartbeat_fills_map_slots_first() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        let job = jt.submit_job(t(0), JobSpec::new(10, 4));
        let resp = jt.heartbeat(t(1), NodeId(0));
        // 2 map slots filled; reduces gated by slowstart (5% of 10 → 1 map).
        assert_eq!(resp.assignments.len(), 2);
        assert!(resp
            .assignments
            .iter()
            .all(|a| a.attempt.task.kind == TaskKind::Map));
        assert!(resp
            .assignments
            .iter()
            .all(|a| a.reason == LaunchReason::Original));
        let _ = job;
    }

    #[test]
    fn reduces_gated_by_slowstart() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        let job = jt.submit_job(t(0), JobSpec::new(4, 4));
        let r0 = jt.heartbeat(t(1), NodeId(0));
        assert_eq!(r0.assignments.len(), 2, "maps only");
        // Complete one map (slowstart = ceil(0.05*4) = 1).
        jt.attempt_succeeded(t(30), r0.assignments[0].attempt);
        let r1 = jt.heartbeat(t(31), NodeId(1));
        let kinds: Vec<TaskKind> = r1.assignments.iter().map(|a| a.attempt.task.kind).collect();
        assert!(
            kinds.contains(&TaskKind::Reduce),
            "reduces now eligible: {kinds:?}"
        );
        let _ = job;
    }

    #[test]
    fn map_locality_preference() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 3, 0);
        let spec = JobSpec::new(3, 0).with_locations(vec![
            vec![NodeId(2)],
            vec![NodeId(0)],
            vec![NodeId(1)],
        ]);
        let job = jt.submit_job(t(0), spec);
        let resp = jt.heartbeat(t(1), NodeId(0));
        // First assignment to n0 must be map 1 (its input is local).
        assert_eq!(resp.assignments[0].attempt.task, map_task(job, 1));
    }

    #[test]
    fn hadoop_speculates_on_lagging_task() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(4, 0));
        // Launch all 4 maps across n0/n1.
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
        assert_eq!(a0.len() + a1.len(), 4);
        // Three run fast, one lags far behind.
        jt.report_progress(a0[0].attempt, 0.9);
        jt.report_progress(a0[1].attempt, 0.9);
        jt.report_progress(a1[0].attempt, 0.9);
        jt.report_progress(a1[1].attempt, 0.05);
        // Before 60s: no speculation.
        let r = jt.heartbeat(t(30), NodeId(2));
        assert!(r.assignments.is_empty(), "straggler rule needs 60s runtime");
        // After 60s: speculate the laggard.
        let r = jt.heartbeat(t(61), NodeId(2));
        assert_eq!(r.assignments.len(), 1);
        assert_eq!(r.assignments[0].attempt.task, a1[1].attempt.task);
        assert_eq!(r.assignments[0].reason, LaunchReason::Speculative);
        assert_eq!(r.assignments[0].attempt.attempt, 1);
        // Cap of one speculative copy: no more from another node.
        let r = jt.heartbeat(t(62), NodeId(3));
        assert!(r.assignments.is_empty());
        assert_eq!(jt.job_metrics(job).duplicated_tasks, 1);
    }

    #[test]
    fn tracker_expiry_kills_and_reschedules() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
            FetchFailurePolicy::HadoopMajority,
        );
        cluster(&mut jt, 2, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        // n0 goes silent; n1 keeps beating.
        jt.heartbeat(t(30), NodeId(1));
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.expired, vec![NodeId(0)]);
        assert_eq!(sweep.killed.len(), 2);
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Dead);
        // Hadoop-mode sweep never suspends.
        assert!(sweep.suspended.is_empty());
        // The tasks are rescheduled on n1 as retries.
        let r = jt.heartbeat(t(62), NodeId(1)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.reason == LaunchReason::Retry));
        let m = jt.job_metrics(job);
        assert_eq!(m.killed_maps, 2);
        assert_eq!(m.duplicated_tasks, 2);
    }

    #[test]
    fn moon_suspension_freezes_then_new_copy() {
        let mut jt = moon_jt(false);
        cluster(&mut jt, 3, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        jt.report_progress(a[0].attempt, 0.5);
        jt.report_progress(a[1].attempt, 0.8);
        jt.heartbeat(t(55), NodeId(1));
        jt.heartbeat(t(55), NodeId(2));
        // n0 silent past the 1-minute SuspensionInterval → suspended, not dead.
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.suspended, vec![NodeId(0)]);
        assert!(sweep.expired.is_empty());
        assert!(sweep.killed.is_empty(), "suspension must not kill attempts");
        assert!(jt.task(a[0].attempt.task).is_frozen());
        // Frozen tasks get copies immediately, lowest progress first.
        let r = jt.heartbeat(t(62), NodeId(1)).assignments;
        assert!(!r.is_empty());
        assert_eq!(r[0].attempt.task, a[0].attempt.task, "0.5 < 0.8 → first");
        assert_eq!(r[0].reason, LaunchReason::Speculative);
        // When n0 resumes, its attempts reactivate (no kills: tasks not done).
        let resumed = jt.heartbeat(t(90), NodeId(0));
        assert!(resumed.kill.is_empty());
        assert!(!jt.task(a[0].attempt.task).is_frozen());
        let m = jt.job_metrics(job);
        assert_eq!(m.killed_maps, 0);
    }

    #[test]
    fn moon_resume_after_completion_kills_stale_attempt() {
        // Homestretch off: this test exercises the frozen-copy/resume path
        // in isolation (a 1-task job would otherwise enter homestretch
        // immediately, since 1 < 20% of the cluster's 6 map slots).
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 0.0,
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        cluster(&mut jt, 3, 0);
        let _job = jt.submit_job(t(0), JobSpec::new(1, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        jt.heartbeat(t(50), NodeId(1));
        jt.check_trackers(t(61)); // n0 suspended
        let r = jt.heartbeat(t(62), NodeId(1)).assignments; // frozen copy
        assert_eq!(r.len(), 1);
        // The frozen copy finishes first: the stale inactive attempt on the
        // suspended tracker is killed right away.
        let s = jt.attempt_succeeded(t(100), r[0].attempt);
        assert_eq!(s.kill, vec![a[0].attempt]);
        // When n0 resumes there is nothing left to kill or reactivate.
        let resumed = jt.heartbeat(t(120), NodeId(0));
        assert!(resumed.kill.is_empty());
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Alive);
    }

    #[test]
    fn moon_global_speculative_cap() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                speculative_slot_fraction: 0.2,
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        // 2 trackers alive → 8 slots total → cap = floor(0.2*8) = 1.
        cluster(&mut jt, 3, 0);
        let _job = jt.submit_job(t(0), JobSpec::new(4, 0));
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
        assert_eq!(a0.len() + a1.len(), 4);
        jt.heartbeat(t(55), NodeId(2));
        // Both workers go silent → all 4 tasks frozen.
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.suspended.len(), 2);
        // Cap: only 1 (of 4 frozen) gets a copy... cap = 0.2 * 4 slots on
        // n2 (the only alive tracker) = 0 → max(1) = 1.
        let r = jt.heartbeat(t(62), NodeId(2)).assignments;
        assert_eq!(r.len(), 1, "global cap limits frozen-task copies: {r:?}");
    }

    #[test]
    fn moon_homestretch_replicates_remaining_tasks() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 50.0, // huge H so the phase triggers
                homestretch_r: 2,
                speculative_slot_fraction: 1.0, // don't let the cap bite
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        cluster(&mut jt, 3, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 0));
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert_eq!(a0.len(), 2);
        jt.report_progress(a0[0].attempt, 0.5);
        jt.report_progress(a0[1].attempt, 0.6);
        // remaining = 2 < 0.5 * 6 map slots → homestretch on; both tasks
        // have 1 running copy < R=2 → each may get one more.
        let r = jt.heartbeat(t(10), NodeId(1)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.reason == LaunchReason::Homestretch));
        // R satisfied: no third copies.
        let r2 = jt.heartbeat(t(11), NodeId(2)).assignments;
        assert!(r2.is_empty());
        let _ = job;
    }

    #[test]
    fn moon_nonhybrid_gives_dedicated_no_work() {
        let mut jt = moon_jt(false);
        cluster(&mut jt, 2, 1); // n2 dedicated
        let _job = jt.submit_job(t(0), JobSpec::new(6, 0));
        let r = jt.heartbeat(t(1), NodeId(2));
        assert!(r.assignments.is_empty(), "dedicated = pure data server");
    }

    #[test]
    fn moon_hybrid_dedicated_runs_speculative_only() {
        let mut jt = moon_jt(true);
        cluster(&mut jt, 2, 1); // n2 dedicated
        let _job = jt.submit_job(t(0), JobSpec::new(2, 0));
        // Fresh tasks: dedicated node gets nothing.
        let r = jt.heartbeat(t(1), NodeId(2));
        assert!(r.assignments.is_empty());
        let a = jt.heartbeat(t(1), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        // Freeze them.
        jt.heartbeat(t(55), NodeId(1));
        jt.heartbeat(t(55), NodeId(2));
        jt.check_trackers(t(61));
        // Now the dedicated node takes frozen-task copies.
        let r = jt.heartbeat(t(62), NodeId(2)).assignments;
        assert!(!r.is_empty());
        // And a task with a dedicated copy is skipped for more replicas:
        let r2 = jt.heartbeat(t(63), NodeId(1)).assignments;
        assert!(
            !r2.iter().any(|x| x.attempt.task == r[0].attempt.task),
            "task with dedicated copy must not receive further copies"
        );
    }

    #[test]
    fn hadoop_fetch_failure_majority_rule() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(1, 3));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        let map_a = a[0].attempt;
        jt.attempt_succeeded(t(10), map_a);
        // Start 3 reduces.
        let mut reduces = vec![];
        for n in 1..3 {
            for asg in jt.heartbeat(t(11), NodeId(n)).assignments {
                reduces.push(asg.attempt);
            }
        }
        assert_eq!(reduces.len(), 3);
        // One reporter of 3 running reduces: 1*2 > 3 is false → no reexec.
        let m = map_task(job, 0);
        assert!(!jt.report_fetch_failure(t(20), m, reduce_task(job, 0), false));
        // Second reporter: 2*2 > 3 → reexec.
        assert!(jt.report_fetch_failure(t(21), m, reduce_task(job, 1), false));
        assert_eq!(jt.job_metrics(job).map_output_relaunches, 1);
        // The map is runnable again, as a MapOutputLost launch.
        let r = jt.heartbeat(t(22), NodeId(3)).assignments;
        assert!(r
            .iter()
            .any(|x| x.attempt.task == m && x.reason == LaunchReason::MapOutputLost));
    }

    #[test]
    fn moon_fetch_failure_queries_fs() {
        let mut jt = moon_jt(false);
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(1, 3));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        jt.attempt_succeeded(t(10), a[0].attempt);
        let m = map_task(job, 0);
        // 3 failures but replicas still active → reduces just retry.
        assert!(!jt.report_fetch_failure(t(20), m, reduce_task(job, 0), true));
        assert!(!jt.report_fetch_failure(t(21), m, reduce_task(job, 1), true));
        assert!(!jt.report_fetch_failure(t(22), m, reduce_task(job, 2), true));
        // 3 failures and no active replica → immediate reexecution: the
        // 4th report, with no active replica, fires.
        assert!(jt.report_fetch_failure(t(23), m, reduce_task(job, 0), false));
        assert_eq!(jt.job_metrics(job).map_output_relaunches, 1);
    }

    #[test]
    fn task_failure_budget_fails_job() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 1, 0);
        let job = jt.submit_job(
            t(0),
            JobSpec {
                max_task_failures: 2,
                ..JobSpec::new(1, 0)
            },
        );
        for k in 0..3 {
            let r = jt.heartbeat(t(k * 10), NodeId(0)).assignments;
            assert_eq!(r.len(), 1);
            jt.attempt_failed(t(k * 10 + 5), r[0].attempt);
        }
        assert_eq!(jt.job_status(job), JobStatus::Failed);
    }

    #[test]
    fn job_completion_and_sibling_kill() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 3, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 1));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        // Lag one map, speculate it.
        jt.report_progress(a[0].attempt, 0.9);
        jt.report_progress(a[1].attempt, 0.0);
        let spec = jt.heartbeat(t(61), NodeId(1)).assignments;
        assert_eq!(spec.len(), 1);
        // Original completes first: speculative sibling is killed.
        let s = jt.attempt_succeeded(t(70), a[1].attempt);
        assert_eq!(s.kill, vec![spec[0].attempt]);
        assert!(!s.job_completed);
        jt.attempt_succeeded(t(71), a[0].attempt);
        // Reduce now eligible.
        let r = jt.heartbeat(t(72), NodeId(2)).assignments;
        let red = r
            .iter()
            .find(|x| x.attempt.task.kind == TaskKind::Reduce)
            .expect("reduce assigned");
        let s = jt.attempt_succeeded(t(100), red.attempt);
        assert!(s.job_completed);
        assert_eq!(jt.job_status(job), JobStatus::Succeeded);
        assert_eq!(jt.job_finished(job), Some(t(100)));
        let m = jt.job_metrics(job);
        assert_eq!(m.completed_maps, 2);
        assert_eq!(m.completed_reduces, 1);
        assert_eq!(m.killed_maps, 1, "the superseded speculative copy");
    }

    #[test]
    fn fifo_drains_earlier_jobs_first() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(3, 0));
        let j1 = jt.submit_job(t(1), JobSpec::new(3, 0));
        // 2 slots on n0: both must go to j0 under FIFO.
        let r = jt.heartbeat(t(2), NodeId(0)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|a| a.attempt.task.job == j0), "{r:?}");
        // j0 still has a pending map, so n1's slots serve it before j1.
        let r = jt.heartbeat(t(3), NodeId(1)).assignments;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].attempt.task.job, j0);
        assert_eq!(r[1].attempt.task.job, j1);
        assert_eq!(jt.cross_job(), CrossJobPolicy::Fifo);
    }

    #[test]
    fn fair_share_interleaves_concurrent_jobs() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::default()),
            FetchFailurePolicy::HadoopMajority,
        )
        .with_cross_job(CrossJobPolicy::FairShare);
        cluster(&mut jt, 2, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(3, 0));
        let j1 = jt.submit_job(t(1), JobSpec::new(3, 0));
        // Slot 1: both jobs have 0 live attempts → tie broken by id (j0).
        // Slot 2: j0 now has 1 live attempt → j1's turn. Each free slot
        // re-ranks, so a heartbeat's two slots alternate jobs.
        let r = jt.heartbeat(t(2), NodeId(0)).assignments;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].attempt.task.job, j0);
        assert_eq!(r[1].attempt.task.job, j1, "fair share alternates: {r:?}");
        let r = jt.heartbeat(t(3), NodeId(1)).assignments;
        assert_eq!(r[0].attempt.task.job, j0);
        assert_eq!(r[1].attempt.task.job, j1);
    }

    #[test]
    fn fair_share_prefers_starved_job_after_completions() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::default()),
            FetchFailurePolicy::HadoopMajority,
        )
        .with_cross_job(CrossJobPolicy::FairShare);
        cluster(&mut jt, 3, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(6, 0));
        // j0 grabs 4 slots before j1 exists.
        let a0 = jt.heartbeat(t(1), NodeId(0)).assignments;
        let a1 = jt.heartbeat(t(1), NodeId(1)).assignments;
        assert_eq!(a0.len() + a1.len(), 4);
        let j1 = jt.submit_job(t(2), JobSpec::new(6, 0));
        // j0 holds 4 live attempts, j1 zero → n2's slots both go to j1.
        let r = jt.heartbeat(t(3), NodeId(2)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|a| a.attempt.task.job == j1), "{r:?}");
        let _ = j0;
    }

    #[test]
    fn first_launch_times_measure_queueing_delay() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 1, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(2, 0));
        let j1 = jt.submit_job(t(0), JobSpec::new(1, 0));
        assert_eq!(jt.job_first_launch(j0), None);
        assert_eq!(jt.queued_job_count(), 2);
        // The 2 slots fill with j0; j1 keeps queueing.
        let a = jt.heartbeat(t(5), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        assert_eq!(jt.job_first_launch(j0), Some(t(5)));
        assert_eq!(jt.job_first_launch(j1), None);
        assert_eq!(jt.queued_job_count(), 1);
        assert_eq!(jt.active_job_count(), 2);
        // j0 finishes; j1 launches on the freed slots.
        jt.attempt_succeeded(t(40), a[0].attempt);
        jt.attempt_succeeded(t(41), a[1].attempt);
        let b = jt.heartbeat(t(42), NodeId(0)).assignments;
        assert_eq!(b[0].attempt.task.job, j1);
        assert_eq!(jt.job_first_launch(j1), Some(t(42)));
        assert_eq!(jt.active_job_count(), 1);
        assert_eq!(jt.queued_job_count(), 0);
    }

    #[test]
    fn metrics_accumulate_sums_counters() {
        let a = JobMetrics {
            duplicated_tasks: 1,
            killed_maps: 2,
            killed_reduces: 3,
            killed_by_tracker_expiry: 1,
            map_output_relaunches: 4,
            completed_maps: 5,
            completed_reduces: 6,
            preempted: 7,
        };
        let mut total = JobMetrics::default();
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(total.duplicated_tasks, 2);
        assert_eq!(total.completed_maps, 10);
        assert_eq!(total.map_output_relaunches, 8);
        assert_eq!(total.preempted, 14);
    }

    #[test]
    fn preemption_is_off_by_default() {
        let mut jt = hadoop_jt().with_cross_job(CrossJobPolicy::StrictPriority);
        cluster(&mut jt, 1, 0);
        let low = jt.submit_job(t(0), JobSpec::new(2, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let _high = jt.submit_job(t(5), JobSpec::new(1, 0).with_priority(9));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert!(r.assignments.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 0);
        let _ = low;
    }

    #[test]
    fn fifo_preemption_never_fires_for_later_jobs() {
        // FIFO's guard is `challenger < victim`: a later submission can
        // never reclaim an earlier job's slot, so enabling preemption
        // under plain FIFO changes nothing for in-order arrivals.
        let mut jt = hadoop_jt().with_preemption(true);
        cluster(&mut jt, 1, 0);
        let _first = jt.submit_job(t(0), JobSpec::new(2, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let _second = jt.submit_job(t(5), JobSpec::new(1, 0));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 0);
    }

    #[test]
    fn inverted_fair_share_never_preempts() {
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::FairShareInverted)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let _a = jt.submit_job(t(0), JobSpec::new(4, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let _b = jt.submit_job(t(5), JobSpec::new(4, 0));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 0);
    }

    #[test]
    fn fair_share_preemption_stops_at_gap_one() {
        // The fair guard (`ch + 1 < victim`) transfers exactly one slot
        // here: 2-vs-0 becomes 1-vs-1, where neither side may preempt
        // the other — no kill/relaunch ping-pong.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::FairShare)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let a = jt.submit_job(t(0), JobSpec::new(4, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let b = jt.submit_job(t(5), JobSpec::new(4, 0));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert_eq!(r.kill.len(), 1, "{r:?}");
        assert_eq!(r.kill[0].task.job, a);
        assert_eq!(r.assignments.len(), 1, "{r:?}");
        assert_eq!(r.assignments[0].attempt.task.job, b);
        // Balanced now: the next round must leave the split alone.
        let r = jt.heartbeat(t(9), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 1);
    }

    #[test]
    fn preemption_victim_is_the_youngest_attempt() {
        // Among equally ranked victims the highest attempt id — the
        // most recently launched, least progressed — is discarded.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::StrictPriority)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let low = jt.submit_job(t(0), JobSpec::new(2, 0));
        let r0 = jt.heartbeat(t(1), NodeId(0));
        assert_eq!(r0.assignments.len(), 2);
        let high = jt.submit_job(t(5), JobSpec::new(1, 0).with_priority(3));
        let r1 = jt.heartbeat(t(6), NodeId(0));
        assert_eq!(r1.kill, vec![r0.assignments[1].attempt], "{r1:?}");
        assert_eq!(r1.assignments[0].attempt.task.job, high);
        let _ = low;
    }

    #[test]
    fn tenant_floor_blocks_further_preemption() {
        // Cross-tenant preemption stops the moment the victim tenant
        // would drop below its guaranteed minimum share.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::TenantFair)
            .with_preemption(true)
            .with_tenants(vec![1, 1], vec![1, 1]);
        cluster(&mut jt, 1, 0);
        let a = jt.submit_job(t(0), JobSpec::new(4, 0).with_tenant(0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let b = jt.submit_job(t(5), JobSpec::new(4, 0).with_tenant(1));
        let r = jt.heartbeat(t(6), NodeId(0));
        // Tenant 1 (live 0, below its floor) reclaims exactly one slot;
        // tenant 0 then sits at its own floor and keeps the other.
        assert_eq!(r.kill.len(), 1, "{r:?}");
        assert_eq!(r.kill[0].task.job, a);
        assert_eq!(r.assignments.len(), 1, "{r:?}");
        assert_eq!(r.assignments[0].attempt.task.job, b);
        let r = jt.heartbeat(t(9), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 1);
    }

    #[test]
    fn preempted_task_requeues_and_relaunches() {
        // Kill-and-requeue loses the attempt, not the task: the victim
        // re-enters the pending pool and relaunches once a slot frees.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::Edf)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let loose = jt.submit_job(t(0), JobSpec::new(2, 0).with_deadline(t(3600)));
        let r0 = jt.heartbeat(t(1), NodeId(0));
        assert_eq!(r0.assignments.len(), 2);
        let tight = jt.submit_job(t(5), JobSpec::new(2, 0).with_deadline(t(120)));
        let r1 = jt.heartbeat(t(6), NodeId(0));
        assert_eq!(r1.kill.len(), 2, "{r1:?}");
        assert!(r1.assignments.iter().all(|x| x.attempt.task.job == tight));
        assert_eq!(jt.job_metrics(loose).preempted, 2);
        // Tight job drains; the preempted tasks relaunch.
        for x in &r1.assignments {
            jt.attempt_succeeded(t(30), x.attempt);
        }
        let r2 = jt.heartbeat(t(31), NodeId(0));
        assert_eq!(r2.assignments.len(), 2, "{r2:?}");
        assert!(r2.assignments.iter().all(|x| x.attempt.task.job == loose));
        for x in &r2.assignments {
            jt.attempt_succeeded(t(60), x.attempt);
        }
        assert_eq!(jt.job_status(loose), crate::JobStatus::Succeeded);
    }

    /// Randomized churn drift check: after every step of a mixed
    /// workload (job submissions, partial heartbeats, completions,
    /// suspensions, expiries, revivals) the incremental indexes —
    /// running jobs, alive-slot counters, heartbeat order, dedicated
    /// set — must equal a from-scratch recomputation. Coverage flags
    /// ensure the churn actually exercised every transition.
    #[test]
    fn incremental_indexes_survive_randomized_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                suspension_interval: SimDuration::from_secs(60),
                tracker_expiry: SimDuration::from_secs(120),
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        )
        .with_cross_job(CrossJobPolicy::FairShare);
        cluster(&mut jt, 9, 3); // n0..n8 volatile, n9..n11 dedicated
        let mut rng = StdRng::seed_from_u64(0xF1EE7);
        let mut now = t(0);
        // [suspended, expired, revived, job completed]
        let mut produced = [false; 4];
        for _ in 0..400 {
            now += SimDuration::from_secs(20);
            if rng.gen_range(0..10u32) == 0 {
                jt.submit_job(now, JobSpec::new(3, 1));
            }
            for i in 0..12u32 {
                if rng.gen_range(0..100u32) < 40 {
                    let was_down = jt.tracker_state(NodeId(i)) != TrackerState::Alive;
                    let resp = jt.heartbeat(now, NodeId(i));
                    produced[2] |= was_down;
                    for a in resp.assignments {
                        if rng.gen_range(0..100u32) < 50 {
                            let s = jt.attempt_succeeded(now, a.attempt);
                            produced[3] |= s.job_completed;
                        }
                    }
                }
            }
            let sweep = jt.check_trackers(now); // asserts audit_indexes is empty
            produced[0] |= !sweep.suspended.is_empty();
            produced[1] |= !sweep.expired.is_empty();
            let drift = jt.audit_indexes();
            assert!(drift.is_empty(), "{}", drift.join("\n"));
        }
        assert_eq!(
            produced, [true; 4],
            "churn must exercise suspension, expiry, revival and job completion \
             [suspended, expired, revived, completed] = {produced:?}"
        );
    }

    /// The single recount really catches drift: each maintained index,
    /// corrupted on its own, yields exactly one audit line naming it.
    #[test]
    fn audit_indexes_names_each_corrupted_index() {
        fn fresh() -> (JobTracker, JobId) {
            let mut jt = hadoop_jt();
            cluster(&mut jt, 2, 1);
            let job = jt.submit_job(t(0), JobSpec::new(2, 1));
            assert!(!jt.heartbeat(t(1), NodeId(0)).assignments.is_empty());
            (jt, job)
        }
        assert_eq!(fresh().0.audit_indexes(), Vec::<String>::new());
        type Corrupt = fn(&mut JobTracker, JobId);
        let cases: [(&str, Corrupt); 6] = [
            ("running-job index", |jt, job| {
                jt.running_jobs.remove(&job);
            }),
            ("alive map-slot counter", |jt, _| jt.alive_map_slots += 1),
            ("alive reduce-slot counter", |jt, _| {
                jt.alive_reduce_slots -= 1
            }),
            ("heartbeat-ordered tracker index", |jt, _| {
                jt.tracker_hb_order.pop_first();
            }),
            ("dedicated-tracker index", |jt, _| {
                jt.dedicated_trackers.clear();
            }),
            ("live-attempt counter", |jt, job| {
                jt.jobs.get_mut(&job).unwrap().live_attempts += 1;
            }),
        ];
        for (name, corrupt) in cases {
            let (mut jt, job) = fresh();
            corrupt(&mut jt, job);
            let audit = jt.audit_indexes();
            assert_eq!(audit.len(), 1, "{name}: {audit:?}");
            assert!(audit[0].contains(name), "{name}: {audit:?}");
        }
    }

    #[test]
    fn dead_tracker_reregisters_on_heartbeat() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
            FetchFailurePolicy::HadoopMajority,
        );
        cluster(&mut jt, 2, 0);
        let _job = jt.submit_job(t(0), JobSpec::new(1, 0));
        jt.heartbeat(t(30), NodeId(1));
        jt.check_trackers(t(61));
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Dead);
        jt.heartbeat(t(90), NodeId(0));
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Alive);
        // It can take work again.
        let r = jt.heartbeat(t(91), NodeId(0)).assignments;
        // The single task is already running on n1 or rescheduled; either
        // way the tracker is usable (no panic) and slots report sanely.
        let _ = r;
        assert!(jt.live_attempt_count() >= 1);
    }

    /// The idle-pick memo slot of (class, kind), after asserting that an
    /// empty pick was stored there at the current epoch.
    fn stored_memo(jt: &JobTracker, dedicated: bool, kind: TaskKind) -> SimTime {
        match jt.idle_memo[JobTracker::memo_slot(dedicated, kind)] {
            Some((epoch, valid_until)) if epoch == jt.epoch => valid_until,
            other => panic!("no current memo for ({dedicated}, {kind:?}): {other:?}"),
        }
    }

    /// MOON without hybrid awareness or homestretch, so only the
    /// frozen and slow lists can speculate.
    fn moon_spec_only(min_runtime: SimDuration) -> JobTracker {
        JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 0.0,
                hybrid: false,
                straggler: StragglerRule {
                    min_runtime,
                    ..StragglerRule::default()
                },
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        )
    }

    #[test]
    fn idle_memo_expires_when_a_straggler_comes_of_age() {
        for mut jt in [hadoop_jt(), moon_spec_only(SimDuration::from_secs(60))] {
            cluster(&mut jt, 4, 0);
            jt.submit_job(t(0), JobSpec::new(4, 0));
            let mut a = jt.heartbeat(t(0), NodeId(0)).assignments;
            a.extend(jt.heartbeat(t(0), NodeId(1)).assignments);
            for (i, asg) in a.iter().enumerate() {
                jt.report_progress(asg.attempt, if i == 3 { 0.05 } else { 0.9 });
            }
            // Too young to be a straggler: the empty pick is memoised
            // until the laggard has run for the 60 s minimum.
            assert!(jt.heartbeat(t(30), NodeId(2)).assignments.is_empty());
            assert_eq!(stored_memo(&jt, false, TaskKind::Map), t(60));
            let just_before = SimTime::from_micros(t(60).as_micros() - 1);
            assert!(jt.heartbeat(just_before, NodeId(3)).assignments.is_empty());
            // The first heartbeat at the minimum runtime gets the copy.
            let r = jt.heartbeat(t(60), NodeId(3)).assignments;
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].attempt.task, a[3].attempt.task);
            assert_eq!(r[0].reason, LaunchReason::Speculative);
        }
    }

    #[test]
    fn idle_memo_invalidated_by_progress_change() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 4, 0);
        jt.submit_job(t(0), JobSpec::new(4, 0));
        let mut a = jt.heartbeat(t(0), NodeId(0)).assignments;
        a.extend(jt.heartbeat(t(0), NodeId(1)).assignments);
        for asg in &a {
            jt.report_progress(asg.attempt, 0.5);
        }
        // Even progress: no straggler, and no time limit on the memo.
        assert!(jt.heartbeat(t(70), NodeId(2)).assignments.is_empty());
        assert_eq!(stored_memo(&jt, false, TaskKind::Map), SimTime::MAX);
        // Repeating a stored value is not a mutation.
        jt.report_progress(a[0].attempt, 0.5);
        stored_memo(&jt, false, TaskKind::Map);
        jt.report_progress(a[0].attempt, 0.05);
        let r = jt.heartbeat(t(71), NodeId(3)).assignments;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].attempt.task, a[0].attempt.task);
    }

    #[test]
    fn idle_memo_invalidated_by_attempt_success() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 3, 0);
        jt.submit_job(t(0), JobSpec::new(4, 1));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        jt.heartbeat(t(0), NodeId(1));
        // The reduce waits on slowstart (one completed map).
        assert!(jt.heartbeat(t(1), NodeId(2)).assignments.is_empty());
        stored_memo(&jt, false, TaskKind::Reduce);
        jt.attempt_succeeded(t(2), a[0].attempt);
        let r = jt.heartbeat(t(3), NodeId(2)).assignments;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].attempt.task.kind, TaskKind::Reduce);
    }

    #[test]
    fn idle_memo_invalidated_by_attempt_failure() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        jt.submit_job(t(0), JobSpec::new(2, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert!(jt.heartbeat(t(1), NodeId(1)).assignments.is_empty());
        stored_memo(&jt, false, TaskKind::Map);
        jt.attempt_failed(t(2), a[0].attempt);
        let r = jt.heartbeat(t(3), NodeId(1)).assignments;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].reason, LaunchReason::Retry);
    }

    #[test]
    fn idle_memo_invalidated_by_tracker_suspension() {
        // A long straggler minimum keeps the memo from expiring by time.
        let mut jt = moon_spec_only(SimDuration::from_mins(60));
        cluster(&mut jt, 2, 0);
        jt.submit_job(t(0), JobSpec::new(2, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert!(jt.heartbeat(t(55), NodeId(1)).assignments.is_empty());
        assert_eq!(stored_memo(&jt, false, TaskKind::Map), t(3600));
        assert_eq!(jt.check_trackers(t(61)).suspended, vec![NodeId(0)]);
        // Both tasks are frozen now and take copies at once.
        let r = jt.heartbeat(t(62), NodeId(1)).assignments;
        assert!(!r.is_empty());
        assert!(r.iter().all(|x| x.reason == LaunchReason::Speculative));
        assert!(a.iter().any(|x| x.attempt.task == r[0].attempt.task));
    }

    #[test]
    fn idle_memo_invalidated_by_tracker_revival() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 50.0,
                speculative_slot_fraction: 1.0,
                hybrid: false,
                straggler: StragglerRule {
                    min_runtime: SimDuration::from_mins(60),
                    ..StragglerRule::default()
                },
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        cluster(&mut jt, 3, 0);
        jt.heartbeat(t(50), NodeId(0));
        jt.heartbeat(t(50), NodeId(1));
        assert_eq!(jt.check_trackers(t(61)).suspended, vec![NodeId(2)]);
        jt.submit_job(t(61), JobSpec::new(2, 0));
        assert_eq!(jt.heartbeat(t(62), NodeId(0)).assignments.len(), 2);
        // 2 remaining tasks are not below 50% of 4 alive map slots.
        assert!(jt.heartbeat(t(62), NodeId(1)).assignments.is_empty());
        stored_memo(&jt, false, TaskKind::Map);
        // n2's return brings 6 slots: homestretch starts, and n2 (idle)
        // must not reuse the memo stored before it.
        let r = jt.heartbeat(t(63), NodeId(2)).assignments;
        assert!(!r.is_empty());
        assert!(r.iter().all(|x| x.reason == LaunchReason::Homestretch));
    }

    #[test]
    fn idle_memo_invalidated_by_job_submission() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        assert!(jt.heartbeat(t(1), NodeId(0)).assignments.is_empty());
        stored_memo(&jt, false, TaskKind::Map);
        jt.submit_job(t(2), JobSpec::new(2, 0));
        assert_eq!(jt.heartbeat(t(3), NodeId(1)).assignments.len(), 2);
    }

    #[test]
    fn idle_memo_is_per_class_and_idle_trackers_only() {
        // Hadoop runs originals on both classes, so forging a memo that
        // claims "nothing assignable" shows who reads it: a memo hit
        // would return no work (and fail the debug cross-check).
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 1); // n2 dedicated
        jt.submit_job(t(0), JobSpec::new(1, 0));
        let forge = |jt: &mut JobTracker, dedicated: bool| {
            jt.idle_memo[JobTracker::memo_slot(dedicated, TaskKind::Map)] =
                Some((jt.epoch, SimTime::MAX));
        };
        forge(&mut jt, false);
        let r = jt.heartbeat(t(1), NodeId(2)).assignments;
        assert_eq!(
            r.len(),
            1,
            "a volatile memo must not answer for a dedicated tracker"
        );
        // n2 is now busy with one free map slot; a second job's map must
        // reach it even though its class memo says otherwise.
        jt.submit_job(t(2), JobSpec::new(1, 0));
        forge(&mut jt, true);
        let r = jt.heartbeat(t(3), NodeId(2)).assignments;
        assert_eq!(
            r.len(),
            1,
            "a tracker with running attempts never reads the memo"
        );
    }

    #[test]
    fn idle_pick_until_reports_both_memo_slots_of_a_class() {
        let mut jt = moon_spec_only(SimDuration::from_secs(60));
        cluster(&mut jt, 4, 1);
        // Nothing picked yet: unknown, so an idle beat must run.
        assert_eq!(jt.idle_pick_until(false), None);
        jt.submit_job(t(0), JobSpec::new(4, 0));
        let mut a = jt.heartbeat(t(0), NodeId(0)).assignments;
        a.extend(jt.heartbeat(t(0), NodeId(1)).assignments);
        for (i, asg) in a.iter().enumerate() {
            jt.report_progress(asg.attempt, if i == 3 { 0.05 } else { 0.9 });
        }
        assert!(jt.heartbeat(t(30), NodeId(2)).assignments.is_empty());
        // Both kinds are memoised empty for the volatile class until the
        // laggard comes of age; the dedicated class is still unknown.
        assert_eq!(jt.idle_pick_until(false), Some(t(60)));
        assert_eq!(jt.idle_pick_until(true), None);
        assert!(jt.heartbeat(t(31), NodeId(4)).assignments.is_empty());
        assert_eq!(jt.idle_pick_until(true), Some(SimTime::MAX));
        // Any mutation makes the memo stale.
        jt.report_progress(a[0].attempt, 0.95);
        assert_eq!(jt.idle_pick_until(false), None);
        assert_eq!(jt.idle_pick_until(true), None);
    }

    /// A sleeping tracker is invisible to liveness sweeps; waking it
    /// with the implied timestamp gives the sweep an always-beating
    /// tracker would see.
    #[test]
    fn sleeping_tracker_skips_sweeps_and_wakes_with_its_implied_heartbeat() {
        let mut jt = moon_jt(true);
        cluster(&mut jt, 2, 0);
        jt.sleep_tracker(NodeId(1));
        assert!(jt.tracker_asleep(NodeId(1)));
        jt.heartbeat(t(3600), NodeId(0));
        let sweep = jt.check_trackers(t(3600));
        assert!(sweep.suspended.is_empty() && sweep.expired.is_empty());
        assert_eq!(jt.tracker_state(NodeId(1)), TrackerState::Alive);
        // Last implied beat t=3597, then silence: suspended after the
        // 60 s interval, not before.
        jt.wake_tracker(NodeId(1), t(3597));
        assert_eq!(jt.audit_indexes(), Vec::<String>::new());
        assert!(jt.check_trackers(t(3656)).suspended.is_empty());
        assert_eq!(jt.check_trackers(t(3657)).suspended, vec![NodeId(1)]);
    }

    /// Each sleeper check, violated on its own, yields exactly one
    /// audit line naming it.
    #[test]
    fn audit_indexes_names_each_sleeper_violation() {
        fn fresh() -> JobTracker {
            let mut jt = hadoop_jt();
            cluster(&mut jt, 2, 1);
            jt.sleep_tracker(NodeId(1));
            jt
        }
        assert_eq!(fresh().audit_indexes(), Vec::<String>::new());
        type Corrupt = fn(&mut JobTracker);
        let cases: [(&str, Corrupt); 3] = [
            ("sleeping tracker NodeId(1) is Suspended", |jt| {
                jt.trackers.get_mut(&NodeId(1)).unwrap().state = TrackerState::Suspended;
                jt.alive_map_slots -= 2;
                jt.alive_reduce_slots -= 2;
            }),
            (
                "sleeping tracker NodeId(1) has 1 running attempt(s)",
                |jt| {
                    let id = AttemptId {
                        task: map_task(JobId(0), 0),
                        attempt: 0,
                    };
                    jt.trackers.get_mut(&NodeId(1)).unwrap().running.insert(id);
                },
            ),
            (
                "sleeping tracker NodeId(1) is in the heartbeat-ordered index",
                |jt| {
                    let hb = jt.trackers[&NodeId(1)].last_heartbeat;
                    jt.tracker_hb_order.insert((hb, NodeId(1)));
                },
            ),
        ];
        for (name, corrupt) in cases {
            let mut jt = fresh();
            corrupt(&mut jt);
            let audit = jt.audit_indexes();
            assert_eq!(audit.len(), 1, "{name}: {audit:?}");
            assert!(audit[0].contains(name), "{name}: {audit:?}");
        }
    }
}
