//! Conservation audits: from-scratch recounts of the world's
//! incremental state. No simulation logic lives here — everything is
//! read-only over the world state.

use super::World;
use dfs::NodeId;
use mapred::JobStatus;
use simkit::EventId;
use std::collections::BTreeSet;

impl World {
    /// Cross-subsystem end-of-run audit: re-derives every incremental
    /// counter and index from scratch (world job slots, JobTracker,
    /// NameNode) and — when the run succeeded — checks the terminal
    /// state is fully drained (no live attempts anywhere, no queued
    /// jobs, nothing awaiting commit). Returns one line per
    /// discrepancy; empty means the conservation invariants hold.
    ///
    /// Unlike the debug-only drift asserts this never panics and is
    /// compiled in release builds, so the fuzzer can run it after
    /// every experiment and turn violations into shrinkable findings
    /// rather than campaign-aborting aborts.
    pub fn debug_final_audit(&self) -> Vec<String> {
        let mut issues = self.audit_job_counters();
        issues.extend(self.audit_sleepers());

        // Every committed job must be genuinely finished: tasks done,
        // JobTracker agrees, and time flows forward.
        for (i, slot) in self.jobs.iter().enumerate() {
            let Some(finished) = slot.finished_at else {
                continue;
            };
            if !slot.tasks_done {
                issues.push(format!("slot {i} committed with incomplete tasks"));
            }
            match (slot.job, slot.submitted_at) {
                (Some(job), Some(submitted)) => {
                    let status = self.jt.job_status(job);
                    if status != JobStatus::Succeeded {
                        issues.push(format!("slot {i} committed but JobTracker says {status:?}"));
                    }
                    if finished < submitted {
                        issues.push(format!("slot {i} committed before it was submitted"));
                    }
                }
                _ => issues.push(format!("slot {i} committed without a submission record")),
            }
        }

        // The per-node attempt indexes must mirror the attempt table.
        let mut local: BTreeSet<_> = BTreeSet::new();
        for n in &self.nodes {
            for &a in &n.local_attempts {
                if !local.insert(a) {
                    issues.push(format!("attempt {a} indexed on two nodes"));
                }
            }
        }
        let runtime: BTreeSet<_> = self.attempts.keys().copied().collect();
        if local != runtime {
            issues.push(format!(
                "node-local attempt index drifted: indexed {}, runtime table {}",
                local.len(),
                runtime.len()
            ));
        }

        // Subsystem index audits (the non-panicking drift checks).
        issues.extend(self.jt.audit_indexes());
        issues.extend(self.nn.audit_indexes());

        // A fully-successful run must end drained: every attempt
        // terminal, no job queued or running, nothing left to commit.
        if self.job_status() == Some(JobStatus::Succeeded) {
            if !self.attempts.is_empty() {
                issues.push(format!(
                    "{} attempt(s) still live after all jobs succeeded",
                    self.attempts.len()
                ));
            }
            let live = self.jt.live_attempt_count();
            if live != 0 {
                issues.push(format!("JobTracker still counts {live} live attempt(s)"));
            }
            let queued = self.jt.queued_job_count();
            if queued != 0 {
                issues.push(format!("{queued} job(s) still queued after success"));
            }
            let active = self.jt.active_job_count();
            if active != 0 {
                issues.push(format!("{active} job(s) still running after success"));
            }
            for &slot in &self.commit_pending {
                // Name the blocks holding the commit hostage — the
                // difference between "horizon cut the run short" and
                // "this block can never reach its factor" is the whole
                // diagnosis.
                let mut blocks = String::new();
                if let Some(out) = self.jobs[slot].output_file {
                    for &b in self.nn.file_blocks(out) {
                        let holders: Vec<String> = self
                            .nn
                            .live_replicas(b)
                            .iter()
                            .map(|&n| {
                                format!(
                                    "{n:?}={:?}/{:?}",
                                    self.nn.node_class(n),
                                    self.nn.node_liveness(n)
                                )
                            })
                            .collect();
                        blocks.push_str(&format!(
                            " [{b:?} want {:?}: {}]",
                            self.nn.file_factor(out),
                            holders.join(", "),
                        ));
                    }
                }
                issues.push(format!(
                    "slot {slot} stuck awaiting commit after success:{blocks}"
                ));
            }
            if self.client_budget_total != 0 {
                issues.push(format!(
                    "{} closed-stream submission(s) still owed after success",
                    self.client_budget_total
                ));
            }
        }
        issues
    }

    /// The world-side job-slot counters (submitted, tasks-incomplete,
    /// committed, closed-stream budget) and the commit-pending set
    /// against a from-scratch recount, one line per discrepancy. Debug
    /// builds assert it is empty at each commit sweep;
    /// [`Self::debug_final_audit`] includes it.
    pub(super) fn audit_job_counters(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let submitted = self
            .jobs
            .iter()
            .filter(|s| s.submitted_at.is_some())
            .count();
        if self.n_submitted as usize != submitted {
            issues.push(format!(
                "submitted-slot counter drifted: counter {}, recount {submitted}",
                self.n_submitted
            ));
        }
        let incomplete = self.jobs.iter().filter(|s| !s.tasks_done).count();
        if self.n_tasks_incomplete != incomplete {
            issues.push(format!(
                "tasks-incomplete counter drifted: counter {}, recount {incomplete}",
                self.n_tasks_incomplete
            ));
        }
        let committed = self.jobs.iter().filter(|s| s.finished_at.is_some()).count();
        if self.n_committed as usize != committed {
            issues.push(format!(
                "committed-slot counter drifted: counter {}, recount {committed}",
                self.n_committed
            ));
        }
        if self.client_budget_total != self.client_budget.iter().sum::<u32>() {
            issues.push(format!(
                "closed-stream budget counter drifted: counter {}, recount {}",
                self.client_budget_total,
                self.client_budget.iter().sum::<u32>()
            ));
        }
        let pending: BTreeSet<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tasks_done && s.finished_at.is_none())
            .map(|(i, _)| i)
            .collect();
        if self.commit_pending != pending {
            issues.push(format!(
                "commit-pending set drifted: tracked {:?}, recount {pending:?}",
                self.commit_pending
            ));
        }
        issues
    }

    /// The sleeper bookkeeping against a from-scratch recount, one line
    /// per discrepancy: each class's sleeper set, that every sleeper is
    /// up, unthrottled and idle, that the NameNode and JobTracker agree
    /// on who sleeps (their own audits check sleepers are out of the
    /// heartbeat-order indexes), and that each class has at most one
    /// armed wake, the planned one. Debug builds assert it is empty at
    /// each commit sweep; [`Self::debug_final_audit`] includes it.
    pub(super) fn audit_sleepers(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let mut sleepers: [BTreeSet<(u64, NodeId)>; 2] = Default::default();
        let mut armed: [Vec<NodeId>; 2] = Default::default();
        for (i, rt) in self.nodes.iter().enumerate() {
            let n = NodeId(i as u32);
            let asleep = rt.asleep_since.is_some();
            if self.nn.is_asleep(n) != asleep {
                issues.push(format!("sleeper flag of {n:?} disagrees with the NameNode"));
            }
            if self.jt.tracker_asleep(n) != asleep {
                issues.push(format!(
                    "sleeper flag of {n:?} disagrees with the JobTracker"
                ));
            }
            let Some(since) = rt.asleep_since else {
                continue;
            };
            let class = self.class(n);
            sleepers[class].insert((self.phase(since), n));
            if !rt.up {
                issues.push(format!("sleeper {n:?} is down"));
            }
            if self.nn.has_io_throttle(n) {
                issues.push(format!("sleeper {n:?} has an I/O throttle"));
            }
            if !rt.local_attempts.is_empty() {
                issues.push(format!(
                    "sleeper {n:?} has {} local attempt(s)",
                    rt.local_attempts.len()
                ));
            }
            if rt.heartbeat_ev != EventId::NONE {
                armed[class].push(n);
            }
        }
        for class in 0..2 {
            if sleepers[class] != self.sleepers[class] {
                issues.push(format!(
                    "class-{class} sleeper set drifted: tracked {}, recount {}",
                    self.sleepers[class].len(),
                    sleepers[class].len()
                ));
            }
            let planned: Vec<NodeId> = self.wakes[class].iter().map(|w| w.node).collect();
            if armed[class] != planned {
                issues.push(format!(
                    "class-{class} wakes drifted: armed {:?}, planned {planned:?}",
                    armed[class]
                ));
            }
        }
        issues
    }
}
