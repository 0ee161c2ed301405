//! The composed simulation world: trace-driven node availability +
//! MOON file system + MapReduce control plane + flow-level I/O.
//!
//! One [`World`] simulates a stream of MapReduce jobs on one cluster
//! under one policy bundle. The default is the paper's single-job run:
//! the input is pre-staged, the job is submitted at t = 1 s, a monitor
//! suspends/resumes each node according to its availability trace, and
//! the run ends when the job's output reaches its replication factor
//! (or the horizon passes — a DNF, which the paper also observed for
//! plain Hadoop at high volatility). With a
//! [`workloads::JobStream`], N jobs coexist: each [`JobSlot`] below
//! tracks one job's staging, shuffle bookkeeping, and output commit,
//! while the JobTracker's cross-job policy (FIFO or fair share)
//! arbitrates slots between them.
//!
//! ## Structure
//!
//! The world is decomposed into event-dispatched subsystems, one file
//! per subsystem, all operating on the shared [`World`] context:
//!
//! | module       | events handled                                       |
//! |--------------|------------------------------------------------------|
//! | `nodes`    | `NodeDown`, `NodeUp`, `Heartbeat`                    |
//! | `attempts` | `ComputeDone`, `PhaseRetry`, `NetPoll`, `FlowStallTimeout` |
//! | `shuffle`  | `ShuffleTick` (plus fetch completion/timeout from `attempts`) |
//! | `commit`   | `Submit`, `TrackerCheck`, `ReplicationScan`          |
//!
//! [`Model::handle`] below is a thin dispatcher: it records the
//! dispatch position, routes each event to its subsystem, and ends with
//! the `nodes` subsystem's O(1) check for sleepers to wake. Cross-subsystem
//! interactions (a finished map waking shuffling reduces, a heartbeat
//! starting attempts) go through `pub(super)` methods on [`World`], so
//! the seams are explicit and a future PR can shard or parallelize a
//! subsystem without touching the others.

mod attempts;
mod commit;
mod diag;
mod nodes;
mod shuffle;
mod telemetry;
#[cfg(test)]
mod tests;

use crate::config::{ClusterConfig, PolicyConfig};
use crate::metrics::RunMetrics;
use attempts::AttemptRt;
use availability::{AvailabilityTrace, TraceGenerator, Transition};
use dfs::{BlockId, FileId, NameNode, NodeClass, NodeId};
use mapred::{AttemptId, JobId, JobStatus, JobTracker};
use netsim::{Changes, FlowId, FlowNet, ResourceId};
use simkit::{Ctx, EventId, Model, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use workloads::{ArrivalModel, JobStream, WorkloadSpec};

/// Events of the world model.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A node's availability trace says it goes down now.
    NodeDown(NodeId),
    /// A node's availability trace says it comes back now.
    NodeUp(NodeId),
    /// Combined TaskTracker + DataNode heartbeat for a node.
    Heartbeat(NodeId),
    /// Periodic JobTracker tracker sweep + NameNode liveness sweep.
    TrackerCheck,
    /// Periodic NameNode replication scan (also checks job commit).
    ReplicationScan,
    /// The flow network predicts a completion at this instant.
    NetPoll,
    /// An attempt's compute phase finishes now (unless it was paused).
    ComputeDone(AttemptId),
    /// A stalled flow's patience ran out.
    FlowStallTimeout(FlowId),
    /// Periodic shuffle service tick for a reduce attempt: retries
    /// waiting fetches and reports unreachable map outputs as fetch
    /// failures (a real reducer's connection attempt fails immediately).
    ShuffleTick(AttemptId),
    /// An attempt retries a stalled read/write phase.
    PhaseRetry(AttemptId),
    /// Submit the job in this arrival slot of the world (slot indexes
    /// follow submission-schedule order).
    Submit(u32),
}

/// Per-node runtime state: liveness plus the node's physical resources
/// in the flow network.
struct NodeRt {
    up: bool,
    disk: ResourceId,
    nic_up: ResourceId,
    nic_down: ResourceId,
    heartbeat_ev: EventId,
    /// Live attempts running on this node (mirror of `World::attempts`
    /// filtered by node, so per-node sweeps — heartbeats, suspends,
    /// resumes — do not scan every attempt in the world). Ordered, so
    /// iteration matches a filtered scan of the attempts map.
    local_attempts: BTreeSet<AttemptId>,
    /// Asleep since this real heartbeat: the node's later beats are
    /// implied at `since + k·heartbeat_interval` until it wakes (see
    /// `nodes`). `None` while awake.
    asleep_since: Option<SimTime>,
}

/// What a flow in the network is doing, keyed by [`FlowId`] in
/// [`World::flows`]. Subsystems attach a purpose when they start a flow;
/// the `NetPoll` driver dispatches completions back by purpose.
#[derive(Debug)]
pub(super) enum FlowPurpose {
    /// Map-input read or intermediate/output write for an attempt.
    Attempt(AttemptId),
    /// A shuffle batch: reduce attempt fetching these map indexes.
    Fetch {
        /// The fetching reduce attempt.
        attempt: AttemptId,
        /// Map indexes bundled in this batch.
        maps: Vec<u32>,
    },
    /// NameNode-ordered re-replication.
    Replication {
        /// Block being re-replicated.
        block: BlockId,
        /// Destination node.
        target: NodeId,
    },
}

/// Per-job runtime state: one submitted (or yet-to-arrive) job's
/// staging, shuffle bookkeeping, and output commit. The single-job
/// world of the paper is the one-slot special case.
pub(super) struct JobSlot {
    pub(super) workload: WorkloadSpec,
    /// JobTracker id, assigned at submission.
    pub(super) job: Option<JobId>,
    pub(super) input_blocks: Vec<BlockId>,
    pub(super) output_file: Option<FileId>,
    pub(super) n_reduces: u32,
    /// Committed output of each completed map task, indexed by map index.
    pub(super) map_outputs: Vec<Option<(FileId, BlockId)>>,
    /// Every task completed (output commit may still be replicating).
    pub(super) tasks_done: bool,
    /// When the job was submitted to the JobTracker.
    pub(super) submitted_at: Option<SimTime>,
    /// When the job's output reached its replication factor.
    pub(super) finished_at: Option<SimTime>,
    /// Closed-stream client that submits its next job once this one
    /// commits (None for open/batch arrivals and single-job runs).
    pub(super) client: Option<u32>,
    /// Stream cycling index of this slot — the same index that picked
    /// its workload, reused at submit to pick its scheduling metadata.
    pub(super) stream_index: u32,
}

impl JobSlot {
    fn new(workload: WorkloadSpec, client: Option<u32>, stream_index: u32) -> Self {
        let n_maps = workload.n_maps as usize;
        JobSlot {
            workload,
            job: None,
            input_blocks: Vec::new(),
            output_file: None,
            n_reduces: 0,
            map_outputs: vec![None; n_maps],
            tasks_done: false,
            submitted_at: None,
            finished_at: None,
            client,
            stream_index,
        }
    }
}

/// The full simulation model (implements [`simkit::Model`]).
///
/// `World` is the shared context every subsystem operates on: the
/// subsystem modules (`nodes`, `attempts`, `shuffle`, `commit`)
/// extend it with `pub(super)` handler methods, and this module owns
/// construction, the shared helpers, and the event dispatcher.
pub struct World {
    cluster: ClusterConfig,
    policy: PolicyConfig,
    /// Workload of single-job runs and the fallback for stream jobs.
    base_workload: WorkloadSpec,
    /// The arrival stream (None = the paper's single-job run).
    stream: Option<JobStream>,
    /// Per-client remaining submissions for closed streams.
    client_budget: Vec<u32>,
    traces: Vec<AvailabilityTrace>,
    nodes: Vec<NodeRt>,
    net: FlowNet,
    nn: NameNode,
    jt: JobTracker,
    /// One slot per job (created up front for batch/Poisson arrivals,
    /// incrementally for closed streams).
    jobs: Vec<JobSlot>,
    /// JobTracker id → slot index.
    job_slots: HashMap<JobId, usize>,
    /// Slots submitted so far (monotone). With the counters below this
    /// makes the per-heartbeat `control_plane_active` check O(1)
    /// instead of a walk over every slot the run will ever have.
    n_submitted: u32,
    /// Slots whose tasks have not all completed yet.
    n_tasks_incomplete: usize,
    /// Slots whose output commit has been stamped.
    n_committed: u32,
    /// Sum of `client_budget` (remaining closed-stream submissions).
    client_budget_total: u32,
    /// Slots with tasks done but output not yet fully replicated — the
    /// per-scan commit sweep visits only these, in slot order.
    commit_pending: BTreeSet<usize>,
    /// Slots created per closed-stream client (the workload-cycling
    /// index for that client's next job).
    client_slot_count: Vec<u32>,
    attempts: BTreeMap<AttemptId, AttemptRt>,
    /// Purpose of every open flow. Never iterated (order-free), so a
    /// hash map keeps the per-flow bookkeeping O(1).
    flows: HashMap<FlowId, FlowPurpose>,
    stall_timeouts: HashMap<FlowId, EventId>,
    net_poll_ev: EventId,
    /// Idle nodes whose heartbeats are implied rather than dispatched,
    /// per tracker class (index 1 = dedicated), keyed by (phase of the
    /// node's heartbeat ticks within the interval, node): from any
    /// position, the next sleeper to tick is the next key, circularly.
    sleepers: [BTreeSet<(u64, NodeId)>; 2],
    /// Per class, the one sleeper heartbeat scheduled as a wake.
    wakes: [Option<nodes::Wake>; 2],
    /// The furthest (instant, tie rank) dispatched so far: every
    /// heartbeat tick at or before it has happened.
    frontier: nodes::Pos,
    /// `control_plane_active()` after the previous dispatch.
    cp_active: bool,
    /// The heartbeat interval is positive and shorter than every
    /// liveness threshold, so an up node is never suspended, hibernated
    /// or expired between two of its beats: the premise of sleeping.
    can_sleep: bool,
    /// Peak concurrently-active (submitted, not yet committed) jobs —
    /// perf-log gauge.
    peak_active_jobs: u32,
    /// Telemetry recorder and span scratch; `None` (the default) keeps
    /// every instrumentation hook on a single null-check fast path.
    telemetry: Option<Box<telemetry::TelemetryState>>,
    /// Measured results.
    pub metrics: RunMetrics,
}

impl World {
    /// Build a single-job world — the paper's experimental setup. Call
    /// [`World::init`] on the simulation afterwards.
    pub fn new(cluster: ClusterConfig, policy: PolicyConfig, workload: WorkloadSpec) -> Self {
        Self::with_stream(cluster, policy, workload, None)
    }

    /// Build a world that serves `stream` (multi-job), or the classic
    /// single-job run when `stream` is `None`.
    pub fn with_stream(
        cluster: ClusterConfig,
        policy: PolicyConfig,
        workload: WorkloadSpec,
        stream: Option<JobStream>,
    ) -> Self {
        let nn = NameNode::new(policy.namenode.clone());
        let mut jt = JobTracker::new(policy.scheduler.clone(), policy.fetch)
            .with_cross_job(policy.cross_job)
            .with_preemption(policy.preempt);
        if let Some(s) = &stream {
            jt = jt.with_tenants(s.tenant_weights.clone(), s.tenant_min_slots.clone());
        }
        // Pre-create job slots for arrivals known up front; closed
        // streams start with one slot per client and grow on commit.
        let mut jobs = Vec::new();
        let mut client_budget = Vec::new();
        match &stream {
            None => jobs.push(JobSlot::new(workload.clone(), None, 0)),
            Some(s) => match &s.arrivals {
                ArrivalModel::Batch(offsets) => {
                    for k in 0..offsets.len() as u32 {
                        jobs.push(JobSlot::new(s.workload_for(k, &workload).clone(), None, k));
                    }
                }
                ArrivalModel::Poisson { count, .. } => {
                    for k in 0..*count {
                        jobs.push(JobSlot::new(s.workload_for(k, &workload).clone(), None, k));
                    }
                }
                ArrivalModel::Closed {
                    clients,
                    jobs_per_client,
                    ..
                } => {
                    for c in 0..*clients {
                        jobs.push(JobSlot::new(
                            s.workload_for(c, &workload).clone(),
                            Some(c),
                            c,
                        ));
                        client_budget.push(jobs_per_client.saturating_sub(1));
                    }
                }
            },
        }
        let n_slots = jobs.len();
        let client_budget_total = client_budget.iter().sum();
        let client_slot_count = vec![1; client_budget.len()];
        let hb = cluster.heartbeat_interval;
        let can_sleep = hb > SimDuration::ZERO
            && [
                policy.namenode.hibernate_interval,
                policy.namenode.expiry_interval,
                policy.scheduler.suspension_interval(),
                policy.scheduler.tracker_expiry(),
            ]
            .iter()
            .all(|&threshold| hb < threshold);
        World {
            cluster,
            policy,
            base_workload: workload,
            stream,
            client_budget,
            traces: Vec::new(),
            nodes: Vec::new(),
            net: FlowNet::new(),
            nn,
            jt,
            jobs,
            job_slots: HashMap::new(),
            n_submitted: 0,
            n_tasks_incomplete: n_slots,
            n_committed: 0,
            client_budget_total,
            commit_pending: BTreeSet::new(),
            client_slot_count,
            attempts: BTreeMap::new(),
            flows: HashMap::new(),
            stall_timeouts: HashMap::new(),
            net_poll_ev: EventId::NONE,
            sleepers: Default::default(),
            wakes: [None; 2],
            frontier: (SimTime::ZERO, 0),
            cp_active: false,
            can_sleep,
            peak_active_jobs: 0,
            telemetry: None,
            metrics: RunMetrics::default(),
        }
    }

    /// Register nodes, stage input, and schedule the boot events.
    /// `sim` must be a fresh simulation over this world.
    pub fn init(sim: &mut simkit::Simulation<World>) {
        let n_nodes = sim.model().cluster.n_nodes();
        // Resources + traces.
        for i in 0..n_nodes {
            let (disk_bw, nic_bw) = {
                let w = sim.model();
                (w.cluster.disk_bandwidth, w.cluster.nic_bandwidth)
            };
            let trace = {
                let w = sim.model();
                if let Some(overrides) = &w.cluster.trace_overrides {
                    overrides
                        .get(i as usize)
                        .cloned()
                        .unwrap_or_else(|| AvailabilityTrace::always_available(w.cluster.horizon))
                } else if w.cluster.is_dedicated(i) || w.cluster.unavailability <= 0.0 {
                    AvailabilityTrace::always_available(w.cluster.horizon)
                } else {
                    let cfg = w.cluster.trace.clone();
                    // Per-node trace stream derived from the sim's root seed.
                    let seed = simkit::derive_seed(sim_seed(sim), 0x7000 + i as u64);
                    let mut r = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                    TraceGenerator::poisson_insertion(&cfg, &mut r)
                }
            };
            let w = sim.model_mut();
            let disk = w.net.add_resource(disk_bw);
            let nic_up = w.net.add_resource(nic_bw);
            let nic_down = w.net.add_resource(nic_bw);
            w.nodes.push(NodeRt {
                up: true,
                disk,
                nic_up,
                nic_down,
                heartbeat_ev: EventId::NONE,
                local_attempts: BTreeSet::new(),
                asleep_since: None,
            });
            w.traces.push(trace);
        }
        // Register with NameNode and JobTracker.
        {
            let w = sim.model_mut();
            for i in 0..n_nodes {
                let node = NodeId(i);
                let class = if w.cluster.is_dedicated(i) {
                    NodeClass::Dedicated
                } else {
                    NodeClass::Volatile
                };
                w.nn.register_node(SimTime::ZERO, node, class);
                w.jt.register_tracker(
                    SimTime::ZERO,
                    node,
                    w.cluster.map_slots,
                    w.cluster.reduce_slots,
                    class == NodeClass::Dedicated,
                );
            }
        }
        // Schedule trace transitions.
        for i in 0..n_nodes {
            let transitions: Vec<(SimTime, Transition)> =
                sim.model().traces[i as usize].transitions().collect();
            for (at, tr) in transitions {
                match tr {
                    Transition::Down => sim.schedule_at(at, Ev::NodeDown(NodeId(i))),
                    Transition::Up => sim.schedule_at(at, Ev::NodeUp(NodeId(i))),
                };
            }
        }
        // Heartbeats, staggered so they do not all land on one instant.
        for i in 0..n_nodes {
            let ev = sim.schedule(
                SimDuration::from_micros(50_000 * i as u64 + 1),
                Ev::Heartbeat(NodeId(i)),
            );
            sim.model_mut().nodes[i as usize].heartbeat_ev = ev;
        }
        let tci = sim.model().cluster.tracker_check_interval;
        sim.schedule(tci, Ev::TrackerCheck);
        let rsi = sim.model().cluster.replication_scan_interval;
        sim.schedule(rsi, Ev::ReplicationScan);
        // Job submissions. The paper's single job arrives at t = 1 s;
        // stream arrivals are offsets from that base instant. Poisson
        // inter-arrival gaps derive from the root seed on a dedicated
        // key, so the jobs' own randomness (placement, task durations)
        // is untouched.
        let base = SimDuration::from_secs(1);
        let arrivals = sim.model().stream.as_ref().map(|s| s.arrivals.clone());
        match arrivals {
            None => {
                sim.schedule(base, Ev::Submit(0));
            }
            Some(ArrivalModel::Batch(offsets)) => {
                for (k, off) in offsets.iter().enumerate() {
                    sim.schedule(base + *off, Ev::Submit(k as u32));
                }
            }
            Some(ArrivalModel::Poisson {
                rate_per_hour,
                count,
            }) => {
                let seed = simkit::derive_seed(sim_seed(sim), ARRIVAL_SEED_KEY);
                let mut r = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                let mut at = base;
                for k in 0..count {
                    sim.schedule(at, Ev::Submit(k));
                    at += ArrivalModel::sample_poisson_gap(rate_per_hour, &mut r);
                }
            }
            Some(ArrivalModel::Closed { clients, .. }) => {
                // The initial burst: one job per client at the base
                // instant; successors are scheduled on commit.
                for c in 0..clients {
                    sim.schedule(base, Ev::Submit(c));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared helpers, used by every subsystem module
    // ------------------------------------------------------------------

    fn node(&self, n: NodeId) -> &NodeRt {
        &self.nodes[n.0 as usize]
    }

    /// Slot index of a submitted job.
    fn slot_of(&self, job: JobId) -> usize {
        self.job_slots[&job]
    }

    /// The job slot an attempt belongs to.
    pub(super) fn slot_for(&self, id: AttemptId) -> &JobSlot {
        &self.jobs[self.slot_of(id.task.job)]
    }

    /// Mutable job slot for an attempt.
    pub(super) fn slot_for_mut(&mut self, id: AttemptId) -> &mut JobSlot {
        let s = self.slot_of(id.task.job);
        &mut self.jobs[s]
    }

    /// Is the MapReduce control plane live? The TaskTracker half of
    /// the heartbeat runs from the first submission until the last
    /// job's tasks complete — *including* idle gaps between stream
    /// arrivals (an unsubmitted slot or an owed closed-stream
    /// successor keeps it on), where withholding heartbeats would make
    /// the JobTracker suspend and expire perfectly healthy trackers:
    /// its liveness sweep only sees `last_heartbeat`. Off before any
    /// submission and in the final output-replication tail, exactly as
    /// in the single-job run.
    pub(super) fn control_plane_active(&self) -> bool {
        self.n_submitted > 0 && (self.n_tasks_incomplete > 0 || self.more_submissions_pending())
    }

    /// Resource chain for a transfer src → dst (skipping the network for
    /// local transfers).
    fn transfer_path(&self, src: NodeId, dst: NodeId) -> Vec<ResourceId> {
        if src == dst {
            vec![self.node(src).disk]
        } else {
            vec![
                self.node(src).disk,
                self.node(src).nic_up,
                self.node(dst).nic_down,
                self.node(dst).disk,
            ]
        }
    }

    /// Resource chain for a replication pipeline client → t1 → t2 → …
    fn pipeline_path(&self, client: NodeId, targets: &[NodeId]) -> Vec<ResourceId> {
        let mut path = Vec::with_capacity(targets.len() * 3);
        let mut prev = client;
        for &t in targets {
            if t != prev {
                path.push(self.node(prev).nic_up);
                path.push(self.node(t).nic_down);
            }
            path.push(self.node(t).disk);
            prev = t;
        }
        if path.is_empty() {
            path.push(self.node(client).disk);
        }
        path
    }

    /// Reschedule the single flow-completion poll event.
    fn resched_net_poll(&mut self, ctx: &mut Ctx<'_, Ev>) {
        ctx.cancel(self.net_poll_ev);
        self.net_poll_ev = match self.net.next_completion() {
            Some(at) => ctx.schedule_at(at.max(ctx.now()), Ev::NetPoll),
            None => EventId::NONE,
        };
    }

    /// React to flows crossing zero rate: start/stop stall timers.
    fn apply_changes(&mut self, ctx: &mut Ctx<'_, Ev>, changes: Changes) {
        for f in changes.stalled {
            if self.stall_timeouts.contains_key(&f) {
                continue;
            }
            let timeout = match self.flows.get(&f) {
                Some(FlowPurpose::Fetch { .. }) => self.cluster.fetch_timeout,
                Some(_) => self.cluster.io_timeout,
                None => continue,
            };
            let ev = ctx.schedule(timeout, Ev::FlowStallTimeout(f));
            self.stall_timeouts.insert(f, ev);
        }
        for f in changes.resumed {
            if let Some(ev) = self.stall_timeouts.remove(&f) {
                ctx.cancel(ev);
            }
        }
    }

    fn drop_flow_records(&mut self, ctx: &mut Ctx<'_, Ev>, flow: FlowId) {
        self.flows.remove(&flow);
        if let Some(ev) = self.stall_timeouts.remove(&flow) {
            ctx.cancel(ev);
        }
    }

    // ------------------------------------------------------------------
    // Run-completion accessors used by the experiment driver
    // ------------------------------------------------------------------

    /// Overall status across the run's jobs, if any was submitted:
    /// `Failed` if any job failed, `Running` while any is incomplete
    /// (or still to arrive), `Succeeded` once every job succeeded. For
    /// a single-job run this is exactly that job's status.
    pub fn job_status(&self) -> Option<JobStatus> {
        let statuses: Vec<JobStatus> = self
            .jobs
            .iter()
            .filter_map(|s| s.job)
            .map(|j| self.jt.job_status(j))
            .collect();
        if statuses.is_empty() {
            return None;
        }
        if statuses.contains(&JobStatus::Failed) {
            Some(JobStatus::Failed)
        } else if statuses.len() == self.jobs.len()
            && !self.more_submissions_pending()
            && statuses.iter().all(|&s| s == JobStatus::Succeeded)
        {
            Some(JobStatus::Succeeded)
        } else {
            Some(JobStatus::Running)
        }
    }

    /// Aggregate JobTracker counters across the run's jobs (a
    /// single-job run reports exactly that job's counters).
    pub fn job_metrics(&self) -> Option<mapred::JobMetrics> {
        let mut total: Option<mapred::JobMetrics> = None;
        for slot in &self.jobs {
            if let Some(j) = slot.job {
                let m = self.jt.job_metrics(j);
                match &mut total {
                    None => total = Some(m),
                    Some(t) => t.accumulate(&m),
                }
            }
        }
        total
    }

    /// Closed streams keep injecting jobs after commits; is any such
    /// future submission still owed? O(1) via the maintained budget sum.
    fn more_submissions_pending(&self) -> bool {
        self.client_budget_total > 0
    }

    /// Per-job service-level rows for the run (submission, queueing
    /// delay, makespan), in submission-slot order. Empty before any
    /// job is submitted.
    pub fn job_slo_rows(&self) -> Vec<crate::metrics::JobSlo> {
        self.jobs
            .iter()
            .filter(|s| s.job.is_some())
            .map(|slot| {
                let job = slot.job.expect("filtered");
                let submitted = slot.submitted_at.expect("submitted with id");
                let first_launch = self.jt.job_first_launch(job);
                let spec = self.jt.job_spec(job);
                crate::metrics::JobSlo {
                    job: job.0,
                    workload: slot.workload.name.clone(),
                    submitted,
                    first_launch,
                    finished: slot.finished_at,
                    deadline: spec.deadline,
                    priority: spec.priority,
                    tenant: spec.tenant,
                    metrics: self.jt.job_metrics(job),
                }
            })
            .collect()
    }

    /// Perf-log gauges: (jobs submitted, peak concurrently active).
    pub fn job_gauges(&self) -> (u32, u32) {
        let submitted = self.jobs.iter().filter(|s| s.job.is_some()).count() as u32;
        (submitted, self.peak_active_jobs)
    }

    /// The NameNode (read access for tests and metrics).
    pub fn namenode(&self) -> &NameNode {
        &self.nn
    }

    /// Flow-network re-sharing counters (behind `MOON_PERF_LOG=1`).
    pub fn net_stats(&self) -> netsim::NetStats {
        self.net.stats()
    }
}

impl Model for World {
    type Event = Ev;

    /// Thin dispatcher: route each event to its subsystem module, then
    /// let the node subsystem wake sleepers the event may concern.
    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let pos = (ctx.now(), Self::tie_rank(&ev));
        let prev = self.frontier;
        self.frontier = prev.max(pos);
        if self.telemetry.is_some() {
            self.telemetry_catch_up(prev, pos);
        }
        match ev {
            // nodes: availability transitions and heartbeats
            Ev::NodeDown(n) => self.on_node_down(ctx, n),
            Ev::NodeUp(n) => self.on_node_up(ctx, n),
            Ev::Heartbeat(n) => self.on_heartbeat(ctx, n),
            // attempts: phase I/O drivers
            Ev::NetPoll => self.on_net_poll(ctx),
            Ev::ComputeDone(id) => self.on_compute_done(ctx, id),
            Ev::FlowStallTimeout(f) => self.on_flow_stall_timeout(ctx, f),
            Ev::PhaseRetry(id) => self.on_phase_retry(ctx, id),
            // shuffle: fetch service
            Ev::ShuffleTick(id) => self.on_shuffle_tick(ctx, id),
            // commit: job submission, liveness sweeps, replication
            Ev::Submit(slot) => self.on_submit(ctx, slot),
            Ev::TrackerCheck => self.on_tracker_check(ctx),
            Ev::ReplicationScan => self.on_replication_scan(ctx),
        }
        self.after_dispatch(ctx);
    }

    /// Heartbeats run last within an instant, in node-id order; every
    /// other event keeps FIFO order ahead of them. So a heartbeat's
    /// place never depends on when it was scheduled (DESIGN.md §7).
    fn tie_rank(ev: &Ev) -> u64 {
        match ev {
            Ev::Heartbeat(n) => 1 + u64::from(n.0),
            _ => 0,
        }
    }

    /// Telemetry gauge sampling. Disabled runs take the `None` branch
    /// and return; enabled runs sample only when the sim-time cadence
    /// is due. Runs outside the scheduling surface (no `Ctx`), so it
    /// cannot perturb the event sequence or RNG draws.
    fn observe(&mut self, stats: &simkit::DispatchStats) {
        let Some(t) = &mut self.telemetry else {
            return;
        };
        t.last_dispatch = (stats.events_handled, stats.queue_depth);
        if t.rec.due(stats.now) {
            self.telemetry_sample(stats.now, stats.events_handled, stats.queue_depth);
        }
    }
}

/// The root seed of a simulation (exposed for trace derivation).
fn sim_seed(sim: &simkit::Simulation<World>) -> u64 {
    // RngPool is owned by the Simulation; we derive trace seeds from the
    // same root so runs are reproducible end to end.
    sim.root_seed()
}

/// Seed-derivation key for Poisson arrival-time precomputation.
/// Disjoint from the per-node trace keys (`0x7000 + i`), so a
/// multi-job run replays the same fleet as the single-job run.
const ARRIVAL_SEED_KEY: u64 = 0xA881_7A0B;
