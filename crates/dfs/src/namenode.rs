//! The NameNode: metadata, liveness tracking, placement, and replication
//! control for the MOON file system.
//!
//! This is a *pure state machine*: every method takes the current
//! simulated time and returns decisions (write plans, replication
//! commands). The embedding model (the `moon` crate) turns decisions into
//! simulated I/O flows and calls back `commit_replica` /
//! `replica_failed` when they finish. That keeps the entire policy layer
//! unit-testable without a simulator.

use crate::replication::{adaptive_volatile_degree, ReplicationQueue, ReplicationRequest};
use crate::throttle::IoThrottle;
use crate::types::{BlockId, FileId, FileKind, NodeClass, NodeId, NodeLiveness, ReplicationFactor};
use availability::{SlidingWindowEstimator, UnavailabilityModel};
use rand::seq::SliceRandom;
use rand::Rng;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// NameNode tunables. Defaults follow the paper's experimental setup.
#[derive(Debug, Clone)]
pub struct NameNodeConfig {
    /// No heartbeat for this long → node *hibernates* (MOON, §IV-C).
    pub hibernate_interval: SimDuration,
    /// No heartbeat for this long → node is *dead* (HDFS
    /// `NodeExpiryInterval`).
    pub expiry_interval: SimDuration,
    /// Availability goal for opportunistic files without dedicated
    /// replicas (paper example: 0.9).
    pub availability_goal: f64,
    /// Window `I` of the sliding-window unavailability estimator.
    pub estimator_window: SimDuration,
    /// Estimate reported before any observations.
    pub estimator_prior: f64,
    /// Algorithm 1 window size `W` (in heartbeats).
    pub throttle_window: usize,
    /// Algorithm 1 control threshold `Tb`.
    pub throttle_threshold: f64,
    /// Upper bound on the adaptive volatile degree `v′`.
    pub max_volatile_degree: u32,
    /// Enable adaptive volatile replication (`v → v′` when a dedicated
    /// copy is declined). Disable for the ablation study.
    pub adaptive_replication: bool,
    /// MOON hybrid mode. When false the NameNode behaves like stock HDFS:
    /// no node classes, no hibernation (hibernate = expiry), no throttle,
    /// no adaptive replication.
    pub hybrid: bool,
}

impl Default for NameNodeConfig {
    fn default() -> Self {
        NameNodeConfig {
            hibernate_interval: SimDuration::from_mins(1),
            expiry_interval: SimDuration::from_mins(30),
            availability_goal: 0.9,
            estimator_window: SimDuration::from_mins(10),
            estimator_prior: 0.3,
            throttle_window: 6,
            throttle_threshold: 0.1,
            max_volatile_degree: 8,
            adaptive_replication: true,
            hybrid: true,
        }
    }
}

impl NameNodeConfig {
    /// Stock-HDFS behaviour (the Hadoop baselines in the paper), with the
    /// given expiry interval.
    pub fn hadoop(expiry: SimDuration) -> Self {
        NameNodeConfig {
            hibernate_interval: expiry,
            expiry_interval: expiry,
            hybrid: false,
            ..Default::default()
        }
    }
}

#[derive(Debug)]
struct NodeInfo {
    class: NodeClass,
    liveness: NodeLiveness,
    last_heartbeat: SimTime,
    throttle: Option<IoThrottle>,
    /// The embedding model stopped delivering this node's heartbeats
    /// (see [`NameNode::sleep_node`]): it is out of `heartbeat_order`
    /// and `last_heartbeat` is stale until [`NameNode::wake_node`].
    asleep: bool,
    /// Blocks physically stored on the node (survive death; a node that
    /// returns re-reports them, as an HDFS block report would).
    blocks: BTreeSet<BlockId>,
}

#[derive(Debug)]
struct FileMeta {
    kind: FileKind,
    factor: ReplicationFactor,
    blocks: Vec<BlockId>,
}

#[derive(Debug)]
struct BlockMeta {
    file: FileId,
    size: u64,
    /// Replicas the NameNode believes exist (on non-dead nodes).
    replicas: BTreeSet<NodeId>,
    /// Every node that ever physically held the block, including dead
    /// ones (which keep their data and re-report it on return). Lets
    /// block removal touch only holders instead of the whole fleet.
    holders: BTreeSet<NodeId>,
}

/// Where to write the copies of a new block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// Chosen dedicated targets (may be fewer than requested when
    /// throttled/declined).
    pub dedicated: Vec<NodeId>,
    /// Chosen volatile targets.
    pub volatile: Vec<NodeId>,
    /// True if a requested dedicated copy was declined due to saturation.
    pub dedicated_declined: bool,
    /// The effective volatile degree used (after adaptive adjustment).
    pub effective_volatile: u32,
}

impl WritePlan {
    /// All targets, dedicated first (the pipeline order).
    pub fn targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dedicated.iter().chain(self.volatile.iter()).copied()
    }

    /// Number of targets in the plan.
    pub fn len(&self) -> usize {
        self.dedicated.len() + self.volatile.len()
    }

    /// True if no target could be chosen at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One replica-creation order from the replication scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationCommand {
    /// Block to copy.
    pub block: BlockId,
    /// Node to read from (Active, holds a replica).
    pub source: NodeId,
    /// Node to write to.
    pub target: NodeId,
    /// Size in bytes (for the transfer model).
    pub size: u64,
}

/// Liveness transitions produced by a [`NameNode::check_liveness`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessReport {
    /// Nodes that just entered hibernation.
    pub hibernated: Vec<NodeId>,
    /// Nodes that were just declared dead.
    pub expired: Vec<NodeId>,
}

/// The MOON NameNode.
pub struct NameNode {
    cfg: NameNodeConfig,
    /// Node table indexed by `NodeId` (dense; nodes are never removed).
    nodes: Vec<Option<NodeInfo>>,
    /// File table indexed by `FileId` (dense ids; deletion leaves a hole).
    files: Vec<Option<FileMeta>>,
    /// Block table indexed by `BlockId` (dense ids; deletion leaves a hole).
    blocks: Vec<Option<BlockMeta>>,
    queue: ReplicationQueue,
    /// Opportunistic blocks that were declined a dedicated copy and still
    /// want one (§IV-A "MOON will attempt to have dedicated replicas for
    /// opportunistic files when possible").
    wants_dedicated: BTreeSet<BlockId>,
    estimator: SlidingWindowEstimator,
    /// Active dedicated nodes, ascending id (incrementally maintained so
    /// placement never walks the full node table).
    active_dedicated: BTreeSet<NodeId>,
    /// Active volatile nodes, ascending id.
    active_volatile: BTreeSet<NodeId>,
    /// Non-dead, awake nodes keyed by last heartbeat (oldest first), so
    /// a liveness sweep inspects only nodes silent past the hibernate
    /// threshold instead of the whole fleet.
    heartbeat_order: BTreeSet<(SimTime, NodeId)>,
    /// Registered volatile nodes (estimator denominator).
    n_volatile_total: usize,
    /// Registered dedicated nodes (capacity clamp for replication
    /// demands).
    n_dedicated_total: usize,
    /// Active dedicated nodes whose throttle is currently open.
    unthrottled_active_dedicated: usize,
    /// Reusable exclude-set scratch for the replication scanner.
    scratch_exclude: BTreeSet<NodeId>,
    next_file: u64,
    next_block: u64,
    /// Total replication commands issued (metric).
    pub replication_commands: u64,
    /// Total bytes ordered re-replicated (metric).
    pub replication_bytes: u64,
}

impl NameNode {
    /// A NameNode with no registered nodes.
    pub fn new(cfg: NameNodeConfig) -> Self {
        let estimator = SlidingWindowEstimator::new(cfg.estimator_window, cfg.estimator_prior);
        NameNode {
            cfg,
            nodes: Vec::new(),
            files: Vec::new(),
            blocks: Vec::new(),
            queue: ReplicationQueue::new(),
            wants_dedicated: BTreeSet::new(),
            estimator,
            active_dedicated: BTreeSet::new(),
            active_volatile: BTreeSet::new(),
            heartbeat_order: BTreeSet::new(),
            n_volatile_total: 0,
            n_dedicated_total: 0,
            unthrottled_active_dedicated: 0,
            scratch_exclude: BTreeSet::new(),
            next_file: 0,
            next_block: 0,
            replication_commands: 0,
            replication_bytes: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NameNodeConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Node management
    // ------------------------------------------------------------------

    #[inline]
    fn node_ref(&self, id: NodeId) -> &NodeInfo {
        self.nodes[id.0 as usize].as_ref().expect("unknown node")
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut NodeInfo {
        self.nodes[id.0 as usize].as_mut().expect("unknown node")
    }

    #[inline]
    fn block_ref(&self, b: BlockId) -> Option<&BlockMeta> {
        self.blocks.get(b.0 as usize)?.as_ref()
    }

    #[inline]
    fn block_mut(&mut self, b: BlockId) -> Option<&mut BlockMeta> {
        self.blocks.get_mut(b.0 as usize)?.as_mut()
    }

    #[inline]
    fn file_ref(&self, f: FileId) -> Option<&FileMeta> {
        self.files.get(f.0 as usize)?.as_ref()
    }

    #[inline]
    fn file_mut(&mut self, f: FileId) -> Option<&mut FileMeta> {
        self.files.get_mut(f.0 as usize)?.as_mut()
    }

    /// Registered nodes in id order, as (id, info). Only the drift
    /// checks still walk the full table; every hot path goes through
    /// the maintained indexes.
    fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &NodeInfo)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (NodeId(i as u32), n)))
    }

    /// Drop a node's contributions to the Active-node indexes. The node
    /// must currently be Active.
    fn index_remove_active(&mut self, id: NodeId) {
        let node = self.node_ref(id);
        debug_assert_eq!(node.liveness, NodeLiveness::Active);
        match node.class {
            NodeClass::Dedicated => {
                if !node.throttle.as_ref().is_some_and(|t| t.is_throttled()) {
                    self.unthrottled_active_dedicated -= 1;
                }
                self.active_dedicated.remove(&id);
            }
            NodeClass::Volatile => {
                self.active_volatile.remove(&id);
            }
        }
    }

    /// Add a node's contributions to the Active-node indexes. The node's
    /// liveness must already read Active.
    fn index_insert_active(&mut self, id: NodeId) {
        let node = self.node_ref(id);
        debug_assert_eq!(node.liveness, NodeLiveness::Active);
        match node.class {
            NodeClass::Dedicated => {
                if !node.throttle.as_ref().is_some_and(|t| t.is_throttled()) {
                    self.unthrottled_active_dedicated += 1;
                }
                self.active_dedicated.insert(id);
            }
            NodeClass::Volatile => {
                self.active_volatile.insert(id);
            }
        }
    }

    /// From-scratch recomputation of every incremental index, compared
    /// against the maintained state — the drift check behind the
    /// O(active) refactor. Each discrepancy becomes one line. Debug
    /// builds assert it is empty on every liveness sweep; the end-of-run
    /// audit (`World::debug_final_audit`) runs it in release builds too,
    /// so fuzzing surfaces drift as a finding instead of a
    /// campaign-aborting panic.
    pub fn audit_indexes(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let mut dedicated = BTreeSet::new();
        let mut volatile = BTreeSet::new();
        let mut unthrottled = 0usize;
        let mut n_volatile = 0usize;
        let mut n_dedicated = 0usize;
        let mut order = BTreeSet::new();
        for (id, n) in self.nodes_iter() {
            match n.class {
                NodeClass::Volatile => n_volatile += 1,
                NodeClass::Dedicated => n_dedicated += 1,
            }
            if n.asleep {
                if n.liveness != NodeLiveness::Active {
                    issues.push(format!("namenode sleeper {id:?} is {:?}", n.liveness));
                }
                if n.throttle.is_some() {
                    issues.push(format!("namenode sleeper {id:?} has an I/O throttle"));
                }
            } else if n.liveness != NodeLiveness::Dead {
                order.insert((n.last_heartbeat, id));
            }
            if n.liveness != NodeLiveness::Active {
                continue;
            }
            match n.class {
                NodeClass::Dedicated => {
                    dedicated.insert(id);
                    if !n.throttle.as_ref().is_some_and(|t| t.is_throttled()) {
                        unthrottled += 1;
                    }
                }
                NodeClass::Volatile => {
                    volatile.insert(id);
                }
            }
        }
        if dedicated != self.active_dedicated {
            issues.push("namenode active-dedicated index drifted".into());
        }
        if volatile != self.active_volatile {
            issues.push("namenode active-volatile index drifted".into());
        }
        if n_volatile != self.n_volatile_total {
            issues.push(format!(
                "namenode volatile-count drifted: counter {}, recount {n_volatile}",
                self.n_volatile_total
            ));
        }
        if n_dedicated != self.n_dedicated_total {
            issues.push(format!(
                "namenode dedicated-count drifted: counter {}, recount {n_dedicated}",
                self.n_dedicated_total
            ));
        }
        if unthrottled != self.unthrottled_active_dedicated {
            issues.push(format!(
                "namenode unthrottled-dedicated counter drifted: counter {}, recount {unthrottled}",
                self.unthrottled_active_dedicated
            ));
        }
        let mut indexed = self.heartbeat_order.clone();
        indexed.retain(|&(_, id)| {
            let asleep = self.node_ref(id).asleep;
            if asleep {
                issues.push(format!(
                    "namenode sleeper {id:?} is in the heartbeat-order index"
                ));
            }
            !asleep
        });
        if order != indexed {
            issues.push("namenode heartbeat-order index drifted".into());
        }
        issues
    }

    /// Register a DataNode at simulation start.
    pub fn register_node(&mut self, now: SimTime, id: NodeId, class: NodeClass) {
        let throttle = (self.cfg.hybrid && class == NodeClass::Dedicated)
            .then(|| IoThrottle::new(self.cfg.throttle_window, self.cfg.throttle_threshold));
        if self.nodes.len() <= id.0 as usize {
            self.nodes.resize_with(id.0 as usize + 1, || None);
        }
        if self.nodes[id.0 as usize].is_some() {
            // Re-registration: retire the old identity's index entries.
            let old = self.node_ref(id);
            let (liveness, hb, old_class) = (old.liveness, old.last_heartbeat, old.class);
            if liveness == NodeLiveness::Active {
                self.index_remove_active(id);
            }
            if liveness != NodeLiveness::Dead {
                self.heartbeat_order.remove(&(hb, id));
            }
            match old_class {
                NodeClass::Volatile => self.n_volatile_total -= 1,
                NodeClass::Dedicated => self.n_dedicated_total -= 1,
            }
        }
        self.nodes[id.0 as usize] = Some(NodeInfo {
            class,
            liveness: NodeLiveness::Active,
            last_heartbeat: now,
            throttle,
            asleep: false,
            blocks: BTreeSet::new(),
        });
        match class {
            NodeClass::Volatile => self.n_volatile_total += 1,
            NodeClass::Dedicated => self.n_dedicated_total += 1,
        }
        self.index_insert_active(id);
        self.heartbeat_order.insert((now, id));
        self.observe_estimator(now);
    }

    /// Node class as registered (volatile in non-hybrid mode semantics are
    /// preserved for bookkeeping, but placement ignores the class).
    pub fn node_class(&self, id: NodeId) -> NodeClass {
        self.node_ref(id).class
    }

    /// Does the node's heartbeat bandwidth report feed an I/O throttle?
    /// Only hybrid-mode dedicated nodes have one; every other node's
    /// report is ignored, so the embedding model need not measure it.
    pub fn has_io_throttle(&self, id: NodeId) -> bool {
        self.node_ref(id).throttle.is_some()
    }

    /// Current liveness of a node.
    pub fn node_liveness(&self, id: NodeId) -> NodeLiveness {
        self.node_ref(id).liveness
    }

    /// Stop expecting heartbeats from an Active node with no I/O
    /// throttle: the embedding model knows the node is up and that its
    /// heartbeats would change nothing but `last_heartbeat`. The node
    /// leaves the heartbeat-ordered index, so liveness sweeps skip it,
    /// until [`Self::wake_node`].
    pub fn sleep_node(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        debug_assert!(
            !node.asleep && node.liveness == NodeLiveness::Active && node.throttle.is_none(),
            "only an awake, Active node without a throttle may sleep"
        );
        node.asleep = true;
        let hb = node.last_heartbeat;
        self.heartbeat_order.remove(&(hb, id));
    }

    /// Expect a sleeping node's heartbeats again. `last_heartbeat` is
    /// the time of the last heartbeat it would have sent while asleep.
    pub fn wake_node(&mut self, id: NodeId, last_heartbeat: SimTime) {
        let node = self.node_mut(id);
        debug_assert!(node.asleep, "waking a node that is not asleep");
        node.asleep = false;
        node.last_heartbeat = last_heartbeat;
        self.heartbeat_order.insert((last_heartbeat, id));
    }

    /// Is the node asleep (see [`Self::sleep_node`])?
    pub fn is_asleep(&self, id: NodeId) -> bool {
        self.node_ref(id).asleep
    }

    /// Process a heartbeat carrying the node's consumed I/O bandwidth
    /// (bytes/sec, measured by the embedding model).
    pub fn heartbeat(&mut self, now: SimTime, id: NodeId, io_bandwidth: f64) {
        let node = self.node_mut(id);
        debug_assert!(!node.asleep, "heartbeat from a sleeping node");
        let was = node.liveness;
        let old_hb = node.last_heartbeat;
        let was_open = was == NodeLiveness::Active
            && node.class == NodeClass::Dedicated
            && !node.throttle.as_ref().is_some_and(|t| t.is_throttled());
        node.last_heartbeat = now;
        if let Some(t) = node.throttle.as_mut() {
            t.update(io_bandwidth);
        }
        let node = self.node_ref(id);
        let now_open = node.class == NodeClass::Dedicated
            && !node.throttle.as_ref().is_some_and(|t| t.is_throttled());
        if was != NodeLiveness::Dead {
            self.heartbeat_order.remove(&(old_hb, id));
        }
        self.heartbeat_order.insert((now, id));
        if was == NodeLiveness::Active {
            // Only the throttle can have changed index state.
            match (was_open, now_open) {
                (true, false) => self.unthrottled_active_dedicated -= 1,
                (false, true) => self.unthrottled_active_dedicated += 1,
                _ => {}
            }
            return;
        }
        let was_dead = was == NodeLiveness::Dead;
        self.node_mut(id).liveness = NodeLiveness::Active;
        self.index_insert_active(id);
        if was_dead {
            // Block report: the returning node still has its data.
            let held: Vec<BlockId> = self.node_ref(id).blocks.iter().copied().collect();
            for b in held {
                match self.block_mut(b) {
                    Some(meta) => {
                        meta.replicas.insert(id);
                    }
                    None => {
                        // Block was deleted while the node was away.
                        self.node_mut(id).blocks.remove(&b);
                    }
                }
            }
        }
        self.observe_estimator(now);
    }

    /// Sweep for nodes whose heartbeats have stopped; apply the
    /// hibernate/expiry transitions and queue the re-replications the
    /// paper calls for.
    pub fn check_liveness(&mut self, now: SimTime) -> LivenessReport {
        #[cfg(debug_assertions)]
        {
            let drift = self.audit_indexes();
            assert!(
                drift.is_empty(),
                "NameNode index drift:\n{}",
                drift.join("\n")
            );
        }
        let mut report = LivenessReport::default();
        // The heartbeat-ordered index puts the longest-silent nodes
        // first, so the sweep inspects only nodes past the transition
        // threshold — O(silent), not O(fleet). Hibernated nodes keep
        // their stale heartbeat and are revisited until they expire or
        // return, which bounds the revisit set by the down population.
        let threshold = self.cfg.hibernate_interval.min(self.cfg.expiry_interval);
        let candidates: Vec<NodeId> = self
            .heartbeat_order
            .iter()
            .take_while(|&&(hb, _)| now.since(hb) >= threshold)
            .map(|&(_, id)| id)
            .collect();
        for id in candidates {
            let node = self.node_ref(id);
            let silent = now.since(node.last_heartbeat);
            match node.liveness {
                NodeLiveness::Active => {
                    if silent >= self.cfg.expiry_interval {
                        self.expire_node(id);
                        report.expired.push(id);
                    } else if silent >= self.cfg.hibernate_interval {
                        self.hibernate_node(id);
                        report.hibernated.push(id);
                    }
                }
                NodeLiveness::Hibernated => {
                    if silent >= self.cfg.expiry_interval {
                        self.expire_node(id);
                        report.expired.push(id);
                    }
                }
                NodeLiveness::Dead => {}
            }
        }
        // The index yields silence order; reports stay in id order as
        // the full-table walk produced them.
        report.hibernated.sort_unstable();
        report.expired.sort_unstable();
        if !report.hibernated.is_empty() || !report.expired.is_empty() {
            self.observe_estimator(now);
        }
        report
    }

    fn hibernate_node(&mut self, id: NodeId) {
        self.index_remove_active(id);
        let node = self.node_mut(id);
        node.liveness = NodeLiveness::Hibernated;
        // §IV-C: on (transient) unavailability, re-replicate only
        // opportunistic blocks that lack a dedicated replica.
        let held: Vec<BlockId> = node.blocks.iter().copied().collect();
        for b in held {
            let Some(meta) = self.block_ref(b) else {
                continue;
            };
            let kind = self.file_ref(meta.file).expect("block has a file").kind;
            if kind == FileKind::Opportunistic && !self.has_dedicated_replica(b) {
                let live = self.live_replicas(b).len() as u32;
                self.queue.enqueue(ReplicationRequest {
                    block: b,
                    kind,
                    live_replicas: live,
                });
            }
        }
    }

    fn expire_node(&mut self, id: NodeId) {
        if self.node_ref(id).liveness == NodeLiveness::Active {
            self.index_remove_active(id);
        }
        let hb = self.node_ref(id).last_heartbeat;
        self.heartbeat_order.remove(&(hb, id));
        let node = self.node_mut(id);
        node.liveness = NodeLiveness::Dead;
        let held: Vec<BlockId> = node.blocks.iter().copied().collect();
        for b in held {
            if let Some(meta) = self.block_mut(b) {
                meta.replicas.remove(&id);
            }
            self.enqueue_if_under_replicated(b);
        }
    }

    fn observe_estimator(&mut self, now: SimTime) {
        let (down, total) = self.volatile_down_count();
        self.estimator.observe(now, down, total);
    }

    fn volatile_down_count(&self) -> (usize, usize) {
        let total = self.n_volatile_total;
        let down = total - self.active_volatile.len();
        #[cfg(debug_assertions)]
        {
            let mut scan_down = 0;
            let mut scan_total = 0;
            for n in self.nodes.iter().flatten() {
                if n.class == NodeClass::Volatile {
                    scan_total += 1;
                    if n.liveness != NodeLiveness::Active {
                        scan_down += 1;
                    }
                }
            }
            assert_eq!((down, total), (scan_down, scan_total), "estimator drift");
        }
        (down, total)
    }

    /// The NameNode's current estimate of the volatile-node
    /// unavailability rate `p̂`.
    pub fn estimated_unavailability(&self, now: SimTime) -> f64 {
        self.estimator.estimate(now)
    }

    /// True if at least one dedicated node is Active and unthrottled.
    pub fn dedicated_available_for_opportunistic(&self) -> bool {
        self.unthrottled_active_dedicated > 0
    }

    // ------------------------------------------------------------------
    // Namespace
    // ------------------------------------------------------------------

    /// Create a file of the given kind and replication factor.
    pub fn create_file(&mut self, kind: FileKind, factor: ReplicationFactor) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        debug_assert_eq!(id.0 as usize, self.files.len(), "file ids are dense");
        self.files.push(Some(FileMeta {
            kind,
            factor,
            blocks: Vec::new(),
        }));
        id
    }

    /// Append a block of `size` bytes to `file`.
    pub fn allocate_block(&mut self, file: FileId, size: u64) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        debug_assert_eq!(id.0 as usize, self.blocks.len(), "block ids are dense");
        self.blocks.push(Some(BlockMeta {
            file,
            size,
            replicas: BTreeSet::new(),
            holders: BTreeSet::new(),
        }));
        self.file_mut(file).expect("unknown file").blocks.push(id);
        id
    }

    /// Delete a file and all its blocks.
    pub fn delete_file(&mut self, file: FileId) {
        let Some(meta) = self.files.get_mut(file.0 as usize).and_then(Option::take) else {
            return;
        };
        for b in meta.blocks {
            if let Some(bm) = self.blocks.get_mut(b.0 as usize).and_then(Option::take) {
                for n in bm.holders {
                    self.node_mut(n).blocks.remove(&b);
                }
            }
            self.queue.remove(b);
            self.wants_dedicated.remove(&b);
        }
    }

    /// Remove a single block from its file (e.g. an aborted writer's
    /// allocation that never received replicas).
    pub fn remove_block(&mut self, block: BlockId) {
        if let Some(bm) = self.blocks.get_mut(block.0 as usize).and_then(Option::take) {
            if let Some(fm) = self.file_mut(bm.file) {
                fm.blocks.retain(|&b| b != block);
            }
            for n in bm.holders {
                self.node_mut(n).blocks.remove(&block);
            }
        }
        self.queue.remove(block);
        self.wants_dedicated.remove(&block);
    }

    /// The blocks of a file, in append order.
    pub fn file_blocks(&self, file: FileId) -> &[BlockId] {
        &self.file_ref(file).expect("unknown file").blocks
    }

    /// A file's kind.
    pub fn file_kind(&self, file: FileId) -> FileKind {
        self.file_ref(file).expect("unknown file").kind
    }

    /// A file's replication factor.
    pub fn file_factor(&self, file: FileId) -> ReplicationFactor {
        self.file_ref(file).expect("unknown file").factor
    }

    /// A block's size in bytes.
    pub fn block_size(&self, block: BlockId) -> u64 {
        self.block_ref(block).expect("unknown block").size
    }

    /// Promote an opportunistic file to reliable (output commit, §IV-A)
    /// and queue dedicated replication for blocks that lack it.
    pub fn convert_to_reliable(&mut self, file: FileId) {
        let meta = self.file_mut(file).expect("unknown file");
        if meta.kind == FileKind::Reliable {
            return;
        }
        meta.kind = FileKind::Reliable;
        let blocks = meta.blocks.clone();
        for b in blocks {
            self.wants_dedicated.remove(&b);
            self.enqueue_if_under_replicated(b);
        }
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Every Active node in ascending id order, from the maintained
    /// class indexes (the same sequence a full-table walk produced).
    fn active_nodes_all(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .active_dedicated
            .iter()
            .chain(self.active_volatile.iter())
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// Choose dedicated targets at random, preferring unthrottled nodes
    /// so concurrent writers spread across the dedicated tier instead of
    /// dog-piling a single disk. Throttled nodes are still eligible when
    /// nothing else is left (reliable writes are never declined).
    fn pick_dedicated<R: Rng>(
        &self,
        want: usize,
        exclude: &BTreeSet<NodeId>,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut open: Vec<NodeId> = Vec::new();
        let mut saturated: Vec<NodeId> = Vec::new();
        for &id in &self.active_dedicated {
            if exclude.contains(&id) {
                continue;
            }
            let throttled = self
                .node_ref(id)
                .throttle
                .as_ref()
                .is_some_and(|t| t.is_throttled());
            if throttled {
                saturated.push(id);
            } else {
                open.push(id);
            }
        }
        open.shuffle(rng);
        saturated.shuffle(rng);
        open.extend(saturated);
        open.truncate(want);
        open
    }

    /// Choose volatile targets uniformly at random among Active volatile
    /// nodes (HDFS-style randomized placement), preferring the writing
    /// client's own node first (HDFS writes the first replica locally).
    fn pick_volatile<R: Rng>(
        &self,
        want: usize,
        client: Option<NodeId>,
        exclude: &BTreeSet<NodeId>,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut chosen = Vec::with_capacity(want);
        if want == 0 {
            return chosen;
        }
        if let Some(c) = client {
            if !exclude.contains(&c) {
                if let Some(n) = self.nodes.get(c.0 as usize).and_then(Option::as_ref) {
                    if n.liveness == NodeLiveness::Active && n.class == NodeClass::Volatile {
                        chosen.push(c);
                    }
                }
            }
        }
        let local = chosen.first().copied();
        let mut cands: Vec<NodeId> = self
            .active_volatile
            .iter()
            .copied()
            .filter(|id| !exclude.contains(id) && Some(*id) != local)
            .collect();
        cands.shuffle(rng);
        for id in cands {
            if chosen.len() == want {
                break;
            }
            chosen.push(id);
        }
        chosen
    }

    /// Decide where to write a new block (the paper's Figure 3 decision
    /// process). `client` is the writing node, if any.
    pub fn choose_write_targets<R: Rng>(
        &mut self,
        now: SimTime,
        block: BlockId,
        client: Option<NodeId>,
        rng: &mut R,
    ) -> WritePlan {
        let meta = self.block_ref(block).expect("unknown block");
        let file = self.file_ref(meta.file).expect("block has a file");
        let factor = file.factor;
        let kind = file.kind;
        let exclude: BTreeSet<NodeId> = meta.replicas.clone();

        if !self.cfg.hybrid {
            // Stock HDFS: a single pool, uniform random placement.
            let total = factor.total() as usize;
            let mut cands: Vec<NodeId> = self
                .active_nodes_all()
                .into_iter()
                .filter(|id| !exclude.contains(id))
                .collect();
            let mut chosen = Vec::with_capacity(total);
            if let Some(c) = client {
                if let Some(pos) = cands.iter().position(|&x| x == c) {
                    chosen.push(cands.swap_remove(pos));
                }
            }
            cands.shuffle(rng);
            chosen.extend(cands.into_iter().take(total - chosen.len().min(total)));
            chosen.truncate(total);
            return WritePlan {
                dedicated: Vec::new(),
                volatile: chosen,
                dedicated_declined: false,
                effective_volatile: factor.total(),
            };
        }

        let mut declined = false;
        let dedicated = if factor.dedicated == 0 {
            Vec::new()
        } else {
            match kind {
                // Reliable writes are always satisfied on dedicated nodes.
                FileKind::Reliable => self.pick_dedicated(factor.dedicated as usize, &exclude, rng),
                FileKind::Opportunistic => {
                    if self.dedicated_available_for_opportunistic() {
                        self.pick_dedicated(factor.dedicated as usize, &exclude, rng)
                    } else {
                        declined = true;
                        Vec::new()
                    }
                }
            }
        };

        // Adaptive volatile degree: when an opportunistic block will not
        // get its dedicated copy, raise v to v′ to meet the availability
        // goal under the current estimate p̂ (§IV-A).
        let mut v_eff = factor.volatile;
        if kind == FileKind::Opportunistic && dedicated.is_empty() && factor.dedicated > 0 {
            if self.cfg.adaptive_replication {
                let p = self.estimated_unavailability(now);
                let v_prime = adaptive_volatile_degree(
                    p,
                    self.cfg.availability_goal,
                    self.cfg.max_volatile_degree,
                );
                v_eff = v_eff.max(v_prime);
            }
            self.wants_dedicated.insert(block);
        }

        let mut exclude_v = exclude;
        exclude_v.extend(dedicated.iter().copied());
        let volatile = self.pick_volatile(v_eff as usize, client, &exclude_v, rng);

        WritePlan {
            dedicated,
            volatile,
            dedicated_declined: declined,
            effective_volatile: v_eff,
        }
    }

    /// Pick the replica to serve a read for `client` (§IV-B): the local
    /// copy if Active; for volatile clients, any Active volatile replica
    /// before touching dedicated nodes; dedicated replicas as last resort.
    /// Hibernated and dead replicas are never offered.
    pub fn choose_read_source<R: Rng>(
        &self,
        block: BlockId,
        client: Option<NodeId>,
        rng: &mut R,
    ) -> Option<NodeId> {
        let meta = self.block_ref(block)?;
        let active: Vec<NodeId> = meta
            .replicas
            .iter()
            .copied()
            .filter(|&n| self.node_ref(n).liveness == NodeLiveness::Active)
            .collect();
        if active.is_empty() {
            return None;
        }
        if let Some(c) = client {
            if active.contains(&c) {
                return Some(c);
            }
        }
        let client_is_volatile = client
            .map(|c| self.node_ref(c).class == NodeClass::Volatile)
            .unwrap_or(true);
        let (preferred, fallback): (Vec<NodeId>, Vec<NodeId>) =
            if self.cfg.hybrid && client_is_volatile {
                active
                    .iter()
                    .partition(|&&n| self.node_ref(n).class == NodeClass::Volatile)
            } else {
                (active.clone(), Vec::new())
            };
        let pool = if preferred.is_empty() {
            &fallback
        } else {
            &preferred
        };
        pool.choose(rng).copied()
    }

    // ------------------------------------------------------------------
    // Replica lifecycle
    // ------------------------------------------------------------------

    /// Record that a replica of `block` now exists on `node`.
    pub fn commit_replica(&mut self, block: BlockId, node: NodeId) {
        let Some(meta) = self.block_mut(block) else {
            return;
        };
        meta.replicas.insert(node);
        meta.holders.insert(node);
        self.node_mut(node).blocks.insert(block);
        if self.has_dedicated_replica(block) {
            self.wants_dedicated.remove(&block);
        }
        if self.is_under_replicated(block) {
            // A block can be *born* under-replicated: on a small or
            // busy fleet the write plan may find fewer targets than
            // the factor asks for. Queue maintenance must be symmetric
            // here, or such blocks are invisible to the replication
            // scanner and the owning job can never commit its output.
            self.enqueue_if_under_replicated(block);
        } else {
            self.queue.remove(block);
        }
    }

    /// Record that a planned replica write failed (target died mid-write).
    pub fn replica_failed(&mut self, block: BlockId, _node: NodeId) {
        self.enqueue_if_under_replicated(block);
    }

    /// Replicas on non-dead nodes.
    pub fn live_replicas(&self, block: BlockId) -> Vec<NodeId> {
        self.block_ref(block)
            .map(|m| m.replicas.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Replicas on Active nodes (servable right now).
    pub fn active_replicas(&self, block: BlockId) -> Vec<NodeId> {
        self.block_ref(block)
            .map(|m| {
                m.replicas
                    .iter()
                    .copied()
                    .filter(|&n| self.node_ref(n).liveness == NodeLiveness::Active)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Does the block have a replica on a non-dead dedicated node?
    pub fn has_dedicated_replica(&self, block: BlockId) -> bool {
        self.block_ref(block)
            .map(|m| {
                m.replicas
                    .iter()
                    .any(|&n| self.node_ref(n).class == NodeClass::Dedicated)
            })
            .unwrap_or(false)
    }

    /// Is any replica of the block reachable right now (Active node)?
    pub fn is_block_available(&self, block: BlockId) -> bool {
        self.block_ref(block).is_some_and(|m| {
            m.replicas
                .iter()
                .any(|&n| self.node_ref(n).liveness == NodeLiveness::Active)
        })
    }

    /// Does `node` hold a replica of `block` and currently serve it?
    /// (Allocation-free equivalent of `active_replicas(..).contains(..)`,
    /// for the shuffle hot path.)
    pub fn is_replica_active(&self, block: BlockId, node: NodeId) -> bool {
        self.block_ref(block).is_some_and(|m| {
            m.replicas.contains(&node) && self.node_ref(node).liveness == NodeLiveness::Active
        })
    }

    /// Replication deficit per the class-dependent counting rules:
    /// reliable blocks (and opportunistic blocks with a dedicated copy)
    /// count hibernated replicas as live, so transient outages do not
    /// thrash; opportunistic blocks without dedicated copies count only
    /// Active replicas.
    fn deficit(&self, block: BlockId) -> (u32, u32) {
        let Some(meta) = self.block_ref(block) else {
            return (0, 0);
        };
        let file = self.file_ref(meta.file).expect("block has a file");
        let lenient = file.kind == FileKind::Reliable || self.has_dedicated_replica(block);
        let count = |class: NodeClass| -> u32 {
            meta.replicas
                .iter()
                .filter(|&&n| {
                    let info = self.node_ref(n);
                    info.class == class
                        && (info.liveness == NodeLiveness::Active
                            || (lenient && info.liveness == NodeLiveness::Hibernated))
                })
                .count() as u32
        };
        // A replica occupies a whole node, so no block can ever hold
        // more copies than the registered fleet: clamp the demand to
        // physical capacity, or a factor larger than the cluster would
        // leave the block under-replicated forever (and the owning
        // job's output-commit rule waiting forever with it).
        if !self.cfg.hybrid {
            let cap = (self.n_volatile_total + self.n_dedicated_total) as u32;
            let total_have = count(NodeClass::Dedicated) + count(NodeClass::Volatile);
            return (0, file.factor.total().min(cap).saturating_sub(total_have));
        }
        let d_have = count(NodeClass::Dedicated);
        let v_have = count(NodeClass::Volatile);
        let d_want = match file.kind {
            FileKind::Reliable => file.factor.dedicated,
            // Dedicated copies for opportunistic files are best-effort;
            // the scanner handles `wants_dedicated` separately.
            FileKind::Opportunistic => 0,
        };
        (
            d_want
                .min(self.n_dedicated_total as u32)
                .saturating_sub(d_have),
            file.factor
                .volatile
                .min(self.n_volatile_total as u32)
                .saturating_sub(v_have),
        )
    }

    fn is_under_replicated(&self, block: BlockId) -> bool {
        let (d, v) = self.deficit(block);
        d > 0 || v > 0
    }

    fn enqueue_if_under_replicated(&mut self, block: BlockId) {
        let Some(file) = self.block_ref(block).map(|m| m.file) else {
            return;
        };
        if self.is_under_replicated(block) {
            let kind = self.file_ref(file).expect("block has a file").kind;
            let live = self.live_replicas(block).len() as u32;
            self.queue.enqueue(ReplicationRequest {
                block,
                kind,
                live_replicas: live,
            });
        }
    }

    /// Periodic replication scan: pop up to `max_commands` queued blocks
    /// and emit copy orders. Also opportunistically schedules deferred
    /// dedicated copies (for blocks in `wants_dedicated`) when a dedicated
    /// node is unthrottled.
    pub fn replication_scan<R: Rng>(
        &mut self,
        _now: SimTime,
        max_commands: usize,
        rng: &mut R,
    ) -> Vec<ReplicationCommand> {
        let mut commands = Vec::new();
        let mut requeue = Vec::new();
        // One exclude set for the whole scan (cleared per block), not a
        // fresh BTreeSet allocation per under-replicated block.
        let mut exclude = std::mem::take(&mut self.scratch_exclude);
        while commands.len() < max_commands {
            let Some(req) = self.queue.pop() else { break };
            let block = req.block;
            if self.block_ref(block).is_none() {
                continue;
            }
            let (d_deficit, v_deficit) = self.deficit(block);
            if d_deficit == 0 && v_deficit == 0 {
                continue;
            }
            let sources = self.active_replicas(block);
            let Some(&source) = sources.first() else {
                // No live source right now; try again next scan.
                requeue.push(block);
                continue;
            };
            let bm = self.block_ref(block).expect("checked above");
            let size = bm.size;
            exclude.clear();
            exclude.extend(bm.replicas.iter().copied());
            let mut placed_any = false;
            if self.cfg.hybrid {
                for target in self.pick_dedicated(d_deficit as usize, &exclude, rng) {
                    commands.push(ReplicationCommand {
                        block,
                        source,
                        target,
                        size,
                    });
                    placed_any = true;
                }
                for target in self.pick_volatile(v_deficit as usize, None, &exclude, rng) {
                    commands.push(ReplicationCommand {
                        block,
                        source,
                        target,
                        size,
                    });
                    placed_any = true;
                }
            } else {
                let want = v_deficit as usize;
                let mut cands: Vec<NodeId> = self
                    .active_nodes_all()
                    .into_iter()
                    .filter(|id| !exclude.contains(id))
                    .collect();
                cands.shuffle(rng);
                for target in cands.into_iter().take(want) {
                    commands.push(ReplicationCommand {
                        block,
                        source,
                        target,
                        size,
                    });
                    placed_any = true;
                }
            }
            if !placed_any {
                requeue.push(block);
            }
        }
        // Re-derive the request instead of re-enqueuing the popped copy:
        // the popped `live_replicas` snapshot may be stale, and queue
        // priority must reflect the current replica count.
        for block in requeue {
            self.enqueue_if_under_replicated(block);
        }

        // Deferred dedicated copies for opportunistic blocks, best-effort.
        if self.cfg.hybrid
            && commands.len() < max_commands
            && self.dedicated_available_for_opportunistic()
        {
            let wants: Vec<BlockId> = self.wants_dedicated.iter().copied().collect();
            for block in wants {
                if commands.len() >= max_commands {
                    break;
                }
                if self.block_ref(block).is_none() {
                    self.wants_dedicated.remove(&block);
                    continue;
                }
                if self.has_dedicated_replica(block) {
                    self.wants_dedicated.remove(&block);
                    continue;
                }
                let sources = self.active_replicas(block);
                let Some(&source) = sources.first() else {
                    continue;
                };
                exclude.clear();
                exclude.extend(
                    self.block_ref(block)
                        .expect("checked above")
                        .replicas
                        .iter()
                        .copied(),
                );
                if let Some(&target) = self.pick_dedicated(1, &exclude, rng).first() {
                    commands.push(ReplicationCommand {
                        block,
                        source,
                        target,
                        size: self.block_ref(block).expect("checked above").size,
                    });
                }
            }
        }

        self.scratch_exclude = exclude;
        self.replication_commands += commands.len() as u64;
        self.replication_bytes += commands.iter().map(|c| c.size).sum::<u64>();
        commands
    }

    /// Are all blocks of `file` at (or above) their replication factor?
    /// Used for the output-commit rule: "only after all data blocks of the
    /// output file have reached its replication factor will the job be
    /// marked as complete" (§IV-A).
    pub fn is_fully_replicated(&self, file: FileId) -> bool {
        self.file_ref(file)
            .expect("unknown file")
            .blocks
            .iter()
            .all(|&b| !self.is_under_replicated(b))
    }

    /// Number of pending replication requests (metric / tests).
    pub fn replication_queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Currently active node counts as `(volatile, dedicated)` — the
    /// incrementally maintained liveness sets, O(1). Telemetry gauge.
    pub fn live_node_counts(&self) -> (usize, usize) {
        (self.active_volatile.len(), self.active_dedicated.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// 2 dedicated (n0, n1) + 4 volatile (n2..n5) nodes.
    fn small_cluster(cfg: NameNodeConfig) -> NameNode {
        let mut nn = NameNode::new(cfg);
        for i in 0..2 {
            nn.register_node(t(0), NodeId(i), NodeClass::Dedicated);
        }
        for i in 2..6 {
            nn.register_node(t(0), NodeId(i), NodeClass::Volatile);
        }
        nn
    }

    fn beat_all(nn: &mut NameNode, now: SimTime) {
        for i in 0..6 {
            nn.heartbeat(now, NodeId(i), 0.0);
        }
    }

    #[test]
    fn only_hybrid_dedicated_nodes_have_an_io_throttle() {
        let hybrid = small_cluster(NameNodeConfig::default());
        assert!(hybrid.has_io_throttle(NodeId(0)));
        assert!(!hybrid.has_io_throttle(NodeId(2)));
        let flat = small_cluster(NameNodeConfig::hadoop(SimDuration::from_mins(10)));
        assert!(!flat.has_io_throttle(NodeId(0)));
    }

    #[test]
    fn reliable_write_gets_dedicated_and_volatile_targets() {
        let mut nn = small_cluster(NameNodeConfig::default());
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 2));
        let b = nn.allocate_block(f, 64);
        let plan = nn.choose_write_targets(t(1), b, Some(NodeId(3)), &mut rng());
        assert_eq!(plan.dedicated.len(), 1);
        assert_eq!(plan.volatile.len(), 2);
        assert!(!plan.dedicated_declined);
        assert_eq!(
            plan.volatile[0],
            NodeId(3),
            "first volatile replica is local"
        );
        assert!(plan.dedicated.iter().all(|n| n.0 < 2));
    }

    #[test]
    fn opportunistic_write_declined_when_all_dedicated_throttled() {
        let mut nn = small_cluster(NameNodeConfig {
            throttle_window: 2,
            estimator_window: SimDuration::from_secs(60),
            hibernate_interval: SimDuration::from_secs(60),
            ..Default::default()
        });
        // Saturate both dedicated nodes: warm the window, then plateau.
        for beat in 0..4 {
            for d in 0..2 {
                nn.heartbeat(t(beat), NodeId(d), 100.0);
            }
        }
        for d in 0..2 {
            nn.heartbeat(t(5), NodeId(d), 101.0); // rising within Tb → throttled
        }
        assert!(!nn.dedicated_available_for_opportunistic());
        // Two of four volatile nodes go silent → p̂ trends to 0.5.
        for i in [2, 3] {
            nn.heartbeat(t(100), NodeId(i), 0.0);
        }
        nn.check_liveness(t(100));
        assert_eq!(nn.node_liveness(NodeId(4)), NodeLiveness::Hibernated);
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 1));
        let b = nn.allocate_block(f, 64);
        // By t=200 the 60 s estimator window is entirely at p = 0.5, so
        // v′ = 4 (smallest v with 1 − 0.5^v ≥ 0.9).
        let plan = nn.choose_write_targets(t(200), b, None, &mut rng());
        assert!(plan.dedicated.is_empty());
        assert!(plan.dedicated_declined);
        assert_eq!(plan.effective_volatile, 4);
        assert_eq!(plan.volatile.len(), 2, "only two volatile nodes are up");
    }

    #[test]
    fn reliable_write_ignores_throttle() {
        let mut nn = small_cluster(NameNodeConfig {
            throttle_window: 2,
            ..Default::default()
        });
        for beat in 0..4 {
            for d in 0..2 {
                nn.heartbeat(t(beat), NodeId(d), 100.0);
            }
        }
        for d in 0..2 {
            nn.heartbeat(t(5), NodeId(d), 101.0);
        }
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 1));
        let b = nn.allocate_block(f, 64);
        let plan = nn.choose_write_targets(t(6), b, None, &mut rng());
        assert_eq!(plan.dedicated.len(), 1, "reliable writes always accepted");
    }

    #[test]
    fn hibernate_then_expire_lifecycle() {
        let cfg = NameNodeConfig {
            hibernate_interval: SimDuration::from_mins(1),
            expiry_interval: SimDuration::from_mins(10),
            ..Default::default()
        };
        let mut nn = small_cluster(cfg);
        beat_all(&mut nn, t(0));
        // n2 goes silent.
        for i in [0, 1, 3, 4, 5] {
            nn.heartbeat(t(90), NodeId(i), 0.0);
        }
        let report = nn.check_liveness(t(90));
        assert_eq!(report.hibernated, vec![NodeId(2)]);
        assert_eq!(nn.node_liveness(NodeId(2)), NodeLiveness::Hibernated);
        // Still silent at 10 minutes → dead.
        let report = nn.check_liveness(t(601));
        assert_eq!(report.expired, vec![NodeId(2)]);
        assert_eq!(nn.node_liveness(NodeId(2)), NodeLiveness::Dead);
        // Heartbeat revives it.
        nn.heartbeat(t(700), NodeId(2), 0.0);
        assert_eq!(nn.node_liveness(NodeId(2)), NodeLiveness::Active);
    }

    #[test]
    fn hibernation_rereplicates_only_unprotected_opportunistic() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        // Block A: opportunistic with dedicated copy. Block B:
        // opportunistic volatile-only. Block C: reliable.
        let fa = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 1));
        let ba = nn.allocate_block(fa, 64);
        nn.commit_replica(ba, NodeId(0)); // dedicated
        nn.commit_replica(ba, NodeId(2));
        let fb = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(0, 2));
        let bb = nn.allocate_block(fb, 64);
        nn.commit_replica(bb, NodeId(2));
        nn.commit_replica(bb, NodeId(3));
        let fc = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 1));
        let bc = nn.allocate_block(fc, 64);
        nn.commit_replica(bc, NodeId(1));
        nn.commit_replica(bc, NodeId(2));
        // n2 (holds all three) hibernates.
        for i in [0, 1, 3, 4, 5] {
            nn.heartbeat(t(90), NodeId(i), 0.0);
        }
        nn.check_liveness(t(90));
        // Only bb (opportunistic, no dedicated copy) is queued.
        assert_eq!(nn.replication_queue_len(), 1);
        let cmds = nn.replication_scan(t(91), 10, &mut rng());
        assert!(cmds.iter().all(|c| c.block == bb));
    }

    #[test]
    fn expiry_rereplicates_everything_reliable_first() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let fo = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(0, 2));
        let bo = nn.allocate_block(fo, 64);
        nn.commit_replica(bo, NodeId(2));
        nn.commit_replica(bo, NodeId(3));
        let fr = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 2));
        let br = nn.allocate_block(fr, 64);
        nn.commit_replica(br, NodeId(0));
        nn.commit_replica(br, NodeId(2));
        nn.commit_replica(br, NodeId(3));
        // n2 and n3 die.
        for i in [0, 1, 4, 5] {
            nn.heartbeat(t(3000), NodeId(i), 0.0);
        }
        nn.check_liveness(t(3000));
        assert_eq!(nn.node_liveness(NodeId(2)), NodeLiveness::Dead);
        // Both blocks under-replicated; reliable pops first.
        let cmds = nn.replication_scan(t(3001), 10, &mut rng());
        assert!(!cmds.is_empty());
        assert_eq!(cmds[0].block, br, "reliable file replicates first");
        // All commands target Active nodes and use Active sources.
        for c in &cmds {
            assert_eq!(nn.node_liveness(c.source), NodeLiveness::Active);
            assert_eq!(nn.node_liveness(c.target), NodeLiveness::Active);
        }
    }

    #[test]
    fn dead_node_returning_restores_replicas() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(0, 1));
        let b = nn.allocate_block(f, 64);
        nn.commit_replica(b, NodeId(4));
        for i in [0, 1, 2, 3, 5] {
            nn.heartbeat(t(3000), NodeId(i), 0.0);
        }
        nn.check_liveness(t(3000));
        assert!(nn.live_replicas(b).is_empty());
        assert!(!nn.is_block_available(b));
        nn.heartbeat(t(3100), NodeId(4), 0.0);
        assert_eq!(nn.live_replicas(b), vec![NodeId(4)]);
        assert!(nn.is_block_available(b));
    }

    #[test]
    fn reads_prefer_volatile_replicas_for_volatile_clients() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 1));
        let b = nn.allocate_block(f, 64);
        nn.commit_replica(b, NodeId(0)); // dedicated
        nn.commit_replica(b, NodeId(4)); // volatile
        let mut r = rng();
        for _ in 0..20 {
            let src = nn.choose_read_source(b, Some(NodeId(3)), &mut r).unwrap();
            assert_eq!(src, NodeId(4), "volatile replica must be preferred");
        }
        // Local replica wins outright.
        let src = nn.choose_read_source(b, Some(NodeId(4)), &mut r).unwrap();
        assert_eq!(src, NodeId(4));
        // If the volatile replica's node hibernates, fall back to dedicated.
        for i in [0, 1, 2, 3, 5] {
            nn.heartbeat(t(120), NodeId(i), 0.0);
        }
        nn.check_liveness(t(120));
        let src = nn.choose_read_source(b, Some(NodeId(3)), &mut r).unwrap();
        assert_eq!(src, NodeId(0), "hibernated replica must not serve reads");
    }

    #[test]
    fn output_commit_requires_full_replication() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 1));
        let b = nn.allocate_block(f, 64);
        nn.commit_replica(b, NodeId(3));
        nn.convert_to_reliable(f);
        assert_eq!(nn.file_kind(f), FileKind::Reliable);
        assert!(!nn.is_fully_replicated(f), "missing the dedicated copy");
        let cmds = nn.replication_scan(t(1), 10, &mut rng());
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0].target.0 < 2, "must target a dedicated node");
        nn.commit_replica(b, cmds[0].target);
        assert!(nn.is_fully_replicated(f));
    }

    /// Found by `moon-cli fuzz`: a block whose write plan came up short
    /// (small or busy fleet) was born under-replicated but never
    /// entered the replication queue — nothing ever "lost" a replica —
    /// so the scanner never fixed it and the owning job's output could
    /// never commit. Committing a replica must enqueue the block when a
    /// deficit remains.
    #[test]
    fn block_born_under_replicated_is_queued_and_repaired() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 3));
        let b = nn.allocate_block(f, 64);
        // The write pipeline only found two volatile targets (plus the
        // best-effort dedicated copy); the volatile factor wants three.
        nn.commit_replica(b, NodeId(2));
        nn.commit_replica(b, NodeId(3));
        nn.commit_replica(b, NodeId(0));
        assert!(!nn.is_fully_replicated(f));
        assert_eq!(
            nn.replication_queue_len(),
            1,
            "a short write plan must leave the block queued for repair"
        );
        let cmds = nn.replication_scan(t(1), 10, &mut rng());
        assert_eq!(cmds.len(), 1);
        assert!(
            cmds[0].target.0 >= 2,
            "the deficit is volatile-side, so the copy must land on a volatile node"
        );
        nn.commit_replica(b, cmds[0].target);
        assert!(nn.is_fully_replicated(f));
        assert_eq!(nn.replication_queue_len(), 0);
    }

    #[test]
    fn deferred_dedicated_copy_when_unthrottled() {
        let mut nn = small_cluster(NameNodeConfig {
            throttle_window: 2,
            ..Default::default()
        });
        // Throttle dedicated nodes, write an opportunistic block, then
        // unthrottle and verify the scanner schedules the dedicated copy.
        for beat in 0..4 {
            for d in 0..2 {
                nn.heartbeat(t(beat), NodeId(d), 100.0);
            }
        }
        for d in 0..2 {
            nn.heartbeat(t(5), NodeId(d), 101.0);
        }
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 1));
        let b = nn.allocate_block(f, 64);
        let plan = nn.choose_write_targets(t(6), b, None, &mut rng());
        assert!(plan.dedicated_declined);
        for n in plan.targets() {
            nn.commit_replica(b, n);
        }
        assert!(!nn.has_dedicated_replica(b));
        // Load drops sharply → unthrottled.
        for d in 0..2 {
            nn.heartbeat(t(7), NodeId(d), 10.0);
            nn.heartbeat(t(8), NodeId(d), 5.0);
        }
        assert!(nn.dedicated_available_for_opportunistic());
        let cmds = nn.replication_scan(t(9), 10, &mut rng());
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].block, b);
        assert!(cmds[0].target.0 < 2);
    }

    #[test]
    fn hadoop_mode_is_uniform_and_class_blind() {
        let mut nn = small_cluster(NameNodeConfig::hadoop(SimDuration::from_mins(10)));
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::uniform(3));
        let b = nn.allocate_block(f, 64);
        let plan = nn.choose_write_targets(t(1), b, None, &mut rng());
        assert_eq!(plan.len(), 3);
        assert!(plan.dedicated.is_empty(), "no dedicated awareness");
        // No hibernation in Hadoop mode: silent node goes straight from
        // Active to Dead at the expiry interval.
        for i in [0, 1, 2, 3, 4] {
            nn.heartbeat(t(601), NodeId(i), 0.0);
        }
        let report = nn.check_liveness(t(601));
        assert_eq!(report.expired, vec![NodeId(5)]);
        assert!(report.hibernated.is_empty());
    }

    #[test]
    fn estimator_follows_liveness() {
        let mut nn = small_cluster(NameNodeConfig {
            estimator_prior: 0.0,
            hibernate_interval: SimDuration::from_secs(30),
            ..Default::default()
        });
        beat_all(&mut nn, t(0));
        // 2 of 4 volatile nodes go silent; estimate trends to 0.5.
        for i in [0, 1, 2, 3] {
            for k in 1..40 {
                nn.heartbeat(t(k * 30), NodeId(i), 0.0);
            }
        }
        nn.check_liveness(t(1200));
        let p = nn.estimated_unavailability(t(1800));
        assert!(p > 0.4, "estimate {p} should approach 0.5");
    }

    #[test]
    fn incremental_indexes_survive_randomized_churn() {
        // Random heartbeat/silence churn across every transition pair
        // (Active ⇄ Hibernated ⇄ Dead, throttle open ⇄ closed). Each
        // step cross-checks every maintained index against a
        // from-scratch table scan.
        let cfg = NameNodeConfig {
            hibernate_interval: SimDuration::from_secs(60),
            expiry_interval: SimDuration::from_secs(120),
            throttle_window: 3,
            ..Default::default()
        };
        let mut nn = NameNode::new(cfg);
        for i in 0..3 {
            nn.register_node(t(0), NodeId(i), NodeClass::Dedicated);
        }
        for i in 3..12 {
            nn.register_node(t(0), NodeId(i), NodeClass::Volatile);
        }
        let mut r = StdRng::seed_from_u64(42);
        let mut produced = [false; 3]; // saw a hibernation / expiry / revival
        for step in 1..400u64 {
            let now = t(step * 20);
            for i in 0..12u32 {
                if r.gen_range(0..100u32) < 40 {
                    let was_dead = nn.node_liveness(NodeId(i)) == NodeLiveness::Dead;
                    nn.heartbeat(now, NodeId(i), r.gen_range(0..200u32) as f64);
                    produced[2] |= was_dead;
                }
            }
            let report = nn.check_liveness(now);
            produced[0] |= !report.hibernated.is_empty();
            produced[1] |= !report.expired.is_empty();
            let drift = nn.audit_indexes();
            assert!(drift.is_empty(), "{}", drift.join("\n"));
            let _ = nn.dedicated_available_for_opportunistic();
        }
        assert_eq!(
            produced, [true; 3],
            "churn must exercise hibernate, expiry and revival"
        );
    }

    /// The single recount really catches drift: each maintained index,
    /// corrupted on its own, yields exactly one audit line naming it.
    #[test]
    fn audit_indexes_names_each_corrupted_index() {
        let fresh = || small_cluster(NameNodeConfig::default());
        assert_eq!(fresh().audit_indexes(), Vec::<String>::new());
        type Corrupt = fn(&mut NameNode);
        let cases: [(&str, Corrupt); 6] = [
            ("active-dedicated index", |nn| {
                nn.active_dedicated.remove(&NodeId(0));
            }),
            ("active-volatile index", |nn| {
                nn.active_volatile.remove(&NodeId(2));
            }),
            ("volatile-count", |nn| nn.n_volatile_total += 1),
            ("dedicated-count", |nn| nn.n_dedicated_total -= 1),
            ("unthrottled-dedicated counter", |nn| {
                nn.unthrottled_active_dedicated += 1
            }),
            ("heartbeat-order index", |nn| {
                nn.heartbeat_order.pop_first();
            }),
        ];
        for (name, corrupt) in cases {
            let mut nn = fresh();
            corrupt(&mut nn);
            let audit = nn.audit_indexes();
            assert_eq!(audit.len(), 1, "{name}: {audit:?}");
            assert!(audit[0].contains(name), "{name}: {audit:?}");
        }
    }

    /// A sleeping node is invisible to liveness sweeps, and waking it
    /// with the implied timestamp restores exactly the sweep an always
    /// heartbeating node would see.
    #[test]
    fn sleeper_skips_sweeps_and_wakes_with_its_implied_heartbeat() {
        let mut nn = small_cluster(NameNodeConfig::default());
        nn.sleep_node(NodeId(2));
        assert!(nn.is_asleep(NodeId(2)));
        // Silent far past both thresholds, yet untouched while asleep.
        beat_all_awake(&mut nn, t(3600));
        let report = nn.check_liveness(t(3600));
        assert!(report.hibernated.is_empty() && report.expired.is_empty());
        assert_eq!(nn.node_liveness(NodeId(2)), NodeLiveness::Active);
        // Woken with an implied last beat of t=3597 (it then went down):
        // hibernated once 60 s of silence have passed, not before.
        nn.wake_node(NodeId(2), t(3597));
        assert_eq!(nn.audit_indexes(), Vec::<String>::new());
        assert!(nn.check_liveness(t(3656)).hibernated.is_empty());
        assert_eq!(nn.check_liveness(t(3657)).hibernated, vec![NodeId(2)]);
    }

    fn beat_all_awake(nn: &mut NameNode, now: SimTime) {
        for i in 0..6 {
            if !nn.is_asleep(NodeId(i)) {
                nn.heartbeat(now, NodeId(i), 0.0);
            }
        }
    }

    /// Each sleeper check, violated on its own, yields exactly one
    /// audit line naming it.
    #[test]
    fn audit_indexes_names_each_sleeper_violation() {
        let fresh = || {
            let mut nn = small_cluster(NameNodeConfig::default());
            nn.sleep_node(NodeId(2));
            nn
        };
        assert_eq!(fresh().audit_indexes(), Vec::<String>::new());
        type Corrupt = fn(&mut NameNode);
        let cases: [(&str, Corrupt); 3] = [
            ("sleeper NodeId(2) is Hibernated", |nn| {
                nn.node_mut(NodeId(2)).liveness = NodeLiveness::Hibernated;
                nn.active_volatile.remove(&NodeId(2));
            }),
            ("sleeper NodeId(2) has an I/O throttle", |nn| {
                nn.node_mut(NodeId(2)).throttle = Some(IoThrottle::new(3, 0.9));
            }),
            ("sleeper NodeId(2) is in the heartbeat-order index", |nn| {
                let hb = nn.node_ref(NodeId(2)).last_heartbeat;
                nn.heartbeat_order.insert((hb, NodeId(2)));
            }),
        ];
        for (name, corrupt) in cases {
            let mut nn = fresh();
            corrupt(&mut nn);
            let audit = nn.audit_indexes();
            assert_eq!(audit.len(), 1, "{name}: {audit:?}");
            assert!(audit[0].contains(name), "{name}: {audit:?}");
        }
    }

    #[test]
    fn requeued_request_reflects_current_replica_count() {
        // A popped request that cannot be served is re-derived, not
        // re-enqueued verbatim: its priority must track the replica
        // count as it stands now, not as it stood at first enqueue.
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(0, 3));
        let b = nn.allocate_block(f, 64);
        nn.commit_replica(b, NodeId(2));
        // Queued at 1 live replica.
        nn.replica_failed(b, NodeId(3));
        assert!(nn.queue.contains(b));
        // Its only live source hibernates → the scan pops it, finds no
        // source, and requeues. Meanwhile a second replica appeared, so
        // the re-derived request must carry live_replicas = 2.
        nn.commit_replica(b, NodeId(4));
        for i in [0, 1, 3, 5] {
            nn.heartbeat(t(90), NodeId(i), 0.0);
        }
        nn.check_liveness(t(90));
        let cmds = nn.replication_scan(t(91), 10, &mut rng());
        assert!(cmds.iter().all(|c| c.block != b), "no live source yet");
        assert!(nn.queue.contains(b));
        let req = nn.queue.pop().expect("requeued");
        assert_eq!(req.block, b);
        assert_eq!(
            req.live_replicas, 2,
            "requeue must recompute live replicas, not reuse the stale snapshot"
        );
    }

    #[test]
    fn delete_file_cleans_queue_and_nodes() {
        let mut nn = small_cluster(NameNodeConfig::default());
        beat_all(&mut nn, t(0));
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 2));
        let b = nn.allocate_block(f, 64);
        nn.commit_replica(b, NodeId(2));
        nn.replica_failed(b, NodeId(3));
        assert!(nn.replication_queue_len() > 0);
        nn.delete_file(f);
        assert_eq!(nn.replication_queue_len(), 0);
        let cmds = nn.replication_scan(t(1), 10, &mut rng());
        assert!(cmds.is_empty());
    }
}

#[cfg(test)]
mod remove_block_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn remove_block_purges_everything() {
        let mut nn = NameNode::new(NameNodeConfig::default());
        nn.register_node(t(0), NodeId(0), NodeClass::Dedicated);
        nn.register_node(t(0), NodeId(1), NodeClass::Volatile);
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 1));
        let a = nn.allocate_block(f, 10);
        let b = nn.allocate_block(f, 10);
        nn.commit_replica(a, NodeId(0));
        nn.commit_replica(a, NodeId(1));
        nn.replica_failed(b, NodeId(1)); // b queued for replication
        assert_eq!(nn.file_blocks(f), &[a, b]);
        assert!(nn.replication_queue_len() > 0);
        nn.remove_block(b);
        assert_eq!(nn.file_blocks(f), &[a]);
        assert_eq!(nn.replication_queue_len(), 0);
        // Removing a block with replicas also clears node bookkeeping.
        nn.remove_block(a);
        assert!(nn.file_blocks(f).is_empty());
        assert!(nn.live_replicas(a).is_empty());
        // Scans stay silent.
        let cmds = nn.replication_scan(t(1), 8, &mut StdRng::seed_from_u64(1));
        assert!(cmds.is_empty());
        // Idempotent on unknown blocks.
        nn.remove_block(BlockId(999));
    }

    #[test]
    fn fully_replicated_after_block_removal() {
        let mut nn = NameNode::new(NameNodeConfig::default());
        nn.register_node(t(0), NodeId(0), NodeClass::Dedicated);
        nn.register_node(t(0), NodeId(1), NodeClass::Volatile);
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 1));
        let a = nn.allocate_block(f, 10);
        nn.commit_replica(a, NodeId(0));
        nn.commit_replica(a, NodeId(1));
        let orphan = nn.allocate_block(f, 10); // never written
        assert!(!nn.is_fully_replicated(f));
        nn.remove_block(orphan);
        assert!(nn.is_fully_replicated(f));
    }

    #[test]
    fn replication_demand_is_clamped_to_fleet_capacity() {
        // A factor larger than the registered fleet must not leave the
        // file under-replicated forever: one replica per node is the
        // physical ceiling, hybrid and non-hybrid alike.
        let mut nn = NameNode::new(NameNodeConfig::default()); // 2 ded + 4 vol
        for i in 0..2 {
            nn.register_node(t(0), NodeId(i), NodeClass::Dedicated);
        }
        for i in 2..6 {
            nn.register_node(t(0), NodeId(i), NodeClass::Volatile);
        }
        let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(0, 6));
        let b = nn.allocate_block(f, 10);
        for i in 2..6 {
            nn.commit_replica(b, NodeId(i));
        }
        assert!(
            nn.is_fully_replicated(f),
            "4 volatile replicas on a 4-volatile-node fleet must satisfy v=6"
        );
        // One short of capacity is still under-replicated.
        let g = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(0, 6));
        let c = nn.allocate_block(g, 10);
        for i in 2..5 {
            nn.commit_replica(c, NodeId(i));
        }
        assert!(!nn.is_fully_replicated(g));

        let mut flat = NameNode::new(NameNodeConfig::hadoop(SimDuration::from_mins(10)));
        for i in 0..3 {
            flat.register_node(t(0), NodeId(i), NodeClass::Volatile);
        }
        let h = flat.create_file(FileKind::Opportunistic, ReplicationFactor::uniform(6));
        let d = flat.allocate_block(h, 10);
        for i in 0..3 {
            flat.commit_replica(d, NodeId(i));
        }
        assert!(
            flat.is_fully_replicated(h),
            "non-hybrid demand clamps to the 3-node fleet"
        );
    }
}
