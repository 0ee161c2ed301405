//! Node lifecycle subsystem: availability transitions and heartbeats.
//!
//! Handles `NodeDown` / `NodeUp` / `Heartbeat`. A node going down zeroes
//! its disk and NIC capacities in the flow network (stalling any flow
//! through them) and pauses compute phases running on it; coming back
//! restores capacities, resumes compute, and restarts the heartbeat
//! loop. The heartbeat is the combined TaskTracker + DataNode beat:
//! bandwidth report to the NameNode, progress reports and kill/launch
//! exchange with the JobTracker.
//!
//! **Quiescence** (DESIGN.md §7). A heartbeat of an up, idle node
//! without an I/O throttle, while the JobTracker's idle-pick memo for
//! its class is current, changes nothing but two timestamps. So such a
//! node *sleeps* after a beat that got nothing, instead of re-arming:
//! its later beats are implied at `since + k·interval`. After every
//! dispatch, [`World::after_dispatch`] checks in O(1) whether a
//! sleeper's beat could do something (the memo went stale or reaches
//! its `valid_until`); if so it schedules one real heartbeat, for the
//! next sleeper of the class to tick, exactly where its implied beat
//! falls. The timestamps the skipped beats would have written are
//! restored on wake and on `NodeDown`.

use super::{Ev, World};
use dfs::NodeId;
use mapred::AttemptId;
use netsim::Changes;
use simkit::{Ctx, EventId, SimDuration, SimTime, StreamId};

use super::attempts::Phase;

/// A place in dispatch order: (instant, tie rank).
pub(super) type Pos = (SimTime, u64);

/// The one scheduled wake of a tracker class's sleepers: the real
/// heartbeat of the first sleeper to tick after `after`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Wake {
    pub(super) node: NodeId,
    at: SimTime,
    after: Pos,
}

impl World {
    pub(super) fn on_node_down(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        let rt = &mut self.nodes[n.0 as usize];
        if !rt.up {
            return;
        }
        rt.up = false;
        ctx.cancel(rt.heartbeat_ev);
        let (disk, up, down) = (rt.disk, rt.nic_up, rt.nic_down);
        if let Some(since) = rt.asleep_since {
            // Liveness sweeps take over from its last implied beat.
            let class = self.class(n);
            if self.wakes[class].is_some_and(|w| w.node == n) {
                self.wakes[class] = None;
            }
            let last = self.last_tick(since, n, self.frontier);
            self.wake(n, last);
        }
        self.obs_node_down(n.0, ctx.now());
        let mut all = Changes::default();
        all.merge(self.net.set_capacity(ctx.now(), disk, 0.0));
        all.merge(self.net.set_capacity(ctx.now(), up, 0.0));
        all.merge(self.net.set_capacity(ctx.now(), down, 0.0));
        self.apply_changes(ctx, all);
        // Pause compute phases running on this node.
        let paused: Vec<AttemptId> = self.nodes[n.0 as usize]
            .local_attempts
            .iter()
            .copied()
            .collect();
        for id in paused {
            if let Some(rt) = self.attempts.get_mut(&id) {
                if let Phase::Compute { work, ev } = &mut rt.phase {
                    work.pause(ctx.now());
                    ctx.cancel(*ev);
                    *ev = EventId::NONE;
                }
            }
        }
        self.resched_net_poll(ctx);
    }

    pub(super) fn on_node_up(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        let rt = &mut self.nodes[n.0 as usize];
        if rt.up {
            return;
        }
        rt.up = true;
        let (disk, up, down) = (rt.disk, rt.nic_up, rt.nic_down);
        self.obs_node_up(n.0, ctx.now());
        let (disk_bw, nic_bw) = (self.cluster.disk_bandwidth, self.cluster.nic_bandwidth);
        let mut all = Changes::default();
        all.merge(self.net.set_capacity(ctx.now(), disk, disk_bw));
        all.merge(self.net.set_capacity(ctx.now(), up, nic_bw));
        all.merge(self.net.set_capacity(ctx.now(), down, nic_bw));
        self.apply_changes(ctx, all);
        // Resume compute phases.
        let resumed: Vec<AttemptId> = self.nodes[n.0 as usize]
            .local_attempts
            .iter()
            .copied()
            .collect();
        for id in resumed {
            if let Some(rt) = self.attempts.get_mut(&id) {
                if let Phase::Compute { work, ev } = &mut rt.phase {
                    work.resume(ctx.now());
                    let eta = work.eta(ctx.now()).expect("just resumed");
                    *ev = ctx.schedule_at(eta, Ev::ComputeDone(id));
                }
            }
        }
        // Restart the heartbeat loop promptly.
        let slot = &mut self.nodes[n.0 as usize].heartbeat_ev;
        ctx.reschedule_after(slot, SimDuration::from_millis(500), Ev::Heartbeat(n));
        self.resched_net_poll(ctx);
    }

    pub(super) fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        if !self.node(n).up {
            return; // went down before the event fired; NodeUp restarts it
        }
        if self.node(n).asleep_since.is_some() {
            // A wake: this tick is dispatched, the one before it implied.
            let class = self.class(n);
            debug_assert_eq!(self.wakes[class].map(|w| w.node), Some(n));
            self.wakes[class] = None;
            let last = ctx.now().as_micros() - self.cluster.heartbeat_interval.as_micros();
            self.wake(n, SimTime::from_micros(last));
        }
        // DataNode heartbeat with measured I/O bandwidth (disk
        // throughput). Real bandwidth measurements jitter; Algorithm 1's
        // saturation detector depends on that jitter (an exact plateau
        // triggers neither of its branches), so apply ±5 % Gaussian
        // measurement noise. Only a throttled node's report is read, so
        // only those nodes measure and draw; the per-node stream has no
        // other consumer, so their draws are unchanged.
        let bw = if self.nn.has_io_throttle(n) {
            use rand::Rng as _;
            let bw = self.net.resource_throughput(self.node(n).disk);
            let r = ctx.rng().stream(StreamId::Custom(n.0 as u64));
            let noise = 1.0 + 0.05 * r.sample::<f64, _>(rand_distr::StandardNormal);
            (bw * noise).max(0.0)
        } else {
            0.0
        };
        self.nn.heartbeat(ctx.now(), n, bw);

        // Progress reports for local attempts.
        let local: Vec<AttemptId> = self.nodes[n.0 as usize]
            .local_attempts
            .iter()
            .copied()
            .collect();
        for id in local {
            let p = self.attempt_progress(id, ctx.now());
            self.jt.report_progress(id, p);
        }

        // TaskTracker heartbeat: receive kills and assignments.
        let mut quiet = false;
        if self.control_plane_active() {
            let resp = self.jt.heartbeat(ctx.now(), n);
            quiet = resp.kill.is_empty() && resp.assignments.is_empty();
            for a in resp.kill {
                self.cancel_attempt_physical(ctx, a);
            }
            for asg in resp.assignments {
                self.start_attempt(ctx, asg.attempt, asg.node);
            }
        }

        if quiet
            && self.can_sleep
            && self.node(n).local_attempts.is_empty()
            && !self.nn.has_io_throttle(n)
        {
            self.fall_asleep(ctx, n);
        } else {
            let interval = self.cluster.heartbeat_interval;
            let slot = &mut self.nodes[n.0 as usize].heartbeat_ev;
            ctx.reschedule_after(slot, interval, Ev::Heartbeat(n));
        }
    }

    // ------------------------------------------------------------------
    // Quiescence
    // ------------------------------------------------------------------

    /// Tracker class index of a node (1 = dedicated), as in `sleepers`.
    pub(super) fn class(&self, n: NodeId) -> usize {
        usize::from(self.cluster.is_dedicated(n.0))
    }

    /// Phase of a sleeper's ticks within the heartbeat interval.
    pub(super) fn phase(&self, since: SimTime) -> u64 {
        since.as_micros() % self.cluster.heartbeat_interval.as_micros()
    }

    /// The latest tick at or before `pos` of node `n` asleep since
    /// `since` (its ticks are `since + k·interval` at rank `1 + n`).
    fn last_tick(&self, since: SimTime, n: NodeId, pos: Pos) -> SimTime {
        let i = self.cluster.heartbeat_interval.as_micros();
        let (t, s) = (pos.0.as_micros(), since.as_micros());
        let mut tick = s + (t - s) / i * i;
        if tick == t && 1 + u64::from(n.0) > pos.1 {
            tick -= i;
        }
        SimTime::from_micros(tick)
    }

    /// The first sleeper of `class` to tick after `pos`, and that tick.
    pub(super) fn next_sleeper_tick(&self, class: usize, pos: Pos) -> Option<(SimTime, NodeId)> {
        let set = &self.sleepers[class];
        let i = self.cluster.heartbeat_interval.as_micros();
        let t = pos.0.as_micros();
        let (base, phase) = (t - t % i, t % i);
        // In the instant's own phase, a tick comes after rank r iff its
        // rank 1 + n exceeds r, i.e. n >= r.
        let from = match u32::try_from(pos.1) {
            Ok(r) => (phase, NodeId(r)),
            Err(_) => (phase + 1, NodeId(0)),
        };
        let (&(p, n), wrap) = match set.range(from..).next() {
            Some(key) => (key, 0),
            None => (set.first()?, i),
        };
        Some((SimTime::from_micros(base + wrap + p), n))
    }

    /// Put a node whose heartbeat just got nothing to sleep instead of
    /// re-arming it.
    fn fall_asleep(&mut self, ctx: &mut Ctx<'_, Ev>, n: NodeId) {
        let now = ctx.now();
        let class = self.class(n);
        self.nn.sleep_node(n);
        self.jt.sleep_tracker(n);
        let rt = &mut self.nodes[n.0 as usize];
        rt.asleep_since = Some(now);
        rt.heartbeat_ev = EventId::NONE;
        let phase = self.phase(now);
        self.sleepers[class].insert((phase, n));
        // If this node ticks after the pending wake's bound but before
        // the wake, the wake would skip it: drop the wake and let the
        // post-dispatch check plan again.
        if let Some(w) = self.wakes[class] {
            let rank = 1 + u64::from(n.0);
            let tick =
                self.last_tick(now, n, w.after.max((now, rank))) + self.cluster.heartbeat_interval;
            if (tick, rank) < (w.at, 1 + u64::from(w.node.0)) {
                self.cancel_wake(ctx, class);
            }
        }
    }

    /// Make a sleeper an ordinary node again, its last implied beat at
    /// `last`. The caller dispatches or schedules its next beat.
    fn wake(&mut self, n: NodeId, last: SimTime) {
        let class = self.class(n);
        let since = self.nodes[n.0 as usize]
            .asleep_since
            .take()
            .expect("waking a node that is awake");
        let phase = self.phase(since);
        self.sleepers[class].remove(&(phase, n));
        self.nn.wake_node(n, last);
        self.jt.wake_tracker(n, last);
    }

    fn cancel_wake(&mut self, ctx: &mut Ctx<'_, Ev>, class: usize) {
        if let Some(w) = self.wakes[class].take() {
            let ev = &mut self.nodes[w.node.0 as usize].heartbeat_ev;
            ctx.cancel(*ev);
            *ev = EventId::NONE;
        }
    }

    /// Post-dispatch check. When the control plane stops, every sleeper
    /// wakes: from then on heartbeats no longer refresh the JobTracker,
    /// so its sweeps must see each tracker's real timestamp. Otherwise
    /// each class with sleepers gets (or keeps) one wake when its idle
    /// beats could change something.
    pub(super) fn after_dispatch(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let active = self.control_plane_active();
        if active != self.cp_active {
            self.cp_active = active;
            if !active {
                self.wake_all(ctx);
            }
        }
        for class in 0..2 {
            self.plan_wake(ctx, class);
        }
    }

    fn wake_all(&mut self, ctx: &mut Ctx<'_, Ev>) {
        for class in 0..2 {
            self.cancel_wake(ctx, class);
            let asleep: Vec<NodeId> = self.sleepers[class].iter().map(|&(_, n)| n).collect();
            for n in asleep {
                let since = self.node(n).asleep_since.expect("sleepers are asleep");
                let last = self.last_tick(since, n, self.frontier);
                self.wake(n, last);
                let next = last + self.cluster.heartbeat_interval;
                self.nodes[n.0 as usize].heartbeat_ev = ctx.schedule_at(next, Ev::Heartbeat(n));
            }
        }
    }

    /// Keep exactly the wake `class` needs. Its sleepers' beats are
    /// memo hits, changing nothing, while the JobTracker's idle picks for
    /// the class are current and `now < valid_until`; the first tick past
    /// either bound must be a real heartbeat. An earlier wake is
    /// harmless (it is an ordinary memo-hit beat) and is kept.
    fn plan_wake(&mut self, ctx: &mut Ctx<'_, Ev>, class: usize) {
        if self.sleepers[class].is_empty() {
            return;
        }
        let after = match self.jt.idle_pick_until(class == 1) {
            Some(SimTime::MAX) => None,
            Some(until) => Some(self.frontier.max((until, 0))),
            None => Some(self.frontier),
        };
        match (after, self.wakes[class]) {
            (None, None) => {}
            (Some(after), Some(w)) if w.after <= after => {}
            (after, _) => {
                self.cancel_wake(ctx, class);
                if let Some(after) = after {
                    let (at, n) = self
                        .next_sleeper_tick(class, after)
                        .expect("class has sleepers");
                    self.nodes[n.0 as usize].heartbeat_ev = ctx.schedule_at(at, Ev::Heartbeat(n));
                    self.wakes[class] = Some(Wake { node: n, at, after });
                }
            }
        }
    }
}
