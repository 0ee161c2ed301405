//! Node lifecycle subsystem: availability transitions and heartbeats.
//!
//! Handles `NodeDown` / `NodeUp` / `Heartbeat`. A node going down zeroes
//! its disk and NIC capacities in the flow network (stalling any flow
//! through them) and pauses compute phases running on it; coming back
//! restores capacities, resumes compute, and restarts the heartbeat
//! loop. The heartbeat is the combined TaskTracker + DataNode beat:
//! bandwidth report to the NameNode, progress reports and kill/launch
//! exchange with the JobTracker.

use super::{Ev, World};
use mapred::AttemptId;
use netsim::Changes;
use simkit::{Ctx, EventId, SimDuration, StreamId};

use super::attempts::Phase;

impl World {
    pub(super) fn on_node_down(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        let rt = &mut self.nodes[n.0 as usize];
        if !rt.up {
            return;
        }
        rt.up = false;
        ctx.cancel(rt.heartbeat_ev);
        let (disk, up, down) = (rt.disk, rt.nic_up, rt.nic_down);
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
        if self.control_plane_active() {
            let resp = self.jt.heartbeat(ctx.now(), n);
            for a in resp.kill {
                self.cancel_attempt_physical(ctx, a);
            }
            for asg in resp.assignments {
                self.start_attempt(ctx, asg.attempt, asg.node);
            }
        }

        let interval = self.cluster.heartbeat_interval;
        let slot = &mut self.nodes[n.0 as usize].heartbeat_ev;
        ctx.reschedule_after(slot, interval, Ev::Heartbeat(n));
    }
}
