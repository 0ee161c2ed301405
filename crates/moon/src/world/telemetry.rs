//! World-side telemetry instrumentation: gauge sampling driven by the
//! engine's observer hook, and span emission at the transition points
//! the world already passes through (attempt lifecycle, shuffle
//! fetches, node outages, job queued/run intervals).
//!
//! Everything here is gated on `World::telemetry` being `Some`: a
//! disabled run pays one pointer-null check per hook and records
//! nothing, so its outputs are byte-identical to a build without this
//! module. When enabled, every recorded value derives from simulated
//! time and world state only — see `DESIGN.md` §9 for the argument
//! that this preserves bit-identical artifacts across threads.

use super::nodes::Pos;
use super::World;
use mapred::TaskKind;
use netsim::FlowId;
use simkit::telemetry::{Span, SpanGroup, SpanKind, Telemetry, TelemetryConfig};
use simkit::SimTime;
use std::collections::HashMap;

/// Gauge columns sampled on the telemetry cadence, in artifact order.
/// Fixed here so the JSONL key set never varies between runs.
pub(super) const GAUGES: &[&str] = &[
    "live_volatile",
    "live_dedicated",
    "running_attempts",
    "queued_jobs",
    "active_jobs",
    "flows",
    "reshares",
    "repl_queue",
    "queue_depth",
    "events",
    "preempted",
];

/// Per-run telemetry state: the recorder plus the world-side scratch
/// needed to turn point events into intervals (fetch-flow start times,
/// node down-transition times) and the registered span kinds.
pub(super) struct TelemetryState {
    pub(super) rec: Telemetry,
    k_map: SpanKind,
    k_reduce: SpanKind,
    k_fetch: SpanKind,
    k_down: SpanKind,
    k_queued: SpanKind,
    k_run: SpanKind,
    /// When each currently-down node went down (index = node id).
    down_since: Vec<Option<SimTime>>,
    /// Start time of each in-flight shuffle fetch flow.
    fetch_started: HashMap<FlowId, SimTime>,
    /// `(events_handled, queue_depth)` after the latest dispatch.
    pub(super) last_dispatch: (u64, usize),
}

/// Span `arg` codes for attempt spans.
pub(super) const ATTEMPT_KILLED: i64 = 0;
pub(super) const ATTEMPT_SUCCEEDED: i64 = 1;
pub(super) const ATTEMPT_OPEN_AT_END: i64 = 2;
pub(super) const ATTEMPT_FAILED: i64 = -1;

impl World {
    /// Turn telemetry on for this run. Must be called before
    /// `World::init`; the recorder then samples gauges from the engine
    /// observer hook and collects spans until `finalize_telemetry`.
    pub(crate) fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let mut rec = Telemetry::new(cfg, GAUGES);
        let k_map = rec.register_span_kind(SpanGroup::Nodes, "map", "attempt");
        let k_reduce = rec.register_span_kind(SpanGroup::Nodes, "reduce", "attempt");
        let k_fetch = rec.register_span_kind(SpanGroup::Nodes, "fetch", "shuffle");
        let k_down = rec.register_span_kind(SpanGroup::Nodes, "down", "availability");
        let k_queued = rec.register_span_kind(SpanGroup::Jobs, "queued", "job");
        let k_run = rec.register_span_kind(SpanGroup::Jobs, "run", "job");
        let n_nodes = self.cluster.n_nodes() as usize;
        for i in 0..n_nodes {
            let class = if (i as u32) < self.cluster.n_volatile {
                "volatile"
            } else {
                "dedicated"
            };
            rec.name_track(SpanGroup::Nodes, i as u32, format!("node {i} ({class})"));
        }
        self.telemetry = Some(Box::new(TelemetryState {
            rec,
            k_map,
            k_reduce,
            k_fetch,
            k_down,
            k_queued,
            k_run,
            down_since: vec![None; n_nodes],
            fetch_started: HashMap::new(),
            last_dispatch: (0, 0),
        }));
    }

    /// Sleeping nodes' heartbeats are implied, not dispatched, yet the
    /// gauge cadence samples at the first dispatch at or past each due
    /// instant, which may be one of those beats. Before the event at
    /// `pos` is dispatched, record every row an implied beat after the
    /// previous frontier `prev` and before `pos` would have taken. An
    /// implied beat changes no gauge, so the current state is the
    /// state at that beat; only `events` and `queue_depth` differ from
    /// a run that dispatched every beat.
    pub(super) fn telemetry_catch_up(&mut self, prev: Pos, pos: Pos) {
        loop {
            let Some(t) = &self.telemetry else {
                return;
            };
            let due = t.rec.next_due();
            if pos.0 < due {
                return;
            }
            let after = prev.max((due, 0));
            let tick = (0..2)
                .filter_map(|class| self.next_sleeper_tick(class, after))
                .min();
            match tick {
                Some((at, n)) if (at, 1 + u64::from(n.0)) < pos => {
                    let (events, depth) = t.last_dispatch;
                    self.telemetry_sample(at, events, depth);
                }
                _ => return,
            }
        }
    }

    /// Gauge sampling body, called from the `Model::observe` hook once
    /// the cadence check has passed. Reads only world state and the
    /// dispatch counters — no RNG, no scheduling.
    pub(super) fn telemetry_sample(
        &mut self,
        now: SimTime,
        events_handled: u64,
        queue_depth: usize,
    ) {
        let (live_volatile, live_dedicated) = self.nn.live_node_counts();
        let row = [
            live_volatile as f64,
            live_dedicated as f64,
            self.jt.live_attempt_count() as f64,
            self.jt.queued_job_count() as f64,
            self.jt.active_job_count() as f64,
            self.net.n_flows() as f64,
            self.net.stats().reshares as f64,
            self.nn.replication_queue_len() as f64,
            queue_depth as f64,
            events_handled as f64,
            self.jt.preempted_total() as f64,
        ];
        let t = self.telemetry.as_mut().expect("caller checked enabled");
        t.rec.record_sample(now, &row);
    }

    /// An attempt left the runtime table: emit its lifecycle span.
    /// `outcome` is one of the `ATTEMPT_*` codes.
    pub(super) fn obs_attempt_end(
        &mut self,
        kind: TaskKind,
        node: u32,
        started: SimTime,
        now: SimTime,
        outcome: i64,
    ) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        let k = match kind {
            TaskKind::Map => t.k_map,
            TaskKind::Reduce => t.k_reduce,
        };
        t.rec.push_span(Span {
            kind: k,
            track: node,
            start: started,
            end: now,
            arg: outcome,
        });
    }

    /// A shuffle fetch flow started; remember when, so its completion
    /// (or timeout) can be emitted as an interval.
    pub(super) fn obs_fetch_started(&mut self, flow: FlowId, now: SimTime) {
        if let Some(t) = self.telemetry.as_mut() {
            t.fetch_started.insert(flow, now);
        }
    }

    /// A shuffle fetch flow ended on `node`. `n_maps` is the batch
    /// size; the span arg carries it, negated when the batch timed out
    /// instead of completing.
    pub(super) fn obs_fetch_end(
        &mut self,
        flow: FlowId,
        node: u32,
        n_maps: usize,
        now: SimTime,
        ok: bool,
    ) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        let Some(started) = t.fetch_started.remove(&flow) else {
            return;
        };
        let arg = if ok { n_maps as i64 } else { -(n_maps as i64) };
        t.rec.push_span(Span {
            kind: t.k_fetch,
            track: node,
            start: started,
            end: now,
            arg,
        });
    }

    /// A node went down: open its outage interval.
    pub(super) fn obs_node_down(&mut self, node: u32, now: SimTime) {
        if let Some(t) = self.telemetry.as_mut() {
            t.down_since[node as usize] = Some(now);
        }
    }

    /// A node came back: close and emit its outage interval.
    pub(super) fn obs_node_up(&mut self, node: u32, now: SimTime) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        if let Some(since) = t.down_since[node as usize].take() {
            t.rec.push_span(Span {
                kind: t.k_down,
                track: node,
                start: since,
                end: now,
                arg: 0,
            });
        }
    }

    /// End of run: close every open interval (outages, still-running
    /// attempts), derive the per-job queued/run spans from the SLO
    /// bookkeeping, and hand the recorder back. `now` is the final
    /// simulated time (horizon for truncated runs). Returns `None`
    /// when telemetry was disabled.
    pub(crate) fn finalize_telemetry(&mut self, now: SimTime) -> Option<Telemetry> {
        self.telemetry.as_ref()?;

        // A run cut at the horizon would have dispatched the implied
        // beats up to it.
        if now == self.cluster.horizon && self.metrics.job_finished.is_none() {
            self.telemetry_catch_up(self.frontier, (now, u64::MAX));
        }

        // Still-running attempts become open-ended spans (deterministic
        // order: the attempts table is a BTreeMap).
        let open: Vec<(TaskKind, u32, SimTime)> = self
            .attempts
            .iter()
            .map(|(id, rt)| (id.task.kind, rt.node.0, rt.started))
            .collect();
        for (kind, node, started) in open {
            self.obs_attempt_end(kind, node, started, now, ATTEMPT_OPEN_AT_END);
        }

        let mut t = self.telemetry.take().expect("checked above");

        // Open outages close at the horizon.
        for node in 0..t.down_since.len() {
            if let Some(since) = t.down_since[node].take() {
                t.rec.push_span(Span {
                    kind: t.k_down,
                    track: node as u32,
                    start: since,
                    end: now,
                    arg: 0,
                });
            }
        }

        // Job tracks: queued (submission → first launch) and run
        // (first launch → commit), open intervals cut at `now`. The
        // arg distinguishes committed (1) from did-not-finish (0).
        for slo in self.job_slo_rows() {
            let track = slo.job;
            t.rec.name_track(
                SpanGroup::Jobs,
                track,
                format!("job {} ({})", slo.job, slo.workload),
            );
            let launched = slo.first_launch.unwrap_or(now);
            t.rec.push_span(Span {
                kind: t.k_queued,
                track,
                start: slo.submitted,
                end: launched.max(slo.submitted),
                arg: i64::from(slo.first_launch.is_some()),
            });
            if let Some(first) = slo.first_launch {
                t.rec.push_span(Span {
                    kind: t.k_run,
                    track,
                    start: first,
                    end: slo.finished.unwrap_or(now).max(first),
                    arg: i64::from(slo.finished.is_some()),
                });
            }
        }

        Some(t.rec)
    }
}
