//! The traced run: one serial pass over a workload's grid that drives
//! every cell itself through the public `World`/`Simulation` API, so it
//! can time each layer boundary from outside the program.
//!
//! Spans (expand, per-cell build/init/loop/extract, render) stay in
//! memory and are written out at the end. Steps are too many to be one
//! span each, so every step is timed and charged to exactly one class
//! by which public counters it moved:
//!
//! - `net`: `World::net_stats().reshares` advanced;
//! - `repl`: the NameNode replication queue length changed;
//! - `idle`: neither, and the pending-event count is unchanged
//!   (no-op heartbeats and sweeps reschedule themselves);
//! - `other`: everything else.
//!
//! The four classes partition the loop time `simkit.loop_s`.

use moon::{ExecutionProfile, Outcome, RunLimits, RunResult, World};
use scenarios::Plan;
use simkit::{RunOutcome, Simulation};
use std::time::Instant;

/// One traced interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
}

/// An in-memory span recorder, timed from its creation.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        (end - s.start_ns) as f64 * 1e-9
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.cell.map_or("null".into(), |c| c.to_string()),
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Step-duration histogram: exact nanoseconds below 64 µs, and the
/// rare longer steps kept individually, so percentiles are exact.
struct StepHist {
    counts: Vec<u64>,
    long: Vec<u64>,
    n: u64,
}

impl StepHist {
    const EXACT: usize = 1 << 16;

    fn new() -> StepHist {
        StepHist {
            counts: vec![0; Self::EXACT],
            long: Vec::new(),
            n: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        self.n += 1;
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.long.push(ns),
        }
    }

    /// The `q`-quantile (nearest rank) in nanoseconds.
    fn quantile(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as f64;
            }
        }
        self.long.sort_unstable();
        self.long[(rank - seen - 1) as usize] as f64
    }
}

/// Host seconds and step count of one step class.
#[derive(Default, Clone, Copy)]
pub struct Class {
    pub steps: u64,
    pub secs: f64,
}

impl Class {
    fn add(&mut self, ns: u64) {
        self.steps += 1;
        self.secs += ns as f64 * 1e-9;
    }
}

/// Per-layer totals of one traced sweep.
#[derive(Default)]
pub struct Layers {
    pub expand_s: f64,
    pub render_s: f64,
    pub build_s: f64,
    pub init_s: f64,
    pub extract_s: f64,
    pub loop_span_s: f64,
    pub untraced_loop_s: f64,
    pub net: Class,
    pub repl: Class,
    pub idle: Class,
    pub other: Class,
    pub events: u64,
    pub step_ns_p50: f64,
    pub step_ns_p99: f64,
    pub queue_peak: u64,
    pub reshares: u64,
    pub flow_visits: u64,
    pub peak_flows: u64,
    pub repl_queue_peak: u64,
    pub fetch_failures: u64,
    pub stale_fetches: u64,
    pub killed_maps: u64,
    pub killed_reduces: u64,
    pub map_relaunches: u64,
    pub preempted: u64,
    pub completed_tasks: u64,
    pub duplicated_tasks: u64,
}

impl Layers {
    /// Host seconds inside `run_until` — the sum of the four classes.
    pub fn loop_s(&self) -> f64 {
        self.net.secs + self.repl.secs + self.idle.secs + self.other.secs
    }
}

/// Result of a traced sweep: per-layer totals and the report the
/// results render to.
pub struct Traced {
    pub layers: Layers,
    pub tables: String,
    pub report_json: String,
}

/// Run every cell of `spec` serially with per-step tracing.
pub fn traced_sweep(
    spec: &scenarios::ScenarioSpec,
    seeds: &[u64],
    spans: &mut Spans,
) -> Result<Traced, scenarios::ScenarioError> {
    let mut layers = Layers::default();
    let mut hist = StepHist::new();
    let root = spans.open("traced-sweep", None, None);

    let span = spans.open("expand", Some(root), None);
    let plan = scenarios::expand(spec)?;
    layers.expand_s = spans.close(span);

    let mut flat = Vec::with_capacity(plan.points.len() * seeds.len());
    for pt in &plan.points {
        if pt.telemetry.is_some() {
            return Err(scenarios::ScenarioError::msg(
                "the traced run cannot enable in-program telemetry",
            ));
        }
        for &seed in seeds {
            // The untraced twin runs right before its traced cell, so
            // host drift over the pass hits both sides of the overhead
            // ratio alike.
            layers.untraced_loop_s += untraced_loop_s(pt, seed);
            let cell = flat.len();
            flat.push(traced_cell(
                pt,
                seed,
                cell,
                root,
                spans,
                &mut layers,
                &mut hist,
            ));
        }
    }
    let mut it = flat.into_iter();
    let results: Vec<Vec<RunResult>> = (0..plan.points.len())
        .map(|_| it.by_ref().take(seeds.len()).collect())
        .collect();

    let span = spans.open("render", Some(root), None);
    let (tables, report_json) = render(&plan, &results, seeds);
    layers.render_s = spans.close(span);
    spans.close(root);

    layers.step_ns_p50 = hist.quantile(0.50);
    layers.step_ns_p99 = hist.quantile(0.99);
    Ok(Traced {
        layers,
        tables,
        report_json,
    })
}

/// The two report artifacts `moon-cli run` prints and writes.
pub fn render(plan: &Plan, results: &[Vec<RunResult>], seeds: &[u64]) -> (String, String) {
    (
        scenarios::render_tables(plan, results),
        scenarios::report_json(plan, results, seeds),
    )
}

fn traced_cell(
    pt: &scenarios::Point,
    seed: u64,
    cell: usize,
    root: usize,
    spans: &mut Spans,
    layers: &mut Layers,
    hist: &mut StepHist,
) -> RunResult {
    let cell_span = spans.open("cell", Some(root), Some(cell));
    let budget = RunLimits::DEFAULT_EVENT_BUDGET;
    let horizon = pt.cluster.horizon;

    let span = spans.open("build", Some(cell_span), Some(cell));
    let world = World::with_stream(
        pt.cluster.clone(),
        pt.policy.clone(),
        pt.workload.clone(),
        pt.jobs.clone(),
    );
    layers.build_s += spans.close(span);

    let span = spans.open("init", Some(cell_span), Some(cell));
    let mut sim = Simulation::new(world, seed).with_event_limit(budget);
    World::init(&mut sim);
    layers.init_s += spans.close(span);

    // One event per `run_until` call: re-arming the event limit one
    // past the handled count makes the engine return after exactly one
    // dispatch while keeping its horizon and `ctx.stop()` handling,
    // which `Simulation::step` would skip. The real budget is checked
    // here instead.
    let span = spans.open("loop", Some(cell_span), Some(cell));
    let sim_outcome = loop {
        if sim.events_handled() >= budget {
            break RunOutcome::EventLimit;
        }
        let handled = sim.events_handled();
        let reshares = sim.model().net_stats().reshares;
        let repl = sim.model().namenode().replication_queue_len();
        let pending = sim.pending_events();
        sim = sim.with_event_limit(handled + 1);
        let t0 = Instant::now();
        let r = sim.run_until(horizon);
        let ns = t0.elapsed().as_nanos() as u64;
        if sim.events_handled() == handled {
            break r;
        }
        hist.record(ns);
        let now_pending = sim.pending_events();
        let now_repl = sim.model().namenode().replication_queue_len();
        layers.queue_peak = layers.queue_peak.max(now_pending as u64);
        layers.repl_queue_peak = layers.repl_queue_peak.max(now_repl as u64);
        if sim.model().net_stats().reshares != reshares {
            layers.net.add(ns);
        } else if now_repl != repl {
            layers.repl.add(ns);
        } else if now_pending == pending {
            layers.idle.add(ns);
        } else {
            layers.other.add(ns);
        }
        if r != RunOutcome::EventLimit {
            break r;
        }
    };
    layers.loop_span_s += spans.close(span);

    let span = spans.open("extract", Some(cell_span), Some(cell));
    let r = extract(pt, seed, sim, sim_outcome, layers);
    layers.extract_s += spans.close(span);
    spans.close(cell_span);
    r
}

/// Rebuild the cell's `RunResult` from public accessors, field for
/// field as `Experiment::run_with_limits` assembles it.
fn extract(
    pt: &scenarios::Point,
    seed: u64,
    sim: Simulation<World>,
    sim_outcome: RunOutcome,
    layers: &mut Layers,
) -> RunResult {
    let events = sim.events_handled();
    let world = sim.into_model();
    let net = world.net_stats();
    layers.events += events;
    layers.reshares += net.reshares;
    layers.flow_visits += net.reshare_flow_visits;
    layers.peak_flows = layers.peak_flows.max(net.peak_live_flows);
    layers.fetch_failures += world.metrics.fetch_failures;
    layers.stale_fetches += world.metrics.stale_fetches;

    let job = world.job_metrics().unwrap_or_default();
    layers.killed_maps += u64::from(job.killed_maps);
    layers.killed_reduces += u64::from(job.killed_reduces);
    layers.map_relaunches += u64::from(job.map_output_relaunches);
    layers.preempted += u64::from(job.preempted);
    layers.completed_tasks += u64::from(job.completed_maps) + u64::from(job.completed_reduces);
    layers.duplicated_tasks += u64::from(job.duplicated_tasks);

    let finished = world.metrics.job_finished.is_some()
        && world.job_status() == Some(mapred::JobStatus::Succeeded);
    let outcome = if finished {
        Outcome::Completed
    } else if sim_outcome == RunOutcome::EventLimit {
        Outcome::EventLimit
    } else if sim_outcome == RunOutcome::WallDeadline {
        Outcome::Deadline
    } else {
        Outcome::Horizon
    };
    RunResult {
        label: pt.policy.label.clone(),
        workload: pt.workload.name.clone(),
        unavailability: pt.cluster.unavailability,
        job_time: if finished {
            world.metrics.job_time()
        } else {
            None
        },
        outcome,
        profile: ExecutionProfile {
            avg_map_time: world.metrics.map_times.mean(),
            avg_shuffle_time: world.metrics.shuffle_times.mean(),
            avg_reduce_time: world.metrics.reduce_times.mean(),
            killed_maps: job.killed_maps,
            killed_reduces: job.killed_reduces,
        },
        job,
        fetch_failures: world.metrics.fetch_failures,
        events,
        seed,
        jobs: pt.jobs.is_some().then(|| world.job_slo_rows()),
        audit: world.debug_final_audit(),
        telemetry: None,
    }
}

/// Loop time of one cell run untraced: the same build and init, then
/// one plain `run_until` — the base of the tracing overhead.
fn untraced_loop_s(pt: &scenarios::Point, seed: u64) -> f64 {
    let world = World::with_stream(
        pt.cluster.clone(),
        pt.policy.clone(),
        pt.workload.clone(),
        pt.jobs.clone(),
    );
    let mut sim = Simulation::new(world, seed).with_event_limit(RunLimits::DEFAULT_EVENT_BUDGET);
    World::init(&mut sim);
    let t0 = Instant::now();
    std::hint::black_box(sim.run_until(pt.cluster.horizon));
    t0.elapsed().as_secs_f64()
}
