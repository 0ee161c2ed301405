//! `perfbench` — the measuring half of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out FILE]
//! ```
//!
//! `run.py` builds this binary, sets every environment knob the program
//! reads, and turns the raw measurements this binary prints (one JSON
//! document on stdout) into the benchmark's metrics and correctness
//! gate. With `--trace 0` it repeats the workload's sweep through the
//! public path `moon-cli run` uses (`scenarios::expand`,
//! `bench::run_grid_with_seeds`, `render_tables` + `report_json`) for
//! about `--seconds`. With `--trace 1` it runs the sweep once on the
//! pool, then once serially with per-layer tracing (see `traced.rs`,
//! which also times each cell untraced for the tracing overhead), and
//! the layer probes (see `probe.rs`).

mod probe;
mod traced;
mod workload;

use moon::report::json;
use moon::{Outcome, RunLimits, RunResult};
use std::time::Instant;
use workload::Workload;

/// `scenarios::expand` is sampled before the first sweep and again
/// after every sweep, so `setup_s` is a median over the whole run, not
/// over one moment of host load: at least `min` samples per round, and
/// more until the round has lasted `secs`.
const SETUP_ROUNDS: [(usize, f64); 2] = [(2, 0.5), (1, 0.2)];

/// A set-up sample is one call, or the mean of the calls in a chunk of
/// at least this many seconds when a call is cheaper. The host's speed
/// flips between a fast and a slow state every 20 ms to 1 s, so a round
/// of single microsecond calls sees one state; chunks spread over the
/// round see the mix the sweeps see.
const SETUP_CHUNK_S: f64 = 0.002;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--spans-out" => args.spans_out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let w = Workload::named(&args.workload).unwrap_or_else(|e| fail(&e.to_string()));
    if scenarios::quick_mode() != w.quick {
        fail(&format!(
            "workload {} needs MOON_QUICK={}",
            w.name,
            u8::from(w.quick)
        ));
    }
    let seeds = w.seeds(args.seed);
    let doc = if args.trace {
        traced_run(&w, &seeds, args.spans_out.as_deref())
    } else {
        timed_run(&w, &seeds, args.seconds)
    }
    .unwrap_or_else(|e| fail(&e.to_string()));
    println!("{doc}");
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// FNV-1a 64 of the rendered tables and JSON report: the sweep's
/// simulated outputs in one value.
fn digest(tables: &str, report_json: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tables.bytes().chain([0u8]).chain(report_json.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One timed expand + sweep + render through the public path.
struct Rep {
    expand_s: f64,
    sweep_s: f64,
    render_s: f64,
    digest: String,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.expand_s + self.sweep_s + self.render_s
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"expand_s\":{},\"sweep_s\":{},\"render_s\":{},\"wall_s\":{},\"digest\":\"{}\"}}",
            json::number(self.expand_s),
            json::number(self.sweep_s),
            json::number(self.render_s),
            json::number(self.wall_s()),
            self.digest
        )
    }
}

/// Run the sweep once on the pool. The markers on stderr bracket the
/// per-cell `MOON_PERF` lines `run.py` reads the cell times from.
fn timed_rep(
    w: &Workload,
    seeds: &[u64],
) -> Result<(Rep, scenarios::Plan, Vec<Vec<RunResult>>), scenarios::ScenarioError> {
    let t0 = Instant::now();
    let plan = scenarios::expand(&w.spec)?;
    let t1 = Instant::now();
    eprintln!("PERFBENCH sweep-begin");
    let results = bench::run_grid_with_seeds(plan.points.clone(), seeds);
    eprintln!("PERFBENCH sweep-end");
    let t2 = Instant::now();
    let (tables, report_json) = traced::render(&plan, &results, seeds);
    let t3 = Instant::now();
    let rep = Rep {
        expand_s: (t1 - t0).as_secs_f64(),
        sweep_s: (t2 - t1).as_secs_f64(),
        render_s: (t3 - t2).as_secs_f64(),
        digest: digest(&tables, &report_json),
    };
    Ok((rep, plan, results))
}

/// Sample `scenarios::expand` per `(min, secs)` (see `SETUP_ROUNDS` and
/// `SETUP_CHUNK_S`).
fn sample_setup(
    w: &Workload,
    (min, secs): (usize, f64),
    setups: &mut Vec<f64>,
) -> Result<(), scenarios::ScenarioError> {
    let round = Instant::now();
    let mut n = 0;
    while n < min || round.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t.elapsed().as_secs_f64() < SETUP_CHUNK_S {
            std::hint::black_box(scenarios::expand(&w.spec)?);
            calls += 1;
        }
        setups.push(t.elapsed().as_secs_f64() / f64::from(calls));
        n += 1;
    }
    Ok(())
}

fn timed_run(
    w: &Workload,
    seeds: &[u64],
    seconds: f64,
) -> Result<String, scenarios::ScenarioError> {
    let start = Instant::now();
    let mut setups = Vec::new();
    sample_setup(w, SETUP_ROUNDS[0], &mut setups)?;
    let mut reps: Vec<Rep> = Vec::new();
    let mut first = None;
    loop {
        let (rep, plan, results) = timed_rep(w, seeds)?;
        setups.push(rep.expand_s);
        sample_setup(w, SETUP_ROUNDS[1], &mut setups)?;
        let wall = rep.wall_s();
        reps.push(rep);
        first.get_or_insert((plan, results));
        // Stop before a sweep that would end past the run length.
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let (plan, results) = first.expect("at least one sweep ran");
    Ok(document(w, seeds, &setups, &reps, &plan, &results, None))
}

fn traced_run(
    w: &Workload,
    seeds: &[u64],
    spans_out: Option<&str>,
) -> Result<String, scenarios::ScenarioError> {
    let (rep, plan, results) = timed_rep(w, seeds)?;
    let mut spans = traced::Spans::new();
    let traced = traced::traced_sweep(&w.spec, seeds, &mut spans)?;
    let (n_volatile, n_dedicated) = Workload::fleet(&plan);
    let place_us = probe::place_us(dfs::NameNodeConfig::default(), n_volatile, n_dedicated, 1);
    let place_us_stock = probe::place_us(
        dfs::NameNodeConfig::hadoop(simkit::SimDuration::from_mins(1)),
        n_volatile,
        n_dedicated,
        1,
    );
    let idle_hb_ns = probe::idle_hb_ns(&moon::PolicyConfig::moon_hybrid(), n_volatile, n_dedicated);
    if let Some(path) = spans_out {
        simkit::fsio::atomic_write(std::path::Path::new(path), spans.to_json().as_bytes())
            .map_err(|e| scenarios::ScenarioError::msg(format!("writing {path}: {e}")))?;
    }
    let l = &traced.layers;
    let n = json::number;
    let layers = [
        ("expand_s", n(l.expand_s)),
        ("render_s", n(l.render_s)),
        ("build_s", n(l.build_s)),
        ("init_s", n(l.init_s)),
        ("extract_s", n(l.extract_s)),
        ("loop_s", n(l.loop_s())),
        ("loop_span_s", n(l.loop_span_s)),
        ("untraced_loop_s", n(l.untraced_loop_s)),
        ("net_steps", l.net.steps.to_string()),
        ("net_steps_s", n(l.net.secs)),
        ("repl_steps", l.repl.steps.to_string()),
        ("repl_steps_s", n(l.repl.secs)),
        ("idle_steps", l.idle.steps.to_string()),
        ("idle_steps_s", n(l.idle.secs)),
        ("other_steps", l.other.steps.to_string()),
        ("other_steps_s", n(l.other.secs)),
        ("events", l.events.to_string()),
        ("step_ns_p50", n(l.step_ns_p50)),
        ("step_ns_p99", n(l.step_ns_p99)),
        ("queue_peak", l.queue_peak.to_string()),
        ("reshares", l.reshares.to_string()),
        ("flow_visits", l.flow_visits.to_string()),
        ("peak_flows", l.peak_flows.to_string()),
        ("repl_queue_peak", l.repl_queue_peak.to_string()),
        ("fetch_failures", l.fetch_failures.to_string()),
        ("stale_fetches", l.stale_fetches.to_string()),
        ("killed_maps", l.killed_maps.to_string()),
        ("killed_reduces", l.killed_reduces.to_string()),
        ("map_relaunches", l.map_relaunches.to_string()),
        ("preempted", l.preempted.to_string()),
        ("completed_tasks", l.completed_tasks.to_string()),
        ("duplicated_tasks", l.duplicated_tasks.to_string()),
        ("place_us", n(place_us)),
        ("place_us_stock", n(place_us_stock)),
        ("idle_hb_ns", n(idle_hb_ns)),
        ("fleet_nodes", (n_volatile + n_dedicated).to_string()),
    ];
    let body: Vec<String> = layers.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let extra = format!(
        "\"traced\":{{\"digest\":\"{}\",{}}}",
        digest(&traced.tables, &traced.report_json),
        body.join(",")
    );
    Ok(document(
        w,
        seeds,
        &[rep.expand_s],
        &[rep],
        &plan,
        &results,
        Some(extra),
    ))
}

/// Process high-water resident memory in MB (`VmHWM`), if readable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Jobs a cell's stream injects over a full run.
fn jobs_expected(stream: &workloads::JobStream) -> usize {
    match &stream.arrivals {
        workloads::ArrivalModel::Batch(offsets) => offsets.len(),
        workloads::ArrivalModel::Poisson { count, .. } => *count as usize,
        workloads::ArrivalModel::Closed {
            clients,
            jobs_per_client,
            ..
        } => (*clients * *jobs_per_client) as usize,
    }
}

/// The per-cell facts the gate and the simulated metrics are computed
/// from, in grid order.
fn cell_json(pt: &scenarios::Point, r: &RunResult) -> String {
    let outcome = match r.outcome {
        Outcome::Completed => "completed",
        Outcome::Horizon => "horizon",
        Outcome::EventLimit => "event-limit",
        Outcome::Deadline => "deadline",
        Outcome::Crashed => "crashed",
    };
    let audit: Vec<String> = r
        .audit
        .iter()
        .map(|a| format!("\"{}\"", json::escape(a)))
        .collect();
    let (expected, committed) = match (&pt.jobs, &r.jobs) {
        (Some(stream), Some(rows)) => (
            jobs_expected(stream).to_string(),
            rows.iter()
                .filter(|j| j.finished.is_some())
                .count()
                .to_string(),
        ),
        (Some(stream), None) => (jobs_expected(stream).to_string(), "0".into()),
        _ => ("null".into(), "null".into()),
    };
    // Every job or stream of these grids is first submitted at t = 1 s,
    // so a committed cell's simulation ends one second after its
    // makespan; any other cell runs to its horizon.
    let job_time = r.job_time.map(|d| d.as_secs_f64());
    let sim_end_s = job_time.map_or(pt.cluster.horizon.as_secs_f64(), |t| 1.0 + t);
    format!(
        "{{\"label\":\"{}\",\"p\":{},\"seed\":{},\"outcome\":\"{outcome}\",\"audit\":[{}],\
         \"job_time_s\":{},\"sim_end_s\":{},\"dup_tasks\":{},\"events\":{},\
         \"jobs_expected\":{expected},\"jobs_committed\":{committed}}}",
        json::escape(&r.label),
        json::number(r.unavailability),
        r.seed,
        audit.join(","),
        json::opt_number(job_time),
        json::number(sim_end_s),
        r.job.duplicated_tasks,
        r.events,
    )
}

fn document(
    w: &Workload,
    seeds: &[u64],
    setups: &[f64],
    reps: &[Rep],
    plan: &scenarios::Plan,
    results: &[Vec<RunResult>],
    extra: Option<String>,
) -> String {
    let cells: Vec<String> = plan
        .points
        .iter()
        .zip(results)
        .flat_map(|(pt, rs)| rs.iter().map(move |r| cell_json(pt, r)))
        .collect();
    let list = |xs: Vec<String>| xs.join(",");
    let mut fields = vec![
        format!("\"workload\":\"{}\"", w.name),
        format!(
            "\"sweep_seeds\":[{}]",
            list(seeds.iter().map(u64::to_string).collect())
        ),
        format!("\"quick\":{}", w.quick),
        format!("\"pool_width\":{}", rayon::current_num_threads()),
        format!("\"event_budget\":{}", RunLimits::DEFAULT_EVENT_BUDGET),
        format!(
            "\"setup_samples_s\":[{}]",
            list(setups.iter().map(|&s| json::number(s)).collect())
        ),
        format!(
            "\"reps\":[{}]",
            list(reps.iter().map(Rep::to_json).collect())
        ),
        format!("\"cells\":[\n{}\n]", cells.join(",\n")),
        format!("\"peak_rss_mb\":{}", json::opt_number(peak_rss_mb())),
    ];
    fields.extend(extra);
    format!("{{{}}}", fields.join(",\n"))
}
