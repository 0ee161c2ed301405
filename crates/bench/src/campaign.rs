//! The sweep runner: every (point, seed) **cell** of a scenario runs
//! contained on the worker pool, and a checkpoint adds durability.
//!
//! Containment wraps each cell: `catch_unwind` turns a panic into a
//! recorded `crashed` cell (deterministic placeholder result) instead
//! of a pool abort, and [`RunLimits`] (event budget, optional wall
//! deadline) turn livelocks into `event_limit` / `wall_deadline` cells.
//! Each cell's telemetry is pre-rendered into artifact fragments
//! ([`obs::run_metrics_fragment`], [`obs::run_trace_fragment`]) as it
//! finishes, and the artifacts are stitched from those fragments in
//! grid order.
//!
//! A *campaign* with a checkpoint file gets a deterministic key
//! ([`scenarios::codec::content_key`]: hash of the canonical spec +
//! seed list + quick-mode flag), and every cell that finishes is
//! appended to the checkpoint as one self-contained JSONL record — the
//! full [`RunResult`] round-trip plus the cell's telemetry fragments.
//! Killing the process loses at most the in-flight cells;
//! `moon-cli run --resume` verifies the key, restores completed cells,
//! runs only the rest, and stitches tables/JSON/telemetry artifacts
//! **byte-identical** to an uninterrupted run at any `MOON_THREADS`.
//!
//! Byte-identity holds because nothing in the artifacts depends on
//! *when* a cell ran:
//!
//! - results are assembled in grid order (cell index = `point_idx *
//!   n_seeds + seed_idx`);
//! - every `RunResult` field round-trips losslessly through the
//!   checkpoint codec (times as integer microseconds, floats via
//!   Rust's shortest round-trip `Display`, seeds as raw `u64` text —
//!   see [`moon::report::json::parse`]);
//! - telemetry artifacts are concatenative per run, so restored cells
//!   splice in exactly the fragment bytes a live recorder produced.
//!
//! Failed cells (panic, livelock, deadline) land in the **dead-letter
//! queue** — a JSONL file next to the checkpoint with the cell's grid
//! coordinates and attempt count — drained by `moon-cli dlq list` /
//! `dlq retry --max-attempts N`. Without a checkpoint the failed cells'
//! coordinates go to stderr instead.

use crate::{obs, Point};
use moon::report::json::{self, escape, Value};
use moon::{Experiment, JobSlo, Outcome, RunLimits, RunResult};
use rayon::prelude::*;
use scenarios::{Plan, ScenarioError, ScenarioSpec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Checkpoint format version (the header's `"v"` field).
const CKPT_VERSION: u64 = 1;

/// How a sweep executes: whether a checkpoint makes it durable, and
/// how its cells are contained. The default runs in memory.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig {
    /// Checkpoint file (append-only JSONL, atomically compacted on
    /// open); the DLQ lives next to it ([`dlq_path_for`]). `None` runs
    /// in memory: no checkpoint, no DLQ file, and `resume` / `retry`
    /// have nothing to restore.
    pub checkpoint: Option<PathBuf>,
    /// Restore completed cells from an existing checkpoint instead of
    /// starting over. The campaign key must match.
    pub resume: bool,
    /// `Some(max_attempts)` re-runs failed cells whose attempt count is
    /// still below the bound (the `dlq retry` mode — implies `resume`);
    /// cells at the bound stay in the DLQ.
    pub retry: Option<u32>,
    /// Per-cell containment limits (event budget, wall deadline).
    pub limits: RunLimits,
    /// Test/CI fault injection: this flat cell index panics instead of
    /// running, exercising the containment path end to end.
    pub inject_panic: Option<usize>,
}

impl CampaignConfig {
    /// A fresh (non-resuming) campaign checkpointed to `checkpoint`,
    /// with default containment.
    pub fn new(checkpoint: PathBuf) -> Self {
        CampaignConfig {
            checkpoint: Some(checkpoint),
            ..CampaignConfig::default()
        }
    }
}

/// The conventional checkpoint location for a named scenario.
pub fn default_checkpoint_path(scenario: &str) -> PathBuf {
    PathBuf::from(format!("bench_results/campaigns/{scenario}.ckpt.jsonl"))
}

/// The DLQ file that belongs to a checkpoint: `<x>.ckpt.jsonl` →
/// `<x>.dlq.jsonl` (any other name just gains a `.dlq.jsonl` suffix).
pub fn dlq_path_for(checkpoint: &Path) -> PathBuf {
    let s = checkpoint.to_string_lossy();
    match s.strip_suffix(".ckpt.jsonl") {
        Some(stem) => PathBuf::from(format!("{stem}.dlq.jsonl")),
        None => PathBuf::from(format!("{s}.dlq.jsonl")),
    }
}

/// One dead-letter-queue entry: a failed cell with everything needed
/// to locate and retry it.
#[derive(Debug, Clone, PartialEq)]
pub struct DlqEntry {
    /// Campaign key the cell belongs to.
    pub campaign: String,
    /// Flat cell index (`point * n_seeds + seed_idx`).
    pub cell: usize,
    /// Grid point index.
    pub point: usize,
    /// Root seed of the run.
    pub seed: u64,
    /// Panel name (may be empty for single-panel scenarios).
    pub panel: String,
    /// Policy row label.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Axis column label (e.g. `p=0.5`, `jobs/h=240`).
    pub column: String,
    /// Failure class: `panic`, `livelock`, or `deadline`.
    pub reason: String,
    /// Human-readable detail (panic message, exhausted budget).
    pub detail: String,
    /// Attempts made so far.
    pub attempts: u32,
}

/// A finished scenario sweep: the stitched artifacts plus the
/// campaign bookkeeping.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The expanded plan (grid + table layout).
    pub plan: Plan,
    /// Seeds actually used.
    pub seeds: Vec<u64>,
    /// Grid-ordered results, one inner vec per point (seeds inside).
    /// A panicked cell holds its deterministic `crashed` placeholder.
    pub results: Vec<Vec<RunResult>>,
    /// Rendered text tables (what `moon-cli run` prints).
    pub tables: String,
    /// The machine-readable scenario report.
    pub report_json: String,
    /// The stitched metrics JSONL artifact (empty without telemetry).
    pub metrics_jsonl: String,
    /// The stitched Chrome-trace artifact.
    pub chrome_trace: String,
    /// The campaign key.
    pub campaign: String,
    /// Cells restored from the checkpoint.
    pub restored: usize,
    /// Cells executed this invocation.
    pub executed: usize,
    /// Currently-failed cells (the DLQ contents, grid order).
    pub failed: Vec<DlqEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStatus {
    Ok,
    Panic,
    Livelock,
    Deadline,
}

impl CellStatus {
    fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Panic => "panic",
            CellStatus::Livelock => "livelock",
            CellStatus::Deadline => "deadline",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "ok" => CellStatus::Ok,
            "panic" => CellStatus::Panic,
            "livelock" => CellStatus::Livelock,
            "deadline" => CellStatus::Deadline,
            _ => return None,
        })
    }
}

/// One checkpointed cell: status, attempt count, the (possibly
/// partial) result, and the cell's pre-rendered telemetry fragments.
/// `result` is `None` only for panicked cells, whose placeholder is
/// synthesized deterministically at assembly time.
#[derive(Debug, Clone)]
struct CellRecord {
    cell: usize,
    status: CellStatus,
    attempts: u32,
    detail: String,
    result: Option<RunResult>,
    metrics_frag: Option<String>,
    trace_frag: Option<String>,
}

// ---------------------------------------------------------------------
// Lossless value codecs (no serialization framework in this workspace —
// DESIGN.md §4).

/// Encode an `f64` losslessly: Rust's `Display` prints the shortest
/// decimal that parses back to the same bits; non-finite values (JSON
/// can't carry them) become tagged strings.
fn enc_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "\"nan\"".into()
    } else if x > 0.0 {
        "\"inf\"".into()
    } else {
        "\"-inf\"".into()
    }
}

fn dec_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Num(raw) => raw.parse().map_err(|_| format!("bad number {raw:?}")),
        Value::Str(s) => match s.as_str() {
            "nan" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            _ => Err(format!("bad float tag {s:?}")),
        },
        _ => Err("expected number".into()),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn dec_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a u64"))
}

fn dec_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(dec_u64(v, key)?).map_err(|_| format!("`{key}` exceeds u32"))
}

fn dec_str(v: &Value, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))?
        .to_string())
}

/// `Some(micros)` ⇄ integer, `None` ⇄ `null`.
fn enc_opt_micros(us: Option<u64>) -> String {
    us.map(|u| u.to_string()).unwrap_or_else(|| "null".into())
}

fn dec_opt_micros(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match field(v, key)? {
        Value::Null => Ok(None),
        n => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not micros or null")),
    }
}

fn encode_job_metrics(m: &mapred::JobMetrics) -> String {
    format!(
        concat!(
            "{{\"duplicated_tasks\":{},\"killed_maps\":{},\"killed_reduces\":{},",
            "\"killed_by_tracker_expiry\":{},\"map_output_relaunches\":{},",
            "\"completed_maps\":{},\"completed_reduces\":{},\"preempted\":{}}}"
        ),
        m.duplicated_tasks,
        m.killed_maps,
        m.killed_reduces,
        m.killed_by_tracker_expiry,
        m.map_output_relaunches,
        m.completed_maps,
        m.completed_reduces,
        m.preempted,
    )
}

/// Like [`dec_u32`], but a missing key decodes as 0 — counters added
/// after a checkpoint was written (e.g. `preempted`) read back as
/// zero instead of poisoning the resume.
fn dec_u32_or_zero(v: &Value, key: &str) -> Result<u32, String> {
    match v.get(key) {
        None => Ok(0),
        Some(_) => dec_u32(v, key),
    }
}

fn decode_job_metrics(v: &Value) -> Result<mapred::JobMetrics, String> {
    Ok(mapred::JobMetrics {
        duplicated_tasks: dec_u32(v, "duplicated_tasks")?,
        killed_maps: dec_u32(v, "killed_maps")?,
        killed_reduces: dec_u32(v, "killed_reduces")?,
        killed_by_tracker_expiry: dec_u32(v, "killed_by_tracker_expiry")?,
        map_output_relaunches: dec_u32(v, "map_output_relaunches")?,
        completed_maps: dec_u32(v, "completed_maps")?,
        completed_reduces: dec_u32(v, "completed_reduces")?,
        preempted: dec_u32_or_zero(v, "preempted")?,
    })
}

fn encode_slo(j: &JobSlo) -> String {
    format!(
        concat!(
            "{{\"job\":{},\"workload\":\"{}\",\"submitted_us\":{},",
            "\"first_launch_us\":{},\"finished_us\":{},\"deadline_us\":{},",
            "\"priority\":{},\"tenant\":{},\"metrics\":{}}}"
        ),
        j.job,
        escape(&j.workload),
        j.submitted.since(simkit::SimTime::ZERO).as_micros(),
        enc_opt_micros(
            j.first_launch
                .map(|t| t.since(simkit::SimTime::ZERO).as_micros())
        ),
        enc_opt_micros(
            j.finished
                .map(|t| t.since(simkit::SimTime::ZERO).as_micros())
        ),
        enc_opt_micros(
            j.deadline
                .map(|t| t.since(simkit::SimTime::ZERO).as_micros())
        ),
        j.priority,
        j.tenant,
        encode_job_metrics(&j.metrics),
    )
}

fn decode_slo(v: &Value) -> Result<JobSlo, String> {
    let time = simkit::SimTime::from_micros;
    // Scheduling metadata keys postdate the checkpoint format; missing
    // ones decode as "no metadata" so older checkpoints still resume.
    let deadline = match v.get("deadline_us") {
        None => None,
        Some(_) => dec_opt_micros(v, "deadline_us")?.map(time),
    };
    let priority = match v.get("priority") {
        None => 0,
        Some(n) => n
            .as_i64()
            .and_then(|i| i32::try_from(i).ok())
            .ok_or_else(|| "`priority` is not an i32".to_string())?,
    };
    Ok(JobSlo {
        job: dec_u32(v, "job")?,
        workload: dec_str(v, "workload")?,
        submitted: time(dec_u64(v, "submitted_us")?),
        first_launch: dec_opt_micros(v, "first_launch_us")?.map(time),
        finished: dec_opt_micros(v, "finished_us")?.map(time),
        deadline,
        priority,
        tenant: dec_u32_or_zero(v, "tenant")?,
        metrics: decode_job_metrics(field(v, "metrics")?)?,
    })
}

fn encode_result(r: &RunResult) -> String {
    let jobs = match &r.jobs {
        None => "null".to_string(),
        Some(js) => {
            let rows: Vec<String> = js.iter().map(encode_slo).collect();
            format!("[{}]", rows.join(","))
        }
    };
    let audit: Vec<String> = r
        .audit
        .iter()
        .map(|a| format!("\"{}\"", escape(a)))
        .collect();
    format!(
        concat!(
            "{{\"label\":\"{}\",\"workload\":\"{}\",\"unavailability\":{},",
            "\"job_time_us\":{},\"outcome\":\"{}\",\"job\":{},",
            "\"profile\":{{\"avg_map_time\":{},\"avg_shuffle_time\":{},",
            "\"avg_reduce_time\":{},\"killed_maps\":{},\"killed_reduces\":{}}},",
            "\"fetch_failures\":{},\"events\":{},\"seed\":{},\"jobs\":{},\"audit\":[{}]}}"
        ),
        escape(&r.label),
        escape(&r.workload),
        enc_f64(r.unavailability),
        enc_opt_micros(r.job_time.map(|d| d.as_micros())),
        r.outcome.as_str(),
        encode_job_metrics(&r.job),
        enc_f64(r.profile.avg_map_time),
        enc_f64(r.profile.avg_shuffle_time),
        enc_f64(r.profile.avg_reduce_time),
        r.profile.killed_maps,
        r.profile.killed_reduces,
        r.fetch_failures,
        r.events,
        r.seed,
        jobs,
        audit.join(","),
    )
}

fn decode_result(v: &Value) -> Result<RunResult, String> {
    let profile = field(v, "profile")?;
    let jobs = match field(v, "jobs")? {
        Value::Null => None,
        Value::Arr(items) => Some(
            items
                .iter()
                .map(decode_slo)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        _ => return Err("`jobs` is not an array or null".into()),
    };
    let audit = field(v, "audit")?
        .as_arr()
        .ok_or("`audit` is not an array")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(String::from)
                .ok_or_else(|| "audit entry is not a string".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let outcome_name = dec_str(v, "outcome")?;
    Ok(RunResult {
        label: dec_str(v, "label")?,
        workload: dec_str(v, "workload")?,
        unavailability: dec_f64(field(v, "unavailability")?)?,
        job_time: dec_opt_micros(v, "job_time_us")?.map(simkit::SimDuration::from_micros),
        outcome: Outcome::from_name(&outcome_name)
            .ok_or_else(|| format!("unknown outcome {outcome_name:?}"))?,
        job: decode_job_metrics(field(v, "job")?)?,
        profile: moon::ExecutionProfile {
            avg_map_time: dec_f64(field(profile, "avg_map_time")?)?,
            avg_shuffle_time: dec_f64(field(profile, "avg_shuffle_time")?)?,
            avg_reduce_time: dec_f64(field(profile, "avg_reduce_time")?)?,
            killed_maps: dec_u32(profile, "killed_maps")?,
            killed_reduces: dec_u32(profile, "killed_reduces")?,
        },
        fetch_failures: dec_u64(v, "fetch_failures")?,
        events: dec_u64(v, "events")?,
        seed: dec_u64(v, "seed")?,
        jobs,
        audit,
        telemetry: None,
    })
}

fn opt_str(s: &Option<String>) -> String {
    match s {
        Some(s) => format!("\"{}\"", escape(s)),
        None => "null".into(),
    }
}

fn encode_record(rec: &CellRecord) -> String {
    format!(
        concat!(
            "{{\"cell\":{},\"status\":\"{}\",\"attempts\":{},\"detail\":\"{}\",",
            "\"result\":{},\"metrics_frag\":{},\"trace_frag\":{}}}"
        ),
        rec.cell,
        rec.status.as_str(),
        rec.attempts,
        escape(&rec.detail),
        rec.result
            .as_ref()
            .map(encode_result)
            .unwrap_or_else(|| "null".into()),
        opt_str(&rec.metrics_frag),
        opt_str(&rec.trace_frag),
    )
}

fn decode_record(line: &str) -> Result<CellRecord, String> {
    let v = json::parse(line)?;
    let status_name = dec_str(&v, "status")?;
    let dec_opt_str = |key: &str| -> Result<Option<String>, String> {
        match field(&v, key)? {
            Value::Null => Ok(None),
            s => s
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| format!("`{key}` is not a string or null")),
        }
    };
    Ok(CellRecord {
        cell: usize::try_from(dec_u64(&v, "cell")?).map_err(|_| "cell overflows usize")?,
        status: CellStatus::from_name(&status_name)
            .ok_or_else(|| format!("unknown status {status_name:?}"))?,
        attempts: dec_u32(&v, "attempts")?,
        detail: dec_str(&v, "detail")?,
        result: match field(&v, "result")? {
            Value::Null => None,
            r => Some(decode_result(r)?),
        },
        metrics_frag: dec_opt_str("metrics_frag")?,
        trace_frag: dec_opt_str("trace_frag")?,
    })
}

fn encode_header(
    campaign: &str,
    scenario: &str,
    quick: bool,
    n_points: usize,
    seeds: &[u64],
) -> String {
    let seeds: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    format!(
        concat!(
            "{{\"v\":{},\"campaign\":\"{}\",\"scenario\":\"{}\",\"quick\":{},",
            "\"n_points\":{},\"seeds\":[{}]}}"
        ),
        CKPT_VERSION,
        campaign,
        escape(scenario),
        quick,
        n_points,
        seeds.join(","),
    )
}

// ---------------------------------------------------------------------
// Checkpoint store.

fn load_checkpoint(
    path: &Path,
    expect_key: &str,
    n_cells: usize,
) -> Result<Vec<Option<CellRecord>>, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::msg(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(ScenarioError::msg(format!(
            "{}: empty checkpoint",
            path.display()
        )));
    };
    let header = json::parse(header)
        .map_err(|e| ScenarioError::msg(format!("{}: bad header: {e}", path.display())))?;
    let version = header.get("v").and_then(Value::as_u64);
    if version != Some(CKPT_VERSION) {
        return Err(ScenarioError::msg(format!(
            "{}: unsupported checkpoint version {version:?}",
            path.display()
        )));
    }
    let found_key = header.get("campaign").and_then(Value::as_str).unwrap_or("");
    if found_key != expect_key {
        return Err(ScenarioError::msg(format!(
            "{}: campaign key mismatch — checkpoint {found_key}, current {expect_key} \
             (spec, seeds, or MOON_QUICK changed); re-run without --resume to start over",
            path.display()
        )));
    }
    let mut records: Vec<Option<CellRecord>> = vec![None; n_cells];
    for (line_no, line) in lines {
        match decode_record(line) {
            Ok(rec) if rec.cell < n_cells => {
                // Later lines win: a retry's fresh record supersedes
                // the failure it replaces.
                let cell = rec.cell;
                records[cell] = Some(rec);
            }
            Ok(rec) => eprintln!(
                "checkpoint {}: line {} names cell {} outside the {}-cell grid — ignored",
                path.display(),
                line_no + 1,
                rec.cell,
                n_cells
            ),
            Err(e) => eprintln!(
                "checkpoint {}: line {} unreadable ({e}) — likely a torn write, ignored",
                path.display(),
                line_no + 1
            ),
        }
    }
    Ok(records)
}

/// Atomically rewrite the checkpoint as header + one line per known
/// cell (grid order). Run at campaign open: compacts superseded
/// records and drops any torn tail, so the append-only file never
/// grows without bound across resumes.
fn compact_checkpoint(
    path: &Path,
    header: &str,
    records: &[Option<CellRecord>],
) -> Result<(), ScenarioError> {
    let mut body = String::with_capacity(4096);
    body.push_str(header);
    body.push('\n');
    for rec in records.iter().flatten() {
        body.push_str(&encode_record(rec));
        body.push('\n');
    }
    simkit::fsio::atomic_write(path, body.as_bytes())
        .map_err(|e| ScenarioError::msg(format!("cannot write {}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// DLQ store.

fn encode_dlq_entry(e: &DlqEntry) -> String {
    format!(
        concat!(
            "{{\"campaign\":\"{}\",\"cell\":{},\"point\":{},\"seed\":{},",
            "\"panel\":\"{}\",\"policy\":\"{}\",\"workload\":\"{}\",\"column\":\"{}\",",
            "\"reason\":\"{}\",\"detail\":\"{}\",\"attempts\":{}}}"
        ),
        e.campaign,
        e.cell,
        e.point,
        e.seed,
        escape(&e.panel),
        escape(&e.policy),
        escape(&e.workload),
        escape(&e.column),
        escape(&e.reason),
        escape(&e.detail),
        e.attempts,
    )
}

fn decode_dlq_entry(line: &str) -> Result<DlqEntry, String> {
    let v = json::parse(line)?;
    Ok(DlqEntry {
        campaign: dec_str(&v, "campaign")?,
        cell: usize::try_from(dec_u64(&v, "cell")?).map_err(|_| "cell overflows usize")?,
        point: usize::try_from(dec_u64(&v, "point")?).map_err(|_| "point overflows usize")?,
        seed: dec_u64(&v, "seed")?,
        panel: dec_str(&v, "panel")?,
        policy: dec_str(&v, "policy")?,
        workload: dec_str(&v, "workload")?,
        column: dec_str(&v, "column")?,
        reason: dec_str(&v, "reason")?,
        detail: dec_str(&v, "detail")?,
        attempts: dec_u32(&v, "attempts")?,
    })
}

/// Load a DLQ file; a missing file is an empty queue.
pub fn load_dlq(path: &Path) -> Result<Vec<DlqEntry>, ScenarioError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(ScenarioError::msg(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    let mut entries = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        entries.push(decode_dlq_entry(line).map_err(|e| {
            ScenarioError::msg(format!("{} line {}: {e}", path.display(), line_no + 1))
        })?);
    }
    Ok(entries)
}

fn write_dlq(path: &Path, entries: &[DlqEntry]) -> Result<(), ScenarioError> {
    let mut body = String::new();
    for e in entries {
        body.push_str(&encode_dlq_entry(e));
        body.push('\n');
    }
    simkit::fsio::atomic_write(path, body.as_bytes())
        .map_err(|e| ScenarioError::msg(format!("cannot write {}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// Cell execution.

/// Deterministic stand-in for a cell whose run never produced a
/// result (panic): grid coordinates from the plan, zeroed counters,
/// outcome `crashed`. Tables render it as DNF; the JSON report carries
/// the same row no matter when (or whether) the panic re-occurs.
fn placeholder_result(point: &Point, seed: u64) -> RunResult {
    RunResult {
        label: point.policy.label.clone(),
        workload: point.workload.name.clone(),
        unavailability: point.cluster.unavailability,
        job_time: None,
        outcome: Outcome::Crashed,
        job: Default::default(),
        profile: Default::default(),
        fetch_failures: 0,
        events: 0,
        seed,
        jobs: None,
        audit: Vec::new(),
        telemetry: None,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run one cell under containment: `catch_unwind` converts a panic
/// into a `panic` record, the limits classify livelocks
/// (`event_limit` → livelock, `wall_deadline` → deadline). Successful
/// runs have their telemetry pre-rendered into fragments and dropped
/// (recorders don't round-trip through the checkpoint; fragments do).
fn execute_cell(
    cell: usize,
    point: &Point,
    seed: u64,
    attempts: u32,
    limits: RunLimits,
    inject_panic: bool,
) -> CellRecord {
    let exp = Experiment {
        cluster: point.cluster.clone(),
        policy: point.policy.clone(),
        workload: point.workload.clone(),
        seed,
    };
    let jobs = point.jobs.clone();
    let telemetry = point.telemetry.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        if inject_panic {
            panic!("injected fault (--inject-panic {cell})");
        }
        exp.run_with_limits(jobs, telemetry, limits)
    }));
    match outcome {
        Ok(mut r) => {
            let metrics_frag = obs::run_metrics_fragment(cell, &r);
            let trace_frag = obs::run_trace_fragment(cell, &r);
            r.telemetry = None;
            let (status, detail) = match r.outcome {
                Outcome::EventLimit => (
                    CellStatus::Livelock,
                    format!("event budget {} exhausted", limits.event_budget),
                ),
                Outcome::Deadline => (
                    CellStatus::Deadline,
                    format!(
                        "wall deadline {:?} exceeded after {} events",
                        limits.wall_deadline.unwrap_or_default(),
                        r.events
                    ),
                ),
                _ => (CellStatus::Ok, String::new()),
            };
            CellRecord {
                cell,
                status,
                attempts,
                detail,
                result: Some(r),
                metrics_frag,
                trace_frag,
            }
        }
        Err(payload) => CellRecord {
            cell,
            status: CellStatus::Panic,
            attempts,
            detail: panic_message(payload),
            result: None,
            metrics_frag: None,
            trace_frag: None,
        },
    }
}

/// Emit one progress line for a finished run (`k` of `total`). Each
/// line is a single `eprintln!` (one stderr lock), so concurrent pool
/// workers never interleave mid-line.
fn progress_line(k: usize, total: usize, r: &RunResult) {
    let shown = match r.outcome {
        Outcome::Completed => moon::report::secs_or_dnf(r.job_time.map(|d| d.as_secs_f64())),
        // Distinguish a legitimate horizon DNF from the containment
        // verdicts right in the progress stream.
        Outcome::Horizon => "DNF(horizon)".into(),
        Outcome::EventLimit => "DNF(EVENT-LIMIT — livelock!)".into(),
        Outcome::Deadline => "DNF(WALL-DEADLINE — cell budget exceeded)".into(),
        Outcome::Crashed => "DNF(CRASHED — panic contained)".into(),
    };
    eprintln!(
        "[{}/{}] {} {} p={} seed={}: {}s",
        k, total, r.label, r.workload, r.unavailability, r.seed, shown
    );
}

/// Fan `cells` — (flat cell index, attempts so far) over the grid
/// `points` × `seeds` — out across the worker pool, each through
/// [`execute_cell`]. Every cell is an independent, fully-seeded
/// experiment, so results depend only on the cell, never on which
/// worker ran it. `on_done` sees each record as it finishes (the
/// checkpoint append); records come back in `cells` order.
fn run_cells(
    points: &[Point],
    seeds: &[u64],
    cells: Vec<(usize, u32)>,
    limits: RunLimits,
    inject_panic: Option<usize>,
    on_done: &(dyn Fn(&CellRecord) + Sync),
) -> Vec<CellRecord> {
    let n_seeds = seeds.len();
    let total = cells.len();
    let done = AtomicUsize::new(0);
    cells
        .into_par_iter()
        .map(|(cell, prior_attempts)| {
            let seed = seeds[cell % n_seeds];
            let rec = execute_cell(
                cell,
                &points[cell / n_seeds],
                seed,
                prior_attempts + 1,
                limits,
                inject_panic == Some(cell),
            );
            on_done(&rec);
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            match &rec.result {
                Some(r) => progress_line(k, total, r),
                None => eprintln!(
                    "[{k}/{total}] cell {cell} seed {seed}: PANIC contained — {}",
                    rec.detail
                ),
            }
            rec
        })
        .collect()
}

/// Run the whole grid (each point × every seed in `seeds`) contained
/// on the worker pool with default [`RunLimits`]; results come back in
/// grid order, one inner vec per point with its seeds inside. A
/// panicked cell comes back as its `crashed` placeholder, and no
/// telemetry recorder is returned ([`run_spec`] stitches the
/// artifacts). Worker count comes from `MOON_THREADS` /
/// `RAYON_NUM_THREADS` (default: all hardware threads).
pub fn run_grid_with_seeds(points: Vec<Point>, seeds: &[u64]) -> Vec<Vec<RunResult>> {
    let cells = (0..points.len() * seeds.len())
        .map(|cell| (cell, 0))
        .collect();
    let mut records =
        run_cells(&points, seeds, cells, RunLimits::default(), None, &|_| {}).into_iter();
    points
        .iter()
        .map(|point| {
            seeds
                .iter()
                .map(|&seed| {
                    let rec = records.next().expect("one record per cell");
                    rec.result
                        .unwrap_or_else(|| placeholder_result(point, seed))
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// The scenario runner.

fn dlq_entry_for(
    plan: &Plan,
    campaign: &str,
    n_seeds: usize,
    seeds: &[u64],
    rec: &CellRecord,
) -> DlqEntry {
    let point = rec.cell / n_seeds;
    let n_rows = plan.row_labels.len();
    let n_cols = plan.col_labels.len();
    let col = point % n_cols;
    let row = (point / n_cols) % n_rows;
    let panel = point / (n_cols * n_rows);
    DlqEntry {
        campaign: campaign.to_string(),
        cell: rec.cell,
        point,
        seed: seeds[rec.cell % n_seeds],
        panel: plan.spec.panels.get(panel).cloned().unwrap_or_default(),
        policy: plan.row_labels.get(row).cloned().unwrap_or_default(),
        workload: plan.workload_names.get(panel).cloned().unwrap_or_default(),
        column: plan.col_labels.get(col).cloned().unwrap_or_default(),
        reason: rec.status.as_str().to_string(),
        detail: rec.detail.clone(),
        attempts: rec.attempts,
    }
}

/// Expand and run a scenario, every cell contained. With
/// `cfg.checkpoint` set the sweep is a durable campaign (fresh,
/// resumed or retried per `cfg`; see the module docs); without it the
/// sweep runs in memory and reports failed cells on stderr. Seed
/// precedence: explicit override (`--seeds N`) > the spec's `seeds`
/// list > the `MOON_SEEDS` env default.
pub fn run_spec(
    spec: &ScenarioSpec,
    seeds_override: Option<Vec<u64>>,
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, ScenarioError> {
    let plan = scenarios::expand(spec)?;
    let seeds = seeds_override
        .or_else(|| spec.seeds.clone())
        .unwrap_or_else(scenarios::seeds);
    if seeds.is_empty() {
        // Zero runs per point would panic the profile/detail renderers
        // and silently produce all-DNF series tables.
        return Err(ScenarioError::msg(
            "seed list is empty — provide at least one seed",
        ));
    }
    let n_seeds = seeds.len();
    let n_cells = plan.points.len() * n_seeds;
    let quick = scenarios::quick_mode();
    let campaign = scenarios::codec::content_key(spec, &seeds, quick);

    let mut records: Vec<Option<CellRecord>> = vec![None; n_cells];
    if let Some(path) = cfg.checkpoint.as_deref() {
        if (cfg.resume || cfg.retry.is_some()) && path.is_file() {
            records = load_checkpoint(path, &campaign, n_cells)?;
        } else if cfg.resume || cfg.retry.is_some() {
            eprintln!(
                "campaign {campaign}: no checkpoint at {} — starting fresh",
                path.display()
            );
        }
    }

    // Decide what runs this invocation. Failed cells are *kept* on
    // plain resume (they only re-run through `dlq retry`, which bounds
    // attempts) — a kill-and-resume must not silently burn attempts.
    let mut pending: Vec<(usize, u32)> = Vec::new();
    for (cell, slot) in records.iter_mut().enumerate() {
        match slot {
            None => pending.push((cell, 0)),
            Some(rec) if rec.status != CellStatus::Ok => {
                if cfg.retry.is_some_and(|max| rec.attempts < max) {
                    pending.push((cell, rec.attempts));
                    *slot = None;
                }
            }
            Some(_) => {}
        }
    }
    let restored = n_cells - pending.len();

    // Compact (drops superseded records and any torn tail) and reopen
    // for incremental appends.
    let appender = match cfg.checkpoint.as_deref() {
        Some(path) => {
            let header = encode_header(&campaign, &spec.name, quick, plan.points.len(), &seeds);
            compact_checkpoint(path, &header, &records)?;
            let file = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| ScenarioError::msg(format!("cannot open {}: {e}", path.display())))?;
            if restored > 0 {
                eprintln!(
                    "campaign {campaign}: restored {restored}/{n_cells} cells from {}",
                    path.display()
                );
            }
            Some(Mutex::new(file))
        }
        None => None,
    };
    // Each completed cell is appended to the checkpoint *as it
    // finishes* (one line, one write under the lock), so a kill loses
    // only in-flight cells.
    let append = |rec: &CellRecord| {
        let Some(file) = &appender else { return };
        let mut f = file.lock().expect("checkpoint writer poisoned");
        let mut line = encode_record(rec);
        line.push('\n');
        if let Err(e) = f.write_all(line.as_bytes()) {
            eprintln!(
                "campaign {campaign}: cannot append cell {} to checkpoint: {e}",
                rec.cell
            );
        }
    };
    let fresh = run_cells(
        &plan.points,
        &seeds,
        pending,
        cfg.limits,
        cfg.inject_panic,
        &append,
    );
    let executed = fresh.len();
    for rec in fresh {
        let cell = rec.cell;
        records[cell] = Some(rec);
    }

    // Stitch the grid back together in cell order — restored and fresh
    // cells are indistinguishable from here on, which is the whole
    // byte-identity argument.
    let mut results: Vec<Vec<RunResult>> = Vec::with_capacity(plan.points.len());
    let mut metrics_frags: Vec<Option<&str>> = Vec::with_capacity(n_cells);
    let mut trace_frags: Vec<Option<&str>> = Vec::with_capacity(n_cells);
    let mut failed: Vec<DlqEntry> = Vec::new();
    for (p, point) in plan.points.iter().enumerate() {
        let mut per_point = Vec::with_capacity(n_seeds);
        for (k, &seed) in seeds.iter().enumerate() {
            let rec = records[p * n_seeds + k]
                .as_ref()
                .expect("every cell resolved");
            per_point.push(
                rec.result
                    .clone()
                    .unwrap_or_else(|| placeholder_result(point, seed)),
            );
            metrics_frags.push(rec.metrics_frag.as_deref());
            trace_frags.push(rec.trace_frag.as_deref());
            if rec.status != CellStatus::Ok {
                failed.push(dlq_entry_for(&plan, &campaign, n_seeds, &seeds, rec));
            }
        }
        results.push(per_point);
    }
    let metrics_jsonl = obs::metrics_from_fragments(metrics_frags);
    let chrome_trace = obs::trace_from_fragments(trace_frags);
    let tables = scenarios::render_tables(&plan, &results);
    let report_json = scenarios::report_json(&plan, &results, &seeds);

    match cfg.checkpoint.as_deref() {
        Some(path) => {
            let dlq_path = dlq_path_for(path);
            write_dlq(&dlq_path, &failed)?;
            if !failed.is_empty() {
                eprintln!(
                    "campaign {campaign}: {} failed cell(s) in DLQ {}",
                    failed.len(),
                    dlq_path.display()
                );
            }
        }
        None => {
            for e in &failed {
                eprintln!(
                    "failed cell {} ({} {} {} seed {}): {} — {}",
                    e.cell, e.workload, e.policy, e.column, e.seed, e.reason, e.detail
                );
            }
        }
    }

    Ok(CampaignOutcome {
        plan,
        seeds,
        results,
        tables,
        report_json,
        metrics_jsonl,
        chrome_trace,
        campaign,
        restored,
        executed,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlq_path_derivation() {
        assert_eq!(
            dlq_path_for(Path::new("bench_results/campaigns/x.ckpt.jsonl")),
            PathBuf::from("bench_results/campaigns/x.dlq.jsonl")
        );
        assert_eq!(
            dlq_path_for(Path::new("other.jsonl")),
            PathBuf::from("other.jsonl.dlq.jsonl")
        );
    }

    fn tricky_result() -> RunResult {
        let mut r = placeholder_result(
            &scenarios::expand(&scenarios::registry::find("high-churn").unwrap())
                .unwrap()
                .points[0],
            u64::MAX - 7,
        );
        r.outcome = Outcome::Completed;
        r.job_time = Some(simkit::SimDuration::from_micros(u64::MAX / 3));
        r.unavailability = 0.1 + 0.2; // 0.30000000000000004 — shortest-repr must round-trip
        r.profile.avg_map_time = f64::NAN;
        r.profile.avg_shuffle_time = 1.0 / 3.0;
        r.job.duplicated_tasks = u32::MAX;
        r.events = u64::MAX;
        r.audit = vec!["counter \"x\"\tdrifted\nbadly".into()];
        r.jobs = Some(vec![moon::JobSlo {
            job: 7,
            workload: "sort\"quoted\"".into(),
            submitted: simkit::SimTime::from_micros(u64::MAX / 5),
            first_launch: None,
            finished: Some(simkit::SimTime::from_micros(12)),
            deadline: Some(simkit::SimTime::from_micros(u64::MAX / 7)),
            priority: -3,
            tenant: 2,
            metrics: Default::default(),
        }]);
        r
    }

    /// Everything the byte-identity argument rests on: a `RunResult`
    /// with extreme values survives the checkpoint codec bit-exactly.
    #[test]
    fn record_codec_round_trips_extreme_values() {
        let rec = CellRecord {
            cell: 3,
            status: CellStatus::Ok,
            attempts: 2,
            detail: String::new(),
            result: Some(tricky_result()),
            metrics_frag: Some("{\"run\":3}\n{\"run\":3}\n".into()),
            trace_frag: Some("{\"ph\":\"X\"},\n{\"ph\":\"M\"}".into()),
        };
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.cell, rec.cell);
        assert_eq!(back.status, rec.status);
        assert_eq!(back.attempts, rec.attempts);
        assert_eq!(back.metrics_frag, rec.metrics_frag);
        assert_eq!(back.trace_frag, rec.trace_frag);
        let (a, b) = (rec.result.unwrap(), back.result.unwrap());
        assert_eq!(a.label, b.label);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
        assert_eq!(a.job_time, b.job_time);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.job, b.job);
        assert!(b.profile.avg_map_time.is_nan());
        assert_eq!(
            a.profile.avg_shuffle_time.to_bits(),
            b.profile.avg_shuffle_time.to_bits()
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.audit, b.audit);
        let (ja, jb) = (&a.jobs.unwrap()[0], &b.jobs.unwrap()[0]);
        assert_eq!(ja.job, jb.job);
        assert_eq!(ja.workload, jb.workload);
        assert_eq!(ja.submitted, jb.submitted);
        assert_eq!(ja.first_launch, jb.first_launch);
        assert_eq!(ja.finished, jb.finished);
        assert_eq!(ja.deadline, jb.deadline);
        assert_eq!(ja.priority, jb.priority);
        assert_eq!(ja.tenant, jb.tenant);
        assert_eq!(ja.metrics, jb.metrics);
    }

    #[test]
    fn failure_records_round_trip_without_result() {
        let rec = CellRecord {
            cell: 9,
            status: CellStatus::Panic,
            attempts: 3,
            detail: "index out of bounds: the len is 4\nbut the index is 7".into(),
            result: None,
            metrics_frag: None,
            trace_frag: None,
        };
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.status, CellStatus::Panic);
        assert_eq!(back.detail, rec.detail);
        assert!(back.result.is_none());
        for s in [CellStatus::Livelock, CellStatus::Deadline] {
            assert_eq!(CellStatus::from_name(s.as_str()), Some(s));
        }
    }

    #[test]
    fn dlq_entry_codec_round_trips() {
        let e = DlqEntry {
            campaign: "00ff00ff00ff00ff".into(),
            cell: 11,
            point: 5,
            seed: u64::MAX,
            panel: "sort".into(),
            policy: "MOON \"Hybrid\"".into(),
            workload: "sort".into(),
            column: "p=0.5".into(),
            reason: "panic".into(),
            detail: "boom\n\t\"quoted\"".into(),
            attempts: 2,
        };
        assert_eq!(decode_dlq_entry(&encode_dlq_entry(&e)).unwrap(), e);
    }
}
