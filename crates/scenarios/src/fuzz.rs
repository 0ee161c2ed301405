//! Seeded scenario fuzzer with a metamorphic oracle.
//!
//! `moon-cli fuzz <n>` samples valid [`ScenarioSpec`]s from the model
//! space (fleet size, horizon, availability axes — synthetic rates,
//! correlated fleets, generated trace files — arrival streams, and
//! policies from the catalog), runs each case *and a mutated sibling*
//! (more nodes, more churn, more replication, a fair-share twin, a
//! priority boost, or uniformly slacked deadlines — plus a
//! preemption-under-idle single-run check) through
//! [`moon::Experiment`], and checks the invariant suite in
//! [`crate::invariants`]. Failing cases are shrunk by a deterministic
//! minimizer (halve fleet / jobs / horizon while the failure
//! reproduces) and written as ready-to-run `.toml` repros next to the
//! JSON report.
//!
//! Everything is derived from the root seed: the same
//! `fuzz <n> --seed S` invocation runs the same cases, in order, on
//! one thread, and produces a byte-identical report.

use crate::invariants;
use crate::spec::{
    ArrivalSpec, Axis, CorrelatedAxis, CorrelatedKnob, JobStreamSpec, PolicyRef, ScenarioError,
    ScenarioSpec, TableKind, TableSpec,
};
use crate::{codec, expand};
use availability::{TraceGenConfig, TraceGenerator};
use moon::RunResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkit::{derive_seed, SimTime};
use std::path::{Path, PathBuf};

/// Per-case RNG-stream keys (arbitrary, fixed: reseeding keeps every
/// case independent of how much entropy its neighbours consumed).
const TRACE_SEED_KEY: u64 = 0x7000;

/// Evaluation budget for the shrinking minimizer, in re-evaluations.
const SHRINK_BUDGET: u32 = 12;

/// A deliberately injected bug, used to validate that the oracle
/// actually catches scheduler regressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Replace every sampled `+fair` policy with `+fair-inverted`
    /// ([`mapred::CrossJobPolicy::FairShareInverted`]): most-loaded
    /// job first, newest queued job first — starves the queue tail,
    /// which invariant 4 must flag.
    InvertFairShare,
}

impl Fault {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Fault::InvertFairShare => "invert-fair",
        }
    }
}

/// The metamorphic mutation a case pairs its base scenario with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Grow the volatile fleet by ~50% — mean makespan must not rise.
    AddNodes,
    /// Raise the synthetic unavailability rate by 0.2 — mean makespan
    /// must not drop.
    RaiseUnavailability,
    /// Bump the policy's intermediate replication degree — committed
    /// work must not drop.
    RaiseReplication,
    /// Run the same scenario under FIFO and fair-share cross-job
    /// scheduling — fair share's p95 queueing delay must not exceed
    /// FIFO's under a symmetric closed load.
    FairVsFifo,
    /// Boost alternating jobs' priority under preemptive
    /// strict-priority scheduling — the boosted jobs' own p95 queueing
    /// delay must not rise.
    RaisePriority,
    /// Add the same constant slack to every job's relative deadline
    /// under preemptive EDF — the schedule must be bit-identical (a
    /// uniform shift preserves every EDF comparison).
    SlackDeadlines,
    /// Space batch arrivals so jobs never coexist under a preemptive
    /// policy — the preemption count must be exactly zero.
    PreemptIdle,
}

impl Mutation {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::AddNodes => "add-nodes",
            Mutation::RaiseUnavailability => "raise-unavailability",
            Mutation::RaiseReplication => "raise-replication",
            Mutation::FairVsFifo => "fair-vs-fifo",
            Mutation::RaisePriority => "raise-priority",
            Mutation::SlackDeadlines => "slack-deadlines",
            Mutation::PreemptIdle => "preempt-idle",
        }
    }
}

/// Fuzz campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Cases to sample and check.
    pub n_cases: u32,
    /// Root seed; everything (specs, run seeds, trace files) derives
    /// from it.
    pub seed: u64,
    /// Directory for generated trace files and shrunken repro specs.
    pub out_dir: PathBuf,
    /// Optional injected bug (oracle validation).
    pub fault: Option<Fault>,
}

/// One sampled case: a base scenario plus the mutation it is checked
/// against.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Case index within the campaign.
    pub index: u32,
    /// The base scenario (carries its own explicit seeds).
    pub spec: ScenarioSpec,
    /// The paired metamorphic mutation.
    pub mutation: Mutation,
}

/// One confirmed invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Case index.
    pub case: u32,
    /// The case's mutation kind.
    pub mutation: Mutation,
    /// Which invariant failed (`inv1-add-nodes`, …).
    pub invariant: String,
    /// Human-readable description with the measured values.
    pub detail: String,
    /// Path of the shrunken ready-to-run repro spec.
    pub repro: Option<String>,
}

/// The campaign result: counters plus every violation, JSON-writable.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases checked.
    pub n_cases: u32,
    /// Root seed.
    pub seed: u64,
    /// Was quick mode shrinking the workloads?
    pub quick: bool,
    /// The injected fault, if any.
    pub fault: Option<Fault>,
    /// Total simulation runs (including mutants and shrinking).
    pub experiments: u64,
    /// Per-case mutation kinds, indexed by case.
    pub case_mutations: Vec<Mutation>,
    /// Every confirmed violation, in case order.
    pub violations: Vec<Violation>,
}

impl FuzzReport {
    /// Did the campaign pass (no violations)?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic JSON rendering (keys and order fixed; no
    /// timestamps or map iteration).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"fuzz\": {\n");
        s.push_str(&format!("    \"n_cases\": {},\n", self.n_cases));
        s.push_str(&format!("    \"seed\": {},\n", self.seed));
        s.push_str(&format!("    \"quick\": {},\n", self.quick));
        match self.fault {
            Some(f) => s.push_str(&format!("    \"fault\": \"{}\",\n", f.as_str())),
            None => s.push_str("    \"fault\": null,\n"),
        }
        s.push_str(&format!("    \"experiments\": {},\n", self.experiments));
        s.push_str("    \"mutations\": [");
        for (i, m) in self.case_mutations.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", m.as_str()));
        }
        s.push_str("],\n");
        s.push_str("    \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i > 0 { ",\n      " } else { "\n      " });
            s.push_str(&format!(
                "{{\"case\": {}, \"mutation\": \"{}\", \"invariant\": \"{}\", \
                 \"detail\": \"{}\", \"repro\": {}}}",
                v.case,
                v.mutation.as_str(),
                simkit::json::escape(&v.invariant),
                simkit::json::escape(&v.detail),
                match &v.repro {
                    Some(p) => format!("\"{}\"", simkit::json::escape(p)),
                    None => "null".into(),
                }
            ));
        }
        if self.violations.is_empty() {
            s.push_str("]\n");
        } else {
            s.push_str("\n    ]\n");
        }
        s.push_str("  }\n}\n");
        s
    }
}

/// An invariant failure found while evaluating one case.
struct Failure {
    invariant: String,
    detail: String,
}

// ---------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------

/// Catalog ids the non-replication cases draw their policy row from.
/// The preemptive entries keep the monotone invariants honest under
/// kill-and-requeue scheduling too.
const POLICY_POOL: [&str; 10] = [
    "moon-hybrid",
    "moon",
    "hadoop-1min",
    "hadoop-5min",
    "vo-v2",
    "ha-v1",
    "no-homestretch",
    "hadoop-fetch-rule",
    "moon-hybrid+preempt",
    "moon-hybrid+fair+preempt",
];

/// Base ids whose trailing digit is the replication degree invariant 3
/// bumps.
const REPLICATION_POOL: [&str; 5] = ["vo-v1", "vo-v2", "ha-v1", "ha-v2", "hadoop-vo-v2"];

/// Policy bases paired with their `+fair` twin for invariant 4.
const FAIR_POOL: [&str; 3] = ["moon-hybrid", "hadoop-1min", "ha-v1"];

fn sample_jobs(rng: &mut StdRng) -> Option<JobStreamSpec> {
    if rng.gen_bool(0.5) {
        return None;
    }
    let arrivals = match rng.gen_range(0u8..3) {
        0 => ArrivalSpec::Batch {
            offsets_secs: (0..rng.gen_range(1usize..4))
                .map(|i| i as f64 * 60.0)
                .collect(),
        },
        1 => ArrivalSpec::Poisson {
            rate_per_hour: rng.gen_range(30.0..120.0),
            count: rng.gen_range(2u32..5),
        },
        _ => ArrivalSpec::Closed {
            clients: rng.gen_range(2u32..4),
            jobs_per_client: rng.gen_range(1u32..3),
            think_secs: rng.gen_range(10.0..60.0),
        },
    };
    Some(JobStreamSpec::new(arrivals))
}

/// Generate a synthetic fleet, write it as a `moon-trace v1` file, and
/// verify it round-trips through the tracefile codec.
fn emit_trace_file(
    case_seed: u64,
    index: u32,
    n_nodes: u32,
    rate: f64,
    horizon_secs: u64,
    out_dir: &Path,
    failures: &mut Vec<Failure>,
) -> Result<String, ScenarioError> {
    let mut cfg = TraceGenConfig::paper(rate);
    cfg.horizon = SimTime::from_secs(horizon_secs);
    let fleet: Vec<_> = (0..n_nodes)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(case_seed, TRACE_SEED_KEY + i as u64));
            TraceGenerator::poisson_insertion(&cfg, &mut rng)
        })
        .collect();
    let dir = out_dir.join("traces");
    std::fs::create_dir_all(&dir)
        .map_err(|e| ScenarioError::msg(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(format!("case-{index}.trace"));
    availability::save_fleet(&path, &fleet)
        .map_err(|e| ScenarioError::msg(format!("cannot write {}: {e}", path.display())))?;
    // Satellite check: fuzzer-emitted traces must round-trip exactly.
    match availability::load_fleet(&path) {
        Ok(back) if back == fleet => {}
        Ok(_) => failures.push(Failure {
            invariant: "trace-roundtrip".into(),
            detail: format!("{} round-trips to a different fleet", path.display()),
        }),
        Err(e) => failures.push(Failure {
            invariant: "trace-roundtrip".into(),
            detail: format!("{} fails to re-load: {e}", path.display()),
        }),
    }
    Ok(path.to_string_lossy().into_owned())
}

/// Sample case `index` of the campaign. Deterministic in
/// `(cfg.seed, index)`; trace-file cases write their fleet under
/// `cfg.out_dir` (and report codec failures via `failures`).
fn sample_case(
    cfg: &FuzzConfig,
    index: u32,
    failures: &mut Vec<Failure>,
) -> Result<FuzzCase, ScenarioError> {
    let case_seed = derive_seed(cfg.seed, index as u64);
    let mut rng = StdRng::seed_from_u64(case_seed);
    let mutation = match rng.gen_range(0u8..14) {
        0 | 1 => Mutation::AddNodes,
        2 | 3 => Mutation::RaiseUnavailability,
        4 | 5 => Mutation::RaiseReplication,
        6 | 7 => Mutation::FairVsFifo,
        8 | 9 => Mutation::RaisePriority,
        10 | 11 => Mutation::SlackDeadlines,
        _ => Mutation::PreemptIdle,
    };
    let horizon_secs = match mutation {
        Mutation::FairVsFifo | Mutation::RaisePriority => rng.gen_range(3600u64..7200),
        // Widely spaced batches must all fit before the horizon.
        Mutation::PreemptIdle => rng.gen_range(5400u64..7200),
        _ => rng.gen_range(2400u64..7200),
    };
    let rate = rng.gen_range(0.05..0.35);
    // Fair-vs-FIFO and priority-boost cases need sustained queueing for
    // the tail to mean anything: a small fleet and tightly packed
    // arrivals. Preempt-idle wants the opposite — room for each job to
    // finish alone. The other mutations sample a roomier range.
    let n_volatile = match mutation {
        Mutation::FairVsFifo | Mutation::RaisePriority => rng.gen_range(4u32..=6),
        Mutation::SlackDeadlines => rng.gen_range(4u32..=8),
        Mutation::PreemptIdle => rng.gen_range(8u32..=14),
        _ => rng.gen_range(6u32..=14),
    };
    let dedicated = match mutation {
        Mutation::FairVsFifo | Mutation::RaisePriority | Mutation::SlackDeadlines => 1,
        Mutation::PreemptIdle => rng.gen_range(2u32..=3),
        _ => rng.gen_range(1u32..=3),
    };
    let axis = match mutation {
        Mutation::AddNodes
        | Mutation::RaiseUnavailability
        | Mutation::FairVsFifo
        | Mutation::RaisePriority
        | Mutation::SlackDeadlines
        | Mutation::PreemptIdle => Axis::Rates(vec![rate]),
        Mutation::RaiseReplication => match rng.gen_range(0u8..5) {
            0 => Axis::Correlated(CorrelatedAxis {
                points: vec![rng.gen_range(0.5..2.0)],
                knob: CorrelatedKnob::SessionsPerHour,
                sessions_per_hour: 1.0,
                session_fraction: rng.gen_range(0.2..0.5),
                background: rng.gen_range(0.05..0.3),
                diurnal: rng.gen_bool(0.5),
            }),
            1 => {
                let path = emit_trace_file(
                    case_seed,
                    index,
                    n_volatile,
                    rate,
                    horizon_secs,
                    &cfg.out_dir,
                    failures,
                )?;
                Axis::TraceFile { path }
            }
            _ => Axis::Rates(vec![rate]),
        },
    };
    let (policies, jobs, tables) = match mutation {
        Mutation::FairVsFifo => {
            let base = FAIR_POOL[rng.gen_range(0..FAIR_POOL.len())];
            let suffix = match cfg.fault {
                Some(Fault::InvertFairShare) => "+fair-inverted",
                None => "+fair",
            };
            // Symmetric: every job runs the panel workload.
            let jobs = JobStreamSpec::new(ArrivalSpec::Closed {
                clients: rng.gen_range(5u32..=7),
                jobs_per_client: rng.gen_range(2u32..=3),
                think_secs: rng.gen_range(2.0..6.0),
            });
            (
                vec![
                    PolicyRef::new(base),
                    PolicyRef::new(format!("{base}{suffix}")),
                ],
                Some(jobs),
                vec![TableSpec {
                    kind: TableKind::Jobs,
                    title: "fuzz jobs{panel}".into(),
                }],
            )
        }
        Mutation::RaisePriority => {
            // Batch arrivals: job ids follow the fixed offsets in both
            // runs, so boosted rows match their base twins by id.
            let base = FAIR_POOL[rng.gen_range(0..FAIR_POOL.len())];
            let n = rng.gen_range(4u32..=6);
            let gap = rng.gen_range(10.0..40.0);
            let jobs = JobStreamSpec::new(ArrivalSpec::Batch {
                offsets_secs: (0..n).map(|i| i as f64 * gap).collect(),
            });
            (
                vec![PolicyRef::new(format!("{base}+prio"))],
                Some(jobs),
                vec![TableSpec {
                    kind: TableKind::Jobs,
                    title: "fuzz jobs{panel}".into(),
                }],
            )
        }
        Mutation::SlackDeadlines => {
            let base = FAIR_POOL[rng.gen_range(0..FAIR_POOL.len())];
            let n = rng.gen_range(3u32..=5);
            let gap = rng.gen_range(15.0..45.0);
            let mut jobs = JobStreamSpec::new(ArrivalSpec::Batch {
                offsets_secs: (0..n).map(|i| i as f64 * gap).collect(),
            });
            jobs.deadlines_secs = (0..rng.gen_range(1usize..=3))
                .map(|i| 300.0 * (i + 1) as f64)
                .collect();
            (
                vec![PolicyRef::new(format!("{base}+edf"))],
                Some(jobs),
                vec![TableSpec {
                    kind: TableKind::Jobs,
                    title: "fuzz jobs{panel}".into(),
                }],
            )
        }
        Mutation::PreemptIdle => {
            let base = FAIR_POOL[rng.gen_range(0..FAIR_POOL.len())];
            let n = rng.gen_range(2u32..=3);
            let gap = rng.gen_range(900.0..1500.0);
            let jobs = JobStreamSpec::new(ArrivalSpec::Batch {
                offsets_secs: (0..n).map(|i| i as f64 * gap).collect(),
            });
            (
                vec![PolicyRef::new(format!("{base}+preempt"))],
                Some(jobs),
                vec![TableSpec {
                    kind: TableKind::Jobs,
                    title: "fuzz jobs{panel}".into(),
                }],
            )
        }
        Mutation::RaiseReplication => {
            let base = REPLICATION_POOL[rng.gen_range(0..REPLICATION_POOL.len())];
            (
                vec![PolicyRef::new(base)],
                sample_jobs(&mut rng),
                vec![TableSpec {
                    kind: TableKind::Time,
                    title: "fuzz{panel}".into(),
                }],
            )
        }
        _ => {
            let base = POLICY_POOL[rng.gen_range(0..POLICY_POOL.len())];
            (
                vec![PolicyRef::new(base)],
                sample_jobs(&mut rng),
                vec![TableSpec {
                    kind: TableKind::Time,
                    title: "fuzz{panel}".into(),
                }],
            )
        }
    };
    let seeds = vec![
        derive_seed(case_seed, 1) % 1_000_000,
        derive_seed(case_seed, 2) % 1_000_000,
    ];
    let spec = ScenarioSpec {
        name: format!("fuzz-case-{index}"),
        title: format!("fuzzed scenario {index} ({})", mutation.as_str()),
        workloads: vec!["quick".into()],
        panels: vec![String::new()],
        policies,
        axis,
        dedicated,
        // Trace axes size the fleet from the file and ignore this,
        // but carrying it keeps the spec shape uniform.
        n_volatile: Some(n_volatile),
        seeds: Some(seeds),
        horizon_secs: Some(horizon_secs),
        jobs,
        telemetry: None,
        tables,
    };
    Ok(FuzzCase {
        index,
        spec,
        mutation,
    })
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// Expand and run a spec serially: `results[point][seed]`.
fn run_spec(spec: &ScenarioSpec, runs: &mut u64) -> Result<Vec<Vec<RunResult>>, ScenarioError> {
    let plan = expand::expand(spec)?;
    let seeds = spec.seeds.clone().expect("fuzz specs carry explicit seeds");
    let mut results = Vec::with_capacity(plan.points.len());
    for pt in &plan.points {
        let mut per_seed = Vec::with_capacity(seeds.len());
        for &seed in &seeds {
            *runs += 1;
            per_seed.push(
                moon::Experiment {
                    cluster: pt.cluster.clone(),
                    policy: pt.policy.clone(),
                    workload: pt.workload.clone(),
                    seed,
                }
                .run_stream(pt.jobs.clone()),
            );
        }
        results.push(per_seed);
    }
    Ok(results)
}

/// Derive the mutated sibling spec for a case's base spec.
fn mutant_of(case: &FuzzCase) -> Option<ScenarioSpec> {
    let mut m = case.spec.clone();
    m.name = format!("{}-mut", case.spec.name);
    match case.mutation {
        Mutation::AddNodes => {
            let n = m.n_volatile?;
            m.n_volatile = Some(n + n / 2 + 1);
        }
        Mutation::RaiseUnavailability => match &mut m.axis {
            Axis::Rates(points) => {
                for p in points.iter_mut() {
                    *p += 0.2;
                }
            }
            _ => return None,
        },
        Mutation::RaiseReplication => {
            let id = &case.spec.policies.first()?.id;
            let digits = id.rfind(|c: char| !c.is_ascii_digit()).map(|i| i + 1)?;
            let (head, tail) = id.split_at(digits);
            let k: u32 = tail.parse().ok()?;
            m.policies[0] = PolicyRef::new(format!("{head}{}", k + 1));
        }
        Mutation::RaisePriority => {
            // Boost alternating jobs; the rest keep the default 0.
            m.jobs.as_mut()?.priorities = vec![5, 0];
        }
        Mutation::SlackDeadlines => {
            for d in m.jobs.as_mut()?.deadlines_secs.iter_mut() {
                *d += 600.0;
            }
        }
        Mutation::FairVsFifo => return None, // both rows live in the base spec
        Mutation::PreemptIdle => return None, // single-run check
    }
    Some(m)
}

/// Evaluate one case end to end: round-trip checks, conservation
/// checks on every run, and the mutation's metamorphic comparison.
fn eval_case(case: &FuzzCase, runs: &mut u64) -> Result<Vec<Failure>, ScenarioError> {
    let mut failures = Vec::new();
    let horizon = case.spec.horizon_secs.expect("fuzz specs pin the horizon") as f64;

    // Invariant 6 — the generated spec round-trips bit-exactly.
    if let Some(detail) = invariants::check_roundtrip(&case.spec) {
        failures.push(Failure {
            invariant: "inv6-roundtrip".into(),
            detail,
        });
    }

    let base = run_spec(&case.spec, runs)?;
    for point in &base {
        for detail in invariants::check_conservation(point) {
            failures.push(Failure {
                invariant: "inv5-conservation".into(),
                detail,
            });
        }
    }

    match case.mutation {
        Mutation::FairVsFifo => {
            // Row 0 is FIFO, row 1 the fair(-inverted) twin; single
            // panel and column, so the rows are points 0 and 1.
            let fifo = invariants::pooled_p95_queue_delay(&base[0]);
            let fair = invariants::pooled_p95_queue_delay(&base[1]);
            if let (Some(fifo), Some(fair)) = (fifo, fair) {
                if let Some(detail) = invariants::check_fair_tail(fifo, fair) {
                    failures.push(Failure {
                        invariant: "inv4-fair-tail".into(),
                        detail,
                    });
                }
            }
        }
        Mutation::PreemptIdle => {
            if let Some(detail) = invariants::check_preempt_idle(&base[0]) {
                failures.push(Failure {
                    invariant: "inv9-preempt-idle".into(),
                    detail,
                });
            }
        }
        Mutation::RaisePriority | Mutation::SlackDeadlines => {
            if let Some(mutant) = mutant_of(case) {
                if let Some(detail) = invariants::check_roundtrip(&mutant) {
                    failures.push(Failure {
                        invariant: "inv6-roundtrip".into(),
                        detail,
                    });
                }
                let mutated = run_spec(&mutant, runs)?;
                for point in &mutated {
                    for detail in invariants::check_conservation(point) {
                        failures.push(Failure {
                            invariant: "inv5-conservation".into(),
                            detail,
                        });
                    }
                }
                let check = match case.mutation {
                    Mutation::RaisePriority => {
                        // Boosted rows carry their nonzero priority in
                        // the SLO output; match base twins by job id.
                        let ids: std::collections::BTreeSet<u32> = mutated[0]
                            .iter()
                            .filter_map(|r| r.jobs.as_ref())
                            .flatten()
                            .filter(|j| j.priority > 0)
                            .map(|j| j.job)
                            .collect();
                        let before = invariants::pooled_p95_queue_delay_of(&base[0], |j| {
                            ids.contains(&j.job)
                        });
                        let after =
                            invariants::pooled_p95_queue_delay_of(&mutated[0], |j| j.priority > 0);
                        match (before, after) {
                            (Some(b), Some(a)) => invariants::check_priority_boost(b, a)
                                .map(|d| ("inv7-priority-boost", d)),
                            _ => None,
                        }
                    }
                    Mutation::SlackDeadlines => {
                        invariants::check_slack_deadlines(&base[0], &mutated[0])
                            .map(|d| ("inv8-deadline-slack", d))
                    }
                    _ => unreachable!("outer arm is priority/deadline only"),
                };
                if let Some((invariant, detail)) = check {
                    failures.push(Failure {
                        invariant: invariant.into(),
                        detail,
                    });
                }
            }
        }
        _ => {
            if let Some(mutant) = mutant_of(case) {
                if let Some(detail) = invariants::check_roundtrip(&mutant) {
                    failures.push(Failure {
                        invariant: "inv6-roundtrip".into(),
                        detail,
                    });
                }
                let mutated = run_spec(&mutant, runs)?;
                for point in &mutated {
                    for detail in invariants::check_conservation(point) {
                        failures.push(Failure {
                            invariant: "inv5-conservation".into(),
                            detail,
                        });
                    }
                }
                let base_score = invariants::score(&base[0], horizon);
                let mut_score = invariants::score(&mutated[0], horizon);
                let check = match case.mutation {
                    Mutation::AddNodes => invariants::check_add_nodes(base_score, mut_score)
                        .map(|d| ("inv1-add-nodes", d)),
                    Mutation::RaiseUnavailability => {
                        invariants::check_raise_unavailability(base_score, mut_score)
                            .map(|d| ("inv2-raise-unavailability", d))
                    }
                    Mutation::RaiseReplication => invariants::check_raise_replication(
                        invariants::completed_count(&base[0]),
                        invariants::completed_count(&mutated[0]),
                        base_score,
                        horizon,
                    )
                    .map(|d| ("inv3-raise-replication", d)),
                    _ => unreachable!("handled above"),
                };
                if let Some((invariant, detail)) = check {
                    failures.push(Failure {
                        invariant: invariant.into(),
                        detail,
                    });
                }
            }
        }
    }
    Ok(failures)
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

fn halve_jobs(jobs: &JobStreamSpec) -> Option<JobStreamSpec> {
    let arrivals = match &jobs.arrivals {
        ArrivalSpec::Batch { offsets_secs } if offsets_secs.len() > 1 => ArrivalSpec::Batch {
            offsets_secs: offsets_secs[..offsets_secs.len() / 2].to_vec(),
        },
        ArrivalSpec::Poisson {
            rate_per_hour,
            count,
        } if *count > 1 => ArrivalSpec::Poisson {
            rate_per_hour: *rate_per_hour,
            count: count / 2,
        },
        ArrivalSpec::Closed {
            clients,
            jobs_per_client,
            think_secs,
        } => {
            // Keep ≥2 clients so the contention the tail-latency
            // invariant needs survives shrinking.
            let c = (clients / 2).max(2);
            let j = (jobs_per_client / 2).max(1);
            if c == *clients && j == *jobs_per_client {
                return None;
            }
            ArrivalSpec::Closed {
                clients: c,
                jobs_per_client: j,
                think_secs: *think_secs,
            }
        }
        _ => return None,
    };
    Some(JobStreamSpec {
        arrivals,
        ..jobs.clone()
    })
}

/// Candidate one-step shrinks of a case, in preference order.
fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    if !matches!(case.spec.axis, Axis::TraceFile { .. }) {
        if let Some(n) = case.spec.n_volatile {
            if n >= 8 {
                let mut c = case.clone();
                c.spec.n_volatile = Some(n / 2);
                out.push(c);
            }
        }
    }
    if let Some(jobs) = &case.spec.jobs {
        if let Some(smaller) = halve_jobs(jobs) {
            let mut c = case.clone();
            c.spec.jobs = Some(smaller);
            out.push(c);
        }
    }
    if let Some(h) = case.spec.horizon_secs {
        if h > 1800 {
            let mut c = case.clone();
            c.spec.horizon_secs = Some(h / 2);
            out.push(c);
        }
    }
    out
}

/// Deterministic minimizer: greedily apply the first one-step shrink
/// that still reproduces `invariant`, until none does or the budget
/// runs out.
fn shrink(case: &FuzzCase, invariant: &str, runs: &mut u64) -> FuzzCase {
    let mut cur = case.clone();
    let mut budget = SHRINK_BUDGET;
    'outer: while budget > 0 {
        for cand in shrink_candidates(&cur) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            let reproduces = eval_case(&cand, runs)
                .map(|fs| fs.iter().any(|f| f.invariant == invariant))
                .unwrap_or(false);
            if reproduces {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    cur
}

// ---------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------

/// Run a fuzz campaign: sample `n_cases` scenarios, check every
/// invariant, shrink failures, and write repro specs under
/// `cfg.out_dir`. Deterministic in `cfg.seed` (serial execution, no
/// wall-clock anywhere).
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, ScenarioError> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| ScenarioError::msg(format!("cannot create {}: {e}", cfg.out_dir.display())))?;
    let mut report = FuzzReport {
        n_cases: cfg.n_cases,
        seed: cfg.seed,
        quick: crate::quick_mode(),
        fault: cfg.fault,
        experiments: 0,
        case_mutations: Vec::with_capacity(cfg.n_cases as usize),
        violations: Vec::new(),
    };
    for index in 0..cfg.n_cases {
        let mut failures = Vec::new();
        let case = sample_case(cfg, index, &mut failures)?;
        report.case_mutations.push(case.mutation);
        failures.extend(eval_case(&case, &mut report.experiments)?);
        for f in failures {
            // Shrink while the same invariant reproduces, then write
            // the minimized spec as a ready-to-run repro. Sampling
            // failures (trace round-trip) skip shrinking — the spec
            // isn't what failed.
            let repro = if f.invariant.starts_with("inv") {
                let small = shrink(&case, &f.invariant, &mut report.experiments);
                let path = cfg
                    .out_dir
                    .join(format!("repro-case-{index}-{}.toml", f.invariant));
                simkit::fsio::atomic_write(&path, codec::to_string(&small.spec).as_bytes())
                    .map_err(|e| {
                        ScenarioError::msg(format!("cannot write {}: {e}", path.display()))
                    })?;
                Some(path.to_string_lossy().into_owned())
            } else {
                None
            };
            report.violations.push(Violation {
                case: index,
                mutation: case.mutation,
                invariant: f.invariant,
                detail: f.detail,
                repro,
            });
        }
        if (index + 1) % 25 == 0 || index + 1 == cfg.n_cases {
            eprintln!(
                "fuzz: {}/{} cases, {} runs, {} violation(s)",
                index + 1,
                cfg.n_cases,
                report.experiments,
                report.violations.len()
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u32, seed: u64, fault: Option<Fault>) -> FuzzConfig {
        let out = std::env::temp_dir().join(format!("moon-fuzz-test-{seed}-{n}"));
        FuzzConfig {
            n_cases: n,
            seed,
            out_dir: out,
            fault,
        }
    }

    #[test]
    fn sampled_specs_are_valid_and_round_trip() {
        let cfg = cfg(30, 99, None);
        for index in 0..cfg.n_cases {
            let mut failures = Vec::new();
            let case = sample_case(&cfg, index, &mut failures).unwrap();
            assert!(
                failures.is_empty(),
                "case {index}: {:?}",
                failures[0].detail
            );
            assert_eq!(
                invariants::check_roundtrip(&case.spec),
                None,
                "case {index}"
            );
            // Every sampled spec must expand (policies resolve, axis
            // well-formed) without running anything.
            crate::expand(&case.spec)
                .unwrap_or_else(|e| panic!("case {index} fails to expand: {e}"));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let cfg = cfg(10, 7, None);
        for index in 0..cfg.n_cases {
            let a = sample_case(&cfg, index, &mut Vec::new()).unwrap();
            let b = sample_case(&cfg, index, &mut Vec::new()).unwrap();
            assert_eq!(a.spec, b.spec, "case {index}");
            assert_eq!(a.mutation, b.mutation, "case {index}");
        }
    }

    #[test]
    fn mutants_perturb_the_sampled_dimension() {
        let cfg = cfg(40, 3, None);
        for index in 0..cfg.n_cases {
            let case = sample_case(&cfg, index, &mut Vec::new()).unwrap();
            match case.mutation {
                Mutation::FairVsFifo => {
                    assert_eq!(case.spec.policies.len(), 2);
                    assert!(case.spec.policies[1].id.ends_with("+fair"));
                    assert!(mutant_of(&case).is_none());
                }
                Mutation::AddNodes => {
                    let m = mutant_of(&case).unwrap();
                    assert!(m.n_volatile.unwrap() > case.spec.n_volatile.unwrap());
                }
                Mutation::RaiseUnavailability => {
                    let m = mutant_of(&case).unwrap();
                    let (Axis::Rates(a), Axis::Rates(b)) = (&case.spec.axis, &m.axis) else {
                        panic!("case {index}: expected rate axes");
                    };
                    assert!(b[0] > a[0]);
                }
                Mutation::RaiseReplication => {
                    let m = mutant_of(&case).unwrap();
                    assert_ne!(m.policies[0].id, case.spec.policies[0].id);
                    crate::policy::resolve(&m.policies[0].id)
                        .unwrap_or_else(|e| panic!("case {index}: {e}"));
                }
                Mutation::RaisePriority => {
                    assert!(case.spec.policies[0].id.ends_with("+prio"));
                    assert!(case.spec.jobs.as_ref().unwrap().priorities.is_empty());
                    let m = mutant_of(&case).unwrap();
                    assert_eq!(m.jobs.as_ref().unwrap().priorities, vec![5, 0]);
                    assert_eq!(invariants::check_roundtrip(&m), None);
                }
                Mutation::SlackDeadlines => {
                    assert!(case.spec.policies[0].id.ends_with("+edf"));
                    let base = &case.spec.jobs.as_ref().unwrap().deadlines_secs;
                    assert!(!base.is_empty());
                    let m = mutant_of(&case).unwrap();
                    let slacked = &m.jobs.as_ref().unwrap().deadlines_secs;
                    assert!(base
                        .iter()
                        .zip(slacked)
                        .all(|(b, s)| (s - b - 600.0).abs() < 1e-9));
                    assert_eq!(invariants::check_roundtrip(&m), None);
                }
                Mutation::PreemptIdle => {
                    assert!(case.spec.policies[0].id.ends_with("+preempt"));
                    assert!(mutant_of(&case).is_none());
                    let ArrivalSpec::Batch { offsets_secs } =
                        &case.spec.jobs.as_ref().unwrap().arrivals
                    else {
                        panic!("case {index}: preempt-idle uses batch arrivals");
                    };
                    assert!(offsets_secs.windows(2).all(|w| w[1] - w[0] >= 900.0));
                }
            }
        }
    }

    #[test]
    fn fault_injection_swaps_in_the_inverted_policy() {
        let cfg = cfg(40, 3, Some(Fault::InvertFairShare));
        let mut saw_fair = false;
        for index in 0..cfg.n_cases {
            let case = sample_case(&cfg, index, &mut Vec::new()).unwrap();
            if case.mutation == Mutation::FairVsFifo {
                saw_fair = true;
                assert!(case.spec.policies[1].id.ends_with("+fair-inverted"));
            }
        }
        assert!(saw_fair, "40 cases must sample at least one fair pair");
    }

    #[test]
    fn report_json_is_deterministic_and_wellformed() {
        let r = FuzzReport {
            n_cases: 2,
            seed: 7,
            quick: true,
            fault: Some(Fault::InvertFairShare),
            experiments: 12,
            case_mutations: vec![Mutation::AddNodes, Mutation::FairVsFifo],
            violations: vec![Violation {
                case: 1,
                mutation: Mutation::FairVsFifo,
                invariant: "inv4-fair-tail".into(),
                detail: "p95 \"bad\"".into(),
                repro: Some("out/repro.toml".into()),
            }],
        };
        let j = r.to_json();
        assert_eq!(j, r.to_json());
        assert!(j.contains("\"fault\": \"invert-fair\""), "{j}");
        assert!(j.contains("\\\"bad\\\""), "{j}");
        assert!(j.contains("\"mutations\": [\"add-nodes\", \"fair-vs-fifo\"]"));
    }

    #[test]
    fn shrink_candidates_halve_each_dimension() {
        let cfg = cfg(60, 11, None);
        for index in 0..cfg.n_cases {
            let case = sample_case(&cfg, index, &mut Vec::new()).unwrap();
            for cand in shrink_candidates(&case) {
                // Every candidate stays a valid, round-trippable spec.
                assert_eq!(invariants::check_roundtrip(&cand.spec), None);
                crate::expand(&cand.spec).unwrap();
            }
        }
    }
}
