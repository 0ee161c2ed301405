//! Folding grid results back into the spec's tables and the
//! machine-readable scenario report. Tables use `moon::report`
//! formatting with title strings from the spec's templates; their
//! bytes are pinned by `data/golden/`.

use crate::expand::Plan;
use crate::spec::{TableKind, TableSpec};
use moon::{report, RunResult};
use workloads::ReduceCount;

/// True when any run in a cell's seed pool ended in a containment
/// verdict (event-limit livelock, wall-deadline, contained panic).
/// Such runs carry *partial* counters — whatever the world had done
/// when it was cut off — so pooling them would print plausible-looking
/// garbage. Every table kind treats a poisoned cell as DNF instead.
pub fn cell_poisoned(results: &[RunResult]) -> bool {
    results.iter().any(|r| r.outcome.is_contained_failure())
}

/// Mean job time over finished seeds (`None` if every seed DNF'd or
/// the pool is [poisoned](cell_poisoned)).
pub fn mean_time(results: &[RunResult]) -> Option<f64> {
    if cell_poisoned(results) {
        return None;
    }
    let done: Vec<f64> = results
        .iter()
        .filter_map(|r| r.job_time.map(|d| d.as_secs_f64()))
        .collect();
    (!done.is_empty()).then(|| done.iter().sum::<f64>() / done.len() as f64)
}

/// Mean duplicated-task count across seeds (`None` when the pool is
/// [poisoned](cell_poisoned) — a cut-off run's duplicate counter is
/// partial, not a measurement).
pub fn mean_duplicates(results: &[RunResult]) -> Option<f64> {
    if cell_poisoned(results) {
        return None;
    }
    Some(
        results
            .iter()
            .map(|r| r.job.duplicated_tasks as f64)
            .sum::<f64>()
            / results.len().max(1) as f64,
    )
}

/// Mean bounded slowdown over every committed job run in a point's
/// seed pool (`None` when no job committed — the saturated regime —
/// or when the pool is [poisoned](cell_poisoned)).
pub fn mean_slowdown(results: &[RunResult]) -> Option<f64> {
    if cell_poisoned(results) {
        return None;
    }
    let v: Vec<f64> = results
        .iter()
        .flat_map(|r| r.jobs.iter().flatten())
        .filter_map(|j| j.bounded_slowdown())
        .collect();
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

fn title_for(table: &TableSpec, plan: &Plan, panel: usize) -> String {
    table
        .title
        .replace("{panel}", &plan.spec.panels[panel])
        .replace("{workload}", &plan.workload_names[panel])
}

/// One row of per-column means for a panel.
fn series_rows(
    plan: &Plan,
    results: &[Vec<RunResult>],
    panel: usize,
    value: impl Fn(&[RunResult]) -> Option<f64>,
) -> Vec<(String, Vec<Option<f64>>)> {
    plan.row_labels
        .iter()
        .enumerate()
        .map(|(row, label)| {
            let values = (0..plan.col_labels.len())
                .map(|col| value(&results[plan.point_index(panel, row, col)]))
                .collect();
            (label.clone(), values)
        })
        .collect()
}

/// The Table I catalog — rendered from resolved workload specs, no
/// simulation involved (byte-compatible with the old `table1` binary).
fn catalog_table(title: &str, plan: &Plan) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str("application\tinput size\t# maps\t# reduces\n");
    for name in &plan.spec.workloads {
        // Catalog rows show the *unshrunk* paper shape.
        let w = match crate::workload::resolve(name) {
            Ok(w) => w,
            Err(_) => continue,
        };
        let reduces = match w.reduces {
            ReduceCount::Fixed(n) => n.to_string(),
            ReduceCount::SlotsFraction(f) => format!(
                "{f} x AvailSlots (= {} on 60x2 slots)",
                ReduceCount::SlotsFraction(f).resolve(120)
            ),
        };
        out.push_str(&format!(
            "{}\t{} GB\t{}\t{}\n",
            w.name,
            w.input_bytes >> 30,
            w.n_maps,
            reduces
        ));
    }
    out.push_str("# (by default, Hadoop runs 2 reduce tasks per node)\n");
    out
}

/// Nearest-rank percentile over ascending-sorted samples.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Per-job SLO aggregates of a multi-job stream: makespan and bounded
/// slowdown means over committed jobs, queueing-delay percentiles over
/// launched jobs — pooled across every seed at the first axis column
/// (streams are usually swept at a single rate, like the profile and
/// detail tables). `job_runs`/`completed` count job *runs* over that
/// pool: with S seeds and an N-job stream, `job_runs` is S·N, not N.
fn jobs_table(title: &str, plan: &Plan, results: &[Vec<RunResult>], panel: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    // Scheduling-metadata columns (deadline-miss rate, preemption count)
    // only render when some pooled row actually carries metadata, so
    // scenarios without `[jobs]` deadlines/priorities/tenants keep their
    // historical byte-identical table shape.
    let scheduled = plan.row_labels.iter().enumerate().any(|(row, _)| {
        results[plan.point_index(panel, row, 0)]
            .iter()
            .flat_map(|r| r.jobs.iter().flatten())
            .any(|j| j.has_metadata())
    });
    out.push_str(
        "policy\tjob_runs\tcompleted\tmakespan_mean(s)\tslowdown_mean\t\
         queue_p50(s)\tqueue_p95(s)",
    );
    if scheduled {
        out.push_str("\tmiss_rate\tpreempted");
    }
    out.push('\n');
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    for (row, label) in plan.row_labels.iter().enumerate() {
        let rs = &results[plan.point_index(panel, row, 0)];
        if cell_poisoned(rs) {
            // A cut-off run's SLO rows are partial; the whole pooled
            // cell is DNF (counts and means), "-" for the percentiles.
            out.push_str(&format!("{label}\tDNF\tDNF\tDNF\tDNF\t-\t-"));
            if scheduled {
                out.push_str("\t-\t-");
            }
            out.push('\n');
            continue;
        }
        let rows: Vec<&moon::JobSlo> = rs.iter().flat_map(|r| r.jobs.iter().flatten()).collect();
        let completed = rows.iter().filter(|j| j.finished.is_some()).count();
        let makespans: Vec<f64> = rows.iter().filter_map(|j| j.makespan_secs()).collect();
        let slowdowns: Vec<f64> = rows.iter().filter_map(|j| j.bounded_slowdown()).collect();
        let mut queues: Vec<f64> = rows.iter().filter_map(|j| j.queue_delay_secs()).collect();
        queues.sort_by(|a, b| a.partial_cmp(b).expect("queue delays are finite"));
        let fmt1 = |v: Option<f64>| v.map(|s| format!("{s:.1}")).unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            label,
            rows.len(),
            completed,
            report::secs_or_dnf(mean(&makespans)),
            mean(&slowdowns)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "DNF".into()),
            fmt1(percentile(&queues, 0.50)),
            fmt1(percentile(&queues, 0.95)),
        ));
        if scheduled {
            // Miss rate is over deadline-carrying job runs only; "-"
            // when this row's pool had none.
            let with_deadline = rows.iter().filter(|j| j.deadline.is_some()).count();
            let missed = rows.iter().filter(|j| j.deadline_missed()).count();
            let preempted: u64 = rows.iter().map(|j| u64::from(j.metrics.preempted)).sum();
            let miss = if with_deadline == 0 {
                "-".into()
            } else {
                format!("{:.2}", missed as f64 / with_deadline as f64)
            };
            out.push_str(&format!("\t{miss}\t{preempted}"));
        }
        out.push('\n');
    }
    out
}

/// The load-vs-bounded-slowdown curve: one row per policy, one column
/// per axis point, cells are mean bounded slowdown over committed job
/// runs (two decimals — slowdowns live near 1, where `secs_or_dnf`'s
/// integer formatting would flatten the curve). `DNF` marks a column
/// where no job committed: the policy saturated at that load.
fn saturation_table(title: &str, plan: &Plan, results: &[Vec<RunResult>], panel: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title} (bounded slowdown)\n"));
    out.push_str("policy");
    for c in &plan.col_labels {
        out.push_str(&format!("\t{c}"));
    }
    out.push('\n');
    for (row, label) in plan.row_labels.iter().enumerate() {
        out.push_str(label);
        for col in 0..plan.col_labels.len() {
            let v = mean_slowdown(&results[plan.point_index(panel, row, col)]);
            out.push('\t');
            out.push_str(&v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "DNF".into()));
        }
        out.push('\n');
    }
    out
}

/// The compact ablation-style detail table (time / dup / kills).
fn detail_table(title: &str, plan: &Plan, results: &[Vec<RunResult>], panel: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str("variant\tjob(s)\tdup\tkilled_maps\tkilled_reduces\n");
    for (row, label) in plan.row_labels.iter().enumerate() {
        // Detail tables are single-column sweeps; show the first column.
        let rs = &results[plan.point_index(panel, row, 0)];
        if cell_poisoned(rs) {
            out.push_str(&format!("{label}\tDNF\tDNF\tDNF\tDNF\n"));
            continue;
        }
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            label,
            report::secs_or_dnf(mean_time(rs)),
            rs[0].job.duplicated_tasks,
            rs[0].job.killed_maps,
            rs[0].job.killed_reduces,
        ));
    }
    out
}

/// Render every table in the spec, panel by panel, separated by blank
/// lines — the text the fig binaries print.
pub fn render_tables(plan: &Plan, results: &[Vec<RunResult>]) -> String {
    let mut out = String::new();
    for table in &plan.spec.tables {
        if table.kind == TableKind::Catalog {
            // The catalog lists every workload in one table.
            out.push_str(&catalog_table(&title_for(table, plan, 0), plan));
            out.push('\n');
            continue;
        }
        for panel in 0..plan.spec.n_panels() {
            let title = title_for(table, plan, panel);
            let text = match table.kind {
                TableKind::Time => report::series_table_cols(
                    &title,
                    &plan.col_labels,
                    &series_rows(plan, results, panel, mean_time),
                    "seconds",
                ),
                TableKind::Duplicates => report::series_table_cols(
                    &title,
                    &plan.col_labels,
                    &series_rows(plan, results, panel, mean_duplicates),
                    "count",
                ),
                TableKind::Profile => {
                    let firsts: Vec<RunResult> = (0..plan.row_labels.len())
                        .map(|row| {
                            let rs = &results[plan.point_index(panel, row, 0)];
                            // Surface the containment verdict itself as
                            // the representative run: `profile_table`
                            // renders contained failures as a DNF row.
                            rs.iter()
                                .find(|r| r.outcome.is_contained_failure())
                                .unwrap_or(&rs[0])
                                .clone()
                        })
                        .collect();
                    report::profile_table(&title, &firsts)
                }
                TableKind::Detail => detail_table(&title, plan, results, panel),
                TableKind::Jobs => jobs_table(&title, plan, results, panel),
                TableKind::Saturation => saturation_table(&title, plan, results, panel),
                TableKind::Catalog => unreachable!("handled above"),
            };
            out.push_str(&text);
            out.push('\n');
        }
    }
    out
}

fn axis_kind_name(plan: &Plan) -> &'static str {
    match plan.spec.axis {
        crate::spec::Axis::Rates(_) => "rates",
        crate::spec::Axis::Correlated(_) => "correlated",
        crate::spec::Axis::TraceFile { .. } => "trace-file",
        crate::spec::Axis::Load(_) => "load",
    }
}

/// The machine-readable scenario report: spec identity, axis, per-row
/// mean series, an outcome tally, and every raw run (rows from
/// `moon::report::json`).
pub fn report_json(plan: &Plan, results: &[Vec<RunResult>], seeds: &[u64]) -> String {
    use moon::report::json;
    let mut series = Vec::new();
    for panel in 0..plan.spec.n_panels() {
        for (row, label) in plan.row_labels.iter().enumerate() {
            let means: Vec<String> = (0..plan.col_labels.len())
                .map(|col| json::opt_number(mean_time(&results[plan.point_index(panel, row, col)])))
                .collect();
            series.push(format!(
                "    {{ \"panel\": \"{}\", \"workload\": \"{}\", \"policy\": \"{}\", \"mean_secs\": [{}] }}",
                json::escape(&plan.spec.panels[panel]),
                json::escape(&plan.workload_names[panel]),
                json::escape(label),
                means.join(", ")
            ));
        }
    }
    let flat: Vec<&RunResult> = results.iter().flatten().collect();
    let seeds_str: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    let cols: Vec<String> = plan
        .col_labels
        .iter()
        .map(|c| format!("\"{}\"", json::escape(c)))
        .collect();
    let values: Vec<String> = plan.axis_values.iter().map(|&v| json::number(v)).collect();
    format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"{}\",\n",
            "  \"title\": \"{}\",\n",
            "  \"quick_mode\": {},\n",
            "  \"seeds\": [{}],\n",
            "  \"axis\": {{ \"kind\": \"{}\", \"columns\": [{}], \"values\": [{}] }},\n",
            "  \"outcomes\": \"{}\",\n",
            "  \"series\": [\n{}\n  ],\n",
            "  \"runs\": {}",
            "}}\n"
        ),
        json::escape(&plan.spec.name),
        json::escape(&plan.spec.title),
        crate::knobs::quick_mode(),
        seeds_str.join(", "),
        axis_kind_name(plan),
        cols.join(", "),
        values.join(", "),
        json::escape(&moon::report::outcome_summary(flat.iter().copied())),
        series.join(",\n"),
        json::results_array(flat),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{expand, registry};
    use moon::Outcome;

    fn fake_result(label: &str, secs: Option<f64>, seed: u64) -> RunResult {
        RunResult {
            label: label.into(),
            workload: "w".into(),
            unavailability: 0.3,
            job_time: secs.map(simkit::SimDuration::from_secs_f64),
            outcome: if secs.is_some() {
                Outcome::Completed
            } else {
                Outcome::Horizon
            },
            job: Default::default(),
            profile: Default::default(),
            fetch_failures: 0,
            events: 1,
            seed,
            jobs: None,
            audit: Vec::new(),
            telemetry: None,
        }
    }

    fn fake_results(plan: &Plan) -> Vec<Vec<RunResult>> {
        (0..plan.n_points())
            .map(|i| {
                vec![fake_result(
                    "x",
                    (i % 3 != 0).then_some(100.0 + i as f64),
                    42,
                )]
            })
            .collect()
    }

    #[test]
    fn mean_helpers() {
        let rs = vec![
            fake_result("a", Some(100.0), 1),
            fake_result("a", None, 2),
            fake_result("a", Some(200.0), 3),
        ];
        assert_eq!(mean_time(&rs), Some(150.0));
        assert_eq!(mean_time(&rs[1..2]), None);
        assert_eq!(mean_duplicates(&rs), Some(0.0));
    }

    #[test]
    fn poisoned_cells_render_dnf_in_every_table_kind() {
        // One livelocked seed poisons its whole pooled cell: the other
        // seeds' numbers must not leak into any table kind.
        let mut livelocked = fake_result("x", None, 2);
        livelocked.outcome = Outcome::EventLimit;
        livelocked.job.duplicated_tasks = 999;
        livelocked.profile.avg_map_time = 123.0;
        livelocked.jobs = Some(vec![fake_slo(10, Some(500))]);
        let pool = vec![fake_result("x", Some(100.0), 1), livelocked];
        assert!(cell_poisoned(&pool));
        assert_eq!(mean_time(&pool), None, "time cell must DNF");
        assert_eq!(mean_duplicates(&pool), None, "dup cell must DNF");
        assert_eq!(mean_slowdown(&pool), None, "slowdown cell must DNF");
        // The same rule holds for the wall-deadline and crash verdicts.
        for outcome in [Outcome::Deadline, Outcome::Crashed] {
            let mut r = fake_result("x", None, 3);
            r.outcome = outcome;
            assert!(cell_poisoned(&[r]));
        }

        // End to end: poison the first point of each scenario whose
        // tables exercise Profile/Detail/Jobs and check the rendered
        // rows say DNF, not numbers pooled from the healthy seed.
        let plan = expand::expand(&registry::find("job-stream-light").unwrap()).unwrap();
        let results: Vec<Vec<RunResult>> = (0..plan.n_points())
            .map(|i| {
                let mut a = fake_result("x", Some(300.0), 1);
                a.jobs = Some(vec![fake_slo(100, Some(300))]);
                let mut b = fake_result("x", Some(200.0), 2);
                b.jobs = Some(vec![fake_slo(60, Some(260))]);
                if i == 0 {
                    b.outcome = Outcome::EventLimit;
                    b.job_time = None;
                }
                vec![a, b]
            })
            .collect();
        let text = render_tables(&plan, &results);
        let first = plan.row_labels.first().unwrap();
        assert!(
            text.contains(&format!("{first}\tDNF\tDNF\tDNF\tDNF\t-\t-")),
            "jobs table must DNF the poisoned pooled row: {text}"
        );
        let plan = expand::expand(&registry::find("table2").unwrap()).unwrap();
        let results: Vec<Vec<RunResult>> = (0..plan.n_points())
            .map(|i| {
                let mut r = fake_result("x", Some(100.0), 1);
                r.profile.avg_map_time = 21.0;
                if i == 0 {
                    r.outcome = Outcome::Deadline;
                    r.job_time = None;
                }
                vec![r]
            })
            .collect();
        let text = render_tables(&plan, &results);
        assert!(
            text.contains("\tDNF\tDNF\tDNF\tDNF\tDNF\n"),
            "profile table must DNF the poisoned row: {text}"
        );
    }

    #[test]
    fn tables_render_with_substituted_titles() {
        let plan = expand::expand(&registry::find("high-churn").unwrap()).unwrap();
        let results = fake_results(&plan);
        let text = render_tables(&plan, &results);
        assert!(
            text.contains("## High churn: execution time (seconds)"),
            "{text}"
        );
        assert!(
            text.contains("## High churn: duplicated tasks (count)"),
            "{text}"
        );
        assert!(text.contains("p=0.7"), "{text}");
        assert!(text.contains("MOON-Hybrid\t"), "{text}");
        assert!(text.contains("DNF"), "{text}");
    }

    #[test]
    fn catalog_matches_table1_binary_output() {
        let plan = expand::expand(&registry::find("table1").unwrap()).unwrap();
        let text = render_tables(&plan, &[]);
        assert!(
            text.starts_with("# Table I — application configurations\n"),
            "{text}"
        );
        assert!(
            text.contains("application\tinput size\t# maps\t# reduces\n"),
            "{text}"
        );
        assert!(
            text.contains("sort\t24 GB\t384\t0.9 x AvailSlots (= 108 on 60x2 slots)"),
            "{text}"
        );
        assert!(text.contains("word count\t20 GB\t320\t20"), "{text}");
        assert!(
            text.contains("# (by default, Hadoop runs 2 reduce tasks per node)"),
            "{text}"
        );
    }

    #[test]
    fn saturation_table_renders_per_column_slowdowns() {
        let plan = expand::expand(&registry::find("fleet-1k").unwrap()).unwrap();
        // One job row per run: makespan 150 s over a 100 s service
        // time ⇒ bounded slowdown 1.50 in every non-DNF cell.
        let slo = moon::JobSlo {
            job: 0,
            workload: "quick".into(),
            submitted: simkit::SimTime::ZERO,
            first_launch: Some(simkit::SimTime::from_secs(50)),
            finished: Some(simkit::SimTime::from_secs(150)),
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: Default::default(),
        };
        let results: Vec<Vec<RunResult>> = (0..plan.n_points())
            .map(|i| {
                let mut r = fake_result("x", Some(150.0), 42);
                // Starve the last column's first policy row: no job
                // committed there, so its cell must read DNF.
                r.jobs = if i == 3 {
                    Some(vec![])
                } else {
                    Some(vec![slo.clone()])
                };
                vec![r]
            })
            .collect();
        let text = render_tables(&plan, &results);
        assert!(
            text.contains("## Fleet 1k: bounded slowdown vs arrival rate (bounded slowdown)"),
            "{text}"
        );
        assert!(
            text.contains("MOON-Hybrid\t1.50\t1.50\t1.50\tDNF"),
            "{text}"
        );
        assert!(
            text.contains("Hadoop1Min\t1.50\t1.50\t1.50\t1.50"),
            "{text}"
        );
        assert!(text.contains("jobs/h=240"), "{text}");
    }

    fn fake_slo(launch: u64, finished: Option<u64>) -> moon::JobSlo {
        moon::JobSlo {
            job: 0,
            workload: "quick".into(),
            submitted: simkit::SimTime::ZERO,
            first_launch: Some(simkit::SimTime::from_secs(launch)),
            finished: finished.map(simkit::SimTime::from_secs),
            deadline: None,
            priority: 0,
            tenant: 0,
            metrics: Default::default(),
        }
    }

    #[test]
    fn mean_slowdown_pools_committed_jobs_across_seeds() {
        // Three seeds of the same point: seed 1 commits a job at
        // slowdown 1.5 alongside a DNF job, seed 2 commits one at 2.5,
        // seed 3's stream starved entirely. The pool must average only
        // the committed rows — across seeds, not per seed.
        let mut a = fake_result("x", Some(300.0), 1);
        a.jobs = Some(vec![fake_slo(100, Some(300)), fake_slo(100, None)]);
        let mut b = fake_result("x", Some(200.0), 2);
        b.jobs = Some(vec![fake_slo(120, Some(200))]);
        let mut c = fake_result("x", None, 3);
        c.jobs = Some(vec![fake_slo(50, None)]);
        assert_eq!(mean_slowdown(&[a, b, c.clone()]), Some(2.0));
        // A pool where nothing committed is the saturated regime: None,
        // which the saturation table renders as DNF.
        assert_eq!(mean_slowdown(&[c]), None);
        assert_eq!(mean_slowdown(&[]), None);
    }

    #[test]
    fn jobs_table_pools_mixed_committed_and_dnf_cells() {
        let plan = expand::expand(&registry::find("job-stream-light").unwrap()).unwrap();
        // Two seeds per point. First policy row: seed 1 commits a job
        // (makespan 300 s over a 200 s service time ⇒ slowdown 1.50)
        // next to a launched-but-never-finished job; seed 2's whole
        // stream starves. Remaining rows: all jobs DNF.
        let results: Vec<Vec<RunResult>> = (0..plan.n_points())
            .map(|i| {
                let mut a = fake_result("x", Some(300.0), 1);
                let mut b = fake_result("x", None, 2);
                if i == 0 {
                    a.jobs = Some(vec![fake_slo(100, Some(300)), fake_slo(150, None)]);
                    b.jobs = Some(vec![]);
                } else {
                    a.jobs = Some(vec![fake_slo(40, None)]);
                    b.jobs = Some(vec![fake_slo(60, None)]);
                }
                vec![a, b]
            })
            .collect();
        let text = render_tables(&plan, &results);
        assert!(text.contains("## Job stream light: per-job SLOs"), "{text}");
        // Pooled row: 2 job runs across both seeds, 1 committed;
        // makespan/slowdown average the committed job only, queue
        // percentiles pool both *launched* jobs (delays 100 s, 150 s:
        // p50 = 100, p95 = 150 by nearest rank).
        let first = plan.row_labels.first().unwrap();
        assert!(
            text.contains(&format!("{first}\t2\t1\t300\t1.50\t100.0\t150.0")),
            "{text}"
        );
        // An all-DNF row keeps its run count but shows DNF aggregates —
        // queue delays still render (those jobs did launch).
        let last = plan.row_labels.last().unwrap();
        assert!(
            text.contains(&format!("{last}\t2\t0\tDNF\tDNF\t40.0\t60.0")),
            "{text}"
        );
    }

    #[test]
    fn jobs_table_gates_scheduling_columns_on_metadata() {
        let plan = expand::expand(&registry::find("job-stream-light").unwrap()).unwrap();
        // Metadata-free rows keep the historical header (pinned above in
        // jobs_table_pools_mixed_committed_and_dnf_cells); one row with a
        // deadline flips the whole table to the extended shape.
        let results: Vec<Vec<RunResult>> = (0..plan.n_points())
            .map(|i| {
                let mut a = fake_result("x", Some(300.0), 1);
                let mut slo = fake_slo(100, Some(300));
                if i == 0 {
                    // Deadline at 200 s — the job finished at 300 s, so
                    // it missed; one preemption on the row.
                    slo.deadline = Some(simkit::SimTime::from_secs(200));
                    slo.metrics.preempted = 1;
                }
                a.jobs = Some(vec![slo]);
                vec![a]
            })
            .collect();
        let text = render_tables(&plan, &results);
        assert!(
            text.contains("queue_p95(s)\tmiss_rate\tpreempted"),
            "{text}"
        );
        let first = plan.row_labels.first().unwrap();
        assert!(
            text.contains(&format!("{first}\t1\t1\t300\t1.50\t100.0\t100.0\t1.00\t1")),
            "{text}"
        );
        // Metadata-less sibling rows render "-" for miss rate and a zero
        // preemption count under the extended header.
        let second = &plan.row_labels[1];
        assert!(
            text.contains(&format!("{second}\t1\t1\t300\t1.50\t100.0\t100.0\t-\t0")),
            "{text}"
        );
    }

    #[test]
    fn report_json_carries_axis_series_and_runs() {
        let plan = expand::expand(&registry::find("high-churn").unwrap()).unwrap();
        let results = fake_results(&plan);
        let json = report_json(&plan, &results, &[42]);
        assert!(json.contains("\"scenario\": \"high-churn\""), "{json}");
        assert!(json.contains("\"kind\": \"rates\""), "{json}");
        assert!(json.contains("\"values\": [0.3, 0.5, 0.7]"), "{json}");
        assert!(json.contains("\"policy\": \"MOON-Hybrid\""), "{json}");
        assert!(json.contains("\"outcome\": \"completed\""), "{json}");
        assert!(json.contains("\"outcomes\": \""), "{json}");
        // Structural sanity: braces balance.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }
}
