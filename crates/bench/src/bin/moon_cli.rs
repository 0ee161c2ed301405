//! `moon-cli` — the scenario runner.
//!
//! ```text
//! moon-cli list                                  # catalog of built-in scenarios
//! moon-cli describe <name|file.toml>             # spec as TOML + derived grid info
//! moon-cli run <name|file.toml> [--seeds N] [--out FILE]
//!              [--metrics-out FILE] [--trace-out FILE]
//! moon-cli fuzz <n-cases> [--seed S] [--out FILE] [--fault invert-fair]
//! ```
//!
//! `run` prints the scenario's paper-style tables to stdout and writes
//! a machine-readable JSON report (default `bench_results/<name>.json`,
//! or `--out FILE`). A `.toml` argument (or any path to an existing
//! file) is parsed as a scenario file instead of a registry name, so
//! new workloads and volatility regimes need no Rust at all. Env knobs
//! (`MOON_SEEDS`, `MOON_QUICK`, `MOON_THREADS`) apply as everywhere.
//!
//! `--metrics-out FILE` / `--trace-out FILE` turn on telemetry (if the
//! scenario's own `[telemetry]` table didn't already) and write the
//! sweep's gauge samples as JSONL and its span timeline as Chrome
//! trace-event JSON (open in Perfetto or `chrome://tracing`); see
//! [`bench::obs`]. Without these flags — and without `[telemetry]` in
//! the spec — recording is off and output is byte-identical to older
//! builds.
//!
//! `fuzz` runs the seeded metamorphic fuzz campaign
//! ([`scenarios::fuzz`]): it samples scenarios, checks the invariant
//! oracle, shrinks failures to ready-to-run `.toml` repros, writes a
//! JSON report, and exits nonzero on any violation.
//!
//! ## Containment and checkpoints
//!
//! Every run is contained per cell ([`bench::campaign`]): a panicking,
//! livelocked (`--event-budget N`, default 200M events) or deadlined
//! (`--cell-deadline-secs S`) (point, seed) cell is recorded as failed
//! and renders DNF while the rest of the grid completes, and a run with
//! failed cells exits 1 after writing all artifacts.
//!
//! `--checkpoint [FILE]` adds durability: every completed cell is
//! appended to a checkpoint file (default
//! `bench_results/campaigns/<name>.ckpt.jsonl`), a killed sweep resumes
//! with `--resume` (completed cells are restored, artifacts come out
//! byte-identical to an uninterrupted run), and failed cells are
//! recorded in a dead-letter queue next to the checkpoint. `dlq list`
//! shows the failed cells; `dlq retry` re-runs them with bounded
//! attempts. Without a checkpoint the failed cells' coordinates go to
//! stderr. The checkpoint is keyed by a content hash of the spec +
//! seeds + quick mode, so pass the same spec, seeds, `MOON_QUICK`, and
//! telemetry flags when resuming or retrying.

use scenarios::{codec, registry, ScenarioError, ScenarioSpec};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  moon-cli list
  moon-cli describe <name|file.toml>
  moon-cli run <name|file.toml> [--seeds N] [--out FILE]
               [--metrics-out FILE] [--trace-out FILE]
               [--checkpoint [FILE]] [--resume] [--event-budget N]
               [--cell-deadline-secs S] [--inject-panic CELL]
  moon-cli dlq list <name|file.toml> [--checkpoint FILE]
  moon-cli dlq retry <name|file.toml> [--checkpoint FILE] [--max-attempts N]
               [--seeds N] [--out FILE]
               [--metrics-out FILE] [--trace-out FILE]
               [--event-budget N] [--cell-deadline-secs S]
  moon-cli fuzz <n-cases> [--seed S] [--out FILE] [--fault invert-fair]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value of a flag documented as a positive integer; zero or
/// anything unparsable fails with exit 2, naming the flag.
fn positive_int(flag: &str, value: &str) -> u64 {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("{flag} needs a positive integer")),
    }
}

/// A registry name, or a path to a scenario TOML file.
fn resolve_spec(arg: &str) -> Result<ScenarioSpec, ScenarioError> {
    if arg.ends_with(".toml") || Path::new(arg).is_file() {
        return codec::load_file(Path::new(arg));
    }
    registry::find(arg).ok_or_else(|| {
        ScenarioError::msg(format!(
            "unknown scenario `{arg}` (known: {}; or pass a .toml file)",
            registry::names().join(", ")
        ))
    })
}

fn cmd_list() {
    println!("# built-in scenarios (run with: moon-cli run <name>)");
    println!("name\truns/seed\ttitle");
    for spec in registry::all() {
        println!("{}\t{}\t{}", spec.name, spec.runs_per_seed(), spec.title);
    }
}

fn cmd_describe(arg: &str) {
    let spec = match resolve_spec(arg) {
        Ok(s) => s,
        Err(e) => fail(&format!("describe {arg}: {e}")),
    };
    println!("# scenario `{}` — {}", spec.name, spec.title);
    println!(
        "# {} panel(s) x {} policies x {} column(s) = {} runs/seed{}",
        spec.n_panels(),
        spec.policies.len(),
        spec.n_cols(),
        spec.runs_per_seed(),
        if scenarios::quick_mode() {
            " (MOON_QUICK=1: shrunken cluster/workload)"
        } else {
            ""
        }
    );
    match &spec.seeds {
        Some(s) => println!("# seeds: {s:?} (from the spec)"),
        None => println!(
            "# seeds: MOON_SEEDS env (currently {:?})",
            scenarios::seeds()
        ),
    }
    println!();
    print!("{}", codec::to_string(&spec));
}

/// Options for `moon-cli run` beyond the scenario name.
#[derive(Default)]
struct RunOpts {
    seeds_override: Option<Vec<u64>>,
    out: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    /// `Some(None)` is a bare `--checkpoint` (the conventional path).
    checkpoint: Option<Option<PathBuf>>,
    resume: bool,
    event_budget: Option<u64>,
    cell_deadline_secs: Option<u64>,
    inject_panic: Option<usize>,
}

impl RunOpts {
    /// The runner config. `--checkpoint`, `--resume` and `dlq retry`
    /// (`retry = Some(max_attempts)`) make the sweep durable.
    fn campaign_config(&self, spec_name: &str, retry: Option<u32>) -> bench::CampaignConfig {
        let durable = self.checkpoint.is_some() || self.resume || retry.is_some();
        let checkpoint = durable.then(|| {
            self.checkpoint
                .clone()
                .flatten()
                .unwrap_or_else(|| bench::campaign::default_checkpoint_path(spec_name))
        });
        let mut cfg = bench::CampaignConfig {
            checkpoint,
            resume: self.resume,
            retry,
            inject_panic: self.inject_panic,
            ..Default::default()
        };
        if let Some(b) = self.event_budget {
            cfg.limits.event_budget = b;
        }
        if let Some(s) = self.cell_deadline_secs {
            cfg.limits.wall_deadline = Some(std::time::Duration::from_secs(s));
        }
        cfg
    }
}

/// Shared body of `run` / `dlq retry`: run the sweep, print tables +
/// outcome summary + audit findings, write the JSON report and any
/// telemetry artifacts, and exit 1 if any cell failed.
fn run_sweep(arg: &str, opts: &RunOpts, retry: Option<u32>) {
    let mut spec = match resolve_spec(arg) {
        Ok(s) => s,
        Err(e) if retry.is_some() => fail(&format!("dlq retry {arg}: {e}")),
        Err(e) => fail(&format!("run {arg}: {e}")),
    };
    // Telemetry artifact flags imply recording: inject the default
    // [telemetry] knob unless the scenario already configured one.
    // This happens before the campaign key is computed, so resumes and
    // retries must pass the same telemetry flags.
    if (opts.metrics_out.is_some() || opts.trace_out.is_some()) && spec.telemetry.is_none() {
        spec.telemetry = Some(scenarios::TelemetrySpec::default());
    }
    let cfg = opts.campaign_config(&spec.name, retry);
    let run = match bench::run_spec(&spec, opts.seeds_override.clone(), &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scenario `{}` failed: {e}", spec.name);
            std::process::exit(1);
        }
    };
    print!("{}", run.tables);
    if !run.results.is_empty() {
        eprintln!(
            "outcomes: {}",
            moon::report::outcome_summary(run.results.iter().flatten())
        );
    }
    // Conservation-audit findings are simulator bugs, not statistics —
    // always show them so a fuzz repro run is self-explanatory.
    for r in run.results.iter().flatten() {
        for a in &r.audit {
            eprintln!("audit ({} seed {}): {a}", r.label, r.seed);
        }
    }
    let out_path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("bench_results/{}.json", spec.name));
    bench::write_report(Path::new(&out_path), &run.report_json);
    if let Some(p) = &opts.metrics_out {
        bench::write_report(Path::new(p), &run.metrics_jsonl);
    }
    if let Some(p) = &opts.trace_out {
        bench::write_report(Path::new(p), &run.chrome_trace);
    }
    if !run.failed.is_empty() {
        let hint = if cfg.checkpoint.is_some() {
            " — `moon-cli dlq list` shows them, `moon-cli dlq retry` re-runs them with bounded attempts"
        } else {
            ""
        };
        eprintln!(
            "campaign {}: {} cell(s) failed{hint}",
            run.campaign,
            run.failed.len()
        );
        std::process::exit(1);
    }
}

fn cmd_dlq_list(arg: &str, checkpoint: Option<String>) {
    let spec = match resolve_spec(arg) {
        Ok(s) => s,
        Err(e) => fail(&format!("dlq list {arg}: {e}")),
    };
    let ckpt = checkpoint
        .map(PathBuf::from)
        .unwrap_or_else(|| bench::campaign::default_checkpoint_path(&spec.name));
    let dlq = bench::campaign::dlq_path_for(&ckpt);
    let entries = match bench::campaign::load_dlq(&dlq) {
        Ok(e) => e,
        Err(e) => fail(&format!("dlq list: {e}")),
    };
    if entries.is_empty() {
        eprintln!("dlq {}: empty", dlq.display());
        return;
    }
    println!("cell\tpoint\tpanel\tpolicy\tcolumn\tseed\treason\tattempts\tdetail");
    for e in &entries {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            e.cell,
            e.point,
            e.panel,
            e.policy,
            e.column,
            e.seed,
            e.reason,
            e.attempts,
            e.detail.replace(['\t', '\n'], " "),
        );
    }
    eprintln!("dlq {}: {} failed cell(s)", dlq.display(), entries.len());
}

fn cmd_fuzz(n_cases: u32, seed: u64, out: Option<String>, fault: Option<scenarios::Fault>) {
    let out_path = PathBuf::from(out.unwrap_or_else(|| "bench_results/fuzz.json".into()));
    // Repros and generated traces live next to the report.
    let out_dir = out_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."))
        .join("fuzz");
    let cfg = scenarios::FuzzConfig {
        n_cases,
        seed,
        out_dir,
        fault,
    };
    let report = match scenarios::run_fuzz(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fuzz campaign failed: {e}");
            std::process::exit(1);
        }
    };
    bench::write_report(&out_path, &report.to_json());
    if report.ok() {
        eprintln!(
            "fuzz: {} cases clean ({} simulation runs)",
            report.n_cases, report.experiments
        );
    } else {
        // Any invariant violation fails the invocation so CI can gate
        // on it.
        eprintln!("fuzz: {} violation(s):", report.violations.len());
        for v in &report.violations {
            eprintln!(
                "  case {} [{}] {}: {}{}",
                v.case,
                v.mutation.as_str(),
                v.invariant,
                v.detail,
                v.repro
                    .as_deref()
                    .map(|p| format!(" (repro: {p})"))
                    .unwrap_or_default()
            );
        }
        std::process::exit(1);
    }
}

/// Consume one `run`-style flag at `args[*i]` into `opts`, advancing
/// `*i`. Returns false (leaving `*i` alone) on an unrecognized flag so
/// callers can layer their own flags or fail with usage.
fn parse_run_flag(args: &[String], i: &mut usize, opts: &mut RunOpts) -> bool {
    let value = |what: &str| -> String {
        args.get(*i + 1)
            .unwrap_or_else(|| fail(&format!("{what} needs a value")))
            .clone()
    };
    match args[*i].as_str() {
        "--seeds" => {
            let n = positive_int("--seeds", &value("--seeds"));
            opts.seeds_override = Some(scenarios::seed_list(n));
            *i += 2;
        }
        "--out" => {
            opts.out = Some(value("--out"));
            *i += 2;
        }
        "--metrics-out" => {
            opts.metrics_out = Some(value("--metrics-out"));
            *i += 2;
        }
        "--trace-out" => {
            opts.trace_out = Some(value("--trace-out"));
            *i += 2;
        }
        "--checkpoint" => {
            // The file argument is optional: bare `--checkpoint` uses
            // the conventional bench_results/campaigns/<name> path.
            match args.get(*i + 1) {
                Some(v) if !v.starts_with("--") => {
                    opts.checkpoint = Some(Some(PathBuf::from(v)));
                    *i += 2;
                }
                _ => {
                    opts.checkpoint = Some(None);
                    *i += 1;
                }
            }
        }
        "--resume" => {
            opts.resume = true;
            *i += 1;
        }
        "--event-budget" => {
            opts.event_budget = Some(positive_int("--event-budget", &value("--event-budget")));
            *i += 2;
        }
        "--cell-deadline-secs" => {
            opts.cell_deadline_secs = Some(positive_int(
                "--cell-deadline-secs",
                &value("--cell-deadline-secs"),
            ));
            *i += 2;
        }
        "--inject-panic" => {
            opts.inject_panic = Some(
                value("--inject-panic")
                    .parse()
                    .unwrap_or_else(|_| fail("--inject-panic needs a cell index")),
            );
            *i += 2;
        }
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("describe") => match args.get(1) {
            Some(name) => cmd_describe(name),
            None => fail(USAGE),
        },
        Some("run") => {
            let name = match args.get(1) {
                Some(n) if !n.starts_with("--") => n.clone(),
                _ => fail(USAGE),
            };
            let mut opts = RunOpts::default();
            let mut i = 2;
            while i < args.len() {
                if !parse_run_flag(&args, &mut i, &mut opts) {
                    fail(&format!("unknown flag `{}`\n{USAGE}", args[i]));
                }
            }
            run_sweep(&name, &opts, None);
        }
        Some("dlq") => {
            let name = match args.get(2) {
                Some(n) if !n.starts_with("--") => n.clone(),
                _ => fail(USAGE),
            };
            match args.get(1).map(String::as_str) {
                Some("list") => {
                    let mut checkpoint = None;
                    let mut i = 3;
                    while i < args.len() {
                        match args[i].as_str() {
                            "--checkpoint" => {
                                checkpoint = Some(
                                    args.get(i + 1)
                                        .unwrap_or_else(|| fail("--checkpoint needs a file path"))
                                        .clone(),
                                );
                                i += 2;
                            }
                            other => fail(&format!("unknown flag `{other}`\n{USAGE}")),
                        }
                    }
                    cmd_dlq_list(&name, checkpoint);
                }
                Some("retry") => {
                    let mut opts = RunOpts::default();
                    let mut max_attempts = 3u32;
                    let mut i = 3;
                    while i < args.len() {
                        if args[i].as_str() == "--max-attempts" {
                            max_attempts = args
                                .get(i + 1)
                                .and_then(|v| v.parse().ok())
                                .unwrap_or_else(|| fail("--max-attempts needs a positive integer"));
                            i += 2;
                        } else if !parse_run_flag(&args, &mut i, &mut opts) {
                            fail(&format!("unknown flag `{}`\n{USAGE}", args[i]));
                        }
                    }
                    run_sweep(&name, &opts, Some(max_attempts));
                }
                _ => fail(USAGE),
            }
        }
        Some("fuzz") => {
            let n_cases: u32 = match args.get(1) {
                Some(n) => n
                    .parse()
                    .unwrap_or_else(|_| fail("fuzz needs a positive case count")),
                None => fail(USAGE),
            };
            let mut seed = 7u64;
            let mut out = None;
            let mut fault = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" => {
                        seed = args
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| fail("--seed needs an integer"));
                        i += 2;
                    }
                    "--out" => {
                        out = Some(
                            args.get(i + 1)
                                .unwrap_or_else(|| fail("--out needs a file path"))
                                .clone(),
                        );
                        i += 2;
                    }
                    "--fault" => {
                        fault = match args.get(i + 1).map(String::as_str) {
                            Some("invert-fair") => Some(scenarios::Fault::InvertFairShare),
                            _ => fail("--fault takes `invert-fair`"),
                        };
                        i += 2;
                    }
                    other => fail(&format!("unknown flag `{other}`\n{USAGE}")),
                }
            }
            cmd_fuzz(n_cases, seed, out, fault);
        }
        _ => fail(USAGE),
    }
}
