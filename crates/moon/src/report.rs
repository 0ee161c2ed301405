//! Paper-style table formatting for experiment results, plus the
//! machine-readable JSON writer ([`json`]) shared by the bench dumps
//! and `moon-cli --out`.

use crate::metrics::{Outcome, RunResult};

/// Format seconds or "DNF" for jobs that missed the horizon.
pub fn secs_or_dnf(t: Option<f64>) -> String {
    match t {
        Some(s) => format!("{s:.0}"),
        None => "DNF".into(),
    }
}

/// One-line outcome tally for a batch of runs, e.g.
/// `"5 completed, 1 horizon DNF"` — with livelocked (event-limit) runs
/// called out loudly when present, since those are simulator bugs
/// rather than legitimate paper-style DNFs.
pub fn outcome_summary<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> String {
    let (mut done, mut horizon, mut livelock, mut deadline, mut crashed) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for r in results {
        match r.outcome {
            Outcome::Completed => done += 1,
            Outcome::Horizon => horizon += 1,
            Outcome::EventLimit => livelock += 1,
            Outcome::Deadline => deadline += 1,
            Outcome::Crashed => crashed += 1,
        }
    }
    let mut s = format!("{done} completed");
    if horizon > 0 {
        s.push_str(&format!(", {horizon} horizon DNF"));
    }
    if livelock > 0 {
        s.push_str(&format!(
            ", {livelock} EVENT-LIMIT (livelock — investigate, not a real DNF)"
        ));
    }
    if deadline > 0 {
        s.push_str(&format!(
            ", {deadline} WALL-DEADLINE (cell budget exceeded)"
        ));
    }
    if crashed > 0 {
        s.push_str(&format!(", {crashed} CRASHED (panic contained)"));
    }
    s
}

/// Render a series table: one row per policy label, one column per
/// unavailability rate — the layout of Figures 4–7.
pub fn series_table(
    title: &str,
    rates: &[f64],
    rows: &[(String, Vec<Option<f64>>)],
    unit: &str,
) -> String {
    let cols: Vec<String> = rates.iter().map(|r| format!("p={r}")).collect();
    series_table_cols(title, &cols, rows, unit)
}

/// [`series_table`] with explicit column labels, for axes that are not
/// unavailability rates (correlated-session intensity, trace replays).
pub fn series_table_cols(
    title: &str,
    cols: &[String],
    rows: &[(String, Vec<Option<f64>>)],
    unit: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title} ({unit})\n"));
    out.push_str("policy");
    for c in cols {
        out.push_str(&format!("\t{c}"));
    }
    out.push('\n');
    for (label, values) in rows {
        out.push_str(label);
        for v in values {
            out.push('\t');
            out.push_str(&secs_or_dnf(*v));
        }
        out.push('\n');
    }
    out
}

/// Render Table II: execution profiles at one unavailability rate.
pub fn profile_table(title: &str, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(
        "policy\tavg_map(s)\tavg_shuffle(s)\tavg_reduce(s)\tkilled_maps\tkilled_reduces\n",
    );
    for r in results {
        if r.outcome.is_contained_failure() {
            // A cut-off run's per-task averages are partial, not a
            // profile: the whole row is DNF.
            out.push_str(&format!("{}\tDNF\tDNF\tDNF\tDNF\tDNF\n", r.label));
            continue;
        }
        out.push_str(&format!(
            "{}\t{:.2}\t{:.2}\t{:.2}\t{}\t{}\n",
            r.label,
            r.profile.avg_map_time,
            r.profile.avg_shuffle_time,
            r.profile.avg_reduce_time,
            r.profile.killed_maps,
            r.profile.killed_reduces
        ));
    }
    out
}

/// Hand-rolled JSON emission for run results.
///
/// The workspace has no serialization framework (DESIGN.md §4), and the
/// row schema is flat enough that hand-rolling stays readable. This is
/// the single source for the per-run JSON row of the scenario reports.
/// The value writers are [`simkit::json`]'s, re-exported here for the
/// report, campaign and observability emitters.
pub mod json {
    use crate::metrics::{JobSlo, RunResult};
    pub use simkit::json::{escape, number, opt_number};

    /// One per-job SLO row of a multi-job run. Scheduling-metadata keys
    /// (`deadline_secs`, `deadline_missed`, `priority`, `tenant`,
    /// `preempted`) ride along only when the job carries metadata or
    /// was preempted, so metadata-free streams keep the historical
    /// byte-stable schema.
    fn job_slo_row(j: &JobSlo) -> String {
        let secs = |t: simkit::SimTime| t.since(simkit::SimTime::ZERO).as_secs_f64();
        let mut row = format!(
            concat!(
                "      {{ \"job\": {}, \"workload\": \"{}\", \"submit_secs\": {}, ",
                "\"queue_secs\": {}, \"makespan_secs\": {}, \"slowdown\": {}, ",
                "\"completed\": {}"
            ),
            j.job,
            escape(&j.workload),
            number(secs(j.submitted)),
            opt_number(j.queue_delay_secs()),
            opt_number(j.makespan_secs()),
            opt_number(j.bounded_slowdown()),
            j.finished.is_some(),
        );
        if j.has_metadata() {
            row.push_str(&format!(
                concat!(
                    ", \"deadline_secs\": {}, \"deadline_missed\": {}, ",
                    "\"priority\": {}, \"tenant\": {}, \"preempted\": {}"
                ),
                opt_number(j.deadline.map(secs)),
                j.deadline_missed(),
                j.priority,
                j.tenant,
                j.metrics.preempted,
            ));
        }
        row.push_str(" }");
        row
    }

    /// One run as a two-space-indented JSON object (no trailing comma).
    /// Single-job runs emit exactly the historical schema; multi-job
    /// runs append a `"jobs"` array of per-job SLO rows.
    pub fn result_row(r: &RunResult) -> String {
        let mut row = format!(
            concat!(
                "  {{\n",
                "    \"label\": \"{}\",\n",
                "    \"workload\": \"{}\",\n",
                "    \"unavailability\": {},\n",
                "    \"seed\": {},\n",
                "    \"job_secs\": {},\n",
                "    \"outcome\": \"{}\",\n",
                "    \"duplicated_tasks\": {},\n",
                "    \"killed_maps\": {},\n",
                "    \"killed_reduces\": {},\n",
                "    \"map_output_relaunches\": {},\n",
                "    \"avg_map_time\": {},\n",
                "    \"avg_shuffle_time\": {},\n",
                "    \"avg_reduce_time\": {},\n",
                "    \"fetch_failures\": {},\n",
                "    \"events\": {}"
            ),
            escape(&r.label),
            escape(&r.workload),
            number(r.unavailability),
            r.seed,
            opt_number(r.job_time.map(|d| d.as_secs_f64())),
            r.outcome.as_str(),
            r.job.duplicated_tasks,
            r.job.killed_maps,
            r.job.killed_reduces,
            r.job.map_output_relaunches,
            number(r.profile.avg_map_time),
            number(r.profile.avg_shuffle_time),
            number(r.profile.avg_reduce_time),
            r.fetch_failures,
            r.events,
        );
        if let Some(jobs) = &r.jobs {
            row.push_str(",\n    \"jobs\": [\n");
            let rows: Vec<String> = jobs.iter().map(job_slo_row).collect();
            row.push_str(&rows.join(",\n"));
            row.push_str("\n    ]");
        }
        // Audit findings ride along only when present, so the report is
        // self-contained for fuzz/CI triage while clean runs keep the
        // historical byte-stable schema.
        if !r.audit.is_empty() {
            row.push_str(",\n    \"audit\": [\n");
            let lines: Vec<String> = r
                .audit
                .iter()
                .map(|a| format!("      \"{}\"", escape(a)))
                .collect();
            row.push_str(&lines.join(",\n"));
            row.push_str("\n    ]");
        }
        row.push_str("\n  }");
        row
    }

    /// A flat array of [`result_row`]s, newline-terminated.
    pub fn results_array<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> String {
        let rows: Vec<String> = results.into_iter().map(result_row).collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// A parsed JSON value.
    ///
    /// Numbers are kept as their **raw source text** rather than eagerly
    /// converted to `f64`: campaign checkpoints carry `u64` seeds and
    /// micro-second timestamps that exceed 2^53, which an `f64` round
    /// trip would silently corrupt. Callers pick the lossless conversion
    /// ([`Value::as_u64`], [`Value::as_f64`]) at the use site.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number, as raw source text (lossless).
        Num(String),
        /// A string (unescaped).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; insertion order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// String contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Lossless unsigned-integer view of a number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// Lossless signed-integer view of a number.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// Floating-point view of a number (`null` maps to `None`;
        /// callers that encoded NaN as `null` recover it explicitly).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }
    }

    /// Parse one JSON document. Trailing whitespace is allowed, trailing
    /// garbage is an error. Errors carry a byte offset for triage.
    pub fn parse(src: &str) -> Result<Value, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", b as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    fields.push((key, parse_value(bytes, pos)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = *pos;
                if bytes[*pos] == b'-' {
                    *pos += 1;
                }
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let raw = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid number at byte {start}"))?;
                // Validate eagerly so garbage like "1.2.3" is rejected
                // here, not at the (possibly distant) use site.
                raw.parse::<f64>()
                    .map_err(|_| format!("invalid number {raw:?} at byte {start}"))?;
                Ok(Value::Num(raw.to_string()))
            }
            Some(&b) => Err(format!("unexpected byte '{}' at byte {pos}", b as char)),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit} at byte {pos}"))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                *pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?,
            );
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                            // The emitters in this workspace only escape
                            // control characters, so bare BMP scalars
                            // suffice; reject surrogates outright.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u scalar at byte {pos}"))?;
                            out.push(c);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_dnf() {
        assert_eq!(secs_or_dnf(None), "DNF");
        assert_eq!(secs_or_dnf(Some(123.4)), "123");
    }

    #[test]
    fn series_layout() {
        let table = series_table(
            "Figure 4(a): sort",
            &[0.1, 0.5],
            &[
                ("Hadoop1Min".to_string(), vec![Some(700.0), Some(2000.0)]),
                ("MOON".to_string(), vec![Some(650.0), None]),
            ],
            "seconds",
        );
        assert!(table.contains("p=0.1"));
        assert!(table.contains("Hadoop1Min\t700\t2000"));
        assert!(table.contains("MOON\t650\tDNF"));
    }

    fn dummy_result(outcome: crate::Outcome) -> RunResult {
        RunResult {
            label: "a\"b".into(),
            workload: "sort".into(),
            unavailability: 0.3,
            job_time: None,
            outcome,
            job: Default::default(),
            profile: Default::default(),
            fetch_failures: 0,
            events: 17,
            seed: 42,
            jobs: None,
            audit: Vec::new(),
            telemetry: None,
        }
    }

    #[test]
    fn json_rows_escape_and_carry_outcome() {
        let r = dummy_result(crate::Outcome::EventLimit);
        let row = json::result_row(&r);
        assert!(row.contains("\"label\": \"a\\\"b\""), "{row}");
        assert!(row.contains("\"outcome\": \"event_limit\""), "{row}");
        assert!(row.contains("\"job_secs\": null"), "{row}");
        let arr = json::results_array([&r, &r].map(|x| x as &RunResult));
        assert!(arr.starts_with("[\n"), "{arr}");
        assert_eq!(arr.matches("\"seed\": 42").count(), 2);
    }

    #[test]
    fn json_rows_embed_audit_only_when_present() {
        let clean = dummy_result(crate::Outcome::Completed);
        assert!(
            !json::result_row(&clean).contains("\"audit\""),
            "clean runs must keep the historical schema"
        );
        let mut dirty = dummy_result(crate::Outcome::Completed);
        dirty.audit = vec!["counter \"x\" drifted".into(), "slot 3 stuck".into()];
        let row = json::result_row(&dirty);
        assert!(
            row.contains(
                "\"audit\": [\n      \"counter \\\"x\\\" drifted\",\n      \"slot 3 stuck\"\n    ]"
            ),
            "{row}"
        );
    }

    #[test]
    fn json_number_handles_non_finite() {
        // Through the `report::json` re-exports the emitters use.
        assert_eq!(json::number(1.5), "1.5");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::opt_number(None), "null");
    }

    #[test]
    fn outcome_summary_flags_livelocks() {
        use crate::Outcome;
        let rs = vec![
            dummy_result(Outcome::Completed),
            dummy_result(Outcome::Horizon),
            dummy_result(Outcome::EventLimit),
        ];
        let s = outcome_summary(&rs);
        assert!(s.contains("1 completed"), "{s}");
        assert!(s.contains("1 horizon DNF"), "{s}");
        assert!(s.contains("EVENT-LIMIT"), "{s}");
        let s = outcome_summary(&rs[..1]);
        assert_eq!(s, "1 completed");
        let rs = vec![
            dummy_result(Outcome::Deadline),
            dummy_result(Outcome::Crashed),
        ];
        let s = outcome_summary(&rs);
        assert!(s.contains("1 WALL-DEADLINE"), "{s}");
        assert!(s.contains("1 CRASHED"), "{s}");
    }

    #[test]
    fn json_parse_round_trips_result_rows() {
        use json::Value;
        let mut r = dummy_result(crate::Outcome::Completed);
        r.seed = u64::MAX - 3; // exceeds 2^53: must survive losslessly
        let doc = json::parse(&json::result_row(&r)).unwrap();
        assert_eq!(doc.get("label").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(doc.get("seed").and_then(Value::as_u64), Some(u64::MAX - 3));
        assert_eq!(doc.get("job_secs"), Some(&Value::Null));
        assert_eq!(doc.get("events").and_then(Value::as_u64), Some(17));
    }

    #[test]
    fn json_parse_rejects_malformed_documents() {
        assert!(json::parse("").is_err());
        assert!(json::parse("{\"a\": 1,}").is_err());
        assert!(json::parse("{\"a\": 1} extra").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("\"unterminated").is_err());
        assert!(json::parse("1.2.3").is_err());
    }

    #[test]
    fn json_parse_handles_escapes_and_nesting() {
        use json::Value;
        let doc = json::parse(
            "{\"s\": \"a\\n\\t\\\"b\\u0007\", \"arr\": [true, false, null, -1.5e3], \"o\": {}}",
        )
        .unwrap();
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("a\n\t\"b\u{7}"));
        let arr = doc.get("arr").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(arr[3].as_f64(), Some(-1500.0));
        assert_eq!(doc.get("o"), Some(&Value::Obj(vec![])));
        // Escaped strings round-trip through the emitter's escape().
        let s = "weird \\ chars\t\"quoted\"\nnewline \u{1}";
        let doc = json::parse(&format!("\"{}\"", json::escape(s))).unwrap();
        assert_eq!(doc.as_str(), Some(s));
    }
}
