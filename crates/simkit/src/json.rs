//! The workspace's one JSON value writer: string escaping and number
//! formatting shared by every emitter — run reports, telemetry
//! artifacts, campaign checkpoints and fuzz reports. Documents are
//! assembled by hand around these two primitives (there is no
//! serialization framework in the workspace; DESIGN.md §4).

/// Escape a string for inclusion in a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, newline,
/// tab and carriage return use their short escapes, and every other
/// control character below U+0020 becomes `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a float as a JSON number: the shortest decimal that
/// round-trips, or `null` for NaN/infinity, which JSON cannot
/// represent.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// [`number`] lifted over `Option` (`None` → `null`).
pub fn opt_number(x: Option<f64>) -> String {
    x.map(number).unwrap_or_else(|| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_and_number_follow_the_json_grammar() {
        let strings = [
            ("plain", "plain"),
            ("a\"b", "a\\\"b"),
            ("back\\slash", "back\\\\slash"),
            ("line\nbreak", "line\\nbreak"),
            ("tab\there", "tab\\there"),
            ("cr\rhere", "cr\\rhere"),
            ("bell\u{7}", "bell\\u0007"),
            ("\u{1}\u{1f}", "\\u0001\\u001f"),
            // U+007F and non-ASCII pass through unescaped.
            ("del\u{7f} é → ∞", "del\u{7f} é → ∞"),
        ];
        for (raw, escaped) in strings {
            assert_eq!(escape(raw), escaped, "escape({raw:?})");
        }
        let numbers = [
            (1.5, "1.5"),
            (0.0, "0"),
            (-3.0, "-3"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (x, rendered) in numbers {
            assert_eq!(number(x), rendered, "number({x})");
        }
        assert_eq!(opt_number(Some(2.25)), "2.25");
        assert_eq!(opt_number(None), "null");
    }
}
