//! Diagnostics: the lint's output type plus human- and
//! machine-readable rendering. JSON is hand-rolled (the workspace has
//! no external dependencies), matching the escaping rules used by
//! `t3-trace`'s exporters.

use std::fmt;

/// One finding: a rule firing at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule name (`wall-clock`, `float-cycles`, ...).
    pub rule: &'static str,
    /// Stable rule code (`T3L001`...).
    pub code: &'static str,
    /// A line-number-independent key for the finding — the offending
    /// identifier, `fn.sink` pair, unit pair, or `event.key` — keyed
    /// into the JSON output and the SARIF fingerprints so consumers can
    /// track a finding across unrelated edits.
    pub anchor: String,
    /// Human-readable explanation of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path, self.line, self.code, self.rule, self.message
        )
    }
}

/// Escapes a string for embedding in a JSON document (shared with the
/// SARIF exporter).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON array, one object per finding, in a
/// stable order (the caller sorts). The schema is
/// `{"file", "line", "rule", "code", "anchor", "message"}`.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"code\": \"{}\", \"anchor\": \"{}\", \"message\": \"{}\"}}",
            escape_json(&d.path),
            d.line,
            d.rule,
            d.code,
            escape_json(&d.anchor),
            escape_json(&d.message)
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_renders() {
        let d = Diagnostic {
            path: "crates/net/src/link.rs".to_string(),
            line: 7,
            rule: "wall-clock",
            code: "T3L001",
            anchor: "Instant".to_string(),
            message: "uses \"Instant\"".to_string(),
        };
        let json = to_json(std::slice::from_ref(&d));
        assert!(json.contains("\\\"Instant\\\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.starts_with("[\n"));
        assert_eq!(
            d.to_string(),
            "crates/net/src/link.rs:7: [T3L001 wall-clock] uses \"Instant\""
        );
    }
}
