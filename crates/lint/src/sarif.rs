//! Hand-rolled SARIF 2.1.0 export — the static-analysis interchange
//! format CI dashboards and editors ingest. Like every serializer in
//! this workspace it is written by hand against the schema (no
//! dependencies) and byte-deterministic: rules in registry order,
//! results in the caller's (already sorted) order, no timestamps.
//!
//! Every finding fails the gate, so every result is
//! `"level": "error"`. Each carries a `partialFingerprints` entry
//! built from the diagnostic's line-independent anchor, so SARIF
//! consumers can track findings across unrelated edits.

use crate::diag::{escape_json, Diagnostic};
use crate::rules::RULES;

fn result_json(d: &Diagnostic, out: &mut String) {
    let rule_index = RULES
        .iter()
        .position(|r| r.code == d.code)
        .expect("diagnostic code registered");
    out.push_str(&format!(
        "      {{\n        \"ruleId\": \"{}\",\n        \"ruleIndex\": {},\n        \"level\": \"error\",\n        \"message\": {{\"text\": \"{}\"}},\n        \"partialFingerprints\": {{\"t3LintAnchor/v1\": \"{}\"}},\n",
        d.code,
        rule_index,
        escape_json(&d.message),
        escape_json(&format!("{}:{}", d.path, d.anchor)),
    ));
    out.push_str(&format!(
        "        \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]\n      }}",
        escape_json(&d.path),
        d.line,
    ));
}

/// Renders one SARIF 2.1.0 document of `diags`. Output is
/// byte-identical for identical inputs.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\n      \"name\": \"t3-lint\",\n      \"informationUri\": \"https://example.invalid/t3-lint\",\n      \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "        {{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"fullDescription\": {{\"text\": \"{}\"}}, \"help\": {{\"text\": \"{}\"}}}}",
            r.code,
            r.name,
            escape_json(r.summary),
            escape_json(r.rationale),
            escape_json(r.suppression),
        ));
    }
    out.push_str(
        "\n      ]\n    }},\n    \"columnKind\": \"utf16CodeUnits\",\n    \"results\": [\n",
    );
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        result_json(d, &mut out);
    }
    out.push_str("\n    ]\n  }]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(code: &'static str, anchor: &str) -> Diagnostic {
        Diagnostic {
            path: "crates/net/src/link.rs".to_string(),
            line: 7,
            rule: "panic-reachable",
            code,
            anchor: anchor.to_string(),
            message: "reachable \"abort\"".to_string(),
        }
    }

    #[test]
    fn sarif_shape_and_determinism() {
        let diags = vec![d("T3L006", "f.unwrap"), d("T3L006", "g.unwrap")];
        let a = to_sarif(&diags);
        let b = to_sarif(&diags);
        assert_eq!(a, b, "export must be byte-deterministic");
        assert!(a.contains("\"version\": \"2.1.0\""));
        assert!(a.contains("\"ruleId\": \"T3L006\""));
        assert_eq!(a.matches("\"level\": \"error\"").count(), 2);
        assert!(a.contains("t3LintAnchor/v1"));
        assert!(a.contains("reachable \\\"abort\\\""));
        // one rules entry per registered rule
        assert_eq!(a.matches("\"shortDescription\"").count(), RULES.len());
    }

    #[test]
    fn empty_run_is_valid() {
        let a = to_sarif(&[]);
        assert!(a.contains("\"results\": [\n\n    ]"));
    }
}
