//! `benchmark compare A.json B.json`: verdicts per (workload, metric)
//! between two `results.json` files, plus each workload's checks.

use std::fmt::Write as _;

use crate::json::Value;
use crate::registry::{end_to_end, Stat};
use crate::stats::{verdict, Summary, Verdict};

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Summary of the base file's samples.
    pub base: Summary,
    /// Summary of the new file's samples.
    pub new: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

fn samples(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// A workload's correctness and failed operations in a results file;
/// a workload the file lacks is not correct.
fn checks(doc: &Value, workload: &str) -> (bool, f64) {
    let entry = doc.get("workloads").and_then(|w| w.get(workload));
    let field = |k: &str| entry.and_then(|e| e.get(k));
    (
        field("correct").and_then(Value::as_bool).unwrap_or(false),
        field("failed").and_then(Value::as_f64).unwrap_or(0.0),
    )
}

/// The `failed_ops` row of `workload`: `regressed` when the new file
/// is not correct (a pin, digest or cross-check failed) or failed more
/// operations than the base, `improved` when it fixed what the base
/// failed.
fn checks_row(base: &Value, new: &Value, workload: &str) -> Row {
    let ((b_ok, b_failed), (n_ok, n_failed)) = (checks(base, workload), checks(new, workload));
    let verdict = if !n_ok || n_failed > b_failed {
        Verdict::Regressed
    } else if !b_ok || n_failed < b_failed {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    let one = |failed: f64| Summary {
        n: 1,
        q1: failed,
        median: failed,
        q3: failed,
    };
    Row {
        workload: workload.to_string(),
        metric: "failed_ops".into(),
        base: one(b_failed),
        new: one(n_failed),
        verdict,
    }
}

/// Compares the checks and every end-to-end metric of every workload
/// in the base document.
pub fn compare(base: &Value, new: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads = base
        .get("workloads")
        .and_then(Value::as_obj)
        .map(|m| m.keys().cloned().collect::<Vec<_>>())
        .unwrap_or_default();
    for w in workloads {
        rows.push(checks_row(base, new, &w));
        for m in end_to_end() {
            let (Some(b), Some(n)) = (samples(base, &w, &m.name), samples(new, &w, &m.name)) else {
                continue;
            };
            // A metric whose run value is its smallest sample compares
            // those values alone.
            let (b, n) = match m.stat {
                Stat::Median | Stat::Mean => (b, n),
                Stat::Min => (vec![m.stat.of(&b)], vec![m.stat.of(&n)]),
            };
            let bound = m.bound.unwrap_or(0.0);
            if let (Some(bs), Some(ns), Some(v)) = (
                Summary::of(&b),
                Summary::of(&n),
                verdict(&b, &n, m.better, bound),
            ) {
                rows.push(Row {
                    workload: w.clone(),
                    metric: m.name,
                    base: bs,
                    new: ns,
                    verdict: v,
                });
            }
        }
    }
    rows
}

/// The comparison as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<17} {:>34} {:>34}  {}\n",
        "workload", "metric", "base median [q1, q3] n", "new median [q1, q3] n", "verdict"
    );
    let cell = |s: &Summary| format!("{:.6e} [{:.6e}, {:.6e}] {}", s.median, s.q1, s.q3, s.n);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:<17} {:>34} {:>34}  {}",
            r.workload,
            r.metric,
            cell(&r.base),
            cell(&r.new),
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(correct: bool, failed: u64, wall: &[f64]) -> Value {
        let s: Vec<String> = wall.iter().map(|w| w.to_string()).collect();
        parse(&format!(
            "{{\"workloads\": {{\"fabric-16\": {{\"correct\": {correct}, \"failed\": {failed}, \
             \"metrics\": {{\"wall_s\": {{\"samples\": [{}]}}}}}}}}}}",
            s.join(",")
        ))
        .unwrap()
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, Verdict)> {
        rows.iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn compares_each_metric_present_on_both_sides() {
        let base = doc(true, 0, &[7.0, 7.1, 6.9]);
        let rows = compare(&base, &doc(true, 0, &[7.05, 7.0, 6.95]));
        assert_eq!(
            verdicts(&rows),
            [("failed_ops", Verdict::Ok), ("wall_s", Verdict::Ok)]
        );
        let rows = compare(&base, &doc(true, 0, &[9.8, 9.9, 10.0]));
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert!(render(&rows).contains("regressed"));
    }

    #[test]
    fn failed_checks_regress_whatever_the_times() {
        let base = doc(true, 0, &[7.0, 7.1, 6.9]);
        // A pin or digest mismatch: no more failed ops, but not correct.
        let rows = compare(&base, &doc(false, 0, &[7.0, 7.1, 6.9]));
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        let rows = compare(&base, &doc(false, 3, &[7.0, 7.1, 6.9]));
        assert_eq!(
            (rows[0].new.median, rows[0].verdict),
            (3.0, Verdict::Regressed)
        );
        // A workload missing from the new file.
        let rows = compare(&base, &parse("{}").unwrap());
        assert_eq!(verdicts(&rows), [("failed_ops", Verdict::Regressed)]);
        // Fixing the base's failures is an improvement.
        let rows = compare(&doc(false, 2, &[7.0]), &doc(true, 0, &[7.0]));
        assert_eq!(rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn any_change_in_simulated_cycles_is_flagged() {
        let m = end_to_end()
            .into_iter()
            .find(|m| m.name == "sim_cycles")
            .unwrap();
        let bound = m.bound.unwrap();
        let pinned = [41_104_306_752.0; 5];
        let more = pinned.map(|c| c + 1.0);
        assert_eq!(
            verdict(&pinned, &pinned, m.better, bound),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&pinned, &more, m.better, bound),
            Some(Verdict::Regressed)
        );
    }
}
