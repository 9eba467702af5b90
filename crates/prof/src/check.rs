//! The perf-trajectory regression gate.
//!
//! Compares a fresh `figures --report` run against a checked-in
//! `BENCH_*.json` baseline, job by job, on **simulated cycles only**
//! — wall-clock fields are host-dependent noise and are never read.
//! Each job gets a symmetric tolerance band of ± `tolerance_permille`
//! around its baseline cycles ([`DEFAULT_TOLERANCE_PERMILLE`], 0 by
//! default: the gate is exact); outside the band means `regressed`
//! (above) or `improved` (below, which passes but signals the
//! baseline wants a refresh). Jobs present only in the baseline are
//! `missing` (fail: coverage must not silently shrink); jobs present
//! only in the current run are `new` (pass: they join the baseline at
//! the next refresh). The verdict renders as aligned text or as
//! machine-readable JSON.

use std::fmt::Write as _;

use t3_trace::metrics::escape_json;

use crate::json::Parser;

/// Default tolerance band: none. The simulator is deterministic, so
/// any change in a job's cycles is a regression or an improvement, and
/// a deliberate change rebaselines.
pub const DEFAULT_TOLERANCE_PERMILLE: u64 = 0;

/// One job's simulated-cycle tally from a bench report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCycles {
    /// Job name (`figures` target).
    pub name: String,
    /// Scheduler status label (`ok`, `failed`, `skipped`).
    pub status: String,
    /// Simulated cycles the job tallied.
    pub sim_cycles: u64,
}

/// Parses a `t3-runtime` bench report, keeping only what the gate
/// compares: per-job name, status, and simulated cycles.
pub fn parse_report(text: &str) -> Result<Vec<JobCycles>, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    p.expect('{').ok_or("expected report object")?;
    let mut schema = None;
    let mut jobs = Vec::new();
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string().ok_or("expected report key")?;
        p.skip_ws();
        p.expect(':').ok_or("expected ':'")?;
        p.skip_ws();
        match key.as_str() {
            "schema" => schema = Some(p.number().ok_or("schema must be a number")?),
            "jobs" => {
                p.expect('[').ok_or("jobs must be an array")?;
                loop {
                    p.skip_ws();
                    if p.eat(']') {
                        break;
                    }
                    jobs.push(parse_job(&mut p)?);
                    p.skip_ws();
                    p.eat(',');
                }
            }
            _ => {
                p.skip_value().ok_or("malformed report value")?;
            }
        }
        p.skip_ws();
        p.eat(',');
    }
    if schema != Some(1) {
        return Err(format!("unsupported report schema {schema:?}"));
    }
    Ok(jobs)
}

fn parse_job(p: &mut Parser) -> Result<JobCycles, String> {
    p.expect('{').ok_or("expected job object")?;
    let mut name = None;
    let mut status = None;
    let mut sim_cycles = None;
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string().ok_or("expected job key")?;
        p.skip_ws();
        p.expect(':').ok_or("expected ':' in job")?;
        p.skip_ws();
        match key.as_str() {
            "name" => name = Some(p.string().ok_or("job name must be a string")?),
            "status" => status = Some(p.string().ok_or("job status must be a string")?),
            "sim_cycles" => sim_cycles = Some(p.number().ok_or("sim_cycles must be a number")?),
            _ => {
                p.skip_value().ok_or("malformed job value")?;
            }
        }
        p.skip_ws();
        p.eat(',');
    }
    Ok(JobCycles {
        name: name.ok_or("job missing name")?,
        status: status.ok_or("job missing status")?,
        sim_cycles: sim_cycles.ok_or("job missing sim_cycles")?,
    })
}

/// One job's gate outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the tolerance band.
    Ok,
    /// Below the band: faster than the baseline promises. Passes,
    /// but the baseline should be refreshed to lock in the win.
    Improved,
    /// Above the band, a zero-baseline growing cycles, or the job
    /// failed outright.
    Regressed,
    /// In the current run but not the baseline.
    New,
    /// In the baseline but not the current run.
    Missing,
}

impl GateStatus {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            GateStatus::Ok => "ok",
            GateStatus::Improved => "improved",
            GateStatus::Regressed => "regressed",
            GateStatus::New => "new",
            GateStatus::Missing => "missing",
        }
    }
}

/// One row of the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateRow {
    /// Job name.
    pub name: String,
    /// Baseline cycles (0 when the job is `new`).
    pub baseline_cycles: u64,
    /// Current cycles (0 when the job is `missing`).
    pub current_cycles: u64,
    /// The outcome.
    pub status: GateStatus,
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateVerdict {
    /// The band applied, in permille of the baseline.
    pub tolerance_permille: u64,
    /// Per-job rows: baseline order, then new jobs in current order.
    pub rows: Vec<GateRow>,
}

impl GateVerdict {
    /// Whether the gate passes (nothing regressed or missing).
    pub fn passed(&self) -> bool {
        !self
            .rows
            .iter()
            .any(|r| matches!(r.status, GateStatus::Regressed | GateStatus::Missing))
    }

    fn count(&self, status: GateStatus) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
    }

    /// Renders the verdict as aligned text.
    pub fn render_text(&self) -> String {
        let width = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let mut s = String::new();
        for r in &self.rows {
            let _ = write!(
                s,
                "{:9} {:width$} base={} cur={}",
                r.status.label(),
                r.name,
                r.baseline_cycles,
                r.current_cycles,
            );
            if r.baseline_cycles > 0
                && matches!(r.status, GateStatus::Improved | GateStatus::Regressed)
            {
                let (sign, delta) = if r.current_cycles >= r.baseline_cycles {
                    ('+', r.current_cycles - r.baseline_cycles)
                } else {
                    ('-', r.baseline_cycles - r.current_cycles)
                };
                let permille = delta * 1000 / r.baseline_cycles;
                let _ = write!(s, " ({sign}{}.{}%)", permille / 10, permille % 10);
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "verdict: {} ({} regressed, {} missing, {} improved, {} new; tolerance \u{b1}{}.{}%)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.count(GateStatus::Regressed),
            self.count(GateStatus::Missing),
            self.count(GateStatus::Improved),
            self.count(GateStatus::New),
            self.tolerance_permille / 10,
            self.tolerance_permille % 10,
        );
        s
    }

    /// Renders the verdict as machine-readable JSON.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": 1,");
        let _ = writeln!(s, "  \"tolerance_permille\": {},", self.tolerance_permille);
        let _ = writeln!(s, "  \"passed\": {},", self.passed());
        let _ = writeln!(
            s,
            "  \"regressed\": {}, \"missing\": {}, \"improved\": {}, \"new\": {},",
            self.count(GateStatus::Regressed),
            self.count(GateStatus::Missing),
            self.count(GateStatus::Improved),
            self.count(GateStatus::New),
        );
        s.push_str("  \"jobs\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"name\": \"{}\", \"status\": \"{}\", \"baseline_cycles\": {}, \
                 \"current_cycles\": {}}}",
                escape_json(&r.name),
                r.status.label(),
                r.baseline_cycles,
                r.current_cycles,
            );
        }
        if !self.rows.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Diffs the current run against the baseline.
pub fn check(
    current: &[JobCycles],
    baseline: &[JobCycles],
    tolerance_permille: u64,
) -> GateVerdict {
    let mut rows = Vec::new();
    for base in baseline {
        let row = match current.iter().find(|c| c.name == base.name) {
            None => GateRow {
                name: base.name.clone(),
                baseline_cycles: base.sim_cycles,
                current_cycles: 0,
                status: GateStatus::Missing,
            },
            Some(cur) => {
                let status = if cur.status != "ok" {
                    GateStatus::Regressed
                } else {
                    band(base.sim_cycles, cur.sim_cycles, tolerance_permille)
                };
                GateRow {
                    name: base.name.clone(),
                    baseline_cycles: base.sim_cycles,
                    current_cycles: cur.sim_cycles,
                    status,
                }
            }
        };
        rows.push(row);
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            rows.push(GateRow {
                name: cur.name.clone(),
                baseline_cycles: 0,
                current_cycles: cur.sim_cycles,
                status: GateStatus::New,
            });
        }
    }
    GateVerdict {
        tolerance_permille,
        rows,
    }
}

/// Places `cur` relative to the ±tolerance band around `base`.
fn band(base: u64, cur: u64, tolerance_permille: u64) -> GateStatus {
    if base == 0 {
        // A zero baseline has no band; any growth is a regression.
        return if cur == 0 {
            GateStatus::Ok
        } else {
            GateStatus::Regressed
        };
    }
    let base = base as u128;
    let cur = cur as u128;
    let tol = tolerance_permille as u128;
    if cur * 1000 > base * (1000 + tol) {
        GateStatus::Regressed
    } else if cur * 1000 < base * (1000 - tol.min(1000)) {
        GateStatus::Improved
    } else {
        GateStatus::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, status: &str, sim_cycles: u64) -> JobCycles {
        JobCycles {
            name: name.to_string(),
            status: status.to_string(),
            sim_cycles,
        }
    }

    #[test]
    fn band_classifies_within_above_below() {
        assert_eq!(band(1000, 1000, 5), GateStatus::Ok);
        assert_eq!(band(1000, 1005, 5), GateStatus::Ok);
        assert_eq!(band(1000, 1006, 5), GateStatus::Regressed);
        assert_eq!(band(1000, 995, 5), GateStatus::Ok);
        assert_eq!(band(1000, 994, 5), GateStatus::Improved);
        assert_eq!(band(0, 0, 5), GateStatus::Ok);
        assert_eq!(band(0, 1, 5), GateStatus::Regressed);
    }

    #[test]
    fn check_flags_missing_new_and_failed() {
        let baseline = [job("a", "ok", 100), job("b", "ok", 200)];
        let current = [job("a", "failed", 100), job("c", "ok", 50)];
        let v = check(&current, &baseline, 5);
        assert!(!v.passed());
        let by_name = |n: &str| v.rows.iter().find(|r| r.name == n).unwrap().status;
        assert_eq!(by_name("a"), GateStatus::Regressed, "failed job regresses");
        assert_eq!(by_name("b"), GateStatus::Missing);
        assert_eq!(by_name("c"), GateStatus::New);
    }

    #[test]
    fn identical_reports_pass() {
        let jobs = [job("a", "ok", 100), job("b", "ok", 0)];
        let v = check(&jobs, &jobs, 0);
        assert!(v.passed());
        assert!(v.rows.iter().all(|r| r.status == GateStatus::Ok));
        assert!(v.render_text().contains("verdict: PASS"));
    }

    #[test]
    fn parse_report_reads_the_runtime_format() {
        let text = r#"{
  "schema": 1,
  "workers": 2,
  "cache": {"enabled": false, "hits": 0, "misses": 0},
  "total_wall_ns": 12345,
  "total_sim_cycles": 300,
  "jobs_failed": 1,
  "jobs": [
    {"name": "x", "fingerprint": "ab12", "status": "ok", "sim_cycles": 300, "wall": {"iters": 1, "min_ns": 9, "median_ns": 9, "mean_ns": 9}},
    {"name": "y", "fingerprint": "cd34", "status": "failed", "sim_cycles": 0, "wall": {"iters": 1, "min_ns": 1, "median_ns": 1, "mean_ns": 1}, "error": "boom"}
  ]
}
"#;
        let jobs = parse_report(text).expect("parses");
        assert_eq!(jobs, vec![job("x", "ok", 300), job("y", "failed", 0)]);
        assert!(parse_report("{\"schema\": 2, \"jobs\": []}").is_err());
        assert!(parse_report("nope").is_err());
    }

    #[test]
    fn json_verdict_is_balanced_and_labeled() {
        let baseline = [job("a", "ok", 100)];
        let current = [job("a", "ok", 200)];
        let v = check(&current, &baseline, 5);
        let json = v.render_json();
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\"status\": \"regressed\""));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
        let text = v.render_text();
        assert!(text.contains("(+100.0%)"));
    }

    #[test]
    fn json_verdict_escapes_job_names() {
        // Job names come from report files, so they may hold anything.
        let name = "a\"b\\c\nd";
        let text = format!(
            "{{\"schema\": 1, \"jobs\": [{{\"name\": \"{}\", \"status\": \"ok\", \"sim_cycles\": 7}}]}}",
            escape_json(name)
        );
        let jobs = parse_report(&text).expect("report parses");
        assert_eq!(jobs, vec![job(name, "ok", 7)]);
        let json = check(&jobs, &jobs, DEFAULT_TOLERANCE_PERMILLE).render_json();
        let mut whole = Parser::new(&json);
        assert!(whole.skip_value().is_some(), "malformed verdict:\n{json}");
        whole.skip_ws();
        assert_eq!(whole.peek(), None, "trailing text after the verdict");
        let at = json.find("\"name\": ").expect("one job row") + "\"name\": ".len();
        assert_eq!(Parser::new(&json[at..]).string().as_deref(), Some(name));
    }
}
