//! The `t3-prof` CLI: trace analytics and the perf-trajectory gate.

use std::process::ExitCode;

use t3_prof::{analyze, check, collective, load, serve};

fn usage() -> ExitCode {
    eprintln!(
        "t3-prof — trace analytics and perf gates for the T3 simulator

USAGE:
  t3-prof analyze <trace.json>
      Critical-path breakdown of an exported Chrome trace: total /
      compute / exposed-collective / dma-fabric / idle cycles and the
      overlap fraction.

  t3-prof collectives <trace.json>
      Per-collective records: one canonical line per chunk transfer.

  t3-prof requests <trace.json>
      Per-request serving analytics from a traced t3-serve run: the
      canonical request log, iteration totals, and exact-integer
      queue/ttft/e2e percentiles.

  t3-prof check <report.json> <baseline.json> [--tolerance <permille>] [--json]
      Diff a fresh `figures --report` run against a checked-in
      BENCH_*.json baseline (simulated cycles only). Exits non-zero
      on a regression or a missing job; an intentional change
      regenerates the baseline in the same change."
    );
    ExitCode::from(2)
}

fn load_records(path: &str) -> Result<Vec<t3_trace::Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    load::parse_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut free: Vec<&str> = Vec::new();
    let mut tolerance = check::DEFAULT_TOLERANCE_PERMILLE;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--tolerance" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--tolerance needs an integer permille value");
                    return ExitCode::from(2);
                };
                tolerance = v;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
            free_arg => free.push(free_arg),
        }
        i += 1;
    }

    match free.as_slice() {
        ["analyze", path] => match load_records(path) {
            Ok(records) => {
                print!(
                    "{}",
                    analyze::render(&analyze::Analysis::from_records(&records))
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("t3-prof: {e}");
                ExitCode::FAILURE
            }
        },
        ["collectives", path] => match load_records(path) {
            Ok(records) => {
                print!(
                    "{}",
                    collective::render(&collective::collective_records(&records))
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("t3-prof: {e}");
                ExitCode::FAILURE
            }
        },
        ["requests", path] => match load_records(path) {
            Ok(records) => {
                print!("{}", serve::render(&records));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("t3-prof: {e}");
                ExitCode::FAILURE
            }
        },
        ["check", report, baseline] => {
            let parse = |path: &str| -> Result<Vec<check::JobCycles>, String> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                check::parse_report(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (current, base) = match (parse(report), parse(baseline)) {
                (Ok(c), Ok(b)) => (c, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("t3-prof: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let verdict = check::check(&current, &base, tolerance);
            if json {
                print!("{}", verdict.render_json());
            } else {
                print!("{}", verdict.render_text());
            }
            if verdict.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
