//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--out <results.json>]
//! benchmark trace [--workload <name>] [--seed <n>]
//! benchmark compare <base.json> <new.json>
//! ```
//!
//! The first form measures one workload for about `--seconds` and
//! prints one JSON line: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer ones. `run` takes [`SAMPLES`] samples of
//! every workload and writes `target/benchmark/results.json`;
//! `trace` writes each workload's spans and per-layer metrics next to
//! it; `compare` gives each (workload, metric) pair a verdict. See
//! `README.md` beside this crate.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use t3_benchmark::compare;
use t3_benchmark::json::{self, obj, Value};
use t3_benchmark::measure::{measure, Run, Stop};
use t3_benchmark::registry::{check_manifest, end_to_end, per_layer, MANIFEST};
use t3_benchmark::stats::Summary;
use t3_benchmark::workloads::{Mode, Workload};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run [--seed <n>] [--out <results.json>]
  benchmark trace [--workload <name>] [--seed <n>]
  benchmark compare <base.json> <new.json>
workloads: paper-matrix figures-fast fabric-16 traced";

/// Seed of `run` and `trace` when none is given.
const DEFAULT_SEED: u64 = 1;

/// Samples per workload of `run`.
const SAMPLES: usize = 5;

/// Where `run` and `trace` write their files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/benchmark")
}

fn main() -> ExitCode {
    let t_main = Instant::now();
    let args: Vec<String> = env::args().skip(1).collect();
    // A BENCHMARK.json that no longer matches the metrics measured here
    // would have every result judged against the wrong list.
    if args.first().map(String::as_str) != Some("sample") {
        if let Err(e) = check_manifest(MANIFEST) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match args.first().map(String::as_str) {
        Some("sample") => sample(&args[1..], t_main),
        Some("run") => run(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => measure_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; every argument must be a known `--flag value`.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unexpected argument: {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn value<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| *f == name)
        .map(|(_, v)| *v)
}

fn parsed<T: std::str::FromStr>(flags: &[(&str, &str)], name: &str) -> Result<Option<T>, String> {
    value(flags, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name}: not a valid value: {v}"))
        })
        .transpose()
}

fn workload(flags: &[(&str, &str)]) -> Result<Option<Workload>, String> {
    value(flags, "--workload")
        .map(|w| Workload::parse(w).ok_or_else(|| format!("unknown workload: {w}")))
        .transpose()
}

fn exe() -> Result<PathBuf, String> {
    env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))
}

/// The machine-readable form: one workload, one seed, about
/// `--seconds` of samples, one JSON result line.
fn measure_one(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let w = workload(&f)?.ok_or("--workload is required")?;
    let seed: u64 = parsed(&f, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = parsed(&f, "--seconds")?.ok_or("--seconds is required")?;
    let traced = match value(&f, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let run = measure(&exe()?, w, seed, Stop::Seconds(seconds), traced);
    for e in run.checked().errors {
        eprintln!("{}: {e}", w.name());
    }
    if traced {
        if let Err(e) = write_trace_files(&run) {
            eprintln!("warning: {e}");
        }
    }
    println!("{}", run.result_line());
    Ok(ExitCode::SUCCESS)
}

/// One sample process (spawned by the parent, not run by hand).
fn sample(args: &[String], t_main: Instant) -> Result<ExitCode, String> {
    let f = flags(args, &["--workload", "--seed", "--mode"])?;
    let w = workload(&f)?.ok_or("--workload is required")?;
    let seed = parsed(&f, "--seed")?.ok_or("--seed is required")?;
    let mode = value(&f, "--mode")
        .and_then(Mode::parse)
        .ok_or("--mode must be setup, plain or traced")?;
    println!("{}", w.sample(seed, mode, t_main).to_json());
    Ok(ExitCode::SUCCESS)
}

/// `run`: [`SAMPLES`] fresh samples of every workload.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--seed", "--out"])?;
    let seed = parsed(&f, "--seed")?.unwrap_or(DEFAULT_SEED);
    let out = value(&f, "--out").map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    let exe = exe()?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let run = measure(&exe, w, seed, Stop::Samples(SAMPLES), false);
        print!("{}", report(&run));
        all_correct &= run.checked().correct;
        entries.push((w.name().to_string(), run.results_entry()));
    }
    let doc = obj([
        ("seed", seed.into()),
        ("samples", (SAMPLES as u64).into()),
        ("workloads", obj(entries)),
    ]);
    write(&out, &doc)?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The human-readable report of one plain run.
fn report(run: &Run) -> String {
    let c = run.checked();
    let mut out = format!(
        "== {} (seed {}, {} samples): {}, {} ops attempted, {} failed ==\n",
        run.workload.name(),
        run.seed,
        run.plain.len(),
        if c.correct { "correct" } else { "INCORRECT" },
        c.attempted,
        c.failed
    );
    for e in c.errors {
        out.push_str(&format!("  error: {e}\n"));
    }
    out.push_str(&format!(
        "  {:<17} {:<7} {:>16} {:>16} {:>16} {:>16} {:>3}\n",
        "metric", "unit", "value", "median", "q1", "q3", "n"
    ));
    let samples = run.end_to_end_samples();
    let values = run.end_to_end_values();
    for m in end_to_end() {
        let s = samples.get(&m.name).and_then(|v| Summary::of(v));
        if let (Some(s), Some(&v)) = (s, values.get(&m.name)) {
            out.push_str(&format!(
                "  {:<17} {:<7} {:>16} {:>16} {:>16} {:>16} {:>3}\n",
                m.name,
                m.unit,
                num(v),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            ));
        }
    }
    for (k, v) in run.properties() {
        out.push_str(&format!("  property {k} = {v}\n"));
    }
    out
}

/// `v` with six significant digits.
fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// `trace`: one traced sample (plus one plain, for the overhead) of
/// each workload, with its spans and per-layer metrics written out.
fn trace(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--workload", "--seed"])?;
    let seed = parsed(&f, "--seed")?.unwrap_or(DEFAULT_SEED);
    let chosen: Vec<Workload> = match workload(&f)? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let exe = exe()?;
    let mut all_correct = true;
    for w in chosen {
        let run = measure(&exe, w, seed, Stop::Samples(1), true);
        let checked = run.checked();
        all_correct &= checked.correct;
        println!("== {} per-layer metrics (seed {seed}) ==", w.name());
        for e in checked.errors {
            println!("  error: {e}");
        }
        let values = run.layer_metrics();
        for m in per_layer() {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            if v != 0.0 {
                println!("  {:<40} {:>20} {}", m.name, num(v), m.unit);
            }
        }
        write_trace_files(&run)?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_trace_files(run: &Run) -> Result<(), String> {
    let dir = out_dir();
    let name = run.workload.name();
    write(
        &dir.join(format!("{name}.spans.json")),
        &run.spans_document(),
    )?;
    write(
        &dir.join(format!("{name}.layers.json")),
        &run.layers_document(),
    )
}

fn write(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `compare`: a verdict for every (workload, metric) pair; exits 1
/// when any regressed.
fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare needs two results files".into());
    };
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare::compare(&read(base)?, &read(new)?);
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == t3_benchmark::stats::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
