//! The `t3-lint` binary: walks the workspace and reports every
//! determinism/fidelity violation.
//!
//! ```text
//! t3-lint [--root <dir>] [--json] [--list] [--explain <rule>] [--sarif <path>]
//! ```
//!
//! Every finding fails the run; the only suppressions are inline
//! `// t3-lint: allow(<rule>) -- <reason>` directives.
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use t3_lint::{lint_workspace, to_json, to_sarif, RULES};

fn main() -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut explain: Option<String> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--explain" => match args.next() {
                Some(rule) => explain = Some(rule),
                None => return usage("--explain requires a rule name or code"),
            },
            "--sarif" => match args.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => return usage("--sarif requires an output path"),
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root requires a directory"),
            },
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    if list {
        println!("t3-lint rules (suppress with `// t3-lint: allow(<rule>) -- <reason>`):");
        for r in RULES {
            println!("  {}  {:<20} {}", r.code, r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(what) = explain {
        let Some(r) = RULES
            .iter()
            .find(|r| r.name == what || r.code == what.to_uppercase())
        else {
            return usage(&format!(
                "unknown rule `{what}`; run `t3-lint --list` for the registry"
            ));
        };
        println!("{} {}", r.code, r.name);
        println!("\nWHAT\n  {}", r.summary);
        println!("\nWHY\n  {}", r.rationale);
        println!("\nEXAMPLE VIOLATION\n{}", r.example);
        println!("\nSANCTIONED SUPPRESSION\n  {}", r.suppression);
        return ExitCode::SUCCESS;
    }

    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let diags = match lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("t3-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(p) = &sarif_path {
        let doc = to_sarif(&diags);
        if let Err(e) = fs::write(p, doc) {
            eprintln!("t3-lint: cannot write SARIF to {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    if json {
        print!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            eprintln!("t3-lint: workspace clean");
        } else {
            eprintln!("t3-lint: {} diagnostic(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage: t3-lint [--root <dir>] [--json] [--list] [--explain <rule>] [--sarif <path>]"
    );
    ExitCode::from(2)
}
