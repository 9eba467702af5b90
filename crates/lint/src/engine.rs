//! The per-file analysis pipeline and the workspace walker.
//!
//! For each file: lex → compute regions (`#[cfg(test)]` spans,
//! hot-path `fn step*`/`tick*`/`advance*` bodies, fast-forward
//! `fn next_event*` predictor bodies) → run rules →
//! apply `t3-lint: allow` suppressions → emit directive-hygiene
//! diagnostics. The walker visits every workspace source set in a
//! deterministic (sorted) order, so output and exit codes are stable
//! run-to-run — the lint holds itself to the invariant it enforces.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
use crate::lexer::{self, Lexed, Token};
use crate::parser::{self, ParsedFile};
use crate::{callgraph, rules, schema, units};

/// A parsed `t3-lint: allow(rule) -- reason` comment directive.
#[derive(Debug, Clone)]
pub struct Directive {
    pub line: u32,
    pub rule: String,
    /// `allow-file(...)` suppresses the rule for the whole file.
    pub file_wide: bool,
    pub reason: Option<String>,
}

/// Everything a token-local rule needs to know about one file — a
/// borrowed view into a [`FileAnalysis`].
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// `crates/<name>/...` → `Some(name)`.
    pub crate_name: Option<&'a str>,
    /// True for integration-test and bench sources (`tests/`,
    /// `benches/` path components).
    pub is_test_code: bool,
    pub lexed: &'a Lexed,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_regions: &'a [(usize, usize)],
    /// Token-index body ranges of per-cycle functions, with the
    /// function name.
    pub hot_fns: &'a [(usize, usize, String)],
    /// Token-index body ranges of fast-forward event predictors
    /// (`next_event`/`next_arrival`/`*_next_event`), with name.
    pub next_event_fns: &'a [(usize, usize, String)],
}

impl FileCtx<'_> {
    /// True when this file belongs to one of `names` under `crates/`.
    pub fn crate_in(&self, names: &[&str]) -> bool {
        self.crate_name.is_some_and(|c| names.contains(&c))
    }

    /// True when token index `i` falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(lo, hi)| i >= lo && i < hi)
    }

    /// True when a comment on `line` or the line above carries a
    /// `-- <reason>` justification.
    pub fn reasoned_comment_near(&self, line: u32) -> bool {
        self.lexed
            .comments
            .iter()
            .any(|c| (c.line == line || c.line + 1 == line) && comment_reason(&c.text).is_some())
    }
}

/// The fully-analyzed form of one source file: everything the
/// token-local rules read through [`FileCtx`], plus the parsed item
/// structure the workspace-wide rules ([`crate::callgraph`],
/// [`crate::schema`]) consume, plus the file's suppression
/// directives.
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// `crates/<name>/...` → `Some(name)`.
    pub crate_name: Option<String>,
    /// True for integration-test and bench sources.
    pub is_test_code: bool,
    pub lexed: Lexed,
    /// Items recovered by the lightweight parser.
    pub parsed: ParsedFile,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Token-index body ranges of per-cycle functions, with name.
    pub hot_fns: Vec<(usize, usize, String)>,
    /// Token-index body ranges of fast-forward event predictors.
    pub next_event_fns: Vec<(usize, usize, String)>,
    /// Well-formed `t3-lint:` directives, in comment order.
    pub directives: Vec<Directive>,
    /// Malformed directives: (line, message).
    pub bad_directives: Vec<(u32, String)>,
}

impl FileAnalysis {
    /// Lexes, parses and region-maps one file.
    pub fn analyze(path: &str, source: &str) -> FileAnalysis {
        let lexed = lexer::lex(source);
        let test_regions = test_regions(&lexed.tokens);
        let parsed = parser::parse(&lexed.tokens, &|i| {
            test_regions.iter().any(|&(lo, hi)| i >= lo && i < hi)
        });
        let hot_fns = fn_bodies(&lexed.tokens, is_hot_fn_name);
        let next_event_fns = fn_bodies(&lexed.tokens, is_next_event_fn_name);
        let mut bad_directives = Vec::new();
        let directives = parse_directives(&lexed, &mut bad_directives);
        FileAnalysis {
            path: path.to_string(),
            crate_name: path
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .map(str::to_string),
            is_test_code: path.starts_with("tests/")
                || path.contains("/tests/")
                || path.contains("/benches/"),
            lexed,
            parsed,
            test_regions,
            hot_fns,
            next_event_fns,
            directives,
            bad_directives,
        }
    }

    /// The borrowed view the token-local rules take.
    pub fn ctx(&self) -> FileCtx<'_> {
        FileCtx {
            path: &self.path,
            crate_name: self.crate_name.as_deref(),
            is_test_code: self.is_test_code,
            lexed: &self.lexed,
            test_regions: &self.test_regions,
            hot_fns: &self.hot_fns,
            next_event_fns: &self.next_event_fns,
        }
    }
}

/// Extracts the text after the first `--` in a comment, if non-empty.
fn comment_reason(text: &str) -> Option<&str> {
    let (_, tail) = text.split_once("--")?;
    let tail = tail.trim();
    (!tail.is_empty()).then_some(tail)
}

/// Parses every `t3-lint:` directive in the comment stream. A
/// directive must *begin* its comment (`// t3-lint: allow(...)`), so
/// prose and rustdoc that merely mention the syntax are inert.
/// Malformed directives (the marker present at the start but not
/// followed by a well-formed `allow(...)`/`allow-file(...)`) are
/// reported through `bad`.
pub fn parse_directives(lexed: &Lexed, bad: &mut Vec<(u32, String)>) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("t3-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (file_wide, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            bad.push((
                c.line,
                format!(
                    "malformed t3-lint directive `{}`; expected `t3-lint: allow(<rule>) -- <reason>`",
                    c.text
                ),
            ));
            continue;
        };
        let Some((rule, tail)) = rest.split_once(')') else {
            bad.push((
                c.line,
                "unterminated t3-lint directive; missing `)` after rule name".to_string(),
            ));
            continue;
        };
        out.push(Directive {
            line: c.line,
            rule: rule.trim().to_string(),
            file_wide,
            reason: comment_reason(tail).map(str::to_string),
        });
    }
    out
}

/// Token index of the `}` matching the `{` at `open` (exclusive end
/// of the body), or `toks.len()` if unbalanced.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0isize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// From item-keyword position, the index of the `{` opening its body —
/// `None` when a `;` ends the item first (trait method, `mod x;`). A
/// `;` inside brackets (an array type such as `[u8; 4]` in the
/// signature) ends nothing.
fn body_open(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(from) {
        if t.is_punct('{') {
            return Some(i);
        }
        if t.is_punct('[') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') && depth == 0 {
            return None;
        }
    }
    None
}

/// Token index one past the `]` closing the attribute whose `#` is at
/// `hash`.
fn attr_close(toks: &[Token], hash: usize) -> usize {
    let mut i = hash + 1;
    if toks.get(i).is_some_and(|t| t.is_punct('!')) {
        i += 1;
    }
    let mut depth = 0isize;
    while i < toks.len() {
        if toks[i].is_punct('[') {
            depth += 1;
        } else if toks[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// True when the attribute starting at `#` (index `hash`) gates on
/// test compilation: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test,..))]`.
fn is_test_attr(toks: &[Token], hash: usize) -> bool {
    let close = attr_close(toks, hash);
    let mut idents = toks[hash..close].iter().filter_map(|t| t.ident());
    match idents.next() {
        Some("test") => true,
        Some("cfg") => idents.any(|id| id == "test"),
        _ => false,
    }
}

/// Computes `#[cfg(test)]`/`#[test]` item spans as token ranges.
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && is_test_attr(toks, i) {
            let mut j = attr_close(toks, i);
            // Skip any further attributes stacked on the same item.
            while toks.get(j).is_some_and(|t| t.is_punct('#')) {
                j = attr_close(toks, j);
            }
            // Skip visibility and fn qualifiers to reach the item
            // keyword; only `mod` and `fn` own brace bodies we track.
            while toks
                .get(j)
                .and_then(|t| t.ident())
                .is_some_and(|id| matches!(id, "pub" | "unsafe" | "const" | "async" | "extern"))
                || toks.get(j).is_some_and(|t| t.is_punct('('))
            {
                if toks[j].is_punct('(') {
                    // `pub(crate)` / `pub(in path)` — skip the group.
                    let mut depth = 0isize;
                    while j < toks.len() {
                        if toks[j].is_punct('(') {
                            depth += 1;
                        } else if toks[j].is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                } else {
                    j += 1;
                }
            }
            if toks
                .get(j)
                .and_then(|t| t.ident())
                .is_some_and(|id| id == "mod" || id == "fn")
            {
                if let Some(open) = body_open(toks, j) {
                    let end = match_brace(toks, open);
                    out.push((open, end + 1));
                    i = end + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// True when `name` denotes a per-cycle hot-path function.
pub fn is_hot_fn_name(name: &str) -> bool {
    name == "step"
        || name == "tick"
        || name == "advance"
        || name.starts_with("step_")
        || name.starts_with("tick_")
        || name.starts_with("advance_")
}

/// True when `name` denotes a fast-forward event predictor: the
/// `next_event` methods themselves plus the `next_arrival` and
/// `*_next_event` variants, the `*_watch` accessors that hand a busy
/// leap the controller counter target a component waits on
/// (`read_watch`, `front_watch`), and the `*watches` accessors that
/// gather a device's stop set (`Device::watches`). Test names that merely *start* with
/// `next_event_` (e.g. `next_event_is_exact`) are deliberately not
/// matched — they assert on predictors rather than being one.
pub fn is_next_event_fn_name(name: &str) -> bool {
    name == "next_event"
        || name == "next_arrival"
        || name.ends_with("_next_event")
        || name.ends_with("_watch")
        || name.ends_with("watches")
}

/// Finds the token-range bodies of functions whose name satisfies
/// `pred` (hot-path `step*`/`tick*`/`advance*`, event predictors).
fn fn_bodies(toks: &[Token], pred: fn(&str) -> bool) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].ident() != Some("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !pred(name) {
            continue;
        }
        if let Some(open) = body_open(toks, i + 2) {
            let end = match_brace(toks, open);
            out.push((open, end, name.to_string()));
        }
    }
    out
}

/// Lints one file's source text. `path` is the workspace-relative
/// path (forward slashes) used for crate scoping and reporting.
/// Workspace-wide rules run too — over a universe of one file — so
/// single-file fixtures can exercise the call-graph rules, while the
/// trace-schema rule stays silent (its anchor files are absent).
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_files(&[(path.to_string(), source.to_string())])
}

/// Lints a set of `(path, source)` files as one universe: per-file
/// rules, then the workspace-wide rules (call-graph reachability,
/// trace-schema consistency), then suppression and directive hygiene.
pub fn lint_files(inputs: &[(String, String)]) -> Vec<Diagnostic> {
    let files: Vec<FileAnalysis> = inputs
        .iter()
        .map(|(p, s)| FileAnalysis::analyze(p, s))
        .collect();

    let mut raw = Vec::new();
    for f in &files {
        let ctx = f.ctx();
        rules::check_wall_clock(&ctx, &mut raw);
        rules::check_hash_iteration(&ctx, &mut raw);
        rules::check_float_cycles(&ctx, &mut raw);
        rules::check_panic_hot_path(&ctx, &mut raw);
        rules::check_next_event_drift(&ctx, &mut raw);
        units::check_unit_confusion(&ctx, &mut raw);
    }
    callgraph::check(&files, &mut raw);
    schema::check(&files, &mut raw);

    // Suppression: a directive covers its own line and the next line
    // (trailing comment, or standalone comment above the site) in the
    // file the diagnostic lands in; `allow-file` covers that whole
    // file. Workspace-rule diagnostics anchor at the sink site, so a
    // directive there covers every entry that reaches the sink.
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.directives.len()])
        .collect();
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        if let Some(&fi) = by_path.get(d.path.as_str()) {
            for (k, dir) in files[fi].directives.iter().enumerate() {
                if dir.rule == d.rule
                    && (dir.file_wide || dir.line == d.line || dir.line + 1 == d.line)
                {
                    suppressed = true;
                    used[fi][k] = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }

    // Hygiene after suppression: `naked-allow` findings are never
    // suppressible — the escape hatch cannot hide its own rot.
    let naked = rules::rule_by_name("naked-allow").expect("registered");
    for (fi, f) in files.iter().enumerate() {
        rules::check_naked_allow_attrs(&f.ctx(), &mut out);
        for (line, msg) in &f.bad_directives {
            out.push(Diagnostic {
                path: f.path.clone(),
                line: *line,
                rule: naked.name,
                code: naked.code,
                anchor: "directive".to_string(),
                message: msg.clone(),
            });
        }
        for (k, dir) in f.directives.iter().enumerate() {
            let what = if dir.file_wide { "allow-file" } else { "allow" };
            if rules::rule_by_name(&dir.rule).is_none() {
                out.push(Diagnostic {
                    path: f.path.clone(),
                    line: dir.line,
                    rule: naked.name,
                    code: naked.code,
                    anchor: format!("allow.{}", dir.rule),
                    message: format!(
                        "t3-lint: {what}({}) names an unknown rule; known rules: {}",
                        dir.rule,
                        rules::RULES
                            .iter()
                            .map(|r| r.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
                continue;
            }
            if dir.reason.is_none() {
                out.push(Diagnostic {
                    path: f.path.clone(),
                    line: dir.line,
                    rule: naked.name,
                    code: naked.code,
                    anchor: format!("allow.{}", dir.rule),
                    message: format!(
                        "t3-lint: {what}({}) without a `-- <reason>`; every suppression must say why it is sound",
                        dir.rule
                    ),
                });
            }
            if !used[fi][k] {
                out.push(Diagnostic {
                    path: f.path.clone(),
                    line: dir.line,
                    rule: naked.name,
                    code: naked.code,
                    anchor: format!("allow.{}", dir.rule),
                    message: format!(
                        "t3-lint: {what}({}) suppresses nothing here; remove the stale directive",
                        dir.rule
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.code, a.anchor.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.code,
            b.anchor.as_str(),
        ))
    });
    out
}

/// Directory names the walker never descends into.
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "fixtures" | ".git" | ".claude")
}

/// Collects every lintable `.rs` file under `root` in sorted order:
/// all of `crates/*`, plus the facade `src/`, `tests/` and
/// `examples/`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root` as one universe (the
/// call-graph and schema rules see every file at once). Paths in
/// diagnostics are reported relative to `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut inputs = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, fs::read_to_string(&file)?));
    }
    Ok(lint_files(&inputs))
}
