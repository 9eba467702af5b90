//! The content-addressed result cache.
//!
//! A completed job's [`JobOutput`] is persisted as
//! `<dir>/<fingerprint>.json` (hand-rolled JSON, like the `t3-trace`
//! exporters — the workspace builds offline with no serde). A later
//! run with the same canonical config fingerprint replays the stored
//! output byte-for-byte instead of re-simulating, which makes
//! `figures all` incremental. Unreadable, corrupt, or
//! schema-mismatched entries are treated as misses and overwritten —
//! the cache can only ever cost a rerun, never wrong bytes.
//!
//! The fingerprint covers the experiment *config*, not the simulator
//! *code*; callers version their job fingerprints (see
//! `t3-bench::jobs::WORKLOAD_REV`) and bump that revision whenever a
//! change is meant to invalidate previously cached results. The
//! default directory lives under `target/`, so `cargo clean` clears
//! it too.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use crate::fingerprint::Fingerprint;
use crate::job::JobOutput;
use crate::report::escape;

/// On-disk schema revision; bump on any layout change.
pub const CACHE_SCHEMA: u64 = 1;

/// The default cache location, relative to the workspace root.
pub const DEFAULT_CACHE_DIR: &str = "target/t3-cache";

/// Where (and whether) to cache results.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Directory holding one `<fingerprint>.json` per entry.
    pub dir: PathBuf,
}

impl CacheConfig {
    /// A cache under `dir`.
    pub fn at<P: Into<PathBuf>>(dir: P) -> Self {
        CacheConfig { dir: dir.into() }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::at(DEFAULT_CACHE_DIR)
    }
}

/// An open cache with hit/miss accounting.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Opens (lazily — the directory is created on first store) the
    /// cache described by `config`.
    pub fn open(config: &CacheConfig) -> Self {
        Cache {
            dir: config.dir.clone(),
            hits: 0,
            misses: 0,
        }
    }

    /// The entry path for a fingerprint.
    pub fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", fp.hex()))
    }

    /// Recorded lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Recorded lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up a fingerprint, counting the outcome. Any read or
    /// parse failure is a miss.
    pub fn load(&mut self, fp: Fingerprint) -> Option<JobOutput> {
        let loaded = fs::read_to_string(self.entry_path(fp))
            .ok()
            .and_then(|text| parse_entry(&text));
        match loaded {
            Some(out) => {
                self.hits += 1;
                Some(out)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Persists one result. Errors are reported, not fatal: a
    /// read-only disk degrades the cache to a no-op.
    pub fn store(&self, fp: Fingerprint, name: &str, out: &JobOutput) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let body = render_entry(fp, name, out);
        // Write-then-rename so a concurrent reader never sees a
        // half-written entry.
        let tmp = self.dir.join(format!("{}.tmp", fp.hex()));
        fs::write(&tmp, body)?;
        fs::rename(&tmp, self.entry_path(fp))
    }
}

/// Renders one cache entry as JSON.
pub fn render_entry(fp: Fingerprint, name: &str, out: &JobOutput) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": {CACHE_SCHEMA},");
    let _ = writeln!(s, "  \"fingerprint\": \"{}\",", fp.hex());
    let _ = writeln!(s, "  \"name\": \"{}\",", escape(name));
    let _ = writeln!(s, "  \"sim_cycles\": {},", out.sim_cycles);
    let _ = writeln!(s, "  \"stdout\": \"{}\",", escape(&out.stdout));
    s.push_str("  \"metrics\": {");
    for (i, (k, v)) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    \"{}\": {v}", escape(k));
    }
    if !out.metrics.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("}\n}\n");
    s
}

/// Parses a cache entry; `None` on any malformation or schema
/// mismatch.
pub fn parse_entry(text: &str) -> Option<JobOutput> {
    let mut p = Parser::new(text);
    p.skip_ws();
    p.expect('{')?;
    let mut schema = None;
    let mut sim_cycles = 0u64;
    let mut stdout = None;
    let mut metrics = BTreeMap::new();
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        match key.as_str() {
            "schema" => schema = Some(p.number()?),
            "sim_cycles" => sim_cycles = p.number()?,
            "stdout" => stdout = Some(p.string()?),
            "fingerprint" | "name" => {
                p.string()?;
            }
            "metrics" => {
                p.expect('{')?;
                loop {
                    p.skip_ws();
                    if p.eat('}') {
                        break;
                    }
                    let k = p.string()?;
                    p.skip_ws();
                    p.expect(':')?;
                    p.skip_ws();
                    let v = p.number()?;
                    metrics.insert(k, v);
                    p.skip_ws();
                    p.eat(',');
                }
            }
            _ => return None,
        }
        p.skip_ws();
        p.eat(',');
    }
    if schema != Some(CACHE_SCHEMA) {
        return None;
    }
    Some(JobOutput {
        stdout: stdout?,
        sim_cycles,
        metrics,
    })
}

/// A minimal pull parser for exactly the JSON subset the cache
/// writes: one object of string keys mapped to strings, unsigned
/// integers, or one nested flat object of unsigned integers.
struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { rest: text }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.rest = &self.rest[c.len_utf8()..];
        Some(c)
    }

    fn expect(&mut self, want: char) -> Option<()> {
        (self.bump()? == want).then_some(())
    }

    fn eat(&mut self, want: char) -> bool {
        if self.peek() == Some(want) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Option<u64> {
        let digits: String = self.rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return None;
        }
        self.rest = &self.rest[digits.len()..];
        digits.parse().ok()
    }

    fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Some(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let code: String = (0..4).map_while(|_| self.bump()).collect();
                        let v = u32::from_str_radix(&code, 16).ok()?;
                        out.push(char::from_u32(v)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;

    fn sample_output() -> JobOutput {
        let mut metrics = BTreeMap::new();
        metrics.insert("wire.bytes".to_string(), 42);
        metrics.insert("dma.transfers".to_string(), 7);
        JobOutput {
            stdout: "== Table ==\n  a \"quoted\"\tcell\n".to_string(),
            sim_cycles: 123_456,
            metrics,
        }
    }

    fn fp() -> Fingerprint {
        FingerprintBuilder::new().str("t", "x").finish()
    }

    #[test]
    fn round_trips_through_json() {
        let out = sample_output();
        let text = render_entry(fp(), "fig16", &out);
        let back = parse_entry(&text).expect("parses");
        assert_eq!(back, out);
    }

    #[test]
    fn rejects_schema_mismatch_and_garbage() {
        let out = sample_output();
        let text = render_entry(fp(), "fig16", &out);
        let bumped = text.replace("\"schema\": 1", "\"schema\": 999");
        assert!(parse_entry(&bumped).is_none());
        assert!(parse_entry("not json").is_none());
        assert!(parse_entry("{\"schema\": 1}").is_none(), "stdout required");
        assert!(parse_entry("").is_none());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let out = JobOutput::text("ctrl \u{1} and unicode µ\n");
        let text = render_entry(fp(), "t", &out);
        assert!(text.contains("\\u0001"));
        assert_eq!(parse_entry(&text).expect("parses"), out);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let dir = std::env::temp_dir().join(format!("t3-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut cache = Cache::open(&CacheConfig::at(&dir));
        let out = sample_output();
        assert!(cache.load(fp()).is_none());
        cache.store(fp(), "fig16", &out).expect("store");
        assert_eq!(cache.load(fp()).expect("hit"), out);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
