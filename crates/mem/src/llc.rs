//! Set-associative, LRU last-level cache model.
//!
//! The paper's contention results depend on whether a GEMM's inputs fit
//! in the 16 MB LLC (Section 6.1.2: OP layers fit and are insensitive to
//! overlapped RS traffic; FC layers do not and slow down), and on T3's
//! LLC *bypass* of GEMM output writes, which frees capacity for input
//! reads (Section 6.2's GEMM read reductions). This model captures both:
//! it is simulated per line with true LRU or (the paper default)
//! random replacement, and writes can be sent around the cache
//! ("uncached" allocations, Section 4.3).
//!
//! A GEMM's accesses do not depend on time, so no engine loop holds an
//! `Llc`: `t3_gpu::llc_plan` walks each kernel through one once per
//! process and the engines read the per-stage results.

use t3_sim::config::{LlcReplacement, MemConfig};
use t3_sim::Bytes;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load; misses allocate the line.
    Read,
    /// A store; in this write-back, write-allocate LLC, misses allocate
    /// (and dirty) the line unless bypassed.
    Write,
}

/// Result of filtering an access stream through the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterResult {
    /// Bytes that missed and must be fetched from DRAM (reads), or
    /// written to DRAM (bypassed/written-back data).
    pub dram_bytes: Bytes,
    /// Bytes that hit in the LLC.
    pub hit_bytes: Bytes,
}

/// A set-associative, write-back, write-allocate LLC with LRU or
/// random replacement, simulated at line granularity.
#[derive(Debug, Clone)]
pub struct Llc {
    line_bytes: Bytes,
    sets: u64,
    ways: usize,
    /// `lines[set * ways + way]`: the global line number (address ÷
    /// line size) the way holds. Ways fill in index order, so a set's
    /// valid ways are always its first `filled[set]` (the test-only
    /// `flush` empties every set at once).
    lines: Vec<u64>,
    /// Valid ways per set.
    filled: Vec<usize>,
    /// Residency bit per global line number, grown to the highest line
    /// walked: a lookup is one bit test instead of a scan of the set.
    resident: Vec<u64>,
    /// Dirty bit per global line number (set only for resident lines).
    dirty: Vec<u64>,
    /// LRU stamp per way (larger = more recently used); empty under
    /// random replacement, which never reads them.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    replacement: LlcReplacement,
    /// Deterministic LCG state for random replacement.
    rng: u64,
}

/// The word and bit of `line` in a per-line bitset.
fn bit_of(line: u64) -> (usize, u64) {
    ((line >> 6) as usize, 1 << (line & 63))
}

impl Llc {
    /// Builds the LLC described by `cfg` (16 MB, 16-way, 256 B lines in
    /// the paper configuration).
    pub fn new(cfg: &MemConfig) -> Self {
        let sets = cfg.llc_sets();
        let ways = cfg.llc_ways as usize;
        let lines = (sets as usize) * ways;
        let stamps = match cfg.llc_replacement {
            LlcReplacement::Lru => vec![0; lines],
            LlcReplacement::Random => Vec::new(),
        };
        Llc {
            line_bytes: cfg.llc_line,
            sets,
            ways,
            lines: vec![0; lines],
            filled: vec![0; sets as usize],
            resident: Vec::new(),
            dirty: Vec::new(),
            stamps,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            replacement: cfg.llc_replacement,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Total line hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total line misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Grows the per-line bitsets to cover line `last`.
    fn cover(&mut self, last: u64) {
        let words = bit_of(last).0 + 1;
        if self.resident.len() < words {
            self.resident.resize(words, 0);
            self.dirty.resize(words, 0);
        }
    }

    /// Accesses global line `line`, which maps to `set` (the bitsets
    /// must cover it). Returns `true` on hit. A miss allocates the
    /// line, possibly evicting a dirty victim (a write-back, drained by
    /// [`Llc::take_writeback_bytes`]).
    fn access_line(&mut self, set: usize, line: u64, kind: AccessKind) -> bool {
        let (word, bit) = bit_of(line);
        let write = kind == AccessKind::Write;
        let base = set * self.ways;
        let filled = self.filled[set];
        if self.resident[word] & bit != 0 {
            if write {
                self.dirty[word] |= bit;
            }
            if self.replacement == LlcReplacement::Lru {
                // A resident line sits in one of its set's valid ways.
                let way = self.lines[base..base + filled]
                    .iter()
                    .position(|&l| l == line)
                    .unwrap_or(0);
                self.touch(base + way);
            }
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Choose victim: the next empty way first, else per
        // replacement policy.
        let victim = if filled < self.ways {
            self.filled[set] = filled + 1;
            filled
        } else {
            let victim = self.victim(base);
            let (w, b) = bit_of(self.lines[base + victim]);
            self.writebacks += u64::from(self.dirty[w] & b != 0);
            self.resident[w] &= !b;
            self.dirty[w] &= !b;
            victim
        };
        self.lines[base + victim] = line;
        self.resident[word] |= bit;
        if write {
            self.dirty[word] |= bit;
        }
        self.touch(base + victim);
        false
    }

    /// Marks way `index` most recently used (LRU only).
    fn touch(&mut self, index: usize) {
        if self.replacement == LlcReplacement::Lru {
            self.tick += 1;
            self.stamps[index] = self.tick;
        }
    }

    /// The way to evict from the full set starting at `base`.
    fn victim(&mut self, base: usize) -> usize {
        match self.replacement {
            LlcReplacement::Lru => {
                let mut lru_way = 0;
                let mut lru_stamp = u64::MAX;
                for (w, &stamp) in self.stamps[base..base + self.ways].iter().enumerate() {
                    if stamp < lru_stamp {
                        lru_stamp = stamp;
                        lru_way = w;
                    }
                }
                lru_way
            }
            LlcReplacement::Random => {
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((self.rng >> 33) as usize) % self.ways
            }
        }
    }

    /// Streams a contiguous `[start, start + bytes)` region through the
    /// cache and reports DRAM traffic. Reads fetch missed lines from
    /// DRAM; writes dirty lines in place (write-back: DRAM write traffic
    /// appears later as writebacks, which the caller can drain with
    /// [`Llc::take_writeback_bytes`]).
    pub fn access_range(&mut self, start: u64, bytes: Bytes, kind: AccessKind) -> FilterResult {
        let mut result = FilterResult::default();
        if bytes == 0 {
            return result;
        }
        let first = start / self.line_bytes;
        let last = (start + bytes - 1) / self.line_bytes;
        self.cover(last);
        // Consecutive lines walk the sets in order.
        let mut set = first % self.sets;
        for line in first..=last {
            let hit = self.access_line(set as usize, line, kind);
            if hit {
                result.hit_bytes += self.line_bytes;
            } else if kind == AccessKind::Read {
                result.dram_bytes += self.line_bytes;
            }
            // Write misses allocate without fetching (no-write-allocate
            // fill for full-line GEMM stores would also be valid; either
            // way the store itself generates no immediate DRAM read).
            set += 1;
            if set == self.sets {
                set = 0;
            }
        }
        result
    }

    /// Cleans every dirty line (kernel-boundary flush for inter-kernel
    /// visibility) and returns the bytes written back to DRAM. Lines
    /// stay valid (clean), so later readers can still hit.
    pub fn flush_dirty(&mut self) -> Bytes {
        let lines: u64 = self.dirty.iter().map(|w| u64::from(w.count_ones())).sum();
        self.dirty.fill(0);
        lines * self.line_bytes
    }

    /// Returns and resets accumulated write-back traffic in bytes.
    pub fn take_writeback_bytes(&mut self) -> Bytes {
        let bytes = self.writebacks * self.line_bytes;
        self.writebacks = 0;
        bytes
    }
}

/// Test-only probes and resets.
#[cfg(test)]
impl Llc {
    fn line_bytes(&self) -> Bytes {
        self.line_bytes
    }

    fn writebacks(&self) -> u64 {
        self.writebacks
    }

    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Invalidates the entire cache.
    fn flush(&mut self) {
        self.filled.fill(0);
        self.resident.fill(0);
        self.dirty.fill(0);
    }

    /// Accesses one line-aligned address. Returns `true` on hit.
    fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        let line = addr / self.line_bytes;
        self.cover(line);
        self.access_line((line % self.sets) as usize, line, kind)
    }

    fn valid_lines(&self) -> usize {
        self.filled.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::config::SystemConfig;

    fn small_llc(capacity: Bytes) -> Llc {
        let mut cfg = SystemConfig::paper_default().mem;
        cfg.llc_capacity = capacity;
        cfg.llc_ways = 4;
        cfg.llc_line = 256;
        // Most behavioural tests assume deterministic LRU eviction.
        cfg.llc_replacement = t3_sim::config::LlcReplacement::Lru;
        Llc::new(&cfg)
    }

    fn random_llc(capacity: Bytes) -> Llc {
        let mut cfg = SystemConfig::paper_default().mem;
        cfg.llc_capacity = capacity;
        cfg.llc_ways = 4;
        cfg.llc_line = 256;
        cfg.llc_replacement = t3_sim::config::LlcReplacement::Random;
        Llc::new(&cfg)
    }

    #[test]
    fn repeated_access_hits() {
        let mut llc = small_llc(64 * 1024);
        assert!(!llc.access(0, AccessKind::Read));
        assert!(llc.access(0, AccessKind::Read));
        assert!(llc.access(128, AccessKind::Read)); // same line
        assert_eq!(llc.hits(), 2);
        assert_eq!(llc.misses(), 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        // 4 ways, 1 set if capacity == 4 lines.
        let mut llc = small_llc(4 * 256);
        for i in 0..4u64 {
            llc.access(i * 256, AccessKind::Read);
        }
        // Touch line 0 so line 1 is LRU.
        llc.access(0, AccessKind::Read);
        // New line evicts line 1.
        llc.access(4 * 256, AccessKind::Read);
        assert!(llc.access(0, AccessKind::Read), "line 0 must survive");
        assert!(!llc.access(256, AccessKind::Read), "line 1 was evicted");
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut llc = small_llc(4 * 256);
        llc.access(0, AccessKind::Write);
        for i in 1..5u64 {
            llc.access(i * 256, AccessKind::Read);
        }
        assert_eq!(llc.writebacks(), 1);
        assert_eq!(llc.take_writeback_bytes(), 256);
        assert_eq!(llc.take_writeback_bytes(), 0);
    }

    #[test]
    fn access_range_counts_only_missed_reads() {
        let mut llc = small_llc(64 * 1024);
        let r1 = llc.access_range(0, 1024, AccessKind::Read);
        assert_eq!(r1.dram_bytes, 1024);
        assert_eq!(r1.hit_bytes, 0);
        let r2 = llc.access_range(0, 1024, AccessKind::Read);
        assert_eq!(r2.dram_bytes, 0);
        assert_eq!(r2.hit_bytes, 1024);
    }

    #[test]
    fn access_range_handles_unaligned_spans() {
        let mut llc = small_llc(64 * 1024);
        // 100 bytes starting at 200 spans lines 0 and 1.
        let r = llc.access_range(200, 100, AccessKind::Read);
        assert_eq!(r.dram_bytes, 512);
    }

    #[test]
    fn zero_length_range_is_noop() {
        let mut llc = small_llc(64 * 1024);
        let r = llc.access_range(123, 0, AccessKind::Read);
        assert_eq!(r, FilterResult::default());
        assert_eq!(llc.misses(), 0);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut llc = small_llc(64 * 1024);
        llc.access(0, AccessKind::Read);
        assert_eq!(llc.valid_lines(), 1);
        llc.flush();
        assert_eq!(llc.valid_lines(), 0);
        assert!(!llc.access(0, AccessKind::Read));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut llc = small_llc(16 * 1024); // 64 lines
                                            // Stream 128 distinct lines twice: second pass still misses
                                            // (LRU streaming pattern).
        for pass in 0..2 {
            for i in 0..128u64 {
                let hit = llc.access(i * 256, AccessKind::Read);
                if pass == 1 {
                    assert!(!hit, "streaming working set 2x cache must thrash");
                }
            }
        }
    }

    #[test]
    fn working_set_within_cache_is_reused() {
        let mut llc = small_llc(32 * 1024); // 128 lines
        for i in 0..64u64 {
            llc.access(i * 256, AccessKind::Read);
        }
        llc.reset_counters();
        for i in 0..64u64 {
            assert!(llc.access(i * 256, AccessKind::Read));
        }
        assert_eq!(llc.misses(), 0);
    }

    #[test]
    fn random_replacement_survives_streaming_overflow() {
        // A cyclic working set 25% over capacity should still hit most
        // of the time under random replacement (LRU would hit never).
        let lines = 64u64; // 16 KB cache
        let mut llc = random_llc(lines * 256);
        let wss = lines + lines / 4;
        for _ in 0..3 {
            for i in 0..wss {
                llc.access(i * 256, AccessKind::Read);
            }
        }
        llc.reset_counters();
        for i in 0..wss {
            llc.access(i * 256, AccessKind::Read);
        }
        let hit_rate = llc.hits() as f64 / (llc.hits() + llc.misses()) as f64;
        assert!(
            hit_rate > 0.4,
            "random replacement should retain much of a near-capacity set, got {hit_rate:.2}"
        );
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let run = || {
            let mut llc = random_llc(16 * 1024);
            for i in 0..1000u64 {
                llc.access((i * 7919) % 4096 * 256, AccessKind::Read);
            }
            (llc.hits(), llc.misses())
        };
        assert_eq!(run(), run());
    }

    /// Drives a seeded mix of `access`, `access_range`, `flush_dirty`
    /// and `flush` calls through a cache of the given geometry and
    /// folds every observable after every call into one checksum.
    fn replay_mix(
        capacity: Bytes,
        ways: u32,
        line: Bytes,
        replacement: LlcReplacement,
        seed: u64,
    ) -> (u64, u64, u64, u64, usize) {
        let mut cfg = SystemConfig::paper_default().mem;
        cfg.llc_capacity = capacity;
        cfg.llc_ways = ways;
        cfg.llc_line = line;
        cfg.llc_replacement = replacement;
        let mut llc = Llc::new(&cfg);
        let mut rng = t3_sim::rng::SplitMix64::new(seed);
        // Addresses span four capacities so sets wrap and evict.
        let span = 4 * capacity;
        let mut sum = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |v: u64| sum = (sum ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        for _ in 0..20_000 {
            let kind = if rng.gen_bool() {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            match rng.gen_range(0, 100) {
                0..=44 => fold(llc.access(rng.gen_range(0, span), kind) as u64),
                45..=89 => {
                    let start = rng.gen_range(0, span);
                    let bytes = rng.gen_range(0, 24 * line);
                    let r = llc.access_range(start, bytes, kind);
                    fold(r.dram_bytes);
                    fold(r.hit_bytes);
                }
                90..=95 => {
                    // Long ranges wrap the set index several times.
                    let start = rng.gen_range(0, span);
                    let r = llc.access_range(start, rng.gen_range(capacity, 3 * capacity), kind);
                    fold(r.dram_bytes);
                    fold(r.hit_bytes);
                }
                96..=98 => fold(llc.flush_dirty()),
                _ => llc.flush(),
            }
            fold(llc.hits());
            fold(llc.misses());
            fold(llc.writebacks());
            fold(llc.valid_lines() as u64);
        }
        (
            llc.hits(),
            llc.misses(),
            llc.writebacks(),
            sum,
            llc.valid_lines(),
        )
    }

    #[test]
    fn seeded_access_mix_is_pinned_for_every_geometry() {
        use LlcReplacement::{Lru, Random};
        // (capacity, ways, line): 64 sets; 15 sets (not a power of
        // two); 8 sets x 16 ways of 128 B lines; one fully
        // associative set.
        let cases = [
            (64 * 1024, 4, 256, Lru),
            (64 * 1024, 4, 256, Random),
            (15 * 4 * 256, 4, 256, Lru),
            (15 * 4 * 256, 4, 256, Random),
            (8 * 16 * 128, 16, 128, Lru),
            (8 * 16 * 128, 16, 128, Random),
            (8 * 256, 8, 256, Lru),
            (8 * 256, 8, 256, Random),
        ];
        let got: Vec<_> = cases
            .iter()
            .map(|&(cap, ways, line, repl)| replay_mix(cap, ways, line, repl, 0x5EED_11C0))
            .collect();
        // (hits, misses, writebacks, per-call checksum, valid lines)
        let want: [(u64, u64, u64, u64, usize); 8] = [
            (54334, 701186, 307162, 4475765053792090762, 256),
            (72951, 682569, 305227, 10743183802396750107, 256),
            (35012, 238520, 107928, 6855068874165441292, 60),
            (39326, 234206, 107724, 1313790787227381916, 60),
            (40786, 403100, 175275, 18369938988068471882, 128),
            (51670, 392216, 174973, 15486644691645428544, 128),
            (9517, 137755, 67987, 11708072625007353531, 8),
            (14973, 132299, 66529, 10254197432664630228, 8),
        ];
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g, w, "case {i}: {:?}", cases[i]);
        }
    }

    #[test]
    fn paper_llc_has_expected_geometry() {
        let cfg = SystemConfig::paper_default().mem;
        let llc = Llc::new(&cfg);
        assert_eq!(llc.line_bytes(), 256);
        assert_eq!(llc.lines.len(), 65536);
        assert!(llc.stamps.is_empty(), "random replacement keeps no stamps");
    }
}
