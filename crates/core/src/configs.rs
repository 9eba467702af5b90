//! The evaluated configurations of Section 5.3.
//!
//! Every sublayer experiment in the paper compares five ways of
//! executing a tensor-sliced GEMM and its all-reduce (= reduce-scatter
//! + all-gather):
//!
//! * [`Configuration::Sequential`] — today's systems: GEMM kernel,
//!   then ring-RS, then ring-AG, serialised.
//! * [`Configuration::T3`] — fused GEMM-RS (track & trigger + NMC)
//!   with naive round-robin memory arbitration, then sequential AG.
//! * [`Configuration::T3Mca`] — T3 plus the communication-aware
//!   memory-controller arbitration policy (Section 4.5).
//! * [`Configuration::IdealOverlap`] — "Ideal-GEMM-RS-Overlap": a
//!   perfect software overlap with no resource contention or
//!   dependencies; `max(GEMM, RS) + AG` of isolated runs.
//! * [`Configuration::IdealRsNmc`] — "Ideal-RS+NMC": the above with
//!   the RS itself accelerated by near-memory reductions.
//!
//! # Sublayer cost oracle
//!
//! A sublayer is made of at most two cycle-stepped engine runs: the
//! isolated GEMM that Sequential, Ideal-GEMM-RS-Overlap and
//! Ideal-RS+NMC share, and the fused GEMM-RS of T3 or T3-MCA. The
//! collectives are analytic. [`Configuration::run_in_mode`] takes both
//! engine runs from one process-wide, thread-safe memo, so each
//! distinct run simulates once per process however many
//! configurations, figures or serving buckets ask for it.
//!
//! * The key is the `Debug` rendering of every input: (`SystemConfig`,
//!   `GemmGrid`, `SimMode`) for the isolated GEMM, (`SystemConfig`,
//!   `GemmGrid`, `FusedOptions`) for the fused run. `Debug` is derived
//!   on every field, so a new config field joins the key by itself,
//!   and `f64` `Debug` round-trips exactly.
//! * An entry keeps only the run's cycles and [`TrafficStats`].
//! * The lock is held only while a key's slot is fetched, never while
//!   simulating. A second caller of a key whose run is in flight waits
//!   for that run instead of repeating it.
//! * The primitive engines (`run_gemm_isolated*`, `run_fused_gemm_rs*`
//!   and the multi-GPU engines) stay un-memoised, so instrumented runs,
//!   engine tests and host-time measurements still simulate.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::engine::{run_fused_gemm_rs, FusedOptions, PolicyChoice};
use t3_gpu::collective::{CollectiveKind, RingCollective};
use t3_gpu::engine::{run_gemm_isolated_in_mode, WritePolicy};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficStats;
use t3_sim::{Cycle, SimMode};

/// One of the paper's evaluated configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Configuration {
    /// Baseline: GEMM, then RS, then AG, serialised.
    Sequential,
    /// Fused GEMM-RS with round-robin arbitration + sequential AG.
    T3,
    /// Fused GEMM-RS with the MCA policy + sequential AG.
    T3Mca,
    /// Perfect overlap of isolated GEMM and RS + sequential AG.
    IdealOverlap,
    /// Perfect overlap with NMC-accelerated RS + sequential AG.
    IdealRsNmc,
}

impl Configuration {
    /// All configurations, in the paper's reporting order.
    pub const ALL: [Configuration; 5] = [
        Configuration::Sequential,
        Configuration::T3,
        Configuration::T3Mca,
        Configuration::IdealOverlap,
        Configuration::IdealRsNmc,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Configuration::Sequential => "Sequential",
            Configuration::T3 => "T3",
            Configuration::T3Mca => "T3-MCA",
            Configuration::IdealOverlap => "Ideal-GEMM-RS-Overlap",
            Configuration::IdealRsNmc => "Ideal-RS+NMC",
        }
    }

    /// Runs one sliced sublayer GEMM + all-reduce under this
    /// configuration on `sys`.
    ///
    /// # Examples
    ///
    /// ```
    /// use t3_core::configs::Configuration;
    /// use t3_gpu::gemm::GemmShape;
    /// use t3_sim::config::SystemConfig;
    ///
    /// let sys = SystemConfig::paper_default();
    /// // A small tensor-sliced GEMM (TP=8 slice of K).
    /// let shape = GemmShape::new(512, 1024, 8 * 1024).tp_sliced(8);
    /// let seq = Configuration::Sequential.run(&sys, &shape);
    /// let t3 = Configuration::T3Mca.run(&sys, &shape);
    /// assert!(t3.total_cycles < seq.total_cycles);
    /// ```
    pub fn run(self, sys: &SystemConfig, shape: &GemmShape) -> SublayerOutcome {
        self.run_in_mode(sys, shape, SimMode::default())
    }

    /// [`Configuration::run`] with an explicit [`SimMode`] for the
    /// cycle-stepped components (the collective baselines are analytic
    /// and mode-independent). Both modes are byte-identical.
    ///
    /// The isolated GEMM and the fused GEMM-RS come from the process
    /// memo (see the module docs), so each distinct engine run
    /// simulates once however many configurations or callers ask.
    pub fn run_in_mode(
        self,
        sys: &SystemConfig,
        shape: &GemmShape,
        mode: SimMode,
    ) -> SublayerOutcome {
        let grid = GemmGrid::new(&sys.gpu, *shape);
        let payload = shape.output_bytes();
        let ag = RingCollective::baseline(CollectiveKind::AllGather, payload, sys).simulate(sys);
        let (gemm_cycles, rs_cycles, span, mut stats) = match self.fused_options() {
            // T3 variants: the RS hides inside the fused span.
            Some(opts) => {
                let (fused, stats) = fused_gemm_rs(sys, &grid, &FusedOptions { mode, ..opts });
                (fused, 0, fused, stats)
            }
            None => {
                let (gemm, mut stats) = isolated_gemm(sys, &grid, mode);
                let rs = RingCollective::baseline(CollectiveKind::ReduceScatter, payload, sys)
                    .with_nmc(self == Configuration::IdealRsNmc)
                    .simulate(sys);
                stats.merge(&rs.stats);
                let span = if self == Configuration::Sequential {
                    gemm + rs.cycles
                } else {
                    gemm.max(rs.cycles)
                };
                (gemm, rs.cycles, span, stats)
            }
        };
        stats.merge(&ag.stats);
        SublayerOutcome {
            config: self,
            gemm_cycles,
            rs_cycles,
            ag_cycles: ag.cycles,
            total_cycles: span + ag.cycles,
            stats,
        }
    }

    /// The fused-run options equivalent to this configuration, when it
    /// is a T3 variant.
    pub fn fused_options(self) -> Option<FusedOptions> {
        let policy = match self {
            Configuration::T3 => PolicyChoice::RoundRobin,
            Configuration::T3Mca => PolicyChoice::McaDynamic,
            _ => return None,
        };
        Some(FusedOptions {
            policy,
            ..FusedOptions::default()
        })
    }
}

/// What the memo keeps of one engine run: its cycles and traffic.
type EngineCost = (Cycle, TrafficStats);

/// The process-wide engine-run memo: exact input key → a slot that is
/// filled once. Entries are never evicted.
static MEMO: Mutex<BTreeMap<String, Arc<OnceLock<EngineCost>>>> = Mutex::new(BTreeMap::new());

/// Returns the memoised cost under `key`, running `simulate` on a
/// miss. The lock is held only to fetch the slot; a second caller of
/// a key whose run is in flight blocks on the slot until it is filled.
fn memoised(key: String, simulate: impl FnOnce() -> EngineCost) -> EngineCost {
    let slot = {
        // The only update is one `entry().or_default()`, which leaves
        // the map valid even if it panics, so a poisoned lock is safe.
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(memo.entry(key).or_default())
    };
    slot.get_or_init(simulate).clone()
}

/// The isolated GEMM of the Sequential and Ideal configurations.
fn isolated_gemm(sys: &SystemConfig, grid: &GemmGrid, mode: SimMode) -> EngineCost {
    memoised(format!("gemm {sys:?} {grid:?} {mode:?}"), || {
        let run = run_gemm_isolated_in_mode(sys, grid.clone(), WritePolicy::CachedLocal, mode);
        (run.cycles, run.stats)
    })
}

/// The fused GEMM-RS of the T3 configurations.
fn fused_gemm_rs(sys: &SystemConfig, grid: &GemmGrid, opts: &FusedOptions) -> EngineCost {
    memoised(format!("fused {sys:?} {grid:?} {opts:?}"), || {
        let run = run_fused_gemm_rs(sys, grid.clone(), opts);
        (run.cycles, run.stats)
    })
}

/// Result of running a sliced sublayer under one configuration.
#[derive(Debug, Clone)]
pub struct SublayerOutcome {
    /// Which configuration produced this.
    pub config: Configuration,
    /// GEMM cycles (for T3 variants: the fused GEMM+RS span).
    pub gemm_cycles: Cycle,
    /// Exposed reduce-scatter cycles (0 for T3 variants: it is hidden
    /// inside the fused span).
    pub rs_cycles: Cycle,
    /// All-gather cycles (always sequential).
    pub ag_cycles: Cycle,
    /// End-to-end cycles for the sublayer.
    pub total_cycles: Cycle,
    /// Per-GPU DRAM traffic.
    pub stats: TrafficStats,
}

impl SublayerOutcome {
    /// Speedup of this outcome relative to `baseline`.
    pub fn speedup_over(&self, baseline: &SublayerOutcome) -> f64 {
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Data-movement reduction vs `baseline` (positive = less DRAM
    /// traffic), as a fraction.
    pub fn traffic_reduction_vs(&self, baseline: &SublayerOutcome) -> f64 {
        1.0 - self.stats.total() as f64 / baseline.stats.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::stats::TrafficClass;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    /// A T-NLG-like FC-2 sublayer scaled down ~4x in tokens to keep
    /// debug-mode tests quick: still many stages, LLC-exceeding B.
    fn shape() -> GemmShape {
        GemmShape::new(2048, 4256, 2128)
    }

    #[test]
    fn t3_mca_beats_sequential_and_respects_ideal() {
        let s = sys();
        let seq = Configuration::Sequential.run(&s, &shape());
        let t3 = Configuration::T3.run(&s, &shape());
        let mca = Configuration::T3Mca.run(&s, &shape());
        let ideal = Configuration::IdealOverlap.run(&s, &shape());
        assert!(
            t3.total_cycles < seq.total_cycles,
            "T3 must beat Sequential"
        );
        assert!(
            mca.total_cycles <= (t3.total_cycles as f64 * 1.02) as u64,
            "T3-MCA must not lose to T3"
        );
        assert!(
            ideal.total_cycles <= seq.total_cycles,
            "ideal overlap cannot lose to sequential"
        );
        // The paper's usual ordering is ideal >= T3-MCA >= T3, but
        // T3 variants can legitimately exceed Ideal-GEMM-RS-Overlap on
        // LLC-sensitive layers (Section 6.1.2: the "ideal" GEMM still
        // suffers output-write cache pollution; T3's uncached stores do
        // not). Allow that, but bound it.
        let su_t3 = t3.speedup_over(&seq);
        let su_mca = mca.speedup_over(&seq);
        let su_ideal = ideal.speedup_over(&seq);
        assert!(
            su_ideal * 1.15 >= su_mca,
            "ideal {su_ideal} vs mca {su_mca}"
        );
        assert!(su_mca * 1.02 >= su_t3, "mca {su_mca} vs t3 {su_t3}");
        assert!(su_t3 > 1.0);
    }

    #[test]
    fn ideal_rs_nmc_at_least_matches_ideal_overlap() {
        let s = sys();
        let a = Configuration::IdealOverlap.run(&s, &shape());
        let b = Configuration::IdealRsNmc.run(&s, &shape());
        assert!(b.total_cycles <= a.total_cycles);
    }

    #[test]
    fn t3_reduces_data_movement() {
        let s = sys();
        let seq = Configuration::Sequential.run(&s, &shape());
        let mca = Configuration::T3Mca.run(&s, &shape());
        let reduction = mca.traffic_reduction_vs(&seq);
        // Paper: up to 36%, average 22% across sublayers.
        assert!(
            reduction > 0.10 && reduction < 0.45,
            "traffic reduction {reduction:.3} out of plausible band"
        );
        // RS reads drop sharply (paper: ~2.4x geomean).
        let rs_ratio = seq.stats.bytes(TrafficClass::RsRead) as f64
            / mca.stats.bytes(TrafficClass::RsRead) as f64;
        assert!(rs_ratio > 1.8, "RS read reduction {rs_ratio:.2}x too small");
    }

    #[test]
    fn sequential_distribution_components_sum() {
        let s = sys();
        let seq = Configuration::Sequential.run(&s, &shape());
        assert_eq!(
            seq.total_cycles,
            seq.gemm_cycles + seq.rs_cycles + seq.ag_cycles
        );
        assert!(seq.rs_cycles > 0 && seq.ag_cycles > 0);
    }

    #[test]
    fn ag_is_identical_across_configs() {
        let s = sys();
        let seq = Configuration::Sequential.run(&s, &shape());
        let mca = Configuration::T3Mca.run(&s, &shape());
        assert_eq!(seq.ag_cycles, mca.ag_cycles);
        assert_eq!(
            seq.stats.bytes(TrafficClass::AgRead),
            mca.stats.bytes(TrafficClass::AgRead)
        );
    }

    #[test]
    fn names_and_fused_options() {
        assert_eq!(Configuration::T3Mca.name(), "T3-MCA");
        assert!(Configuration::T3.fused_options().is_some());
        assert!(Configuration::Sequential.fused_options().is_none());
        assert_eq!(Configuration::ALL.len(), 5);
    }
}
