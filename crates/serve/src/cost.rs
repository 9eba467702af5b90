//! Iteration cost model: prices one continuous-batching iteration by
//! running the paper's sublayer configurations on bucketed token
//! counts.
//!
//! The serving engine asks "what does an iteration over `t` tokens
//! cost?" thousands of times; simulating a cycle-accurate GEMM +
//! collective for every distinct `t` would dwarf the serving study
//! itself. Instead token counts are rounded up to power-of-two
//! buckets and each bucket is priced with [`Configuration::Sequential`]
//! and [`Configuration::T3Mca`] on the FC-2-style sliced shape. Those
//! runs come from the process-wide sublayer cost oracle under
//! [`Configuration::run_in_mode`], so each bucket's engines simulate
//! **once** per process and later prices are lookups. Fabric contention
//! from co-tenants scales only the *exposed* communication: the fused
//! engine absorbs slowdown until the reduce-scatter outgrows the
//! GEMM span it hides inside, which is exactly the T3 mechanism the
//! serving figures quantify.

use t3_core::configs::Configuration;
use t3_gpu::gemm::GemmShape;
use t3_sim::config::SystemConfig;
use t3_sim::{Cycle, SimMode};

/// Which execution mode the serving engine prices iterations with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Sequential GEMM → reduce-scatter → all-gather per sublayer.
    Baseline,
    /// T3-MCA fused GEMM-RS (tracking & triggering + MCA arbitration).
    Fused,
}

impl EngineMode {
    /// Canonical label for reports and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Baseline => "baseline",
            EngineMode::Fused => "t3-fused",
        }
    }
}

/// Simulated per-sublayer costs for one token bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCosts {
    /// Sequential GEMM cycles.
    pub seq_gemm: Cycle,
    /// Sequential exposed reduce-scatter cycles.
    pub seq_rs: Cycle,
    /// All-gather cycles (sequential in both modes).
    pub seq_ag: Cycle,
    /// Fused GEMM+RS span under T3-MCA (the RS is hidden inside).
    pub fused_span: Cycle,
}

/// Scales `cycles` by a permille factor with u128 intermediates.
fn scale_permille(cycles: Cycle, permille: u64) -> Cycle {
    (cycles as u128 * permille as u128 / 1000) as Cycle
}

/// Iteration-cost oracle for one (system, model slice) deployment.
#[derive(Debug, Clone)]
pub struct CostModel {
    sys: SystemConfig,
    hidden: u64,
    layers: u64,
    tp: u64,
    mode: SimMode,
}

/// Largest token bucket the model will simulate; bigger iteration
/// token counts are priced as multiples of this bucket.
pub const MAX_BUCKET_TOKENS: u64 = 2048;

/// Smallest token bucket (decode iterations with few running
/// sequences all share it).
pub const MIN_BUCKET_TOKENS: u64 = 8;

/// Tensor-sliced sublayers per transformer layer whose all-reduce the
/// serving engine prices (OP and FC-2 in the forward pass).
pub const SLICED_SUBLAYERS_PER_LAYER: u64 = 2;

impl CostModel {
    /// Builds an empty cost model for a `hidden`-wide, `layers`-deep
    /// model sliced `tp` ways on `sys`.
    ///
    /// # Panics
    ///
    /// Panics if `tp` or `layers` is zero.
    pub fn new(sys: &SystemConfig, hidden: u64, layers: u64, tp: u64) -> Self {
        Self::new_in_mode(sys, hidden, layers, tp, SimMode::default())
    }

    /// [`CostModel::new`] with an explicit sublayer simulation mode.
    /// Stepped and fast-forward price every bucket identically — the
    /// determinism pipeline asserts it — so this only exists to run
    /// the equivalence tests and to benchmark the two engines.
    ///
    /// # Panics
    ///
    /// As [`CostModel::new`].
    pub fn new_in_mode(
        sys: &SystemConfig,
        hidden: u64,
        layers: u64,
        tp: u64,
        mode: SimMode,
    ) -> Self {
        assert!(tp > 0, "TP degree must be positive");
        assert!(layers > 0, "model must have layers");
        CostModel {
            sys: sys.clone(),
            hidden,
            layers,
            tp,
            mode,
        }
    }

    /// The power-of-two bucket a token count is priced at.
    pub fn bucket(tokens: u64) -> u64 {
        tokens
            .max(1)
            .next_power_of_two()
            .clamp(MIN_BUCKET_TOKENS, MAX_BUCKET_TOKENS)
    }

    /// Per-sublayer costs for `tokens`, priced at its bucket.
    pub fn layer_costs(&self, tokens: u64) -> LayerCosts {
        let bucket = Self::bucket(tokens);
        // The FC-2-style sliced sublayer: full `tokens x hidden`
        // output, K shrunk by the TP degree (Megatron slicing).
        let shape = GemmShape::new(bucket, self.hidden, (4 * self.hidden).div_ceil(self.tp));
        let seq = Configuration::Sequential.run_in_mode(&self.sys, &shape, self.mode);
        let fused = Configuration::T3Mca.run_in_mode(&self.sys, &shape, self.mode);
        LayerCosts {
            seq_gemm: seq.gemm_cycles,
            seq_rs: seq.rs_cycles,
            seq_ag: seq.ag_cycles,
            fused_span: fused.gemm_cycles,
        }
    }

    /// Cycles for one engine iteration over `tokens` under `mode`,
    /// with fabric contention inflating exposed communication by
    /// `contention_permille / 1000` (1000 = no co-tenants).
    ///
    /// Baseline exposes RS and AG fully; the fused engine hides the
    /// (contended) RS inside the GEMM span until it no longer fits.
    /// Token counts above [`MAX_BUCKET_TOKENS`] are priced as whole
    /// multiples of the largest bucket, so huge prefill batches stay
    /// integer-exact.
    ///
    /// # Panics
    ///
    /// Panics if `contention_permille < 1000` (co-tenancy cannot speed
    /// the fabric up).
    pub fn iteration_cycles(
        &self,
        mode: EngineMode,
        tokens: u64,
        contention_permille: u64,
    ) -> Cycle {
        assert!(
            contention_permille >= 1000,
            "contention factor below parity: {contention_permille}"
        );
        let repeats = tokens.max(1).div_ceil(MAX_BUCKET_TOKENS).max(1);
        let per_bucket_tokens = tokens.max(1).div_ceil(repeats);
        let c = self.layer_costs(per_bucket_tokens);
        let sublayer = match mode {
            EngineMode::Baseline => {
                c.seq_gemm + scale_permille(c.seq_rs + c.seq_ag, contention_permille)
            }
            EngineMode::Fused => {
                c.fused_span
                    .max(scale_permille(c.seq_rs, contention_permille))
                    + scale_permille(c.seq_ag, contention_permille)
            }
        };
        sublayer * SLICED_SUBLAYERS_PER_LAYER * self.layers * repeats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        // A narrow slice keeps debug-mode sublayer sims quick while
        // preserving the GEMM-vs-collective balance the paper studies.
        CostModel::new(&SystemConfig::paper_default(), 1024, 4, 8)
    }

    #[test]
    fn buckets_are_powers_of_two_and_clamped() {
        assert_eq!(CostModel::bucket(1), MIN_BUCKET_TOKENS);
        assert_eq!(CostModel::bucket(8), 8);
        assert_eq!(CostModel::bucket(9), 16);
        assert_eq!(CostModel::bucket(1000), 1024);
        assert_eq!(CostModel::bucket(1 << 20), MAX_BUCKET_TOKENS);
    }

    #[test]
    fn repricing_a_bucket_gives_equal_costs() {
        let m = model();
        let first = m.layer_costs(10);
        assert_eq!(m.layer_costs(12), first, "10 and 12 share the 16 bucket");
        assert_eq!(m.layer_costs(16), first);
        assert!(first.seq_gemm > 0 && first.fused_span > 0);
        assert_ne!(m.layer_costs(100), first);
    }

    #[test]
    fn fused_strictly_beats_baseline_at_any_contention() {
        let m = model();
        for contention in [1000u64, 1300, 2000] {
            for tokens in [8u64, 64, 512] {
                let base = m.iteration_cycles(EngineMode::Baseline, tokens, contention);
                let fused = m.iteration_cycles(EngineMode::Fused, tokens, contention);
                assert!(
                    fused < base,
                    "{tokens} tokens @ {contention}: fused {fused} >= baseline {base}"
                );
            }
        }
    }

    #[test]
    fn fused_absorbs_contention_better() {
        // The fused engine hides the contended RS inside the GEMM
        // span, so its absolute slowdown from co-tenancy is at most
        // the baseline's (which exposes the whole RS).
        let m = model();
        let tokens = 256;
        let base_solo = m.iteration_cycles(EngineMode::Baseline, tokens, 1000);
        let base_hot = m.iteration_cycles(EngineMode::Baseline, tokens, 1800);
        let fused_solo = m.iteration_cycles(EngineMode::Fused, tokens, 1000);
        let fused_hot = m.iteration_cycles(EngineMode::Fused, tokens, 1800);
        assert!(base_hot > base_solo);
        assert!(fused_hot >= fused_solo);
        assert!(
            fused_hot - fused_solo <= base_hot - base_solo,
            "fused contention penalty {} vs baseline {}",
            fused_hot - fused_solo,
            base_hot - base_solo
        );
    }

    #[test]
    fn oversized_iterations_price_as_bucket_multiples() {
        let m = model();
        let one = m.iteration_cycles(EngineMode::Baseline, MAX_BUCKET_TOKENS, 1000);
        let two = m.iteration_cycles(EngineMode::Baseline, 2 * MAX_BUCKET_TOKENS, 1000);
        assert_eq!(two, 2 * one);
    }

    #[test]
    #[should_panic(expected = "below parity")]
    fn contention_below_parity_rejected() {
        let _ = model().iteration_cycles(EngineMode::Baseline, 8, 999);
    }

    #[test]
    fn stepped_and_fast_forward_price_buckets_identically() {
        let sys = SystemConfig::paper_default();
        let stepped = CostModel::new_in_mode(&sys, 1024, 4, 8, SimMode::Stepped);
        let fast = CostModel::new_in_mode(&sys, 1024, 4, 8, SimMode::FastForward);
        for tokens in [8u64, 64, 512] {
            assert_eq!(
                stepped.layer_costs(tokens),
                fast.layer_costs(tokens),
                "bucket for {tokens} tokens diverged between engines"
            );
        }
    }
}
