//! Simulation foundation for the T3 reproduction.
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`config`] — the simulated system configuration (Table 1 of the
//!   paper), with unit conversions between wall-clock quantities
//!   (GB/s, ns) and the simulator's cycle domain.
//! * [`stats`] — DRAM traffic accounting by category, which drives the
//!   paper's data-movement results (Figure 18).
//! * [`timeseries`] — bucketed traffic-over-time recording, which
//!   drives the paper's DRAM-traffic timelines (Figure 17).
//! * [`rng`] — a deterministic SplitMix64 generator for randomized
//!   tests and workloads (the workspace builds offline, with no
//!   external crates).
//! * [`clock`] — the one time-advance driver every engine loop runs
//!   on: stepping, fast-forward leaps and the convergence guard.
//!
//! The timing simulator is *cycle-stepped*: components expose
//! `step(now)`-style methods and exchange work in units of 256-byte
//! memory transactions. All cycle arithmetic uses [`Cycle`] (a plain
//! `u64` alias) so that times stay exact and deterministic.
//!
//! # Examples
//!
//! ```
//! use t3_sim::config::SystemConfig;
//!
//! let cfg = SystemConfig::paper_default();
//! assert_eq!(cfg.gpu.num_cus, 80);
//! // 1 TB/s HBM at a 1.4 GHz controller clock is ~714 bytes/cycle.
//! assert!((cfg.mem.bytes_per_cycle() - 714.28).abs() < 1.0);
//! ```

pub mod clock;
pub mod config;
pub mod rng;
pub mod stats;
pub mod timeseries;

/// Simulator time, in GPU core cycles (1.4 GHz by default).
pub type Cycle = u64;

/// A size or traffic volume, in bytes.
pub type Bytes = u64;

/// How an orchestrating engine loop advances simulated time.
///
/// Both modes produce byte-identical results — cycle counts, traces,
/// metrics, timeseries. [`SimMode::FastForward`] merely leaps `now`
/// over provably-idle gaps: whenever no component has work before the
/// minimum `next_event` cycle, the loop replays the skipped cycles'
/// bookkeeping in closed form and jumps. [`SimMode::Stepped`] is the
/// original cycle-by-cycle reference path: the same driver with leaping
/// off ([`clock::Clock`]), the equivalence oracle for the determinism
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Advance one cycle at a time (the reference engine).
    Stepped,
    /// Leap over idle gaps to the next interesting cycle.
    #[default]
    FastForward,
}

impl SimMode {
    /// Canonical label for reports and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Stepped => "stepped",
            SimMode::FastForward => "fast-forward",
        }
    }
}

/// Converts a bandwidth in GB/s (decimal: 1e9 bytes/s) into bytes per
/// core cycle at the given clock.
///
/// # Examples
///
/// ```
/// let bpc = t3_sim::gb_s_to_bytes_per_cycle(150.0, 1.4);
/// assert!((bpc - 107.14).abs() < 0.01);
/// ```
pub fn gb_s_to_bytes_per_cycle(gb_s: f64, clock_ghz: f64) -> f64 {
    gb_s / clock_ghz
}

/// Converts a latency in nanoseconds into (rounded-up) core cycles at
/// the given clock.
///
/// # Examples
///
/// ```
/// assert_eq!(t3_sim::ns_to_cycles(500.0, 1.4), 700);
/// ```
pub fn ns_to_cycles(ns: f64, clock_ghz: f64) -> Cycle {
    (ns * clock_ghz).ceil() as Cycle // t3-lint: allow(float-cycles) -- config-time unit conversion, evaluated once; explicit ceil
}

/// Converts cycles back to microseconds at the given clock, for
/// human-readable reporting.
///
/// # Examples
///
/// ```
/// let us = t3_sim::cycles_to_us(1_400_000, 1.4);
/// assert!((us - 1000.0).abs() < 1e-9);
/// ```
pub fn cycles_to_us(cycles: Cycle, clock_ghz: f64) -> f64 {
    cycles as f64 / (clock_ghz * 1e3)
}

/// Geometric mean of a non-empty slice of positive values.
///
/// The paper reports most aggregate results as geomeans; keeping the
/// helper here lets every experiment use the identical definition.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
///
/// # Examples
///
/// ```
/// let g = t3_sim::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversion_round_trip() {
        let bpc = gb_s_to_bytes_per_cycle(1000.0, 1.4);
        assert!((bpc * 1.4 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn latency_conversion_rounds_up() {
        assert_eq!(ns_to_cycles(1.0, 1.4), 2);
        assert_eq!(ns_to_cycles(0.0, 1.4), 0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "geomean of empty slice")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_nonpositive_panics() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn cycles_to_us_at_one_ghz() {
        assert!((cycles_to_us(1000, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sim_mode_defaults_to_fast_forward() {
        assert_eq!(SimMode::default(), SimMode::FastForward);
        assert_eq!(SimMode::Stepped.label(), "stepped");
        assert_eq!(SimMode::FastForward.label(), "fast-forward");
    }
}
