//! Near-memory compute (Section 4.3).
//!
//! T3 assumes an HBM with near-bank ALUs that can perform *op-and-store*
//! updates: a write that atomically reduces into the destination
//! location instead of overwriting it. This removes the read-modify-write
//! round trip that baseline reduce-scatter performs on GPU CUs.
//!
//! Two pieces live here:
//!
//! * [`NmcBuffer`] — the functional model: an `f32` memory region that
//!   accepts plain stores and op-and-store updates, and counts both.
//!   The memory-controller queue serialises updates, which makes them
//!   atomic (Section 4.3); the functional collectives and the fused
//!   T3 engine both write through this type.
//! * [`ReductionSubstrate`] — the timing-cost knob: which in-memory
//!   mechanism executes op-and-store updates (near-memory ALUs, or
//!   plain system-wide atomics per Section 7.4). Baseline collectives
//!   reduce on CUs and never ask for an update cost.

use t3_sim::config::MemConfig;

/// Which in-memory mechanism executes op-and-store updates, and at
/// what DRAM cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionSubstrate {
    /// Near-bank ALUs: op-and-store updates at `nmc_cost_multiplier`
    /// service cost (the paper's CCDWL model).
    #[default]
    NearMemory,
    /// System-wide atomics on uncached data (Section 7.4): correct but
    /// costlier per update, no extra reads.
    SystemAtomics,
}

impl ReductionSubstrate {
    /// DRAM service-cost multiplier for one op-and-store update under
    /// this substrate.
    pub fn update_cost_multiplier(self, cfg: &MemConfig) -> f64 {
        match self {
            ReductionSubstrate::NearMemory => cfg.nmc_cost_multiplier,
            ReductionSubstrate::SystemAtomics => cfg.atomics_cost_multiplier,
        }
    }
}

/// A functional near-memory-compute buffer: `f32` storage with plain
/// stores and reducing (`+=`) op-and-store updates.
///
/// # Examples
///
/// ```
/// use t3_mem::nmc::NmcBuffer;
///
/// let mut buf = NmcBuffer::new(4);
/// buf.store(0, 1.5);
/// buf.update(0, 2.0); // op-and-store: reduces in memory
/// assert_eq!(buf.load(0), 3.5);
/// assert_eq!(buf.update_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NmcBuffer {
    data: Vec<f32>,
    stores: u64,
    updates: u64,
}

impl NmcBuffer {
    /// Allocates a zeroed buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        NmcBuffer {
            data: vec![0.0; len],
            stores: 0,
            updates: 0,
        }
    }

    /// Builds a buffer from existing contents.
    pub fn from_vec(data: Vec<f32>) -> Self {
        NmcBuffer {
            data,
            stores: 0,
            updates: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Plain store: overwrites the element.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn store(&mut self, idx: usize, value: f32) {
        self.data[idx] = value;
        self.stores += 1;
    }

    /// Op-and-store update: atomically adds `value` into the element
    /// (atomicity is guaranteed by memory-controller serialisation in
    /// the real design; this model is single-threaded).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn update(&mut self, idx: usize, value: f32) {
        self.data[idx] += value;
        self.updates += 1;
    }

    /// Reads the element.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn load(&self, idx: usize) -> f32 {
        self.data[idx]
    }

    /// Read-only view of the whole buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Bulk store of a slice at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn store_slice(&mut self, offset: usize, values: &[f32]) {
        self.data[offset..offset + values.len()].copy_from_slice(values);
        self.stores += values.len() as u64;
    }

    /// Bulk op-and-store update of a slice at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn update_slice(&mut self, offset: usize, values: &[f32]) {
        for (dst, src) in self.data[offset..offset + values.len()]
            .iter_mut()
            .zip(values)
        {
            *dst += src;
        }
        self.updates += values.len() as u64;
    }

    /// Total plain stores performed.
    pub fn store_count(&self) -> u64 {
        self.stores
    }

    /// Total op-and-store updates performed.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Zeroes contents and counters.
    pub fn reset(&mut self) {
        self.data.fill(0.0);
        self.stores = 0;
        self.updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::config::SystemConfig;

    #[test]
    fn store_then_update_reduces() {
        let mut b = NmcBuffer::new(2);
        b.store(1, 10.0);
        b.update(1, -4.0);
        b.update(1, 1.0);
        assert_eq!(b.load(1), 7.0);
        assert_eq!(b.store_count(), 1);
        assert_eq!(b.update_count(), 2);
    }

    #[test]
    fn slice_operations() {
        let mut b = NmcBuffer::new(6);
        b.store_slice(2, &[1.0, 2.0, 3.0]);
        b.update_slice(2, &[0.5, 0.5, 0.5]);
        assert_eq!(&b.as_slice()[2..5], &[1.5, 2.5, 3.5]);
        assert_eq!(b.store_count(), 3);
        assert_eq!(b.update_count(), 3);
    }

    #[test]
    fn from_vec_and_reset() {
        let mut b = NmcBuffer::from_vec(vec![1.0, 2.0]);
        assert_eq!(b.load(0), 1.0);
        b.reset();
        assert_eq!(b.as_slice(), &[0.0, 0.0]);
        assert_eq!(b.store_count(), 0);
    }

    #[test]
    fn substrate_cost_multipliers() {
        let cfg = SystemConfig::paper_default().mem;
        assert_eq!(
            ReductionSubstrate::NearMemory.update_cost_multiplier(&cfg),
            cfg.nmc_cost_multiplier
        );
        assert_eq!(
            ReductionSubstrate::SystemAtomics.update_cost_multiplier(&cfg),
            cfg.atomics_cost_multiplier
        );
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_store_panics() {
        let mut b = NmcBuffer::new(1);
        b.store(1, 0.0);
    }

    #[test]
    fn empty_buffer() {
        let b = NmcBuffer::new(0);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
