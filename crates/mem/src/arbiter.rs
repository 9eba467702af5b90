//! Memory-controller arbitration policies (Section 4.5).
//!
//! Three policies are modelled, matching the paper's discussion:
//!
//! * [`RoundRobinPolicy`] — the naive baseline: alternate between
//!   compute and communication streams, falling back to whichever has
//!   work. The paper shows this lets bursty communication traffic fill
//!   the DRAM queues and stall the producer GEMM.
//! * [`ComputeFirstPolicy`] — static compute priority; insufficient
//!   because previously-issued communication accesses already occupy
//!   the DRAM queues.
//! * [`McaPolicy`] — T3-MCA: compute first, communication admitted
//!   only while DRAM-queue occupancy is below a threshold chosen from
//!   the compute kernel's memory intensity (probed during its first,
//!   isolated stage), plus a starvation guard for the communication
//!   stream.
//!
//! [`ArbitrationPolicy`] is the closed set of the three that a memory
//! controller holds. Each pick also says how many consecutive issue
//! slots it holds for, so the controller asks once per run of
//! transactions rather than once per transaction.

use t3_sim::config::MemConfig;

/// Identifies which request stream a transaction belongs to: the
/// producer compute kernel or communication (collective/DMA) traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// Producer kernel (GEMM) reads and writes.
    Compute,
    /// Communication traffic: collective kernel accesses, incoming
    /// remote/DMA updates, DMA source reads.
    Comm,
}

/// Snapshot of controller state given to a policy for each issue slot.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterState {
    /// Compute stream has at least one transaction waiting.
    pub compute_pending: bool,
    /// Communication stream has at least one transaction waiting.
    pub comm_pending: bool,
    /// Transactions currently sitting in the DRAM queue.
    pub dram_occupancy: usize,
    /// DRAM queue capacity in transactions.
    pub dram_capacity: usize,
}

/// A stream pick and how long it holds: the number of consecutive
/// issue slots the policy makes the same pick while only the DRAM
/// queue's occupancy changes (each slot adds one transaction) and the
/// picked stream keeps work pending. The controller issues up to that
/// many transactions per decision.
pub(crate) type Pick = (StreamId, u64);

/// A pick that holds for as many slots as the controller can fill.
const HOLDS: u64 = u64::MAX;

/// The arbitration policy deciding, per issue slot, which stream may
/// place a transaction into the DRAM queue: one closed set of the three
/// policies the paper discusses.
#[derive(Debug, Clone)]
pub enum ArbitrationPolicy {
    /// See [`RoundRobinPolicy`].
    RoundRobin(RoundRobinPolicy),
    /// See [`ComputeFirstPolicy`].
    ComputeFirst(ComputeFirstPolicy),
    /// See [`McaPolicy`].
    Mca(McaPolicy),
}

impl From<RoundRobinPolicy> for ArbitrationPolicy {
    fn from(p: RoundRobinPolicy) -> Self {
        ArbitrationPolicy::RoundRobin(p)
    }
}

impl From<ComputeFirstPolicy> for ArbitrationPolicy {
    fn from(p: ComputeFirstPolicy) -> Self {
        ArbitrationPolicy::ComputeFirst(p)
    }
}

impl From<McaPolicy> for ArbitrationPolicy {
    fn from(p: McaPolicy) -> Self {
        ArbitrationPolicy::Mca(p)
    }
}

impl ArbitrationPolicy {
    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArbitrationPolicy::RoundRobin(_) => "round-robin",
            ArbitrationPolicy::ComputeFirst(_) => "compute-first",
            ArbitrationPolicy::Mca(_) => "t3-mca",
        }
    }

    /// Called once per controller cycle (before any issue slots), so
    /// policies can advance starvation counters.
    pub fn tick(&mut self) {
        if let ArbitrationPolicy::Mca(p) = self {
            p.tick();
        }
    }

    /// Advances the policy by `cycles` ticks at once, exactly as that
    /// many [`ArbitrationPolicy::tick`] calls — the closed-form replay
    /// the fast-forward engines use when they leap over idle cycles.
    pub fn tick_many(&mut self, cycles: u64) {
        if let ArbitrationPolicy::Mca(p) = self {
            p.tick_many(cycles);
        }
    }

    /// Chooses a stream for the next issue slot (`None` leaves the slot
    /// idle this cycle) and says how long the pick holds (see [`Pick`]).
    pub(crate) fn pick(&self, state: &ArbiterState) -> Option<Pick> {
        match self {
            ArbitrationPolicy::RoundRobin(p) => p.pick(state),
            ArbitrationPolicy::ComputeFirst(p) => p.pick(state),
            ArbitrationPolicy::Mca(p) => p.pick(state),
        }
    }

    /// Whether, with `stream` the only one pending, every pick is that
    /// stream holding without limit ([`HOLDS`]), whatever the DRAM
    /// occupancy and however many cycles pass: true for round-robin and
    /// compute-first, and for T3-MCA on the compute stream (its comm
    /// picks hold only up to the threshold and its starvation guard
    /// watches the wait). The memory controller replays a lone stream's
    /// drain in one tight loop only under such a pick.
    pub(crate) fn holds_alone(&self, stream: StreamId) -> bool {
        match self {
            ArbitrationPolicy::RoundRobin(_) | ArbitrationPolicy::ComputeFirst(_) => true,
            ArbitrationPolicy::Mca(_) => stream == StreamId::Compute,
        }
    }

    /// Notifies the policy that transactions from `stream` were issued
    /// (one call covers any number of consecutive issues of one pick).
    pub fn on_issue(&mut self, stream: StreamId) {
        match self {
            ArbitrationPolicy::RoundRobin(p) => p.on_issue(stream),
            ArbitrationPolicy::ComputeFirst(_) => {}
            ArbitrationPolicy::Mca(p) => p.on_issue(stream),
        }
    }

    /// Feeds the policy the compute kernel's memory intensity, measured
    /// as the average DRAM-queue occupancy fraction during the kernel's
    /// first (isolated) stage — Section 4.5. Only T3-MCA reacts.
    pub fn observe_compute_intensity(&mut self, avg_occupancy_fraction: f64) {
        if let ArbitrationPolicy::Mca(p) = self {
            p.observe_compute_intensity(avg_occupancy_fraction);
        }
    }
}

/// Naive policy: round-robin between streams, falling back to the
/// other stream when the preferred one is empty.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    last: Option<StreamId>,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The preferred stream when it has work, else the other one. With
    /// both streams pending the pick alternates, so it holds one slot;
    /// with one pending it holds until that stream runs dry.
    pub(crate) fn pick(&self, state: &ArbiterState) -> Option<Pick> {
        match (state.compute_pending, state.comm_pending) {
            (true, true) => match self.last {
                Some(StreamId::Compute) => Some((StreamId::Comm, 1)),
                _ => Some((StreamId::Compute, 1)),
            },
            (true, false) => Some((StreamId::Compute, HOLDS)),
            (false, true) => Some((StreamId::Comm, HOLDS)),
            (false, false) => None,
        }
    }

    /// Notes the stream just issued: the next pick prefers the other.
    pub fn on_issue(&mut self, stream: StreamId) {
        self.last = Some(stream);
    }
}

/// Static priority: compute always first, communication only when the
/// compute stream is empty. No occupancy gating.
#[derive(Debug, Clone, Default)]
pub struct ComputeFirstPolicy;

impl ComputeFirstPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }

    /// Compute when it has work, else communication; a pick holds until
    /// its stream runs dry.
    pub(crate) fn pick(&self, state: &ArbiterState) -> Option<Pick> {
        if state.compute_pending {
            Some((StreamId::Compute, HOLDS))
        } else if state.comm_pending {
            Some((StreamId::Comm, HOLDS))
        } else {
            None
        }
    }
}

/// The occupancy thresholds T3-MCA selects between (Section 6.1.3:
/// "5, 10, 30, or no limit", chosen by the kernel's memory intensity).
pub const MCA_THRESHOLDS: [usize; 4] = [5, 10, 30, usize::MAX];

/// T3's communication-aware memory-controller arbitration policy.
#[derive(Debug, Clone)]
pub struct McaPolicy {
    /// Communication admitted only while DRAM occupancy < threshold.
    threshold: usize,
    /// Cycles the comm stream may wait (with work pending) before it is
    /// prioritised once, preventing starvation.
    starvation_limit: u64,
    comm_wait_cycles: u64,
}

impl McaPolicy {
    /// Default starvation limit in cycles.
    pub const DEFAULT_STARVATION_LIMIT: u64 = 2_000;

    /// Creates the policy with the most permissive threshold; callers
    /// (or the fused engine's first-stage probe) tighten it via
    /// [`McaPolicy::observe_compute_intensity`].
    pub fn new(_cfg: &MemConfig) -> Self {
        McaPolicy {
            threshold: MCA_THRESHOLDS[2],
            starvation_limit: Self::DEFAULT_STARVATION_LIMIT,
            comm_wait_cycles: 0,
        }
    }

    /// Creates the policy with a fixed occupancy threshold (used by the
    /// MCA-threshold ablation bench).
    pub fn with_fixed_threshold(threshold: usize) -> Self {
        McaPolicy {
            threshold,
            starvation_limit: Self::DEFAULT_STARVATION_LIMIT,
            comm_wait_cycles: 0,
        }
    }

    /// Overrides the starvation limit.
    pub fn with_starvation_limit(mut self, limit: u64) -> Self {
        self.starvation_limit = limit;
        self
    }

    /// Currently active occupancy threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Counts one cycle of communication waiting; the counter
    /// saturates, and a comm issue resets it.
    pub fn tick(&mut self) {
        self.comm_wait_cycles = self.comm_wait_cycles.saturating_add(1);
    }

    /// `cycles` ticks at once: N saturating increments collapse to one
    /// saturating add.
    pub fn tick_many(&mut self, cycles: u64) {
        self.comm_wait_cycles = self.comm_wait_cycles.saturating_add(cycles);
    }

    /// A starved comm stream first (one slot: the issue resets the
    /// wait), then compute (holds until it runs dry), then comm while
    /// occupancy stays below the threshold (holds for the room left
    /// under it).
    pub(crate) fn pick(&self, state: &ArbiterState) -> Option<Pick> {
        let starved = state.comm_pending && self.comm_wait_cycles > self.starvation_limit;
        if starved {
            return Some((StreamId::Comm, 1));
        }
        if state.compute_pending {
            return Some((StreamId::Compute, HOLDS));
        }
        if state.comm_pending && state.dram_occupancy < self.threshold {
            let room = (self.threshold - state.dram_occupancy) as u64;
            return Some((StreamId::Comm, room));
        }
        None
    }

    /// Notes an issue: a comm issue ends the stream's wait.
    pub fn on_issue(&mut self, stream: StreamId) {
        if stream == StreamId::Comm {
            self.comm_wait_cycles = 0;
        }
    }

    /// Picks the occupancy threshold from the compute kernel's measured
    /// memory intensity (Section 4.5).
    pub fn observe_compute_intensity(&mut self, avg_occupancy_fraction: f64) {
        // Memory-intensive kernels keep the DRAM queue fuller during
        // their isolated first stage; give communication less headroom
        // for them (Section 4.5).
        self.threshold = if avg_occupancy_fraction > 0.50 {
            MCA_THRESHOLDS[0]
        } else if avg_occupancy_fraction > 0.25 {
            MCA_THRESHOLDS[1]
        } else if avg_occupancy_fraction > 0.05 {
            MCA_THRESHOLDS[2]
        } else {
            MCA_THRESHOLDS[3]
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::config::SystemConfig;

    fn choose(pick: Option<Pick>) -> Option<StreamId> {
        pick.map(|(stream, _)| stream)
    }

    fn state(compute: bool, comm: bool, occ: usize) -> ArbiterState {
        ArbiterState {
            compute_pending: compute,
            comm_pending: comm,
            dram_occupancy: occ,
            dram_capacity: 64,
        }
    }

    #[test]
    fn round_robin_alternates() {
        let mut p = RoundRobinPolicy::new();
        let s = state(true, true, 0);
        let first = choose(p.pick(&s)).unwrap();
        p.on_issue(first);
        let second = choose(p.pick(&s)).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn round_robin_falls_back_when_one_empty() {
        let mut p = RoundRobinPolicy::new();
        p.on_issue(StreamId::Compute); // next preference is Comm
        assert_eq!(
            choose(p.pick(&state(true, false, 0))),
            Some(StreamId::Compute)
        );
        assert_eq!(choose(p.pick(&state(false, false, 0))), None);
    }

    #[test]
    fn compute_first_prefers_compute() {
        let p = ComputeFirstPolicy::new();
        assert_eq!(
            choose(p.pick(&state(true, true, 63))),
            Some(StreamId::Compute)
        );
        assert_eq!(
            choose(p.pick(&state(false, true, 63))),
            Some(StreamId::Comm)
        );
        assert_eq!(choose(p.pick(&state(false, false, 0))), None);
    }

    #[test]
    fn mca_gates_comm_on_occupancy() {
        let cfg = SystemConfig::paper_default().mem;
        let mut p = McaPolicy::new(&cfg);
        p.observe_compute_intensity(0.6); // memory intensive -> threshold 5
        assert_eq!(p.threshold(), 5);
        assert_eq!(choose(p.pick(&state(false, true, 4))), Some(StreamId::Comm));
        assert_eq!(choose(p.pick(&state(false, true, 5))), None);
    }

    #[test]
    fn mca_prefers_compute_even_at_low_occupancy() {
        let cfg = SystemConfig::paper_default().mem;
        let p = McaPolicy::new(&cfg);
        assert_eq!(
            choose(p.pick(&state(true, true, 0))),
            Some(StreamId::Compute)
        );
    }

    #[test]
    fn mca_starvation_guard_fires() {
        let cfg = SystemConfig::paper_default().mem;
        let mut p = McaPolicy::new(&cfg).with_starvation_limit(3);
        let s = state(true, true, 60);
        for _ in 0..4 {
            p.tick();
        }
        assert_eq!(choose(p.pick(&s)), Some(StreamId::Comm));
        p.on_issue(StreamId::Comm);
        // Counter reset: compute wins again.
        assert_eq!(choose(p.pick(&s)), Some(StreamId::Compute));
    }

    #[test]
    fn mca_threshold_selection_covers_all_bands() {
        let cfg = SystemConfig::paper_default().mem;
        let mut p = McaPolicy::new(&cfg);
        p.observe_compute_intensity(0.8);
        assert_eq!(p.threshold(), 5);
        p.observe_compute_intensity(0.3);
        assert_eq!(p.threshold(), 10);
        p.observe_compute_intensity(0.1);
        assert_eq!(p.threshold(), 30);
        p.observe_compute_intensity(0.0);
        assert_eq!(p.threshold(), usize::MAX);
    }

    #[test]
    fn tick_many_matches_looped_ticks() {
        let cfg = SystemConfig::paper_default().mem;
        for n in [0u64, 1, 7, 5_000] {
            let mut looped = McaPolicy::new(&cfg).with_starvation_limit(3);
            let mut jumped = McaPolicy::new(&cfg).with_starvation_limit(3);
            for _ in 0..n {
                looped.tick();
            }
            jumped.tick_many(n);
            assert_eq!(looped.comm_wait_cycles, jumped.comm_wait_cycles, "n={n}");
        }
        // Stateless policies ignore ticks.
        let mut rr = ArbitrationPolicy::from(RoundRobinPolicy::new());
        rr.tick_many(1000);
        assert_eq!(
            choose(rr.pick(&state(true, false, 0))),
            Some(StreamId::Compute)
        );
    }

    #[test]
    fn picks_hold_until_something_but_occupancy_changes() {
        let rr = RoundRobinPolicy::new();
        assert_eq!(rr.pick(&state(true, true, 0)), Some((StreamId::Compute, 1)));
        assert_eq!(
            rr.pick(&state(false, true, 0)),
            Some((StreamId::Comm, HOLDS))
        );
        let cf = ComputeFirstPolicy::new();
        assert_eq!(
            cf.pick(&state(true, true, 9)),
            Some((StreamId::Compute, HOLDS))
        );
        let mut mca = McaPolicy::with_fixed_threshold(10).with_starvation_limit(3);
        assert_eq!(mca.pick(&state(false, true, 4)), Some((StreamId::Comm, 6)));
        assert_eq!(
            mca.pick(&state(true, true, 4)),
            Some((StreamId::Compute, HOLDS))
        );
        mca.tick_many(4);
        assert_eq!(mca.pick(&state(true, true, 40)), Some((StreamId::Comm, 1)));
    }

    #[test]
    fn fixed_threshold_constructor() {
        let p = McaPolicy::with_fixed_threshold(10);
        assert_eq!(p.threshold(), 10);
        assert_eq!(ArbitrationPolicy::from(p).name(), "t3-mca");
    }
}
