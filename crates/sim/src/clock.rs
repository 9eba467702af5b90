//! The one time-advance driver shared by every engine loop.
//!
//! An engine loop steps its components at [`Clock::now`], then calls
//! [`Clock::advance`]. Advancing moves `now` one cycle forward — or, in
//! [`SimMode::FastForward`] with every memory controller quiescent,
//! leaps straight to the earliest component event and hands back the
//! skipped gap so the caller can replay the controllers' idle
//! bookkeeping with `MemoryController::skip_idle`. A loop over many
//! devices can also skip, cycle by cycle, each one that
//! [`Clock::due`] says has nothing to do; the skipped device replays
//! its own gap when it next steps. [`SimMode::Stepped`] runs the same
//! loop with leaping and skipping off, and the clock alone owns the
//! convergence guard.

use std::ops::Range;

use crate::{Cycle, SimMode};

/// Simulated-time driver: the current cycle, the advancement mode, an
/// optional window end and the convergence guard.
///
/// # Examples
///
/// ```
/// use t3_sim::clock::Clock;
/// use t3_sim::SimMode;
///
/// let mut clock = Clock::new(SimMode::FastForward);
/// // Busy controllers: one cycle, the prediction is never asked for.
/// assert_eq!(clock.advance(false, || unreachable!()), None);
/// assert_eq!(clock.now(), 1);
/// // Quiescent with the next event at 10: leap, replay [2, 10).
/// assert_eq!(clock.advance(true, || Some(10)), Some(2..10));
/// assert_eq!(clock.now(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Clock {
    now: Cycle,
    mode: SimMode,
    end: Option<Cycle>,
}

impl Clock {
    /// No run may reach this cycle; passing it means the loop's
    /// completion condition can never hold (an internal error).
    pub const LIMIT: Cycle = 4_000_000_000;

    /// A clock at cycle 0 with no end.
    pub fn new(mode: SimMode) -> Self {
        Clock {
            now: 0,
            mode,
            end: None,
        }
    }

    /// A clock over the window `[start, end)`: leaps clamp to `end`,
    /// and a quiescent loop with nothing pending leaps straight to it.
    pub fn bounded(mode: SimMode, start: Cycle, end: Cycle) -> Self {
        Clock {
            now: start,
            mode,
            end: Some(end),
        }
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether a bounded clock is still inside its window (always true
    /// for an unbounded one).
    pub fn running(&self) -> bool {
        self.end.is_none_or(|end| self.now < end)
    }

    /// Whether a component whose next event is `next` must step at
    /// `now`: always in [`SimMode::Stepped`], which steps every
    /// component every cycle, and in fast-forward only once `next` has
    /// come (`None`: nothing pending, never due). A component that is
    /// not due is skipped and later replays its idle gap.
    pub fn due(&self, next: Option<Cycle>) -> bool {
        self.mode == SimMode::Stepped || next.is_some_and(|t| t <= self.now)
    }

    /// Moves `now` forward after the loop stepped cycle `now`.
    ///
    /// `next_event` is asked only in fast-forward mode and only when
    /// the caller reports its controllers `quiescent`; it returns the
    /// earliest cycle after `now` at which any component can change
    /// state (`None`: nothing pending). The clock leaps when that
    /// prediction lies beyond `now + 1` and returns the skipped gap
    /// `[now + 1, target)`, which every controller must replay — at
    /// once, or per device when it next steps; otherwise it advances
    /// one cycle and returns `None`.
    ///
    /// # Panics
    ///
    /// Panics when `now` reaches [`Clock::LIMIT`].
    pub fn advance(
        &mut self,
        quiescent: bool,
        next_event: impl FnOnce() -> Option<Cycle>,
    ) -> Option<Range<Cycle>> {
        let step = self.now + 1;
        let mut target = step;
        if quiescent && self.mode == SimMode::FastForward {
            let predicted = match (next_event(), self.end) {
                (Some(t), Some(end)) => t.min(end),
                (Some(t), None) => t,
                (None, Some(end)) => end,
                (None, None) => step,
            };
            target = predicted.max(step);
        }
        self.now = target;
        assert!(self.now < Self::LIMIT, "simulation failed to converge");
        (target > step).then_some(step..target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepped_mode_never_predicts_and_moves_one_cycle() {
        let mut clock = Clock::new(SimMode::Stepped);
        for want in 1..=5 {
            let gap = clock.advance(true, || panic!("stepped clock asked for a prediction"));
            assert_eq!(gap, None);
            assert_eq!(clock.now(), want);
        }
    }

    #[test]
    fn fast_forward_leaps_only_when_quiescent_and_ahead() {
        let mut clock = Clock::new(SimMode::FastForward);
        // Busy: one cycle, no prediction asked.
        assert_eq!(
            clock.advance(false, || panic!("busy clock predicted")),
            None
        );
        assert_eq!(clock.now(), 1);
        // Quiescent, but the event is the very next cycle (or already
        // due, or nothing is pending): one cycle.
        assert_eq!(clock.advance(true, || Some(2)), None);
        assert_eq!(clock.now(), 2);
        assert_eq!(clock.advance(true, || Some(1)), None);
        assert_eq!(clock.now(), 3);
        assert_eq!(clock.advance(true, || None), None);
        assert_eq!(clock.now(), 4);
        // Quiescent and ahead: leap, returning exactly [now+1, target).
        assert_eq!(clock.advance(true, || Some(40)), Some(5..40));
        assert_eq!(clock.now(), 40);
    }

    #[test]
    fn due_is_always_true_when_stepped_and_exact_when_fast_forward() {
        let mut stepped = Clock::new(SimMode::Stepped);
        let mut fast = Clock::new(SimMode::FastForward);
        for _ in 0..5 {
            let _ = stepped.advance(true, || None);
            let _ = fast.advance(false, || None);
        }
        assert_eq!(fast.now(), 5);
        for next in [None, Some(4), Some(5), Some(6), Some(Cycle::MAX)] {
            assert!(stepped.due(next), "stepped, next {next:?}");
        }
        assert!(!fast.due(None));
        assert!(fast.due(Some(4)));
        assert!(fast.due(Some(5)));
        assert!(!fast.due(Some(6)));
    }

    #[test]
    fn bounded_clock_clamps_to_its_end() {
        let mut clock = Clock::bounded(SimMode::FastForward, 10, 20);
        assert!(clock.running());
        assert_eq!(clock.advance(true, || Some(15)), Some(11..15));
        assert_eq!(clock.advance(true, || Some(99)), Some(16..20));
        assert_eq!(clock.now(), 20);
        assert!(!clock.running());

        // Nothing pending: leap straight to the end.
        let mut idle = Clock::bounded(SimMode::FastForward, 10, 20);
        assert_eq!(idle.advance(true, || None), Some(11..20));
        assert!(!idle.running());

        // Stepped: the window is walked cycle by cycle.
        let mut stepped = Clock::bounded(SimMode::Stepped, 10, 12);
        assert_eq!(stepped.advance(true, || None), None);
        assert!(stepped.running());
        assert_eq!(stepped.advance(true, || None), None);
        assert!(!stepped.running());
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn guard_panics_past_the_limit() {
        let mut clock = Clock::new(SimMode::FastForward);
        let _ = clock.advance(true, || Some(Clock::LIMIT));
    }

    #[test]
    fn guard_allows_the_last_cycle_before_the_limit() {
        let mut clock = Clock::new(SimMode::FastForward);
        let _ = clock.advance(true, || Some(Clock::LIMIT - 1));
        assert_eq!(clock.now(), Clock::LIMIT - 1);
    }
}
