//! The one time-advance driver shared by every engine loop.
//!
//! An engine loop steps its components at [`Clock::now`], then calls
//! [`Clock::advance`]. Advancing moves `now` one cycle forward — or, in
//! [`SimMode::FastForward`] with every memory controller quiescent,
//! leaps straight to the earliest component event and hands back the
//! skipped gap so the caller can replay the controllers' idle
//! bookkeeping with `MemoryController::skip_idle`. A single-device loop
//! whose controller is busy can leap too: [`Clock::busy_horizon`] names
//! the earliest component event, the controller steps itself towards
//! it with `MemoryController::advance_busy` (stopping early at a cycle
//! a component watches for), and [`Clock::land`] moves `now` onto the
//! last cycle it stepped; `MemoryController::advance_clock` wraps both
//! kinds of leap for those loops. A loop over many devices can also skip,
//! cycle by cycle, each one that [`Clock::due`] says has nothing to
//! do; the skipped device replays its own gap when it next steps. A
//! loop that walks time in bounded windows opens each next window with
//! [`Clock::open_window`], which leaps a quiescent window end to the
//! next event. [`SimMode::Stepped`] runs the same loop with leaping and
//! skipping off, and the clock alone owns the convergence guard.

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

    /// The horizon of a busy leap from `now` (already stepped): in
    /// fast-forward mode, the earliest component event `next_event`
    /// predicts (clamped to the window end; [`Clock::LIMIT`] when
    /// nothing is timed), provided it lies beyond `now + 1`. `None` in
    /// [`SimMode::Stepped`] or when the event is the very next cycle:
    /// the loop then advances one cycle. The caller leaps only a busy
    /// controller, through cycles `[now + 1, horizon)` at most, and
    /// lands on where it stopped with [`Clock::land`].
    pub fn busy_horizon(&self, next_event: impl FnOnce() -> Option<Cycle>) -> Option<Cycle> {
        if self.mode != SimMode::FastForward {
            return None;
        }
        let horizon = match (next_event(), self.end) {
            (Some(t), Some(end)) => t.min(end),
            (Some(t), None) => t,
            (None, Some(end)) => end,
            (None, None) => Self::LIMIT,
        };
        (horizon > self.now + 1).then_some(horizon)
    }

    /// Opens the next window of `len` cycles once a bounded clock has
    /// run to its end. It starts at `now`, or, in fast-forward mode with
    /// every controller `quiescent`, at the earliest event `next_event`
    /// predicts when that lies later (`None`: nothing pending, start at
    /// `now`); the caller replays the skipped gap. Stepped mode never
    /// asks for the prediction.
    ///
    /// # Panics
    ///
    /// Panics when the window would start at [`Clock::LIMIT`] or later.
    pub fn open_window(
        &mut self,
        len: Cycle,
        quiescent: bool,
        next_event: impl FnOnce() -> Option<Cycle>,
    ) {
        debug_assert!(!self.running(), "a window opens once the last one ends");
        if quiescent && self.mode == SimMode::FastForward {
            self.now = next_event().map_or(self.now, |t| t.max(self.now));
        }
        self.end = Some(self.now + len);
        assert!(self.now < Self::LIMIT, "simulation failed to converge");
    }

    /// Lands `now` on `at`, the last cycle a busy leap stepped the
    /// controller through: the loop steps its other components at `at`
    /// and must not step the controller there a second time.
    ///
    /// # Panics
    ///
    /// Panics when `at` reaches [`Clock::LIMIT`].
    pub fn land(&mut self, at: Cycle) {
        debug_assert!(at > self.now, "a busy leap moves forward");
        self.now = at;
        assert!(self.now < Self::LIMIT, "simulation failed to converge");
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
    fn open_window_leaps_only_when_fast_forward_and_quiescent() {
        let mut fast = Clock::bounded(SimMode::FastForward, 0, 4);
        let _ = fast.advance(true, || None);
        assert_eq!(fast.now(), 4);
        // Busy controllers: the next window starts at the end.
        fast.open_window(4, false, || panic!("busy clock predicted"));
        assert_eq!(fast.now(), 4);
        assert!(fast.running());
        let _ = fast.advance(true, || None);
        assert_eq!(fast.now(), 8);
        // Quiescent: leap to a later event, never back to an earlier one.
        fast.open_window(4, true, || Some(30));
        assert_eq!(fast.now(), 30);
        let _ = fast.advance(true, || None);
        assert_eq!(fast.now(), 34);
        fast.open_window(4, true, || Some(20));
        assert_eq!(fast.now(), 34);
        let _ = fast.advance(true, || None);
        fast.open_window(4, true, || None);
        assert_eq!(fast.now(), 38);

        // Stepped: windows follow back to back.
        let mut stepped = Clock::bounded(SimMode::Stepped, 0, 1);
        let _ = stepped.advance(true, || None);
        stepped.open_window(1, true, || panic!("stepped clock predicted"));
        assert_eq!(stepped.now(), 1);
        assert!(stepped.running());
    }

    #[test]
    fn busy_horizon_is_the_next_event_beyond_the_next_cycle() {
        let stepped = Clock::new(SimMode::Stepped);
        assert_eq!(
            stepped.busy_horizon(|| panic!("stepped clock predicted")),
            None
        );
        let mut fast = Clock::new(SimMode::FastForward);
        let _ = fast.advance(false, || None);
        assert_eq!(fast.now(), 1);
        assert_eq!(fast.busy_horizon(|| Some(2)), None);
        assert_eq!(fast.busy_horizon(|| Some(1)), None);
        assert_eq!(fast.busy_horizon(|| Some(9)), Some(9));
        assert_eq!(fast.busy_horizon(|| None), Some(Clock::LIMIT));
        fast.land(7);
        assert_eq!(fast.now(), 7);
        let bounded = Clock::bounded(SimMode::FastForward, 10, 20);
        assert_eq!(bounded.busy_horizon(|| Some(99)), Some(20));
        assert_eq!(bounded.busy_horizon(|| None), Some(20));
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
