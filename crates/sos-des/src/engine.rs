//! The event scheduler and a thin simulation driver.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// A deterministic future-event queue.
///
/// Events fire in `(time, insertion order)` order: two events scheduled
/// for the same tick fire in the order they were scheduled, regardless
/// of queue internals — the property that makes protocol simulations
/// reproducible. Pending events are grouped by firing time, each group
/// a FIFO queue, so insertion order needs no sequence number and an
/// event costs one ordered-map probe among the distinct pending times.
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    buckets: BTreeMap<SimTime, VecDeque<E>>,
    /// Drained bucket queues, kept so that steady-state scheduling
    /// does not allocate.
    spare: Vec<VecDeque<E>>,
    pending: usize,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            pending: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time (the timestamp of the last popped
    /// event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — schedules must be causal.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let spare = &mut self.spare;
        self.buckets
            .entry(at)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(event);
        self.pending += 1;
    }

    /// Schedules `event` `delay` ticks from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut bucket = self.buckets.first_entry()?;
        let at = *bucket.key();
        let event = bucket
            .get_mut()
            .pop_front()
            .expect("buckets are never empty");
        if bucket.get().is_empty() {
            self.spare.push(bucket.remove());
        }
        self.now = at;
        self.processed += 1;
        self.pending -= 1;
        Some((at, event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.next_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// The firing time of the next pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.buckets.first_key_value().map(|(&at, _)| at)
    }

    /// Every pending event with its firing time, in firing order.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> + '_ {
        self.buckets
            .iter()
            .flat_map(|(&at, bucket)| bucket.iter().map(move |event| (at, event)))
    }

    /// Moves the clock and every pending event `by` ticks later without
    /// firing anything, and counts `skipped` events as processed.
    ///
    /// Each bucket keeps its queue, so the `(time, insertion order)`
    /// firing order of what is pending does not change. This is for a
    /// world that has proved its next `skipped` events change nothing
    /// but themselves and the counters it advances on its own.
    pub fn fast_forward(&mut self, by: u64, skipped: u64) {
        self.now += by;
        self.buckets = std::mem::take(&mut self.buckets)
            .into_iter()
            .map(|(at, bucket)| (at + by, bucket))
            .collect();
        self.processed += skipped;
    }
}

/// Outcome of driving a [`Simulation`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was processed.
    Progressed,
    /// The queue is empty; the simulation is quiescent.
    Quiescent,
    /// The next event lies beyond the supplied deadline.
    DeadlineReached,
}

/// A world that reacts to events — implement this and drive it with
/// [`run_until`].
///
/// The handler receives the scheduler so it can schedule follow-up
/// events (message replies, periodic timers).
pub trait Simulation {
    /// The event type flowing through the queue.
    type Event;

    /// Handles one event at simulated time `at`.
    fn handle(&mut self, at: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Drives `world` until `deadline` (inclusive) or quiescence; returns
/// how the run ended and the number of events processed.
pub fn run_until<W: Simulation>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    deadline: SimTime,
) -> (StepOutcome, u64) {
    let start = sched.processed();
    loop {
        match sched.pop_until(deadline) {
            Some((at, event)) => world.handle(at, event, sched),
            None => {
                let outcome = if sched.is_empty() {
                    StepOutcome::Quiescent
                } else {
                    StepOutcome::DeadlineReached
                };
                return (outcome, sched.processed() - start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_same_tick() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_ticks(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering_dominates() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ticks(30), "late");
        s.schedule(SimTime::from_ticks(10), "early");
        s.schedule(SimTime::from_ticks(20), "mid");
        assert_eq!(s.pop().unwrap().1, "early");
        assert_eq!(s.pop().unwrap().1, "mid");
        assert_eq!(s.pop().unwrap().1, "late");
        assert_eq!(s.now(), SimTime::from_ticks(30));
        assert_eq!(s.processed(), 3);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ticks(10), "a");
        s.pop();
        s.schedule_in(5, "b");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_ticks(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ticks(10), "a");
        s.pop();
        s.schedule(SimTime::from_ticks(5), "b");
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ticks(10), "a");
        s.schedule(SimTime::from_ticks(20), "b");
        assert!(s.pop_until(SimTime::from_ticks(15)).is_some());
        assert!(s.pop_until(SimTime::from_ticks(15)).is_none());
        assert_eq!(s.pending(), 1);
    }

    /// Interleaved schedules and pops, some at the current tick, fire
    /// exactly in `(time, insertion order)` order — checked against a
    /// plain sort of everything scheduled.
    #[test]
    fn interleaved_schedules_fire_in_time_then_insertion_order() {
        let mut s = Scheduler::new();
        let mut scheduled: Vec<(u64, usize)> = Vec::new();
        let mut fired: Vec<(u64, usize)> = Vec::new();
        let mut x = 7u64;
        for i in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let at = s.now().ticks() + (x >> 60);
            s.schedule(SimTime::from_ticks(at), i);
            scheduled.push((at, i));
            if x >> 62 == 0 {
                while let Some((t, e)) = s.pop_until(s.now()) {
                    fired.push((t.ticks(), e));
                }
            } else if let Some((t, e)) = s.pop() {
                fired.push((t.ticks(), e));
            }
        }
        assert_eq!(s.pending(), scheduled.len() - fired.len());
        while let Some((t, e)) = s.pop() {
            fired.push((t.ticks(), e));
        }
        scheduled.sort();
        assert_eq!(fired, scheduled);
        assert!(s.is_empty());
    }

    #[test]
    fn fast_forward_shifts_every_bucket_and_keeps_fifo_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ticks(3), "a");
        s.pop();
        for (at, e) in [(5, "b"), (9, "c"), (5, "d"), (4, "e"), (9, "f")] {
            s.schedule(SimTime::from_ticks(at), e);
        }
        assert_eq!(s.next_time(), Some(SimTime::from_ticks(4)));
        s.fast_forward(30, 12);
        assert_eq!(s.now(), SimTime::from_ticks(33));
        assert_eq!(s.processed(), 13);
        assert_eq!(s.pending(), 5);
        let shifted: Vec<(u64, &str)> = s.iter_pending().map(|(t, &e)| (t.ticks(), e)).collect();
        assert_eq!(
            shifted,
            vec![(34, "e"), (35, "b"), (35, "d"), (39, "c"), (39, "f")]
        );
        // Scheduling at a shifted time queues behind what is there.
        s.schedule(SimTime::from_ticks(35), "g");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["e", "b", "d", "g", "c", "f"]);
        assert_eq!((s.now(), s.processed()), (SimTime::from_ticks(39), 19));
    }

    #[test]
    fn fast_forward_on_an_empty_queue_moves_only_the_clock() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.fast_forward(7, 0);
        assert_eq!(
            (s.now(), s.processed(), s.pending()),
            (SimTime::from_ticks(7), 0, 0)
        );
        assert_eq!(s.next_time(), None);
        assert_eq!(s.iter_pending().count(), 0);
    }

    struct Counter {
        fired: Vec<u64>,
        limit: u64,
    }

    impl Simulation for Counter {
        type Event = u64;

        fn handle(&mut self, at: SimTime, event: u64, sched: &mut Scheduler<u64>) {
            self.fired.push(event);
            // Periodic timer: reschedule until the limit.
            if event < self.limit {
                sched.schedule(at + 10, event + 1);
            }
        }
    }

    #[test]
    fn run_until_drives_periodic_timer() {
        let mut world = Counter {
            fired: Vec::new(),
            limit: 5,
        };
        let mut sched = Scheduler::new();
        sched.schedule(SimTime::ZERO, 0);
        let (outcome, n) = run_until(&mut world, &mut sched, SimTime::from_ticks(25));
        assert_eq!(outcome, StepOutcome::DeadlineReached);
        assert_eq!(n, 3, "events at t=0, 10, 20");
        assert_eq!(world.fired, vec![0, 1, 2]);
        let (outcome, n) = run_until(&mut world, &mut sched, SimTime::from_ticks(1_000));
        assert_eq!(outcome, StepOutcome::Quiescent);
        assert_eq!(n, 3, "events at t=30, 40, 50 then stop");
        assert_eq!(world.fired, vec![0, 1, 2, 3, 4, 5]);
    }
}
