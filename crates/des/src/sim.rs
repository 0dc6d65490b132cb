//! The event-queue kernel.
//!
//! [`Sim`] owns a virtual clock and a priority queue of scheduled events.
//! An event is a boxed closure receiving `&mut Sim<S>`, so handlers can
//! inspect/mutate the shared state `S` and schedule further events. Events
//! scheduled for the same instant fire in scheduling order (FIFO), making
//! every simulation fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type EventFn<S> = Box<dyn FnOnce(&mut Sim<S>)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    cancelled: bool,
    run: Option<EventFn<S>>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Discrete-event simulator with user state `S`.
///
/// ```
/// use gamma_des::{Sim, SimTime};
///
/// let mut sim = Sim::new(Vec::<&str>::new());
/// sim.schedule_at(SimTime::from_ms(2), |s| s.state.push("later"));
/// sim.schedule_at(SimTime::from_ms(1), |s| {
///     s.state.push("first");
///     s.schedule_in(SimTime::from_ms(5), |s2| s2.state.push("chained"));
/// });
/// let end = sim.run_until_idle();
/// assert_eq!(sim.state, ["first", "later", "chained"]);
/// assert_eq!(end, SimTime::from_ms(6));
/// ```
pub struct Sim<S> {
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<S>>,
    cancelled: Vec<u64>,
    events_fired: u64,
    trace_steps: bool,
    /// The simulation's shared state (the "world": machine, files, stats…).
    pub state: S,
}

impl<S> Sim<S> {
    /// Create a simulator at time zero around the given state.
    pub fn new(state: S) -> Self {
        Sim {
            clock: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            cancelled: Vec::new(),
            events_fired: 0,
            trace_steps: true,
            state,
        }
    }

    /// Like [`Sim::new`] but with kernel-step tracing suppressed. For
    /// auxiliary simulations run *inside* the engine (e.g. draining a
    /// device request queue), whose internal steps are not scheduler
    /// events and may fire while a trace sink is already borrowed.
    pub fn untraced(state: S) -> Self {
        Sim {
            trace_steps: false,
            ..Sim::new(state)
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events executed so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len() - self.cancelled.len()
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the kernel never rewinds time.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Sim<S>) + 'static,
    {
        assert!(
            at >= self.clock,
            "cannot schedule into the past: now={} at={}",
            self.clock,
            at
        );
        let id = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq: id,
            cancelled: false,
            run: Some(Box::new(f)),
        });
        EventId(id)
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Sim<S>) + 'static,
    {
        self.schedule_at(self.clock + delay, f)
    }

    /// Cancel a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.push(id.0);
    }

    /// Run events until the queue drains; returns the final clock value.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.clock
    }

    /// Run events with timestamps `<= until` (inclusive); later events stay
    /// queued. Returns the clock, which will be `min(until, drain time)`.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        loop {
            match self.queue.peek() {
                Some(ev) if ev.at <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.clock < until && !self.queue.is_empty() {
            self.clock = until;
        }
        self.clock
    }

    /// Pop and run a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        while let Some(mut ev) = self.queue.pop() {
            if let Some(pos) = self.cancelled.iter().position(|&c| c == ev.seq) {
                self.cancelled.swap_remove(pos);
                continue;
            }
            if ev.cancelled {
                continue;
            }
            debug_assert!(ev.at >= self.clock, "event queue went backwards");
            self.clock = ev.at;
            self.events_fired += 1;
            if self.trace_steps {
                gamma_trace::with(|s| s.emit_sim_step(self.clock.as_us()));
            }
            let f = ev.run.take().expect("event closure consumed twice");
            f(self);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_us(30), |s| s.state.push(3));
        sim.schedule_at(SimTime::from_us(10), |s| s.state.push(1));
        sim.schedule_at(SimTime::from_us(20), |s| s.state.push(2));
        let end = sim.run_until_idle();
        assert_eq!(sim.state, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_us(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Sim::new(Vec::<u32>::new());
        let t = SimTime::from_us(5);
        for i in 0..100 {
            sim.schedule_at(t, move |s| s.state.push(i));
        }
        sim.run_until_idle();
        assert_eq!(sim.state, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(Vec::<(u64, u32)>::new());
        sim.schedule_at(SimTime::from_us(1), |s| {
            let now = s.now();
            s.state.push((now.as_us(), 1));
            s.schedule_in(SimTime::from_us(4), |s2| {
                let now = s2.now();
                s2.state.push((now.as_us(), 2));
            });
        });
        sim.run_until_idle();
        assert_eq!(sim.state, vec![(1, 1), (5, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime::from_us(10), |s| {
            s.schedule_at(SimTime::from_us(5), |_| {});
        });
        sim.run_until_idle();
    }

    #[test]
    fn cancellation() {
        let mut sim = Sim::new(Vec::<u32>::new());
        let _keep = sim.schedule_at(SimTime::from_us(1), |s| s.state.push(1));
        let kill = sim.schedule_at(SimTime::from_us(2), |s| s.state.push(2));
        sim.schedule_at(SimTime::from_us(3), |s| s.state.push(3));
        sim.cancel(kill);
        sim.run_until_idle();
        assert_eq!(sim.state, vec![1, 3]);
        assert_eq!(sim.events_fired(), 2);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim = Sim::new(0u32);
        let id = sim.schedule_at(SimTime::from_us(1), |s| s.state += 1);
        sim.run_until_idle();
        sim.cancel(id);
        sim.schedule_at(SimTime::from_us(2), |s| s.state += 10);
        sim.run_until_idle();
        assert_eq!(sim.state, 11);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_us(10), |s| s.state.push(1));
        sim.schedule_at(SimTime::from_us(20), |s| s.state.push(2));
        sim.run_until(SimTime::from_us(15));
        assert_eq!(sim.state, vec![1]);
        assert_eq!(sim.now(), SimTime::from_us(15));
        assert_eq!(sim.pending(), 1);
        sim.run_until_idle();
        assert_eq!(sim.state, vec![1, 2]);
    }

    #[test]
    fn determinism_across_runs() {
        // Two identical simulations produce identical event traces.
        fn trace() -> Vec<(u64, u32)> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new(Rc::clone(&log));
            for i in 0..50u32 {
                let t = SimTime::from_us((i as u64 * 7) % 13);
                sim.schedule_at(t, move |s| {
                    let now = s.now();
                    s.state.borrow_mut().push((now.as_us(), i));
                });
            }
            sim.run_until_idle();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut sim = Sim::new(());
        let a = sim.schedule_at(SimTime::from_us(1), |_| {});
        let _b = sim.schedule_at(SimTime::from_us(2), |_| {});
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
    }
}
