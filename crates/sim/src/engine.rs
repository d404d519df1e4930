//! The event loop: [`Model`], [`Scheduler`], and [`Engine`].

use crate::{EventQueue, SimTime};

/// A simulation model driven by the [`Engine`].
///
/// A model chooses an event payload type and reacts to events as the engine
/// delivers them in timestamp order. Handlers schedule follow-up events
/// through the [`Scheduler`] they are handed.
///
/// # Example
///
/// A model that rings a bell a fixed number of times, one time unit apart:
///
/// ```
/// use dqa_sim::{Engine, Model, Scheduler, SimTime};
///
/// struct Bell { remaining: u32, rings: Vec<f64> }
///
/// impl Model for Bell {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
///         self.rings.push(now.as_f64());
///         self.remaining -= 1;
///         if self.remaining > 0 {
///             sched.after(1.0, ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Bell { remaining: 3, rings: Vec::new() });
/// engine.schedule(SimTime::ZERO, ());
/// engine.run_to_completion();
/// assert_eq!(engine.model().rings, vec![0.0, 1.0, 2.0]);
/// ```
pub trait Model {
    /// The event payload delivered to [`Model::handle`].
    type Event;

    /// Reacts to one event. `now` is the event's timestamp, which the engine
    /// guarantees is monotonically non-decreasing across calls.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The scheduling interface handed to [`Model::handle`].
///
/// Wraps the future-event queue plus the current clock so handlers can
/// schedule at absolute times ([`Scheduler::at`]) or relative offsets
/// ([`Scheduler::after`]).
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock: delivering an
    /// event in the past would violate causality.
    pub fn at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        self.queue.push(time, event);
    }

    /// Schedules `event` to fire `delay` time units from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative, NaN, or infinite.
    pub fn after(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay must be finite and non-negative, got {delay}"
        );
        self.queue.push(self.now + delay, event);
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// The boxed callback installed by [`Engine::set_observer`].
type Observer<E> = Box<dyn FnMut(SimTime, &E)>;

/// Drives a [`Model`] by popping events in time order and dispatching them.
///
/// An optional *observer* ([`Engine::set_observer`]) sees every event just
/// before it is handled — the hook behind event tracing, per-kind event
/// counts, and debug logging, without touching the model.
///
/// See the [crate-level documentation](crate) for a complete queueing
/// example.
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    steps: u64,
    observer: Option<Observer<M::Event>>,
}

impl<M: Model> std::fmt::Debug for Engine<M>
where
    M: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("model", &self.model)
            .field("now", &self.sched.now())
            .field("pending", &self.sched.pending())
            .field("steps", &self.steps)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<M: Model> Engine<M> {
    /// Creates an engine around `model` with an empty event queue and the
    /// clock at [`SimTime::ZERO`].
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
            steps: 0,
            observer: None,
        }
    }

    /// Installs an observer called with every event just before it is
    /// dispatched to the model. Replaces any previous observer.
    pub fn set_observer(&mut self, observer: impl FnMut(SimTime, &M::Event) + 'static) {
        self.observer = Some(Box::new(observer));
    }

    /// Removes the observer.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Schedules an initial event from outside the model.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        self.sched.at(time, event);
    }

    /// Pops and dispatches the next event, returning its timestamp, or
    /// `None` if the event queue is empty.
    #[inline]
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.sched.queue.pop()?;
        self.dispatch(time, event);
        Some(time)
    }

    /// Advances the clock to a popped event and hands it to the model.
    #[inline]
    fn dispatch(&mut self, time: SimTime, event: M::Event) {
        debug_assert!(time >= self.sched.now, "event queue returned past event");
        self.sched.now = time;
        self.steps += 1;
        if let Some(observer) = &mut self.observer {
            observer(time, &event);
        }
        self.model.handle(time, event, &mut self.sched);
    }

    /// Drains and dispatches every event with timestamp `<= deadline`,
    /// returning how many were processed. The clock is left at the last
    /// dispatched event (it does **not** advance to `deadline`) — this is
    /// the reusable drain-and-dispatch core shared by the serial
    /// [`Engine::run_until`] and the sharded executor's per-window drains,
    /// which must not finalize time-weighted statistics mid-window.
    pub fn step_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((time, event)) = self.sched.queue.pop_until(deadline) {
            self.dispatch(time, event);
            processed += 1;
        }
        processed
    }

    /// Runs until the next pending event is strictly later than `deadline`
    /// (or the queue empties). Events *at* the deadline are processed
    /// (via [`Engine::step_until`]). The clock is advanced to `deadline`
    /// if it ends up earlier, so time-weighted statistics can be
    /// finalized consistently.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.step_until(deadline);
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
    }

    /// Runs until the event queue is empty and returns the final clock.
    pub fn run_to_completion(&mut self) -> SimTime {
        while self.step().is_some() {}
        self.sched.now
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total number of events dispatched so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shared access to the model.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (e.g. to reset statistics after
    /// warmup).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine and returns the model.
    #[must_use]
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Recorder {
        seen: Vec<(f64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now.as_f64(), ev));
            if ev == 1 {
                // chain: schedule two follow-ups
                sched.after(1.0, 10);
                sched.after(0.5, 11);
            }
        }
    }

    #[test]
    fn dispatches_in_time_order_with_chaining() {
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::new(2.0), 2);
        eng.schedule(SimTime::new(1.0), 1);
        let end = eng.run_to_completion();
        assert_eq!(
            eng.model().seen,
            vec![(1.0, 1), (1.5, 11), (2.0, 2), (2.0, 10)]
        );
        assert_eq!(end, SimTime::new(2.0));
        assert_eq!(eng.steps(), 4);
    }

    #[test]
    fn run_until_processes_events_at_deadline_and_advances_clock() {
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::new(1.0), 7);
        eng.schedule(SimTime::new(3.0), 8);
        eng.run_until(SimTime::new(1.0));
        assert_eq!(eng.model().seen, vec![(1.0, 7)]);
        assert_eq!(eng.now(), SimTime::new(1.0));
        eng.run_until(SimTime::new(2.5));
        // no event fired, but the clock moved forward
        assert_eq!(eng.now(), SimTime::new(2.5));
        eng.run_until(SimTime::new(10.0));
        assert_eq!(eng.model().seen.len(), 2);
        assert_eq!(eng.now(), SimTime::new(10.0));
    }

    #[test]
    fn step_until_counts_events_and_leaves_the_clock_on_the_last_one() {
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::new(1.0), 7);
        eng.schedule(SimTime::new(2.0), 8);
        eng.schedule(SimTime::new(5.0), 9);
        assert_eq!(eng.step_until(SimTime::new(3.0)), 2);
        // Unlike run_until, the clock stays at the last dispatched event.
        assert_eq!(eng.now(), SimTime::new(2.0));
        assert_eq!(eng.step_until(SimTime::new(3.0)), 0);
        assert_eq!(eng.step_until(SimTime::new(5.0)), 1);
        assert_eq!(eng.now(), SimTime::new(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                if now > SimTime::ZERO {
                    sched.at(SimTime::ZERO, ());
                }
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(SimTime::new(1.0), ());
        eng.run_to_completion();
    }

    #[test]
    fn into_model_returns_final_state() {
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::ZERO, 3);
        eng.run_to_completion();
        let model = eng.into_model();
        assert_eq!(model.seen, vec![(0.0, 3)]);
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.set_observer(move |t, &ev| sink.borrow_mut().push((t.as_f64(), ev)));
        eng.schedule(SimTime::new(2.0), 2);
        eng.schedule(SimTime::new(1.0), 1);
        eng.run_to_completion();
        // The observer saw exactly what the model handled.
        assert_eq!(*seen.borrow(), eng.model().seen);
    }

    #[test]
    fn observer_feeds_a_trace_log() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.set_observer(move |t, &ev| sink.borrow_mut().push((t.as_f64(), ev)));
        for k in 0..5 {
            eng.schedule(SimTime::new(f64::from(k)), k);
        }
        eng.run_to_completion();
        let log = log.borrow();
        // 5 scheduled + 2 chained by event 1, in dispatch order.
        assert_eq!(log.len(), 7);
        assert_eq!(log.last(), Some(&(4.0, 4)));
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn clear_observer_stops_observation() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let count = Rc::new(RefCell::new(0u32));
        let sink = Rc::clone(&count);
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        eng.set_observer(move |_, _| *sink.borrow_mut() += 1);
        eng.schedule(SimTime::new(1.0), 1);
        eng.run_to_completion();
        eng.clear_observer();
        eng.schedule(SimTime::new(5.0), 2);
        eng.run_to_completion();
        // Recorder's event 1 chains two more, so 3 observed, then none.
        assert_eq!(*count.borrow(), 3);
        assert_eq!(eng.model().seen.len(), 4);
    }

    #[test]
    fn debug_format_is_informative() {
        let eng = Engine::new(Recorder { seen: Vec::new() });
        let s = format!("{eng:?}");
        assert!(s.contains("steps"));
        assert!(s.contains("observer"));
    }

    #[test]
    fn empty_engine_step_returns_none() {
        let mut eng = Engine::new(Recorder { seen: Vec::new() });
        assert!(eng.step().is_none());
        assert_eq!(eng.now(), SimTime::ZERO);
    }
}
