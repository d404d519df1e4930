//! # dqa-sim — a discrete-event simulation kernel
//!
//! This crate is the substrate on which the distributed-database simulator of
//! [`dqa-core`] runs. The original paper implemented its model in the DISS
//! simulation language on an IBM 4341; DISS is long gone, so this crate
//! provides the equivalent facilities as a small, self-contained,
//! deterministic discrete-event simulation (DES) kernel:
//!
//! * [`SimTime`] — the simulation clock value (a validated, totally ordered
//!   wrapper around `f64`).
//! * [`EventQueue`] — the future-event set, a stable monotone radix heap:
//!   events with equal timestamps are delivered in the order they were
//!   scheduled, push and pop cost O(1) amortised while times never go
//!   below the last popped one (an earlier push takes a cold rebase path),
//!   and memory is bounded by the pending-event high-water mark.
//! * [`Engine`] / [`Model`] / [`Scheduler`] — the event loop. A model defines
//!   an event payload type and a `handle` method; the engine pops events in
//!   time order and dispatches them, letting the handler schedule more.
//! * [`random`] — seeded, splittable random-number streams and the service
//!   time distributions used by the paper (exponential, uniform ± deviation,
//!   constant).
//! * [`stats`] — observation statistics (Welford tallies), time-weighted
//!   averages for utilization/queue-length tracking, histograms, and batch
//!   means with confidence intervals for steady-state output analysis.
//!
//! Determinism is a design goal throughout: given the same model and the same
//! seeds, a simulation produces bit-identical results on every run, which the
//! test suites of the downstream crates rely on.
//!
//! # Example
//!
//! A one-server FCFS queue, hand-rolled on the kernel:
//!
//! ```
//! use dqa_sim::{Engine, Model, Scheduler, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! #[derive(Default)]
//! struct Queue { in_system: u32, served: u32 }
//!
//! impl Model for Queue {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         match ev {
//!             Ev::Arrival => {
//!                 self.in_system += 1;
//!                 if self.in_system == 1 {
//!                     sched.after(1.0, Ev::Departure);
//!                 }
//!             }
//!             Ev::Departure => {
//!                 self.in_system -= 1;
//!                 self.served += 1;
//!                 if self.in_system > 0 {
//!                     sched.after(1.0, Ev::Departure);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Queue::default());
//! for k in 0..5 {
//!     engine.schedule(SimTime::new(k as f64 * 0.25), Ev::Arrival);
//! }
//! engine.run_to_completion();
//! assert_eq!(engine.model().served, 5);
//! ```
//!
//! [`dqa-core`]: https://example.invalid/dqa

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod queue;
mod time;

pub mod random;
pub mod stats;
pub mod testkit;

pub use engine::{Engine, Model, Scheduler};
pub use queue::EventQueue;
pub use time::SimTime;
