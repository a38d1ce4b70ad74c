//! Deterministic discrete-event simulation substrate.
//!
//! The protocol-level simulations in this workspace (the Chord
//! stabilization protocol in `sos-overlay`, the capacity/flow attack
//! model in `sos-sim`) need a common event loop with three properties:
//!
//! * **determinism** — identical schedules produce identical runs;
//!   ties at the same timestamp are broken by insertion order (FIFO),
//!   never by queue internals;
//! * **cheap scheduling** — pending events grouped by firing time in an
//!   ordered map, one FIFO queue per time;
//! * **separation of state and engine** — the engine owns the clock and
//!   the queue; the caller owns the world state and interprets events.
//!
//! # Example
//!
//! ```
//! use sos_des::{Scheduler, SimTime};
//!
//! // Count ticks of two interleaved timers.
//! let mut sched = Scheduler::new();
//! sched.schedule(SimTime::from_ticks(10), "a");
//! sched.schedule(SimTime::from_ticks(5), "b");
//! sched.schedule(SimTime::from_ticks(10), "c"); // same time as "a", after it? no:
//! // "a" was scheduled first at t=10, so it fires first at t=10.
//! let mut order = Vec::new();
//! while let Some((t, ev)) = sched.pop() {
//!     order.push((t.ticks(), ev));
//! }
//! assert_eq!(order, vec![(5, "b"), (10, "a"), (10, "c")]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod time;

pub use engine::{run_until, Scheduler, Simulation, StepOutcome};
pub use time::SimTime;
