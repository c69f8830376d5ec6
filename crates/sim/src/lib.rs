//! Deterministic discrete-event simulation substrate for the AFTA
//! reproduction.
//!
//! Every experiment in the paper (the watchdog/alpha-count scenario of
//! Fig. 4, the redundancy-adaptation run of Fig. 6, and the 65-million-step
//! histogram of Fig. 7) is a *simulated* run over virtual time.  This crate
//! provides the three ingredients those experiments share:
//!
//! * a [`VirtualClock`] counting discrete [`Tick`]s,
//! * a deterministic, named random-number-stream factory ([`SeedFactory`])
//!   so that independent subsystems draw from independent but reproducible
//!   streams, and
//! * an event [`Scheduler`] plus lightweight statistics helpers
//!   ([`stats::Histogram`], [`stats::Summary`], [`stats::TimeWeighted`]).
//!
//! # Example
//!
//! ```
//! use afta_sim::{Scheduler, Tick};
//!
//! let mut sched = Scheduler::new();
//! sched.schedule(Tick(5), "five");
//! sched.schedule(Tick(2), "two");
//! sched.schedule(Tick(2), "two-again");
//!
//! let mut seen = Vec::new();
//! while let Some((tick, ev)) = sched.pop() {
//!     seen.push((tick.0, ev));
//! }
//! // Same-tick events pop in FIFO order.
//! assert_eq!(seen, vec![(2, "two"), (2, "two-again"), (5, "five")]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod experiment;
pub mod rng;
pub mod stats;

pub use clock::{SkewedClock, Tick, VirtualClock};
pub use events::Scheduler;
pub use experiment::{Experiment, RunOutcome, StepControl};
pub use rng::{fnv1a_64, SeedFactory, FNV_OFFSET};
