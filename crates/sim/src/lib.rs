//! Deterministic discrete-event simulation substrate for the AFTA
//! reproduction.
//!
//! Every experiment in the paper (the watchdog/alpha-count scenario of
//! Fig. 4, the redundancy-adaptation run of Fig. 6, and the 65-million-step
//! histogram of Fig. 7) is a *simulated* run over virtual time, and each
//! runs its own step loop.  What they share comes from this crate:
//!
//! * the discrete time step, [`Tick`],
//! * a deterministic, named random-number-stream factory ([`SeedFactory`])
//!   so that independent subsystems draw from independent but reproducible
//!   streams, with [`parse_seed`] reading a master seed from text such as
//!   `AFTA_SEED`,
//! * the command-line reader of the workspace's binaries ([`Flags`]),
//!   which resolves a run's seed from `--seed`, then `AFTA_SEED`, and
//! * lightweight statistics helpers ([`stats::Histogram`],
//!   [`stats::Summary`], [`stats::TimeWeighted`]).
//!
//! It also holds a [`VirtualClock`] (and the per-node [`SkewedClock`]
//! built on it) and an event [`Scheduler`] that pops same-tick events in
//! FIFO order.
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
pub mod flags;
pub mod rng;
pub mod stats;

pub use clock::{SkewedClock, Tick, VirtualClock};
pub use events::Scheduler;
pub use flags::Flags;
pub use rng::{fnv1a_64, parse_seed, SeedFactory, FNV_OFFSET};
