//! Deterministic discrete-event simulation engine.
//!
//! The paper's evaluation (§6) is "an event-driven simulation of our
//! algorithm" built on an in-house simulator toolkit. That toolkit is not
//! available, so this crate rebuilds the substrate from scratch:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer microsecond clock. Using
//!   integers (not `f64`) keeps event ordering exact and runs perfectly
//!   reproducible across platforms.
//! * [`EventQueue`] — the future-event list: a byte-radix timing wheel
//!   over the integer clock (8 levels × 256 slots, FIFO lists through
//!   one slab). Scheduling and popping cost the same however many
//!   events are pending, and simultaneous events come out in scheduling
//!   order because equal times always share a slot.
//! * [`FifoServer`] — the paper's host service model: "Each node services
//!   requests one by one in first-come-first-serve order" with a fixed
//!   per-request service time (capacity 200 req/s ⇒ 5 ms). Implemented
//!   with busy-until arithmetic so no extra events are needed per request.
//! * [`SimRng`] — a seeded `rand` wrapper so every experiment is
//!   reproducible from a single `u64` seed.
//!
//! # Examples
//!
//! Run a tiny simulation that counts scheduled ticks:
//!
//! ```
//! use radar_simcore::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Tick(u32),
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(1.0), Ev::Tick(1));
//! q.schedule(SimTime::from_secs(0.5), Ev::Tick(0));
//!
//! let mut order = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     let Ev::Tick(n) = ev;
//!     order.push((t.as_secs(), n));
//! }
//! assert_eq!(order, vec![(0.5, 0), (1.0, 1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod event;
mod rng;
mod server;
mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use server::{FifoServer, ServiceOutcome};
pub use time::{SimDuration, SimTime};
