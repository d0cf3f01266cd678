//! The repo benchmark: paper-scale wall-clock, memory and protocol
//! outcomes on five workloads, with a per-layer budget measured from
//! outside through the public API. See `README.md` beside this package.
//!
//! One program, three roles selected by its first argument:
//!
//! * no sub-command — the runner: a contract run of one workload
//!   (`--workload W --seed N --seconds S --trace 0|1`) or, without
//!   `--workload`, the full suite over all five;
//! * `child` — one repetition of one workload in a fresh process;
//! * `layers` — the per-layer drivers, fed with captured inputs;
//! * `compare A.json B.json` — applies the end-to-end bounds.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod estimate;
pub mod layers;
pub mod metrics;
pub mod record;
pub mod rep;
pub mod spans;
pub mod suite;
pub mod workloads;
