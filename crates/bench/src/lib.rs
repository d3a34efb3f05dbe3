//! Experiment harness for the near-clique reproduction.
//!
//! The paper is a theory contribution: its "evaluation" is a set of
//! theorems, a lower-bound construction (Figure 1 / Claim 1) and an
//! impossibility argument (§6). This crate regenerates each of those as a
//! measurement — thirteen experiments, E1–E13, printing paper-shaped
//! tables. [`experiments::all`] lists each experiment with the claim it
//! measures.
//!
//! * Run them all: `cargo run --release -p bench --bin experiments`
//! * One experiment: `cargo run --release -p bench --bin experiments -- e4`
//! * Full trial counts: add `--full` (the default is `--quick`).
//!
//! Criterion wall-clock benches (`cargo bench`) cover the runtime cost of
//! the simulator, the protocol, and the baseline algorithms; the science
//! lives in the `experiments` binary, which prints its tables to stdout.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod stats;
pub mod table;

pub use experiments::{all, Experiment};
pub use table::Table;
