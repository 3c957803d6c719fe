//! # liger-bench
//!
//! The experiment library that regenerates every table and figure of the
//! paper's evaluation (§4) and the ablations beyond it. Each experiment is
//! a function in [`experiments`] named after its figure; the `liger-bench`
//! binary runs one by name (`liger-bench fig10_general --quick`) and
//! prints the same rows and series the paper reports. `EXPERIMENTS.md` at
//! the repository root records paper-vs-measured.
//!
//! The [`harness`] module contains the shared machinery: node descriptions
//! (the paper's two testbeds), engine construction, trace building, a
//! std-thread parallel sweep driver and plain-text table formatting. No
//! external crates are involved anywhere.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
