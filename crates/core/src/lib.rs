//! # liger-core
//!
//! The Liger runtime — the primary contribution of *Liger: Interleaving
//! Intra- and Inter-Operator Parallelism for Distributed Large Model
//! Inference* (PPoPP '24) — reimplemented in Rust against a deterministic
//! multi-GPU simulator.
//!
//! Liger adopts intra-operator (tensor-parallel) partitioning for every
//! batch, but *interleaves the computation and communication of different
//! batches* on each device: while the earliest batch's all-reduce occupies
//! the interconnect, compute kernels of subsequent batches fill the idle
//! SMs, and vice versa. At low arrival rates the system degenerates to
//! intra-operator parallelism (lowest latency); as load grows, batches
//! overlap and throughput approaches the compute-only bound (like a
//! pipeline), which is the paper's way out of the latency/throughput
//! dilemma.
//!
//! The four mechanisms of §3, each in its own module:
//!
//! * [`funcvec`] — function assembly (§3.2);
//! * [`scheduler`] — the multi-stream scheduling algorithm (Algorithm 1)
//!   with contention anticipation (§3.5) and runtime kernel decomposition
//!   (§3.6);
//! * [`engine`] — the multi-GPU multi-stream engine with the hybrid /
//!   CPU-GPU / inter-stream synchronization approaches (§3.4);
//! * [`config`] — tunables (contention factor, division factor, processing
//!   list size, sync mode).
//!
//! The round-launch sequence itself lives in one crate-private module that
//! both the engine and [`introspect`] drive: the engine issues it into the
//! simulator, and [`LaunchProgram::from_plans`] records the same calls as
//! data for the static plan verifier and model checker in `liger-verify`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod funcvec;
pub mod introspect;
mod launch;
pub mod scheduler;

pub use config::{LigerConfig, SyncMode};
pub use engine::LigerEngine;
pub use funcvec::FuncVec;
pub use introspect::{LaunchProgram, PlanOp};
pub use scheduler::{plan_round, plan_round_into, LaunchItem, PlanParams, RoundPlan};
