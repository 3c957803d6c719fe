//! # liger-verify
//!
//! Static plan verification and dynamic trace sanitization for the Liger
//! reproduction, wired into CI so neither a deadlock-prone plan nor a
//! hazard-bearing trace can land silently.
//!
//! Two engines:
//!
//! * [`static_verifier`] — proves properties of a deployment *before*
//!   simulation: collective sequences match across devices
//!   (`SV-COLLECTIVE-MATCH`), the event-wait graph is acyclic
//!   (`SV-WAIT-CYCLE`), shard shapes are consistent (`SV-SHARD-SHAPE`) and
//!   peak memory fits every device, healthy or degraded (`SV-MEM-CAP`).
//!   Launch programs come from [`liger_core::introspect`], which runs the
//!   engine's own launch sequence against a recorder, so the verifier
//!   checks the code the engine runs rather than a copy of it.
//! * [`sanitizer`] — reconstructs happens-before from an exported Chrome
//!   trace via per-lane vector clocks and flags FIFO violations
//!   (`TS-FIFO`), collective skew (`TS-COLL-SKEW`), synchronization/time
//!   contradictions (`TS-OVERLAP`), data hazards (`TS-HAZARD-RAW`,
//!   `TS-HAZARD-WAR`, `TS-HAZARD-WAW`) and allocation misuse (`TS-UAF`,
//!   `TS-DOUBLE-FREE`, `TS-LEAK`).
//!
//! A third engine sits between them:
//!
//! * [`model_checker`] — bounded-exhaustive exploration of event
//!   *interleavings* with dynamic partial-order reduction: replays a
//!   program under every reorderable schedule the conservative window
//!   rule (or an unguarded relaxation) admits, and checks every terminal
//!   state for schedule-dependence (`MC-DETERMINISM`), sanitizer
//!   violations (`MC-SANITIZE`) and stuck residue (`MC-QUIESCENCE`,
//!   `MC-DEADLOCK`).
//!
//! All three produce machine-readable [`Diagnostic`]s with stable rule ids
//! and (for parsed traces) byte-offset locations into the source JSON. The
//! `liger-verify` binary runs any engine from the command line:
//!
//! ```text
//! liger-verify plans            # statically verify the default deployments
//! liger-verify trace.json …     # sanitize exported Chrome traces
//! liger-verify explore all      # model-check schedule interleavings
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diag;
pub mod model_checker;
pub mod sanitizer;
pub mod static_verifier;

pub use diag::{render, Diagnostic, ReportFormat};
pub use model_checker::{
    adversarial_battery, enumerate_naive, explore, Exploration, McCase, McOp, McProgram,
};
pub use sanitizer::{sanitize, sanitize_parsed};
pub use static_verifier::{
    check_collective_match, check_disagg_feasibility, check_kv_pool_feasibility,
    check_memory_feasibility, check_prefix_residency, check_shard_shapes, check_wait_cycles,
    verify_deployment,
};
