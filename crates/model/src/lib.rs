//! # liger-model
//!
//! Transformer workload modeling for the Liger reproduction: the model zoo
//! (the paper's Table 1), per-layer kernel sequences under Megatron-style
//! tensor parallelism and pipeline staging, a calibrated roofline cost
//! model, the kernel decomposition catalogue of §3.6, device-memory
//! accounting, and the offline profiling procedure of §3.5 (run against the
//! simulator, the way the real system profiles against hardware).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assembly;
pub mod config;
pub mod cost;
pub mod decompose;
pub mod layers;
pub mod memory;
pub mod ops;
pub mod profile;
pub mod spec;
pub mod validate;
pub mod workload;

pub use assembly::{
    assemble, assemble_template, assemble_template_into, class_totals, iteration_time, price_ops,
    PricedOp,
};
pub use config::ModelConfig;
pub use cost::{CostModel, CostParams};
pub use decompose::{
    equal_split, equal_split_axis, profile_decomposition, split_op, split_op_axis,
    DecompositionProfile, GemmSplitAxis,
};
pub use layers::{layer_ops, model_ops, stage_boundary_bytes, stage_ops, PlacedOp, HEAD_LAYER};
pub use memory::{
    blocks_for_tokens, device_footprint, fits, kv_block_bytes, kv_recovery_plan, KvRecoveryPlan,
    MemoryFootprint, RecoveryPolicy,
};
pub use ops::{GemmKind, LayerOp};
pub use profile::{measure_solo, profile_contention, ContentionProfile};
pub use spec::{draft_model_for, spec_draft_time, spec_verify_shape};
pub use validate::validate_sequence;
pub use workload::{BatchShape, Phase};
