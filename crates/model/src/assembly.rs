//! Pricing op sequences into duration-annotated lists.
//!
//! This is the model-side half of the paper's *function assembly* (§3.2):
//! for a batch shape, produce the ordered list of kernels with "details such
//! as the kernel duration, the kernel type, the batch size, and the sequence
//! length" attached. Every transformer block emits the same ops and the cost
//! model prices an op by its shape alone, so [`assemble_template`] prices a
//! single block plus the head ops; [`assemble`] expands that template into
//! the full list and [`iteration_time`] sums it without expanding.
//! `liger-core` keeps the template in its `FuncVec`s; the baseline engines
//! launch the expanded list directly.

use liger_gpu_sim::{KernelClass, SimDuration};

use crate::config::ModelConfig;
use crate::cost::CostModel;
use crate::layers::{for_each_layer_op, head_ops, PlacedOp, HEAD_OPS, OPS_PER_LAYER};
use crate::workload::BatchShape;

/// One op with its offline-profiled no-load duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PricedOp {
    /// The op and its layer.
    pub placed: PlacedOp,
    /// No-load duration from the cost model (the profile table entry).
    pub duration: SimDuration,
}

impl PricedOp {
    /// Kernel class shortcut.
    pub fn class(&self) -> KernelClass {
        self.placed.op.class()
    }
}

/// Prices every op in `ops` under `cm`.
pub fn price_ops(cm: &CostModel, ops: &[PlacedOp]) -> Vec<PricedOp> {
    ops.iter().map(|&placed| PricedOp { placed, duration: cm.op_time(&placed.op) }).collect()
}

/// Prices one inference iteration at tensor-parallel degree `tp` in
/// template form: one block's ops, placed at layer 0, then the head ops.
/// Returns the list and the block's op count. The iteration is the block
/// repeated for layers `0..cfg.layers`, each copy placed at its layer, then
/// the head. One allocation of at most 14 ops, whatever the model's depth.
pub fn assemble_template(
    cm: &CostModel,
    cfg: &ModelConfig,
    shape: BatchShape,
    tp: u32,
) -> (Vec<PricedOp>, usize) {
    let mut ops = Vec::new();
    let block = assemble_template_into(cm, cfg, shape, tp, &mut ops);
    (ops, block)
}

/// [`assemble_template`] into `ops`, replacing what it held: a buffer
/// recycled from an earlier batch is refilled without allocating.
pub fn assemble_template_into(
    cm: &CostModel,
    cfg: &ModelConfig,
    shape: BatchShape,
    tp: u32,
    ops: &mut Vec<PricedOp>,
) -> usize {
    let price = |placed: PlacedOp| PricedOp { placed, duration: cm.op_time(&placed.op) };
    ops.clear();
    ops.reserve_exact(OPS_PER_LAYER + HEAD_OPS);
    for_each_layer_op(cfg, shape, tp, 0, |placed| ops.push(price(placed)));
    let block = ops.len();
    ops.extend(head_ops(cfg, shape, tp).map(price));
    block
}

/// Prices the full per-device kernel list of one inference iteration at
/// tensor-parallel degree `tp`: [`assemble_template`], expanded.
pub fn assemble(cm: &CostModel, cfg: &ModelConfig, shape: BatchShape, tp: u32) -> Vec<PricedOp> {
    let (template, block) = assemble_template(cm, cfg, shape, tp);
    let (block, head) = template.split_at(block);
    let mut ops = Vec::with_capacity(cfg.layers as usize * block.len() + head.len());
    for layer in 0..cfg.layers {
        ops.extend(
            block.iter().map(|op| PricedOp { placed: PlacedOp { layer, ..op.placed }, ..*op }),
        );
    }
    ops.extend_from_slice(head);
    ops
}

/// Sum of [`assemble`]`(cm, cfg, shape, tp)`'s durations, as `layers ×`
/// one block's sum plus the head's. Durations are integer nanoseconds, so
/// this equals the op-by-op sum exactly.
pub fn iteration_time(
    cm: &CostModel,
    cfg: &ModelConfig,
    shape: BatchShape,
    tp: u32,
) -> SimDuration {
    let mut block = SimDuration::ZERO;
    for_each_layer_op(cfg, shape, tp, 0, |placed| block += cm.op_time(&placed.op));
    let head: SimDuration = head_ops(cfg, shape, tp).iter().map(|p| cm.op_time(&p.op)).sum();
    block * cfg.layers as u64 + head
}

/// Splits a priced sequence's total duration by kernel class:
/// `(compute_total, comm_total)`.
pub fn class_totals(ops: &[PricedOp]) -> (SimDuration, SimDuration) {
    let mut compute = SimDuration::ZERO;
    let mut comm = SimDuration::ZERO;
    for op in ops {
        match op.class() {
            KernelClass::Compute => compute += op.duration,
            KernelClass::Comm => comm += op.duration,
        }
    }
    (compute, comm)
}

impl liger_gpu_sim::ToJson for PricedOp {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("placed", &self.placed).field("duration", &self.duration);
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::model_ops;

    #[test]
    fn template_expands_to_the_priced_full_list() {
        // The expanded template must equal pricing the generator's full
        // list op by op, uneven degraded degrees (3 over 56 heads) included.
        let cm = CostModel::v100_node();
        for cfg in [ModelConfig::tiny_test(), ModelConfig::opt_30b()] {
            for shape in [BatchShape::prefill(2, 16), BatchShape::decode(8, 40)] {
                for tp in [1, 2, 3, 4] {
                    let full = price_ops(&cm, &model_ops(&cfg, shape, tp));
                    assert_eq!(assemble(&cm, &cfg, shape, tp), full, "{} tp={tp}", cfg.name);
                    let sum: SimDuration = full.iter().map(|o| o.duration).sum();
                    assert_eq!(iteration_time(&cm, &cfg, shape, tp), sum, "{} tp={tp}", cfg.name);
                    let (template, block) = assemble_template(&cm, &cfg, shape, tp);
                    assert_eq!(template.len(), block + 2);
                    assert!(template.len() <= template.capacity() && template.capacity() <= 14);
                }
            }
        }
    }

    #[test]
    fn assembled_sequence_is_fully_priced() {
        let cm = CostModel::v100_node();
        let cfg = ModelConfig::tiny_test();
        let ops = assemble(&cm, &cfg, BatchShape::prefill(2, 16), 2);
        assert!(!ops.is_empty());
        for op in &ops {
            assert!(op.duration > SimDuration::ZERO);
        }
    }

    #[test]
    fn class_totals_add_up() {
        let cm = CostModel::v100_node();
        let cfg = ModelConfig::tiny_test();
        let ops = assemble(&cm, &cfg, BatchShape::prefill(2, 16), 2);
        let (compute, comm) = class_totals(&ops);
        let total: SimDuration = ops.iter().map(|o| o.duration).sum();
        assert_eq!(compute + comm, total);
        assert!(comm > SimDuration::ZERO, "tp=2 must communicate");
        assert!(compute > comm);
    }

    #[test]
    fn fig3_communication_ratios() {
        // The paper's Fig. 3 case study: at tp=4 the communication share of
        // an intra-op iteration is ~20.7% for OPT-30B on the V100/NVLink
        // node and ~47.1% for GLM-130B on the A100/PCIe node.
        let shape = BatchShape::prefill(2, 64);

        let v = CostModel::v100_node();
        let ops = assemble(&v, &ModelConfig::opt_30b(), shape, 4);
        let (compute, comm) = class_totals(&ops);
        let ratio = comm.as_secs_f64() / (compute + comm).as_secs_f64();
        assert!((0.14..0.28).contains(&ratio), "OPT-30B/V100 comm ratio {ratio:.3}");

        let a = CostModel::a100_node();
        let ops = assemble(&a, &ModelConfig::glm_130b(), shape, 4);
        let (compute, comm) = class_totals(&ops);
        let ratio = comm.as_secs_f64() / (compute + comm).as_secs_f64();
        assert!((0.38..0.56).contains(&ratio), "GLM-130B/A100 comm ratio {ratio:.3}");
    }

    #[test]
    fn decode_iteration_is_cheaper_than_prefill() {
        let cm = CostModel::v100_node();
        let cfg = ModelConfig::opt_30b();
        let prefill: SimDuration =
            assemble(&cm, &cfg, BatchShape::prefill(2, 64), 4).iter().map(|o| o.duration).sum();
        let decode: SimDuration =
            assemble(&cm, &cfg, BatchShape::decode(2, 64), 4).iter().map(|o| o.duration).sum();
        assert!(decode < prefill);
    }

    #[test]
    fn decode_comm_share_is_smaller() {
        // §4.3: generative tasks have lower computational intensity and
        // relatively less communication, leaving Liger less room.
        let cm = CostModel::v100_node();
        let cfg = ModelConfig::opt_30b();
        let share = |shape| {
            let ops = assemble(&cm, &cfg, shape, 4);
            let (compute, comm) = class_totals(&ops);
            comm.as_secs_f64() / (compute + comm).as_secs_f64()
        };
        assert!(share(BatchShape::decode(32, 16)) < share(BatchShape::prefill(2, 64)));
    }
}
