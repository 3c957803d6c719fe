//! Building the kernel sequence of a transformer forward pass.
//!
//! One generator, `for_each_layer_op`, emits the per-device ops of one
//! transformer block under a given tensor-parallel degree, in execution
//! order, and `head_ops` the final norm and LM head; [`layer_ops`],
//! [`model_ops`] and [`stage_ops`] collect them, and function assembly
//! ([`crate::assembly::assemble_template`]) prices one block of them for
//! the whole stack. The sequences follow Megatron-LM's partitioning (the
//! paper's Intra-Op baseline): QKV and FC1 are column-parallel, the
//! attention output projection and FC2 are row-parallel, and each block
//! synchronizes with **two all-reduces** — after the attention projection
//! and after FC2.

use crate::config::ModelConfig;
use crate::ops::{GemmKind, LayerOp};
use crate::workload::{BatchShape, Phase};

/// One op with its position in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedOp {
    /// Layer index (`u32::MAX` for the head/final ops).
    pub layer: u32,
    /// The op.
    pub op: LayerOp,
}

/// Marker layer index for post-block ops (final norm, LM head).
pub const HEAD_LAYER: u32 = u32::MAX;

/// Ops of one transformer block on one device, at tensor-parallel degree
/// `tp`. `tp = 1` yields the sequence a pipeline stage executes.
///
/// `tp` need not divide the head count: when it does not (the elastic
/// degraded mode after losing a device, e.g. 56 heads over 3 survivors),
/// shards are ceil-divided and the emitted sequence models the
/// **critical-path largest shard** — the rank holding `ceil(heads/tp)`
/// heads, which every all-reduce must wait for. For divisible degrees this
/// is byte-identical to the exact Megatron partitioning.
pub fn layer_ops(cfg: &ModelConfig, shape: BatchShape, tp: u32, layer: u32) -> Vec<PlacedOp> {
    let mut ops = Vec::with_capacity(OPS_PER_LAYER);
    for_each_layer_op(cfg, shape, tp, layer, |p| ops.push(p));
    ops
}

/// Most ops one block emits: ten kernels plus two all-reduces when `tp > 1`.
pub(crate) const OPS_PER_LAYER: usize = 12;

/// Ops after the last block: the final layer norm and the LM head.
pub(crate) const HEAD_OPS: usize = 2;

/// The one generator of a block's ops: hands [`layer_ops`]`(cfg, shape, tp,
/// layer)` to `emit` in execution order. Every block of a model emits the
/// same ops but for `layer`, which is what lets function assembly price a
/// single block for the whole stack.
pub(crate) fn for_each_layer_op(
    cfg: &ModelConfig,
    shape: BatchShape,
    tp: u32,
    layer: u32,
    mut emit: impl FnMut(PlacedOp),
) {
    assert!(tp >= 1, "tensor-parallel degree must be >= 1");
    assert!(
        tp <= cfg.heads,
        "{}: tp ({tp}) exceeds head count ({}) — some rank would hold no head",
        cfg.name,
        cfg.heads
    );
    let tp64 = tp as u64;
    let h = cfg.hidden as u64;
    let ffn = cfg.ffn_hidden() as u64;
    let rows = shape.rows();
    let heads_local = (cfg.heads as u64).div_ceil(tp64);
    let shard_h = heads_local * cfg.head_dim() as u64;
    let (q_len, kv_len) = match shape.phase {
        Phase::Prefill { seq_len } => (seq_len as u64, seq_len as u64),
        Phase::Decode { context } => (1, context as u64 + 1),
    };
    let dtype = cfg.dtype_bytes as u64;
    let ar_bytes = rows * h * dtype;

    let mut push = |op: LayerOp| emit(PlacedOp { layer, op });

    // -- attention half ------------------------------------------------------
    push(LayerOp::LayerNorm { rows, hidden: h });
    push(LayerOp::Gemm { m: rows, k: h, n: 3 * shard_h, kind: GemmKind::Qkv });
    push(LayerOp::Attention {
        batch: shape.batch as u64,
        heads: heads_local,
        q_len,
        kv_len,
        head_dim: cfg.head_dim() as u64,
    });
    push(LayerOp::Gemm { m: rows, k: shard_h, n: h, kind: GemmKind::AttnOut });
    if tp > 1 {
        push(LayerOp::AllReduce { bytes: ar_bytes, ranks: tp });
    }
    push(LayerOp::Residual { rows, hidden: h });

    // -- MLP half --------------------------------------------------------------
    push(LayerOp::LayerNorm { rows, hidden: h });
    push(LayerOp::Gemm { m: rows, k: h, n: ffn.div_ceil(tp64), kind: GemmKind::Fc1 });
    push(LayerOp::Gelu { rows, width: ffn.div_ceil(tp64) });
    push(LayerOp::Gemm { m: rows, k: ffn.div_ceil(tp64), n: h, kind: GemmKind::Fc2 });
    if tp > 1 {
        push(LayerOp::AllReduce { bytes: ar_bytes, ranks: tp });
    }
    push(LayerOp::Residual { rows, hidden: h });
}

/// The two post-block ops at `tp`, in execution order: the final layer
/// norm and the (column-parallel) LM head.
pub(crate) fn head_ops(cfg: &ModelConfig, shape: BatchShape, tp: u32) -> [PlacedOp; HEAD_OPS] {
    let h = cfg.hidden as u64;
    let rows = shape.rows();
    [
        PlacedOp { layer: HEAD_LAYER, op: LayerOp::LayerNorm { rows, hidden: h } },
        PlacedOp {
            layer: HEAD_LAYER,
            op: LayerOp::Gemm {
                m: rows,
                k: h,
                n: (cfg.vocab as u64).div_ceil(tp as u64),
                kind: GemmKind::LmHead,
            },
        },
    ]
}

/// Ops of the full model on one device at tensor-parallel degree `tp`:
/// `layers` blocks, final layer norm, and the (column-parallel) LM head.
pub fn model_ops(cfg: &ModelConfig, shape: BatchShape, tp: u32) -> Vec<PlacedOp> {
    let mut ops = Vec::with_capacity(cfg.layers as usize * OPS_PER_LAYER + HEAD_OPS);
    for layer in 0..cfg.layers {
        for_each_layer_op(cfg, shape, tp, layer, |p| ops.push(p));
    }
    ops.extend(head_ops(cfg, shape, tp));
    ops
}

/// Ops of one *pipeline stage* covering layers `[lo, hi)` at `tp = 1`
/// (Inter-Op baseline). The final stage appends the head ops.
pub fn stage_ops(cfg: &ModelConfig, shape: BatchShape, lo: u32, hi: u32) -> Vec<PlacedOp> {
    assert!(lo < hi && hi <= cfg.layers, "invalid stage range [{lo},{hi}) of {}", cfg.layers);
    let mut ops = Vec::with_capacity((hi - lo) as usize * OPS_PER_LAYER + HEAD_OPS);
    for layer in lo..hi {
        for_each_layer_op(cfg, shape, 1, layer, |p| ops.push(p));
    }
    if hi == cfg.layers {
        ops.extend(head_ops(cfg, shape, 1));
    }
    ops
}

/// Bytes of the activation tensor handed between pipeline stages.
pub fn stage_boundary_bytes(cfg: &ModelConfig, shape: BatchShape) -> u64 {
    shape.rows() * cfg.hidden as u64 * cfg.dtype_bytes as u64
}

impl liger_gpu_sim::ToJson for PlacedOp {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("layer", &self.layer).field("op", &self.op);
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::KernelClass;

    fn count_allreduces(ops: &[PlacedOp]) -> usize {
        ops.iter().filter(|p| matches!(p.op, LayerOp::AllReduce { .. })).count()
    }

    #[test]
    fn megatron_layer_has_two_allreduces() {
        let cfg = ModelConfig::opt_30b();
        let ops = layer_ops(&cfg, BatchShape::prefill(2, 64), 4, 0);
        assert_eq!(count_allreduces(&ops), 2, "two all-reduce synchronizations per layer (§4.1)");
    }

    #[test]
    fn single_device_layer_has_no_comm() {
        let cfg = ModelConfig::opt_30b();
        let ops = layer_ops(&cfg, BatchShape::prefill(2, 64), 1, 0);
        assert_eq!(count_allreduces(&ops), 0);
        assert!(ops.iter().all(|p| p.op.class() == KernelClass::Compute));
    }

    #[test]
    fn tp_divides_gemm_widths() {
        let cfg = ModelConfig::opt_30b();
        let full = layer_ops(&cfg, BatchShape::prefill(2, 64), 1, 0);
        let quarter = layer_ops(&cfg, BatchShape::prefill(2, 64), 4, 0);
        let qkv = |ops: &[PlacedOp]| {
            ops.iter()
                .find_map(|p| match p.op {
                    LayerOp::Gemm { n, kind: GemmKind::Qkv, .. } => Some(n),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(qkv(&full), 3 * 7168);
        assert_eq!(qkv(&quarter), 3 * 7168 / 4);
        // Row-parallel FC2 divides k instead of n.
        let fc2 = |ops: &[PlacedOp]| {
            ops.iter()
                .find_map(|p| match p.op {
                    LayerOp::Gemm { k, n, kind: GemmKind::Fc2, .. } => Some((k, n)),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(fc2(&full), (4 * 7168, 7168));
        assert_eq!(fc2(&quarter), (7168, 7168));
    }

    #[test]
    fn decode_uses_kv_cache_span() {
        let cfg = ModelConfig::opt_30b();
        let ops = layer_ops(&cfg, BatchShape::decode(32, 100), 4, 0);
        let attn = ops
            .iter()
            .find_map(|p| match p.op {
                LayerOp::Attention { q_len, kv_len, .. } => Some((q_len, kv_len)),
                _ => None,
            })
            .unwrap();
        assert_eq!(attn, (1, 101));
    }

    #[test]
    fn model_ops_cover_all_layers_plus_head() {
        let cfg = ModelConfig::tiny_test();
        let ops = model_ops(&cfg, BatchShape::prefill(2, 16), 2);
        let per_layer = layer_ops(&cfg, BatchShape::prefill(2, 16), 2, 0).len();
        assert_eq!(ops.len(), cfg.layers as usize * per_layer + 2);
        assert!(ops.iter().any(|p| p.layer == HEAD_LAYER));
        for l in 0..cfg.layers {
            assert!(ops.iter().any(|p| p.layer == l));
        }
    }

    #[test]
    fn one_buffer_builds_match_the_per_layer_concatenation() {
        let head = |cfg: &ModelConfig, shape: BatchShape, tp: u32| {
            let rows = shape.rows();
            let h = cfg.hidden as u64;
            let n = (cfg.vocab as u64).div_ceil(tp as u64);
            [
                PlacedOp { layer: HEAD_LAYER, op: LayerOp::LayerNorm { rows, hidden: h } },
                PlacedOp {
                    layer: HEAD_LAYER,
                    op: LayerOp::Gemm { m: rows, k: h, n, kind: GemmKind::LmHead },
                },
            ]
        };
        let concat = |cfg: &ModelConfig, shape, tp, layers: std::ops::Range<u32>| {
            layers.flat_map(|l| layer_ops(cfg, shape, tp, l)).collect::<Vec<_>>()
        };
        for cfg in [ModelConfig::tiny_test(), ModelConfig::opt_30b()] {
            for shape in [BatchShape::prefill(2, 16), BatchShape::decode(8, 40)] {
                // tp = 3 exercises the uneven critical-path shard.
                for tp in [1, 2, 3, 4] {
                    let mut want = concat(&cfg, shape, tp, 0..cfg.layers);
                    want.extend(head(&cfg, shape, tp));
                    assert_eq!(model_ops(&cfg, shape, tp), want, "{} tp={tp}", cfg.name);
                }
                let mid = cfg.layers / 2;
                assert_eq!(stage_ops(&cfg, shape, 0, mid), concat(&cfg, shape, 1, 0..mid));
                let mut want = concat(&cfg, shape, 1, mid..cfg.layers);
                want.extend(head(&cfg, shape, 1));
                assert_eq!(stage_ops(&cfg, shape, mid, cfg.layers), want, "{}", cfg.name);
            }
        }
    }

    #[test]
    fn stage_ops_partition_the_model() {
        let cfg = ModelConfig::tiny_test();
        let shape = BatchShape::prefill(2, 16);
        let s0 = stage_ops(&cfg, shape, 0, 2);
        let s1 = stage_ops(&cfg, shape, 2, 4);
        assert_eq!(count_allreduces(&s0), 0, "pipeline stages run tp=1");
        // Only the final stage carries the head.
        assert!(!s0.iter().any(|p| p.layer == HEAD_LAYER));
        assert!(s1.iter().any(|p| p.layer == HEAD_LAYER));
    }

    #[test]
    fn boundary_bytes() {
        let cfg = ModelConfig::opt_30b();
        assert_eq!(stage_boundary_bytes(&cfg, BatchShape::prefill(2, 64)), 128 * 7168 * 2);
        assert_eq!(stage_boundary_bytes(&cfg, BatchShape::decode(32, 50)), 32 * 7168 * 2);
    }

    #[test]
    fn uneven_tp_models_the_largest_shard() {
        // 8 heads over 3 survivors: the critical-path rank holds
        // ceil(8/3) = 3 heads, and every shard width follows it.
        let cfg = ModelConfig::tiny_test(); // 8 heads
        let hd = cfg.head_dim() as u64;
        let ops = layer_ops(&cfg, BatchShape::prefill(1, 8), 3, 0);
        let qkv_n = ops
            .iter()
            .find_map(|p| match p.op {
                LayerOp::Gemm { n, kind: GemmKind::Qkv, .. } => Some(n),
                _ => None,
            })
            .unwrap();
        assert_eq!(qkv_n, 3 * 3 * hd);
        let heads = ops
            .iter()
            .find_map(|p| match p.op {
                LayerOp::Attention { heads, .. } => Some(heads),
                _ => None,
            })
            .unwrap();
        assert_eq!(heads, 3);
        // An uneven shard is strictly wider than the even 4-way shard and
        // strictly narrower than the 2-way shard: capacity degrades
        // monotonically as survivors are lost.
        let even4 = layer_ops(&cfg, BatchShape::prefill(1, 8), 4, 0);
        let even2 = layer_ops(&cfg, BatchShape::prefill(1, 8), 2, 0);
        let width = |ops: &[PlacedOp]| {
            ops.iter()
                .find_map(|p| match p.op {
                    LayerOp::Gemm { n, kind: GemmKind::Qkv, .. } => Some(n),
                    _ => None,
                })
                .unwrap()
        };
        assert!(width(&even4) < qkv_n && qkv_n < width(&even2));
    }

    #[test]
    #[should_panic(expected = "exceeds head count")]
    fn tp_beyond_heads_panics() {
        let cfg = ModelConfig::tiny_test(); // 8 heads
        layer_ops(&cfg, BatchShape::prefill(1, 8), 9, 0);
    }

    #[test]
    #[should_panic(expected = "invalid stage range")]
    fn stage_range_is_checked() {
        let cfg = ModelConfig::tiny_test();
        stage_ops(&cfg, BatchShape::prefill(1, 8), 2, 9);
    }
}
