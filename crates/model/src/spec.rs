//! Speculative-decoding cost entries: the draft model and the price of one
//! draft-then-verify round.
//!
//! Speculative decoding runs a small *draft* model `k` sequential steps
//! ahead of the served model, then verifies all `k` proposals (plus the
//! bonus token) in one batched target-model pass. The scheduler only needs
//! two numbers from the model layer: how long the draft burst takes
//! ([`spec_draft_time`]) and what shape the batched verification submits
//! ([`spec_verify_shape`]). Acceptance itself is a property of the token
//! distributions, not the hardware, so it lives with the serving layer's
//! seeded acceptance sampler.

use liger_gpu_sim::SimDuration;

use crate::assembly::iteration_time;
use crate::config::ModelConfig;
use crate::cost::CostModel;
use crate::workload::BatchShape;

/// Derives a draft model for `target`: a quarter of the layers at half the
/// width (heads halved with the head dimension preserved), the standard
/// "same family, one size down" draft choice. Falls back to the smallest
/// legal geometry for models too small to shrink.
pub fn draft_model_for(target: &ModelConfig) -> ModelConfig {
    let heads = if target.heads >= 2 { target.heads / 2 } else { target.heads };
    let hidden = heads * target.head_dim();
    ModelConfig {
        name: format!("{}-draft", target.name),
        layers: (target.layers / 4).max(1),
        heads,
        hidden,
        vocab: target.vocab,
        dtype_bytes: target.dtype_bytes,
    }
}

/// Wall-clock cost of one draft burst: `k` strictly sequential single-token
/// decode steps of `draft` over `rows` sequences, contexts growing from
/// `context`, priced through the roofline `cost` model on one device (the
/// draft is small enough to run unsharded). Zero when `k` is zero.
pub fn spec_draft_time(
    draft: &ModelConfig,
    cost: &CostModel,
    rows: u32,
    context: u32,
    k: u32,
) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for step in 0..k {
        let shape = BatchShape::decode(rows.max(1), context + step);
        total += iteration_time(cost, draft, shape, 1);
    }
    total
}

/// Shape of the batched verification pass: every sequence re-scores its `k`
/// draft tokens plus the bonus token in one target-model decode, so the
/// batch widens to `rows × (k + 1)` single-token rows attending over up to
/// `max_context + k` cached tokens.
pub fn spec_verify_shape(rows: u32, max_context: u32, k: u32) -> BatchShape {
    BatchShape::decode(rows.max(1) * (k + 1), max_context + k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::model_ops;

    #[test]
    fn draft_models_are_valid_and_smaller() {
        for target in
            [ModelConfig::opt_30b(), ModelConfig::gpt_8b(), ModelConfig::tiny_test()].iter()
        {
            let draft = draft_model_for(target);
            draft.validate().unwrap();
            assert!(draft.weight_bytes() < target.weight_bytes());
            assert_eq!(draft.head_dim(), target.head_dim(), "head geometry preserved");
            assert!(draft.name.contains("-draft"));
        }
    }

    #[test]
    fn draft_of_a_minimal_model_stays_legal() {
        let mut tiny = ModelConfig::tiny_test();
        tiny.layers = 1;
        tiny.heads = 1;
        tiny.hidden = 64;
        let draft = draft_model_for(&tiny);
        draft.validate().unwrap();
        assert_eq!(draft.layers, 1);
    }

    #[test]
    fn draft_time_scales_with_k_and_is_cheaper_than_target() {
        let target = ModelConfig::gpt_8b();
        let draft = draft_model_for(&target);
        let cost = CostModel::v100_node();
        let one = spec_draft_time(&draft, &cost, 4, 128, 1);
        let op_by_op: SimDuration = model_ops(&draft, BatchShape::decode(4, 128), 1)
            .iter()
            .map(|p| cost.op_time(&p.op))
            .sum();
        assert_eq!(one, op_by_op, "one draft step is one full-stack decode");
        let four = spec_draft_time(&draft, &cost, 4, 128, 4);
        assert!(four > one, "more draft steps cost more");
        assert_eq!(spec_draft_time(&draft, &cost, 4, 128, 0), SimDuration::ZERO);
        // The whole point: k draft steps undercut k target steps.
        let target_k: SimDuration = (0..4)
            .map(|j| {
                model_ops(&target, BatchShape::decode(4, 128 + j), 1)
                    .iter()
                    .map(|p| cost.op_time(&p.op))
                    .sum::<SimDuration>()
            })
            .sum();
        assert!(four < target_k, "draft burst {four} must undercut target steps {target_k}");
    }

    #[test]
    fn verify_shape_widens_the_batch() {
        let shape = spec_verify_shape(3, 100, 4);
        assert_eq!(shape.batch, 15, "rows x (k + 1)");
        assert_eq!(shape.phase.kv_len(), 105, "context + k + the new token");
        shape.validate().unwrap();
        assert_eq!(spec_verify_shape(2, 64, 0), BatchShape::decode(2, 64), "k=0 is a plain step");
    }
}
