//! Property test for function assembly's template form: a `FuncVec` built
//! by `FuncVec::assemble` must behave exactly like the full expanded list
//! `liger_model::assemble` returns, driven as the planner drives it.
//!
//! Runs on the internal [`liger_gpu_sim::testkit`] harness; rerun a failing
//! case with the `LIGER_PROP_SEED` it prints.

use std::collections::VecDeque;

use liger_core::FuncVec;
use liger_gpu_sim::testkit::{check, Gen};
use liger_gpu_sim::{KernelClass, SimTime};
use liger_model::{assemble, split_op, BatchShape, CostModel, ModelConfig, PlacedOp, PricedOp};

/// The reference semantics: a plain queue of the expanded list.
struct Reference(VecDeque<PricedOp>);

impl Reference {
    fn next_class(&self) -> Option<KernelClass> {
        self.0.front().map(PricedOp::class)
    }

    fn switch(&self) -> bool {
        match (self.0.front(), self.0.get(1)) {
            (Some(head), Some(next)) => head.class() != next.class(),
            (Some(_), None) => true,
            _ => false,
        }
    }
}

fn assert_agree(v: &FuncVec, r: &Reference, step: usize) {
    assert_eq!(v.len(), r.0.len(), "len at step {step}");
    assert_eq!(v.is_empty(), r.0.is_empty(), "is_empty at step {step}");
    assert_eq!(v.switch(), r.switch(), "switch at step {step}");
    assert_eq!(v.next_class(), r.next_class(), "next_class at step {step}");
    assert_eq!(v.peek(), r.0.front(), "peek at step {step}");
}

/// Random presets, prefill and decode shapes and tensor-parallel degrees
/// (degraded non-divisors such as 3 or 5 over OPT-30B's 56 heads
/// included), driven through the same random pops, peeks and
/// decomposition carves (pop the head, push back a `j/f` remainder): every
/// observable and every popped op, layer index included, agree at each
/// step.
#[test]
fn template_funcvec_matches_the_expanded_list() {
    check("template_funcvec_matches_the_expanded_list", 48, |g: &mut Gen| {
        let cfg = g
            .choose(&[
                ModelConfig::tiny_test(),
                ModelConfig::opt_30b(),
                ModelConfig::gpt_8b(),
                ModelConfig::opt_66b(),
                ModelConfig::glm_130b(),
            ])
            .clone();
        let cm = if g.bool() { CostModel::v100_node() } else { CostModel::a100_node() };
        let batch = g.u32_in(1, 9);
        let shape = if g.bool() {
            BatchShape::prefill(batch, g.u32_in(1, 257))
        } else {
            BatchShape::decode(batch * 4, g.u32_in(1, 513))
        };
        let tp = g.u32_in(1, 9).min(cfg.heads);

        let mut v = FuncVec::assemble(7, shape, SimTime::ZERO, &cm, &cfg, tp);
        let mut r = Reference(assemble(&cm, &cfg, shape, tp).into());
        let mut step = 0;
        assert_agree(&v, &r, step);
        while !r.0.is_empty() {
            step += 1;
            let head = *r.0.front().unwrap();
            let f = g.u32_in(2, 9);
            let carve = g.u32_in(0, 4) == 0;
            match split_op(&head.placed.op, g.u32_in(1, f), f) {
                Some((_piece, rest)) if carve => {
                    let rest = PricedOp {
                        placed: PlacedOp { layer: head.placed.layer, op: rest },
                        duration: cm.op_time(&rest),
                    };
                    assert_eq!(v.pop(), r.0.pop_front(), "carved head at step {step}");
                    v.push_front(rest);
                    r.0.push_front(rest);
                }
                _ => assert_eq!(v.pop(), r.0.pop_front(), "pop at step {step}"),
            }
            assert_agree(&v, &r, step);
        }
        assert_eq!(v.pop(), None);
        assert!(v.is_empty() && !v.switch());
        assert_eq!(v.len(), 0);
    });
}
