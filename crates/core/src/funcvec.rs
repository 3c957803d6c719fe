//! Function assembly (§3.2).
//!
//! For each newly arrived batch, Liger assembles the ordered list of kernel
//! launch functions — each wrapper carrying the kernel's duration, type,
//! batch size and sequence length — which the scheduler consumes when
//! building subsets. Here a [`FuncVec`] wraps the priced op list produced by
//! [`liger_model::assemble`] plus the batch's arrival order. The paper's
//! function assembler also owns each batch's last-launched stream and
//! cross-stream dependency event; here the launch sequence keeps those, as
//! it is their only reader.

use std::collections::VecDeque;

use liger_gpu_sim::{KernelClass, SimTime};
use liger_model::{assemble, BatchShape, CostModel, ModelConfig, PricedOp};

/// The assembled kernel-launch list of one batch.
#[derive(Debug, Clone)]
pub struct FuncVec {
    /// Batch (request) id.
    pub batch_id: u64,
    /// Batch shape (batch size + sequence length, per §3.2).
    pub shape: BatchShape,
    /// Arrival instant (drives the priority order of Principle 1).
    pub arrived: SimTime,
    ops: VecDeque<PricedOp>,
}

impl FuncVec {
    /// Assembles the function list for a batch (the §3.2 online procedure).
    pub fn assemble(
        batch_id: u64,
        shape: BatchShape,
        arrived: SimTime,
        cm: &CostModel,
        cfg: &ModelConfig,
        tp: u32,
    ) -> FuncVec {
        #[cfg(debug_assertions)]
        {
            // Structural oracle: the generated sequence must be a well-formed
            // Megatron forward pass before the scheduler consumes it.
            let ops = liger_model::model_ops(cfg, shape, tp);
            if let Err(e) = liger_model::validate_sequence(cfg, shape, tp, &ops) {
                panic!("assembled an invalid kernel sequence: {e}");
            }
        }
        FuncVec { batch_id, shape, arrived, ops: assemble(cm, cfg, shape, tp).into() }
    }

    /// Builds a FuncVec from an explicit op list (tests, custom workloads).
    pub fn from_ops(
        batch_id: u64,
        shape: BatchShape,
        arrived: SimTime,
        ops: Vec<PricedOp>,
    ) -> FuncVec {
        FuncVec { batch_id, shape, arrived, ops: ops.into() }
    }

    /// Remaining kernels.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when every kernel has been scheduled.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The next kernel, if any.
    pub fn peek(&self) -> Option<&PricedOp> {
        self.ops.front()
    }

    /// Class of the next kernel.
    pub fn next_class(&self) -> Option<KernelClass> {
        self.ops.front().map(|op| op.class())
    }

    /// True when the kernel *after* the head switches class (the head is the
    /// last kernel of the current run) — the paper's `switch()` predicate.
    pub fn switch(&self) -> bool {
        match (self.ops.front(), self.ops.get(1)) {
            (Some(head), Some(next)) => head.class() != next.class(),
            (Some(_), None) => true, // last kernel overall ends the run
            _ => false,
        }
    }

    /// Pops the next kernel.
    pub fn pop(&mut self) -> Option<PricedOp> {
        self.ops.pop_front()
    }

    /// Replaces the head with `op` (used when runtime decomposition carves a
    /// piece off the head and pushes the remainder back).
    pub fn push_front(&mut self, op: PricedOp) {
        self.ops.push_front(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::SimDuration;
    use liger_model::{GemmKind, LayerOp, PlacedOp};

    fn op(class: KernelClass, us: u64) -> PricedOp {
        let layer_op = match class {
            KernelClass::Compute => LayerOp::Gemm { m: 8, k: 8, n: 8, kind: GemmKind::Qkv },
            KernelClass::Comm => LayerOp::AllReduce { bytes: 64, ranks: 2 },
        };
        PricedOp {
            placed: PlacedOp { layer: 0, op: layer_op },
            duration: SimDuration::from_micros(us),
        }
    }

    fn fv(ops: Vec<PricedOp>) -> FuncVec {
        FuncVec::from_ops(0, BatchShape::prefill(1, 16), SimTime::ZERO, ops)
    }

    #[test]
    fn assemble_builds_the_full_model_list() {
        let cm = CostModel::v100_node();
        let cfg = ModelConfig::tiny_test();
        let v =
            FuncVec::assemble(3, BatchShape::prefill(2, 16), SimTime::from_millis(1), &cm, &cfg, 2);
        assert_eq!(v.batch_id, 3);
        assert!(!v.is_empty());
        assert_eq!(v.len(), liger_model::model_ops(&cfg, BatchShape::prefill(2, 16), 2).len());
    }

    #[test]
    fn switch_detects_class_boundaries() {
        use KernelClass::*;
        let v = fv(vec![op(Compute, 10), op(Compute, 10), op(Comm, 5)]);
        assert!(!v.switch(), "two compute kernels ahead: no switch at head");
        let v = fv(vec![op(Compute, 10), op(Comm, 5)]);
        assert!(v.switch(), "head is the last compute before a comm");
        let v = fv(vec![op(Comm, 5)]);
        assert!(v.switch(), "final kernel ends its run");
        let v = fv(vec![]);
        assert!(!v.switch());
    }

    #[test]
    fn pop_and_push_front_round_trip() {
        use KernelClass::*;
        let mut v = fv(vec![op(Compute, 10), op(Comm, 5)]);
        let head = v.pop().unwrap();
        assert_eq!(head.duration, SimDuration::from_micros(10));
        v.push_front(op(Compute, 3));
        assert_eq!(v.len(), 2);
        assert_eq!(v.peek().unwrap().duration, SimDuration::from_micros(3));
    }
}
