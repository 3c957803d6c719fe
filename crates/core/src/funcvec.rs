//! Function assembly (§3.2).
//!
//! For each newly arrived batch, Liger assembles the ordered list of kernel
//! launch functions — each wrapper carrying the kernel's duration, type,
//! batch size and sequence length — which the scheduler consumes when
//! building subsets. Every transformer block emits the same kernels at the
//! same durations, so a [`FuncVec`] stores the list in template form: one
//! block's priced ops and the priced head ops from
//! [`liger_model::assemble_template`], a cursor over the block's repetitions
//! and a one-slot front for the remainder runtime decomposition pushes back.
//! It hands out exactly the ops of [`liger_model::assemble`], layer indices
//! included, while what it stores and what assembly prices no longer grow
//! with the model's depth (14 ops instead of 578 for OPT-30B). The engine
//! assembles each batch into the op buffer of one it has fully scheduled
//! ([`FuncVec::assemble_in`]), so steady-state assembly allocates nothing.
//! The paper's
//! function assembler also owns each batch's last-launched stream and
//! cross-stream dependency event; here the launch sequence keeps those, as
//! it is their only reader.

use liger_gpu_sim::{KernelClass, SimTime};
use liger_model::{assemble_template_into, BatchShape, CostModel, ModelConfig, PricedOp};

/// The assembled kernel-launch list of one batch.
#[derive(Debug, Clone)]
pub struct FuncVec {
    /// Batch (request) id.
    pub batch_id: u64,
    /// Batch shape (batch size + sequence length, per §3.2).
    pub shape: BatchShape,
    /// Arrival instant (drives the priority order of Principle 1).
    pub arrived: SimTime,
    /// `block` template ops, repeated for `layers` layers, then the tail.
    /// The template ops carry the layer of the repetition being handed out.
    ops: Vec<PricedOp>,
    /// Template ops per layer (0 for an explicit list: all tail).
    block: u32,
    /// Repetitions of the template (the model's layers).
    layers: u32,
    /// Index into `ops` of the next op after `front`.
    next: u32,
    /// Repetition the template op at `next` belongs to.
    layer: u32,
    /// A pushed-back op, handed out before `ops[next]`.
    front: Option<PricedOp>,
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
        FuncVec::assemble_in(Vec::new(), batch_id, shape, arrived, cm, cfg, tp)
    }

    /// [`assemble`](Self::assemble) into `buf`, typically the op buffer of
    /// a fully scheduled list: whatever it held is replaced, and once it has
    /// room for one priced block the assembly allocates nothing.
    pub fn assemble_in(
        buf: Vec<PricedOp>,
        batch_id: u64,
        shape: BatchShape,
        arrived: SimTime,
        cm: &CostModel,
        cfg: &ModelConfig,
        tp: u32,
    ) -> FuncVec {
        let mut ops = buf;
        let block = assemble_template_into(cm, cfg, shape, tp, &mut ops);
        let layers = cfg.layers;
        let next = if layers == 0 { block as u32 } else { 0 };
        let v = FuncVec {
            batch_id,
            shape,
            arrived,
            ops,
            block: block as u32,
            layers,
            next,
            layer: 0,
            front: None,
        };
        #[cfg(debug_assertions)]
        {
            // Structural oracle: the sequence this list hands out must be a
            // well-formed Megatron forward pass before the scheduler
            // consumes it.
            let mut rest = v.clone();
            let mut ops = Vec::with_capacity(v.len());
            while let Some(op) = rest.pop() {
                ops.push(op.placed);
            }
            if let Err(e) = liger_model::validate_sequence(cfg, shape, tp, &ops) {
                panic!("assembled an invalid kernel sequence: {e}");
            }
        }
        v
    }

    /// Builds a FuncVec from an explicit op list (tests, custom workloads),
    /// stored as zero repetitions of an empty template and `ops` as tail.
    pub fn from_ops(
        batch_id: u64,
        shape: BatchShape,
        arrived: SimTime,
        ops: Vec<PricedOp>,
    ) -> FuncVec {
        FuncVec {
            batch_id,
            shape,
            arrived,
            ops,
            block: 0,
            layers: 0,
            next: 0,
            layer: 0,
            front: None,
        }
    }

    /// The list's op buffer, for [`assemble_in`](Self::assemble_in) to
    /// reuse once the batch is fully scheduled.
    pub(crate) fn into_ops(self) -> Vec<PricedOp> {
        self.ops
    }

    /// Remaining kernels.
    pub fn len(&self) -> usize {
        let next = self.next as usize;
        let later_layers = if next < self.block as usize {
            (self.layers - self.layer - 1) as usize * self.block as usize
        } else {
            0
        };
        self.front.is_some() as usize + self.ops.len() - next + later_layers
    }

    /// True when every kernel has been scheduled.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.next as usize >= self.ops.len()
    }

    /// The next kernel, if any.
    pub fn peek(&self) -> Option<&PricedOp> {
        self.front.as_ref().or_else(|| self.ops.get(self.next as usize))
    }

    /// Class of the next kernel.
    pub fn next_class(&self) -> Option<KernelClass> {
        self.peek().map(PricedOp::class)
    }

    /// True when the kernel *after* the head switches class (the head is the
    /// last kernel of the current run) — the paper's `switch()` predicate.
    pub fn switch(&self) -> bool {
        let (head, after) = match &self.front {
            Some(front) => (Some(front), self.ops.get(self.next as usize)),
            None => (self.ops.get(self.next as usize), self.ops.get(self.after_next() as usize)),
        };
        match (head, after) {
            (Some(head), Some(next)) => head.class() != next.class(),
            (Some(_), None) => true, // last kernel overall ends the run
            _ => false,
        }
    }

    /// Pops the next kernel.
    pub fn pop(&mut self) -> Option<PricedOp> {
        if self.front.is_some() {
            return self.front.take();
        }
        let op = *self.ops.get(self.next as usize)?;
        let next = self.after_next();
        if next <= self.next {
            // Into the next repetition: renumber the whole template at once,
            // so a pop never reloads an op it has just written to.
            self.layer += 1;
            for op in &mut self.ops[..self.block as usize] {
                op.placed.layer = self.layer;
            }
        }
        self.next = next;
        Some(op)
    }

    /// Puts `op` ahead of the remaining kernels (used when runtime
    /// decomposition carves a piece off the head and pushes the remainder
    /// back). The front holds one op: push again only after a pop.
    pub fn push_front(&mut self, op: PricedOp) {
        let displaced = self.front.replace(op);
        assert!(displaced.is_none(), "FuncVec::push_front: the front already holds an op");
    }

    /// Index into `ops` of the op after `ops[next]`: the template wraps to
    /// its start until the last repetition, then runs into the tail.
    fn after_next(&self) -> u32 {
        if self.next + 1 == self.block && self.layer + 1 < self.layers {
            0
        } else {
            self.next + 1
        }
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

    #[test]
    #[should_panic(expected = "front already holds an op")]
    fn push_front_holds_one_op() {
        use KernelClass::*;
        let mut v = fv(vec![op(Compute, 10)]);
        v.push_front(op(Compute, 3));
        v.push_front(op(Compute, 2));
    }
}
