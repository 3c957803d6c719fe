//! The multi-GPU multi-stream scheduling algorithm (§3.4, Algorithm 1),
//! extended with contention anticipation (§3.5) and runtime kernel
//! decomposition (§3.6).
//!
//! Each scheduling round identifies two kernel subsets with matched
//! durations:
//!
//! * the **primary subset**: the maximal same-class run at the head of the
//!   earliest-arrived batch's `FuncVec`, collected up to (and including) the
//!   kernel whose successor switches class. Its accumulated duration is the
//!   overlap *window*;
//! * the **secondary subset**: opposite-class kernels drawn in arrival
//!   order from the subsequent batches, packed while their durations —
//!   *scaled by the contention factor* — still fit the window. When the
//!   next candidate kernel is too long but decomposable, the largest
//!   fractional piece (at the configured division factor) that still fits
//!   is carved off and the remainder pushed back.
//!
//! Scaling secondary durations guarantees the secondary subset's real
//! (contended) execution never outlasts the primary run, preserving
//! Principle 1 (the early-arrived batch's latency is untouched).
//!
//! Note: the paper's Algorithm 1 pseudocode contains an inverted branch
//! (`if time > V.duration then time = 0` would *reject* kernels that fit);
//! we implement the evidently intended semantics — take the kernel when it
//! fits, otherwise stop filling.

use std::collections::VecDeque;

use liger_gpu_sim::{KernelClass, SimDuration};
use liger_model::{split_op, CostModel, PricedOp};

use crate::funcvec::FuncVec;

/// One kernel scheduled into a round, with its owning batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchItem {
    /// Owning batch id.
    pub batch: u64,
    /// The kernel.
    pub op: PricedOp,
    /// True when this is the batch's final kernel (completion notification
    /// must follow it).
    pub completes_batch: bool,
}

/// The two subsets of one scheduling round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// SubSet0: the primary batch's run (all the same class).
    pub primary: Vec<LaunchItem>,
    /// SubSet1: opposite-class kernels from subsequent batches.
    pub secondary: Vec<LaunchItem>,
    /// Class of the primary run.
    pub primary_class: KernelClass,
    /// Accumulated (unscaled) duration of the primary run.
    pub window: SimDuration,
}

impl RoundPlan {
    /// Class of the secondary subset.
    pub fn secondary_class(&self) -> KernelClass {
        self.primary_class.opposite()
    }

    /// Total kernels in the round.
    pub fn len(&self) -> usize {
        self.primary.len() + self.secondary.len()
    }

    /// True when the round holds no kernels.
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty() && self.secondary.is_empty()
    }
}

impl Default for RoundPlan {
    /// An empty plan, ready to be filled by [`plan_round_into`].
    fn default() -> RoundPlan {
        RoundPlan {
            primary: Vec::new(),
            secondary: Vec::new(),
            primary_class: KernelClass::Compute,
            window: SimDuration::ZERO,
        }
    }
}

/// Scheduling knobs consumed by [`plan_round`].
#[derive(Debug, Clone, Copy)]
pub struct PlanParams {
    /// Contention factor applied to secondary durations (≥ 1).
    pub contention_factor: f64,
    /// Division factor for runtime decomposition (≥ 1).
    pub division_factor: u32,
    /// Whether decomposition is enabled at all.
    pub enable_decomposition: bool,
    /// Worst active straggler slowdown across the node (1.0 when healthy).
    /// Secondary durations are additionally scaled by this, shrinking the
    /// left-over budget packed behind the window on a degraded device so the
    /// primary batch's latency stays protected even when kernels run slow.
    pub straggler_factor: f64,
}

/// Plans one round over the processing list (`processing[0]` is the primary
/// batch). Pops scheduled kernels from the `FuncVec`s; decomposed remainders
/// are pushed back at their batch's front. Returns `None` when the
/// processing list is empty. Allocates a fresh plan; a caller planning round
/// after round should reuse one through [`plan_round_into`].
pub fn plan_round(
    processing: &mut VecDeque<FuncVec>,
    params: &PlanParams,
    cm: &CostModel,
) -> Option<RoundPlan> {
    let mut plan = RoundPlan::default();
    plan_round_into(processing, params, cm, &mut plan).then_some(plan)
}

/// [`plan_round`] into a caller-owned plan: clears `plan` and refills its
/// subsets, so once their buffers have grown to the largest round seen, a
/// round allocates nothing. Returns false (leaving `plan` empty) when the
/// processing list is empty.
pub fn plan_round_into(
    processing: &mut VecDeque<FuncVec>,
    params: &PlanParams,
    cm: &CostModel,
    plan: &mut RoundPlan,
) -> bool {
    debug_assert!(params.contention_factor >= 1.0);
    plan.primary.clear();
    plan.secondary.clear();
    plan.window = SimDuration::ZERO;
    // Fold the straggler slowdown into the contention factor: both stretch
    // secondary kernels relative to the window the same way.
    let params = &PlanParams {
        contention_factor: params.contention_factor * params.straggler_factor.max(1.0),
        straggler_factor: 1.0,
        ..*params
    };
    let Some(primary_batch) = processing.front_mut() else { return false };
    let primary_id = primary_batch.batch_id;
    let Some(primary_class) = primary_batch.next_class() else { return false };
    plan.primary_class = primary_class;

    // -- collect the primary run (Algorithm 1, lines 4-9) ---------------------
    loop {
        let ends_run = primary_batch.switch();
        // Copy the head out through `peek` and drop `pop`'s copy: the
        // 64-byte op then goes to the plan in one move, not through
        // `pop`'s `Option` (a third of a one-batch round's time).
        let Some(&op) = primary_batch.peek() else { break };
        primary_batch.pop();
        plan.window += op.duration;
        let completes = primary_batch.is_empty();
        plan.primary.push(LaunchItem { batch: primary_id, op, completes_batch: completes });
        if ends_run {
            break;
        }
    }
    debug_assert!(!plan.primary.is_empty());
    debug_assert!(plan.primary.iter().all(|i| i.op.class() == primary_class));

    // -- fill the secondary subset (lines 10-20 + §3.5 + §3.6) ----------------
    let want = primary_class.opposite();
    let mut remaining = plan.window;
    'batches: for v in processing.iter_mut().skip(1) {
        while remaining > SimDuration::ZERO {
            let Some(head) = v.peek() else { break };
            if head.class() != want {
                break; // same type as primary: leave this batch alone
            }
            let scaled = head.duration.scale(params.contention_factor);
            if scaled <= remaining {
                let op = *head;
                v.pop();
                remaining = remaining.saturating_sub(scaled);
                let completes = v.is_empty();
                plan.secondary.push(LaunchItem {
                    batch: v.batch_id,
                    op,
                    completes_batch: completes,
                });
                continue;
            }
            // Too long to fit whole: try to carve a fractional piece (§3.6).
            if params.enable_decomposition
                && params.division_factor > 1
                && head.op_ref().decomposable()
            {
                if let Some(item) = carve_piece(v, remaining, params, cm) {
                    plan.secondary.push(item);
                }
            }
            // Whether or not a piece fit, the window is now exhausted
            // (Algorithm 1 sets time = 0 on the first miss).
            break 'batches;
        }
        if remaining.is_zero() {
            break;
        }
    }
    true
}

/// Finds the largest `j/F` piece of `v`'s head whose *scaled* duration fits
/// `remaining`; pops the head, pushes the tail back, and returns the piece.
fn carve_piece(
    v: &mut FuncVec,
    remaining: SimDuration,
    params: &PlanParams,
    cm: &CostModel,
) -> Option<LaunchItem> {
    let head = *v.peek()?;
    let f = params.division_factor;
    for j in (1..f).rev() {
        let Some((piece, rest)) = split_op(&head.placed.op, j, f) else {
            continue;
        };
        let piece_dur = cm.op_time(&piece);
        if piece_dur.scale(params.contention_factor) <= remaining {
            v.pop();
            v.push_front(PricedOp {
                placed: liger_model::PlacedOp { layer: head.placed.layer, op: rest },
                duration: cm.op_time(&rest),
            });
            return Some(LaunchItem {
                batch: v.batch_id,
                op: PricedOp {
                    placed: liger_model::PlacedOp { layer: head.placed.layer, op: piece },
                    duration: piece_dur,
                },
                // The tail was pushed back, so this never completes a batch.
                completes_batch: false,
            });
        }
    }
    None
}

/// Accessor used by the planner (keeps `PricedOp` internals in one place).
trait OpRef {
    fn op_ref(&self) -> &liger_model::LayerOp;
}

impl OpRef for PricedOp {
    fn op_ref(&self) -> &liger_model::LayerOp {
        &self.placed.op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::SimTime;
    use liger_model::{BatchShape, GemmKind, LayerOp, PlacedOp};

    fn compute(us: u64) -> PricedOp {
        PricedOp {
            placed: PlacedOp {
                layer: 0,
                op: LayerOp::Gemm { m: 128, k: 4096, n: 4096, kind: GemmKind::Fc1 },
            },
            duration: SimDuration::from_micros(us),
        }
    }

    fn comm(us: u64) -> PricedOp {
        PricedOp {
            placed: PlacedOp { layer: 0, op: LayerOp::AllReduce { bytes: 1 << 20, ranks: 4 } },
            duration: SimDuration::from_micros(us),
        }
    }

    fn fv(id: u64, ops: Vec<PricedOp>) -> FuncVec {
        FuncVec::from_ops(id, BatchShape::prefill(1, 16), SimTime::ZERO, ops)
    }

    fn params() -> PlanParams {
        PlanParams {
            contention_factor: 1.0,
            division_factor: 1,
            enable_decomposition: false,
            straggler_factor: 1.0,
        }
    }

    fn cm() -> CostModel {
        CostModel::v100_node()
    }

    #[test]
    fn empty_processing_list_yields_none() {
        let mut q = VecDeque::new();
        assert!(plan_round(&mut q, &params(), &cm()).is_none());
    }

    #[test]
    fn primary_is_the_maximal_run_including_switch_kernel() {
        let mut q = VecDeque::from([fv(0, vec![compute(10), compute(20), comm(5), compute(1)])]);
        let plan = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(plan.primary.len(), 2, "both compute kernels, stopping before the comm");
        assert_eq!(plan.primary_class, KernelClass::Compute);
        assert_eq!(plan.window, SimDuration::from_micros(30));
        assert!(plan.secondary.is_empty(), "no subsequent batches");
        // The comm kernel stays at the head for the next round.
        assert_eq!(q[0].next_class(), Some(KernelClass::Comm));
        assert_eq!(q[0].len(), 2);
    }

    #[test]
    fn rounds_alternate_classes() {
        let mut q = VecDeque::from([fv(0, vec![compute(10), comm(5), comm(6), compute(2)])]);
        let p1 = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(p1.primary_class, KernelClass::Compute);
        let p2 = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(p2.primary_class, KernelClass::Comm);
        assert_eq!(p2.primary.len(), 2);
        assert_eq!(p2.window, SimDuration::from_micros(11));
        let p3 = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(p3.primary_class, KernelClass::Compute);
        assert!(q[0].is_empty());
    }

    #[test]
    fn secondary_fills_opposite_class_within_window() {
        let mut q = VecDeque::from([
            fv(0, vec![compute(100), comm(1)]),
            fv(1, vec![comm(30), comm(30), comm(30), comm(30)]),
        ]);
        let plan = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(plan.primary_class, KernelClass::Compute);
        assert_eq!(plan.window, SimDuration::from_micros(100));
        // 3 x 30us fit into 100us; the 4th does not.
        assert_eq!(plan.secondary.len(), 3);
        assert!(plan.secondary.iter().all(|i| i.op.class() == KernelClass::Comm));
        assert!(plan.secondary.iter().all(|i| i.batch == 1));
        assert_eq!(q[1].len(), 1);
    }

    #[test]
    fn secondary_skips_batches_whose_head_matches_primary_class() {
        let mut q = VecDeque::from([
            fv(0, vec![compute(100), comm(1)]),
            fv(1, vec![compute(10), comm(10)]), // head is compute: skipped
            fv(2, vec![comm(20)]),
        ]);
        let plan = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(plan.secondary.len(), 1);
        assert_eq!(plan.secondary[0].batch, 2);
        assert_eq!(q[1].len(), 2, "batch 1 untouched");
    }

    #[test]
    fn contention_factor_shrinks_the_effective_window() {
        let mk = || {
            VecDeque::from([
                fv(0, vec![compute(100), comm(1)]),
                fv(1, vec![comm(30), comm(30), comm(30), comm(30)]),
            ])
        };
        // Unscaled: 3 kernels fit. Scaled by 1.2 (36us each): only 2 fit.
        let mut q = mk();
        let p =
            plan_round(&mut q, &PlanParams { contention_factor: 1.2, ..params() }, &cm()).unwrap();
        assert_eq!(p.secondary.len(), 2);
        // Invariant: scaled secondary total never exceeds the window.
        let scaled: u64 = p.secondary.iter().map(|i| i.op.duration.scale(1.2).as_nanos()).sum();
        assert!(scaled <= p.window.as_nanos());
    }

    #[test]
    fn straggler_factor_shrinks_packing_like_contention() {
        let mk = || {
            VecDeque::from([
                fv(0, vec![compute(100), comm(1)]),
                fv(1, vec![comm(30), comm(30), comm(30), comm(30)]),
            ])
        };
        // A 1.2x straggler has the same effect as a 1.2x contention factor.
        let mut q = mk();
        let p =
            plan_round(&mut q, &PlanParams { straggler_factor: 1.2, ..params() }, &cm()).unwrap();
        assert_eq!(p.secondary.len(), 2);
        // They compound: 1.2 * 1.25 = 1.5 => 45us each, only 2 fit... 2*45=90.
        let mut q = mk();
        let p = plan_round(
            &mut q,
            &PlanParams { contention_factor: 1.2, straggler_factor: 1.25, ..params() },
            &cm(),
        )
        .unwrap();
        assert_eq!(p.secondary.len(), 2);
        let scaled: u64 = p.secondary.iter().map(|i| i.op.duration.scale(1.5).as_nanos()).sum();
        assert!(scaled <= p.window.as_nanos());
        // Sub-1.0 factors never *grow* the budget.
        let mut q = mk();
        let p =
            plan_round(&mut q, &PlanParams { straggler_factor: 0.5, ..params() }, &cm()).unwrap();
        assert_eq!(p.secondary.len(), 3, "clamped to healthy packing");
    }

    #[test]
    fn first_miss_stops_packing_across_batches() {
        // Algorithm 1: the first kernel that does not fit zeroes the window —
        // later batches are not consulted.
        let mut q = VecDeque::from([
            fv(0, vec![compute(50), comm(1)]),
            fv(1, vec![comm(60)]), // does not fit
            fv(2, vec![comm(10)]), // would fit, but packing already stopped
        ]);
        let plan = plan_round(&mut q, &params(), &cm()).unwrap();
        assert!(plan.secondary.is_empty());
        assert_eq!(q[1].len(), 1);
        assert_eq!(q[2].len(), 1);
    }

    #[test]
    fn decomposition_carves_the_largest_fitting_piece() {
        let cm = cm();
        // A real all-reduce op so the cost model can price pieces.
        let whole = LayerOp::AllReduce { bytes: 16 << 20, ranks: 4 };
        let whole_priced =
            PricedOp { placed: PlacedOp { layer: 0, op: whole }, duration: cm.op_time(&whole) };
        let window_op = compute(whole_priced.duration.as_nanos() / 1000 / 2); // ~half the AR
        let mut q = VecDeque::from([
            fv(0, vec![window_op, comm(1)]),
            fv(1, vec![whole_priced, compute(1)]),
        ]);
        let p = PlanParams { division_factor: 8, enable_decomposition: true, ..params() };
        let plan = plan_round(&mut q, &p, &cm).unwrap();
        assert_eq!(plan.secondary.len(), 1, "a piece was carved");
        let piece = &plan.secondary[0];
        assert!(!piece.completes_batch);
        assert!(piece.op.duration <= plan.window);
        // The remainder sits back at the batch head, same class.
        let rest = q[1].peek().unwrap();
        assert_eq!(rest.class(), KernelClass::Comm);
        match (piece.op.placed.op, rest.placed.op) {
            (LayerOp::AllReduce { bytes: b1, .. }, LayerOp::AllReduce { bytes: b2, .. }) => {
                assert_eq!(b1 + b2, 16 << 20, "payload conserved");
                assert!(b1 > 0 && b2 > 0);
            }
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn decomposition_disabled_leaves_long_kernels_whole() {
        let cm = cm();
        let whole = LayerOp::AllReduce { bytes: 16 << 20, ranks: 4 };
        let whole_priced =
            PricedOp { placed: PlacedOp { layer: 0, op: whole }, duration: cm.op_time(&whole) };
        let mut q = VecDeque::from([fv(0, vec![compute(100), comm(1)]), fv(1, vec![whole_priced])]);
        let plan = plan_round(&mut q, &params(), &cm).unwrap();
        assert!(plan.secondary.is_empty());
        assert_eq!(q[1].len(), 1);
    }

    #[test]
    fn completes_batch_flags_final_kernels() {
        let mut q = VecDeque::from([fv(0, vec![compute(10)]), fv(1, vec![comm(5)])]);
        let plan = plan_round(&mut q, &params(), &cm()).unwrap();
        assert!(plan.primary[0].completes_batch);
        assert!(plan.secondary[0].completes_batch);
        assert!(q[0].is_empty() && q[1].is_empty());
    }

    #[test]
    fn plan_accessors() {
        let mut q = VecDeque::from([fv(0, vec![compute(10), comm(5)])]);
        let plan = plan_round(&mut q, &params(), &cm()).unwrap();
        assert_eq!(plan.secondary_class(), KernelClass::Comm);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }
}
