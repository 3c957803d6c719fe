//! Device-memory accounting: weights, KV cache, activations — and the cost
//! model for reconstructing KV-cache state lost with a dead device.
//!
//! Used to validate that a model/parallelism/batch combination actually fits
//! the node the paper ran it on — e.g. OPT-30B (60 GB of FP16 weights) only
//! fits the 4×16 GB V100 node when partitioned four ways. The recovery half
//! ([`kv_recovery_plan`]) prices the two policies for repopulating the KV
//! shard a dead device takes with it: replaying the prefill on the survivors
//! (recompute) or copying a warm replica over the interconnect (replicate).

use liger_gpu_sim::SimDuration;

use crate::assembly::iteration_time;
use crate::config::ModelConfig;
use crate::cost::CostModel;
use crate::workload::BatchShape;

/// Memory footprint breakdown for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Weight bytes resident on this device.
    pub weights: u64,
    /// KV-cache bytes for one in-flight batch at the given context length.
    pub kv_cache: u64,
    /// Peak activation workspace bytes for one in-flight batch.
    pub activations: u64,
}

impl MemoryFootprint {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.kv_cache + self.activations
    }

    /// Block-granular view of the KV share: the number of fixed-size blocks
    /// of `block_bytes` a paged allocator needs to hold `kv_cache`, rounding
    /// the tail token span up to a whole block.
    pub fn kv_blocks(&self, block_bytes: u64) -> u64 {
        assert!(block_bytes > 0, "block size must be non-zero");
        self.kv_cache.div_ceil(block_bytes)
    }
}

/// Per-device bytes of one KV block — `block_tokens` tokens of one
/// sequence's K and V across every layer, sharded `ways` ways. This is the
/// unit the paged `liger-kvcache` pool allocates in, and it matches the
/// per-token KV term in [`device_footprint`] exactly so block counts and
/// byte footprints agree.
pub fn kv_block_bytes(cfg: &ModelConfig, ways: u32, block_tokens: u32) -> u64 {
    let ways = ways.max(1) as u64;
    2 * cfg.layers as u64 * cfg.hidden as u64 * cfg.dtype_bytes as u64 * block_tokens as u64 / ways
}

/// Blocks needed to hold `tokens` cached tokens at `block_tokens` per block
/// (ceiling division; zero tokens need zero blocks).
pub fn blocks_for_tokens(tokens: u32, block_tokens: u32) -> u64 {
    assert!(block_tokens > 0, "block size must be non-zero");
    (tokens as u64).div_ceil(block_tokens as u64)
}

/// Per-device footprint when the model is partitioned `ways` ways (either
/// tensor-parallel shards or pipeline stages — both divide weights evenly),
/// serving `in_flight` concurrent batches of `shape` with KV spans of
/// `max_context` tokens.
pub fn device_footprint(
    cfg: &ModelConfig,
    ways: u32,
    shape: BatchShape,
    max_context: u32,
    in_flight: u32,
) -> MemoryFootprint {
    let ways = ways.max(1) as u64;
    let dtype = cfg.dtype_bytes as u64;
    let h = cfg.hidden as u64;
    let weights = cfg.weight_bytes() / ways;
    // K and V per token per layer: 2 × hidden, sharded by `ways`.
    let kv_per_seq = 2 * cfg.layers as u64 * h * dtype * max_context as u64 / ways;
    let kv_cache = kv_per_seq * shape.batch as u64 * in_flight as u64;
    // Workspace: a handful of rows×(4H) tensors.
    let activations = 6 * shape.rows() * 4 * h * dtype / ways * in_flight as u64;
    MemoryFootprint { weights, kv_cache, activations }
}

/// Whether the configuration fits in `capacity` bytes per device.
pub fn fits(
    cfg: &ModelConfig,
    ways: u32,
    shape: BatchShape,
    max_context: u32,
    in_flight: u32,
    capacity: u64,
) -> bool {
    device_footprint(cfg, ways, shape, max_context, in_flight).total() <= capacity
}

/// How to reconstruct the KV-cache shard lost with a dead device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Replay the prefill of every affected sequence on the survivors. No
    /// standby memory cost, but the replay is priced through the full
    /// roofline model and can dwarf the drain itself — this is the policy
    /// under which overloaded degraded nodes shed requests.
    Recompute,
    /// Copy the lost shard from a warm replica over the interconnect. Fast
    /// (one point-to-point transfer of the lost bytes) but presumes the KV
    /// cache was mirrored while the device was healthy.
    Replicate,
}

impl RecoveryPolicy {
    /// Stable lowercase name (trace labels, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Recompute => "recompute",
            RecoveryPolicy::Replicate => "replicate",
        }
    }

    /// Parses a [`RecoveryPolicy::name`] string.
    pub fn parse(s: &str) -> Option<RecoveryPolicy> {
        match s {
            "recompute" => Some(RecoveryPolicy::Recompute),
            "replicate" => Some(RecoveryPolicy::Replicate),
            _ => None,
        }
    }
}

/// Priced plan for recovering the KV cache lost with one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRecoveryPlan {
    /// Policy this plan prices.
    pub policy: RecoveryPolicy,
    /// KV-cache bytes that died with the device (its shard of every
    /// affected sequence).
    pub lost_bytes: u64,
    /// Tokens whose prefill must be replayed (zero under replication).
    pub recompute_tokens: u64,
    /// Wall-clock duration of the recovery work on the survivors.
    pub duration: SimDuration,
}

/// Prices the recovery of the KV shard a dead device held: `seqs` in-flight
/// sequences with `context` cached tokens each, previously partitioned
/// `ways` ways, recovered on `survivors` devices using `policy`.
///
/// Recompute replays the prefill of the affected sequences through the full
/// per-device kernel sequence at the *degraded* degree (`survivors`), priced
/// by the roofline `cost` model — so the recompute bill honestly reflects
/// skinny-GEMM inefficiency and the degraded interconnect inside `cost`.
/// Replicate is one point-to-point copy of the lost bytes.
pub fn kv_recovery_plan(
    cfg: &ModelConfig,
    cost: &CostModel,
    policy: RecoveryPolicy,
    ways: u32,
    survivors: u32,
    seqs: u32,
    context: u32,
) -> KvRecoveryPlan {
    assert!(survivors >= 1, "recovery needs at least one survivor");
    let ways = ways.max(1) as u64;
    let kv_per_seq =
        2 * cfg.layers as u64 * cfg.hidden as u64 * cfg.dtype_bytes as u64 * context as u64 / ways;
    let lost_bytes = kv_per_seq * seqs as u64;
    if seqs == 0 || context == 0 {
        return KvRecoveryPlan {
            policy,
            lost_bytes,
            recompute_tokens: 0,
            duration: SimDuration::ZERO,
        };
    }
    match policy {
        RecoveryPolicy::Recompute => {
            let shape = BatchShape::prefill(seqs, context);
            let duration = iteration_time(cost, cfg, shape, survivors);
            KvRecoveryPlan {
                policy,
                lost_bytes,
                recompute_tokens: seqs as u64 * context as u64,
                duration,
            }
        }
        RecoveryPolicy::Replicate => {
            let duration = cost.op_time(&crate::ops::LayerOp::P2p { bytes: lost_bytes });
            KvRecoveryPlan { policy, lost_bytes, recompute_tokens: 0, duration }
        }
    }
}

impl liger_gpu_sim::ToJson for MemoryFootprint {
    fn write_json(&self, out: &mut String) {
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("weights", &self.weights)
            .field("kv_cache", &self.kv_cache)
            .field("activations", &self.activations)
            .field("total", &self.total());
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::DeviceSpec;

    #[test]
    fn opt30b_fits_4x_v100_but_not_one() {
        let cfg = ModelConfig::opt_30b();
        let shape = BatchShape::prefill(8, 128);
        let cap = DeviceSpec::v100_16gb().mem_capacity;
        assert!(fits(&cfg, 4, shape, 128, 4, cap), "paper serves OPT-30B on 4 V100s");
        assert!(!fits(&cfg, 1, shape, 128, 1, cap), "60 GB of weights cannot fit one 16 GB card");
    }

    #[test]
    fn glm130b_fits_4x_a100_80gb() {
        let cfg = ModelConfig::glm_130b();
        let shape = BatchShape::prefill(8, 128);
        let cap = DeviceSpec::a100_80gb().mem_capacity;
        assert!(fits(&cfg, 4, shape, 128, 4, cap));
        assert!(!fits(&cfg, 2, shape, 128, 1, cap), "260 GB / 2 exceeds 80 GB");
    }

    #[test]
    fn kv_cache_grows_with_context_and_batch() {
        let cfg = ModelConfig::opt_30b();
        let a = device_footprint(&cfg, 4, BatchShape::decode(8, 16), 16, 1);
        let b = device_footprint(&cfg, 4, BatchShape::decode(8, 512), 512, 1);
        let c = device_footprint(&cfg, 4, BatchShape::decode(32, 16), 16, 1);
        assert!(b.kv_cache > a.kv_cache);
        assert!(c.kv_cache > a.kv_cache);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn replicate_undercuts_recompute_by_orders_of_magnitude() {
        let cfg = ModelConfig::opt_30b();
        let cost = CostModel::v100_node();
        let rec = kv_recovery_plan(&cfg, &cost, RecoveryPolicy::Recompute, 4, 3, 8, 128);
        let rep = kv_recovery_plan(&cfg, &cost, RecoveryPolicy::Replicate, 4, 3, 8, 128);
        assert_eq!(rec.lost_bytes, rep.lost_bytes, "same shard either way");
        assert_eq!(rec.recompute_tokens, 8 * 128);
        assert_eq!(rep.recompute_tokens, 0);
        // Recompute replays the whole stack on the 3 survivors.
        let replay: SimDuration = crate::layers::model_ops(&cfg, BatchShape::prefill(8, 128), 3)
            .iter()
            .map(|p| cost.op_time(&p.op))
            .sum();
        assert_eq!(rec.duration, replay);
        assert!(
            rec.duration.as_nanos() > 10 * rep.duration.as_nanos(),
            "prefill replay ({}) should dwarf a p2p copy ({})",
            rec.duration,
            rep.duration
        );
    }

    #[test]
    fn lost_bytes_match_the_device_footprint_share() {
        let cfg = ModelConfig::opt_30b();
        let cost = CostModel::v100_node();
        let plan = kv_recovery_plan(&cfg, &cost, RecoveryPolicy::Replicate, 4, 3, 8, 128);
        let fp = device_footprint(&cfg, 4, BatchShape::decode(8, 128), 128, 1);
        assert_eq!(plan.lost_bytes, fp.kv_cache, "the dead device's KV share");
    }

    #[test]
    fn empty_recovery_is_free() {
        let cfg = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        for policy in [RecoveryPolicy::Recompute, RecoveryPolicy::Replicate] {
            let plan = kv_recovery_plan(&cfg, &cost, policy, 4, 3, 0, 128);
            assert_eq!(plan.duration, SimDuration::ZERO);
            assert_eq!(plan.recompute_tokens, 0);
        }
    }

    #[test]
    fn recompute_scales_with_lost_context() {
        let cfg = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let short = kv_recovery_plan(&cfg, &cost, RecoveryPolicy::Recompute, 4, 3, 4, 32);
        let long = kv_recovery_plan(&cfg, &cost, RecoveryPolicy::Recompute, 4, 3, 4, 256);
        assert!(long.duration > short.duration);
        assert!(long.recompute_tokens > short.recompute_tokens);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [RecoveryPolicy::Recompute, RecoveryPolicy::Replicate] {
            assert_eq!(RecoveryPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(RecoveryPolicy::parse("teleport"), None);
    }

    #[test]
    fn footprint_total_adds_up() {
        let f = MemoryFootprint { weights: 10, kv_cache: 20, activations: 30 };
        assert_eq!(f.total(), 60);
    }

    #[test]
    fn block_bytes_match_the_footprint_kv_term() {
        let cfg = ModelConfig::opt_30b();
        // A context of exactly one block: footprint KV for one sequence must
        // equal one block's bytes.
        let bt = 16;
        let fp = device_footprint(&cfg, 4, BatchShape::decode(1, bt), bt, 1);
        assert_eq!(kv_block_bytes(&cfg, 4, bt), fp.kv_cache);
        assert_eq!(fp.kv_blocks(kv_block_bytes(&cfg, 4, bt)), 1);
    }

    #[test]
    fn blocks_round_the_tail_up() {
        assert_eq!(blocks_for_tokens(0, 16), 0);
        assert_eq!(blocks_for_tokens(1, 16), 1);
        assert_eq!(blocks_for_tokens(16, 16), 1);
        assert_eq!(blocks_for_tokens(17, 16), 2);
        assert_eq!(blocks_for_tokens(160, 16), 10);
    }

    #[test]
    fn kv_blocks_view_rounds_up() {
        let f = MemoryFootprint { weights: 0, kv_cache: 1001, activations: 0 };
        assert_eq!(f.kv_blocks(500), 3);
        let empty = MemoryFootprint { weights: 0, kv_cache: 0, activations: 0 };
        assert_eq!(empty.kv_blocks(500), 0);
    }

    #[test]
    fn more_ways_smaller_share() {
        let cfg = ModelConfig::opt_66b();
        let shape = BatchShape::prefill(2, 64);
        let one = device_footprint(&cfg, 1, shape, 64, 1);
        let four = device_footprint(&cfg, 4, shape, 64, 1);
        assert!(four.weights * 4 <= one.weights + 4);
        assert!(four.total() < one.total());
    }
}
