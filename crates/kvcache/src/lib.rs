//! Paged KV-cache subsystem: a block-granular, ref-counted pool backed by
//! the simulator's [`MemoryTracker`](liger_gpu_sim::MemoryTracker).
//!
//! The continuous-batching scheduler (vLLM-style iteration-level serving,
//! the baseline mechanism LLMServingSim and Frontier assume) needs KV memory
//! it can grow one token at a time and reclaim the instant a sequence
//! retires. This crate provides that: sequences own *block tables* — lists
//! of fixed-size blocks, each holding `block_tokens` tokens of K and V
//! sharded across the node's devices — and every block is a real
//! [`Simulation::alloc_memory`](liger_gpu_sim::Simulation::alloc_memory)
//! allocation per device, so the static verifier's SV-MEM-CAP rule and the
//! trace sanitizer's UAF/double-free/leak rules see every page the pool
//! touches.
//!
//! Exhaustion is a typed [`OutOfBlocks`], never a panic: the scheduler
//! handles it with watermark-driven preemption (evict the youngest
//! sequence's blocks and recompute its prefill later, priced by
//! `liger_model::kv_recovery_plan`). Blocks are ref-counted so a recovery
//! replica can [`share`](BlockPool::share) a dying sequence's table without
//! copying it.
//!
//! # Cross-request prefix caching
//!
//! Full prompt-prefix blocks can be *published* into a content-hash index
//! ([`BlockPool::publish_prefix`]): each full block of a finished prefill is
//! keyed by a running chain hash over its token digests, and the cache holds
//! its own reference on the block. A later request with the same leading
//! digests adopts the longest cached chain
//! ([`BlockPool::admit_with_prefix`]) — its table shares the cached blocks
//! via the ordinary refcounts and only the novel tail is ever prefilled.
//! Cold chains are reclaimed leaf-first, least-recently-used first, and only
//! when the cache holds the last reference
//! ([`BlockPool::evict_cold_prefixes`]): a block pinned by any live sequence
//! is never evicted out from under it. Speculative-decoding rollback uses
//! [`BlockPool::truncate`], the shrink mirror of [`BlockPool::grow`].
//!
//! # Simplifications
//!
//! The block size is fixed at deployment time from the *healthy* parallel
//! degree. After a device loss the pool frees the dead device's side of
//! every block and allocates new blocks on the survivors only, keeping the
//! per-device block size — i.e. the degraded node packs the same tokens
//! into the same per-device bytes. The true cost of restoring the lost
//! shard is carried by the recovery plan, not the pool.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt;

use liger_gpu_sim::{AllocationId, DeviceId, IdTable, Simulation};
use liger_model::{blocks_for_tokens, kv_block_bytes, ModelConfig};

/// Allocation label every KV block carries in traces and the tracker.
pub const BLOCK_LABEL: &str = "kv-block";

/// Seed of the prefix chain hash (the splitmix64 increment, an arbitrary
/// odd constant — any fixed value works, it only has to be shared by
/// publishers and adopters).
const PREFIX_CHAIN_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation used
/// for the prefix chain hash and the serving layer's deterministic token
/// oracle.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Running chain hash over per-block content digests: `h_k` commits to
/// digests `0..=k`, so two prompts share `h_k` exactly when their first
/// `k + 1` blocks hold identical tokens. `hashes[k]` keys block `k` in the
/// prefix index.
pub fn chain_hashes(digests: &[u64]) -> Vec<u64> {
    let mut h = PREFIX_CHAIN_SEED;
    digests
        .iter()
        .map(|&d| {
            h = chain_step(h, d);
            h
        })
        .collect()
}

/// Extends chain hash `h` by one block digest. [`BlockPool`]'s prefix walks
/// fold it as they go instead of materializing [`chain_hashes`].
fn chain_step(h: u64, digest: u64) -> u64 {
    mix64(h ^ digest)
}

/// Geometry and budget of a [`BlockPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockPoolConfig {
    /// Tokens per block (vLLM-style fixed page size).
    pub block_tokens: u32,
    /// Per-device bytes of one block (one sequence's K+V for `block_tokens`
    /// tokens, sharded across the node) — see `liger_model::kv_block_bytes`.
    pub block_bytes: u64,
    /// Per-device byte budget for the whole pool.
    pub budget_bytes: u64,
    /// Occupancy fraction above which the scheduler stops admitting and
    /// starts preempting.
    pub watermark: f64,
}

impl BlockPoolConfig {
    /// Sizes a pool for `model` partitioned `world` ways on devices with
    /// `capacity` bytes each: the budget is a quarter of the capacity left
    /// after the weight shard, leaving headroom for the engine's transient
    /// per-step working sets (which the static verifier checks).
    pub fn sized_for(
        model: &ModelConfig,
        world: u32,
        capacity: u64,
        block_tokens: u32,
    ) -> BlockPoolConfig {
        let weights = model.weight_bytes() / world.max(1) as u64;
        let headroom = capacity.saturating_sub(weights);
        BlockPoolConfig {
            block_tokens,
            block_bytes: kv_block_bytes(model, world, block_tokens),
            budget_bytes: headroom / 4,
            watermark: 0.9,
        }
    }

    /// Sizes a pool that also hosts a cross-request prefix cache pinning up
    /// to `pinned_prefix_tokens` tokens of shared prompt blocks.
    ///
    /// [`sized_for`](Self::sized_for)'s quarter-headroom geometry assumes
    /// every block belongs to an active sequence, so a resident prefix cache
    /// would eat the decode working set from inside the budget and the
    /// watermark would preempt active sequences to protect blocks that are
    /// only cache-warm. This variant grows the budget by the pinned
    /// footprint (capped at half the headroom so the engine's transient
    /// working sets keep their room — the static verifier's prefix-residency
    /// rule checks the cap holds in degraded worlds too). With zero pinned
    /// tokens it is identical to `sized_for`.
    pub fn sized_for_shared(
        model: &ModelConfig,
        world: u32,
        capacity: u64,
        block_tokens: u32,
        pinned_prefix_tokens: u32,
    ) -> BlockPoolConfig {
        let mut cfg = BlockPoolConfig::sized_for(model, world, capacity, block_tokens);
        let weights = model.weight_bytes() / world.max(1) as u64;
        let headroom = capacity.saturating_sub(weights);
        let pinned = blocks_for_tokens(pinned_prefix_tokens, block_tokens) * cfg.block_bytes;
        cfg.budget_bytes = (cfg.budget_bytes + pinned).min(headroom / 2);
        cfg
    }

    /// Whole blocks the per-device budget can hold.
    pub fn capacity_blocks(&self) -> u64 {
        self.budget_bytes / self.block_bytes.max(1)
    }

    /// Rejects degenerate geometry (zero-sized blocks, a budget below one
    /// block, or a watermark outside `(0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        if self.block_tokens == 0 {
            return Err("block_tokens must be positive".into());
        }
        if self.block_bytes == 0 {
            return Err("block_bytes must be positive".into());
        }
        if self.capacity_blocks() == 0 {
            return Err(format!(
                "budget of {} bytes holds zero blocks of {} bytes",
                self.budget_bytes, self.block_bytes
            ));
        }
        if !(self.watermark > 0.0 && self.watermark <= 1.0) {
            return Err(format!("watermark {} outside (0, 1]", self.watermark));
        }
        Ok(())
    }
}

/// Typed block-pool exhaustion: the scheduler must handle this (preempt,
/// shed, or defer) — it is never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBlocks {
    /// Blocks the failed grow needed.
    pub requested_blocks: u64,
    /// Blocks free under the pool budget at the time of the failure.
    pub free_blocks: u64,
    /// Total blocks the budget holds.
    pub capacity_blocks: u64,
    /// Device whose tracker refused the backing allocation, when the
    /// failure came from real device capacity rather than the pool budget.
    pub device: Option<DeviceId>,
}

impl fmt::Display for OutOfBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            Some(d) => write!(
                f,
                "out of KV blocks: {} tracker refused backing pages ({} requested, {} of {} free)",
                d, self.requested_blocks, self.free_blocks, self.capacity_blocks
            ),
            None => write!(
                f,
                "out of KV blocks: {} requested, {} of {} free",
                self.requested_blocks, self.free_blocks, self.capacity_blocks
            ),
        }
    }
}

impl std::error::Error for OutOfBlocks {}

#[derive(Debug, Default)]
struct Block {
    /// One backing allocation per live device (the block's shard on it).
    /// Emptied when the block is freed; the slab hands the cleared list,
    /// capacity kept, to a later block.
    allocs: Vec<(DeviceId, AllocationId)>,
    /// Sequences whose tables reference this block.
    refs: u32,
}

/// One cached prefix block in the content-hash index, keyed by its chain
/// hash.
#[derive(Debug)]
struct PrefixEntry {
    /// The block holding this prefix position's KV pages.
    block: u64,
    /// Chain hash of the previous prefix block (`None` for block 0). Kept
    /// so eviction can update the parent's `children`.
    parent: Option<u64>,
    /// Indexed entries whose `parent` is this entry: eviction takes leaves
    /// (`children == 0`) only.
    children: u32,
    /// Logical clock of the last admit/publish that touched this entry.
    last_used: u64,
}

/// Outcome of [`BlockPool::admit_with_prefix`]: how much of the prompt the
/// cache served and how many fresh blocks the tail needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixAdmit {
    /// Prompt tokens covered by adopted cache blocks (always leaves at
    /// least one novel token to prefill).
    pub cached_tokens: u32,
    /// Cache blocks adopted into the sequence's table.
    pub cached_blocks: u64,
    /// Fresh blocks allocated for the novel tail.
    pub added_blocks: u64,
}

#[derive(Debug)]
struct SeqEntry {
    /// Block ids, in allocation order (`blocks_per_row × rows` entries).
    table: Vec<u64>,
    /// Cached tokens per row this table currently covers.
    tokens: u32,
    /// Rows (batch members) sharing this sequence entry.
    rows: u32,
}

/// Pool-lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks ever allocated.
    pub allocated: u64,
    /// Blocks fully freed (refcount reached zero).
    pub freed: u64,
    /// High-water mark of live blocks.
    pub peak_live: u64,
}

/// Block-granular, ref-counted KV pool over the node's live devices.
///
/// Every logical block is backed by one tracker allocation *per device*
/// (label [`BLOCK_LABEL`]), so traces show each page's lifetime and the
/// capacity checks see the pool's true footprint.
#[derive(Debug)]
pub struct BlockPool {
    config: BlockPoolConfig,
    devices: Vec<DeviceId>,
    /// Live blocks by id. Ids are issued in allocation order and never
    /// reused, and walks run in id order, so per-device page order is the
    /// order the blocks were made.
    blocks: IdTable<Block>,
    seqs: BTreeMap<u64, SeqEntry>,
    /// Content-hash index of published prompt-prefix blocks: chain hash →
    /// cached entry. The cache holds one reference on every indexed block.
    prefix: BTreeMap<u64, PrefixEntry>,
    /// Inverse of `prefix` (block id → chain hash); a block is indexed
    /// under at most one hash.
    prefix_of_block: BTreeMap<u64, u64>,
    /// Logical clock for prefix LRU ordering.
    prefix_clock: u64,
    stats: PoolStats,
    /// Pages of the block `grow` is backing. They move into the block's
    /// record once every device has backed it, so a refused block issues
    /// no id.
    backing: Vec<(DeviceId, AllocationId)>,
    /// Cleared tables of released sequences; `grow`, `admit_with_prefix`
    /// and `share` start new tables from them. Never longer than the peak
    /// live sequences.
    spare_tables: Vec<Vec<u64>>,
}

impl BlockPool {
    /// Creates a pool over `devices` (the live devices at deployment).
    /// Panics on an invalid config — validate first if it came from a user.
    pub fn new(config: BlockPoolConfig, devices: Vec<DeviceId>) -> BlockPool {
        if let Err(e) = config.validate() {
            panic!("invalid BlockPoolConfig: {e}");
        }
        assert!(!devices.is_empty(), "a block pool needs at least one device");
        BlockPool {
            config,
            devices,
            blocks: IdTable::default(),
            seqs: BTreeMap::new(),
            prefix: BTreeMap::new(),
            prefix_of_block: BTreeMap::new(),
            prefix_clock: 0,
            stats: PoolStats::default(),
            backing: Vec::new(),
            spare_tables: Vec::new(),
        }
    }

    /// The pool's geometry and budget.
    pub fn config(&self) -> &BlockPoolConfig {
        &self.config
    }

    /// Devices the pool currently allocates on.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Blocks needed per row to cache `tokens` tokens.
    pub fn blocks_for(&self, tokens: u32) -> u64 {
        blocks_for_tokens(tokens, self.config.block_tokens)
    }

    /// Whether `seq` has a block table.
    pub fn has_seq(&self, seq: u64) -> bool {
        self.seqs.contains_key(&seq)
    }

    /// Cached tokens per row for `seq`, if it has a table.
    pub fn seq_tokens(&self, seq: u64) -> Option<u32> {
        self.seqs.get(&seq).map(|e| e.tokens)
    }

    /// Block ids of `seq`'s table in table order, if it has one.
    pub fn seq_blocks(&self, seq: u64) -> Option<&[u64]> {
        self.seqs.get(&seq).map(|e| e.table.as_slice())
    }

    /// Grows `seq`'s table to cover `tokens` cached tokens per row across
    /// `rows` rows, allocating backing pages on every live device. Creates
    /// the table on first call; `rows` must then match on every later grow.
    /// Shrinking is not a thing — fewer tokens than already covered is a
    /// no-op. Returns the number of blocks added.
    ///
    /// On failure (pool budget or device capacity) the pool is left exactly
    /// as before the call and the caller gets a typed [`OutOfBlocks`].
    pub fn grow(
        &mut self,
        sim: &mut Simulation,
        seq: u64,
        tokens: u32,
        rows: u32,
    ) -> Result<u64, OutOfBlocks> {
        assert!(rows >= 1, "a sequence has at least one row");
        let existing = self.seqs.get(&seq).map(|e| {
            assert_eq!(e.rows, rows, "rows are fixed at sequence creation");
            e.table.len() as u64
        });
        let have = existing.unwrap_or(0);
        let needed = self.blocks_for(tokens) * rows as u64;
        if needed <= have {
            if let Some(e) = self.seqs.get_mut(&seq) {
                e.tokens = e.tokens.max(tokens);
            }
            return Ok(0);
        }
        let delta = needed - have;
        let capacity = self.config.capacity_blocks();
        let live = self.live_blocks();
        let free = capacity.saturating_sub(live);
        if delta > free {
            return Err(OutOfBlocks {
                requested_blocks: delta,
                free_blocks: free,
                capacity_blocks: capacity,
                device: None,
            });
        }
        // Allocate the new blocks straight into the table, rolling the whole
        // grow back if any device's tracker refuses a backing page: the
        // table is truncated to its old length (or the entry made for this
        // call removed) and the new blocks are freed.
        let created = existing.is_none();
        let spare_tables = &mut self.spare_tables;
        let entry = self.seqs.entry(seq).or_insert_with(|| SeqEntry {
            table: spare_tables.pop().unwrap_or_default(),
            tokens: 0,
            rows,
        });
        entry.table.reserve(delta as usize);
        let mut failed: Option<DeviceId> = None;
        for _ in 0..delta {
            for &d in &self.devices {
                match sim.alloc_memory(d, self.config.block_bytes, BLOCK_LABEL) {
                    Ok(id) => self.backing.push((d, id)),
                    Err(_) => {
                        failed = Some(d);
                        break;
                    }
                }
            }
            if failed.is_some() {
                for &(_, id) in &self.backing {
                    sim.free_memory(id);
                }
                self.backing.clear();
                break;
            }
            let (id, slot) = self.blocks.alloc();
            let block = &mut self.blocks[slot];
            block.allocs.append(&mut self.backing);
            block.refs = 1;
            self.stats.allocated += 1;
            entry.table.push(id);
        }
        if let Some(d) = failed {
            let mut table = std::mem::take(&mut entry.table);
            for &b in &table[have as usize..] {
                self.free_block(sim, b);
                self.stats.allocated -= 1;
            }
            table.truncate(have as usize);
            if created {
                self.seqs.remove(&seq);
                self.recycle_table(table);
            } else {
                self.seqs.get_mut(&seq).expect("an existing table").table = table;
            }
            return Err(OutOfBlocks {
                requested_blocks: delta,
                free_blocks: free,
                capacity_blocks: capacity,
                device: Some(d),
            });
        }
        entry.tokens = entry.tokens.max(tokens);
        self.stats.peak_live = self.stats.peak_live.max(self.live_blocks());
        Ok(delta)
    }

    /// Block `b`, if it is live.
    fn block(&self, b: u64) -> Option<&Block> {
        self.blocks.slot(b).map(|s| &self.blocks[s])
    }

    /// Live block `b`, which a table or the prefix index references.
    fn block_mut(&mut self, b: u64) -> &mut Block {
        let slot = self.blocks.slot(b).expect("a reference names a live block");
        &mut self.blocks[slot]
    }

    /// Frees block `b`'s pages in device order and retires its id; the slab
    /// keeps the emptied page list for a later `grow`. Counters are the
    /// caller's.
    fn free_block(&mut self, sim: &mut Simulation, b: u64) {
        let slot = self.blocks.slot(b).expect("freeing a live block");
        let allocs = &mut self.blocks[slot].allocs;
        for &(_, id) in allocs.iter() {
            sim.free_memory(id);
        }
        allocs.clear();
        self.blocks.reclaim(slot);
    }

    /// Drops one reference to block `b`, freeing it when that was the last
    /// one. Returns whether the block was freed.
    fn unref_block(&mut self, sim: &mut Simulation, b: u64) -> bool {
        let block = self.block_mut(b);
        block.refs -= 1;
        if block.refs > 0 {
            return false;
        }
        self.free_block(sim, b);
        self.stats.freed += 1;
        true
    }

    /// Keeps the emptied `table` of a released sequence for a later one.
    fn recycle_table(&mut self, mut table: Vec<u64>) {
        table.clear();
        self.spare_tables.push(table);
    }

    /// Drops `seq`'s table, freeing every block whose refcount reaches
    /// zero. Returns the number of blocks actually freed (shared blocks
    /// survive in the replica's table). Unknown sequences free nothing.
    pub fn release(&mut self, sim: &mut Simulation, seq: u64) -> u64 {
        let Some(entry) = self.seqs.remove(&seq) else {
            return 0;
        };
        let mut freed = 0;
        for &b in &entry.table {
            freed += self.unref_block(sim, b) as u64;
        }
        self.recycle_table(entry.table);
        freed
    }

    /// Clones `src`'s table into `dst` by bumping each block's refcount —
    /// the zero-copy replication recovery uses to keep a warm standby of a
    /// sequence's KV state. `dst` must not already exist.
    pub fn share(&mut self, src: u64, dst: u64) {
        assert!(!self.seqs.contains_key(&dst), "share target already has a table");
        let entry = self.seqs.get(&src).expect("share source has a table");
        let mut table = self.spare_tables.pop().unwrap_or_default();
        table.extend_from_slice(&entry.table);
        let cloned = SeqEntry { table, tokens: entry.tokens, rows: entry.rows };
        for &b in &cloned.table {
            self.block_mut(b).refs += 1;
        }
        self.seqs.insert(dst, cloned);
    }

    /// Admits a fresh single-row sequence, adopting the longest published
    /// prefix chain matching `digests` (per-full-block content digests of
    /// the prompt, see [`chain_hashes`]) before growing the novel tail to
    /// `tokens` like [`grow`](Self::grow). Adopted blocks are shared via
    /// the ordinary refcounts — the cache keeps its own reference, so a
    /// later eviction can never free a block under an adopter.
    ///
    /// Adoption is capped so at least one novel token remains: even a full
    /// prompt hit must run a one-token prefill to produce its first output.
    /// Multi-row sequences and re-grows of existing sequences fall through
    /// to a plain `grow` with zero cached tokens. On failure the pool is
    /// left exactly as before the call.
    pub fn admit_with_prefix(
        &mut self,
        sim: &mut Simulation,
        seq: u64,
        digests: &[u64],
        tokens: u32,
        rows: u32,
    ) -> Result<PrefixAdmit, OutOfBlocks> {
        if rows != 1 || self.seqs.contains_key(&seq) {
            let added = self.grow(sim, seq, tokens, rows)?;
            return Ok(PrefixAdmit { cached_tokens: 0, cached_blocks: 0, added_blocks: added });
        }
        // Walk the chain as far as the index matches it, refreshing every
        // matched link.
        let max_cached = (tokens.saturating_sub(1) / self.config.block_tokens) as usize;
        self.prefix_clock += 1;
        let clock = self.prefix_clock;
        let mut matched = self.spare_tables.pop().unwrap_or_default();
        let mut h = PREFIX_CHAIN_SEED;
        for &d in digests.iter().take(max_cached) {
            h = chain_step(h, d);
            match self.prefix.get_mut(&h) {
                Some(e) => {
                    e.last_used = clock;
                    matched.push(e.block);
                }
                None => break,
            }
        }
        let cached_blocks = matched.len() as u64;
        let cached_tokens = matched.len() as u32 * self.config.block_tokens;
        if cached_blocks > 0 {
            for &b in &matched {
                self.block_mut(b).refs += 1;
            }
            self.seqs.insert(seq, SeqEntry { table: matched, tokens: cached_tokens, rows: 1 });
        } else {
            self.spare_tables.push(matched);
        }
        match self.grow(sim, seq, tokens, rows) {
            Ok(added) => Ok(PrefixAdmit { cached_tokens, cached_blocks, added_blocks: added }),
            Err(e) => {
                // Undo the adoption; the cache's own references keep the
                // adopted blocks alive.
                self.release(sim, seq);
                Err(e)
            }
        }
    }

    /// Publishes `seq`'s full prompt-prefix blocks into the content-hash
    /// index so later requests can adopt them. `digests` are the same
    /// per-full-block digests the adopter will present; block `k` of the
    /// table (tables append in order, so table position is prompt position)
    /// is keyed by chain hash `k`. Each newly indexed block gains one cache
    /// reference. Chains already published (by this or an equal-content
    /// prompt) are just LRU-refreshed. Multi-row and unknown sequences
    /// publish nothing. Returns the number of newly indexed blocks.
    pub fn publish_prefix(&mut self, seq: u64, digests: &[u64]) -> u64 {
        let Some(entry) = self.seqs.get(&seq) else {
            return 0;
        };
        if entry.rows != 1 {
            return 0;
        }
        self.prefix_clock += 1;
        let clock = self.prefix_clock;
        let mut published = 0;
        let mut parent = None;
        let mut h = PREFIX_CHAIN_SEED;
        for (&d, &b) in digests.iter().zip(&entry.table) {
            h = chain_step(h, d);
            if let Some(e) = self.prefix.get_mut(&h) {
                // Same content already cached (possibly a different block
                // from a racing prefill) — refresh and keep walking.
                e.last_used = clock;
                parent = Some(h);
                continue;
            }
            if self.prefix_of_block.contains_key(&b) {
                // The block is already indexed under another chain; a block
                // holds one content, so stop rather than double-index it.
                break;
            }
            if let Some(ph) = parent {
                // The previous position was refreshed or inserted just above.
                self.prefix.get_mut(&ph).expect("a chain's parent is indexed").children += 1;
            }
            self.prefix.insert(h, PrefixEntry { block: b, parent, children: 0, last_used: clock });
            self.prefix_of_block.insert(b, h);
            // `entry` borrows the tables, so look the block up field-wise.
            let slot = self.blocks.slot(b).expect("table references a live block");
            self.blocks[slot].refs += 1;
            published += 1;
            parent = Some(h);
        }
        published
    }

    /// Evicts cold cached prefixes until `want_blocks` blocks have been
    /// freed or no evictable entry remains. Victims are chosen leaf-first
    /// (an interior chain link is never dropped under its children),
    /// least-recently-used first, and only when the cache holds the *last*
    /// reference — a prefix still pinned by any live sequence is skipped,
    /// so eviction can never free memory out from under an active decode.
    /// Returns the number of blocks freed.
    pub fn evict_cold_prefixes(&mut self, sim: &mut Simulation, want_blocks: u64) -> u64 {
        let mut evicted = 0;
        while evicted < want_blocks {
            let victim = self
                .prefix
                .iter()
                .filter(|(_, e)| {
                    e.children == 0 && self.block(e.block).is_some_and(|b| b.refs == 1)
                })
                .min_by_key(|(&h, e)| (e.last_used, h))
                .map(|(&h, _)| h);
            let Some(h) = victim else {
                break;
            };
            let entry = self.prefix.remove(&h).expect("victim chosen from the index");
            if let Some(ph) = entry.parent {
                self.prefix.get_mut(&ph).expect("a leaf's parent is indexed").children -= 1;
            }
            self.prefix_of_block.remove(&entry.block);
            let freed = self.unref_block(sim, entry.block);
            debug_assert!(freed, "victims are cache-only by construction");
            evicted += 1;
        }
        evicted
    }

    /// Drops every cache reference, freeing blocks no sequence still pins.
    /// Serving calls this at drain (so the end-of-serve pool is provably
    /// empty) and on device loss (a cached prefix missing a shard would
    /// serve corrupt KV to its next adopter). Returns the blocks freed.
    pub fn flush_prefix_cache(&mut self, sim: &mut Simulation) -> u64 {
        let cached = std::mem::take(&mut self.prefix);
        self.prefix_of_block.clear();
        let mut freed = 0;
        for e in cached.into_values() {
            freed += self.unref_block(sim, e.block) as u64;
        }
        freed
    }

    /// Shrinks `seq`'s table back to `tokens` cached tokens per row — the
    /// rollback mirror of [`grow`](Self::grow), used when speculative
    /// verification rejects drafted tokens whose blocks were grown ahead.
    /// Blocks are popped from the table tail; ones still shared (with the
    /// prefix cache or a replica) survive, the rest are freed. Growing via
    /// `truncate` is impossible: `tokens` above the covered span is a
    /// no-op. Returns the number of blocks dropped from the table.
    pub fn truncate(&mut self, sim: &mut Simulation, seq: u64, tokens: u32) -> u64 {
        let needed = match self.seqs.get(&seq) {
            Some(e) => self.blocks_for(e.tokens.min(tokens)) * e.rows as u64,
            None => return 0,
        };
        let entry = self.seqs.get_mut(&seq).expect("checked above");
        entry.tokens = entry.tokens.min(tokens);
        let mut table = std::mem::take(&mut entry.table);
        let mut dropped = 0;
        while table.len() as u64 > needed {
            let b = table.pop().expect("longer than needed");
            self.unref_block(sim, b);
            dropped += 1;
        }
        self.seqs.get_mut(&seq).expect("checked above").table = table;
        dropped
    }

    /// Blocks currently indexed (and therefore pinned) by the prefix cache.
    pub fn pinned_prefix_blocks(&self) -> u64 {
        self.prefix_of_block.len() as u64
    }

    /// A device died: free its side of every live block (the shard is gone
    /// with the hardware) and stop allocating on it. Block tables survive —
    /// the surviving shards are intact, and the recovery plan prices
    /// restoring the lost one. Returns the number of backing allocations
    /// freed.
    pub fn on_device_loss(&mut self, sim: &mut Simulation, dead: DeviceId) -> u64 {
        // A device that is not a member holds no shard: a second confirmed
        // loss for the same device (e.g. queued behind an in-progress drain)
        // must not walk the free path again — its pages are already gone,
        // and freeing them twice would trip the TS-DOUBLE-FREE sanitizer.
        if !self.devices.contains(&dead) {
            return 0;
        }
        let mut freed = 0;
        self.blocks.for_each_live_mut(|_, block| {
            block.allocs.retain(|&(d, id)| {
                if d == dead {
                    sim.free_memory(id);
                    freed += 1;
                }
                d != dead
            });
        });
        self.devices.retain(|&d| d != dead);
        freed
    }

    /// A lost device rejoined with empty memory: resume allocating on it
    /// and back every live block with a page on it — the shard the
    /// re-expansion's migrate/recompute work fills in. Returns the number
    /// of pages allocated. No-op if the device is already a member.
    pub fn on_device_rejoin(&mut self, sim: &mut Simulation, rejoined: DeviceId) -> u64 {
        if self.devices.contains(&rejoined) {
            return 0;
        }
        self.devices.push(rejoined);
        self.devices.sort_unstable_by_key(|d| d.0);
        let mut added = 0;
        let bytes = self.config.block_bytes;
        self.blocks.for_each_live_mut(|_, block| {
            let id = sim
                .alloc_memory(rejoined, bytes, BLOCK_LABEL)
                .expect("an empty rejoined device backs every live block");
            block.allocs.push((rejoined, id));
            added += 1;
        });
        added
    }

    /// Live (allocated, unreleased) blocks.
    pub fn live_blocks(&self) -> u64 {
        self.blocks.live() as u64
    }

    /// Total blocks the budget holds.
    pub fn capacity_blocks(&self) -> u64 {
        self.config.capacity_blocks()
    }

    /// Fraction of the budget in use.
    pub fn occupancy(&self) -> f64 {
        self.live_blocks() as f64 / self.capacity_blocks() as f64
    }

    /// Whether occupancy exceeds the preemption watermark.
    pub fn above_watermark(&self) -> bool {
        self.occupancy() > self.config.watermark
    }

    /// Whether the pool holds no blocks (every serve must end here).
    pub fn is_empty(&self) -> bool {
        self.blocks.live() == 0
    }

    /// Number of sequences holding tables.
    pub fn live_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Ids of every sequence holding a table, ascending.
    pub fn seq_ids(&self) -> Vec<u64> {
        self.seqs.keys().copied().collect()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Structural invariants, checked exhaustively (for tests): every table
    /// entry references a live block, stored refcounts equal the number of
    /// tables referencing each block plus the prefix cache's pin, every
    /// block is reachable from some table or the prefix index, the index
    /// and its inverse form a bijection whose parent chains are unbroken,
    /// every entry's child count matches the entries naming it as parent,
    /// and every block's backing allocations cover exactly the live device
    /// set.
    pub fn check_consistent(&self) -> Result<(), String> {
        let mut refs: BTreeMap<u64, u32> = BTreeMap::new();
        for (seq, entry) in &self.seqs {
            let expect = self.blocks_for(entry.tokens) * entry.rows as u64;
            if entry.table.len() as u64 != expect {
                return Err(format!(
                    "seq {seq}: table holds {} blocks, {} tokens x {} rows needs {expect}",
                    entry.table.len(),
                    entry.tokens,
                    entry.rows
                ));
            }
            for &b in &entry.table {
                if self.blocks.slot(b).is_none() {
                    return Err(format!("seq {seq} references dead block {b}"));
                }
                *refs.entry(b).or_insert(0) += 1;
            }
        }
        if self.prefix.len() != self.prefix_of_block.len() {
            return Err(format!(
                "prefix index holds {} entries but its inverse holds {}",
                self.prefix.len(),
                self.prefix_of_block.len()
            ));
        }
        let mut children: BTreeMap<u64, u32> = BTreeMap::new();
        for p in self.prefix.values().filter_map(|e| e.parent) {
            *children.entry(p).or_insert(0) += 1;
        }
        for (&h, entry) in &self.prefix {
            if self.blocks.slot(entry.block).is_none() {
                return Err(format!("prefix {h:#x} references dead block {}", entry.block));
            }
            if self.prefix_of_block.get(&entry.block) != Some(&h) {
                return Err(format!(
                    "prefix index bijection broken at block {} (hash {h:#x})",
                    entry.block
                ));
            }
            if let Some(p) = entry.parent {
                if !self.prefix.contains_key(&p) {
                    return Err(format!("prefix {h:#x} has evicted parent {p:#x}"));
                }
            }
            let named = children.get(&h).copied().unwrap_or(0);
            if named != entry.children {
                return Err(format!(
                    "prefix {h:#x}: child count {} but {named} entries name it parent",
                    entry.children
                ));
            }
            *refs.entry(entry.block).or_insert(0) += 1;
        }
        for (b, slot) in self.blocks.iter_live() {
            let block = &self.blocks[slot];
            let counted = refs.get(&b).copied().unwrap_or(0);
            if counted != block.refs {
                return Err(format!(
                    "block {b}: stored refcount {} but {counted} references (tables + cache)",
                    block.refs
                ));
            }
            if block.refs == 0 {
                return Err(format!("block {b} is live with zero references"));
            }
            let mut devs: Vec<DeviceId> = block.allocs.iter().map(|&(d, _)| d).collect();
            devs.sort_by_key(|d| d.0);
            let mut live: Vec<DeviceId> = self.devices.clone();
            live.sort_by_key(|d| d.0);
            if devs != live {
                return Err(format!("block {b}: backed on {devs:?} but live devices are {live:?}"));
            }
        }
        if self.stats.allocated - self.stats.freed != self.live_blocks() {
            return Err(format!(
                "counters disagree: {} allocated - {} freed != {} live",
                self.stats.allocated,
                self.stats.freed,
                self.live_blocks()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{DeviceSpec, HostSpec};

    fn sim(devices: usize) -> Simulation {
        let mut b = Simulation::builder().devices(DeviceSpec::test_device(), devices);
        for _ in 0..devices {
            b = b.host(HostSpec::instant());
        }
        b.build().unwrap()
    }

    fn config(block_bytes: u64, budget: u64) -> BlockPoolConfig {
        BlockPoolConfig { block_tokens: 16, block_bytes, budget_bytes: budget, watermark: 0.9 }
    }

    fn pool(devices: usize, block_bytes: u64, budget: u64) -> BlockPool {
        BlockPool::new(config(block_bytes, budget), (0..devices).map(DeviceId).collect())
    }

    #[test]
    fn grow_release_roundtrip_hits_the_tracker() {
        let mut s = sim(2);
        let mut p = pool(2, 1024, 16 * 1024);
        // 40 tokens at 16/block = 3 blocks, on both devices.
        let added = p.grow(&mut s, 0, 40, 1).unwrap();
        assert_eq!(added, 3);
        assert_eq!(p.live_blocks(), 3);
        assert_eq!(s.memory_in_use(DeviceId(0)), 3 * 1024);
        assert_eq!(s.memory_in_use(DeviceId(1)), 3 * 1024);
        p.check_consistent().unwrap();
        // Growing within the covered span allocates nothing.
        assert_eq!(p.grow(&mut s, 0, 48, 1).unwrap(), 0);
        // One token past the boundary adds one block.
        assert_eq!(p.grow(&mut s, 0, 49, 1).unwrap(), 1);
        assert_eq!(p.release(&mut s, 0), 4);
        assert!(p.is_empty());
        assert_eq!(s.memory_in_use(DeviceId(0)), 0);
        assert_eq!(s.memory_in_use(DeviceId(1)), 0);
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn rows_multiply_the_table() {
        let mut s = sim(1);
        let mut p = pool(1, 64, 64 * 64);
        assert_eq!(p.grow(&mut s, 7, 16, 4).unwrap(), 4, "one block per row");
        assert_eq!(p.grow(&mut s, 7, 17, 4).unwrap(), 4, "next block, every row");
        p.check_consistent().unwrap();
        p.release(&mut s, 7);
    }

    #[test]
    fn budget_exhaustion_is_typed_and_clean() {
        let mut s = sim(1);
        let mut p = pool(1, 1024, 4 * 1024); // 4 blocks
        p.grow(&mut s, 0, 48, 1).unwrap(); // 3 blocks
        let err = p.grow(&mut s, 1, 32, 1).unwrap_err(); // needs 2, 1 free
        assert_eq!(err.requested_blocks, 2);
        assert_eq!(err.free_blocks, 1);
        assert_eq!(err.capacity_blocks, 4);
        assert_eq!(err.device, None);
        assert!(err.to_string().contains("out of KV blocks"));
        // The failed grow left nothing behind.
        assert!(!p.has_seq(1));
        assert_eq!(p.live_blocks(), 3);
        p.check_consistent().unwrap();
        p.release(&mut s, 0);
    }

    #[test]
    fn tracker_capacity_failure_rolls_the_grow_back() {
        let mut s = sim(1);
        let cap = DeviceSpec::test_device().mem_capacity;
        // Pool budget far above the device: the tracker refuses first.
        let block = cap / 4 + 1;
        let mut p = pool(1, block, 100 * block);
        let before = s.memory_in_use(DeviceId(0));
        let err = p.grow(&mut s, 0, 16 * 4, 1).unwrap_err(); // 4 blocks > capacity
        assert_eq!(err.device, Some(DeviceId(0)));
        assert!(!p.has_seq(0));
        assert!(p.is_empty());
        assert_eq!(s.memory_in_use(DeviceId(0)), before, "rollback frees partial pages");
        p.check_consistent().unwrap();
    }

    #[test]
    fn tracker_failure_truncates_an_existing_table_back() {
        let mut s = sim(1);
        let cap = DeviceSpec::test_device().mem_capacity;
        // The device backs three blocks; the pool budget allows far more.
        let block = cap / 4 + 1;
        let mut p = pool(1, block, 100 * block);
        assert_eq!(p.grow(&mut s, 0, 16, 1), Ok(1));
        let table = p.seqs[&0].table.clone();
        let before = s.memory_in_use(DeviceId(0));
        let stats = p.stats();
        // Four more blocks: two fit beside the first, the third is refused.
        let err = p.grow(&mut s, 0, 16 * 5, 1).unwrap_err();
        assert_eq!(err.device, Some(DeviceId(0)));
        assert_eq!(p.seqs[&0].table, table, "the table is cut back to its old length");
        assert_eq!(p.seq_tokens(0), Some(16));
        assert_eq!(p.live_blocks(), 1);
        assert_eq!(p.stats(), stats);
        assert_eq!(s.memory_in_use(DeviceId(0)), before, "rollback frees the new pages");
        p.check_consistent().unwrap();
        // A grow that fits afterwards extends the same table.
        assert_eq!(p.grow(&mut s, 0, 16 * 3, 1), Ok(2));
        assert_eq!(p.seqs[&0].table[..1], table[..]);
        p.check_consistent().unwrap();
    }

    #[test]
    fn shared_blocks_survive_the_source_release() {
        let mut s = sim(2);
        let mut p = pool(2, 512, 32 * 512);
        p.grow(&mut s, 1, 32, 1).unwrap(); // 2 blocks
        p.share(1, 101);
        p.check_consistent().unwrap();
        assert_eq!(p.release(&mut s, 1), 0, "replica still references every block");
        assert_eq!(p.live_blocks(), 2);
        assert!(s.memory_in_use(DeviceId(0)) > 0);
        assert_eq!(p.release(&mut s, 101), 2, "last reference frees");
        assert!(p.is_empty());
        assert_eq!(s.memory_in_use(DeviceId(0)), 0);
    }

    #[test]
    fn device_loss_frees_the_dead_shard_only() {
        let mut s = sim(3);
        let mut p = pool(3, 256, 8 * 256);
        p.grow(&mut s, 0, 64, 1).unwrap(); // 4 blocks x 3 devices
        let freed = p.on_device_loss(&mut s, DeviceId(1));
        assert_eq!(freed, 4);
        assert_eq!(s.memory_in_use(DeviceId(1)), 0);
        assert_eq!(s.memory_in_use(DeviceId(0)), 4 * 256);
        assert_eq!(p.devices(), &[DeviceId(0), DeviceId(2)]);
        p.check_consistent().unwrap();
        // New blocks land on survivors only.
        p.grow(&mut s, 0, 65, 1).unwrap();
        assert_eq!(s.memory_in_use(DeviceId(1)), 0);
        p.release(&mut s, 0);
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn a_repeated_loss_for_the_same_device_frees_nothing_twice() {
        let mut s = sim(3);
        let mut p = pool(3, 256, 8 * 256);
        p.grow(&mut s, 0, 64, 1).unwrap(); // 4 blocks x 3 devices
        assert_eq!(p.on_device_loss(&mut s, DeviceId(1)), 4);
        // A stale confirmation for the same device (e.g. queued behind an
        // in-progress drain) must not walk the free path again.
        assert_eq!(p.on_device_loss(&mut s, DeviceId(1)), 0);
        p.check_consistent().unwrap();
        p.release(&mut s, 0);
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn a_rejoined_device_backs_every_live_block_and_new_growth() {
        let mut s = sim(3);
        let mut p = pool(3, 256, 8 * 256);
        p.grow(&mut s, 0, 64, 1).unwrap(); // 4 blocks x 3 devices
        p.on_device_loss(&mut s, DeviceId(1));
        assert_eq!(p.devices(), &[DeviceId(0), DeviceId(2)]);
        let added = p.on_device_rejoin(&mut s, DeviceId(1));
        assert_eq!(added, 4, "every live block regains its shard");
        assert_eq!(p.devices(), &[DeviceId(0), DeviceId(1), DeviceId(2)]);
        assert_eq!(s.memory_in_use(DeviceId(1)), 4 * 256);
        p.check_consistent().unwrap();
        // Rejoining an existing member is a no-op.
        assert_eq!(p.on_device_rejoin(&mut s, DeviceId(1)), 0);
        // New growth shards over the widened set again.
        p.grow(&mut s, 0, 65, 1).unwrap();
        assert_eq!(s.memory_in_use(DeviceId(1)), 5 * 256);
        p.release(&mut s, 0);
        assert!(p.is_empty());
        assert_eq!(s.memory_in_use(DeviceId(1)), 0);
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn sized_for_leaves_engine_headroom() {
        let model = ModelConfig::opt_30b();
        let cap = DeviceSpec::v100_16gb().mem_capacity;
        let cfg = BlockPoolConfig::sized_for(&model, 4, cap, 16);
        cfg.validate().unwrap();
        let weights = model.weight_bytes() / 4;
        assert!(weights + 4 * cfg.budget_bytes <= cap, "budget is a quarter of the headroom");
        assert!(cfg.capacity_blocks() > 0);
    }

    #[test]
    fn validate_rejects_degenerate_geometry() {
        assert!(config(0, 1024).validate().is_err());
        assert!(config(1024, 512).validate().is_err(), "budget below one block");
        let mut bad = config(1024, 4096);
        bad.watermark = 0.0;
        assert!(bad.validate().is_err());
        bad.watermark = 1.5;
        assert!(bad.validate().is_err());
        bad.block_tokens = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn occupancy_and_watermark() {
        let mut s = sim(1);
        let mut p = pool(1, 1024, 10 * 1024);
        assert_eq!(p.occupancy(), 0.0);
        assert!(!p.above_watermark());
        p.grow(&mut s, 0, 16 * 10, 1).unwrap(); // all 10 blocks
        assert_eq!(p.occupancy(), 1.0);
        assert!(p.above_watermark());
        p.release(&mut s, 0);
    }

    #[test]
    fn publish_then_admit_shares_the_prefix_blocks() {
        let mut s = sim(2);
        let mut p = pool(2, 512, 64 * 512);
        let digests = [11, 22, 33]; // 3 full prompt blocks at 16 tokens each
                                    // First request: cold prefill of a 56-token prompt (48 shared + tail).
        let admit = p.admit_with_prefix(&mut s, 0, &digests, 56, 1).unwrap();
        assert_eq!(admit.cached_tokens, 0, "nothing published yet");
        assert_eq!(admit.added_blocks, 4);
        assert_eq!(p.publish_prefix(0, &digests), 3);
        assert_eq!(p.pinned_prefix_blocks(), 3);
        p.check_consistent().unwrap();
        let live_before = p.live_blocks();
        // Second request, same leading digests: adopts all 3 cached blocks.
        let admit = p.admit_with_prefix(&mut s, 1, &digests, 56, 1).unwrap();
        assert_eq!(admit.cached_tokens, 48);
        assert_eq!(admit.cached_blocks, 3);
        assert_eq!(admit.added_blocks, 1, "only the novel tail allocates");
        assert_eq!(p.live_blocks(), live_before + 1, "shared blocks are not re-backed");
        p.check_consistent().unwrap();
        // Releasing both leaves the cache's copies alive, flush drains them.
        p.release(&mut s, 0);
        p.release(&mut s, 1);
        assert_eq!(p.live_blocks(), 3, "cache still pins the published chain");
        assert_eq!(p.flush_prefix_cache(&mut s), 3);
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn full_prompt_hit_still_prefills_one_token() {
        let mut s = sim(1);
        let mut p = pool(1, 256, 64 * 256);
        let digests = [7, 8]; // prompt is exactly 2 full blocks (32 tokens)
        p.admit_with_prefix(&mut s, 0, &digests, 32, 1).unwrap();
        p.publish_prefix(0, &digests);
        let admit = p.admit_with_prefix(&mut s, 1, &digests, 32, 1).unwrap();
        assert_eq!(admit.cached_blocks, 1, "adoption capped below the full prompt");
        assert_eq!(admit.cached_tokens, 16);
        p.check_consistent().unwrap();
        p.release(&mut s, 0);
        p.release(&mut s, 1);
        p.flush_prefix_cache(&mut s);
        assert!(p.is_empty());
    }

    #[test]
    fn divergent_tails_adopt_only_the_common_chain() {
        let mut s = sim(1);
        let mut p = pool(1, 256, 64 * 256);
        p.admit_with_prefix(&mut s, 0, &[1, 2, 3], 60, 1).unwrap();
        p.publish_prefix(0, &[1, 2, 3]);
        // Same first two blocks, then different content.
        let admit = p.admit_with_prefix(&mut s, 1, &[1, 2, 99], 60, 1).unwrap();
        assert_eq!(admit.cached_blocks, 2, "chain match stops at the divergence");
        assert_eq!(p.publish_prefix(1, &[1, 2, 99]), 1, "only the divergent block is new");
        p.check_consistent().unwrap();
        p.release(&mut s, 0);
        p.release(&mut s, 1);
        p.flush_prefix_cache(&mut s);
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn eviction_is_leaf_first_lru_and_never_touches_pinned_chains() {
        let mut s = sim(1);
        let mut p = pool(1, 256, 64 * 256);
        // Publish a 3-block chain, with seq 1 still pinning all of it.
        p.admit_with_prefix(&mut s, 0, &[1, 2, 3], 3 * 16, 1).unwrap();
        p.publish_prefix(0, &[1, 2, 3]);
        p.admit_with_prefix(&mut s, 1, &[1, 2, 3], 3 * 16 + 8, 1).unwrap();
        // While an adopter lives, nothing is evictable.
        assert_eq!(p.evict_cold_prefixes(&mut s, 10), 0);
        p.release(&mut s, 0);
        p.release(&mut s, 1);
        p.check_consistent().unwrap();
        // Now only the cache pins the chain: eviction walks leaf -> root.
        assert_eq!(p.evict_cold_prefixes(&mut s, 1), 1);
        assert_eq!(p.pinned_prefix_blocks(), 2, "the leaf went first");
        p.check_consistent().unwrap();
        assert_eq!(p.evict_cold_prefixes(&mut s, 10), 2, "rest of the chain drains");
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn truncate_rolls_back_speculative_blocks() {
        let mut s = sim(2);
        let mut p = pool(2, 512, 64 * 512);
        p.grow(&mut s, 0, 80, 1).unwrap(); // 5 blocks, grown ahead for drafts
                                           // All drafted tokens rejected: roll back to 40 tokens (3 blocks).
        assert_eq!(p.truncate(&mut s, 0, 40), 2);
        assert_eq!(p.seq_tokens(0), Some(40));
        assert_eq!(s.memory_in_use(DeviceId(0)), 3 * 512);
        p.check_consistent().unwrap();
        // Truncate never grows, and re-growing after rollback works.
        assert_eq!(p.truncate(&mut s, 0, 100), 0);
        assert_eq!(p.seq_tokens(0), Some(40));
        p.grow(&mut s, 0, 49, 1).unwrap();
        p.release(&mut s, 0);
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn truncate_spares_blocks_the_cache_still_pins() {
        let mut s = sim(1);
        let mut p = pool(1, 256, 64 * 256);
        let digests = [5, 6];
        p.admit_with_prefix(&mut s, 0, &digests, 2 * 16, 1).unwrap();
        p.publish_prefix(0, &digests);
        // Rolling the sequence all the way back drops its table entries but
        // the published blocks stay alive under the cache's reference.
        assert_eq!(p.truncate(&mut s, 0, 0), 2);
        assert_eq!(p.live_blocks(), 2);
        p.check_consistent().unwrap();
        p.release(&mut s, 0);
        p.flush_prefix_cache(&mut s);
        assert!(p.is_empty());
        assert_eq!(s.memory_double_frees(), 0);
    }

    #[test]
    fn chain_hashes_commit_to_content_and_position() {
        let a = chain_hashes(&[1, 2, 3]);
        let b = chain_hashes(&[1, 2, 4]);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        assert_ne!(a[2], b[2], "divergent content diverges the chain");
        assert_ne!(chain_hashes(&[2, 1])[1], a[1], "order matters");
        assert!(chain_hashes(&[]).is_empty());
    }

    #[test]
    fn sized_for_shared_accounts_pinned_blocks() {
        let model = ModelConfig::opt_30b();
        let cap = DeviceSpec::v100_16gb().mem_capacity;
        let base = BlockPoolConfig::sized_for(&model, 4, cap, 16);
        let zero = BlockPoolConfig::sized_for_shared(&model, 4, cap, 16, 0);
        assert_eq!(zero, base, "no pinned prefix changes nothing");
        let shared = BlockPoolConfig::sized_for_shared(&model, 4, cap, 16, 256);
        shared.validate().unwrap();
        let pinned_blocks = blocks_for_tokens(256, 16);
        assert_eq!(
            shared.budget_bytes,
            base.budget_bytes + pinned_blocks * base.block_bytes,
            "budget grows by exactly the pinned footprint"
        );
        // The cap: an absurd pinned span cannot eat the engine headroom.
        let weights = model.weight_bytes() / 4;
        let capped = BlockPoolConfig::sized_for_shared(&model, 4, cap, 16, u32::MAX);
        assert_eq!(capped.budget_bytes, (cap - weights) / 2);
    }

    /// `(parent, block, last_used)` of every prefix entry, keyed by hash.
    type IndexCopy = BTreeMap<u64, (Option<u64>, u64, u64)>;

    /// The victim the rule before entries counted their children picks:
    /// rebuild the set of every entry's parent, then take the
    /// least-recently-used (ties by hash) entry outside it whose block only
    /// the cache pins.
    fn reference_victim(p: &BlockPool) -> (IndexCopy, Option<u64>) {
        let index: IndexCopy =
            p.prefix.iter().map(|(&h, e)| (h, (e.parent, e.block, e.last_used))).collect();
        let parents: std::collections::BTreeSet<u64> =
            index.values().filter_map(|&(parent, _, _)| parent).collect();
        let victim = index
            .iter()
            .filter(|&(h, &(_, block, _))| {
                !parents.contains(h) && p.block(block).expect("indexed block is live").refs == 1
            })
            .min_by_key(|&(&h, &(_, _, last_used))| (last_used, h))
            .map(|(&h, _)| h);
        (index, victim)
    }

    /// Evicts one block and checks it was the reference rule's victim.
    /// Returns the blocks freed.
    fn evict_one_as_the_reference(p: &mut BlockPool, s: &mut Simulation) -> u64 {
        let (index, expect) = reference_victim(p);
        let freed = p.evict_cold_prefixes(s, 1);
        let gone: Vec<u64> = index.keys().copied().filter(|h| !p.prefix.contains_key(h)).collect();
        assert_eq!(gone, Vec::from_iter(expect), "victim differs from the parent-set rule");
        assert_eq!(freed, gone.len() as u64);
        freed
    }

    /// Digests of a prompt of `class` over `blocks` full blocks. Classes
    /// share their first two blocks, pairs of classes the next two, so the
    /// published chains form a tree with interior links and many leaves.
    fn tree_digests(class: u64, blocks: usize) -> Vec<u64> {
        (0..blocks as u64)
            .map(|i| match i {
                0..=1 => mix64(i),
                2..=3 => mix64(mix64(class % 2) ^ i),
                _ => mix64(mix64(class + 2) ^ i),
            })
            .collect()
    }

    #[test]
    fn child_counts_pick_the_victims_of_the_parent_set_rule() {
        use liger_gpu_sim::testkit::{check, Gen};
        let mut evicted = 0;
        check("child_counts_pick_the_victims_of_the_parent_set_rule", 64, |g: &mut Gen| {
            let mut s = sim(2);
            let mut p = pool(2, 256, 96 * 256);
            let mut class_of: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
            for _ in 0..g.usize_in(20, 120) {
                match g.usize_in(0, 10) {
                    0..=3 => {
                        let (seq, class) = (g.u64_in(0, 12), g.u64_in(0, 6));
                        let tokens = g.u32_in(1, 160);
                        let digests = tree_digests(class, (tokens / 16) as usize);
                        if !p.has_seq(seq)
                            && p.admit_with_prefix(&mut s, seq, &digests, tokens, 1).is_ok()
                        {
                            class_of.insert(seq, (class, tokens));
                        }
                    }
                    4..=5 => {
                        let seq = g.u64_in(0, 12);
                        if let Some(&(class, tokens)) = class_of.get(&seq) {
                            p.publish_prefix(seq, &tree_digests(class, (tokens / 16) as usize));
                        }
                    }
                    6..=7 => {
                        let seq = g.u64_in(0, 12);
                        p.release(&mut s, seq);
                        class_of.remove(&seq);
                    }
                    8 => {
                        for _ in 0..g.u64_in(1, 8) {
                            evicted += evict_one_as_the_reference(&mut p, &mut s);
                        }
                    }
                    _ => {
                        p.flush_prefix_cache(&mut s);
                    }
                }
                p.check_consistent().unwrap();
            }
            for seq in p.seq_ids() {
                p.release(&mut s, seq);
            }
            // With every sequence gone the whole cache drains leaf-first.
            while !p.is_empty() {
                assert_eq!(evict_one_as_the_reference(&mut p, &mut s), 1, "the drain stalled");
                p.check_consistent().unwrap();
            }
            assert_eq!(s.memory_double_frees(), 0);
        });
        assert!(evicted > 0, "no case evicted mid-episode");
    }
}
