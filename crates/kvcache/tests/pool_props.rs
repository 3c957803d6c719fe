//! Property tests for the paged KV pool: block accounting stays consistent
//! under arbitrary interleavings of admission, growth, release, sharing and
//! device loss — and every serve-shaped episode ends with the pool *and*
//! the memory tracker empty, with zero double frees.
//!
//! Runs on the internal [`liger_gpu_sim::testkit`] harness; rerun a failing
//! case with the `LIGER_PROP_SEED` it prints.

use std::collections::{BTreeMap, BTreeSet};

use liger_gpu_sim::testkit::{check, Gen};
use liger_gpu_sim::{DeviceId, DeviceSpec, Driver, HostSpec, Simulation, TraceMark, Wake};
use liger_kvcache::{mix64, BlockPool, BlockPoolConfig};

/// One random pool operation.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// Admit or grow sequence `seq` to `tokens` tokens at `rows` rows.
    Grow { seq: u64, tokens: u32, rows: u32 },
    /// Release sequence `seq` (no-op if absent).
    Release { seq: u64 },
    /// Share sequence `src`'s blocks into new sequence `dst`.
    Share { src: u64, dst: u64 },
    /// Permanently lose one device (at most once per episode).
    DeviceLoss,
}

fn gen_ops(g: &mut Gen) -> Vec<PoolOp> {
    g.vec_of(1, 40, |g| match g.usize_in(0, 10) {
        0..=4 => {
            PoolOp::Grow { seq: g.u64_in(0, 8), tokens: g.u32_in(1, 200), rows: g.u32_in(1, 3) }
        }
        5..=7 => PoolOp::Release { seq: g.u64_in(0, 8) },
        8 => PoolOp::Share { src: g.u64_in(0, 8), dst: g.u64_in(8, 16) },
        _ => PoolOp::DeviceLoss,
    })
}

/// Applies `ops` to a pool inside a live simulation, checking consistency
/// after every step, then drains everything and checks emptiness.
struct PoolDriver {
    ops: Vec<PoolOp>,
    pool: Option<BlockPool>,
    config: BlockPoolConfig,
    grows_refused: u64,
}

impl Driver for PoolDriver {
    fn start(&mut self, sim: &mut Simulation) {
        let mut pool = BlockPool::new(self.config, sim.alive_devices());
        let mut lost_one = false;
        let mut rows_of: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for op in self.ops.clone() {
            match op {
                PoolOp::Grow { seq, tokens, rows } => {
                    // Rows are fixed at the sequence's first grow.
                    let rows = *rows_of.entry(seq).or_insert(rows);
                    match pool.grow(sim, seq, tokens, rows) {
                        Ok(_) => {}
                        Err(e) => {
                            self.grows_refused += 1;
                            assert!(
                                e.requested_blocks > 0,
                                "a refused grow must have wanted something: {e}"
                            );
                        }
                    }
                }
                PoolOp::Release { seq } => {
                    pool.release(sim, seq);
                    rows_of.remove(&seq);
                }
                PoolOp::Share { src, dst } => {
                    if pool.has_seq(src) && !pool.has_seq(dst) {
                        pool.share(src, dst);
                        rows_of.insert(dst, rows_of[&src]);
                    }
                }
                PoolOp::DeviceLoss => {
                    if !lost_one && pool.devices().len() > 1 {
                        lost_one = true;
                        let dead = pool.devices()[0];
                        pool.on_device_loss(sim, dead);
                    }
                }
            }
            pool.check_consistent().expect("pool invariant broken mid-episode");
            assert_eq!(sim.memory_double_frees(), 0, "pool double-freed a block");
        }
        // Serve-shaped end: every sequence retires.
        let live: Vec<u64> = pool.seq_ids();
        for seq in live {
            pool.release(sim, seq);
            pool.check_consistent().expect("pool invariant broken during drain");
        }
        self.pool = Some(pool);
        sim.request_stop();
    }

    fn on_wake(&mut self, _wake: Wake, _sim: &mut Simulation) {}
}

#[test]
fn random_interleavings_keep_the_pool_consistent_and_leak_free() {
    check("kv_pool_consistency", 150, |g: &mut Gen| {
        let devices = g.usize_in(2, 4);
        let config = BlockPoolConfig {
            block_tokens: g.u32_in(1, 32),
            block_bytes: 1 << g.u32_in(6, 12),
            budget_bytes: (1 << g.u32_in(10, 16)) as u64,
            watermark: g.f64_in(0.5, 1.0),
        };
        if config.validate().is_err() {
            return; // degenerate geometry (budget below one block): skip
        }
        let mut builder = Simulation::builder().devices(DeviceSpec::test_device(), devices);
        for _ in 0..devices {
            builder = builder.host(HostSpec::instant());
        }
        let mut sim = builder.build().unwrap();
        let mut driver = PoolDriver { ops: gen_ops(g), pool: None, config, grows_refused: 0 };
        sim.run_to_completion(&mut driver);

        let pool = driver.pool.expect("driver ran");
        assert!(pool.is_empty(), "episode ended with live blocks");
        assert_eq!(pool.live_blocks(), 0);
        assert_eq!(pool.stats().allocated, pool.stats().freed, "alloc/free imbalance");
        assert_eq!(sim.memory_double_frees(), 0);
        for d in 0..devices {
            assert_eq!(
                sim.memory_in_use(DeviceId(d)),
                0,
                "device {d} still holds pool memory after drain"
            );
        }
    });
}

/// One operation of the recycling episode.
#[derive(Debug, Clone, Copy)]
enum RecycleOp {
    /// Admit single-row `seq` with a prompt of `class` through the prefix
    /// cache (a plain grow if it already has a table).
    Admit {
        seq: u64,
        class: u64,
        tokens: u32,
    },
    /// Grow `seq` at `rows` rows (fixed at its first grow).
    Grow {
        seq: u64,
        tokens: u32,
        rows: u32,
    },
    /// Publish `seq`'s full prompt blocks.
    Publish {
        seq: u64,
    },
    /// Roll `seq` back to `tokens` tokens.
    Truncate {
        seq: u64,
        tokens: u32,
    },
    Release {
        seq: u64,
    },
    Evict {
        want: u64,
    },
    /// Lose the `nth` live device (if more than one is left).
    Loss {
        nth: usize,
    },
    /// Rejoin the lowest lost device, if any.
    Rejoin,
}

fn gen_recycle_op(g: &mut Gen) -> RecycleOp {
    // Few sequence ids, so tables are released and re-created constantly.
    let seq = g.u64_in(0, 6);
    match g.usize_in(0, 16) {
        0..=3 => RecycleOp::Admit { seq, class: g.u64_in(0, 4), tokens: g.u32_in(1, 120) },
        4..=5 => RecycleOp::Grow { seq, tokens: g.u32_in(1, 120), rows: g.u32_in(1, 3) },
        6..=7 => RecycleOp::Publish { seq },
        8..=9 => RecycleOp::Truncate { seq, tokens: g.u32_in(0, 120) },
        10..=12 => RecycleOp::Release { seq },
        13 => RecycleOp::Evict { want: g.u64_in(1, 6) },
        14 => RecycleOp::Loss { nth: g.usize_in(0, 4) },
        _ => RecycleOp::Rejoin,
    }
}

/// Full-block digests of a prompt of `class` over `blocks` blocks: the
/// classes share their first block and pairs of classes the second, so
/// chains are adopted, extended and diverge.
fn class_digests(class: u64, blocks: u32) -> Vec<u64> {
    (0..blocks as u64)
        .map(|i| match i {
            0 => mix64(i),
            1 => mix64(mix64(class % 2) ^ i),
            _ => mix64(mix64(class + 2) ^ i),
        })
        .collect()
}

/// Checks that the blocks `table` gained past `old` are fresh: allocated by
/// this call, so above every id the episode has seen, in allocation order.
fn assert_fresh(table: &[u64], old: usize, seen_max: Option<u64>, what: &str) {
    let mut last = seen_max;
    for &b in &table[old..] {
        assert!(last.is_none_or(|l| b > l), "{what}: block {b} in {table:?} is not fresh");
        last = Some(b);
    }
}

/// What the recycling episodes exercised, summed over every case.
#[derive(Debug, Default)]
struct Coverage {
    adopted: u64,
    /// Grows the pool budget refused.
    refused: u64,
    /// Grows a device's tracker refused midway, rolled back.
    rolled_back: u64,
    evicted: u64,
    rejoined: u64,
}

#[test]
fn recycled_tables_and_page_lists_keep_the_pool_consistent() {
    let mut cov = Coverage::default();
    let mut cases = 0;
    check("kv_pool_recycling", 120, |g: &mut Gen| {
        cases += 1;
        let devices = g.usize_in(2, 5);
        let capacity = DeviceSpec::test_device().mem_capacity;
        // Either the pool budget or the devices' trackers run out first,
        // so both the typed refusal and the grow rollback recycle buffers.
        let tracker_limited = g.bool();
        let block_bytes = if tracker_limited { capacity / 24 + 1 } else { 1 << g.u32_in(6, 12) };
        let config = BlockPoolConfig {
            block_tokens: 16,
            block_bytes,
            budget_bytes: block_bytes * g.u64_in(8, 40),
            watermark: 0.9,
        };
        let mut builder = Simulation::builder().devices(DeviceSpec::test_device(), devices);
        for _ in 0..devices {
            builder = builder.host(HostSpec::instant());
        }
        let mut sim = builder.build().unwrap();
        let all: Vec<DeviceId> = sim.alive_devices();
        // A device other than the first also holds memory of its own, so
        // its tracker refuses a block after earlier devices backed it.
        let mut busy = tracker_limited.then(|| {
            let d = all[g.usize_in(1, devices)];
            (d, sim.alloc_memory(d, capacity / 3, "other").expect("an empty device"))
        });
        let mut pool = BlockPool::new(config, all.clone());

        // The tables the pool must hold, as the episode built them.
        let mut tables: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut rows_of: BTreeMap<u64, u32> = BTreeMap::new();
        let mut class_of: BTreeMap<u64, u64> = BTreeMap::new();
        // Blocks some sequence offered for publication: the only ones an
        // admission may adopt.
        let mut offered: BTreeSet<u64> = BTreeSet::new();
        let mut seen_max: Option<u64> = None;

        for _ in 0..g.usize_in(40, 160) {
            let op = gen_recycle_op(g);
            match op {
                // A multi-row sequence cannot go through the prefix path.
                RecycleOp::Admit { seq, .. } if rows_of.get(&seq).is_some_and(|&r| r != 1) => {}
                RecycleOp::Admit { seq, class, tokens } => {
                    let digests = class_digests(class, tokens / 16);
                    let old = tables.get(&seq).cloned();
                    match pool.admit_with_prefix(&mut sim, seq, &digests, tokens, 1) {
                        Ok(admit) => {
                            let table = pool.seq_blocks(seq).expect("admitted").to_vec();
                            // A re-grow keeps the table; a new sequence may
                            // only adopt blocks offered for publication.
                            let kept = match &old {
                                Some(old) => {
                                    assert_eq!(admit.cached_blocks, 0, "{op:?}: re-grow adopted");
                                    assert_eq!(&table[..old.len()], &old[..], "{op:?}: moved");
                                    old.len()
                                }
                                None => {
                                    let adopted = admit.cached_blocks as usize;
                                    for b in &table[..adopted] {
                                        assert!(offered.contains(b), "{op:?}: adopted {b}");
                                    }
                                    cov.adopted += admit.cached_blocks;
                                    class_of.insert(seq, class);
                                    adopted
                                }
                            };
                            assert_fresh(&table, kept, seen_max, &format!("{op:?}"));
                            rows_of.insert(seq, 1);
                            tables.insert(seq, table);
                        }
                        Err(e) if e.device.is_some() => cov.rolled_back += 1,
                        Err(_) => cov.refused += 1,
                    }
                }
                RecycleOp::Grow { seq, tokens, rows } => {
                    let rows = *rows_of.get(&seq).unwrap_or(&rows);
                    let old = tables.get(&seq).cloned().unwrap_or_default();
                    match pool.grow(&mut sim, seq, tokens, rows) {
                        Ok(_) => {
                            let table = pool.seq_blocks(seq).expect("grown").to_vec();
                            assert_eq!(&table[..old.len()], &old[..], "{op:?}: table moved");
                            assert_fresh(&table, old.len(), seen_max, &format!("{op:?}"));
                            rows_of.insert(seq, rows);
                            tables.insert(seq, table);
                        }
                        Err(e) if e.device.is_some() => cov.rolled_back += 1,
                        Err(_) => cov.refused += 1,
                    }
                }
                RecycleOp::Publish { seq } => {
                    if let (Some(&class), Some(&1)) = (class_of.get(&seq), rows_of.get(&seq)) {
                        let covered = pool.seq_tokens(seq).expect("live") / 16;
                        let digests = class_digests(class, covered);
                        pool.publish_prefix(seq, &digests);
                        offered.extend(tables[&seq].iter().take(digests.len()));
                    }
                }
                RecycleOp::Truncate { seq, tokens } => {
                    pool.truncate(&mut sim, seq, tokens);
                    if let Some(t) = tables.get_mut(&seq) {
                        let now = pool.seq_blocks(seq).expect("truncate keeps the table");
                        assert_eq!(now, &t[..now.len()], "{op:?}: truncate kept a non-prefix");
                        t.truncate(now.len());
                    }
                }
                RecycleOp::Release { seq } => {
                    pool.release(&mut sim, seq);
                    tables.remove(&seq);
                    rows_of.remove(&seq);
                    class_of.remove(&seq);
                }
                RecycleOp::Evict { want } => {
                    cov.evicted += pool.evict_cold_prefixes(&mut sim, want);
                }
                RecycleOp::Loss { nth } => {
                    let live = pool.devices().to_vec();
                    if live.len() > 1 {
                        let dead = live[nth % live.len()];
                        pool.on_device_loss(&mut sim, dead);
                        // Its own memory goes with it: devices rejoin empty.
                        if let Some((_, id)) = busy.take_if(|&mut (d, _)| d == dead) {
                            sim.free_memory(id);
                        }
                    }
                }
                RecycleOp::Rejoin => {
                    let lost = all.iter().find(|d| !pool.devices().contains(d)).copied();
                    if let Some(d) = lost {
                        pool.on_device_rejoin(&mut sim, d);
                        cov.rejoined += 1;
                    }
                }
            }
            seen_max = seen_max.max(tables.values().flatten().copied().max());
            pool.check_consistent().unwrap_or_else(|e| panic!("after {op:?}: {e}"));
            assert_eq!(pool.seq_ids(), tables.keys().copied().collect::<Vec<_>>(), "{op:?}");
            for (seq, table) in &tables {
                assert_eq!(pool.seq_blocks(*seq), Some(&table[..]), "{op:?}: seq {seq}");
            }
            assert_eq!(sim.memory_double_frees(), 0, "{op:?} double-freed a page");
        }
        for seq in pool.seq_ids() {
            pool.release(&mut sim, seq);
        }
        pool.flush_prefix_cache(&mut sim);
        pool.check_consistent().unwrap();
        assert!(pool.is_empty(), "episode ended with live blocks");
        if let Some((_, id)) = busy {
            sim.free_memory(id);
        }
        for d in all {
            assert_eq!(sim.memory_in_use(d), 0, "device {d} still holds pool memory");
        }
    });
    // A rerun of one case (`LIGER_PROP_SEED`) covers what that case covers.
    assert!(
        cases < 100
            || cov.adopted > 0
                && cov.refused > 0
                && cov.rolled_back > 0
                && cov.evicted > 0
                && cov.rejoined > 0,
        "the episodes missed a recycling path: {cov:?}"
    );
}

/// Pages (device, allocation id) of each live block, keyed by block id: the
/// reference a pool walk in block-id order must match.
type PagesById = BTreeMap<u64, Vec<(DeviceId, u64)>>;

/// The `Alloc` (true) and `Free` (false) marks recorded since mark `seen`,
/// in order, as `(alloc, device, allocation id)`; moves `seen` past them.
fn new_marks(sim: &Simulation, seen: &mut usize) -> Vec<(bool, DeviceId, u64)> {
    let marks = sim.trace().expect("trace capture is on").marks();
    let out = marks[*seen..]
        .iter()
        .filter_map(|m| match *m {
            TraceMark::Alloc { id, device, .. } => Some((true, device, id)),
            TraceMark::Free { id, device, .. } => Some((false, device, id)),
            _ => None,
        })
        .collect();
    *seen = marks.len();
    out
}

/// Grows single-row `seq` to `tokens` and records the pages of the blocks
/// it gained in `reference`, one per live device in device order, from the
/// new alloc marks. Returns whether the grow succeeded.
fn grow_recorded(
    pool: &mut BlockPool,
    sim: &mut Simulation,
    seen: &mut usize,
    reference: &mut PagesById,
    seq: u64,
    tokens: u32,
) -> bool {
    let old = pool.seq_blocks(seq).map_or(0, <[u64]>::len);
    let grown = pool.grow(sim, seq, tokens, 1).is_ok();
    let marks = new_marks(sim, seen);
    let added = pool.seq_blocks(seq).map_or(&[][..], |t| &t[old..]);
    let per_block = pool.devices().len();
    assert_eq!(marks.len(), added.len() * per_block, "one page per device and block");
    for (&b, pages) in added.iter().zip(marks.chunks(per_block)) {
        assert!(pages.iter().all(|&(alloc, _, _)| alloc), "a grow only allocates");
        let pages = pages.iter().map(|&(_, d, id)| (d, id)).collect();
        assert!(reference.insert(b, pages).is_none(), "block {b} issued twice");
    }
    grown
}

/// The pool walks its live blocks (device loss, rejoin) in block-id order
/// even once a long-lived block has spilled out of its slab's window of
/// recent ids. The prefix cache pins the first block while more than
/// 2 x live + 256 later blocks churn through the slab, past the point where
/// the window moves old live ids to its spill list; a `BTreeMap` reference
/// built from the trace's allocation marks then predicts every page freed
/// by a device loss and backed by its rejoin.
#[test]
fn slab_walks_match_a_block_id_ordered_reference_after_spill_churn() {
    check("kv_pool_slab_order", 24, |g: &mut Gen| {
        let devices = g.usize_in(2, 5);
        let config = BlockPoolConfig {
            block_tokens: 16,
            block_bytes: 1 << 10,
            budget_bytes: 64 << 10,
            watermark: 0.9,
        };
        let mut builder =
            Simulation::builder().devices(DeviceSpec::test_device(), devices).capture_trace(true);
        for _ in 0..devices {
            builder = builder.host(HostSpec::instant());
        }
        let mut sim = builder.build().unwrap();
        let mut pool = BlockPool::new(config, sim.alive_devices());
        let mut reference = PagesById::new();
        let mut seen = 0;

        // Seq 0's one full block goes into the prefix cache, which keeps it
        // alive after the sequence is released.
        assert!(grow_recorded(&mut pool, &mut sim, &mut seen, &mut reference, 0, 16));
        let pinned = pool.seq_blocks(0).expect("grown")[0];
        assert_eq!(pool.publish_prefix(0, &[mix64(0)]), 1);
        assert_eq!(pool.release(&mut sim, 0), 0, "the cache still holds the block");

        // Churn single-row sequences 1..6 until more than 2 x live + 256
        // blocks have come and gone behind the pinned one.
        let mut churned = 0u64;
        while churned <= 2 * pool.live_blocks() + 256 {
            let seq = g.u64_in(1, 6);
            if g.usize_in(0, 3) < 2 {
                let tokens = g.u32_in(1, 80);
                grow_recorded(&mut pool, &mut sim, &mut seen, &mut reference, seq, tokens);
            } else {
                let freed = pool.release(&mut sim, seq);
                churned += freed;
                let marks = new_marks(&sim, &mut seen);
                assert_eq!(marks.len() as u64, freed * pool.devices().len() as u64);
                let live: BTreeSet<u64> = pool
                    .seq_ids()
                    .iter()
                    .flat_map(|&s| pool.seq_blocks(s).unwrap())
                    .copied()
                    .collect();
                reference.retain(|b, _| *b == pinned || live.contains(b));
            }
            assert_eq!(pool.live_blocks(), reference.len() as u64);
        }
        for seq in 1..6 {
            let tokens = g.u32_in(1, 48);
            grow_recorded(&mut pool, &mut sim, &mut seen, &mut reference, seq, tokens);
        }
        assert_eq!(reference.keys().next(), Some(&pinned), "the pinned block is the oldest");
        pool.check_consistent().unwrap();

        // A loss frees the dead device's page of every block, in block-id
        // order.
        let live = pool.devices().to_vec();
        let dead = live[g.usize_in(0, live.len())];
        let expect: Vec<(bool, DeviceId, u64)> = reference
            .values_mut()
            .map(|pages| {
                let k = pages.iter().position(|&(d, _)| d == dead).expect("backed on every device");
                let (d, id) = pages.remove(k);
                (false, d, id)
            })
            .collect();
        assert_eq!(pool.on_device_loss(&mut sim, dead), expect.len() as u64);
        assert_eq!(new_marks(&sim, &mut seen), expect, "loss of {dead}");

        // Its rejoin backs every block again, in block-id order: the k-th
        // new page belongs to the k-th block of the reference.
        assert_eq!(pool.on_device_rejoin(&mut sim, dead), reference.len() as u64);
        let backed = new_marks(&sim, &mut seen);
        assert_eq!(backed.len(), reference.len());
        for (pages, &(alloc, d, id)) in reference.values_mut().zip(&backed) {
            assert!(alloc && d == dead, "a rejoin allocates on the rejoined device");
            pages.push((d, id));
        }
        pool.check_consistent().unwrap();

        // Releasing each sequence, then flushing the cache, frees exactly
        // the reference's pages, block by block in table order.
        for seq in pool.seq_ids() {
            let expect: Vec<(bool, DeviceId, u64)> = pool
                .seq_blocks(seq)
                .unwrap()
                .iter()
                .flat_map(|b| reference.remove(b).expect("a live block"))
                .map(|(d, id)| (false, d, id))
                .collect();
            pool.release(&mut sim, seq);
            assert_eq!(new_marks(&sim, &mut seen), expect, "release of seq {seq}");
        }
        let expect: Vec<(bool, DeviceId, u64)> = reference
            .remove(&pinned)
            .expect("pinned")
            .into_iter()
            .map(|(d, id)| (false, d, id))
            .collect();
        assert!(reference.is_empty());
        assert_eq!(pool.flush_prefix_cache(&mut sim), 1);
        assert_eq!(new_marks(&sim, &mut seen), expect, "flush of the pinned block");
        assert!(pool.is_empty());
        assert_eq!(sim.memory_double_frees(), 0);
    });
}
