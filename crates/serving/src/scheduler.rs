//! Continuous batching: the iteration-level scheduler over a paged KV pool.
//!
//! The fixed-batch generation driver ([`serve_generations`]) reproduces the
//! paper's §6 evaluation: batch members share one padded sequence length and
//! every member waits for the slowest. Production-scale serving is
//! *iteration-level* (Orca/vLLM, the baseline LLMServingSim and Frontier
//! assume): the running set is re-formed at **every decode step**, so
//! finished sequences retire immediately, waiting prefills are admitted the
//! moment memory and the token budget allow, and KV memory is paged from a
//! block pool ([`BlockPool`]) instead of reserved for the worst case. This
//! module is the default generative serving path; the fixed-batch driver
//! remains as the static baseline the `ablation_batching` benchmark compares
//! against.
//!
//! Each scheduling iteration:
//! 1. **Retire** — sequences that produced their last token release their
//!    blocks and record their metrics, in the same wake that completed them.
//! 2. **Admit** — waiting prefills enter while the running set, the pool
//!    watermark, and the prefill token budget allow; each admission grows a
//!    block table for its prompt (typed [`liger_kvcache::OutOfBlocks`]
//!    stops admission,
//!    never panics).
//! 3. **Step** — every running sequence grows its table by one token and
//!    joins one fused `BatchShape::decode` request; under memory pressure
//!    the *youngest* sequence is preempted (blocks evicted, prefill to be
//!    recomputed — priced through `kv_recovery_plan`) until the step fits.
//!
//! Device loss composes with the elastic-recovery pipeline through the same
//! membership controller that steers [`serve_with_recovery`]: the watchdog
//! confirms the loss, the engine drains and replans over the survivors, the
//! pool frees the dead device's side of every block, cancelled prefills
//! re-queue, and the surviving sequences' lost shard is rebuilt under the
//! configured [`RecoveryPolicy`] before degraded serving resumes behind the
//! admission shedder.
//!
//! [`serve_with_recovery`]: crate::recovery::serve_with_recovery

use std::collections::{BTreeMap, VecDeque};

use liger_gpu_sim::{CoreSelect, DetHashMap, DeviceId, SimDuration, SimTime, Simulation, Wake};
use liger_kvcache::{BlockPool, BlockPoolConfig, PrefixAdmit};
use liger_model::{kv_recovery_plan, spec_draft_time, CostModel, ModelConfig, RecoveryPolicy};

use crate::admission::{AdmissionConfig, ShedReason, ShedRecord};
use crate::engine::{InferenceEngine, RUNNER_TOKEN_BASE};
#[allow(unused_imports)] // doc link
use crate::generation::serve_generations;
use crate::generation::{GenerationJob, GenerationMetrics, GenerationResult};
use crate::health::HealthConfig;
use crate::membership::{MembershipController, MembershipDriver};
use crate::metrics::ServingMetrics;
use crate::prefix::{block_digests, output_token, SpecDecodeConfig};
use crate::request::{Completion, Request};

/// Draft-burst timer namespace (bit 54); the low bits carry the round's
/// epoch so a timer set before a device loss cannot trigger a stale
/// verification afterwards.
const SPEC_DRAFT_BASE: u64 = RUNNER_TOKEN_BASE | (1 << 54);

/// Parameters of the continuous-batching scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Geometry and budget of the paged KV pool.
    pub pool: BlockPoolConfig,
    /// Running-set bound: sequences decoding concurrently (plus admitted
    /// prefills in flight).
    pub max_running: usize,
    /// Prompt tokens allowed in flight as prefills at once — bounds how much
    /// prefill work can delay the decode stream (iteration-level admission).
    pub prefill_token_budget: u64,
    /// How lost KV shards are rebuilt after a device loss, and how evicted
    /// sequences are priced.
    pub policy: RecoveryPolicy,
    /// Watchdog parameters; `None` disables loss detection (healthy runs).
    pub health: Option<HealthConfig>,
    /// Backlog bound applied when serving resumes on degraded capacity.
    pub admission: AdmissionConfig,
    /// Cross-request prefix caching: finished prefills publish their full
    /// prompt blocks, later single-row admissions adopt the longest cached
    /// chain and prefill only the novel tail.
    pub prefix_cache: bool,
    /// Speculative decoding: draft `draft_tokens` ahead with the small
    /// model, verify in one widened batch, roll back rejected tokens'
    /// blocks. `None` decodes one token per step.
    pub spec: Option<SpecDecodeConfig>,
}

impl SchedulerConfig {
    /// A config sized for `model` partitioned `world` ways on devices with
    /// `capacity` bytes: the pool takes a quarter of the post-weights
    /// headroom in 16-token blocks (see [`BlockPoolConfig::sized_for`]).
    /// Prefix caching and speculation are off.
    pub fn sized_for(model: &ModelConfig, world: u32, capacity: u64) -> SchedulerConfig {
        SchedulerConfig {
            pool: BlockPoolConfig::sized_for(model, world, capacity, 16),
            max_running: 32,
            prefill_token_budget: 2048,
            policy: RecoveryPolicy::Replicate,
            health: None,
            admission: AdmissionConfig::default(),
            prefix_cache: false,
            spec: None,
        }
    }

    /// [`sized_for`](Self::sized_for) with the prefix cache on and the pool
    /// budget widened for up to `pinned_prefix_tokens` tokens of cache-pinned
    /// blocks (see [`BlockPoolConfig::sized_for_shared`]) so watermark
    /// pressure cannot starve active decodes of the headroom the cache
    /// occupies.
    pub fn sized_for_shared(
        model: &ModelConfig,
        world: u32,
        capacity: u64,
        pinned_prefix_tokens: u32,
    ) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::sized_for(model, world, capacity);
        cfg.pool =
            BlockPoolConfig::sized_for_shared(model, world, capacity, 16, pinned_prefix_tokens);
        cfg.prefix_cache = true;
        cfg
    }

    /// Rejects degenerate parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.pool.validate()?;
        if self.max_running == 0 {
            return Err("max_running must be >= 1".into());
        }
        if self.prefill_token_budget == 0 {
            return Err("prefill_token_budget must be >= 1".into());
        }
        if let Some(h) = &self.health {
            h.validate()?;
        }
        if let Some(s) = &self.spec {
            s.validate()?;
        }
        Ok(())
    }
}

/// Outcome of one continuous-batching serve: per-generation latency metrics
/// plus the serving counters (batching efficiency, faults, recovery).
#[derive(Debug, Clone, Default)]
pub struct ContinuousReport {
    /// Per-generation results (TTFT, TPOT, token throughput).
    pub generation: GenerationMetrics,
    /// Serving counters: completions, batching efficiency, recovery.
    pub serving: ServingMetrics,
    /// Every produced output token per job id, in decode order, from the
    /// deterministic token oracle ([`output_token`]) — the stream the
    /// differential prefix/speculation tests compare across configurations.
    pub outputs: BTreeMap<u64, Vec<u64>>,
}

/// One in-flight draft-then-verify round.
#[derive(Debug)]
struct SpecRound {
    /// Epoch the round was formed in; a device loss bumps the epoch so the
    /// draft timer of a dead round cannot submit a stale verification.
    epoch: u64,
    /// `(job id, drafted tokens)` per member — each member's table was
    /// grown ahead to hold its drafts' KV.
    members: Vec<(u64, u32)>,
    /// The verification request, once submitted (the draft burst runs
    /// first, modeled as a timer of `spec_draft_time`).
    rid: Option<u64>,
}

#[derive(Debug)]
struct SeqState {
    job: GenerationJob,
    first_token: Option<SimTime>,
    /// Completed steps (step 0 = prefill; `output_tokens` steps finish).
    steps_done: u32,
}

impl SeqState {
    /// Tokens the KV cache holds after `steps_done` completed steps.
    fn cached_tokens(&self) -> u32 {
        if self.steps_done == 0 {
            0
        } else {
            self.job.prompt_len + self.steps_done - 1
        }
    }

    fn total_steps(&self) -> u32 {
        self.job.output_tokens.max(1)
    }
}

/// Iteration-level serving driver steered by a [`MembershipController`]:
/// continuous batching over a paged KV pool. See the module docs for the
/// scheduling loop.
///
/// Internal state (`done`, timers, `states`, the queues, the pool's
/// sequences) is keyed by each job's index in `jobs`; `job.id` passes
/// through untouched to the metrics, the shed records and the token oracle.
pub(crate) struct ContinuousScheduler<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    jobs: Vec<GenerationJob>,
    model: &'a ModelConfig,
    cost: &'a CostModel,
    config: SchedulerConfig,
    pool: BlockPool,

    states: DetHashMap<u64, SeqState>,
    /// Arrival/preemption queue (front = next to admit; preempted sequences
    /// re-enter at the front — they are oldest).
    waiting: VecDeque<u64>,
    /// Sequences with live KV decoding together, admission order (the
    /// youngest is last — the preemption victim).
    running: Vec<u64>,
    /// In-flight prefill requests: request id → (job index, charged prefill
    /// tokens) — the charge is the *novel* span when the prefix cache
    /// served part of the prompt.
    prefill_inflight: DetHashMap<u64, (u64, u64)>,
    /// The one in-flight fused decode step, if any.
    decode_inflight: Option<(u64, Vec<u64>)>,
    /// The one in-flight speculative round, if any (mutually exclusive with
    /// `decode_inflight`).
    spec_pending: Option<SpecRound>,
    /// Bumped on device loss to invalidate in-flight draft timers.
    spec_epoch: u64,
    prefill_tokens_inflight: u64,
    next_request: u64,

    generation: GenerationMetrics,
    serving: ServingMetrics,
    outputs: BTreeMap<u64, Vec<u64>>,
    outstanding: usize,
    done: Vec<bool>,
}

impl<'a, E: InferenceEngine + ?Sized> ContinuousScheduler<'a, E> {
    /// Creates a scheduler over `jobs` (unique ids), paging KV through a
    /// pool over `devices` (the live devices at start).
    pub(crate) fn new(
        engine: &'a mut E,
        jobs: Vec<GenerationJob>,
        model: &'a ModelConfig,
        cost: &'a CostModel,
        config: SchedulerConfig,
        devices: Vec<DeviceId>,
    ) -> Self {
        ContinuousScheduler {
            engine,
            outstanding: jobs.len(),
            done: vec![false; jobs.len()],
            jobs,
            model,
            cost,
            pool: BlockPool::new(config.pool, devices),
            config,
            states: DetHashMap::default(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            prefill_inflight: DetHashMap::default(),
            decode_inflight: None,
            spec_pending: None,
            spec_epoch: 0,
            prefill_tokens_inflight: 0,
            next_request: 0,
            generation: GenerationMetrics::default(),
            serving: ServingMetrics::new(),
            outputs: BTreeMap::new(),
        }
    }

    /// The collected report (complete once the simulation has stopped),
    /// with shed records carrying job ids.
    fn into_report(mut self) -> ContinuousReport {
        for s in &mut self.serving.recovery_mut().shed {
            s.id = self.jobs[s.id as usize].id;
        }
        ContinuousReport {
            generation: self.generation,
            serving: self.serving,
            outputs: self.outputs,
        }
    }

    // -- the scheduling loop ------------------------------------------------

    /// One scheduling iteration: admit, then form the next fused decode
    /// step (or speculative round). Runs after every wake while serving
    /// (not mid-recovery).
    fn pump(&mut self, sim: &mut Simulation) {
        self.admit(sim);
        if self.decode_inflight.is_none() && self.spec_pending.is_none() {
            self.form_decode_step(sim);
        }
    }

    /// Evicts up to `want` cold cached prefix blocks, counting them and
    /// pricing the re-prefill an evicted span costs its next adopter
    /// through `kv_recovery_plan` (evict-and-recompute, like preemption).
    /// Returns the blocks actually freed.
    fn evict_cold(&mut self, sim: &mut Simulation, want: u64) -> u64 {
        let evicted = self.pool.evict_cold_prefixes(sim, want);
        if evicted > 0 {
            self.serving.prefix_mut().evicted_blocks += evicted;
            let ways = self.pool.devices().len() as u32;
            let tokens = (evicted * self.config.pool.block_tokens as u64).min(u32::MAX as u64);
            let plan = kv_recovery_plan(
                self.model,
                self.cost,
                RecoveryPolicy::Recompute,
                ways,
                ways,
                1,
                tokens as u32,
            );
            self.serving.recovery_mut().recompute_tokens += plan.recompute_tokens;
        }
        evicted
    }

    /// Under watermark pressure, reclaims cold cached prefixes first —
    /// cheaper than preempting an active sequence, since only future cache
    /// hits (not live decodes) pay for it.
    fn relieve_pressure(&mut self, sim: &mut Simulation) {
        while self.pool.above_watermark() {
            if self.evict_cold(sim, 1) == 0 {
                break;
            }
        }
    }

    /// Grows an admitted sequence's table, consulting the prefix cache when
    /// it is enabled (single-row sequences only — grouped rows interleave
    /// their blocks and cannot adopt a shared chain).
    fn admit_grow(
        &mut self,
        sim: &mut Simulation,
        id: u64,
        job: GenerationJob,
        replay_tokens: u32,
        rows: u32,
    ) -> Result<PrefixAdmit, liger_kvcache::OutOfBlocks> {
        if self.config.prefix_cache && rows == 1 {
            let digests = block_digests(&job, self.config.pool.block_tokens);
            let admit = self.pool.admit_with_prefix(sim, id, &digests, replay_tokens, rows)?;
            let prefix = self.serving.prefix_mut();
            prefix.lookups += 1;
            if admit.cached_blocks > 0 {
                prefix.hits += 1;
                prefix.cached_tokens += admit.cached_tokens as u64;
            }
            Ok(admit)
        } else {
            let added = self.pool.grow(sim, id, replay_tokens, rows)?;
            if self.config.prefix_cache {
                self.serving.prefix_mut().lookups += 1;
            }
            Ok(PrefixAdmit { cached_tokens: 0, cached_blocks: 0, added_blocks: added })
        }
    }

    /// Admits waiting sequences: first-come first-served while the running
    /// set, the pool watermark, and the prefill token budget allow.
    fn admit(&mut self, sim: &mut Simulation) {
        while let Some(&id) = self.waiting.front() {
            let active = self.running.len() + self.prefill_inflight.len();
            if active >= self.config.max_running {
                return;
            }
            if self.pool.above_watermark() {
                self.relieve_pressure(sim);
                if self.pool.above_watermark() {
                    return;
                }
            }
            let state = &self.states[&id];
            let job = state.job;
            let (prompt, rows) = (job.prompt_len, job.batch);
            // A sequence whose *final* footprint exceeds the whole pool can
            // never run: shed it with a typed reason instead of spinning.
            let final_tokens = prompt + state.total_steps() - 1;
            if self.pool.blocks_for(final_tokens) * rows as u64 > self.pool.capacity_blocks() {
                self.waiting.pop_front();
                self.shed_kv_exhausted(id, sim.now());
                continue;
            }
            // Replayed prefills re-run over their full cached span. The
            // budget check uses the worst case (no cache hit); the actual
            // charge is the novel span the admission settles on.
            let replay_tokens = prompt.max(state.cached_tokens());
            let prefill_tokens = replay_tokens as u64 * rows as u64;
            if self.prefill_tokens_inflight > 0
                && self.prefill_tokens_inflight + prefill_tokens > self.config.prefill_token_budget
            {
                return;
            }
            match self.admit_grow(sim, id, job, replay_tokens, rows) {
                Ok(admit) => {
                    self.waiting.pop_front();
                    let novel = replay_tokens - admit.cached_tokens;
                    let charged = novel as u64 * rows as u64;
                    self.serving.prefix_mut().novel_tokens += charged;
                    let rid = self.next_request;
                    self.next_request += 1;
                    self.prefill_inflight.insert(rid, (id, charged));
                    self.prefill_tokens_inflight += charged;
                    let shape = liger_model::BatchShape::prefill(rows, novel);
                    self.engine.submit(Request::new(rid, shape, sim.now()), sim);
                }
                Err(_) if self.evict_cold(sim, 1) > 0 => {
                    // Cold cache blocks were holding the pool: retry the
                    // same admission with the reclaimed headroom.
                    self.serving.batching_mut().out_of_blocks += 1;
                }
                Err(_) if self.running.is_empty() && self.prefill_inflight.is_empty() => {
                    // Nothing to preempt and nothing in flight: the pool can
                    // never satisfy this sequence (device capacity).
                    self.serving.batching_mut().out_of_blocks += 1;
                    self.waiting.pop_front();
                    self.pool.release(sim, id);
                    self.shed_kv_exhausted(id, sim.now());
                }
                Err(_) => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    return;
                }
            }
        }
    }

    /// Forms and submits the next fused decode step: grow every running
    /// sequence's table by one token (preempting the youngest under
    /// pressure), then submit one `BatchShape::decode` over the whole set.
    fn form_decode_step(&mut self, sim: &mut Simulation) {
        // Watermark-driven reclamation: cold cached prefixes go first (only
        // future cache hits pay), then the youngest running sequence, so the
        // running set can keep decoding without thrashing on OutOfBlocks.
        self.relieve_pressure(sim);
        while self.pool.above_watermark() && self.running.len() > 1 {
            self.preempt_youngest(sim);
        }
        let mut members: Vec<u64> = Vec::with_capacity(self.running.len());
        let mut i = 0;
        while i < self.running.len() {
            let id = self.running[i];
            let (tokens, rows) = {
                let s = &self.states[&id];
                (s.job.prompt_len + s.steps_done, s.job.batch)
            };
            match self.pool.grow(sim, id, tokens, rows) {
                Ok(_) => {
                    members.push(id);
                    i += 1;
                }
                Err(_) => {
                    self.serving.batching_mut().out_of_blocks += 1;
                    if self.evict_cold(sim, 1) > 0 {
                        // Cold cache blocks freed: retry this member.
                    } else if self.running.len() > 1 {
                        // Evict the youngest and retry; when `running[i]`
                        // *is* the youngest this pops it and the loop ends.
                        self.preempt_youngest(sim);
                    } else if !self.prefill_inflight.is_empty() {
                        // The pool is held by an in-flight replay prefill:
                        // sit this step out — its completion re-pumps.
                        return;
                    } else {
                        // The only live sequence cannot grow with the pool
                        // to itself: its footprint exceeds the device.
                        // Typed shed, no panic.
                        let id = self.running.remove(0);
                        self.pool.release(sim, id);
                        self.shed_kv_exhausted(id, sim.now());
                    }
                }
            }
        }
        if members.is_empty() {
            return;
        }
        // With speculation configured, try a draft round first; if no member
        // could draft ahead (all on their last token, or no blocks for draft
        // KV), fall through to a plain decode step.
        if self.config.spec.is_some() && self.form_spec_round(sim, &members) {
            return;
        }
        let (total_rows, max_context, real_tokens) = self.fused_shape(&members, 0);
        let padded_tokens = (max_context as u64 + 1) * total_rows as u64;
        self.serving.batching_mut().record_batch(padded_tokens, real_tokens);
        self.serving
            .batching_mut()
            .record_occupancy(members.len() as f64 / self.config.max_running as f64);
        let rid = self.next_request;
        self.next_request += 1;
        let shape = liger_model::BatchShape::decode(total_rows, max_context);
        self.decode_inflight = Some((rid, members));
        self.engine.submit(Request::new(rid, shape, sim.now()), sim);
    }

    /// Fused shape of `members` decoding together: `(total rows, max
    /// context, real tokens)` for a step attending over `extra` additional
    /// cached tokens per row (the drafted span in a verification pass).
    fn fused_shape(&self, members: &[u64], extra: u32) -> (u32, u32, u64) {
        let mut total_rows = 0u32;
        let mut max_context = 0u32;
        let mut real_tokens = 0u64;
        for &id in members {
            let s = &self.states[&id];
            // Decode step k attends over context = prompt + k - 1 cached
            // tokens (generation.rs semantics); k = steps_done + 1.
            let context = s.job.prompt_len + s.steps_done - 1 + extra;
            total_rows += s.job.batch;
            max_context = max_context.max(context);
            real_tokens += (context as u64 + 1) * s.job.batch as u64;
        }
        (total_rows, max_context, real_tokens)
    }

    /// Tries to turn this step into a speculative round: grow each member's
    /// table ahead for up to `k` draft tokens (a member that cannot grow —
    /// or is on its last token — drafts less, down to zero), model the
    /// sequential draft burst as a timer of `spec_draft_time`, then submit
    /// the widened verification when it fires. Returns false when no member
    /// drafted anything, leaving the step to plain decoding.
    fn form_spec_round(&mut self, sim: &mut Simulation, members: &[u64]) -> bool {
        let spec = self.config.spec.clone().expect("spec round requires a spec config");
        let mut drafted: Vec<(u64, u32)> = Vec::with_capacity(members.len());
        let mut k_max = 0u32;
        for &id in members {
            let (base_tokens, remaining, rows) = {
                let s = &self.states[&id];
                (s.job.prompt_len + s.steps_done, s.total_steps() - s.steps_done, s.job.batch)
            };
            // This step's token is guaranteed; drafts can only cover the
            // tokens after it.
            let mut k = spec.draft_tokens.min(remaining.saturating_sub(1));
            if k > 0 && self.pool.grow(sim, id, base_tokens + k, rows).is_err() {
                self.serving.batching_mut().out_of_blocks += 1;
                k = 0;
            }
            k_max = k_max.max(k);
            drafted.push((id, k));
        }
        if k_max == 0 {
            return false;
        }
        let (total_rows, max_context, _) = self.fused_shape(members, 0);
        let burst = spec_draft_time(&spec.draft, self.cost, total_rows, max_context, k_max);
        self.spec_pending = Some(SpecRound { epoch: self.spec_epoch, members: drafted, rid: None });
        if burst == SimDuration::ZERO {
            self.submit_spec_verify(sim);
        } else {
            sim.set_timer(sim.now() + burst, SPEC_DRAFT_BASE | self.spec_epoch);
        }
        true
    }

    /// The draft burst finished: submit the batched verification — every
    /// member re-scores its drafts plus the bonus token in one widened
    /// decode (`rows × (k + 1)` single-token rows).
    fn submit_spec_verify(&mut self, sim: &mut Simulation) {
        let round = self.spec_pending.as_ref().expect("verify requires a pending round");
        let members: Vec<u64> = round.members.iter().map(|&(id, _)| id).collect();
        let k_max = round.members.iter().map(|&(_, k)| k).max().unwrap_or(0);
        let (total_rows, max_context, real_tokens) = self.fused_shape(&members, 0);
        let shape = liger_model::spec_verify_shape(total_rows, max_context, k_max);
        let padded = shape.batch as u64 * shape.phase.kv_len() as u64;
        self.serving.batching_mut().record_batch(padded, real_tokens * (k_max as u64 + 1));
        self.serving
            .batching_mut()
            .record_occupancy(members.len() as f64 / self.config.max_running as f64);
        let rid = self.next_request;
        self.next_request += 1;
        self.spec_pending.as_mut().expect("checked above").rid = Some(rid);
        self.engine.submit(Request::new(rid, shape, sim.now()), sim);
    }

    /// The verification completed: accept each member's leading run of
    /// drafted tokens, roll back the rejected tokens' blocks (the sanitizer
    /// watches these frees), and retire members that finished inside the
    /// round.
    fn complete_spec_round(&mut self, round: SpecRound, finished: SimTime, sim: &mut Simulation) {
        let spec = self.config.spec.clone().expect("spec round requires a spec config");
        self.serving.spec_mut().rounds += 1;
        for (id, k) in round.members {
            let (produced, accepted, done_now) = {
                let s = self.states.get_mut(&id).expect("spec member has state");
                let remaining = s.total_steps() - s.steps_done;
                let accepted = spec.accepted(s.job.id, s.steps_done, k);
                // The verify's own token plus the accepted run, capped at
                // the sequence's remaining budget.
                let produced = (accepted + 1).min(remaining);
                for t in s.steps_done..s.steps_done + produced {
                    // Record through the oracle: what the sequence emits is
                    // a pure function of its identity, never of the cache
                    // or the speculation machinery.
                    let token = output_token(&s.job, t);
                    self.outputs.entry(s.job.id).or_default().push(token);
                }
                if s.first_token.is_none() {
                    s.first_token = Some(finished);
                }
                s.steps_done += produced;
                (produced, (produced - 1).min(k), s.steps_done >= s.total_steps())
            };
            let counters = self.serving.spec_mut();
            counters.drafted += k as u64;
            counters.accepted += accepted as u64;
            counters.rejected += (k - accepted) as u64;
            // Roll the table back over the rejected drafts' blocks.
            let cached = {
                let s = &self.states[&id];
                s.job.prompt_len + s.steps_done - 1
            };
            let dropped = self.pool.truncate(sim, id, cached);
            self.serving.spec_mut().rollback_blocks += dropped;
            let _ = produced;
            if done_now {
                self.running.retain(|&r| r != id);
                self.finish(id, finished, sim);
            }
        }
    }

    /// Evicts the youngest running sequence: its blocks are freed, its
    /// prefill will be recomputed on re-admission, and the recompute bill is
    /// priced through `kv_recovery_plan` (evict-and-recompute).
    fn preempt_youngest(&mut self, sim: &mut Simulation) {
        let id = self.running.pop().expect("preempt requires a running sequence");
        let (context, rows) = {
            let s = &self.states[&id];
            (s.cached_tokens(), s.job.batch)
        };
        let freed = self.pool.release(sim, id);
        let batching = self.serving.batching_mut();
        batching.preemptions += 1;
        batching.evicted_blocks += freed;
        let ways = self.pool.devices().len() as u32;
        let plan = kv_recovery_plan(
            self.model,
            self.cost,
            RecoveryPolicy::Recompute,
            ways,
            ways,
            rows,
            context,
        );
        self.serving.recovery_mut().recompute_tokens += plan.recompute_tokens;
        self.waiting.push_front(id);
    }

    fn shed_kv_exhausted(&mut self, id: u64, now: SimTime) {
        let idx = id as usize;
        if self.done[idx] {
            return;
        }
        self.done[idx] = true;
        self.outstanding = self.outstanding.saturating_sub(1);
        self.states.remove(&id);
        self.serving.recovery_mut().shed.push(ShedRecord {
            id,
            at: now,
            reason: ShedReason::KvExhausted,
        });
    }

    fn finish(&mut self, id: u64, finished: SimTime, sim: &mut Simulation) {
        let state = self.states.remove(&id).expect("finishing sequence has state");
        self.pool.release(sim, id);
        let (job, arrival) = (state.job.id, state.job.arrival);
        self.generation.record(GenerationResult {
            id: job,
            arrival,
            first_token: state.first_token.unwrap_or(finished),
            finished,
            tokens: state.job.output_tokens,
            batch: state.job.batch,
        });
        self.serving.record(Completion { id: job, arrival, finished });
        self.done[id as usize] = true;
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// A replan kills the cached prefix chains and any in-flight
    /// speculative round: chains published on the old placement would
    /// serve blocks with a missing or unfilled shard, and the round's
    /// members roll back to their verified span (the epoch bump
    /// invalidates its draft timer).
    fn abandon_round(&mut self, sim: &mut Simulation) {
        let flushed = self.pool.flush_prefix_cache(sim);
        self.serving.prefix_mut().flushed_blocks += flushed;
        if let Some(round) = self.spec_pending.take() {
            self.spec_epoch += 1;
            for (id, _) in round.members {
                if let Some(s) = self.states.get(&id) {
                    let cached = s.cached_tokens();
                    let dropped = self.pool.truncate(sim, id, cached);
                    self.serving.spec_mut().rollback_blocks += dropped;
                }
            }
        }
    }

    /// Cancelled prefills lose their (partial) KV and replay from the front
    /// of the queue — they were admitted before anything still waiting, so
    /// prepending in reverse order keeps FCFS. A cancelled decode step
    /// re-forms once serving resumes; its members keep their KV.
    fn requeue(&mut self, cancelled: Vec<u64>, sim: &mut Simulation) {
        let mut requeue: Vec<u64> = Vec::new();
        for rid in cancelled {
            if let Some((id, charged)) = self.prefill_inflight.remove(&rid) {
                self.prefill_tokens_inflight = self.prefill_tokens_inflight.saturating_sub(charged);
                self.pool.release(sim, id);
                requeue.push(id);
            } else if self.decode_inflight.as_ref().is_some_and(|&(d, _)| d == rid) {
                self.decode_inflight = None;
            }
        }
        requeue.sort_unstable();
        for &id in requeue.iter().rev() {
            self.waiting.push_front(id);
        }
    }
}

impl<E: InferenceEngine + ?Sized> MembershipDriver for ContinuousScheduler<'_, E> {
    fn metrics(&mut self) -> &mut ServingMetrics {
        &mut self.serving
    }

    fn start(&mut self, sim: &mut Simulation) -> bool {
        assert!(
            // Indices must stay clear of the drain/recovered/expanded/
            // health/spec-draft marker bits (the lowest is bit 53).
            self.jobs.len() < (1u64 << 53) as usize,
            "job count overflows the scheduler token namespace"
        );
        for (i, job) in self.jobs.iter().enumerate() {
            sim.set_timer(job.arrival, RUNNER_TOKEN_BASE | i as u64);
        }
        !self.jobs.is_empty()
    }

    fn on_wake(&mut self, wake: Wake, _serving: bool, sim: &mut Simulation) {
        match wake {
            Wake::Timer { token } if token & SPEC_DRAFT_BASE == SPEC_DRAFT_BASE => {
                let epoch = token & !SPEC_DRAFT_BASE;
                // A stale timer (its round died with a replan) is a no-op:
                // the epoch moved on.
                if self.spec_pending.as_ref().is_some_and(|r| r.epoch == epoch && r.rid.is_none()) {
                    self.submit_spec_verify(sim);
                }
            }
            Wake::Timer { token } if token & RUNNER_TOKEN_BASE != 0 => {
                let id = token & !RUNNER_TOKEN_BASE;
                let job = self.jobs[id as usize];
                self.states.insert(id, SeqState { job, first_token: None, steps_done: 0 });
                self.waiting.push_back(id);
            }
            other => self.engine.on_wake(other, sim),
        }
    }

    fn collect(&mut self, serving: bool, sim: &mut Simulation) -> bool {
        for (rid, finished) in self.engine.drain_completions() {
            if let Some((id, charged)) = self.prefill_inflight.remove(&rid) {
                self.prefill_tokens_inflight = self.prefill_tokens_inflight.saturating_sub(charged);
                let (join, finish_now) = {
                    let s = self.states.get_mut(&id).expect("prefill for unknown sequence");
                    if s.steps_done == 0 {
                        // Initial prefill: token 1 is out.
                        s.first_token = Some(finished);
                        s.steps_done = 1;
                        let token = output_token(&s.job, 0);
                        self.outputs.entry(s.job.id).or_default().push(token);
                    }
                    (s.steps_done < s.total_steps(), s.steps_done >= s.total_steps())
                };
                // The full prompt's KV is now resident: publish its block
                // chain for later arrivals to adopt (single-row only; the
                // cache holds its own reference on every indexed block).
                // Mid-replan completions never republish — a chain indexed
                // before the rejoined device is warm would hand out blocks
                // with an unfilled shard.
                if self.config.prefix_cache && serving {
                    let (job, rows) = {
                        let s = &self.states[&id];
                        (s.job, s.job.batch)
                    };
                    if rows == 1 {
                        let digests = block_digests(&job, self.config.pool.block_tokens);
                        let published = self.pool.publish_prefix(id, &digests);
                        self.serving.prefix_mut().published_blocks += published;
                    }
                }
                if finish_now {
                    self.finish(id, finished, sim);
                } else if join {
                    self.running.push(id);
                }
            } else if self.decode_inflight.as_ref().is_some_and(|&(d, _)| d == rid) {
                let (_, members) = self.decode_inflight.take().expect("checked above");
                for id in members {
                    let done_now = {
                        let s = self.states.get_mut(&id).expect("decode member has state");
                        let token = output_token(&s.job, s.steps_done);
                        self.outputs.entry(s.job.id).or_default().push(token);
                        s.steps_done += 1;
                        s.steps_done >= s.total_steps()
                    };
                    if done_now {
                        self.running.retain(|&r| r != id);
                        self.finish(id, finished, sim);
                    }
                }
            } else if self.spec_pending.as_ref().is_some_and(|r| r.rid == Some(rid)) {
                let round = self.spec_pending.take().expect("checked above");
                self.spec_epoch += 1;
                self.complete_spec_round(round, finished, sim);
            }
            // Anything else is a stale completion from before a replan.
        }
        if self.outstanding == 0 {
            let flushed = self.pool.flush_prefix_cache(sim);
            self.serving.prefix_mut().flushed_blocks += flushed;
            debug_assert!(self.pool.is_empty(), "serve ended with live KV blocks");
            return true;
        }
        if serving {
            self.pump(sim);
        }
        false
    }

    /// The dead device's side of every block goes with it; cancelled
    /// prefills re-queue, and the running sequences' lost shard is rebuilt
    /// before serving resumes.
    fn on_loss(&mut self, dead: DeviceId, survivors: &[DeviceId], sim: &mut Simulation) {
        let cancelled = self.engine.on_device_loss(dead, survivors, sim);
        self.pool.on_device_loss(sim, dead);
        self.abandon_round(sim);
        self.requeue(cancelled, sim);
    }

    /// The pool resumes sharding across the rejoined device: every live
    /// block gains a backing page there, filled by the migrate/recompute
    /// work the controller prices. Prefix chains republish only once
    /// serving resumes on the warm placement.
    fn on_rejoin(&mut self, rejoined: DeviceId, devices: &[DeviceId], sim: &mut Simulation) {
        let cancelled = self.engine.on_device_rejoin(rejoined, devices, sim);
        self.abandon_round(sim);
        self.pool.on_device_rejoin(sim, rejoined);
        self.requeue(cancelled, sim);
    }

    fn kv_to_price(&mut self) -> Vec<(u32, u32)> {
        self.running
            .iter()
            .map(|id| {
                let s = &self.states[id];
                (s.job.batch, s.cached_tokens())
            })
            .collect()
    }

    fn backlog(&mut self) -> &mut VecDeque<u64> {
        &mut self.waiting
    }

    fn shed(&mut self, id: u64) {
        let idx = id as usize;
        if !self.done[idx] {
            self.done[idx] = true;
            self.outstanding = self.outstanding.saturating_sub(1);
            self.states.remove(&id);
        }
    }

    fn readmit(&mut self, mut ids: Vec<u64>) {
        // Shed jobs predate everything still waiting (they were shed oldest
        // first): push to the front in reverse so FCFS order holds.
        ids.sort_unstable();
        for &id in ids.iter().rev() {
            self.done[id as usize] = false;
            self.outstanding += 1;
            let job = self.jobs[id as usize];
            self.states.insert(id, SeqState { job, first_token: None, steps_done: 0 });
            self.waiting.push_front(id);
        }
    }

    fn resume(&mut self, sim: &mut Simulation) {
        self.pump(sim);
    }

    fn devices(&self) -> Option<&[DeviceId]> {
        Some(self.pool.devices())
    }
}

/// Serves generation `jobs` with continuous batching: iteration-level
/// scheduling over a paged KV pool, composed with health monitoring,
/// drain-and-replan recovery, and admission shedding. This is the default
/// generative serving path (the fixed-batch [`serve_generations`] remains
/// as the static baseline).
///
/// # Panics
/// If `config` is invalid ([`SchedulerConfig::validate`]).
pub fn serve_continuous<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    jobs: Vec<GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    config: SchedulerConfig,
) -> ContinuousReport {
    config.validate().expect("invalid SchedulerConfig");
    let (policy, health, admission) = (config.policy, config.health, config.admission);
    let scheduler =
        ContinuousScheduler::new(engine, jobs, model, cost, config, sim.alive_devices());
    let mut controller =
        MembershipController::new(scheduler, model, cost, policy, health, admission);
    sim.run_to_completion(&mut controller);
    controller.into_driver().into_report()
}

/// [`serve_continuous`]. Kept only because the repository benchmark
/// (`perfbench/`) calls it with [`CoreSelect::Seq`]; new code should call
/// [`serve_continuous`].
///
/// # Panics
/// If `config` is invalid ([`SchedulerConfig::validate`]).
pub fn serve_continuous_on<E: InferenceEngine + ?Sized>(
    _core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    jobs: Vec<GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    config: SchedulerConfig,
) -> ContinuousReport {
    serve_continuous(sim, engine, jobs, model, cost, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::PrefixTag;
    use crate::testutil::{sim, StepToy};
    use liger_gpu_sim::{DeviceSpec, FaultSpec};

    fn job(id: u64, prompt: u32, tokens: u32, arrival_us: u64) -> GenerationJob {
        GenerationJob {
            id,
            batch: 1,
            prompt_len: prompt,
            output_tokens: tokens,
            arrival: SimTime::from_micros(arrival_us),
            prefix: PrefixTag::NONE,
        }
    }

    fn config(block_bytes: u64, budget_blocks: u64) -> SchedulerConfig {
        SchedulerConfig {
            pool: BlockPoolConfig {
                block_tokens: 16,
                block_bytes,
                budget_bytes: budget_blocks * block_bytes,
                watermark: 0.9,
            },
            max_running: 8,
            prefill_token_budget: 256,
            policy: RecoveryPolicy::Replicate,
            health: None,
            admission: AdmissionConfig::default(),
            prefix_cache: false,
            spec: None,
        }
    }

    fn run(
        world: usize,
        faults: FaultSpec,
        jobs: Vec<GenerationJob>,
        config: SchedulerConfig,
    ) -> ContinuousReport {
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = StepToy::new(world);
        serve_continuous(&mut sim(world, faults), &mut engine, jobs, &model, &cost, config)
    }

    #[test]
    fn all_jobs_complete_with_batching_counters() {
        let jobs = (0..6).map(|i| job(i, 16, 8, 5 * i)).collect();
        let r = run(2, FaultSpec::new(1), jobs, config(1024, 64));
        assert_eq!(r.generation.completed(), 6);
        assert_eq!(r.serving.completed(), 6);
        let b = r.serving.batching();
        assert!(b.batches > 0, "decode steps were recorded");
        assert!(b.occupancy_samples > 0);
        assert!(b.avg_occupancy() > 0.0);
        assert_eq!(b.out_of_blocks, 0, "a generous pool never pressures");
        assert_eq!(b.preemptions, 0);
        for res in r.generation.results() {
            assert!(res.first_token <= res.finished);
            assert!(res.finished > res.arrival);
        }
    }

    #[test]
    fn early_finishers_retire_immediately() {
        // One 6-token and one 20-token generation arriving together: once
        // the short one retires, decode steps shrink to batch 1.
        let jobs = vec![job(0, 16, 6, 0), job(1, 16, 20, 0)];
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = StepToy::new(1);
        let mut s = sim(1, FaultSpec::new(1));
        let r = serve_continuous(&mut s, &mut engine, jobs, &model, &cost, config(1024, 64));
        assert_eq!(r.generation.completed(), 2);
        assert!(engine.decode_batches.contains(&2), "both decoded together at first");
        assert!(engine.decode_batches.iter().filter(|&&b| b == 1).count() > 10, "then solo");
        let short = r.generation.results().iter().find(|x| x.id == 0).unwrap();
        let long = r.generation.results().iter().find(|x| x.id == 1).unwrap();
        assert!(short.finished < long.finished, "the short job is not held hostage");
    }

    #[test]
    fn memory_pressure_preempts_and_still_completes_everything() {
        // 6 blocks of 16 tokens: two 40-token-prompt jobs (3 blocks each)
        // fit, but growth past 48 tokens forces eviction of the youngest.
        let jobs = vec![job(0, 40, 30, 0), job(1, 40, 30, 1)];
        let r = run(1, FaultSpec::new(1), jobs, config(1024, 6));
        assert_eq!(r.generation.completed(), 2, "preemption defers, never drops");
        let b = r.serving.batching();
        assert!(b.preemptions > 0, "tiny pool must preempt");
        assert!(b.evicted_blocks > 0);
        assert!(b.out_of_blocks > 0);
        assert!(
            r.serving.recovery().recompute_tokens > 0,
            "evict-and-recompute is priced through the recovery machinery"
        );
    }

    #[test]
    fn impossible_sequences_shed_with_a_typed_reason() {
        // Pool of 4 blocks = 64 tokens; job 1 needs 80 tokens of KV at its
        // final step and can never fit.
        let jobs = vec![job(0, 16, 4, 0), job(1, 70, 11, 1)];
        let r = run(1, FaultSpec::new(1), jobs, config(1024, 4));
        assert_eq!(r.generation.completed(), 1);
        let shed = &r.serving.recovery().shed;
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 1);
        assert_eq!(shed[0].reason.name(), "kv-exhausted");
    }

    #[test]
    fn device_loss_recovers_and_accounts_every_job() {
        let mut cfg = config(1024, 64);
        cfg.health = Some(HealthConfig::default());
        let death = SimTime::from_micros(100);
        let faults = FaultSpec::new(1).device_down(DeviceId(1), death);
        let jobs = (0..10).map(|i| job(i, 16, 12, 10 * i)).collect();
        let r = run(2, faults, jobs, cfg);
        let rec = r.serving.recovery();
        assert_eq!(rec.losses, 1, "exactly one confirmed loss");
        assert_eq!(
            r.generation.completed() + rec.shed_requests() as usize,
            10,
            "every job completes or is shed with a reason"
        );
        let labels: Vec<&str> = r.serving.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert!(labels.starts_with(&["draining"]), "timeline {labels:?}");
        assert!(labels.contains(&"degraded"));
        assert!(rec.detection_latency <= HealthConfig::default().detection_bound());
    }

    #[test]
    fn a_windowed_outage_re_expands_and_completes_every_job() {
        let mut cfg = config(1024, 64);
        cfg.health = Some(HealthConfig::default());
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(1),
            SimTime::from_micros(100),
            SimTime::from_micros(3_000),
        );
        let jobs = (0..16).map(|i| job(i, 16, 40, 300 * i)).collect();
        let r = run(2, faults, jobs, cfg);
        let rec = r.serving.recovery();
        assert_eq!(rec.losses, 1, "one confirmed loss");
        assert_eq!(rec.rejoins, 1, "the outage ends in a confirmed rejoin");
        assert_eq!(rec.re_expansions, 1, "which triggers one re-expansion");
        assert_eq!(
            r.generation.completed() + rec.shed_requests() as usize,
            16,
            "every job completes or is shed with a reason"
        );
        let labels: Vec<&str> = r.serving.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert!(labels.contains(&"expanding"), "timeline {labels:?}");
        assert_eq!(labels.last(), Some(&"normal"), "full world restored: {labels:?}");
    }

    #[test]
    fn re_expansion_readmits_queue_depth_shed_jobs() {
        let mut cfg = config(1024, 64);
        cfg.health = Some(HealthConfig::default());
        cfg.admission = AdmissionConfig { queue_watermark: 1 };
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(1),
            SimTime::from_micros(100),
            SimTime::from_micros(3_000),
        );
        let jobs = (0..16).map(|i| job(i, 16, 40, 300 * i)).collect();
        let r = run(2, faults, jobs, cfg);
        let rec = r.serving.recovery();
        assert_eq!(rec.re_expansions, 1);
        assert_eq!(rec.shed_requests(), 0, "queue-depth sheds were re-admitted");
        assert_eq!(r.generation.completed(), 16, "and every one of them finished");
    }

    #[test]
    fn empty_job_list_terminates() {
        let r = run(1, FaultSpec::new(1), Vec::new(), config(1024, 8));
        assert_eq!(r.generation.completed(), 0);
        assert_eq!(r.serving.completed(), 0);
    }

    fn shared_job(
        id: u64,
        class: u64,
        shared: u32,
        prompt: u32,
        tokens: u32,
        arrival_us: u64,
    ) -> GenerationJob {
        let mut j = job(id, prompt, tokens, arrival_us);
        j.prefix = PrefixTag::shared(class, shared);
        j
    }

    #[test]
    fn outputs_follow_the_deterministic_oracle() {
        let jobs: Vec<GenerationJob> = (0..3).map(|i| job(i, 16, 5, 5 * i)).collect();
        let r = run(1, FaultSpec::new(1), jobs.clone(), config(1024, 64));
        for j in &jobs {
            let stream = &r.outputs[&j.id];
            assert_eq!(stream.len(), j.output_tokens as usize);
            for (t, &tok) in stream.iter().enumerate() {
                assert_eq!(tok, crate::prefix::output_token(j, t as u32));
            }
        }
    }

    #[test]
    fn prefix_cache_shrinks_repeated_prefills_to_the_novel_tail() {
        // Four arrivals sharing a 48-token prefix over 64-token prompts,
        // spaced so each admission sees the previous prompt published. The
        // first prefill runs the full 64 tokens; later ones adopt the three
        // shared blocks and prefill only the 16-token tail.
        let jobs: Vec<GenerationJob> =
            (0..4).map(|i| shared_job(i, 7, 48, 64, 4, 100 * i)).collect();
        let mut cfg = config(1024, 64);
        cfg.prefix_cache = true;
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = StepToy::new(1);
        let r = serve_continuous(
            &mut sim(1, FaultSpec::new(1)),
            &mut engine,
            jobs.clone(),
            &model,
            &cost,
            cfg,
        );
        assert_eq!(r.generation.completed(), 4);
        assert_eq!(engine.prefill_lens[0], 64, "cold prompt prefills in full");
        assert_eq!(&engine.prefill_lens[1..], &[16, 16, 16], "warm prompts prefill the tail");
        let p = r.serving.prefix();
        assert_eq!(p.lookups, 4);
        assert_eq!(p.hits, 3);
        assert_eq!(p.cached_tokens, 3 * 48);
        assert!(p.published_blocks >= 4, "the first prompt published its four full blocks");
        assert!(p.flushed_blocks > 0, "drain flushed the cache");
        // Cached or not, every job emits its own oracle stream.
        for j in &jobs {
            assert_eq!(r.outputs[&j.id].len(), j.output_tokens as usize);
            assert_eq!(r.outputs[&j.id][0], crate::prefix::output_token(j, 0));
        }
    }

    #[test]
    fn full_cache_hit_still_runs_a_nonempty_prefill() {
        // Identical prompts end to end: the adopter still prefills at least
        // one token (the step that produces its first output token).
        let jobs: Vec<GenerationJob> =
            (0..2).map(|i| shared_job(i, 3, 64, 64, 3, 100 * i)).collect();
        let mut cfg = config(1024, 64);
        cfg.prefix_cache = true;
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = StepToy::new(1);
        let r =
            serve_continuous(&mut sim(1, FaultSpec::new(1)), &mut engine, jobs, &model, &cost, cfg);
        assert_eq!(r.generation.completed(), 2);
        assert_eq!(engine.prefill_lens[0], 64);
        assert!(
            engine.prefill_lens[1] >= 1 && engine.prefill_lens[1] < 64,
            "warm prefill is nonempty but cached: got {}",
            engine.prefill_lens[1]
        );
    }

    #[test]
    fn cold_prefixes_are_evicted_before_any_preemption() {
        // 8-block pool. Job 0 (48-token prompt) publishes 3 cached blocks
        // and retires; job 1 (different class) then needs the pool — cold
        // eviction must free the cache instead of preempting anything.
        let jobs = vec![shared_job(0, 1, 48, 48, 2, 0), shared_job(1, 2, 48, 80, 40, 500)];
        let mut cfg = config(1024, 8);
        cfg.prefix_cache = true;
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = StepToy::new(1);
        let r =
            serve_continuous(&mut sim(1, FaultSpec::new(1)), &mut engine, jobs, &model, &cost, cfg);
        assert_eq!(r.generation.completed(), 2, "eviction made room for the big job");
        let p = r.serving.prefix();
        assert!(p.evicted_blocks > 0, "cold cache blocks were reclaimed");
        assert_eq!(r.serving.batching().preemptions, 0, "no live sequence paid for it");
        assert!(
            r.serving.recovery().recompute_tokens > 0,
            "evicted spans are priced as recompute debt"
        );
    }

    fn spec_run(acceptance: f64, jobs: Vec<GenerationJob>) -> ContinuousReport {
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut cfg = config(1024, 64);
        cfg.spec = Some(SpecDecodeConfig::for_target(&model, 4, acceptance));
        let mut engine = StepToy::new(1);
        serve_continuous(&mut sim(1, FaultSpec::new(1)), &mut engine, jobs, &model, &cost, cfg)
    }

    #[test]
    fn speculative_decoding_preserves_the_output_streams() {
        let jobs: Vec<GenerationJob> = (0..3).map(|i| job(i, 24, 20, 10 * i)).collect();
        let base = run(1, FaultSpec::new(1), jobs.clone(), config(1024, 64));
        for accept in [0.0, 0.7, 1.0] {
            let spec = spec_run(accept, jobs.clone());
            assert_eq!(spec.generation.completed(), 3, "acceptance {accept}");
            assert_eq!(
                spec.outputs, base.outputs,
                "speculation must never change what is emitted (acceptance {accept})"
            );
            assert!(spec.serving.spec().rounds > 0, "rounds ran at acceptance {accept}");
        }
    }

    #[test]
    fn full_acceptance_drafts_everything_and_rejects_nothing() {
        let jobs = vec![job(0, 16, 21, 0)];
        let r = spec_run(1.0, jobs);
        let s = r.serving.spec();
        assert_eq!(r.generation.completed(), 1);
        assert!(s.drafted > 0);
        assert_eq!(s.accepted, s.drafted, "every draft verifies at acceptance 1.0");
        assert_eq!(s.rejected, 0);
        assert!((s.acceptance_rate() - 1.0).abs() < 1e-9);
        // k=4 accepted drafts + 1 verify token = 5 tokens/round after the
        // prefill's first token: 20 remaining tokens need exactly 4 rounds.
        assert_eq!(s.rounds, 4);
    }

    #[test]
    fn zero_acceptance_rolls_back_every_draft_block() {
        // Long generation so drafted spans repeatedly cross 16-token block
        // boundaries and their rejected blocks must be rolled back.
        let jobs = vec![job(0, 16, 40, 0)];
        let r = spec_run(0.0, jobs);
        let s = r.serving.spec();
        assert_eq!(r.generation.completed(), 1);
        assert!(s.drafted > 0);
        assert_eq!(s.accepted, 0, "nothing verifies at acceptance 0.0");
        assert_eq!(s.rejected, s.drafted);
        assert!(s.rollback_blocks > 0, "rejected drafts' grown-ahead blocks were freed");
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let mut c = config(1024, 8);
        assert!(c.validate().is_ok());
        c.max_running = 0;
        assert!(c.validate().is_err());
        c.max_running = 4;
        c.prefill_token_budget = 0;
        assert!(c.validate().is_err());
        c.prefill_token_budget = 64;
        c.pool.budget_bytes = 0;
        assert!(c.validate().is_err());
        let sized = SchedulerConfig::sized_for(
            &ModelConfig::opt_30b(),
            4,
            DeviceSpec::v100_16gb().mem_capacity,
        );
        assert!(sized.validate().is_ok());
    }
}
