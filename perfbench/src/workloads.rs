//! The four serving workloads: how each is generated from its seed, built,
//! served through the public `_on` entry points on the sequential core, and
//! checked. Why each one exists is recorded in `perfbench/WORKLOADS.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use liger_collectives::{NcclConfig, Topology};
use liger_core::{LigerConfig, LigerEngine};
use liger_gpu_sim::{
    CoreSelect, DeviceId, DeviceSpec, FaultSpec, HostSpec, Rng, SimDuration, SimTime, Simulation,
};
use liger_kvcache::BlockPoolConfig;
use liger_model::{profile_contention, CostModel, ModelConfig, Phase};
use liger_serving::{
    output_token, route_jobs, serve_cluster_on, serve_continuous_on, serve_on, ArrivalProcess,
    ClusterConfig, ClusterReport, ContinuousReport, GenerationJob, GenerationResult, HealthConfig,
    PrefillTraceConfig, PrefixTag, Request, RouterPolicy, SchedulerConfig, ServingMetrics,
};
use liger_serving::{BatchingCounters, PrefixCounters, RecoveryCounters};

use crate::alloc::{self, HeapCost};
use crate::stats::{Fingerprint, Slo};
use crate::trace::{Liger, SimCounters};

/// The event core every workload is measured on, whatever `LIGER_CORE`
/// says.
pub const CORE: CoreSelect = CoreSelect::Seq;

/// Devices per node (one V100 NVLink node, the paper's §4.1 testbed).
pub const WORLD: usize = 4;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPrefill,
    ChatContinuous,
    SharedPrefixCluster,
    ChatDeviceLoss,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperPrefill,
        Workload::ChatContinuous,
        Workload::SharedPrefixCluster,
        Workload::ChatDeviceLoss,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPrefill => "paper-prefill",
            Workload::ChatContinuous => "chat-continuous",
            Workload::SharedPrefixCluster => "shared-prefix-cluster",
            Workload::ChatDeviceLoss => "chat-device-loss",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Submitted requests per pass: at least 1000, so p99 keeps ten
    /// completed samples beyond it, and enough that the p99s spread across
    /// seeds by about a tenth. The chat traces stop at 2000: their serve's
    /// heap peaks near 400 MiB there and doubles beyond.
    pub fn requests(self) -> usize {
        match self {
            Workload::ChatContinuous | Workload::ChatDeviceLoss => 2000,
            _ => 3000,
        }
    }

    /// Poisson arrival rate, requests per simulated second. Paper-prefill
    /// runs at half the ~24 req/s the engine sustains on the trace: nearer
    /// the knee its p99 swings by a sixth between seeds; the chat traffic at 30 req/s per node, which three
    /// surviving devices still keep up with after the loss, so the
    /// device-loss workload sheds nothing; the cluster at the same load per
    /// replica.
    pub fn rate(self) -> f64 {
        match self {
            Workload::PaperPrefill => 12.0,
            Workload::SharedPrefixCluster => 60.0,
            Workload::ChatContinuous | Workload::ChatDeviceLoss => 30.0,
        }
    }

    /// The latency limits goodput counts against: three to four times the
    /// median time to first token at the workload's rate, and for
    /// generation about twice the median time per output token, so goodput
    /// drops when queueing or decode slows, well before requests fail.
    pub fn slo(self) -> Slo {
        let ms = |v: u64| v * 1_000_000;
        match self {
            // A prefill request's one token is its first token.
            Workload::PaperPrefill => Slo { ttft_ns: ms(250), tpot_ns: u64::MAX },
            _ => Slo { ttft_ns: ms(50), tpot_ns: ms(15) },
        }
    }
}

/// Layers of the OPT-30B stack the generation workloads serve: the full
/// depth for the paper's prefill trace, a quarter of it for the chat
/// traces, whose per-request host cost is dominated by the scheduler and
/// the KV pool rather than by the per-layer kernels.
const CHAT_LAYERS: u32 = 12;

/// Prompt classes of the shared-prefix workload.
const CLASSES: u64 = 8;
/// Prompt tokens shared within a class (16 blocks of 16 tokens).
const SHARED_PREFIX: u32 = 256;
/// The device the device-loss workload loses.
const LOST_DEVICE: DeviceId = DeviceId(3);
/// Replicas behind the cluster front, and how it routes.
const REPLICAS: usize = 2;
const ROUTER: RouterPolicy = RouterPolicy::PrefixAffinity;

/// The node every workload runs on, with its offline-profiled contention
/// factor (§3.5).
pub struct Node {
    device: DeviceSpec,
    cost: CostModel,
    factor: f64,
}

impl Node {
    fn profile() -> Node {
        let device = DeviceSpec::v100_16gb();
        let factor = profile_contention(&device, &NcclConfig::liger_tuned()).factor();
        let cost = CostModel::new(device.clone(), Topology::v100_nvlink());
        Node { device, cost, factor }
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The profiled contention factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// A fresh simulation of the node under `faults`.
    pub fn simulation(&self, faults: Option<FaultSpec>) -> Simulation {
        let mut b = Simulation::builder().devices(self.device.clone(), WORLD);
        for r in 0..WORLD {
            b = b.host(HostSpec::mpi_rank(r));
        }
        if let Some(f) = faults {
            b = b.faults(f);
        }
        b.build().expect("the V100 node preset is a valid simulation")
    }

    fn engine(&self, model: &ModelConfig) -> LigerEngine {
        let config = LigerConfig::default().with_contention_factor(self.factor);
        LigerEngine::new(model.clone(), self.cost.clone(), WORLD, config)
            .expect("OPT-30B divides 4 ways")
    }
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub enum Jobs {
    /// Prefill-only requests (`serve_on`).
    Prefill(Vec<Request>),
    /// Generation jobs (continuous batching and the cluster front).
    Generation(Vec<GenerationJob>),
}

impl Jobs {
    /// Submitted requests.
    pub fn len(&self) -> usize {
        match self {
            Jobs::Prefill(r) => r.len(),
            Jobs::Generation(j) => j.len(),
        }
    }

    /// The requests as generation jobs, arrival order; a prefill request
    /// is a job of one output token.
    pub fn as_generation(&self) -> Vec<GenerationJob> {
        match self {
            Jobs::Generation(j) => j.clone(),
            Jobs::Prefill(r) => r
                .iter()
                .map(|r| GenerationJob {
                    id: r.id,
                    batch: r.shape.batch,
                    prompt_len: match r.shape.phase {
                        Phase::Prefill { seq_len } => seq_len,
                        Phase::Decode { context } => context,
                    },
                    output_tokens: 1,
                    arrival: r.arrival,
                    prefix: PrefixTag::NONE,
                })
                .collect(),
        }
    }
}

/// The paper's §4.1 prefill trace (lengths 16–128, batch 2), Poisson.
fn prefill_trace(seed: u64) -> Vec<Request> {
    let w = Workload::PaperPrefill;
    let mut cfg = PrefillTraceConfig::paper(w.requests(), 2, w.rate(), seed);
    cfg.arrivals = ArrivalProcess::Poisson { rate: w.rate() };
    cfg.generate()
}

/// Skewed chat traffic: prompts of 32–128 tokens; three replies in four
/// are 4–12 tokens, the rest 48–96.
fn chat_jobs(seed: u64) -> Vec<GenerationJob> {
    let w = Workload::ChatContinuous;
    let arrivals = ArrivalProcess::Poisson { rate: w.rate() }.arrival_times(w.requests(), seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0xc4a7);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let prompt_len = rng.u32_inclusive(32, 128);
            let output_tokens = if rng.u64_below(4) == 0 {
                rng.u32_inclusive(48, 96)
            } else {
                rng.u32_inclusive(4, 12)
            };
            GenerationJob {
                id: i as u64,
                batch: 1,
                prompt_len,
                output_tokens,
                arrival,
                prefix: PrefixTag::NONE,
            }
        })
        .collect()
}

/// A few prompt classes with long shared prefixes and short unique tails
/// (16–48 tokens), short replies (4–12 tokens).
fn shared_prefix_jobs(seed: u64) -> Vec<GenerationJob> {
    let w = Workload::SharedPrefixCluster;
    let arrivals = ArrivalProcess::Poisson { rate: w.rate() }.arrival_times(w.requests(), seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5a7ed);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let class = rng.u64_below(CLASSES);
            GenerationJob {
                id: i as u64,
                batch: 1,
                prompt_len: SHARED_PREFIX + rng.u32_inclusive(16, 48),
                output_tokens: rng.u32_inclusive(4, 12),
                arrival,
                prefix: PrefixTag::shared(class, SHARED_PREFIX),
            }
        })
        .collect()
}

/// Watchdog sized for the Liger engine, as in the recovery tier: probes
/// share a hardware queue with the secondary stream, so the bound absorbs
/// normal kernel queueing without false positives.
fn health() -> HealthConfig {
    HealthConfig {
        interval: SimDuration::from_millis(1),
        suspicion_threshold: 3,
        probe_stream: 3,
        ..HealthConfig::default()
    }
}

/// Everything one pass builds before its first request arrives.
pub struct Prepared {
    workload: Workload,
    jobs: Jobs,
    model: ModelConfig,
    node: Node,
    scheduler: Option<SchedulerConfig>,
    sims: Vec<Simulation>,
    engines: Vec<LigerEngine>,
}

impl Prepared {
    /// The generated inputs.
    pub fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// The node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The served model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The KV pool geometry the scheduler uses (for the prefill workload,
    /// which pages no KV, the one it would use).
    pub fn pool(&self) -> BlockPoolConfig {
        match &self.scheduler {
            Some(s) => s.pool,
            None => BlockPoolConfig::sized_for(
                &self.model,
                WORLD as u32,
                self.node.device.mem_capacity,
                16,
            ),
        }
    }
}

/// Generates the workload from `seed`, profiles contention, and builds the
/// simulations and engines.
pub fn setup(workload: Workload, seed: u64) -> Prepared {
    let node = Node::profile();
    let full = ModelConfig::opt_30b();
    let chat = full.with_layers(CHAT_LAYERS);
    let capacity = node.device.mem_capacity;
    let (jobs, model, scheduler, replicas, faults) = match workload {
        Workload::PaperPrefill => (Jobs::Prefill(prefill_trace(seed)), full, None, 1, None),
        Workload::ChatContinuous => {
            let sched = SchedulerConfig::sized_for(&chat, WORLD as u32, capacity);
            (Jobs::Generation(chat_jobs(seed)), chat, Some(sched), 1, None)
        }
        Workload::SharedPrefixCluster => {
            let pinned = CLASSES as u32 * SHARED_PREFIX;
            let sched = SchedulerConfig::sized_for_shared(&chat, WORLD as u32, capacity, pinned);
            (Jobs::Generation(shared_prefix_jobs(seed)), chat, Some(sched), REPLICAS, None)
        }
        Workload::ChatDeviceLoss => {
            let jobs = chat_jobs(seed);
            // The loss lands when half the trace has arrived.
            let at = jobs[jobs.len() / 2].arrival;
            let mut sched = SchedulerConfig::sized_for(&chat, WORLD as u32, capacity);
            sched.health = Some(health());
            let faults = FaultSpec::new(seed).device_down(LOST_DEVICE, at);
            (Jobs::Generation(jobs), chat, Some(sched), 1, Some(faults))
        }
    };
    let sims = (0..replicas).map(|_| node.simulation(faults.clone())).collect();
    let engines = (0..replicas).map(|_| node.engine(&model)).collect();
    Prepared { workload, jobs, model, node, scheduler, sims, engines }
}

/// The report a serve entry point returned.
pub enum Report {
    Prefill(ServingMetrics),
    Continuous(ContinuousReport),
    Cluster(ClusterReport),
}

/// One served pass, before evaluation.
pub struct Outcome {
    workload: Workload,
    jobs: Jobs,
    report: Report,
    /// Simulator counters and `(rounds planned, degraded rounds)`, where
    /// the serve left the simulation and engine in the caller's hands (not
    /// so for the cluster front).
    single: Option<(SimCounters, u64, u64)>,
    /// Host wall time of the serve call, ns.
    pub wall_ns: u64,
    /// Heap cost of the serve call.
    pub heap: HeapCost,
}

/// Serves a prepared pass with each engine passed through `wrap` (the
/// identity for the measured run, the tracing wrapper for the traced one).
/// Only the serve call itself is timed and allocation-counted.
pub fn serve<E: Liger>(p: Prepared, mut wrap: impl FnMut(usize, LigerEngine) -> E) -> Outcome {
    let Prepared { workload, jobs, model, node, scheduler, mut sims, engines } = p;
    let mut engines: Vec<E> = engines.into_iter().enumerate().map(|(i, e)| wrap(i, e)).collect();
    let cost = node.cost();
    let mut single = None;
    let start = Instant::now();
    let (report, heap) = match &jobs {
        Jobs::Prefill(requests) => {
            let (sim, engine) = (&mut sims[0], &mut engines[0]);
            let (m, heap) = alloc::measure(|| serve_on(CORE, sim, engine, requests.clone()));
            let l = engine.liger();
            single = Some((SimCounters::read(sim), l.rounds_planned(), l.degraded_rounds()));
            (Report::Prefill(m), heap)
        }
        Jobs::Generation(gen) if workload == Workload::SharedPrefixCluster => {
            let sched = scheduler.expect("the cluster workload has a scheduler config");
            let config = ClusterConfig::new(REPLICAS, sched).with_policy(ROUTER);
            let mut slots: Vec<Option<(Simulation, E)>> =
                sims.drain(..).zip(engines.drain(..)).map(Some).collect();
            let (r, heap) = alloc::measure(|| {
                serve_cluster_on(CORE, gen.clone(), &model, cost, config, |replica, wave| {
                    match slots.get_mut(replica).and_then(Option::take) {
                        Some(built) if wave == 0 => built,
                        _ => (node.simulation(None), wrap(replica, node.engine(&model))),
                    }
                })
            });
            (Report::Cluster(r), heap)
        }
        Jobs::Generation(gen) => {
            let sched = scheduler.expect("generation workloads have a scheduler config");
            let (sim, engine) = (&mut sims[0], &mut engines[0]);
            let (r, heap) = alloc::measure(|| {
                serve_continuous_on(CORE, sim, engine, gen.clone(), &model, cost, sched)
            });
            let l = engine.liger();
            single = Some((SimCounters::read(sim), l.rounds_planned(), l.degraded_rounds()));
            (Report::Continuous(r), heap)
        }
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    Outcome { workload, jobs, report, single, wall_ns, heap }
}

/// Counters of the served pass that the per-layer metrics read.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    /// Simulator counters and engine rounds, when the serve left them
    /// readable (see [`Outcome`]).
    pub single: Option<(SimCounters, u64, u64)>,
    pub batching: BatchingCounters,
    pub prefix: PrefixCounters,
    pub recovery: RecoveryCounters,
    /// Completed requests per replica.
    pub replica_completed: Vec<usize>,
    /// Jobs the cluster front re-routed.
    pub rerouted: u64,
    /// Completed streams that match the token oracle only under the id
    /// their replica renumbered them to.
    pub renumbered_streams: u64,
}

/// The simulated results of one pass.
#[derive(Debug, Clone)]
pub struct Served {
    pub submitted: usize,
    pub completed: usize,
    pub shed: usize,
    pub lost: usize,
    /// Per completed request, by id: (time to first token, time per output
    /// token), ns.
    pub latencies: Vec<(u64, u64)>,
    /// Times to first token, ascending, ns.
    pub ttft_ns: Vec<u64>,
    /// Times per output token, ascending, ns.
    pub tpot_ns: Vec<u64>,
    /// Arrival to last token, ascending, ns.
    pub e2e_ns: Vec<u64>,
    /// Output tokens produced (batch rows × tokens).
    pub tokens: u64,
    /// First arrival to last completion, ns.
    pub span_ns: u64,
    /// Every simulated result of the pass folded together.
    pub fingerprint: Fingerprint,
    pub counters: LayerCounters,
}

/// Checks a pass and extracts its simulated results. Fails if the
/// accounting does not close or a completed stream differs from the token
/// oracle.
pub fn evaluate(o: Outcome) -> Result<Served, String> {
    let name = o.workload.name();
    let submitted = o.jobs.len();
    let first_arrival = match &o.jobs {
        Jobs::Prefill(r) => r.iter().map(|r| r.arrival).min(),
        Jobs::Generation(j) => j.iter().map(|j| j.arrival).min(),
    }
    .unwrap_or(SimTime::ZERO);

    let mut done: Vec<Done> = Vec::new();
    let mut counters = LayerCounters { single: o.single, ..LayerCounters::default() };
    let mut cluster_lost: Vec<u64> = Vec::new();
    let serving = match &o.report {
        Report::Prefill(m) => {
            let Jobs::Prefill(requests) = &o.jobs else { unreachable!("prefill report") };
            for c in m.completions() {
                // A prefill request yields one token per row, and that token
                // is its first.
                let rows = requests.get(c.id as usize).map_or(0, |r| r.shape.batch) as u64;
                done.push(Done {
                    id: c.id,
                    arrival: c.arrival,
                    first: c.finished,
                    finished: c.finished,
                    steps: 1,
                    rows,
                });
            }
            counters.replica_completed = vec![m.completed()];
            m
        }
        Report::Continuous(r) => {
            gen_done(r.generation.results(), &mut done);
            check_streams(&o.jobs, r.generation.results(), &r.outputs, &BTreeMap::new())?;
            counters.replica_completed = vec![r.generation.completed()];
            &r.serving
        }
        Report::Cluster(r) => {
            gen_done(r.generation.results(), &mut done);
            let served = match &o.jobs {
                Jobs::Generation(j) => cluster_served_ids(j),
                Jobs::Prefill(_) => BTreeMap::new(),
            };
            counters.renumbered_streams =
                check_streams(&o.jobs, r.generation.results(), &r.outputs, &served)?;
            counters.replica_completed =
                r.replicas.iter().map(|s| s.generation.completed()).collect();
            counters.rerouted = r.rerouted;
            cluster_lost = r.lost.clone();
            &r.serving
        }
    };
    counters.batching = *serving.batching();
    counters.prefix = *serving.prefix();
    counters.recovery = serving.recovery().clone();

    // Accounting: every submitted request is completed, shed or lost (the
    // cluster front lists the jobs no replica completed), and exactly one of
    // them.
    let shed_ids: Vec<u64> = counters.recovery.shed.iter().map(|s| s.id).collect();
    let mut seen = BTreeSet::new();
    for id in done
        .iter()
        .map(|d| d.id)
        .chain(shed_ids.iter().copied())
        .chain(cluster_lost.iter().copied())
    {
        if id as usize >= submitted || !seen.insert(id) {
            return Err(format!("{name}: request {id} accounted twice or out of range"));
        }
    }
    let (completed, shed, lost) = (done.len(), shed_ids.len(), cluster_lost.len());
    if seen.len() != submitted {
        return Err(format!(
            "{name}: accounting does not close: {submitted} submitted, {completed} completed, \
             {shed} shed, {lost} lost"
        ));
    }

    done.sort_by_key(|d| d.id);
    let mut fp = Fingerprint::default();
    let (mut latencies, mut e2e) = (Vec::new(), Vec::new());
    let mut tokens = 0;
    let mut last = first_arrival;
    for &Done { id, arrival, first, finished, steps, rows } in &done {
        if first < arrival || finished < first {
            return Err(format!("{name}: request {id} finished before it arrived"));
        }
        let total = finished.saturating_since(arrival).as_nanos();
        // Decode-phase time per token, as `GenerationResult::tpot`; a
        // request that yields a single token spends its whole latency on it.
        let per_token = if steps <= 1 {
            total
        } else {
            finished.saturating_since(first).as_nanos() / (steps - 1)
        };
        latencies.push((first.saturating_since(arrival).as_nanos(), per_token));
        e2e.push(total);
        tokens += steps * rows;
        last = last.max(finished);
        for w in [id, arrival.as_nanos(), first.as_nanos(), finished.as_nanos(), steps, rows] {
            fp.add(w);
        }
    }
    for id in shed_ids.iter().chain(&cluster_lost) {
        fp.add(*id);
    }
    let b = &counters.batching;
    let p = &counters.prefix;
    let r = &counters.recovery;
    for w in [
        b.batches,
        b.padded_tokens,
        b.preemptions,
        b.evicted_blocks,
        b.out_of_blocks,
        p.hits,
        p.cached_tokens,
        r.recompute_tokens,
        r.detection_latency.as_nanos(),
        r.drain_time.as_nanos(),
        r.replan_time.as_nanos(),
    ] {
        fp.add(w);
    }
    if let Some((sim, rounds, degraded)) = counters.single {
        for w in [sim.events, sim.kernels, sim.busy_overlap_ns, rounds, degraded] {
            fp.add(w);
        }
    }
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    e2e.sort_unstable();
    Ok(Served {
        submitted,
        completed,
        shed,
        lost,
        ttft_ns: sorted(latencies.iter().map(|l| l.0).collect()),
        tpot_ns: sorted(latencies.iter().map(|l| l.1).collect()),
        latencies,
        e2e_ns: e2e,
        tokens,
        span_ns: last.saturating_since(first_arrival).as_nanos().max(1),
        fingerprint: fp,
        counters,
    })
}

/// One completed request.
struct Done {
    id: u64,
    arrival: SimTime,
    first: SimTime,
    finished: SimTime,
    /// Tokens produced per row.
    steps: u64,
    /// Batch rows.
    rows: u64,
}

fn gen_done(results: &[GenerationResult], done: &mut Vec<Done>) {
    done.extend(results.iter().map(|r| Done {
        id: r.id,
        arrival: r.arrival,
        first: r.first_token,
        finished: r.finished,
        steps: r.tokens as u64,
        rows: r.batch.max(1) as u64,
    }));
}

/// Every completed job's stream must be exactly the deterministic token
/// oracle's, in order. `served` maps a job id to the id the serving stack
/// ran it under, where that differs: the cluster front renumbers each
/// replica's jobs densely, and the token oracle keys on the id it is given.
/// A stream matching the oracle only under the served id is counted, not
/// failed; the count is returned.
fn check_streams(
    jobs: &Jobs,
    results: &[GenerationResult],
    outputs: &BTreeMap<u64, Vec<u64>>,
    served: &BTreeMap<u64, u64>,
) -> Result<u64, String> {
    let Jobs::Generation(jobs) = jobs else { return Ok(0) };
    let oracle = |job: &GenerationJob| -> Vec<u64> {
        (0..job.output_tokens).map(|t| output_token(job, t)).collect()
    };
    let mut renumbered = 0;
    for r in results {
        let job = &jobs[r.id as usize];
        let Some(got) = outputs.get(&r.id) else {
            return Err(format!("job {} completed without an output stream", r.id));
        };
        if *got == oracle(job) {
            continue;
        }
        let as_served = served.get(&r.id).map(|&id| GenerationJob { id, ..*job });
        if as_served.is_some_and(|j| *got == oracle(&j)) {
            renumbered += 1;
            continue;
        }
        return Err(format!(
            "job {}: its {}-token stream differs from the token oracle's",
            r.id,
            got.len()
        ));
    }
    Ok(renumbered)
}

/// Global job id → the id its replica ran it under: the cluster front
/// routes with `route_jobs` and numbers each replica's share densely in
/// arrival order.
fn cluster_served_ids(jobs: &[GenerationJob]) -> BTreeMap<u64, u64> {
    let mut served = BTreeMap::new();
    for mut share in route_jobs(jobs, REPLICAS, ROUTER) {
        share.sort_unstable_by_key(|&id| (jobs[id as usize].arrival, id));
        served.extend(share.into_iter().enumerate().map(|(local, id)| (id, local as u64)));
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64) -> GenerationJob {
        GenerationJob {
            id,
            batch: 1,
            prompt_len: 32,
            output_tokens: 3,
            arrival: SimTime::from_millis(id),
            prefix: PrefixTag::NONE,
        }
    }

    fn result(id: u64) -> GenerationResult {
        let at = SimTime::from_millis(id);
        GenerationResult { id, arrival: at, first_token: at, finished: at, tokens: 3, batch: 1 }
    }

    fn stream(job: &GenerationJob) -> Vec<u64> {
        (0..job.output_tokens).map(|t| output_token(job, t)).collect()
    }

    #[test]
    fn streams_must_match_the_oracle() {
        let jobs: Vec<GenerationJob> = (0..3).map(job).collect();
        let results: Vec<GenerationResult> = (0..3).map(result).collect();
        let mut outputs: BTreeMap<u64, Vec<u64>> = jobs.iter().map(|j| (j.id, stream(j))).collect();
        let none = BTreeMap::new();
        let wrapped = Jobs::Generation(jobs.clone());
        assert_eq!(check_streams(&wrapped, &results, &outputs, &none), Ok(0));

        // Job 2 ran as job 0 on its replica: accepted and counted.
        outputs.insert(2, stream(&GenerationJob { id: 0, ..jobs[2] }));
        let served = BTreeMap::from([(2, 0)]);
        assert_eq!(check_streams(&wrapped, &results, &outputs, &served), Ok(1));
        assert!(check_streams(&wrapped, &results, &outputs, &none).is_err());

        // A dropped token or a missing stream fails under any id.
        outputs.get_mut(&1).expect("stream of job 1").pop();
        assert!(check_streams(&wrapped, &results, &outputs, &served).is_err());
        outputs.remove(&1);
        assert!(check_streams(&wrapped, &results, &outputs, &served).is_err());
    }

    fn continuous_outcome(jobs: &[GenerationJob], results: &[GenerationResult]) -> Outcome {
        let mut report = ContinuousReport::default();
        for r in results {
            report.generation.record(*r);
            report.outputs.insert(r.id, stream(&jobs[r.id as usize]));
        }
        Outcome {
            workload: Workload::ChatContinuous,
            jobs: Jobs::Generation(jobs.to_vec()),
            report: Report::Continuous(report),
            single: None,
            wall_ns: 1,
            heap: HeapCost { allocs: 0, bytes: 0, peak_bytes: 0 },
        }
    }

    #[test]
    fn latencies_stay_paired_per_request() {
        let ms = SimTime::from_millis;
        let jobs: Vec<GenerationJob> = (0..2).map(job).collect();
        // Job 0: quick first token, slow decode; job 1 the other way round.
        let results = [
            GenerationResult { finished: ms(100), ..result(0) },
            GenerationResult { first_token: ms(51), finished: ms(53), ..result(1) },
        ];
        let served = evaluate(continuous_outcome(&jobs, &results)).expect("accounting closes");
        assert_eq!(served.latencies, vec![(0, 50_000_000), (50_000_000, 1_000_000)]);
        let slo = Slo { ttft_ns: 10_000_000, tpot_ns: 10_000_000 };
        assert_eq!(crate::stats::goodput(&served.latencies, slo, 1_000_000_000), 0.0);
        assert_eq!(served.ttft_ns, vec![0, 50_000_000]);
        assert_eq!(served.tpot_ns, vec![1_000_000, 50_000_000]);
    }

    #[test]
    fn a_request_neither_completed_nor_shed_fails_accounting() {
        let jobs: Vec<GenerationJob> = (0..2).map(job).collect();
        assert!(evaluate(continuous_outcome(&jobs, &[result(0)])).is_err());
        assert!(evaluate(continuous_outcome(&jobs, &[result(0), result(1)])).is_ok());
    }

    #[test]
    fn cluster_ids_are_dense_per_replica_in_arrival_order() {
        let jobs: Vec<GenerationJob> = (0..20).map(job).collect();
        let served = cluster_served_ids(&jobs);
        assert_eq!(served.len(), jobs.len());
        for share in route_jobs(&jobs, REPLICAS, ROUTER) {
            let ids: Vec<u64> = share.iter().map(|id| served[id]).collect();
            assert_eq!(ids, (0..share.len() as u64).collect::<Vec<_>>());
        }
    }
}
