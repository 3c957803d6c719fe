//! Cluster front: N model replicas behind a deterministic router.
//!
//! Each replica is a full engine serving its share of the trace with
//! [`serve_continuous`] on its own node (its own [`Simulation`], so replica
//! traces sanitize independently). The router assigns jobs to replicas
//! **at arrival order** with a pluggable [`RouterPolicy`]:
//!
//! * **Round-robin** — job *i* to replica *i mod N*.
//! * **Least-outstanding** — the replica with the fewest outstanding tokens
//!   (prompt + expected output, weighted by batch rows) at assignment time;
//!   ties break to the lowest replica index, so the choice is a pure
//!   function of the assignment history.
//! * **Prefix-affinity** — jobs carrying a shared-prefix class hash their
//!   class to a replica, so one replica's chain index (PR 7) serves the
//!   whole class; untagged jobs fall back to least-outstanding.
//!
//! Replica health feeds back from the existing watchdog: each replica runs
//! with its own [`HealthConfig`](crate::health::HealthConfig)-driven
//! monitor, and a replica whose report shows confirmed losses is marked
//! unhealthy. After the first wave, every routed job the replica failed to
//! complete — shed by admission, lost to an outage, or still queued when
//! the replica drained — **re-routes** to the healthy replicas in a second
//! wave (round-robin over the healthy set, preserving arrival order). The
//! report accounts for every job: completed, re-routed, or lost.

use std::collections::{BTreeMap, BTreeSet};

use liger_gpu_sim::{CoreSelect, Simulation, Trace};
use liger_kvcache::mix64;
use liger_model::{CostModel, ModelConfig};

use crate::engine::InferenceEngine;
use crate::generation::{GenerationJob, GenerationMetrics};
use crate::metrics::{MetricsSections, ServingMetrics};
use crate::prefix::PrefixTag;
use crate::scheduler::{serve_continuous, ContinuousReport, SchedulerConfig};

/// Deterministic request-routing policy of the cluster front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Job *i* to replica *i mod N*.
    RoundRobin,
    /// The replica with the fewest outstanding tokens at assignment time
    /// (ties to the lowest index).
    LeastOutstanding,
    /// Shared-prefix classes hash to a home replica (so its chain index
    /// serves the class); untagged jobs use least-outstanding.
    PrefixAffinity,
}

impl RouterPolicy {
    /// Policy label for reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::PrefixAffinity => "prefix-affinity",
        }
    }
}

/// Configuration of the cluster front.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Routing policy.
    pub policy: RouterPolicy,
    /// Per-replica continuous-batching configuration.
    pub scheduler: SchedulerConfig,
    /// Re-route jobs an unhealthy replica failed to complete in a second
    /// wave over the healthy replicas (on by default).
    pub reroute: bool,
}

impl ClusterConfig {
    /// A cluster of `replicas` replicas under `scheduler`, round-robin,
    /// with re-routing on.
    pub fn new(replicas: usize, scheduler: SchedulerConfig) -> ClusterConfig {
        ClusterConfig { replicas, policy: RouterPolicy::RoundRobin, scheduler, reroute: true }
    }

    /// Overrides the routing policy.
    pub fn with_policy(mut self, policy: RouterPolicy) -> ClusterConfig {
        self.policy = policy;
        self
    }

    /// Rejects degenerate parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("cluster needs at least one replica".into());
        }
        self.scheduler.validate()
    }
}

/// One replica's view of the serve: what was routed to it and what its
/// engine reported, with all ids in the global space.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSlot {
    /// Global job ids routed in the first wave, arrival order.
    pub routed: Vec<u64>,
    /// Global job ids accepted from unhealthy peers in the re-route wave.
    pub rerouted: Vec<u64>,
    /// Whether the replica finished with zero watchdog-confirmed losses.
    pub healthy: bool,
    /// Merged serving metrics of the replica (both waves, global ids).
    pub serving: ServingMetrics,
    /// Merged per-generation results of the replica (global ids).
    pub generation: GenerationMetrics,
}

/// Outcome of one cluster serve.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Per-replica accounting.
    pub replicas: Vec<ReplicaSlot>,
    /// Aggregate per-generation results across every replica (global ids).
    pub generation: GenerationMetrics,
    /// Aggregate serving metrics across every replica.
    pub serving: ServingMetrics,
    /// Every produced output stream, keyed by global job id.
    pub outputs: BTreeMap<u64, Vec<u64>>,
    /// Jobs that ran in the re-route wave.
    pub rerouted: u64,
    /// Global ids of jobs no replica completed (unaccounted work — the
    /// cluster tests assert this stays empty, or matches the shed count
    /// under total overload).
    pub lost: Vec<u64>,
    /// Captured traces in deterministic order (wave 1 replicas 0..N, then
    /// wave 2 replicas 0..N), when the factory built sims with trace
    /// capture on.
    pub traces: Vec<Trace>,
}

impl ClusterReport {
    /// Jobs completed across the cluster.
    pub fn completed(&self) -> usize {
        self.generation.completed()
    }
}

/// JSON view: the aggregate plus one `replica_<i>` section per replica, all
/// emitted through the shared [`MetricsSections`] helper so every section
/// carries the identical field set.
impl liger_gpu_sim::ToJson for ClusterReport {
    fn write_json(&self, out: &mut String) {
        let mut sections = MetricsSections::new();
        sections.push("aggregate", &self.serving);
        let labels: Vec<String> =
            (0..self.replicas.len()).map(|i| format!("replica_{i}")).collect();
        for (label, slot) in labels.iter().zip(&self.replicas) {
            sections.push(label.clone(), &slot.serving);
        }
        let mut obj = liger_gpu_sim::json::JsonObject::begin(out);
        obj.field("completed", &(self.completed() as u64))
            .field("rerouted", &self.rerouted)
            .field("lost", &(self.lost.len() as u64))
            .field("metrics", &sections);
        obj.end();
    }
}

/// Routes `jobs` (arrival order) over `replicas` replicas by `policy`.
/// Returns the global job indices per replica. Pure function of the job
/// list — no simulation state involved — so routing is deterministic by
/// construction.
pub fn route_jobs(jobs: &[GenerationJob], replicas: usize, policy: RouterPolicy) -> Vec<Vec<u64>> {
    assert!(replicas >= 1, "routing needs at least one replica");
    let mut assignment: Vec<Vec<u64>> = vec![Vec::new(); replicas];
    // Outstanding prompt+output tokens per replica at assignment time.
    let mut outstanding: Vec<u64> = vec![0; replicas];
    let least = |outstanding: &[u64]| -> usize {
        let mut best = 0;
        for (i, &o) in outstanding.iter().enumerate() {
            if o < outstanding[best] {
                best = i;
            }
        }
        best
    };
    for (i, job) in jobs.iter().enumerate() {
        let r = match policy {
            RouterPolicy::RoundRobin => i % replicas,
            RouterPolicy::LeastOutstanding => least(&outstanding),
            RouterPolicy::PrefixAffinity => {
                if job.prefix != PrefixTag::NONE {
                    (mix64(job.prefix.class) % replicas as u64) as usize
                } else {
                    least(&outstanding)
                }
            }
        };
        assignment[r].push(job.id);
        outstanding[r] +=
            (job.prompt_len as u64 + job.output_tokens as u64) * job.batch.max(1) as u64;
    }
    assignment
}

/// Serves `jobs` over a cluster of replicas. `make_replica(replica, wave)`
/// builds one replica's simulation and engine — wave 0 is the initial
/// dispatch, wave 1 the re-route pass (fresh sim: the first one has run to
/// completion).
pub fn serve_cluster<E: InferenceEngine>(
    jobs: Vec<GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    config: ClusterConfig,
    mut make_replica: impl FnMut(usize, usize) -> (Simulation, E),
) -> ClusterReport {
    config.validate().expect("invalid ClusterConfig");
    let by_id: BTreeMap<u64, GenerationJob> = jobs.iter().map(|j| (j.id, *j)).collect();
    let assignment = route_jobs(&jobs, config.replicas, config.policy);

    let mut report = ClusterReport {
        replicas: vec![ReplicaSlot::default(); config.replicas],
        ..ClusterReport::default()
    };

    // Wave 1: every replica serves its share.
    let mut unfinished: Vec<u64> = Vec::new();
    for (r, routed) in assignment.into_iter().enumerate() {
        report.replicas[r].routed = routed.clone();
        if routed.is_empty() {
            report.replicas[r].healthy = true;
            continue;
        }
        let (mut sim, mut engine) = make_replica(r, 0);
        let outcome = run_replica(
            &mut sim,
            &mut engine,
            &routed,
            &by_id,
            model,
            cost,
            config.scheduler.clone(),
        );
        if let Some(trace) = sim.take_trace() {
            report.traces.push(trace);
        }
        absorb(&mut report, r, outcome, &mut unfinished);
    }

    // Wave 2: re-route everything the unhealthy replicas dropped onto the
    // healthy set, round-robin in arrival order.
    if config.reroute && !unfinished.is_empty() {
        unfinished.sort_unstable_by_key(|id| (by_id[id].arrival, *id));
        let mut healthy: Vec<usize> =
            (0..config.replicas).filter(|&r| report.replicas[r].healthy).collect();
        if healthy.is_empty() {
            // Nothing is healthy: spread over everyone rather than dropping
            // the queue on the floor.
            healthy = (0..config.replicas).collect();
        }
        let mut rerouted: Vec<Vec<u64>> = vec![Vec::new(); healthy.len()];
        for (i, id) in unfinished.drain(..).enumerate() {
            rerouted[i % healthy.len()].push(id);
        }
        for (slot, ids) in healthy.into_iter().zip(rerouted) {
            if ids.is_empty() {
                continue;
            }
            report.replicas[slot].rerouted = ids.clone();
            report.rerouted += ids.len() as u64;
            let (mut sim, mut engine) = make_replica(slot, 1);
            let outcome = run_replica(
                &mut sim,
                &mut engine,
                &ids,
                &by_id,
                model,
                cost,
                config.scheduler.clone(),
            );
            if let Some(trace) = sim.take_trace() {
                report.traces.push(trace);
            }
            absorb(&mut report, slot, outcome, &mut unfinished);
        }
    }

    // Whatever is still unfinished after the re-route wave is lost (or was
    // legitimately shed for capacity — the caller checks shed records).
    unfinished.sort_unstable();
    report.lost = unfinished;
    report
}

/// [`serve_cluster`]. Kept only because the repository benchmark
/// (`perfbench/`) calls it with [`CoreSelect::Seq`]; new code should call
/// [`serve_cluster`].
pub fn serve_cluster_on<E: InferenceEngine>(
    _core: CoreSelect,
    jobs: Vec<GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    config: ClusterConfig,
    make_replica: impl FnMut(usize, usize) -> (Simulation, E),
) -> ClusterReport {
    serve_cluster(jobs, model, cost, config, make_replica)
}

/// One replica run.
struct ReplicaOutcome {
    report: ContinuousReport,
    /// Global ids the replica did not complete.
    unfinished: Vec<u64>,
}

/// Serves `routed` global job ids on one replica, in arrival order,
/// through [`serve_continuous`]. Job ids pass through unchanged, so a
/// job's output stream is the same whichever replica serves it.
fn run_replica<E: InferenceEngine>(
    sim: &mut Simulation,
    engine: &mut E,
    routed: &[u64],
    by_id: &BTreeMap<u64, GenerationJob>,
    model: &ModelConfig,
    cost: &CostModel,
    scheduler: SchedulerConfig,
) -> ReplicaOutcome {
    let mut order: Vec<u64> = routed.to_vec();
    order.sort_unstable_by_key(|id| (by_id[id].arrival, *id));
    let jobs: Vec<GenerationJob> = order.iter().map(|id| by_id[id]).collect();
    let report = serve_continuous(sim, engine, jobs, model, cost, scheduler);
    let completed: BTreeSet<u64> = report.generation.results().iter().map(|r| r.id).collect();
    let unfinished = order.into_iter().filter(|id| !completed.contains(id)).collect();
    ReplicaOutcome { report, unfinished }
}

/// Folds one replica outcome into the cluster report.
fn absorb(
    report: &mut ClusterReport,
    r: usize,
    outcome: ReplicaOutcome,
    unfinished: &mut Vec<u64>,
) {
    let slot = &mut report.replicas[r];
    slot.healthy = outcome.report.serving.recovery().losses == 0;
    for res in outcome.report.generation.results() {
        slot.generation.record(*res);
        report.generation.record(*res);
    }
    slot.serving.merge(&outcome.report.serving);
    report.serving.merge(&outcome.report.serving);
    report.outputs.extend(outcome.report.outputs);
    unfinished.extend(outcome.unfinished);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::output_token;
    use crate::testutil::{sim, StepToy};
    use liger_gpu_sim::{FaultSpec, SimTime};

    fn job(id: u64, arrive_us: u64, prompt: u32, out: u32, prefix: PrefixTag) -> GenerationJob {
        GenerationJob {
            id,
            batch: 1,
            prompt_len: prompt,
            output_tokens: out,
            arrival: SimTime::from_micros(arrive_us),
            prefix,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let jobs: Vec<GenerationJob> =
            (0..6).map(|i| job(i, i * 10, 32, 4, PrefixTag::NONE)).collect();
        let a = route_jobs(&jobs, 3, RouterPolicy::RoundRobin);
        assert_eq!(a, vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn least_outstanding_balances_token_load() {
        // One huge job, then small ones: the small ones should pile onto
        // the other replica until loads even out.
        let mut jobs = vec![job(0, 0, 1000, 100, PrefixTag::NONE)];
        for i in 1..5 {
            jobs.push(job(i, i * 10, 10, 2, PrefixTag::NONE));
        }
        let a = route_jobs(&jobs, 2, RouterPolicy::LeastOutstanding);
        assert_eq!(a[0], vec![0], "the big job saturates replica 0");
        assert_eq!(a[1], vec![1, 2, 3, 4], "small jobs balance onto replica 1");
    }

    #[test]
    fn prefix_affinity_keeps_classes_together() {
        let jobs: Vec<GenerationJob> =
            (0..8).map(|i| job(i, i * 10, 64, 4, PrefixTag::shared(1 + i % 2, 32))).collect();
        let a = route_jobs(&jobs, 4, RouterPolicy::PrefixAffinity);
        // Every job of one class lands on one replica.
        for ids in &a {
            let classes: std::collections::BTreeSet<u64> =
                ids.iter().map(|&id| jobs[id as usize].prefix.class).collect();
            assert!(classes.len() <= 1, "replica mixes prefix classes: {ids:?}");
        }
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 8, "every job routed");
    }

    #[test]
    fn routing_is_deterministic() {
        let jobs: Vec<GenerationJob> =
            (0..32).map(|i| job(i, i * 7, 16 + (i as u32 % 5) * 8, 4, PrefixTag::NONE)).collect();
        for policy in
            [RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding, RouterPolicy::PrefixAffinity]
        {
            assert_eq!(
                route_jobs(&jobs, 3, policy),
                route_jobs(&jobs, 3, policy),
                "{} routing must be pure",
                policy.name()
            );
        }
    }

    #[test]
    fn streams_keep_the_global_job_identity() {
        // Round-robin sends odd ids to replica 1, which serves them among
        // its own jobs; each stream must still be the oracle's under the
        // job's own id, whichever replica ran it.
        let jobs: Vec<GenerationJob> =
            (0..8).map(|i| job(i, i * 20, 32, 3 + i as u32 % 3, PrefixTag::NONE)).collect();
        let model = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut sched = SchedulerConfig::sized_for(&model, 1, 16 * (1 << 30));
        sched.max_running = 4;
        let config = ClusterConfig::new(2, sched);
        let report = serve_cluster(jobs.clone(), &model, &cost, config, |_, _| {
            (sim(1, FaultSpec::none()), StepToy::new(1))
        });
        assert_eq!(report.completed(), jobs.len());
        for r in report.generation.results() {
            let job = &jobs[r.id as usize];
            let oracle: Vec<u64> = (0..job.output_tokens).map(|t| output_token(job, t)).collect();
            assert_eq!(report.outputs[&r.id], oracle, "job {} stream", r.id);
        }
    }

    #[test]
    fn cluster_config_validates() {
        let sched = SchedulerConfig::sized_for(&ModelConfig::tiny_test(), 2, 16 * (1 << 30));
        assert!(ClusterConfig::new(0, sched.clone()).validate().is_err());
        ClusterConfig::new(2, sched).validate().unwrap();
    }
}
