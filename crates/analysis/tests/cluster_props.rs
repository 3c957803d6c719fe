//! Cluster-tier determinism and fault-storm tests.
//!
//! The cluster front (replica router) and the disaggregated prefill/decode
//! split each run real [`LigerEngine`]s over real simulations, so this
//! tier gets the same guarantees as every other layer:
//!
//! * **byte-identity** — serving the same trace twice must export
//!   byte-identical Chrome traces and identical reports, for every router
//!   policy, under a replica-loss storm and for the disaggregated mode;
//! * **sanitizer-clean** — every per-replica and per-node trace passes the
//!   happens-before sanitizer with zero diagnostics, healthy or degraded
//!   (streamed KV blocks: no leak, no use-after-free, no double free);
//! * **replica-loss storm** — killing a strict device subset inside
//!   several replicas at once drains the unhealthy replicas, re-routes
//!   their backlog onto the healthy set, and accounts for every job:
//!   completed, re-routed, or lost-with-a-shed-record.

use std::collections::BTreeSet;

use liger_collectives::ClusterTopology;
use liger_core::{LigerConfig, LigerEngine};
use liger_gpu_sim::{DeviceId, DeviceSpec, FaultSpec, HostSpec, SimTime, Simulation};
use liger_model::{CostModel, ModelConfig, RecoveryPolicy};
use liger_serving::{
    serve_cluster, serve_disaggregated, ClusterConfig, ClusterReport, DisaggConfig, DisaggReport,
    GenerationJob, PrefixTag, RouterPolicy, SchedulerConfig,
};
use liger_verify::sanitize;

fn model() -> ModelConfig {
    ModelConfig::tiny_test()
}

fn cost() -> CostModel {
    CostModel::v100_node()
}

fn engine(world: usize) -> LigerEngine {
    LigerEngine::new(model(), cost(), world, LigerConfig::default()).expect("valid tiny engine")
}

/// Traced V100-style simulation with one MPI-style host rank per device and
/// an optional fault schedule.
fn sim(world: usize, faults: Option<FaultSpec>) -> Simulation {
    let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), world).capture_trace(true);
    for r in 0..world {
        b = b.host(HostSpec::mpi_rank(r));
    }
    if let Some(f) = faults {
        b = b.faults(f);
    }
    b.build().expect("valid test simulation")
}

fn scheduler(world: u32) -> SchedulerConfig {
    let mut c = SchedulerConfig::sized_for(&model(), world, DeviceSpec::v100_16gb().mem_capacity);
    c.policy = RecoveryPolicy::Replicate;
    c
}

/// Deterministic mixed workload: mostly short prompts, every fourth long,
/// every third carrying a shared-prefix class so prefix-affinity has
/// something to route on.
fn jobs(n: u64, gap_us: u64) -> Vec<GenerationJob> {
    (0..n)
        .map(|id| GenerationJob {
            id,
            batch: 1,
            prompt_len: if id % 4 == 3 { 160 } else { 32 + (id % 3) as u32 * 16 },
            output_tokens: 4 + (id % 5) as u32 * 2,
            arrival: SimTime::from_micros(id * gap_us),
            prefix: if id % 3 == 0 { PrefixTag::shared(1 + id % 2, 16) } else { PrefixTag::NONE },
        })
        .collect()
}

/// Every observable byte of a cluster run: per-replica Chrome traces plus
/// the completion/output/loss accounting.
fn cluster_fingerprint(r: &ClusterReport) -> String {
    let mut s = String::new();
    for t in &r.traces {
        s.push_str(&t.to_chrome_json());
        s.push('\n');
    }
    s.push_str(&format!(
        "completed={} rerouted={} lost={:?} outputs={:?}",
        r.completed(),
        r.rerouted,
        r.lost,
        r.outputs
    ));
    s
}

fn disagg_fingerprint(r: &DisaggReport) -> String {
    let mut s = String::new();
    for t in &r.traces {
        s.push_str(&t.to_chrome_json());
        s.push('\n');
    }
    s.push_str(&format!(
        "completed={} streamed_blocks={} streamed_bytes={} outputs={:?}",
        r.generation.completed(),
        r.streamed_blocks,
        r.streamed_bytes,
        r.outputs
    ));
    s
}

fn run_cluster(
    policy: RouterPolicy,
    faults: impl Fn(usize, usize) -> Option<FaultSpec>,
) -> ClusterReport {
    let world = 2;
    let config = ClusterConfig::new(3, scheduler(world as u32)).with_policy(policy);
    serve_cluster(jobs(24, 20), &model(), &cost(), config, |replica, wave| {
        (sim(world, faults(replica, wave)), engine(world))
    })
}

/// Healthy cluster: every router policy serves byte-identically on a
/// repeat run, and every replica trace sanitizes clean.
#[test]
fn cluster_is_byte_identical_across_runs() {
    for policy in
        [RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding, RouterPolicy::PrefixAffinity]
    {
        let oracle = run_cluster(policy, |_, _| None);
        assert_eq!(oracle.completed(), 24, "{}: healthy cluster completes all", policy.name());
        assert!(oracle.lost.is_empty());
        assert!(oracle.replicas.iter().all(|r| r.healthy));
        for (i, t) in oracle.traces.iter().enumerate() {
            let diags = sanitize(t);
            assert!(diags.is_empty(), "{}: replica {i} trace: {diags:?}", policy.name());
        }
        let again = cluster_fingerprint(&run_cluster(policy, |_, _| None));
        assert_eq!(again, cluster_fingerprint(&oracle), "{}: repeat run diverges", policy.name());
    }
}

/// Replica-loss storm: two of three replicas lose a device mid-serve (a
/// strict subset — the survivor keeps the replica draining). The unhealthy
/// replicas shed their backlog, the healthy replica absorbs it in the
/// re-route wave, and the storm is byte-identical on a repeat run with
/// every trace (degraded included) sanitizer-clean.
#[test]
fn replica_loss_storm_drains_and_reroutes() {
    // A deep backlog at death time: tight arrivals, a small running set and
    // a tiny resubmission watermark so the post-recovery shed is real.
    let storm_jobs = || -> Vec<GenerationJob> { jobs(30, 5) };
    let death = SimTime::from_micros(120);
    let faults = |replica: usize, wave: usize| -> Option<FaultSpec> {
        (wave == 0 && (replica == 0 || replica == 2))
            .then(|| FaultSpec::new(1).device_down(DeviceId(1), death))
    };
    let run = || -> ClusterReport {
        let mut sched = scheduler(2);
        sched.max_running = 2;
        sched.admission.queue_watermark = 2;
        // The watchdog is what converts a DeviceDown into a confirmed loss.
        sched.health = Some(liger_serving::HealthConfig::default());
        let config = ClusterConfig::new(3, sched);
        serve_cluster(storm_jobs(), &model(), &cost(), config, |replica, wave| {
            (sim(2, faults(replica, wave)), engine(2))
        })
    };

    let report = run();
    assert!(!report.replicas[0].healthy, "replica 0 lost a device");
    assert!(report.replicas[1].healthy, "replica 1 was untouched");
    assert!(!report.replicas[2].healthy, "replica 2 lost a device");
    assert_eq!(report.serving.recovery().losses, 2, "both deaths confirmed");
    assert!(report.rerouted > 0, "the unhealthy replicas shed work to re-route");

    // Accounting: every job completed exactly once or is lost with a shed
    // record; nothing vanishes.
    let all: BTreeSet<u64> = (0..30).collect();
    let completed: BTreeSet<u64> = report.outputs.keys().copied().collect();
    let lost: BTreeSet<u64> = report.lost.iter().copied().collect();
    assert_eq!(completed.len() + lost.len(), 30, "completed + lost covers the trace");
    assert_eq!(&completed | &lost, all, "no job unaccounted");
    assert!((&completed & &lost).is_empty(), "no job both completed and lost");
    let shed_ids: BTreeSet<u64> = report.serving.recovery().shed.iter().map(|s| s.id).collect();
    for id in &lost {
        assert!(shed_ids.contains(id), "lost job {id} has no shed record");
    }

    // Degraded traces still sanitize clean.
    for (i, t) in report.traces.iter().enumerate() {
        let diags = sanitize(t);
        assert!(diags.is_empty(), "storm trace {i}: {diags:?}");
    }

    // And the whole storm is deterministic.
    assert_eq!(cluster_fingerprint(&run()), cluster_fingerprint(&report), "storm diverges");
}

fn run_disagg(degrade: f64) -> DisaggReport {
    let cluster = ClusterTopology::v100_cluster(2, 2);
    let mut config = DisaggConfig::new(cluster, scheduler(2)).with_nic_degrade(degrade);
    config.scheduler.policy = RecoveryPolicy::Replicate;
    serve_disaggregated(jobs(20, 30), &model(), config, |_role, devices| {
        (sim(devices.len(), None), engine(devices.len()))
    })
}

/// Disaggregated mode: prefill and decode node traces are byte-identical
/// on a repeat run, every streamed KV block is tracked end-to-end
/// (sanitizer-clean on both nodes), and a degraded NIC changes the
/// timeline without breaking determinism or block accounting.
#[test]
fn disagg_is_byte_identical_across_runs() {
    for degrade in [1.0, 4.0] {
        let oracle = run_disagg(degrade);
        assert_eq!(oracle.generation.completed(), 20, "disagg completes all jobs");
        assert!(oracle.streamed_blocks > 0, "prefill node streamed KV blocks");
        assert_eq!(oracle.traces.len(), 2, "one trace per node");
        for (t, label) in oracle.traces.iter().zip(["prefill", "decode"]) {
            let diags = sanitize(t);
            assert!(diags.is_empty(), "{label} node (degrade {degrade}): {diags:?}");
        }
        let again = disagg_fingerprint(&run_disagg(degrade));
        assert_eq!(again, disagg_fingerprint(&oracle), "repeat run diverges at degrade {degrade}");
    }
}

/// A degraded NIC must actually slow the stream: the decode node's first
/// admission happens later than with the healthy link.
#[test]
fn degraded_nic_delays_decode_admission() {
    let healthy = run_disagg(1.0);
    let degraded = run_disagg(16.0);
    assert_eq!(healthy.streamed_blocks, degraded.streamed_blocks, "same blocks either way");
    assert!(degraded.streamed_bytes == healthy.streamed_bytes);
    let finish = |r: &DisaggReport| {
        r.generation.results().iter().map(|g| g.finished).max().expect("non-empty")
    };
    assert!(
        finish(&degraded) > finish(&healthy),
        "a 16x slower NIC must stretch the end-to-end timeline"
    );
}
