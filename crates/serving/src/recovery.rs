//! Elastic recovery from device loss: the drain-and-replan request serve.
//!
//! [`serve_with_recovery`] serves a request trace through any
//! [`InferenceEngine`] under the full failure-handling pipeline the paper's
//! serving scenario needs when a GPU drops out of the node: a
//! [`HealthMonitor`](crate::health::HealthMonitor) confirms the loss, the
//! engine drains and replans over the survivors
//! ([`InferenceEngine::on_device_loss`]), the KV cache shards lost with the
//! dead device are rebuilt under the configured [`RecoveryPolicy`]
//! (*recompute* replays the prefills on the survivors, *replicate* restores
//! a surviving copy over the interconnect), and the deferred backlog is
//! trimmed to the admission watermark before serving resumes on the
//! survivors. A device whose outage ends rejoins after its quarantine and
//! the engine re-expands onto it.
//!
//! The state machine lives in the crate's membership controller, and the
//! requests run through [`serve`](crate::runner::serve)'s driver: arrivals
//! that land mid-replan are deferred, requests the engine abandons are
//! requeued in arrival order, and the backlog resubmits on resume.
//!
//! Every phase transition is timestamped into
//! [`ServingMetrics::recovery_timeline`]; the recovery counters record
//! detection latency, drain and replan time, replayed tokens, and every
//! shed request.

use liger_gpu_sim::Simulation;
use liger_model::{CostModel, ModelConfig, RecoveryPolicy};

use crate::admission::AdmissionConfig;
use crate::engine::InferenceEngine;
use crate::health::HealthConfig;
use crate::membership::Recovery;
use crate::metrics::ServingMetrics;
use crate::request::Request;
use crate::runner::drive;

/// Parameters of the elastic-recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Watchdog parameters (detection bound = `health.detection_bound()`).
    pub health: HealthConfig,
    /// How lost KV-cache shards are rebuilt.
    pub policy: RecoveryPolicy,
    /// Backlog bound applied when serving resumes on degraded capacity.
    pub admission: AdmissionConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            health: HealthConfig::default(),
            policy: RecoveryPolicy::Replicate,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Serves `requests` with `engine` on `sim` under the elastic-recovery
/// pipeline; `model` and `cost` price the KV-recovery work. Returns the
/// metrics, including the recovery counters and phase timeline.
///
/// # Panics
/// If `config.health` is invalid.
pub fn serve_with_recovery<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
    model: &ModelConfig,
    cost: &CostModel,
    config: RecoveryConfig,
) -> ServingMetrics {
    config.health.validate().expect("invalid health config");
    drive(sim, engine, requests, None, Some(Recovery { model, cost, config }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sim, StepToy};
    use liger_gpu_sim::{DeviceId, FaultSpec, SimDuration, SimTime};
    use liger_model::BatchShape;

    fn trace(n: usize, gap_us: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i as u64,
                    BatchShape::prefill(1, 16),
                    SimTime::from_micros(gap_us * i as u64),
                )
            })
            .collect()
    }

    fn run(
        world: usize,
        faults: FaultSpec,
        requests: Vec<Request>,
        config: RecoveryConfig,
    ) -> ServingMetrics {
        let model = ModelConfig::opt_30b();
        let cost = CostModel::v100_node();
        let mut engine = StepToy::with_times(world, 40, 40);
        serve_with_recovery(&mut sim(world, faults), &mut engine, requests, &model, &cost, config)
    }

    #[test]
    fn healthy_run_completes_everything_with_an_empty_timeline() {
        let m = run(3, FaultSpec::new(1), trace(8, 50), RecoveryConfig::default());
        assert_eq!(m.completed(), 8);
        assert_eq!(m.recovery().losses, 0);
        assert!(m.recovery_timeline().is_empty());
        assert_eq!(m.recovery().shed_requests(), 0);
    }

    #[test]
    fn a_mid_trace_loss_recovers_and_completes_every_request() {
        let config = RecoveryConfig::default();
        let death = SimTime::from_micros(500);
        let faults = FaultSpec::new(1).device_down(DeviceId(2), death);
        let m = run(3, faults, trace(24, 60), config);
        assert_eq!(m.recovery().losses, 1, "exactly one confirmed loss");
        assert_eq!(m.completed(), 24, "replicate policy loses nothing");
        assert!(m.recovery().shed.is_empty());
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, vec!["draining", "recovering", "degraded"]);
        assert!(
            m.recovery().detection_latency <= config.health.detection_bound(),
            "detection {} beyond bound {}",
            m.recovery().detection_latency,
            config.health.detection_bound()
        );
        assert!(m.recovery().replan_time > SimDuration::ZERO, "recovery work was priced");
    }

    #[test]
    fn recompute_policy_counts_replayed_tokens() {
        let config =
            RecoveryConfig { policy: RecoveryPolicy::Recompute, ..RecoveryConfig::default() };
        let faults = FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(500));
        let m = run(2, faults, trace(24, 60), config);
        assert_eq!(m.recovery().losses, 1);
        assert!(
            m.recovery().recompute_tokens > 0,
            "in-flight prefills replay their tokens on recovery"
        );
        assert_eq!(m.completed() + m.recovery().shed_requests() as usize, 24);
    }

    #[test]
    fn a_tight_watermark_sheds_oldest_first_with_reasons() {
        let config = RecoveryConfig {
            admission: AdmissionConfig { queue_watermark: 1 },
            ..RecoveryConfig::default()
        };
        // Arrivals keep pouring in during the recovery pause, so the
        // deferred queue overflows the watermark of 1.
        let faults = FaultSpec::new(1).device_down(DeviceId(2), SimTime::from_micros(300));
        let m = run(3, faults, trace(40, 20), config);
        assert_eq!(m.recovery().losses, 1);
        let shed = &m.recovery().shed;
        assert!(!shed.is_empty(), "overflowing backlog must shed");
        assert_eq!(m.completed() + shed.len(), 40, "every request completes or is shed");
        for s in shed {
            assert_eq!(s.reason.name(), "queue-depth");
        }
        // Oldest-first: every shed id is older than every id that still
        // completed after being deferred.
        let max_shed = shed.iter().map(|s| s.id).max().unwrap();
        for w in shed.windows(2) {
            assert!(w[0].id < w[1].id, "shed in arrival order");
        }
        assert!(max_shed < 40);
    }

    #[test]
    fn empty_trace_stops_immediately() {
        let m = run(2, FaultSpec::new(1), Vec::new(), RecoveryConfig::default());
        assert_eq!(m.completed(), 0);
    }

    #[test]
    fn a_windowed_outage_rejoins_and_re_expands_to_normal() {
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(2),
            SimTime::from_micros(500),
            SimTime::from_micros(3000),
        );
        let m = run(3, faults, trace(40, 150), RecoveryConfig::default());
        assert_eq!(m.recovery().losses, 1, "the outage is confirmed as a loss");
        assert_eq!(m.recovery().rejoins, 1, "the rejoin clears quarantine once");
        assert_eq!(m.recovery().re_expansions, 1, "one re-expansion back to full world");
        assert_eq!(m.completed(), 40, "nothing is lost across the outage");
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, vec!["draining", "recovering", "degraded", "expanding", "normal"]);
    }

    #[test]
    fn re_expansion_readmits_queue_depth_shed_requests() {
        let config = RecoveryConfig {
            admission: AdmissionConfig { queue_watermark: 1 },
            ..RecoveryConfig::default()
        };
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(2),
            SimTime::from_micros(300),
            SimTime::from_micros(3000),
        );
        let m = run(3, faults, trace(60, 100), config);
        assert_eq!(m.recovery().re_expansions, 1);
        // The degraded window shed for queue depth, but the rejoin brought
        // the capacity back: every shed request was re-admitted and ran.
        assert_eq!(m.recovery().shed_requests(), 0, "queue-depth sheds were re-admitted");
        assert_eq!(m.completed(), 60);
    }

    #[test]
    fn a_flap_shorter_than_quarantine_is_damped() {
        // Up for only 200us between two outages: one healthy tick, then
        // silence again — never enough for the 3-tick quarantine.
        let faults = FaultSpec::new(1)
            .device_outage(DeviceId(1), SimTime::from_micros(500), SimTime::from_micros(1700))
            .device_down(DeviceId(1), SimTime::from_micros(1900));
        let m = run(2, faults, trace(30, 100), RecoveryConfig::default());
        assert_eq!(m.recovery().losses, 1, "the flap never cleared quarantine");
        assert_eq!(m.recovery().rejoins, 0);
        assert_eq!(m.recovery().re_expansions, 0);
        assert!(m.recovery().flaps >= 1, "the partial recovery is counted as a flap");
        assert_eq!(m.completed() + m.recovery().shed_requests() as usize, 30);
    }

    #[test]
    fn a_second_loss_during_drain_queues_and_both_replans_run() {
        // Device 2 dies at 500us; device 1 dies at 700us, confirmed while
        // the first loss is still draining/recovering. The queued loss must
        // replay afterwards without hanging or double-handling.
        let faults = FaultSpec::new(1)
            .device_down(DeviceId(2), SimTime::from_micros(500))
            .device_down(DeviceId(1), SimTime::from_micros(700));
        let m = run(3, faults, trace(30, 100), RecoveryConfig::default());
        assert_eq!(m.recovery().losses, 2, "both losses are confirmed");
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(
            labels.iter().filter(|&&l| l == "draining").count(),
            2,
            "each loss runs its own drain: {labels:?}"
        );
        assert_eq!(m.completed() + m.recovery().shed_requests() as usize, 30);
    }
}
