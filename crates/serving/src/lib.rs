//! # liger-serving
//!
//! The serving layer of the Liger reproduction: batched requests, the
//! paper's workload generators (random prefill traces with sequence lengths
//! 16–128 and decode traces at batch 32), constant/Poisson arrival
//! processes, the latency/throughput metrics of §4.1, and one
//! engine-agnostic request driver that serves a trace through any
//! [`InferenceEngine`] on the simulator ([`serve`], [`serve_with_policy`],
//! [`serve_with_recovery`]) under the membership controller that also
//! steers continuous batching ([`serve_continuous`]) through device loss
//! and rejoin.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod analysis;
pub mod arrival;
pub mod batcher;
pub mod cluster;
pub mod disagg;
pub mod engine;
pub mod generation;
pub mod health;
mod membership;
pub mod metrics;
pub mod prefix;
pub mod recovery;
pub mod request;
pub mod runner;
pub mod scheduler;

pub use admission::{AdmissionConfig, AdmissionController, ShedReason, ShedRecord};
pub use analysis::{dg1_wait, mg1_latency, mg1_wait, service_moments, utilization};
pub use arrival::{ArrivalProcess, DecodeTraceConfig, LognormalTraceConfig, PrefillTraceConfig};
pub use batcher::{
    serve_queries, serve_queries_with_retry, Batcher, BatcherConfig, PackedBatch, Query,
    QueryRunner,
};
pub use cluster::{
    route_jobs, serve_cluster, serve_cluster_on, ClusterConfig, ClusterReport, ReplicaSlot,
    RouterPolicy,
};
pub use disagg::{serve_disaggregated, DisaggConfig, DisaggReport};
pub use engine::{InferenceEngine, RUNNER_TOKEN_BASE};
pub use generation::{
    serve_generations, GenerationJob, GenerationMetrics, GenerationResult, GenerationRunner,
};
pub use health::{HealthConfig, HealthEvents, HealthMonitor};
pub use membership::RecoveryPhase;
pub use metrics::{
    BatchingCounters, FaultCounters, MetricsSections, PrefixCounters, RecoveryCounters,
    ServingMetrics, SpecCounters,
};
pub use prefix::{block_digests, output_token, prompt_token, PrefixTag, SpecDecodeConfig};
pub use recovery::{serve_with_recovery, RecoveryConfig};
pub use request::{Completion, Request};
pub use runner::{serve, serve_on, serve_with_policy, RetryPolicy};
pub use scheduler::{serve_continuous, serve_continuous_on, ContinuousReport, SchedulerConfig};

pub use liger_kvcache::{BlockPool, BlockPoolConfig, OutOfBlocks};

#[cfg(test)]
mod testutil;
