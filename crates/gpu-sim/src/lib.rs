//! # liger-gpu-sim
//!
//! A deterministic discrete-event simulator of a multi-GPU node, built as
//! the hardware substrate for the Rust reproduction of *Liger: Interleaving
//! Intra- and Inter-Operator Parallelism for Distributed Large Model
//! Inference* (PPoPP '24).
//!
//! The simulator models exactly the mechanisms Liger's scheduler exploits
//! and fights on real hardware:
//!
//! * CUDA-like **streams** multiplexed onto a bounded number of **hardware
//!   launch queues** (`CUDA_DEVICE_MAX_CONNECTIONS`), with strictly serial
//!   execution within a queue;
//! * **events** with both inter-stream (`cudaStreamWaitEvent`) and blocking
//!   CPU–GPU (`cudaEventSynchronize`) semantics;
//! * per-command **host launch overhead** and per-rank wake jitter;
//! * **rate-sharing contention** between concurrently running kernels
//!   (compute vs. communication);
//! * **collective rendezvous**: an all-reduce starts only when every rank
//!   has launched it and completes simultaneously everywhere;
//! * a **communication dispatch lag** under deep kernel backlogs, modeling
//!   the left-over scheduling policy of §2.3.1.
//!
//! Scheduling policy lives entirely outside the simulator, in [`Driver`]
//! implementations (Liger itself, and the intra-/inter-operator baselines).
//!
//! ## Example
//!
//! ```
//! use liger_gpu_sim::prelude::*;
//!
//! struct OneKernel;
//! impl Driver for OneKernel {
//!     fn start(&mut self, sim: &mut Simulation) {
//!         let stream = StreamId::new(DeviceId(0), 0);
//!         let k = KernelSpec::compute("gemm", SimDuration::from_micros(100));
//!         sim.launch(HostId(0), stream, k);
//!     }
//!     fn on_wake(&mut self, _wake: Wake, _sim: &mut Simulation) {}
//! }
//!
//! let mut sim = Simulation::builder()
//!     .device(DeviceSpec::test_device())
//!     .host(HostSpec::instant())
//!     .build()
//!     .unwrap();
//! let end = sim.run_to_completion(&mut OneKernel);
//! assert_eq!(end, SimTime::from_micros(100));
//! assert_eq!(sim.kernels_completed(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod contention;
pub mod cores;
pub mod device;
pub mod faults;
pub mod host;
pub mod ids;
mod idtable;
pub mod json;
pub mod kernel;
mod lanes;
pub mod memory;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod testkit;
pub mod time;
pub mod trace;

pub use contention::ContentionParams;
pub use cores::{
    ChoicePoint, CoreSelect, EnabledEvent, EventCore, ExploreCore, SequentialCore, WindowRule,
};
pub use device::DeviceSpec;
pub use faults::{DeviceDown, FaultSpec, KernelFaultParams, LaunchSpikeParams, ParseError};
pub use host::HostSpec;
pub use ids::{CollectiveId, DeviceId, EventId, HostId, KernelId, StreamId, TimerId};
pub use idtable::IdTable;
pub use json::{JsonError, JsonParser, JsonValue, ToJson};
pub use kernel::{KernelClass, KernelSpec};
pub use memory::{AllocationId, AllocationInfo, MemoryTracker, OutOfMemory};
pub use rng::Rng;
pub use sim::{
    BlockedLane, DispatchFootprint, Driver, LaneBlock, Simulation, SimulationBuilder,
    TerminalReport, Wake, COLL_FOOTPRINT_BIT,
};
pub use stats::{DeviceStats, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{ParsedChromeTrace, Trace, TraceEvent, TraceMark, TraceParseError};

/// A `HashMap` with a fixed-key hasher. std's default `RandomState` seeds
/// every map afresh, and where a table's hashes land decides whether it
/// grows or rehashes in place, so two identical serves could differ in
/// heap use by a few KiB. The serving and engine layers keep their maps in
/// this type instead, so a serve's heap profile repeats exactly. Use it
/// only for keys the program assigns itself (request, batch and round
/// ids): a fixed key gives up the default hasher's defence against keys
/// crafted to collide.
pub type DetHashMap<K, V> = std::collections::HashMap<
    K,
    V,
    std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>,
>;

/// Glob-import convenience.
pub mod prelude {
    pub use crate::contention::ContentionParams;
    pub use crate::cores::{
        ChoicePoint, CoreSelect, EnabledEvent, EventCore, ExploreCore, SequentialCore, WindowRule,
    };
    pub use crate::device::DeviceSpec;
    pub use crate::faults::{
        DeviceDown, FaultSpec, KernelFaultParams, LaunchSpikeParams, ParseError,
    };
    pub use crate::host::HostSpec;
    pub use crate::ids::{CollectiveId, DeviceId, EventId, HostId, KernelId, StreamId, TimerId};
    pub use crate::json::{JsonError, JsonParser, JsonValue, ToJson};
    pub use crate::kernel::{KernelClass, KernelSpec};
    pub use crate::memory::{AllocationId, AllocationInfo, MemoryTracker, OutOfMemory};
    pub use crate::rng::Rng;
    pub use crate::sim::{
        BlockedLane, DispatchFootprint, Driver, LaneBlock, Simulation, SimulationBuilder,
        TerminalReport, Wake, COLL_FOOTPRINT_BIT,
    };
    pub use crate::stats::{DeviceStats, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{ParsedChromeTrace, Trace, TraceEvent, TraceMark, TraceParseError};
}
