//! Typed identifiers for simulator entities.
//!
//! All identifiers are small, copyable newtypes over indices. Devices, hosts
//! and streams are dense indices into the simulation's arenas; kernels,
//! events, collectives and timers are monotonically allocated handles.
//!
//! Handles are never reused. The simulator drops an event's or a
//! collective's record once nothing can use it again, but its id stays
//! unique for the whole run: traces, the sanitizer's record/wait pairing
//! and the model checker's footprints key on it. An event id whose record
//! is gone answers "fired" ([`crate::Simulation::event_has_fired`]); a
//! collective id whose record is gone belongs to a finished group.

use std::fmt;

/// Identifies a GPU device within the simulated node (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

/// Identifies a host (CPU) thread. In an MPI-style deployment there is one
/// host thread per device (one rank per GPU), which is how the builder sets
/// things up by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// Identifies a CUDA-like stream on a specific device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId {
    /// Owning device.
    pub device: DeviceId,
    /// Stream index on that device.
    pub index: usize,
}

impl StreamId {
    /// Convenience constructor.
    #[inline]
    pub const fn new(device: DeviceId, index: usize) -> Self {
        StreamId { device, index }
    }
}

/// Identifies a launched kernel instance (globally unique per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u64);

/// Identifies a CUDA-like event (globally unique per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// Identifies a collective operation (rendezvous group) spanning devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollectiveId(pub u64);

/// Identifies a driver timer registered with [`crate::Simulation::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.s{}", self.device, self.index)
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev{}", self.0)
    }
}

impl fmt::Display for CollectiveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coll{}", self.0)
    }
}

/// Identifiers serialize as their raw index/handle numbers; streams as a
/// `{device, index}` pair.
mod json_impls {
    use super::*;
    use crate::json::{JsonObject, ToJson};

    macro_rules! id_to_json {
        ($($t:ty),*) => {
            $(impl ToJson for $t {
                fn write_json(&self, out: &mut String) {
                    self.0.write_json(out);
                }
            })*
        };
    }

    id_to_json!(DeviceId, HostId, KernelId, EventId, CollectiveId, TimerId);

    impl ToJson for StreamId {
        fn write_json(&self, out: &mut String) {
            let mut obj = JsonObject::begin(out);
            obj.field("device", &self.device).field("index", &self.index);
            obj.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(DeviceId(2).to_string(), "gpu2");
        assert_eq!(HostId(1).to_string(), "host1");
        assert_eq!(StreamId::new(DeviceId(0), 3).to_string(), "gpu0.s3");
        assert_eq!(KernelId(7).to_string(), "k7");
        assert_eq!(EventId(9).to_string(), "ev9");
        assert_eq!(CollectiveId(4).to_string(), "coll4");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(KernelId(1) < KernelId(2));
        assert!(DeviceId(0) < DeviceId(1));
    }
}
