//! Kernel descriptions.
//!
//! A [`KernelSpec`] is everything the device scheduler needs to execute one
//! kernel: its class (computation vs. communication, the distinction the
//! whole Liger design revolves around), its no-load execution time ("work"),
//! its SM footprint, and optionally the collective (rendezvous group) it
//! belongs to.

use std::borrow::Cow;

use crate::ids::CollectiveId;
use crate::time::SimDuration;

/// The two kernel classes whose interleaving Liger orchestrates.
///
/// The paper's §3.1 splits a device's resources into a *computation* part
/// (SMs running GEMMs, layernorms, …) and a *communication* part (copy
/// engines / NCCL channels driving the interconnect). Kernels of the same
/// class contend for the same resource and serialize or slow down badly when
/// overlapped; kernels of different classes overlap with only a mild
/// contention penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Computation kernel (GEMM, layernorm, softmax, GELU, attention, …).
    Compute,
    /// Communication kernel (all-reduce, send/recv, all-gather, …).
    Comm,
}

impl KernelClass {
    /// The other class.
    #[inline]
    pub const fn opposite(self) -> KernelClass {
        match self {
            KernelClass::Compute => KernelClass::Comm,
            KernelClass::Comm => KernelClass::Compute,
        }
    }

    /// Short label used in traces.
    #[inline]
    pub const fn label(self) -> &'static str {
        match self {
            KernelClass::Compute => "compute",
            KernelClass::Comm => "comm",
        }
    }
}

/// Description of a kernel to be launched on a simulated device.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Human-readable kernel name (e.g. `"gemm_qkv"`, `"allreduce_attn"`).
    /// Static names are borrowed, so building a spec from one allocates
    /// nothing; generated names (`format!`) are owned.
    pub name: Cow<'static, str>,
    /// Computation or communication.
    pub class: KernelClass,
    /// No-load execution time of the kernel. Contention stretches this at
    /// runtime; the value here is what offline profiling would report.
    pub work: SimDuration,
    /// Number of CUDA blocks (≈ SMs) the kernel occupies. For communication
    /// kernels this is the NCCL channel count; reducing it is the paper's
    /// §3.5 contention mitigation.
    pub blocks: u32,
    /// Rendezvous group for collectives: the kernel only makes progress once
    /// every member of the collective has reached the head of its stream on
    /// its own device, and all members complete at the same instant.
    pub collective: Option<CollectiveId>,
    /// Free-form correlation tag (batch id, request id, layer index, …).
    pub tag: u64,
}

impl KernelSpec {
    /// Starts building a compute kernel with the given name and work.
    pub fn compute(name: impl Into<Cow<'static, str>>, work: SimDuration) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            class: KernelClass::Compute,
            work: work.max(SimDuration::from_nanos(1)),
            blocks: u32::MAX, // compute kernels saturate the device by default
            collective: None,
            tag: 0,
        }
    }

    /// Starts building a communication kernel with the given name and work.
    pub fn comm(name: impl Into<Cow<'static, str>>, work: SimDuration) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            class: KernelClass::Comm,
            work: work.max(SimDuration::from_nanos(1)),
            blocks: 2, // NCCL-style: a couple of channels by default
            collective: None,
            tag: 0,
        }
    }

    /// Sets the SM/block footprint.
    pub fn with_blocks(mut self, blocks: u32) -> Self {
        self.blocks = blocks.max(1);
        self
    }

    /// Attaches the kernel to a collective rendezvous group.
    pub fn with_collective(mut self, collective: CollectiveId) -> Self {
        self.collective = Some(collective);
        self
    }

    /// Sets the correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// True when this kernel participates in a collective.
    #[inline]
    pub fn is_collective(&self) -> bool {
        self.collective.is_some()
    }
}

/// Kernel classes serialize as their trace labels (`"compute"` / `"comm"`).
impl crate::json::ToJson for KernelClass {
    fn write_json(&self, out: &mut String) {
        self.label().write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_class() {
        assert_eq!(KernelClass::Compute.opposite(), KernelClass::Comm);
        assert_eq!(KernelClass::Comm.opposite(), KernelClass::Compute);
        assert_eq!(KernelClass::Compute.label(), "compute");
        assert_eq!(KernelClass::Comm.label(), "comm");
    }

    #[test]
    fn builders_set_fields() {
        let k =
            KernelSpec::compute("gemm", SimDuration::from_micros(100)).with_blocks(80).with_tag(42);
        assert_eq!(k.class, KernelClass::Compute);
        assert_eq!(k.work, SimDuration::from_micros(100));
        assert_eq!(k.blocks, 80);
        assert_eq!(k.tag, 42);
        assert!(!k.is_collective());

        let c = KernelSpec::comm("allreduce", SimDuration::from_micros(50))
            .with_collective(CollectiveId(3));
        assert_eq!(c.class, KernelClass::Comm);
        assert!(c.is_collective());
        assert_eq!(c.collective, Some(CollectiveId(3)));
    }

    #[test]
    fn static_names_are_borrowed() {
        let k = KernelSpec::compute("gemm", SimDuration::from_micros(1));
        assert!(matches!(k.name, Cow::Borrowed("gemm")));
        let k = KernelSpec::comm(format!("ar{}", 3), SimDuration::from_micros(1));
        assert!(matches!(k.name, Cow::Owned(ref n) if n == "ar3"));
    }

    #[test]
    fn zero_work_is_clamped() {
        let k = KernelSpec::compute("noop", SimDuration::ZERO);
        assert_eq!(k.work, SimDuration::from_nanos(1));
    }

    #[test]
    fn zero_blocks_is_clamped() {
        let k = KernelSpec::comm("ar", SimDuration::from_nanos(10)).with_blocks(0);
        assert_eq!(k.blocks, 1);
    }
}
