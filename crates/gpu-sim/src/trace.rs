//! Execution trace capture, Chrome-trace export and re-import.
//!
//! When enabled on the [`SimulationBuilder`](crate::SimulationBuilder), the
//! simulator records one [`TraceEvent`] per completed kernel plus one
//! [`TraceMark`] per synchronization/memory operation (event records,
//! resolved stream waits, allocations, frees). Traces drive the overlap
//! assertions in the test suite, feed the happens-before sanitizer in
//! `liger-verify`, and can be exported to the Chrome `chrome://tracing` /
//! Perfetto JSON array format for visual inspection of interleaving
//! schedules. [`Trace::from_chrome_json`] reads that format back, so
//! checked-in golden traces remain analyzable.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

use crate::ids::{CollectiveId, DeviceId, KernelId};
use crate::json::{JsonArray, JsonError, JsonObject, JsonParser, JsonValue, ToJson};
use crate::kernel::KernelClass;
use crate::time::{SimDuration, SimTime};

/// One completed kernel execution.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Kernel identity.
    pub kernel: KernelId,
    /// Kernel name, moved out of the kernel's [`KernelSpec`](crate::KernelSpec)
    /// (borrowed for static names, owned for generated or parsed ones).
    pub name: Cow<'static, str>,
    /// Computation or communication.
    pub class: KernelClass,
    /// User correlation tag (batch id, …).
    pub tag: u64,
    /// Device the kernel ran on.
    pub device: DeviceId,
    /// Stream it was launched to.
    pub stream: usize,
    /// When the op landed on the device queue.
    pub enqueued_at: SimTime,
    /// When execution began (collectives: when all peers arrived).
    pub started_at: SimTime,
    /// When execution completed.
    pub ended_at: SimTime,
    /// True when the kernel was killed by the fault schedule partway
    /// through (it still drains its queue slot; see `gpu-sim::faults`).
    pub failed: bool,
    /// The rendezvous group for a collective kernel (`None` for plain
    /// kernels). Members of one group start and end together; the trace
    /// sanitizer checks exactly that.
    pub collective: Option<CollectiveId>,
}

impl TraceEvent {
    /// Wall-clock execution span.
    pub fn duration(&self) -> SimDuration {
        self.ended_at.saturating_since(self.started_at)
    }

    /// Time spent queued before execution began.
    pub fn queue_delay(&self) -> SimDuration {
        self.started_at.saturating_since(self.enqueued_at)
    }

    /// True when the two events overlap in time (open intervals).
    pub fn overlaps(&self, other: &TraceEvent) -> bool {
        self.started_at < other.ended_at && other.started_at < self.ended_at
    }
}

/// An instantaneous synchronization or memory operation captured alongside
/// kernel executions — the raw material from which the trace sanitizer
/// reconstructs happens-before order and allocation lifetimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMark {
    /// An event-record operation reached the head of its hardware queue
    /// (everything enqueued before it on that stream had completed).
    Record {
        /// The recorded event's id.
        event: u64,
        /// Device the record drained on.
        device: DeviceId,
        /// Stream it was enqueued to.
        stream: usize,
        /// When it fired.
        at: SimTime,
    },
    /// A stream-wait resolved: its event had fired and the queue unblocked.
    Wait {
        /// The awaited event's id.
        event: u64,
        /// Device the wait drained on.
        device: DeviceId,
        /// Stream it was enqueued to.
        stream: usize,
        /// When it resolved.
        at: SimTime,
    },
    /// Device memory was allocated.
    Alloc {
        /// The allocation's id.
        id: u64,
        /// Device the bytes live on.
        device: DeviceId,
        /// Allocation size.
        bytes: u64,
        /// Allocation label (`"weights"`, `"batch working set"`, …).
        label: String,
        /// When it was allocated.
        at: SimTime,
    },
    /// Device memory was freed.
    Free {
        /// The freed allocation's id.
        id: u64,
        /// Device the bytes lived on.
        device: DeviceId,
        /// When it was freed.
        at: SimTime,
    },
}

impl TraceMark {
    /// The instant the mark happened.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceMark::Record { at, .. }
            | TraceMark::Wait { at, .. }
            | TraceMark::Alloc { at, .. }
            | TraceMark::Free { at, .. } => at,
        }
    }

    /// The device the mark belongs to.
    pub fn device(&self) -> DeviceId {
        match *self {
            TraceMark::Record { device, .. }
            | TraceMark::Wait { device, .. }
            | TraceMark::Alloc { device, .. }
            | TraceMark::Free { device, .. } => device,
        }
    }
}

/// A captured execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    marks: Vec<TraceMark>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace { events: Vec::new(), marks: Vec::new() }
    }

    /// Appends an event (events arrive in completion order).
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Appends a synchronization/memory mark (marks arrive in simulation
    /// order).
    pub fn push_mark(&mut self, mark: TraceMark) {
        self.marks.push(mark);
    }

    /// All recorded events, in completion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All recorded synchronization/memory marks, in simulation order.
    pub fn marks(&self) -> &[TraceMark] {
        &self.marks
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that ran on `device`.
    pub fn on_device(&self, device: DeviceId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.device == device)
    }

    /// Events of a given class.
    pub fn of_class(&self, class: KernelClass) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.class == class)
    }

    /// Events carrying a given tag.
    pub fn with_tag(&self, tag: u64) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.tag == tag)
    }

    /// Total wall time during which, on `device`, at least one compute kernel
    /// and at least one comm kernel were executing simultaneously. This is
    /// the overlap the interleaved parallelism manufactures.
    pub fn overlap_time(&self, device: DeviceId) -> SimDuration {
        // Sweep-line over start/end boundaries.
        let mut bounds: Vec<(SimTime, KernelClass, i32)> = Vec::new();
        for e in self.on_device(device) {
            bounds.push((e.started_at, e.class, 1));
            bounds.push((e.ended_at, e.class, -1));
        }
        bounds.sort_by_key(|&(t, _, delta)| (t, delta)); // ends before starts at ties
        let (mut nc, mut nm) = (0i32, 0i32);
        let mut overlap = 0u64;
        let mut last = SimTime::ZERO;
        for (t, class, delta) in bounds {
            if nc > 0 && nm > 0 {
                overlap += t.saturating_since(last).as_nanos();
            }
            last = t;
            match class {
                KernelClass::Compute => nc += delta,
                KernelClass::Comm => nm += delta,
            }
        }
        SimDuration::from_nanos(overlap)
    }

    /// Renders a fixed-width ASCII timeline over `[from, to)`: one lane per
    /// (device, stream), `#` for compute, `=` for communication, `.` for
    /// idle, `*` where both classes ran within one column. Handy for
    /// eyeballing interleaving schedules in a terminal or in docs:
    ///
    /// ```text
    /// gpu0.s0 |######====######====|
    /// gpu0.s1 |....====....====....|
    /// ```
    pub fn render_ascii(&self, width: usize, from: SimTime, to: SimTime) -> String {
        use std::collections::BTreeMap;
        let width = width.max(1);
        let span = to.saturating_since(from).as_nanos().max(1);
        // (device, stream) -> per-column class presence bitmask (1 = compute, 2 = comm).
        let mut lanes: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
        for e in &self.events {
            let lane = lanes.entry((e.device.0, e.stream)).or_insert_with(|| vec![0u8; width]);
            if e.ended_at <= from || e.started_at >= to {
                continue;
            }
            let s = e.started_at.max(from).saturating_since(from).as_nanos();
            let t = e.ended_at.min(to).saturating_since(from).as_nanos();
            let c0 = (s as u128 * width as u128 / span as u128) as usize;
            let c1 = ((t as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
            let bit = match e.class {
                KernelClass::Compute => 1u8,
                KernelClass::Comm => 2u8,
            };
            for cell in &mut lane[c0..c1.max(c0 + 1).min(width)] {
                *cell |= bit;
            }
        }
        let mut out = String::new();
        for ((device, stream), cells) in lanes {
            let _ = write!(out, "gpu{device}.s{stream} |");
            for c in cells {
                out.push(match c {
                    0 => '.',
                    1 => '#',
                    2 => '=',
                    _ => '*',
                });
            }
            out.push_str("|\n");
        }
        out
    }

    /// Serializes to the Chrome trace-event JSON array format through the
    /// internal [`crate::json`] writer (no JSON dependency). Kernel
    /// executions become complete (`"ph":"X"`) events; synchronization and
    /// memory marks become instant (`"ph":"i"`) events with `cat` `"sync"`
    /// or `"mem"`. Timestamps are microseconds at nanosecond precision, so
    /// [`Trace::from_chrome_json`] round-trips the trace exactly.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 128 + self.marks.len() * 96 + 2);
        let mut arr = JsonArray::begin(&mut out);
        for e in &self.events {
            arr.item(e);
        }
        for m in &self.marks {
            arr.item(m);
        }
        arr.end();
        out
    }

    /// Parses a trace back from [`Trace::to_chrome_json`] output.
    pub fn from_chrome_json(input: &str) -> Result<Trace, TraceParseError> {
        Ok(Trace::parse_chrome_json(input)?.trace)
    }

    /// Parses a Chrome trace and additionally reports the byte offset at
    /// which every event and mark begins in `input`, so downstream
    /// diagnostics (the `liger-verify` sanitizer) can point at source
    /// locations the way [`crate::faults::ParseError`] does.
    pub fn parse_chrome_json(input: &str) -> Result<ParsedChromeTrace, TraceParseError> {
        let mut p = JsonParser::new(input);
        p.array_begin()?;
        let mut trace = Trace::new();
        let mut event_offsets = Vec::new();
        let mut mark_offsets = Vec::new();
        let mut first = true;
        while p.array_next(first)? {
            first = false;
            let offset = p.token_offset();
            let v = p.value()?;
            let ph = v
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| TraceParseError::at(offset, "a \"ph\" field"))?;
            match ph {
                "X" => {
                    trace.push(parse_event(&v, offset)?);
                    event_offsets.push(offset);
                }
                "i" => {
                    trace.push_mark(parse_mark(&v, offset)?);
                    mark_offsets.push(offset);
                }
                other => {
                    return Err(TraceParseError::at(
                        offset,
                        format!("phase \"X\" or \"i\", found {other:?}"),
                    ))
                }
            }
        }
        p.finish()?;
        Ok(ParsedChromeTrace { trace, event_offsets, mark_offsets })
    }
}

/// A trace parsed from Chrome JSON, with the byte offset of every element.
#[derive(Debug, Clone)]
pub struct ParsedChromeTrace {
    /// The reconstructed trace.
    pub trace: Trace,
    /// Byte offset in the source text where each kernel event's JSON object
    /// begins (parallel to [`Trace::events`]).
    pub event_offsets: Vec<usize>,
    /// Byte offset where each mark's JSON object begins (parallel to
    /// [`Trace::marks`]).
    pub mark_offsets: Vec<usize>,
}

/// Why a Chrome trace failed to parse: a byte offset plus what was expected
/// there, in the same shape as [`crate::faults::ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Byte offset into the input where the problem sits.
    pub offset: usize,
    /// What was expected there.
    pub expected: String,
}

impl TraceParseError {
    fn at(offset: usize, expected: impl Into<String>) -> TraceParseError {
        TraceParseError { offset, expected: expected.into() }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chrome trace error at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for TraceParseError {}

impl From<JsonError> for TraceParseError {
    fn from(e: JsonError) -> TraceParseError {
        TraceParseError { offset: e.offset, expected: e.expected }
    }
}

/// Parses a `"{:.3}"`-formatted microsecond timestamp exactly (no float
/// detour: `123.456` micros are precisely 123456 ns).
fn micros_text_to_nanos(raw: &str, offset: usize) -> Result<u64, TraceParseError> {
    let bad = || TraceParseError::at(offset, format!("a microsecond timestamp, found {raw:?}"));
    let (int, frac) = raw.split_once('.').unwrap_or((raw, ""));
    let micros: u64 = int.parse().map_err(|_| bad())?;
    if frac.len() > 3 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    let mut ns = 0u64;
    for i in 0..3 {
        ns = ns * 10 + u64::from(frac.as_bytes().get(i).map_or(0, |b| b - b'0'));
    }
    micros.checked_mul(1000).and_then(|m| m.checked_add(ns)).ok_or_else(bad)
}

fn time_field(v: &JsonValue, key: &str, offset: usize) -> Result<SimTime, TraceParseError> {
    let raw = v
        .get(key)
        .and_then(JsonValue::number_text)
        .ok_or_else(|| TraceParseError::at(offset, format!("a numeric {key:?} field")))?;
    Ok(SimTime::from_nanos(micros_text_to_nanos(raw, offset)?))
}

fn u64_field(v: &JsonValue, key: &str, offset: usize) -> Result<u64, TraceParseError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| TraceParseError::at(offset, format!("an integer {key:?} field")))
}

fn str_field<'a>(v: &'a JsonValue, key: &str, offset: usize) -> Result<&'a str, TraceParseError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| TraceParseError::at(offset, format!("a string {key:?} field")))
}

fn parse_event(v: &JsonValue, offset: usize) -> Result<TraceEvent, TraceParseError> {
    let class = match str_field(v, "cat", offset)? {
        "compute" => KernelClass::Compute,
        "comm" => KernelClass::Comm,
        other => {
            return Err(TraceParseError::at(
                offset,
                format!("kernel category \"compute\" or \"comm\", found {other:?}"),
            ))
        }
    };
    let args = v
        .get("args")
        .ok_or_else(|| TraceParseError::at(offset, "an \"args\" object on a kernel event"))?;
    let started_at = time_field(v, "ts", offset)?;
    let duration = time_field(v, "dur", offset)?;
    let collective = match args.get("coll") {
        None | Some(JsonValue::Null) => None,
        Some(c) => Some(CollectiveId(
            c.as_u64()
                .ok_or_else(|| TraceParseError::at(offset, "an integer or null \"coll\" field"))?,
        )),
    };
    Ok(TraceEvent {
        kernel: KernelId(u64_field(args, "kernel", offset)?),
        name: Cow::Owned(str_field(v, "name", offset)?.to_owned()),
        class,
        tag: u64_field(args, "tag", offset)?,
        device: DeviceId(u64_field(v, "pid", offset)? as usize),
        stream: u64_field(v, "tid", offset)? as usize,
        enqueued_at: time_field(args, "enq", offset)?,
        started_at,
        ended_at: started_at + SimDuration::from_nanos(duration.as_nanos()),
        failed: args
            .get("failed")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| TraceParseError::at(offset, "a boolean \"failed\" field"))?,
        collective,
    })
}

fn parse_mark(v: &JsonValue, offset: usize) -> Result<TraceMark, TraceParseError> {
    let args =
        v.get("args").ok_or_else(|| TraceParseError::at(offset, "an \"args\" object on a mark"))?;
    let at = time_field(v, "ts", offset)?;
    let device = DeviceId(u64_field(v, "pid", offset)? as usize);
    match str_field(v, "name", offset)? {
        "record" => Ok(TraceMark::Record {
            event: u64_field(args, "event", offset)?,
            device,
            stream: u64_field(v, "tid", offset)? as usize,
            at,
        }),
        "wait" => Ok(TraceMark::Wait {
            event: u64_field(args, "event", offset)?,
            device,
            stream: u64_field(v, "tid", offset)? as usize,
            at,
        }),
        "alloc" => Ok(TraceMark::Alloc {
            id: u64_field(args, "id", offset)?,
            device,
            bytes: u64_field(args, "bytes", offset)?,
            label: str_field(args, "label", offset)?.to_string(),
            at,
        }),
        "free" => Ok(TraceMark::Free { id: u64_field(args, "id", offset)?, device, at }),
        other => Err(TraceParseError::at(
            offset,
            format!("mark \"record\", \"wait\", \"alloc\" or \"free\", found {other:?}"),
        )),
    }
}

/// Renders one event as a Chrome trace-event object.
impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::begin(out);
        obj.field("name", &&*self.name)
            .field("cat", &self.class.label())
            .field("ph", &"X")
            .field_with("ts", |s| {
                let _ = write!(s, "{:.3}", self.started_at.as_micros_f64());
            })
            .field_with("dur", |s| {
                let _ = write!(s, "{:.3}", self.duration().as_micros_f64());
            })
            .field("pid", &self.device.0)
            .field("tid", &self.stream)
            .field_with("args", |s| {
                let mut args = JsonObject::begin(s);
                args.field("tag", &self.tag)
                    .field("kernel", &self.kernel.0)
                    .field("failed", &self.failed)
                    .field_with("enq", |s| {
                        let _ = write!(s, "{:.3}", self.enqueued_at.as_micros_f64());
                    })
                    .field("coll", &self.collective.map(|c| c.0));
                args.end();
            });
        obj.end();
    }
}

/// Renders one mark as a Chrome instant event.
impl ToJson for TraceMark {
    fn write_json(&self, out: &mut String) {
        let (name, cat, tid) = match self {
            TraceMark::Record { stream, .. } => ("record", "sync", *stream),
            TraceMark::Wait { stream, .. } => ("wait", "sync", *stream),
            TraceMark::Alloc { .. } => ("alloc", "mem", 0),
            TraceMark::Free { .. } => ("free", "mem", 0),
        };
        let mut obj = JsonObject::begin(out);
        obj.field("name", &name)
            .field("cat", &cat)
            .field("ph", &"i")
            .field_with("ts", |s| {
                let _ = write!(s, "{:.3}", self.at().as_micros_f64());
            })
            .field("pid", &self.device().0)
            .field("tid", &tid)
            .field("s", &"t")
            .field_with("args", |s| {
                let mut args = JsonObject::begin(s);
                match self {
                    TraceMark::Record { event, .. } | TraceMark::Wait { event, .. } => {
                        args.field("event", event);
                    }
                    TraceMark::Alloc { id, bytes, label, .. } => {
                        args.field("id", id).field("bytes", bytes).field("label", label);
                    }
                    TraceMark::Free { id, .. } => {
                        args.field("id", id);
                    }
                }
                args.end();
            });
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: usize, class: KernelClass, start_us: u64, end_us: u64, tag: u64) -> TraceEvent {
        TraceEvent {
            kernel: KernelId(0),
            name: "k".into(),
            class,
            tag,
            device: DeviceId(device),
            stream: 0,
            enqueued_at: SimTime::from_micros(start_us.saturating_sub(1)),
            started_at: SimTime::from_micros(start_us),
            ended_at: SimTime::from_micros(end_us),
            failed: false,
            collective: None,
        }
    }

    #[test]
    fn duration_and_delay() {
        let e = ev(0, KernelClass::Compute, 10, 25, 0);
        assert_eq!(e.duration(), SimDuration::from_micros(15));
        assert_eq!(e.queue_delay(), SimDuration::from_micros(1));
    }

    #[test]
    fn overlap_predicate() {
        let a = ev(0, KernelClass::Compute, 0, 10, 0);
        let b = ev(0, KernelClass::Comm, 5, 15, 0);
        let c = ev(0, KernelClass::Comm, 10, 20, 0);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
    }

    #[test]
    fn filters() {
        let mut t = Trace::new();
        t.push(ev(0, KernelClass::Compute, 0, 10, 7));
        t.push(ev(1, KernelClass::Comm, 0, 10, 7));
        t.push(ev(0, KernelClass::Comm, 10, 20, 8));
        assert_eq!(t.len(), 3);
        assert_eq!(t.on_device(DeviceId(0)).count(), 2);
        assert_eq!(t.of_class(KernelClass::Comm).count(), 2);
        assert_eq!(t.with_tag(7).count(), 2);
    }

    #[test]
    fn overlap_time_cross_class_only() {
        let mut t = Trace::new();
        // compute 0..10, comm 5..15 on device 0 => overlap 5us
        t.push(ev(0, KernelClass::Compute, 0, 10, 0));
        t.push(ev(0, KernelClass::Comm, 5, 15, 0));
        // two compute kernels overlapping is NOT cross-class overlap
        t.push(ev(0, KernelClass::Compute, 20, 30, 0));
        t.push(ev(0, KernelClass::Compute, 25, 35, 0));
        assert_eq!(t.overlap_time(DeviceId(0)), SimDuration::from_micros(5));
        // other device unaffected
        assert_eq!(t.overlap_time(DeviceId(1)), SimDuration::ZERO);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = Trace::new();
        t.push(ev(0, KernelClass::Compute, 0, 10, 3));
        let json = t.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"compute\""));
        assert!(json.contains("\"tag\":3"));
    }

    #[test]
    fn event_names_are_escaped() {
        let mut t = Trace::new();
        let mut e = ev(0, KernelClass::Compute, 0, 10, 0);
        e.name = "ge\"mm".into();
        t.push(e);
        assert!(t.to_chrome_json().contains("\"name\":\"ge\\\"mm\""));
    }

    #[test]
    fn chrome_json_round_trips_byte_identically() {
        let mut t = Trace::new();
        let mut a = ev(0, KernelClass::Compute, 5, 17, (1 << 62) | 3);
        a.failed = true;
        t.push(a);
        let mut b = ev(1, KernelClass::Comm, 17, 40, 3);
        b.collective = Some(CollectiveId(9));
        b.stream = 1;
        t.push(b);
        t.push_mark(TraceMark::Record {
            event: 4,
            device: DeviceId(0),
            stream: 0,
            at: SimTime::from_micros(17),
        });
        t.push_mark(TraceMark::Wait {
            event: 4,
            device: DeviceId(1),
            stream: 1,
            at: SimTime::from_micros(17),
        });
        t.push_mark(TraceMark::Alloc {
            id: 0,
            device: DeviceId(0),
            bytes: 1 << 30,
            label: "weights".into(),
            at: SimTime::ZERO,
        });
        t.push_mark(TraceMark::Free { id: 0, device: DeviceId(0), at: SimTime::from_micros(99) });
        let json = t.to_chrome_json();
        let back = Trace::from_chrome_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.marks().len(), 4);
        assert_eq!(back.events()[0].tag, (1 << 62) | 3, "full-width tags survive");
        assert_eq!(back.events()[1].collective, Some(CollectiveId(9)));
        assert_eq!(back.marks(), t.marks());
        assert_eq!(back.to_chrome_json(), json, "re-export is byte-identical");
    }

    #[test]
    fn parse_offsets_point_at_elements() {
        let mut t = Trace::new();
        t.push(ev(0, KernelClass::Compute, 0, 10, 1));
        t.push_mark(TraceMark::Free { id: 7, device: DeviceId(0), at: SimTime::ZERO });
        let json = t.to_chrome_json();
        let parsed = Trace::parse_chrome_json(&json).unwrap();
        assert_eq!(parsed.event_offsets.len(), 1);
        assert_eq!(parsed.mark_offsets.len(), 1);
        assert_eq!(&json[parsed.event_offsets[0]..parsed.event_offsets[0] + 1], "{");
        assert!(json[parsed.mark_offsets[0]..].starts_with("{\"name\":\"free\""));
    }

    #[test]
    fn parse_rejects_malformed_traces_with_offsets() {
        let err = Trace::from_chrome_json("not json").unwrap_err();
        assert_eq!(err.offset, 0);
        let err = Trace::from_chrome_json("[{\"ph\":\"Q\"}]").unwrap_err();
        assert!(err.to_string().contains("at byte 1"), "{err}");
        let err = Trace::from_chrome_json("[{\"ph\":\"X\",\"cat\":\"compute\"}]").unwrap_err();
        assert!(err.expected.contains("args"), "{err}");
    }

    #[test]
    fn timestamp_text_parses_exactly() {
        assert_eq!(micros_text_to_nanos("123.456", 0).unwrap(), 123_456);
        assert_eq!(micros_text_to_nanos("0.001", 0).unwrap(), 1);
        assert_eq!(micros_text_to_nanos("7", 0).unwrap(), 7_000);
        assert_eq!(micros_text_to_nanos("7.25", 0).unwrap(), 7_250);
        assert!(micros_text_to_nanos("1.2345", 0).is_err(), "sub-ns precision is not ours");
        assert!(micros_text_to_nanos("-1.0", 0).is_err());
    }
}

#[cfg(test)]
mod ascii_tests {
    use super::*;

    fn ev(
        device: usize,
        stream: usize,
        class: KernelClass,
        start_us: u64,
        end_us: u64,
    ) -> TraceEvent {
        TraceEvent {
            kernel: KernelId(0),
            name: "k".into(),
            class,
            tag: 0,
            device: DeviceId(device),
            stream,
            enqueued_at: SimTime::from_micros(start_us),
            started_at: SimTime::from_micros(start_us),
            ended_at: SimTime::from_micros(end_us),
            failed: false,
            collective: None,
        }
    }

    #[test]
    fn renders_lanes_with_class_glyphs() {
        let mut t = Trace::new();
        t.push(ev(0, 0, KernelClass::Compute, 0, 50));
        t.push(ev(0, 1, KernelClass::Comm, 50, 100));
        let s = t.render_ascii(10, SimTime::ZERO, SimTime::from_micros(100));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "gpu0.s0 |#####.....|");
        assert_eq!(lines[1], "gpu0.s1 |.....=====|");
    }

    #[test]
    fn overlap_marks_star() {
        let mut t = Trace::new();
        t.push(ev(0, 0, KernelClass::Compute, 0, 100));
        t.push(ev(0, 0, KernelClass::Comm, 0, 100));
        let s = t.render_ascii(4, SimTime::ZERO, SimTime::from_micros(100));
        assert_eq!(s.lines().next().unwrap(), "gpu0.s0 |****|");
    }

    #[test]
    fn events_outside_the_window_are_ignored() {
        let mut t = Trace::new();
        t.push(ev(1, 0, KernelClass::Compute, 200, 300));
        let s = t.render_ascii(5, SimTime::ZERO, SimTime::from_micros(100));
        assert_eq!(s.lines().next().unwrap(), "gpu1.s0 |.....|");
    }

    #[test]
    fn degenerate_width_and_span_do_not_panic() {
        let mut t = Trace::new();
        t.push(ev(0, 0, KernelClass::Compute, 0, 1));
        let s = t.render_ascii(0, SimTime::ZERO, SimTime::ZERO);
        assert!(s.contains("gpu0.s0"));
    }
}
