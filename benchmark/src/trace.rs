//! The traced run: spans at the three seams that can be wrapped from
//! outside the engine.
//!
//! * `client` — one span per op, opened by the driver;
//! * `engine` — one span per [`GraphStore`] call, from [`TracedStore`],
//!   which is what the executor and the pattern matcher are handed;
//! * `device` — one span per [`ExtentBackend`] call, from
//!   [`TracedBackend`] around the file backend.
//!
//! A span's self time is its duration minus the part its children cover,
//! so per op the self times add up to the client span: client self time is
//! the query/graph layer, engine self time is the engine stack
//! (core/forest/bwtree/wal/storage/cache/gc together), device time is the
//! backend. Spans inside the crates are a later change.

use crate::replay::Call;
use bg3_graph::{Edge, EdgeType, GraphStore, NeighborSink, Vertex, VertexId};
use bg3_storage::{
    BackendStats, ExtentBackend, ExtentId, PersistedExtent, StorageResult, StreamId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which seam a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client,
    Engine,
    Device,
}

/// What a span covers. Client names are op kinds, engine names are
/// `GraphStore`/`EngineRuntime` calls, device names are backend calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    ClientNeighbors,
    ClientInsert,
    ClientKhop,
    ClientGetEdge,
    ClientCycle,
    ClientMaintenance,
    ClientRecover,
    InsertEdge,
    GetEdge,
    Neighbors,
    NeighborsBatch,
    Maintenance,
    Recover,
    OtherEngine,
    DevWrite,
    DevRead,
    DevSync,
    DevSeal,
    DevOther,
}

pub const NAMES: usize = Name::DevOther as usize + 1;

impl Name {
    pub fn layer(self) -> Layer {
        match self as u8 {
            n if n <= Name::ClientRecover as u8 => Layer::Client,
            n if n <= Name::OtherEngine as u8 => Layer::Engine,
            _ => Layer::Device,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientNeighbors => "client.neighbors",
            Name::ClientInsert => "client.insert_edge",
            Name::ClientKhop => "client.khop",
            Name::ClientGetEdge => "client.get_edge",
            Name::ClientCycle => "client.has_cycle",
            Name::ClientMaintenance => "client.run_maintenance",
            Name::ClientRecover => "client.recover",
            Name::InsertEdge => "engine.insert_edge",
            Name::GetEdge => "engine.get_edge",
            Name::Neighbors => "engine.neighbors",
            Name::NeighborsBatch => "engine.neighbors_batch",
            Name::Maintenance => "engine.run_maintenance",
            Name::Recover => "engine.recover",
            Name::OtherEngine => "engine.other",
            Name::DevWrite => "device.write_at",
            Name::DevRead => "device.read_at",
            Name::DevSync => "device.sync",
            Name::DevSeal => "device.seal",
            Name::DevOther => "device.other",
        }
    }
}

/// No parent: the span is an op's root.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created;
/// `parent` indexes into the same op's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Self time of every span of one op: its duration minus its direct
/// children's durations. Children nest inside their parent and do not
/// overlap each other (one client, one thread), so subtracting is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if span.parent != ROOT {
            let slot = &mut own[span.parent as usize];
            *slot = slot.saturating_sub(span.duration());
        }
    }
    own
}

/// Per-name totals over every finished op.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's duration, for medians.
    pub durations: Vec<u32>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Spans of the op in flight.
    current: Vec<Span>,
    /// Indexes of the open spans, innermost last.
    open: Vec<u32>,
    next_op: u32,
    totals: Vec<NameTotals>,
    /// Spans kept verbatim for the trace file (the first ops of the run).
    kept: Vec<Span>,
    /// Sum of root span durations, and of all self times: equal by
    /// construction, reported so the conservation is visible.
    root_ns: u64,
    self_sum_ns: u64,
}

/// Spans written verbatim to the trace file; later ops only feed totals.
const KEEP_SPANS: usize = 20_000;

/// The in-memory span recorder. One client thread drives the engine, but
/// the backend trait demands `Send + Sync`, hence the mutex.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                totals: vec![NameTotals::default(); NAMES],
                ..Inner::default()
            }),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer mutex poisoned by a panic")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&self, name: Name) -> u32 {
        let mut inner = self.lock();
        let parent = inner.open.last().copied().unwrap_or(ROOT);
        let index = inner.current.len() as u32;
        let op = inner.next_op;
        inner.open.push(index);
        let start = self.now();
        inner.current.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        index
    }

    /// Closes span `index`; closing an op's root folds the op into totals.
    pub fn end(&self, index: u32) {
        let end = self.now();
        let mut inner = self.lock();
        inner.current[index as usize].end = end;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
        if inner.open.is_empty() {
            inner.finish_op();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name);
        let out = f();
        self.end(index);
        out
    }

    pub fn report(&self) -> TraceReport {
        let inner = self.lock();
        TraceReport {
            totals: inner.totals.clone(),
            kept: inner.kept.clone(),
            ops: inner.next_op,
            root_ns: inner.root_ns,
            self_sum_ns: inner.self_sum_ns,
        }
    }
}

impl Inner {
    fn finish_op(&mut self) {
        let own = self_times(&self.current);
        for (span, own) in self.current.iter().zip(&own) {
            let totals = &mut self.totals[span.name as usize];
            totals.count += 1;
            totals.total_ns += span.duration();
            totals.self_ns += own;
            totals
                .durations
                .push(span.duration().min(u32::MAX as u64) as u32);
            if span.parent == ROOT {
                self.root_ns += span.duration();
            }
        }
        self.self_sum_ns += own.iter().sum::<u64>();
        if self.kept.len() + self.current.len() <= KEEP_SPANS {
            self.kept.extend_from_slice(&self.current);
        }
        self.current.clear();
        self.next_op += 1;
    }
}

/// What the tracer saw, by name.
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub totals: Vec<NameTotals>,
    pub kept: Vec<Span>,
    pub ops: u32,
    pub root_ns: u64,
    pub self_sum_ns: u64,
}

impl TraceReport {
    pub fn of(&self, name: Name) -> &NameTotals {
        &self.totals[name as usize]
    }

    /// Summed self time of every span recorded at `layer`.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        (0..NAMES)
            .filter(|&i| name_at(i).layer() == layer)
            .map(|i| self.totals[i].self_ns)
            .sum()
    }

    /// The kept spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"ops_traced\":{},\"spans_kept\":{},\
             \"unit\":\"ns\",\"spans\":[\n",
            self.ops,
            self.kept.len()
        );
        let mut base = 0usize;
        let mut op = u32::MAX;
        for (i, span) in self.kept.iter().enumerate() {
            if span.op != op {
                op = span.op;
                base = i;
            }
            // Parent indexes are per op; the file numbers spans globally.
            let parent = match span.parent {
                ROOT => "null".to_string(),
                p => (base + p as usize).to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}{}\n",
                span.name.as_str(),
                span.start,
                span.end,
                span.op,
                if i + 1 == self.kept.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

fn name_at(index: usize) -> Name {
    const ALL: [Name; NAMES] = [
        Name::ClientNeighbors,
        Name::ClientInsert,
        Name::ClientKhop,
        Name::ClientGetEdge,
        Name::ClientCycle,
        Name::ClientMaintenance,
        Name::ClientRecover,
        Name::InsertEdge,
        Name::GetEdge,
        Name::Neighbors,
        Name::NeighborsBatch,
        Name::Maintenance,
        Name::Recover,
        Name::OtherEngine,
        Name::DevWrite,
        Name::DevRead,
        Name::DevSync,
        Name::DevSeal,
        Name::DevOther,
    ];
    ALL[index]
}

/// [`GraphStore`] wrapper recording one `engine` span per call. With no
/// tracer it forwards directly, so the untraced run pays one branch.
pub struct TracedStore<'a> {
    inner: &'a dyn GraphStore,
    tracer: Option<Arc<Tracer>>,
    /// Every call made while tracing, for the layer replay.
    log: Mutex<Vec<Call>>,
}

impl<'a> TracedStore<'a> {
    pub fn new(inner: &'a dyn GraphStore, tracer: Option<Arc<Tracer>>) -> Self {
        TracedStore {
            inner,
            tracer,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The recorded calls, in order.
    pub fn take_log(&self) -> Vec<Call> {
        std::mem::take(&mut *self.log.lock().expect("call log mutex poisoned by a panic"))
    }

    fn call<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(tracer) => tracer.span(name, f),
            None => f(),
        }
    }

    /// Logs a replayable call; `make` only runs while tracing.
    fn record(&self, make: impl FnOnce() -> Call) {
        if self.tracer.is_some() {
            self.log
                .lock()
                .expect("call log mutex poisoned by a panic")
                .push(make());
        }
    }
}

impl GraphStore for TracedStore<'_> {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        self.record(|| Call::Insert(edge.clone()));
        self.call(Name::InsertEdge, || self.inner.insert_edge(edge))
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.record(|| Call::Get(src, dst));
        self.call(Name::GetEdge, || self.inner.get_edge(src, etype, dst))
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.call(Name::OtherEngine, || {
            self.inner.delete_edge(src, etype, dst)
        })
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        self.record(|| Call::Neighbors(src, limit));
        self.call(Name::Neighbors, || self.inner.neighbors(src, etype, limit))
    }

    fn degree(&self, src: VertexId, etype: EdgeType) -> StorageResult<usize> {
        self.call(Name::OtherEngine, || self.inner.degree(src, etype))
    }

    fn neighbors_batch(
        &self,
        srcs: &[VertexId],
        etype: EdgeType,
        per_src_limit: usize,
        sink: &mut dyn NeighborSink,
    ) -> StorageResult<()> {
        self.record(|| Call::Batch(srcs.to_vec(), per_src_limit));
        self.call(Name::NeighborsBatch, || {
            self.inner.neighbors_batch(srcs, etype, per_src_limit, sink)
        })
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.call(Name::OtherEngine, || self.inner.insert_vertex(vertex))
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.call(Name::OtherEngine, || self.inner.get_vertex(id))
    }
}

/// Counts and times of one kind of backend call.
#[derive(Debug, Default)]
pub struct DeviceCounter {
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
    pub nanos: AtomicU64,
}

impl DeviceCounter {
    fn record(&self, bytes: usize, nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

/// Per-stream device counters (BASE, DELTA, WAL, other).
#[derive(Debug, Default)]
pub struct DeviceStats {
    pub writes: [DeviceCounter; 4],
    pub reads: [DeviceCounter; 4],
    pub syncs: [DeviceCounter; 4],
    pub sync_durations: Mutex<Vec<u32>>,
    /// Largest single write per stream, set-up included: on BASE this is
    /// the largest page image plus its frame header.
    pub max_write_bytes: [AtomicU64; 4],
}

fn stream_slot(stream: StreamId) -> usize {
    (stream.0 as usize).min(3)
}

/// [`ExtentBackend`] wrapper recording one `device` span per call, plus
/// per-stream byte and time counters. Recording can be switched off so the
/// set-up's I/O stays out of the measured-phase numbers.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn ExtentBackend>,
    tracer: Arc<Tracer>,
    pub stats: DeviceStats,
    recording: std::sync::atomic::AtomicBool,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn ExtentBackend>, tracer: Arc<Tracer>) -> Arc<TracedBackend> {
        Arc::new(TracedBackend {
            inner,
            tracer,
            stats: DeviceStats::default(),
            recording: std::sync::atomic::AtomicBool::new(false),
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn call<T>(&self, name: Name, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.recording() {
            return (f(), 0);
        }
        let started = Instant::now();
        let out = self.tracer.span(name, f);
        (out, started.elapsed().as_nanos() as u64)
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }
}

impl ExtentBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attach_stats(&self, stats: BackendStats) {
        self.inner.attach_stats(stats)
    }

    fn allocate(&self, stream: StreamId, extent: ExtentId, capacity: usize) -> StorageResult<()> {
        self.call(Name::DevOther, || {
            self.inner.allocate(stream, extent, capacity)
        })
        .0
    }

    fn write_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        bytes: &[u8],
    ) -> StorageResult<()> {
        let (out, nanos) = self.call(Name::DevWrite, || {
            self.inner.write_at(stream, extent, at, bytes)
        });
        self.stats.max_write_bytes[stream_slot(stream)]
            .fetch_max(bytes.len() as u64, Ordering::Relaxed);
        if self.recording() {
            self.stats.writes[stream_slot(stream)].record(bytes.len(), nanos);
        }
        out
    }

    fn read_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        len: usize,
    ) -> StorageResult<Vec<u8>> {
        let (out, nanos) = self.call(Name::DevRead, || {
            self.inner.read_at(stream, extent, at, len)
        });
        if self.recording() {
            self.stats.reads[stream_slot(stream)].record(len, nanos);
        }
        out
    }

    fn extent_len(&self, stream: StreamId, extent: ExtentId) -> StorageResult<u64> {
        self.inner.extent_len(stream, extent)
    }

    fn sync(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        let (out, nanos) = self.call(Name::DevSync, || self.inner.sync(stream, extent));
        if self.recording() {
            self.stats.syncs[stream_slot(stream)].record(0, nanos);
            self.stats
                .sync_durations
                .lock()
                .expect("sync samples mutex poisoned by a panic")
                .push(nanos.min(u32::MAX as u64) as u32);
        }
        out
    }

    fn seal(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        self.call(Name::DevSeal, || self.inner.seal(stream, extent))
            .0
    }

    fn delete(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        self.call(Name::DevOther, || self.inner.delete(stream, extent))
            .0
    }

    fn corrupt_bit(&self, stream: StreamId, extent: ExtentId, bit: u64) -> StorageResult<()> {
        self.inner.corrupt_bit(stream, extent, bit)
    }

    fn list_extents(&self) -> StorageResult<Vec<PersistedExtent>> {
        self.inner.list_extents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_of_nested_and_adjacent_spans() {
        // client [0,100] > engine [10,40] > device [15,25]
        //                > engine [40,90] (adjacent to the first)
        let spans = [
            span(Name::ClientKhop, 0, 100, ROOT),
            span(Name::NeighborsBatch, 10, 40, 0),
            span(Name::DevRead, 15, 25, 1),
            span(Name::NeighborsBatch, 40, 90, 0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 20, 10, 50]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn tracer_nests_by_call_order_and_conserves_time() {
        let tracer = Tracer::new();
        let root = tracer.begin(Name::ClientInsert);
        tracer.span(Name::InsertEdge, || {
            tracer.span(Name::DevWrite, || std::hint::black_box(1 + 1));
            tracer.span(Name::DevSync, || std::hint::black_box(2 + 2));
        });
        tracer.end(root);
        tracer.span(Name::ClientGetEdge, || ());
        let report = tracer.report();
        assert_eq!(report.ops, 2);
        assert_eq!(report.of(Name::InsertEdge).count, 1);
        assert_eq!(report.of(Name::DevSync).count, 1);
        assert_eq!(report.kept[2].parent, 1, "device under engine");
        assert_eq!(report.kept[1].parent, 0, "engine under client");
        assert_eq!(report.kept[4].op, 1);
        assert_eq!(report.root_ns, report.self_sum_ns);
        let layers = report.layer_self_ns(Layer::Client)
            + report.layer_self_ns(Layer::Engine)
            + report.layer_self_ns(Layer::Device);
        assert_eq!(layers, report.root_ns);
        assert!(report.to_json("w", 1).contains("\"parent\":null"));
    }

    #[test]
    fn name_table_matches_discriminants() {
        for i in 0..NAMES {
            assert_eq!(name_at(i) as usize, i);
        }
    }
}
