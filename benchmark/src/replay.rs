//! Layer replay: splits the engine stack's self time by layer.
//!
//! The traced run sees the engine as one box (spans inside the crates are a
//! later change). To say where inside the box the time goes, the traced
//! round records every engine call it made, and that log is fed to each
//! layer's public type standing alone on the simulated backend, bottom-up:
//! frame codec, page cache, append-only store, mapping table and WAL writer
//! with the workload's sizes; then `BwTree`, `BwTreeForest` and `Bg3Db`
//! with the call log itself, each preloaded with the same graph and flushed
//! at the same group-commit cadence, so dirty pages and split-out trees are
//! in the state the live calls met. Each replay's total includes the layers
//! below it; a layer's own share is the difference to the next one down.
//! The top of the chain — the whole stack on the simulated backend —
//! against the live engine-stack self time is `trace.unattributed_ratio`.

use crate::runner::{engine_config, Inputs, Snap};
use crate::workload;
use bg3_bwtree::{BwTree, FlushMode};
use bg3_cache::PageCache;
use bg3_core::prelude::*;
use bg3_forest::{composite_key, group_prefix, BwTreeForest};
use bg3_graph::{edge_group, edge_item, NeighborSink};
use bg3_storage::{
    encode_frame, verify_frame, ExtentId, FrameKind, LatencyModel, PageAddr, RecordId,
    SharedMappingTable, SimClock, StreamId,
};
use bg3_wal::{WalPayload, WalWriter};
use bytes::Bytes;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One engine call of the traced round, as the replay needs it.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Insert(Edge),
    Get(VertexId, VertexId),
    Neighbors(VertexId, usize),
    Batch(Vec<VertexId>, usize),
}

/// Calls and time of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub calls: u64,
    pub ns: u64,
}

impl Cost {
    pub fn mean(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    fn add(&mut self, calls: u64, started: Instant) {
        self.calls += calls;
        self.ns += started.elapsed().as_nanos() as u64;
    }
}

/// What replaying the call log against one layer cost, by call kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackCost {
    pub insert: Cost,
    pub get: Cost,
    pub neighbors: Cost,
    /// Per source vertex of `neighbors_batch`.
    pub batch_src: Cost,
    /// Per page flushed by the group commits the inserts triggered (tree
    /// and forest replays; the engine replay flushes inside `insert`).
    pub flush_page: Cost,
    /// Per entry the scans visited.
    pub scan_entry: Cost,
}

impl StackCost {
    /// Estimated time of the live call counts at this layer's mean costs.
    pub fn estimate(&self, live: &LiveCalls) -> f64 {
        live.inserts * self.insert.mean()
            + live.gets * self.get.mean()
            + live.neighbors * self.neighbors.mean()
            + live.batch_srcs * self.batch_src.mean()
            + live.inserts * self.flush_page.ns as f64 / self.insert.calls.max(1) as f64
    }
}

/// Live call counts of the traced round's measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveCalls {
    pub inserts: f64,
    pub gets: f64,
    pub neighbors: f64,
    pub batch_srcs: f64,
}

/// Mean nanoseconds per public call of each layer, standing alone.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub frame_encode_ns_per_kb: f64,
    pub frame_verify_ns_per_kb: f64,
    pub cache_get_hit_ns: f64,
    pub cache_insert_ns: f64,
    pub storage_append_ns: f64,
    pub storage_read_hit_ns: f64,
    pub storage_read_miss_ns: f64,
    pub mapping_publish_ns: f64,
    pub wal_append_cpu_ns: f64,
    pub bwtree: StackCost,
    pub forest: StackCost,
    /// `BwTreeForest::scan_group`, the unbatched public scan.
    pub forest_scan_group_ns: f64,
    /// `Bg3Db` on the simulated backend: the whole engine stack.
    pub core: StackCost,
    /// Wall time the replay itself took.
    pub replay_s: f64,
}

/// Repetitions of the fixed-input loops of the lower layers.
const REPS: usize = 2_000;
/// Wall time each call-log replay may take; a longer log is replayed as a
/// prefix and its per-call means are applied to the live counts.
const LOG_BUDGET: Duration = Duration::from_millis(1_500);

fn mean_ns(started: Instant, calls: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn sim_store(config: &Bg3Config) -> AppendOnlyStore {
    StoreBuilder::from_config(StoreConfig::counting().with_cache(config.store.cache.clone()))
        .build()
}

/// A layer the call log can be replayed against.
trait Target {
    fn insert(&mut self, edge: &Edge, cost: &mut StackCost);
    fn get(&self, src: VertexId, dst: VertexId);
    /// Returns entries visited.
    fn neighbors(&self, src: VertexId, limit: usize) -> u64;
    fn batch(&self, srcs: &[VertexId], limit: usize) -> u64;
    /// Flushes everything, as the checkpoint after the load does.
    fn settle(&mut self);
}

/// Loads the graph, then replays the log (or a time-bounded prefix). Kinds
/// the log never calls are sampled from the graph afterwards so that every
/// workload reports every cost.
fn replay_log(target: &mut dyn Target, inputs: &Inputs, log: &[Call]) -> StackCost {
    let mut load = StackCost::default();
    for edge in &inputs.graph {
        target.insert(edge, &mut load);
    }
    target.settle();
    let mut cost = StackCost::default();
    let started = Instant::now();
    for (i, call) in log.iter().enumerate() {
        if i % 256 == 0 && started.elapsed() > LOG_BUDGET {
            break;
        }
        run_call(target, call, &mut cost);
    }
    let sample = inputs.graph.iter().take(REPS);
    if cost.insert.calls == 0 {
        cost.insert = load.insert;
        cost.flush_page = load.flush_page;
    }
    if cost.get.calls == 0 {
        for e in sample.clone() {
            run_call(target, &Call::Get(e.src, e.dst), &mut cost);
        }
    }
    if cost.neighbors.calls == 0 {
        for e in sample.clone() {
            let call = Call::Neighbors(e.src, workload::NEIGHBOR_LIMIT);
            run_call(target, &call, &mut cost);
        }
    }
    if cost.batch_src.calls == 0 {
        let srcs: Vec<VertexId> = sample.map(|e| e.src).collect();
        for chunk in srcs.chunks(16) {
            let call = Call::Batch(chunk.to_vec(), crate::runner::KHOP_FANOUT);
            run_call(target, &call, &mut cost);
        }
    }
    // Every visited entry was visited by one of the two scans.
    cost.scan_entry.ns = cost.neighbors.ns + cost.batch_src.ns;
    cost
}

fn run_call(target: &mut dyn Target, call: &Call, cost: &mut StackCost) {
    match call {
        Call::Insert(edge) => target.insert(edge, cost),
        Call::Get(src, dst) => {
            let t = Instant::now();
            target.get(*src, *dst);
            cost.get.add(1, t);
        }
        Call::Neighbors(src, limit) => {
            let t = Instant::now();
            let entries = target.neighbors(*src, *limit);
            cost.neighbors.add(1, t);
            cost.scan_entry.calls += entries;
        }
        Call::Batch(srcs, limit) => {
            let t = Instant::now();
            let entries = target.batch(srcs, *limit);
            cost.batch_src.add(srcs.len() as u64, t);
            cost.scan_entry.calls += entries;
        }
    }
}

/// One standalone tree holding every edge under the key the INIT tree
/// would use.
struct TreeTarget {
    tree: BwTree,
    etype: EdgeType,
    group_commit: usize,
}

impl TreeTarget {
    fn scan(&self, prefixes: &[(usize, Vec<u8>)], limit: usize) -> u64 {
        let mut entries = 0;
        self.tree
            .scan_prefix_batch(prefixes, limit, &mut |_, item, props| {
                entries += 1;
                black_box((item, props));
                true
            });
        entries
    }
}

impl Target for TreeTarget {
    fn insert(&mut self, edge: &Edge, cost: &mut StackCost) {
        let key = composite_key(&edge_group(edge.src, self.etype), &edge_item(edge.dst));
        let t = Instant::now();
        black_box(self.tree.put(&key, &edge.props)).ok();
        cost.insert.add(1, t);
        if self.tree.dirty_count() >= self.group_commit {
            let t = Instant::now();
            let pages = self.tree.flush_dirty().map_or(0, |p| p.len());
            cost.flush_page.add(pages as u64, t);
        }
    }

    fn get(&self, src: VertexId, dst: VertexId) {
        let key = composite_key(&edge_group(src, self.etype), &edge_item(dst));
        black_box(self.tree.get(&key)).ok();
    }

    fn neighbors(&self, src: VertexId, limit: usize) -> u64 {
        self.scan(&[(0, group_prefix(&edge_group(src, self.etype)))], limit)
    }

    fn batch(&self, srcs: &[VertexId], limit: usize) -> u64 {
        let mut prefixes: Vec<(usize, Vec<u8>)> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| (i, group_prefix(&edge_group(*s, self.etype))))
            .collect();
        prefixes.sort_by(|a, b| a.1.cmp(&b.1));
        self.scan(&prefixes, limit)
    }

    fn settle(&mut self) {
        self.tree.flush_dirty().ok();
    }
}

/// The forest: group routing and split-out over many trees.
struct ForestTarget {
    forest: BwTreeForest,
    etype: EdgeType,
    group_commit: usize,
}

impl ForestTarget {
    fn scan(&self, groups: &[(usize, Vec<u8>)], limit: usize) -> u64 {
        let mut entries = 0;
        self.forest
            .scan_groups(groups, limit, &mut |_, item, props| {
                entries += 1;
                black_box((item, props));
                true
            });
        entries
    }
}

impl Target for ForestTarget {
    fn insert(&mut self, edge: &Edge, cost: &mut StackCost) {
        let (group, item) = (edge_group(edge.src, self.etype), edge_item(edge.dst));
        let t = Instant::now();
        black_box(self.forest.put(&group, &item, &edge.props)).ok();
        cost.insert.add(1, t);
        if self.forest.dirty_count() >= self.group_commit {
            let t = Instant::now();
            let pages: usize = self
                .forest
                .all_trees()
                .iter()
                .map(|tree| tree.flush_dirty().map_or(0, |p| p.len()))
                .sum();
            cost.flush_page.add(pages as u64, t);
        }
    }

    fn get(&self, src: VertexId, dst: VertexId) {
        black_box(
            self.forest
                .get(&edge_group(src, self.etype), &edge_item(dst)),
        )
        .ok();
    }

    fn neighbors(&self, src: VertexId, limit: usize) -> u64 {
        self.scan(&[(0, edge_group(src, self.etype))], limit)
    }

    fn batch(&self, srcs: &[VertexId], limit: usize) -> u64 {
        let groups: Vec<(usize, Vec<u8>)> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| (i, edge_group(*s, self.etype)))
            .collect();
        self.scan(&groups, limit)
    }

    fn settle(&mut self) {
        for tree in self.forest.all_trees() {
            tree.flush_dirty().ok();
        }
    }
}

/// The whole engine on the simulated backend.
struct CoreTarget {
    db: Bg3Db,
    etype: EdgeType,
}

struct CountSink(u64);

impl NeighborSink for CountSink {
    fn visit(&mut self, _: usize, dst: VertexId, props: &[u8]) -> bool {
        self.0 += 1;
        black_box((dst, props));
        true
    }
}

impl Target for CoreTarget {
    fn insert(&mut self, edge: &Edge, cost: &mut StackCost) {
        let t = Instant::now();
        black_box(self.db.insert_edge(edge)).ok();
        cost.insert.add(1, t);
    }

    fn get(&self, src: VertexId, dst: VertexId) {
        black_box(self.db.get_edge(src, self.etype, dst)).ok();
    }

    fn neighbors(&self, src: VertexId, limit: usize) -> u64 {
        black_box(self.db.neighbors(src, self.etype, limit)).map_or(0, |n| n.len() as u64)
    }

    fn batch(&self, srcs: &[VertexId], limit: usize) -> u64 {
        let mut sink = CountSink(0);
        self.db
            .neighbors_batch(srcs, self.etype, limit, &mut sink)
            .ok();
        sink.0
    }

    fn settle(&mut self) {
        self.db.checkpoint().ok();
    }
}

/// Replays the layers bottom-up. `end` is the live engine's counters at the
/// end of the measured phase (page sizes, mapping size); `log` is every
/// engine call the traced round made.
pub fn run(inputs: &Inputs, end: &Snap, log: &[Call]) -> Replay {
    let started = Instant::now();
    let mut out = Replay::default();
    let etype = inputs.workload.etype();
    // The engine's configuration, on the simulated backend.
    let config = engine_config(inputs.workload, std::path::Path::new("unused"))
        .with_backend(BackendKind::Sim);
    let base = &end.streams[0];
    let page_bytes = (base.valid_bytes / base.valid_records.max(1)).max(64) as usize;
    let payload = vec![0xABu8; page_bytes];
    let kb = page_bytes as f64 / 1024.0;

    // storage: frame codec at the live mean page size.
    let kind = FrameKind::for_stream(StreamId::BASE);
    let t = Instant::now();
    for i in 0..REPS {
        black_box(encode_frame(
            kind,
            RecordId(i as u64 + 1),
            7,
            black_box(&payload),
        ));
    }
    out.frame_encode_ns_per_kb = mean_ns(t, REPS) / kb;
    let frame = encode_frame(kind, RecordId(1), 7, &payload);
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(verify_frame(
            black_box(&frame),
            page_bytes as u32,
            RecordId(1),
        ))
        .ok();
    }
    out.frame_verify_ns_per_kb = mean_ns(t, REPS) / kb;

    // cache: as many pages as fit comfortably, then hits on them.
    let cache: PageCache<u64> = PageCache::new(config.store.cache.clone());
    let resident = (config.store.cache.capacity_bytes / page_bytes / 2).clamp(1, REPS);
    let pages: Vec<Bytes> = (0..resident)
        .map(|_| Bytes::from(payload.clone()))
        .collect();
    let t = Instant::now();
    for (i, page) in pages.into_iter().enumerate() {
        black_box(cache.insert(i as u64, page));
    }
    out.cache_insert_ns = mean_ns(t, resident);
    let t = Instant::now();
    for i in 0..REPS {
        black_box(cache.get(&((i % resident) as u64)));
    }
    out.cache_get_hit_ns = mean_ns(t, REPS);

    // storage: append, cached read, uncached read (frame verify included).
    let store = sim_store(&config);
    let t = Instant::now();
    let addrs: Vec<PageAddr> = (0..REPS)
        .filter_map(|i| store.append(StreamId::BASE, &payload, i as u64, None).ok())
        .collect();
    out.storage_append_ns = mean_ns(t, REPS);
    let hot = &addrs[..resident.min(addrs.len())];
    for addr in hot {
        black_box(store.read(*addr)).ok();
    }
    let t = Instant::now();
    for i in 0..REPS {
        black_box(store.read(hot[i % hot.len()])).ok();
    }
    out.storage_read_hit_ns = mean_ns(t, REPS);
    let t = Instant::now();
    for addr in &addrs {
        black_box(store.read_with(*addr, ReadOpts { bypass_cache: true })).ok();
    }
    out.storage_read_miss_ns = mean_ns(t, addrs.len());

    // storage: mapping publish at the live table size (publish clones the
    // whole map), in group-commit-sized batches.
    let mapping = SharedMappingTable::new(SimClock::new(), LatencyModel::zero());
    let addr_of = |i: u64| PageAddr {
        stream: StreamId::BASE,
        extent: ExtentId(i / 64),
        offset: (i % 64) as u32 * 4096,
        len: page_bytes as u32,
        record: RecordId(i + 1),
    };
    mapping.publish((0..end.mapping_len).map(|i| (i, Some(addr_of(i)))));
    let publishes = 200u64;
    let t = Instant::now();
    for round in 0..publishes {
        let first = (round * 16) % end.mapping_len.max(16);
        black_box(mapping.publish((first..first + 16).map(|i| (i, Some(addr_of(i + round))))));
    }
    out.mapping_publish_ns = mean_ns(t, publishes as usize);

    // wal: append CPU (the simulated backend has no fsync to wait for).
    let wal = WalWriter::new(sim_store(&config));
    let records: Vec<WalPayload> = inputs
        .graph
        .iter()
        .take(REPS)
        .map(|e| WalPayload::Upsert {
            key: composite_key(&edge_group(e.src, etype), &edge_item(e.dst)),
            value: e.props.clone(),
        })
        .collect();
    let n = records.len();
    let t = Instant::now();
    for record in records {
        black_box(wal.append(0, 1, record)).ok();
    }
    out.wal_append_cpu_ns = mean_ns(t, n);

    // bwtree, forest, core: the call log, deferred flush, the engine's
    // group-commit cadence.
    let group_commit = config
        .durability
        .as_ref()
        .map_or(16, |d| d.group_commit_pages);
    let tree_config = config
        .forest
        .tree_config
        .clone()
        .with_flush_mode(FlushMode::Deferred);
    let mut tree = TreeTarget {
        tree: BwTree::new(1, sim_store(&config), tree_config.clone()),
        etype,
        group_commit,
    };
    out.bwtree = replay_log(&mut tree, inputs, log);
    let mut forest_config = config.forest.clone();
    forest_config.tree_config = tree_config;
    let mut forest = ForestTarget {
        forest: BwTreeForest::new(sim_store(&config), forest_config),
        etype,
        group_commit,
    };
    out.forest = replay_log(&mut forest, inputs, log);
    let sample: Vec<Vec<u8>> = inputs
        .graph
        .iter()
        .take(REPS)
        .map(|e| edge_group(e.src, etype))
        .collect();
    let t = Instant::now();
    for group in &sample {
        black_box(forest.forest.scan_group(group, workload::NEIGHBOR_LIMIT));
    }
    out.forest_scan_group_ns = mean_ns(t, sample.len());
    let mut core = CoreTarget {
        db: Bg3Db::open(config),
        etype,
    };
    out.core = replay_log(&mut core, inputs, log);

    out.replay_s = started.elapsed().as_secs_f64();
    out
}
