//! The BG3 engine: Bw-tree forest over append-only shared storage.

use bg3_bwtree::{BwTree, BwTreeConfig, FlushMode, PageTag};
use bg3_forest::{BwTreeForest, ForestConfig, INIT_TREE_ID};
use bg3_gc::{
    DirtyRatioPolicy, FifoPolicy, ReclaimPolicy, ScrubConfig, ScrubReport, Scrubber,
    SpaceReclaimer, WorkloadAwarePolicy,
};
use bg3_graph::{
    decode_dst, edge_group, edge_group_key, edge_item, vertex_key, Edge, EdgeType, GraphStore,
    Vertex, VertexId,
};
use bg3_storage::{
    AppendOnlyStore, CrashSwitch, PageAddr, RepairSupply, SharedMappingTable, StorageResult,
    StoreBuilder, StoreConfig,
};
use bg3_sync::{recover_tree, GroupCommit};
use bg3_wal::{Lsn, WalPayload, WalReader, WalRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which space-reclamation policy the engine's background GC runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPolicyKind {
    /// Traditional FIFO queue reclamation.
    Fifo,
    /// ArkDB-style highest-fragmentation-first (the Table 2 baseline).
    DirtyRatio,
    /// BG3's gradient + TTL policy (Algorithm 2).
    #[default]
    WorkloadAware,
}

/// Durable-mode knobs (WAL + group commit + crash recovery).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Group commit: checkpoint once this many pages are dirty across all
    /// trees (the paper's "accumulated dirty pages reach a specific
    /// threshold").
    pub group_commit_pages: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit_pages: 16,
        }
    }
}

/// Engine configuration.
#[derive(Clone)]
pub struct Bg3Config {
    /// Shared-store parameters.
    pub store: StoreConfig,
    /// Forest parameters (split-out threshold, per-tree Bw-tree knobs).
    pub forest: ForestConfig,
    /// GC policy for [`Bg3Db::run_gc_cycle`].
    pub gc_policy: GcPolicyKind,
    /// Maintain a reverse-adjacency index (`dst -> src` under
    /// [`EdgeType::reversed`]) so in-edge traversals (`g.V(x).in(...)`)
    /// are as cheap as out-edge ones. Doubles edge write volume.
    pub maintain_reverse_edges: bool,
    /// When set, the engine runs durably: every mutation is WAL-logged
    /// before it is acknowledged, page flushes defer to group commits, and
    /// [`Bg3Db::recover`] can rebuild the engine from the shared store and
    /// mapping table after a crash. `None` (the default) keeps the original
    /// synchronous-flush engine byte-for-byte identical.
    pub durability: Option<DurabilityConfig>,
}

impl Default for Bg3Config {
    fn default() -> Self {
        Bg3Config {
            store: StoreConfig::counting(),
            forest: ForestConfig::default(),
            gc_policy: GcPolicyKind::WorkloadAware,
            maintain_reverse_edges: false,
            durability: None,
        }
    }
}

impl Bg3Config {
    /// Sets the page-cache byte budget on the underlying store; `0`
    /// disables the cache (raw storage reads on every cold lookup).
    pub fn with_cache_capacity(mut self, bytes: usize) -> Self {
        self.store.cache = self.store.cache.with_capacity_bytes(bytes);
        self
    }

    /// Selects the storage backend (simulated in-memory vs. file-backed)
    /// for the underlying append-only store.
    pub fn with_backend(mut self, backend: bg3_storage::BackendKind) -> Self {
        self.store.backend = backend;
        self
    }

    /// Applies a TTL (simulated nanoseconds) to all edge data, as the
    /// Financial Risk Control workload requires.
    pub fn with_ttl_nanos(mut self, ttl: Option<u64>) -> Self {
        self.forest.tree_config = self.forest.tree_config.clone().with_ttl_nanos(ttl);
        self
    }

    /// Enables durable mode with default group-commit settings.
    pub fn with_durability(mut self) -> Self {
        self.durability = Some(DurabilityConfig::default());
        self
    }

    /// Enables durable mode with an explicit group-commit threshold.
    pub fn with_group_commit_pages(mut self, pages: usize) -> Self {
        self.durability = Some(DurabilityConfig {
            group_commit_pages: pages,
        });
        self
    }

    /// The forest config durable trees run with: the caller's knobs plus
    /// deferred flushing (the WAL carries durability).
    fn durable_forest_config(&self) -> ForestConfig {
        let mut forest = self.forest.clone();
        forest.tree_config = forest.tree_config.with_flush_mode(FlushMode::Deferred);
        forest
    }

    /// The durable vertex tree's config: default knobs with the forest's
    /// retry policy and deferred flushing.
    fn durable_vertex_config(&self) -> BwTreeConfig {
        BwTreeConfig::default()
            .with_flush_mode(FlushMode::Deferred)
            .with_retry(self.forest.tree_config.retry)
    }
}

/// Reserved tree id for the vertex table.
pub(crate) const VERTEX_TREE_ID: u32 = u32::MAX;

/// The BG3 graph database engine (single node).
pub struct Bg3Db {
    store: AppendOnlyStore,
    forest: Arc<BwTreeForest>,
    vertices: Arc<BwTree>,
    config: Bg3Config,
    /// The durable half (WAL, mapping table, staged publishes), shared with
    /// the GC router; `None` when running without durability.
    commit: Option<Arc<GroupCommit>>,
    /// Round-robin scrub position, shared across [`Bg3Db::run_scrub_cycle`]
    /// calls so successive cycles rotate through the sealed extents.
    scrub_cursor: bg3_gc::ScrubCursor,
}

impl Bg3Db {
    /// Opens an engine over a fresh store.
    pub fn new(config: Bg3Config) -> Self {
        let store = StoreBuilder::from_config(config.store.clone()).build();
        Self::with_store(store, config)
    }

    /// Opens an engine over an existing (possibly shared) store.
    pub fn with_store(store: AppendOnlyStore, config: Bg3Config) -> Self {
        if config.durability.is_none() {
            let forest = BwTreeForest::new(store.clone(), config.forest.clone());
            let vertices = BwTree::new(VERTEX_TREE_ID, store.clone(), BwTreeConfig::default());
            return Self::assemble(store, config, forest, vertices, None);
        }
        let commit = GroupCommit::create(&store, config.forest.tree_config.retry);
        let forest = BwTreeForest::with_listener(
            store.clone(),
            config.durable_forest_config(),
            commit.listener(),
        );
        let vertices = BwTree::with_listener(
            VERTEX_TREE_ID,
            store.clone(),
            config.durable_vertex_config(),
            commit.listener(),
        );
        Self::assemble(store, config, forest, vertices, Some(commit))
    }

    /// Rebuilds a durable engine after a crash, from the two pieces of
    /// state that survive an RW node's death: the shared store (pages +
    /// WAL) and the shared mapping table (the metadata service). The WAL
    /// stream is rescanned from storage, then `Bg3Db::from_log` rebuilds
    /// the engine from it.
    pub fn recover(
        store: AppendOnlyStore,
        mapping: SharedMappingTable,
        config: Bg3Config,
    ) -> StorageResult<Self> {
        let (commit, records) =
            GroupCommit::reopen(&store, mapping, config.forest.tree_config.retry)?;
        Self::from_log(store, config, commit, &records)
    }

    /// Assembles a durable engine from a reopened log: crash recovery and
    /// follower promotion both rebuild the leader here.
    ///
    /// `ForestSplitOut` commit records rebuild the forest directory (a
    /// split-out that crashed before its commit record leaves the INIT
    /// tree authoritative and its half-built tree an ignored orphan); each
    /// surviving tree is then recovered via `bg3-sync` from its mapped page
    /// images plus WAL replay past the last `CheckpointComplete` horizon.
    /// A split-out that crashed after its commit record is finished: the
    /// forest deletes the group's leftover INIT entries through the WAL.
    pub(crate) fn from_log(
        store: AppendOnlyStore,
        mut config: Bg3Config,
        commit: GroupCommit,
        records: &[WalRecord],
    ) -> StorageResult<Self> {
        config.durability = Some(config.durability.unwrap_or_default());
        let forest_config = config.durable_forest_config();
        let recover = |id: u32, tree_config: BwTreeConfig| {
            recover_tree(
                id,
                store.clone(),
                commit.mapping(),
                records,
                tree_config,
                commit.listener(),
            )
        };

        // Committed split-outs only; BTreeMap for deterministic recovery
        // order (reads charge I/O and advance the simulated clock).
        let mut directory_ids: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        for record in records {
            if let WalPayload::ForestSplitOut { group } = &record.payload {
                directory_ids.insert(group.clone(), record.tree as u32);
            }
        }
        let init = recover(INIT_TREE_ID, forest_config.tree_config.clone())?;
        let mut directory = Vec::with_capacity(directory_ids.len());
        for (group, id) in directory_ids {
            directory.push((group, recover(id, forest_config.tree_config.clone())?));
        }
        // Never reuse a forest tree id — orphans from crashed split-outs
        // still own WAL records under theirs.
        let next_tree_id = records
            .iter()
            .map(|r| r.tree)
            .filter(|&t| t < VERTEX_TREE_ID as u64)
            .max()
            .unwrap_or(INIT_TREE_ID as u64) as u32
            + 1;
        let forest = BwTreeForest::assemble(
            store.clone(),
            forest_config,
            Some(commit.listener()),
            init,
            directory,
            next_tree_id,
        )?;
        let vertices = recover(VERTEX_TREE_ID, config.durable_vertex_config())?;
        Ok(Self::assemble(
            store,
            config,
            forest,
            vertices,
            Some(commit),
        ))
    }

    /// The one place an engine is put together: durable engines share the
    /// forest's crash switch with their group commit and vertex tree.
    fn assemble(
        store: AppendOnlyStore,
        config: Bg3Config,
        forest: BwTreeForest,
        mut vertices: BwTree,
        commit: Option<GroupCommit>,
    ) -> Self {
        let commit = commit.map(|commit| {
            let commit = commit.with_crash_switch(forest.crash_switch().clone());
            commit.make_durable(&mut vertices);
            Arc::new(commit)
        });
        Bg3Db {
            store,
            forest: Arc::new(forest),
            vertices: Arc::new(vertices),
            config,
            commit,
            scrub_cursor: bg3_gc::ScrubCursor::default(),
        }
    }

    /// The shared store (I/O counters, clock).
    pub fn store(&self) -> &AppendOnlyStore {
        &self.store
    }

    /// The Bw-tree forest (structure inspection).
    pub fn forest(&self) -> &Arc<BwTreeForest> {
        &self.forest
    }

    /// The shared mapping table (durable mode only) — the handle a crash
    /// harness carries across restarts.
    pub fn mapping(&self) -> Option<&SharedMappingTable> {
        self.commit.as_deref().map(GroupCommit::mapping)
    }

    /// Last WAL LSN written (durable mode; [`Lsn::ZERO`] otherwise).
    pub fn last_lsn(&self) -> Lsn {
        self.commit
            .as_deref()
            .map_or(Lsn::ZERO, GroupCommit::last_lsn)
    }

    /// A reader at the start of the WAL (durable mode only): what a
    /// follower tails.
    pub fn open_wal_reader(&self) -> Option<WalReader> {
        self.commit
            .as_deref()
            .map(|commit| commit.wal().open_reader())
    }

    /// Pages dirtied since the last group commit, across every tree.
    pub(crate) fn dirty_pages(&self) -> usize {
        self.forest.dirty_count() + self.vertices.dirty_count()
    }

    /// The crash switch shared by the engine, its forest, and every tree.
    pub fn crash_switch(&self) -> &CrashSwitch {
        self.forest.crash_switch()
    }

    /// Flushes every dirty page across the forest and vertex trees,
    /// publishes the new addresses to the shared mapping table, and logs a
    /// `CheckpointComplete` horizon per affected tree. Durable mode only
    /// (a no-op returning [`Lsn::ZERO`] otherwise).
    pub fn checkpoint(&self) -> StorageResult<Lsn> {
        match &self.commit {
            Some(commit) => commit.checkpoint(&self.trees()),
            None => Ok(Lsn::ZERO),
        }
    }

    /// Every tree a checkpoint flushes: the forest's, sorted by id, then
    /// the vertex tree.
    fn trees(&self) -> Vec<Arc<BwTree>> {
        let mut trees = self.forest.all_trees();
        trees.push(Arc::clone(&self.vertices));
        trees
    }

    fn maybe_group_commit(&self) -> StorageResult<()> {
        let (Some(commit), Some(durability)) = (&self.commit, &self.config.durability) else {
            return Ok(());
        };
        commit.maybe_checkpoint(self.dirty_pages(), durability.group_commit_pages, || {
            self.trees()
        })
    }

    /// Refuses a write once a successor has sealed a newer epoch, before
    /// the write touches memory: the WAL would reject its record only after
    /// the tree had applied it. Durable mode only.
    fn check_fence(&self) -> StorageResult<()> {
        match &self.commit {
            Some(commit) => commit.wal().check_fence(),
            None => Ok(()),
        }
    }

    fn gc_router(&self) -> impl Fn(u64, PageAddr, PageAddr) {
        let forest = Arc::clone(&self.forest);
        let vertices = Arc::clone(&self.vertices);
        let commit = self.commit.clone();
        move |tag: u64, old, new| {
            if !forest.repair_relocated(tag, old, new) {
                let decoded = PageTag::decode(tag);
                if decoded.tree == VERTEX_TREE_ID {
                    vertices.repair_relocated(decoded.page_id(), old, new);
                }
            }
            // Durable mode: the metadata service, and addresses staged for
            // the next checkpoint, must follow the move too.
            if let Some(commit) = &commit {
                commit.relocate(tag, old, new);
            }
        }
    }

    /// The configured space-reclamation policy.
    fn policy(&self) -> Box<dyn ReclaimPolicy> {
        match self.config.gc_policy {
            GcPolicyKind::Fifo => Box::new(FifoPolicy),
            GcPolicyKind::DirtyRatio => Box::new(DirtyRatioPolicy),
            GcPolicyKind::WorkloadAware => Box::new(WorkloadAwarePolicy::default()),
        }
    }

    /// Runs one space-reclamation cycle with the configured policy, routing
    /// relocation fix-ups back into the forest's mapping tables. Returns
    /// the cycle report (moved bytes = write amplification). The engine's
    /// crash switch rides along, so arming [`CrashPoint::MidGcCycle`] kills
    /// the cycle mid-relocation.
    pub fn run_gc_cycle(&self, budget: usize) -> StorageResult<bg3_gc::CycleReport> {
        SpaceReclaimer::new(self.store.clone(), self.policy(), self.gc_router())
            .with_crash_switch(self.crash_switch().clone())
            .run_cycle(budget)
    }

    /// Reclaims until the page streams' utilization reaches `target` (or no
    /// further progress is possible) — the steady-state background GC loop
    /// a space-constrained deployment runs.
    pub fn reclaim_to_utilization(
        &self,
        target: f64,
        per_cycle: usize,
    ) -> StorageResult<bg3_gc::CycleReport> {
        SpaceReclaimer::new(self.store.clone(), self.policy(), self.gc_router())
            .reclaim_to_utilization(target, per_cycle)
    }

    /// The scrubber's repair source: re-encodes the record a tree still owns
    /// at `old` from its authoritative in-memory page image. Records no
    /// tree references — superseded copies, and orphans left by a crash
    /// between a flush and its mapping publish — are declared droppable:
    /// live reads only follow tree pointers, and recovery rebuilds any page
    /// whose mapped image is gone from its full WAL history.
    fn repair_source(&self) -> impl Fn(u64, PageAddr) -> RepairSupply {
        let forest = Arc::clone(&self.forest);
        let vertices = Arc::clone(&self.vertices);
        move |tag: u64, old: PageAddr| {
            if let Some(bytes) = forest.materialize_record(tag, old) {
                return RepairSupply::Payload(bytes);
            }
            let decoded = PageTag::decode(tag);
            if decoded.tree == VERTEX_TREE_ID {
                if let Some(bytes) = vertices.materialize_record(decoded.page_id(), old) {
                    return RepairSupply::Payload(bytes);
                }
            }
            RepairSupply::Drop
        }
    }

    /// Runs one background-scrub cycle: walks a slice of sealed extents,
    /// verifies every valid record's frame, quarantines extents with rot,
    /// and repairs them by re-materializing records from the in-memory
    /// trees before GC may drop the source extent. Relocation fix-ups route
    /// through the same pointer/mapping repair path as GC.
    pub fn run_scrub_cycle(&self) -> StorageResult<ScrubReport> {
        self.scrubber(ScrubConfig::default()).run_cycle()
    }

    /// Deep-scrubs until a full pass over every extent (open tails
    /// included) finds no corruption and leaves nothing quarantined — the
    /// fsck-style barrier run before handing the store to recovery or a
    /// promoted follower. Gives up after `max_passes` (repairs can keep
    /// failing if appends keep tearing under fault injection).
    pub fn scrub_until_clean(&self, max_passes: usize) -> StorageResult<ScrubReport> {
        let config = ScrubConfig {
            extents_per_cycle: usize::MAX,
            include_open: true,
        };
        let mut total = ScrubReport::default();
        for _ in 0..max_passes {
            let pass = self.scrubber(config).run_cycle()?;
            let clean = pass.corrupt_records == 0
                && pass.extents_quarantined == 0
                && pass.extents_unrepaired == 0;
            total.absorb(pass);
            if clean {
                break;
            }
        }
        Ok(total)
    }

    fn scrubber(
        &self,
        config: ScrubConfig,
    ) -> Scrubber<impl Fn(u64, PageAddr) -> RepairSupply, impl Fn(u64, PageAddr, PageAddr)> {
        Scrubber::new(self.store.clone(), self.repair_source(), self.gc_router())
            .with_config(config)
            .with_cursor(Arc::clone(&self.scrub_cursor))
    }
}

impl GraphStore for Bg3Db {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        self.check_fence()?;
        self.forest.put(
            &edge_group(edge.src, edge.etype),
            &edge_item(edge.dst),
            &edge.props,
        )?;
        if self.config.maintain_reverse_edges && !edge.etype.is_reverse() {
            self.forest.put(
                &edge_group(edge.dst, edge.etype.reversed()),
                &edge_item(edge.src),
                &[],
            )?;
        }
        self.maybe_group_commit()
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.forest.get(&edge_group(src, etype), &edge_item(dst))
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.check_fence()?;
        self.forest
            .delete(&edge_group(src, etype), &edge_item(dst))?;
        if self.config.maintain_reverse_edges && !etype.is_reverse() {
            self.forest
                .delete(&edge_group(dst, etype.reversed()), &edge_item(src))?;
        }
        self.maybe_group_commit()
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        // A one-element batch: scalar and batched expansion both go
        // through `BwTree::scan_prefix_batch` (and one set of scan-cost
        // metrics), so a single source is still served from the packed
        // CSR runs of sealed pages.
        let groups = [(0usize, edge_group_key(src, etype))];
        let mut out = Vec::new();
        let outcome = self
            .forest
            .scan_groups(&groups, limit, &mut |_, item, props| {
                if let Some(dst) = decode_dst(item) {
                    out.push((dst, props.to_vec()));
                }
                true
            });
        self.store
            .stats()
            .record_adjacency_scan(outcome.bytes_scanned, outcome.segments_scanned);
        // Ledger-only dimension: CSR fast-path hits have no global mirror.
        bg3_obs::span::charge(bg3_obs::CostDim::CsrHits, outcome.csr_hits);
        Ok(out)
    }

    fn neighbors_batch(
        &self,
        srcs: &[VertexId],
        etype: EdgeType,
        per_src_limit: usize,
        sink: &mut dyn bg3_graph::NeighborSink,
    ) -> StorageResult<()> {
        let groups: Vec<(usize, [u8; 10])> = srcs
            .iter()
            .enumerate()
            .map(|(i, &src)| (i, edge_group_key(src, etype)))
            .collect();
        let outcome =
            self.forest.scan_groups(
                &groups,
                per_src_limit,
                &mut |tag, item, props| match decode_dst(item) {
                    Some(dst) => sink.visit(tag, dst, props),
                    None => true,
                },
            );
        self.store
            .stats()
            .record_adjacency_scan(outcome.bytes_scanned, outcome.segments_scanned);
        bg3_obs::span::charge(bg3_obs::CostDim::CsrHits, outcome.csr_hits);
        Ok(())
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.check_fence()?;
        self.vertices.put(&vertex_key(vertex.id), &vertex.props)?;
        self.maybe_group_commit()
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.vertices.get(&vertex_key(id))
    }
}

impl std::fmt::Debug for Bg3Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bg3Db")
            .field("forest", &self.forest)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_graph::PropertyValue;

    fn db() -> Bg3Db {
        Bg3Db::new(Bg3Config::default())
    }

    #[test]
    fn neighbors_batch_matches_scalar_and_records_scan_metrics() {
        let mut config = Bg3Config::default();
        config.forest.split_out_threshold = 8;
        let db = Bg3Db::new(config);
        // Vertex 1 is a whale that splits out into a dedicated tree;
        // vertices 2..=5 stay INIT-resident, vertex 6 has no edges.
        for dst in 1..=20u64 {
            db.insert_edge(&Edge::new(
                VertexId(1),
                EdgeType::FOLLOW,
                VertexId(100 + dst),
            ))
            .unwrap();
        }
        for src in 2..=5u64 {
            for dst in 0..4u64 {
                db.insert_edge(&Edge::new(
                    VertexId(src),
                    EdgeType::FOLLOW,
                    VertexId(10 * src + dst),
                ))
                .unwrap();
            }
        }
        struct Collect(Vec<Vec<VertexId>>);
        impl bg3_graph::NeighborSink for Collect {
            fn visit(&mut self, src_idx: usize, dst: VertexId, _props: &[u8]) -> bool {
                self.0[src_idx].push(dst);
                true
            }
        }
        let srcs: Vec<VertexId> = (1..=6u64).map(VertexId).collect();
        let mut sink = Collect(vec![Vec::new(); srcs.len()]);
        db.neighbors_batch(&srcs, EdgeType::FOLLOW, usize::MAX, &mut sink)
            .unwrap();
        for (i, &src) in srcs.iter().enumerate() {
            let want: Vec<VertexId> = db
                .neighbors(src, EdgeType::FOLLOW, usize::MAX)
                .unwrap()
                .into_iter()
                .map(|(d, _)| d)
                .collect();
            assert_eq!(sink.0[i], want, "src {src:?}");
        }
        let metrics = db.store().metrics_snapshot();
        assert!(
            metrics
                .counter(bg3_obs::names::QUERY_SCAN_BYTES_TOTAL)
                .unwrap()
                > 0,
            "batched scan should account scanned bytes"
        );
        assert!(
            metrics
                .counter(bg3_obs::names::QUERY_CSR_SEGMENTS_SCANNED_TOTAL)
                .unwrap()
                > 0,
            "batched scan should count leaf segments"
        );
    }

    #[test]
    fn edge_round_trip() {
        let db = db();
        let e = Edge::new(VertexId(1), EdgeType::LIKE, VertexId(42))
            .with_props(PropertyValue::Int(170).encode());
        db.insert_edge(&e).unwrap();
        assert_eq!(
            db.get_edge(VertexId(1), EdgeType::LIKE, VertexId(42))
                .unwrap(),
            Some(PropertyValue::Int(170).encode())
        );
        assert_eq!(
            db.get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(42))
                .unwrap(),
            None
        );
        db.delete_edge(VertexId(1), EdgeType::LIKE, VertexId(42))
            .unwrap();
        assert_eq!(
            db.get_edge(VertexId(1), EdgeType::LIKE, VertexId(42))
                .unwrap(),
            None
        );
    }

    #[test]
    fn neighbors_sorted_by_dst() {
        let db = db();
        for dst in [9u64, 1, 5, 3] {
            db.insert_edge(&Edge::new(VertexId(7), EdgeType::FOLLOW, VertexId(dst)))
                .unwrap();
        }
        let n: Vec<u64> = db
            .neighbors(VertexId(7), EdgeType::FOLLOW, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(v, _)| v.0)
            .collect();
        assert_eq!(n, vec![1, 3, 5, 9]);
    }

    #[test]
    fn active_vertices_split_out_into_their_own_trees() {
        let mut config = Bg3Config::default();
        config.forest = config.forest.with_split_out_threshold(8);
        let db = Bg3Db::new(config);
        for dst in 0..20u64 {
            db.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(dst)))
                .unwrap();
        }
        assert!(db.forest().tree_count() > 1, "super-vertex split out");
        assert_eq!(
            db.neighbors(VertexId(1), EdgeType::LIKE, usize::MAX)
                .unwrap()
                .len(),
            20
        );
    }

    #[test]
    fn vertex_table_round_trip() {
        let db = db();
        db.insert_vertex(&Vertex {
            id: VertexId(5),
            props: b"user".to_vec(),
        })
        .unwrap();
        assert_eq!(db.get_vertex(VertexId(5)).unwrap(), Some(b"user".to_vec()));
        assert_eq!(db.get_vertex(VertexId(6)).unwrap(), None);
    }

    #[test]
    fn gc_cycle_runs_and_repairs_pointers() {
        let config = Bg3Config {
            store: StoreConfig::counting().with_extent_capacity(512),
            gc_policy: GcPolicyKind::DirtyRatio,
            ..Bg3Config::default()
        };
        let db = Bg3Db::new(config);
        // Overwrite the same edges repeatedly to generate garbage.
        for round in 0..20u64 {
            for dst in 0..10u64 {
                db.insert_edge(
                    &Edge::new(VertexId(1), EdgeType::LIKE, VertexId(dst))
                        .with_props(round.to_le_bytes().to_vec()),
                )
                .unwrap();
            }
        }
        let report = db.run_gc_cycle(8).unwrap();
        assert!(
            report.relocated_extents > 0 || report.expired_extents > 0,
            "something was reclaimed: {report:?}"
        );
        // Every edge still readable after relocation.
        for dst in 0..10u64 {
            assert_eq!(
                db.get_edge(VertexId(1), EdgeType::LIKE, VertexId(dst))
                    .unwrap(),
                Some(19u64.to_le_bytes().to_vec()),
                "edge {dst} survived GC"
            );
        }
    }

    #[test]
    fn scrub_repairs_silent_rot_from_in_memory_trees() {
        use bg3_storage::{ExtentState, StreamId, TraceKind};
        let config = Bg3Config {
            store: StoreConfig::counting().with_extent_capacity(512),
            ..Bg3Config::default()
        };
        let db = Bg3Db::new(config);
        for round in 0..20u64 {
            for dst in 0..10u64 {
                db.insert_edge(
                    &Edge::new(VertexId(1), EdgeType::LIKE, VertexId(dst))
                        .with_props(round.to_le_bytes().to_vec()),
                )
                .unwrap();
            }
        }
        // Flip a bit in a valid record that already lives in a sealed
        // extent — silent rot the read path would only see as a checksum
        // mismatch.
        let sealed: Vec<_> = db
            .store()
            .extent_infos(StreamId::BASE)
            .unwrap()
            .into_iter()
            .filter(|i| i.state == ExtentState::Sealed)
            .map(|i| i.id)
            .collect();
        assert!(!sealed.is_empty(), "workload sealed at least one extent");
        let victim = db
            .store()
            .scan_stream(StreamId::BASE)
            .unwrap()
            .into_iter()
            .map(|(addr, _, _)| addr)
            .find(|addr| sealed.contains(&addr.extent))
            .expect("a valid record in a sealed extent");
        db.store().corrupt_record_bit(victim, 9).unwrap();

        // Scrub until the round-robin cursor reaches the rotted extent.
        let mut report = ScrubReport::default();
        for _ in 0..8 {
            report.absorb(db.run_scrub_cycle().unwrap());
            if report.extents_repaired > 0 {
                break;
            }
        }
        assert_eq!(report.extents_quarantined, 1, "rot was quarantined");
        assert_eq!(report.extents_repaired, 1, "quarantine was repaired");
        assert_eq!(report.extents_unrepaired, 0, "{report:?}");

        // Quarantine precedes repair in the trace, and the engine still
        // serves every edge afterwards.
        let events = db.store().trace().events();
        let seq_of = |kind: TraceKind| {
            events
                .iter()
                .find(|e| e.kind == kind && e.subject == victim.extent.0)
                .map(|e| e.seq)
        };
        let quarantine = seq_of(TraceKind::ExtentQuarantine).expect("quarantine traced");
        let repair = seq_of(TraceKind::ExtentRepair).expect("repair traced");
        assert!(quarantine < repair, "quarantine before repair");
        for dst in 0..10u64 {
            assert_eq!(
                db.get_edge(VertexId(1), EdgeType::LIKE, VertexId(dst))
                    .unwrap(),
                Some(19u64.to_le_bytes().to_vec()),
                "edge {dst} survived scrub repair"
            );
        }
    }

    #[test]
    fn reverse_index_serves_in_edge_queries() {
        let config = Bg3Config {
            maintain_reverse_edges: true,
            ..Bg3Config::default()
        };
        let db = Bg3Db::new(config);
        for src in [10u64, 20, 30] {
            db.insert_edge(&Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(1)))
                .unwrap();
        }
        let followers: Vec<u64> = db
            .neighbors(VertexId(1), EdgeType::FOLLOW.reversed(), usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(v, _)| v.0)
            .collect();
        assert_eq!(followers, vec![10, 20, 30]);
        db.delete_edge(VertexId(20), EdgeType::FOLLOW, VertexId(1))
            .unwrap();
        assert_eq!(
            db.neighbors(VertexId(1), EdgeType::FOLLOW.reversed(), usize::MAX)
                .unwrap()
                .len(),
            2,
            "reverse index follows deletes"
        );
    }

    #[test]
    fn durable_engine_recovers_graph_after_crash() {
        let config = Bg3Config::default().with_group_commit_pages(4);
        let mut fc = config.forest.clone();
        fc = fc.with_split_out_threshold(8);
        let config = Bg3Config {
            forest: fc,
            ..config
        };
        let db = Bg3Db::new(config.clone());
        let store = db.store().clone();
        let mapping = db.mapping().unwrap().clone();
        // Enough edges on vertex 1 to force a split-out, plus scattered
        // edges and vertices; some writes land after the last checkpoint.
        for dst in 0..20u64 {
            db.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(dst)))
                .unwrap();
        }
        for src in 2..6u64 {
            db.insert_edge(&Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(1)))
                .unwrap();
            db.insert_vertex(&Vertex {
                id: VertexId(src),
                props: src.to_le_bytes().to_vec(),
            })
            .unwrap();
        }
        db.delete_edge(VertexId(1), EdgeType::LIKE, VertexId(7))
            .unwrap();
        assert!(db.forest().tree_count() > 1, "split-out happened");
        drop(db); // crash: only the store and mapping survive

        let recovered = Bg3Db::recover(store, mapping, config).unwrap();
        assert!(recovered.forest().tree_count() > 1, "directory rebuilt");
        for dst in 0..20u64 {
            let expect = dst != 7;
            assert_eq!(
                recovered
                    .get_edge(VertexId(1), EdgeType::LIKE, VertexId(dst))
                    .unwrap()
                    .is_some(),
                expect,
                "edge 1->{dst}"
            );
        }
        assert_eq!(
            recovered
                .neighbors(VertexId(1), EdgeType::LIKE, usize::MAX)
                .unwrap()
                .len(),
            19
        );
        for src in 2..6u64 {
            assert_eq!(
                recovered.get_vertex(VertexId(src)).unwrap(),
                Some(src.to_le_bytes().to_vec())
            );
            assert!(recovered
                .get_edge(VertexId(src), EdgeType::FOLLOW, VertexId(1))
                .unwrap()
                .is_some());
        }
        // The recovered engine keeps working durably.
        recovered
            .insert_edge(&Edge::new(VertexId(9), EdgeType::LIKE, VertexId(1)))
            .unwrap();
        assert!(recovered.last_lsn().0 > 0);
    }

    #[test]
    fn dropped_mapping_publish_never_advances_the_horizon() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // The first mapping publish is silently dropped by the metadata
        // service; the engine must not log a checkpoint horizon for pages
        // the mapping cannot resolve, and must re-publish them later.
        let plan = FaultPlan::seeded(3).with_rule(
            FaultRule::new(FaultOp::MappingPublish, FaultKind::PublishDrop, 1.0).at_most(1),
        );
        let config = Bg3Config {
            store: StoreConfig::counting().with_faults(plan),
            ..Bg3Config::default().with_group_commit_pages(usize::MAX)
        };
        let db = Bg3Db::new(config.clone());
        db.insert_vertex(&Vertex {
            id: VertexId(1),
            props: b"v".to_vec(),
        })
        .unwrap();
        db.checkpoint().unwrap();
        let mapping = db.mapping().unwrap();
        assert!(mapping.snapshot().is_empty(), "publish was dropped");
        // No CheckpointComplete may exist: recovery must replay the WAL.
        let (_, records) = bg3_wal::WalWriter::recover(db.store().clone()).unwrap();
        assert!(records
            .iter()
            .all(|r| !matches!(r.payload, WalPayload::CheckpointComplete { .. })));
        // The stashed batch publishes on the next checkpoint, and the
        // vertex tree's horizon advances with it although nothing flushed.
        db.checkpoint().unwrap();
        assert!(!mapping.snapshot().is_empty(), "pending batch re-published");
        let (_, records) = bg3_wal::WalWriter::recover(db.store().clone()).unwrap();
        assert!(
            records.iter().any(|r| r.tree == VERTEX_TREE_ID as u64
                && matches!(r.payload, WalPayload::CheckpointComplete { .. })),
            "a staged-only publish logs the vertex tree's horizon"
        );
        let recovered = Bg3Db::recover(db.store().clone(), mapping.clone(), config).unwrap();
        assert_eq!(
            recovered.get_vertex(VertexId(1)).unwrap(),
            Some(b"v".to_vec())
        );
    }

    /// A durable engine with cold reads (read cache off) whose dedicated
    /// tree for vertex 1 carries a live merged delta in a sealed DELTA
    /// extent, next to garbage: vertex 2's superseded deltas. Returns the
    /// engine, the delta's mapping key and its address.
    fn durable_db_with_sealed_live_delta() -> (Bg3Db, u64, PageAddr) {
        use bg3_storage::{ExtentState, StreamId};
        let mut config = Bg3Config {
            store: StoreConfig::counting().with_extent_capacity(512),
            gc_policy: GcPolicyKind::DirtyRatio,
            ..Bg3Config::default().with_group_commit_pages(usize::MAX)
        };
        config.forest = config.forest.with_split_out_threshold(4);
        config.forest.tree_config = config.forest.tree_config.with_read_cache(false);
        let db = Bg3Db::new(config);
        let edge = |src: u64, dst: u64, round: u64| {
            Edge::new(VertexId(src), EdgeType::LIKE, VertexId(dst))
                .with_props(round.to_le_bytes().to_vec())
        };
        for src in [1, 2] {
            for dst in 0..12 {
                db.insert_edge(&edge(src, dst, 0)).unwrap();
            }
        }
        db.checkpoint().unwrap();
        db.insert_edge(&edge(1, 0, 1)).unwrap();
        db.checkpoint().unwrap();
        let mapping = db.mapping().unwrap().clone();
        let deltas: Vec<(u64, PageAddr)> = mapping
            .snapshot()
            .entries()
            .filter(|(key, _)| {
                let tag = PageTag::decode(*key);
                tag.page != tag.page_id()
            })
            .collect();
        assert_eq!(deltas.len(), 1, "vertex 1's page flushed one delta");
        let (key, addr) = deltas[0];
        // Vertex 2's page merges a new delta per checkpoint, invalidating
        // the last, until vertex 1's delta sits in a sealed extent.
        for round in 1..20 {
            db.insert_edge(&edge(2, 0, round)).unwrap();
            db.checkpoint().unwrap();
        }
        let sealed = db
            .store()
            .extent_infos(StreamId::DELTA)
            .unwrap()
            .into_iter()
            .any(|i| i.id == addr.extent && i.state == ExtentState::Sealed);
        assert!(sealed, "the live delta's extent sealed");
        assert_eq!(mapping.get(key), Some(addr), "delta still current");
        (db, key, addr)
    }

    fn assert_delta_graph(db: &Bg3Db) {
        for (src, dst, round) in [(1, 0, 1u64), (1, 5, 0), (2, 0, 19), (2, 11, 0)] {
            assert_eq!(
                db.get_edge(VertexId(src), EdgeType::LIKE, VertexId(dst))
                    .unwrap(),
                Some(round.to_le_bytes().to_vec()),
                "edge {src}->{dst}"
            );
        }
    }

    #[test]
    fn gc_moving_a_delta_extent_repoints_the_page_and_its_mapping_entry() {
        use bg3_storage::StreamId;
        let (db, key, old) = durable_db_with_sealed_live_delta();
        let report = db.run_gc_cycle(64).unwrap();
        assert!(report.relocated_extents > 0, "{report:?}");
        assert!(
            !db.store()
                .extent_infos(StreamId::DELTA)
                .unwrap()
                .iter()
                .any(|i| i.id == old.extent),
            "the delta's old extent was reclaimed"
        );
        let mapping = db.mapping().unwrap().clone();
        let new = mapping.get(key).expect("delta still mapped");
        assert_ne!(new.extent, old.extent, "mapping delta entry moved");
        // Cold reads go through the tree's own `delta_addrs`: they only
        // succeed if the relocation reached it too.
        assert_delta_graph(&db);
        let store = db.store().clone();
        let config = db.config.clone();
        drop(db);
        assert_delta_graph(&Bg3Db::recover(store, mapping, config).unwrap());
    }

    #[test]
    fn scrub_repairs_a_rotted_delta_from_the_durable_delta() {
        let (db, key, old) = durable_db_with_sealed_live_delta();
        db.store().corrupt_record_bit(old, 9).unwrap();
        let mut report = ScrubReport::default();
        for _ in 0..16 {
            report.absorb(db.run_scrub_cycle().unwrap());
            if report.extents_repaired > 0 {
                break;
            }
        }
        assert_eq!(report.extents_repaired, 1, "{report:?}");
        assert!(report.records_resupplied > 0, "{report:?}");
        let mapping = db.mapping().unwrap().clone();
        let new = mapping.get(key).expect("delta still mapped");
        assert_ne!(new, old, "repair re-homed the delta");
        let ops = bg3_bwtree::decode_delta(&db.store().read(new).unwrap()).unwrap();
        assert_eq!(ops.len(), 1, "re-encoded from the durable delta");
        assert_delta_graph(&db);
        let store = db.store().clone();
        let config = db.config.clone();
        drop(db);
        assert_delta_graph(&Bg3Db::recover(store, mapping, config).unwrap());
    }

    #[test]
    fn ttl_config_reaches_storage() {
        let config = Bg3Config::default().with_ttl_nanos(Some(1_000));
        let db = Bg3Db::new(config);
        db.insert_edge(&Edge::new(VertexId(1), EdgeType::TRANSFER, VertexId(2)))
            .unwrap();
        let infos = db
            .store()
            .extent_infos(bg3_storage::StreamId::BASE)
            .unwrap();
        assert!(infos.iter().any(|i| i.ttl_deadline.is_some()));
    }

    /// A durable engine that group-commits only when told to.
    fn leader() -> Bg3Db {
        Bg3Db::new(Bg3Config::default().with_group_commit_pages(usize::MAX))
    }

    fn edge(src: u64, dst: u64) -> Edge {
        Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(dst))
    }

    fn wal_records(db: &Bg3Db) -> Vec<bg3_wal::WalRecord> {
        db.open_wal_reader().unwrap().fetch_new().unwrap()
    }

    #[test]
    fn a_cold_reading_engine_reads_its_own_unflushed_writes() {
        let mut config = Bg3Config::default().with_group_commit_pages(usize::MAX);
        config.forest.tree_config = config.forest.tree_config.with_read_cache(false);
        let db = Bg3Db::new(config);
        let e = edge(1, 2).with_props(vec![7]);
        db.insert_edge(&e).unwrap();
        assert_eq!(db.get_edge(e.src, e.etype, e.dst).unwrap(), Some(vec![7]));
        db.delete_edge(e.src, e.etype, e.dst).unwrap();
        assert_eq!(db.get_edge(e.src, e.etype, e.dst).unwrap(), None);
    }

    #[test]
    fn writes_log_before_data_flush() {
        let db = leader();
        db.insert_edge(&edge(1, 2)).unwrap();
        assert_eq!(db.last_lsn(), Lsn(1));
        let valid = |stream| db.store().stream_stats(stream).unwrap().valid_bytes;
        assert!(
            valid(bg3_storage::StreamId::WAL) > 0,
            "WAL written synchronously"
        );
        assert_eq!(valid(bg3_storage::StreamId::BASE), 0, "page flush deferred");
        assert_eq!(
            db.get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
                .unwrap(),
            Some(vec![])
        );
    }

    #[test]
    fn checkpoint_flushes_publishes_and_logs() {
        let db = leader();
        db.insert_edge(&edge(1, 2)).unwrap();
        db.insert_edge(&edge(1, 3)).unwrap();
        assert_eq!(db.checkpoint().unwrap(), Lsn(2));
        assert!(!db.mapping().unwrap().snapshot().is_empty(), "published");
        // One horizon, for the one tree with dirty pages, follows the
        // covered LSNs.
        let records = wal_records(&db);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].tree, INIT_TREE_ID as u64);
        assert!(matches!(
            records[2].payload,
            WalPayload::CheckpointComplete {
                upto: 2,
                mapping_version: 1
            }
        ));
    }

    #[test]
    fn group_commit_triggers_on_dirty_threshold() {
        let mut config = Bg3Config::default().with_group_commit_pages(2);
        config.forest.tree_config = config
            .forest
            .tree_config
            .with_max_page_entries(4)
            .with_consolidate_threshold(2);
        let db = Bg3Db::new(config);
        for dst in 0..64u64 {
            db.insert_edge(&edge(1, dst)).unwrap();
        }
        assert!(
            db.mapping().unwrap().snapshot().version() > 0,
            "auto group commit published at least once"
        );
        assert!(db.dirty_pages() < 2, "dirty set drained");
    }

    #[test]
    fn mid_group_commit_crash_flushes_but_never_publishes() {
        let db = leader();
        db.insert_edge(&edge(1, 2)).unwrap();
        db.crash_switch()
            .arm(bg3_storage::CrashPoint::MidGroupCommit);
        assert!(db.checkpoint().unwrap_err().is_crash());
        // The page image landed on the base stream, but nothing was
        // published and no horizon was logged, so recovery would replay
        // the WAL from the start.
        let base = db.store().stream_stats(bg3_storage::StreamId::BASE);
        assert!(
            base.unwrap().valid_bytes > 0,
            "flush happened before the crash"
        );
        assert!(db.mapping().unwrap().snapshot().is_empty(), "no publish");
        assert!(wal_records(&db)
            .iter()
            .all(|r| !matches!(r.payload, WalPayload::CheckpointComplete { .. })));
    }

    #[test]
    fn wal_appends_retry_through_transient_faults() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule, StreamId};
        // Every WAL append fails twice before succeeding; the writer's
        // retry policy absorbs it so writes never observe an error.
        let plan = FaultPlan::seeded(7).with_rule(
            FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0)
                .on_stream(StreamId::WAL)
                .at_most(2),
        );
        let db = Bg3Db::new(Bg3Config {
            store: StoreConfig::counting().with_faults(plan),
            ..Bg3Config::default().with_durability()
        });
        db.insert_edge(&edge(1, 2)).unwrap();
        assert_eq!(db.last_lsn(), Lsn(1));
        assert_eq!(db.store().fault_injector().total_fired(), 2);
        assert!(db
            .get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
            .unwrap()
            .is_some());
    }

    #[test]
    fn checkpoint_of_clean_engine_logs_no_horizon() {
        let db = leader();
        db.insert_edge(&edge(1, 2)).unwrap();
        db.checkpoint().unwrap();
        let mapping = db.mapping().unwrap();
        let version = mapping.snapshot().version();
        let mut reader = db.open_wal_reader().unwrap();
        reader.fetch_new().unwrap();
        db.checkpoint().unwrap(); // nothing dirty
        assert_eq!(mapping.snapshot().version(), version, "no spurious publish");
        assert!(
            reader.fetch_new().unwrap().is_empty(),
            "a checkpoint that publishes nothing logs no horizon"
        );
    }

    #[test]
    fn sealed_epoch_turns_the_leader_into_a_fenced_zombie() {
        let db = leader();
        db.insert_edge(&edge(1, 2)).unwrap();
        db.insert_vertex(&Vertex {
            id: VertexId(1),
            props: b"v".to_vec(),
        })
        .unwrap();
        let mapping = db.mapping().unwrap();
        // A successor seals the next epoch (what promotion does).
        mapping.seal_epoch(mapping.epoch() + 1).unwrap();
        // Every write is refused before it touches memory...
        let entries = db.forest().total_entries();
        let lsn = db.last_lsn();
        assert!(db.insert_edge(&edge(1, 3)).unwrap_err().is_fenced());
        assert!(db
            .delete_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
            .unwrap_err()
            .is_fenced());
        let zombie = Vertex {
            id: VertexId(2),
            props: b"z".to_vec(),
        };
        assert!(db.insert_vertex(&zombie).unwrap_err().is_fenced());
        assert_eq!(db.forest().total_entries(), entries, "forest untouched");
        assert_eq!(
            db.get_vertex(VertexId(2)).unwrap(),
            None,
            "vertices untouched"
        );
        assert_eq!(db.last_lsn(), lsn, "nothing logged");
        // ...and so is a checkpoint (a fenced publish attempt).
        assert!(db.checkpoint().unwrap_err().is_fenced());
        let fence = mapping.fence().snapshot();
        assert_eq!(fence.rejected_appends, 3);
        assert!(fence.rejected_publishes >= 1);
        // Reads on the zombie still work (stale but local).
        assert!(db
            .get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
            .unwrap()
            .is_some());
        assert_eq!(db.get_vertex(VertexId(1)).unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn recovery_from_every_prefix_of_a_split_out_reads_each_logged_edge_once() {
        use bg3_forest::keys::{decode_composite, group_prefix};
        // The fourth edge of source 1 crosses the threshold and splits the
        // group out: four INIT upserts, four copies, the commit record and
        // four INIT deletes, in an order this test does not assume.
        let config = Bg3Config {
            forest: ForestConfig::default().with_split_out_threshold(3),
            ..Bg3Config::default().with_group_commit_pages(usize::MAX)
        };
        let group = edge_group(VertexId(1), EdgeType::FOLLOW);
        let write = || {
            let db = Bg3Db::new(config.clone());
            for dst in 0..4 {
                db.insert_edge(&edge(1, dst)).unwrap();
            }
            assert!(db.forest().dedicated_tree(&group).is_some());
            let mapping = db.mapping().unwrap().clone();
            (db.store().clone(), mapping, wal_records(&db))
        };
        let records = write().2;
        let init = INIT_TREE_ID as u64;
        for k in 0..=records.len() {
            let prefix = &records[..k];
            let logged: Vec<VertexId> = prefix
                .iter()
                .filter_map(|r| match &r.payload {
                    WalPayload::Upsert { key, .. } if r.tree == init => {
                        Some(decode_dst(decode_composite(key)?.1)?)
                    }
                    _ => None,
                })
                .collect();
            let deleted = prefix
                .iter()
                .filter(|r| r.tree == init && matches!(r.payload, WalPayload::Delete { .. }))
                .count();
            let (store, mapping, _) = write();
            let (commit, all) =
                GroupCommit::reopen(&store, mapping, config.forest.tree_config.retry).unwrap();
            let db = Bg3Db::from_log(store, config.clone(), commit, prefix).unwrap();

            let served: Vec<VertexId> = db
                .neighbors(VertexId(1), EdgeType::FOLLOW, usize::MAX)
                .unwrap()
                .into_iter()
                .map(|(dst, _)| dst)
                .collect();
            assert_eq!(served, logged, "prefix {k}: each logged edge exactly once");
            let in_init = db
                .forest()
                .init_tree()
                .scan_prefix(&group_prefix(&group), usize::MAX)
                .len();
            if db.forest().dedicated_tree(&group).is_some() {
                assert_eq!(in_init, 0, "prefix {k}: committed group left in INIT");
                assert_eq!(
                    db.last_lsn().0 as usize,
                    all.len() + logged.len() - deleted,
                    "prefix {k}: leftovers are deleted through the WAL"
                );
            } else {
                assert_eq!(in_init, logged.len(), "prefix {k}: INIT authoritative");
            }
        }
    }
}
