//! The forest itself.

use crate::keys::{decode_composite, group_prefix, push_group_prefix, GroupRoute};
use bg3_bwtree::{
    BatchVisitor, BwTree, BwTreeConfig, Entries, ScanOutcome, TreeEvent, TreeEventListener,
};
use bg3_storage::{AppendOnlyStore, CrashPoint, CrashSwitch, StorageResult, TraceKind};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Tree id reserved for the INIT tree in every forest.
pub const INIT_TREE_ID: u32 = 0;

/// Forest tuning knobs.
#[derive(Clone)]
pub struct ForestConfig {
    /// A group is split out into a dedicated tree once its edge count in the
    /// INIT tree crosses this threshold. §4.3.2 sweeps this to control the
    /// total number of trees. `usize::MAX` disables split-out (single-tree
    /// forest).
    pub split_out_threshold: usize,
    /// When the INIT tree holds more total entries than this, the group with
    /// the most edges is evicted into a dedicated tree.
    pub init_tree_max_entries: usize,
    /// Lock stripes for the directory and per-group counters. Groups are
    /// hash-partitioned across stripes, so writers on distinct vertex
    /// groups contend only when they collide on a stripe. Clamped to at
    /// least 1.
    pub stripes: usize,
    /// Configuration applied to every tree in the forest.
    pub tree_config: BwTreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            split_out_threshold: 64,
            init_tree_max_entries: 1 << 20,
            stripes: 16,
            tree_config: BwTreeConfig::default(),
        }
    }
}

impl ForestConfig {
    /// Builder-style setter for the split-out threshold.
    pub fn with_split_out_threshold(mut self, threshold: usize) -> Self {
        self.split_out_threshold = threshold;
        self
    }

    /// Builder-style setter for the INIT-tree size limit.
    pub fn with_init_tree_max_entries(mut self, max: usize) -> Self {
        self.init_tree_max_entries = max;
        self
    }

    /// Builder-style setter for the lock-stripe count.
    pub fn with_stripes(mut self, stripes: usize) -> Self {
        self.stripes = stripes;
        self
    }
}

/// Point-in-time statistics of a forest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestStatsSnapshot {
    /// Dedicated trees created so far (excludes INIT).
    pub dedicated_trees: u64,
    /// Groups split out due to their own edge count.
    pub threshold_split_outs: u64,
    /// Groups evicted because the INIT tree grew too large.
    pub init_evictions: u64,
}

/// One lock stripe: the slice of the group directory and of the INIT-tree
/// edge counters whose groups hash here. One `RwLock` covers both maps so
/// a group's routing decision and its counter always agree.
#[derive(Default)]
struct Stripe {
    /// group → dedicated tree.
    directory: HashMap<Vec<u8>, Arc<BwTree>>,
    /// Edge counts of groups still resident in the INIT tree.
    init_counts: HashMap<Vec<u8>, usize>,
}

/// The Space-Optimized Bw-tree Forest (Fig. 3, right side).
///
/// Directory state is lock-striped: groups are hash-partitioned across
/// `config.stripes` independent `RwLock`s, so `put`/`get`/`scan_group` on
/// distinct vertex groups proceed without contending on a global lock.
/// Cross-stripe aggregates (`total_entries`, `all_trees`, …) snapshot each
/// stripe's `Arc<BwTree>` list briefly and do the summing outside any
/// lock.
pub struct BwTreeForest {
    store: AppendOnlyStore,
    config: ForestConfig,
    listener: Option<Arc<dyn TreeEventListener>>,
    init: Arc<BwTree>,
    /// Chaos hook: [`CrashPoint::MidSplit`] fires inside `split_out` after
    /// the copy but before the split commits. Disarmed by default.
    crash: CrashSwitch,
    stripes: Vec<RwLock<Stripe>>,
    next_tree_id: AtomicU32,
    threshold_split_outs: AtomicU64,
    init_evictions: AtomicU64,
    /// INIT entries of committed split-outs whose delete the WAL refused.
    /// Reads route past them, so they are not counted; the next recovery
    /// deletes them.
    init_leftovers: AtomicU64,
}

impl BwTreeForest {
    /// Creates an empty forest.
    pub fn new(store: AppendOnlyStore, config: ForestConfig) -> Self {
        Self::build(store, config, None)
    }

    /// Creates an empty forest whose trees all report to `listener`.
    pub fn with_listener(
        store: AppendOnlyStore,
        config: ForestConfig,
        listener: Arc<dyn TreeEventListener>,
    ) -> Self {
        Self::build(store, config, Some(listener))
    }

    fn build(
        store: AppendOnlyStore,
        config: ForestConfig,
        listener: Option<Arc<dyn TreeEventListener>>,
    ) -> Self {
        let crash = CrashSwitch::new();
        let init = Arc::new(Self::make_tree(
            INIT_TREE_ID,
            &store,
            &config.tree_config,
            listener.as_ref(),
            &crash,
        ));
        let stripes = (0..config.stripes.max(1))
            .map(|_| RwLock::new(Stripe::default()))
            .collect();
        BwTreeForest {
            store,
            config,
            listener,
            init,
            crash,
            stripes,
            next_tree_id: AtomicU32::new(INIT_TREE_ID + 1),
            threshold_split_outs: AtomicU64::new(0),
            init_evictions: AtomicU64::new(0),
            init_leftovers: AtomicU64::new(0),
        }
    }

    /// Reassembles a forest from recovered trees (crash recovery).
    ///
    /// `directory` maps each committed split-out group to its recovered
    /// dedicated tree; `next_tree_id` must exceed every tree id ever
    /// logged — *including* orphans from crashed split-outs — so ids are
    /// never reused. Per-group INIT edge counts are rebuilt by scanning the
    /// recovered INIT tree; the split-out/eviction counters restart at zero
    /// (they count activity since this handle opened).
    ///
    /// The same scan finishes split-outs a crash interrupted after their
    /// commit record: INIT entries of a committed group are deleted
    /// (through `init`'s listener, so the deletes are logged) and not
    /// counted.
    pub fn assemble(
        store: AppendOnlyStore,
        config: ForestConfig,
        listener: Option<Arc<dyn TreeEventListener>>,
        mut init: BwTree,
        directory: Vec<(Vec<u8>, BwTree)>,
        next_tree_id: u32,
    ) -> StorageResult<Self> {
        let crash = CrashSwitch::new();
        init.set_crash_switch(crash.clone());
        let stripe_count = config.stripes.max(1);
        let mut stripes: Vec<Stripe> = (0..stripe_count).map(|_| Stripe::default()).collect();
        for (group, mut tree) in directory {
            tree.set_crash_switch(crash.clone());
            stripes[Self::stripe_index(&group, stripe_count)]
                .directory
                .insert(group, Arc::new(tree));
        }
        let mut leftovers = Vec::new();
        for (composite, _) in init.scan_range(None, None, usize::MAX) {
            if let Some((group, _)) = decode_composite(&composite) {
                let stripe = &mut stripes[Self::stripe_index(group, stripe_count)];
                if stripe.directory.contains_key(group) {
                    leftovers.push(composite);
                } else {
                    *stripe.init_counts.entry(group.to_vec()).or_insert(0) += 1;
                }
            }
        }
        for composite in &leftovers {
            init.delete(composite)?;
        }
        Ok(BwTreeForest {
            store,
            config,
            listener,
            init: Arc::new(init),
            crash,
            stripes: stripes.into_iter().map(RwLock::new).collect(),
            next_tree_id: AtomicU32::new(next_tree_id),
            threshold_split_outs: AtomicU64::new(0),
            init_evictions: AtomicU64::new(0),
            init_leftovers: AtomicU64::new(0),
        })
    }

    fn make_tree(
        id: u32,
        store: &AppendOnlyStore,
        cfg: &BwTreeConfig,
        listener: Option<&Arc<dyn TreeEventListener>>,
        crash: &CrashSwitch,
    ) -> BwTree {
        let mut tree = match listener {
            Some(l) => BwTree::with_listener(id, store.clone(), cfg.clone(), Arc::clone(l)),
            None => BwTree::new(id, store.clone(), cfg.clone()),
        };
        tree.set_crash_switch(crash.clone());
        tree
    }

    /// The forest's configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// The crash switch shared by the forest and every tree it creates.
    /// Clones share arming state, so arm through this accessor to kill the
    /// forest at [`CrashPoint::MidSplit`] or its trees at
    /// [`CrashPoint::MidFlush`].
    pub fn crash_switch(&self) -> &CrashSwitch {
        &self.crash
    }

    /// Deterministic group → stripe routing, shared by `build`/`assemble`.
    fn stripe_index(group: &[u8], stripes: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        group.hash(&mut h);
        (h.finish() as usize) % stripes
    }

    /// The stripe owning `group`.
    fn stripe_of(&self, group: &[u8]) -> &RwLock<Stripe> {
        &self.stripes[Self::stripe_index(group, self.stripes.len())]
    }

    /// Snapshot of every dedicated tree, taken stripe by stripe. Callers
    /// aggregate over the returned `Arc`s without holding any stripe lock.
    fn dedicated_trees(&self) -> Vec<Arc<BwTree>> {
        let mut trees = Vec::new();
        for stripe in &self.stripes {
            trees.extend(stripe.read().directory.values().cloned());
        }
        trees
    }

    /// The dedicated tree for `group`, if it has one.
    pub fn dedicated_tree(&self, group: &[u8]) -> Option<Arc<BwTree>> {
        self.stripe_of(group).read().directory.get(group).cloned()
    }

    /// Where `group`'s entries live.
    fn route<'g>(&self, group: &'g [u8]) -> GroupRoute<'g, Arc<BwTree>> {
        GroupRoute::new(group, self.dedicated_tree(group))
    }

    /// The INIT tree (exposed for inspection and benchmarks).
    pub fn init_tree(&self) -> &Arc<BwTree> {
        &self.init
    }

    /// Inserts or overwrites `(group, item) -> value`.
    pub fn put(&self, group: &[u8], item: &[u8], value: &[u8]) -> StorageResult<()> {
        let route = self.route(group);
        route.tree(&self.init).put(&route.key(item), value)?;
        if let GroupRoute::Dedicated(_) = route {
            return Ok(());
        }
        let group_count = {
            let mut stripe = self.stripe_of(group).write();
            let c = stripe.init_counts.entry(group.to_vec()).or_insert(0);
            *c += 1;
            *c
        };
        if group_count > self.config.split_out_threshold {
            self.split_out(group, false)?;
        } else if self.init_entries() > self.config.init_tree_max_entries {
            // Evict the heaviest group to keep INIT queries fast. Each
            // stripe nominates its local maximum under a read lock; the
            // final pick happens outside any lock.
            let heaviest = self
                .stripes
                .iter()
                .filter_map(|s| {
                    s.read()
                        .init_counts
                        .iter()
                        .max_by_key(|(_, &c)| c)
                        .map(|(g, &c)| (g.clone(), c))
                })
                .max_by_key(|(_, c)| *c)
                .map(|(g, _)| g);
            if let Some(g) = heaviest {
                self.split_out(&g, true)?;
            }
        }
        Ok(())
    }

    /// Moves every `group` edge from the INIT tree into a fresh dedicated
    /// tree with truncated keys (§3.2.1, Fig. 3: Bw-tree (A)).
    fn split_out(&self, group: &[u8], eviction: bool) -> StorageResult<()> {
        // Only the owning stripe is write-locked for the duration of the
        // split: writers on other stripes keep going.
        let mut stripe = self.stripe_of(group).write();
        if stripe.directory.contains_key(group) {
            return Ok(()); // another writer raced us here
        }
        let id = self.next_tree_id.fetch_add(1, Ordering::Relaxed);
        let tree = Arc::new(Self::make_tree(
            id,
            &self.store,
            &self.config.tree_config,
            self.listener.as_ref(),
            &self.crash,
        ));
        let prefix = group_prefix(group);
        let moved = self.init.scan_prefix(&prefix, usize::MAX);
        for (composite, value) in &moved {
            let (_, item) = decode_composite(composite).expect("forest wrote this key");
            tree.put(item, value)?;
        }
        // Chaos hook: die after the copy but before the commit — the INIT
        // tree still holds every entry, and the half-built tree is an
        // orphan recovery ignores (no `ForestSplitOut` record was logged).
        self.crash.fire(CrashPoint::MidSplit)?;
        // Commit record: logged after the copy and before any INIT delete,
        // so every prefix of the log holds the whole group in the INIT
        // tree, in the committed dedicated tree, or in both.
        if let Some(listener) = &self.listener {
            listener.on_event(
                id as u64,
                &TreeEvent::ForestSplitOut {
                    group: group.to_vec(),
                },
            )?;
        }
        stripe.directory.insert(group.to_vec(), tree);
        stripe.init_counts.remove(group);
        // Reads now route to the dedicated tree, so the INIT copies are
        // unreachable. The split-out has committed: a delete the WAL
        // refuses does not fail the write, and the copies it leaves are
        // not counted; recovery deletes them, as it does after a crash.
        for (composite, _) in &moved {
            if self.init.delete(composite).is_err() {
                let left = self.init.scan_prefix(&prefix, usize::MAX).len();
                self.init_leftovers
                    .fetch_add(left as u64, Ordering::Relaxed);
                break;
            }
        }
        drop(stripe);
        self.store.trace().emit(
            self.store.clock().now().0,
            TraceKind::TreeSplitOut,
            id as u64,
            moved.len() as u64,
        );
        if eviction {
            self.init_evictions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.threshold_split_outs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, group: &[u8], item: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        let route = self.route(group);
        route.tree(&self.init).get(&route.key(item))
    }

    /// Deletes one edge.
    pub fn delete(&self, group: &[u8], item: &[u8]) -> StorageResult<()> {
        let route = self.route(group);
        route.tree(&self.init).delete(&route.key(item))?;
        if let GroupRoute::Init(_) = route {
            let mut stripe = self.stripe_of(group).write();
            if let Some(c) = stripe.init_counts.get_mut(group) {
                *c = c.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// All `(item, value)` pairs of `group`, in item order, up to `limit`.
    /// This is the adjacency-list scan behind one-hop neighbor queries.
    pub fn scan_group(&self, group: &[u8], limit: usize) -> Entries {
        let route = self.route(group);
        route.into_items(route.tree(&self.init).scan_prefix(&route.prefix(), limit))
    }

    /// Batched adjacency scan over many groups at once — the vectorized
    /// fast path behind frontier expansion.
    ///
    /// `groups` is a list of `(caller tag, group bytes)` pairs. For every
    /// edge of each group whose item is a fixed 8-byte tail (the graph
    /// layer's big-endian `dst` encoding), `visit(tag, item, value)` is
    /// called in item order; returning `false` ends that group early. At
    /// most `per_group_limit` edges are emitted per group. Items of any
    /// other width are skipped — this entry point exists for the edge
    /// encoding, not for arbitrary forest values.
    ///
    /// Groups resident in the INIT tree are sorted by composite prefix and
    /// scanned in **one** batched pass, so groups sharing a leaf page
    /// touch that segment once (see [`ScanOutcome::segments_scanned`]);
    /// requests that repeat the same split-out group are coalesced into a
    /// single batched scan of its dedicated tree. Sealed pages are
    /// served from their packed CSR segments; pages with buffered deltas
    /// are streamed by a two-way merge of base and pending ops that
    /// copies only the entries it emits.
    pub fn scan_groups<G: AsRef<[u8]>>(
        &self,
        groups: &[(usize, G)],
        per_group_limit: usize,
        visit: &mut BatchVisitor<'_>,
    ) -> ScanOutcome {
        let mut outcome = ScanOutcome::default();
        // INIT-resident groups' composite prefixes, written back to back
        // into one buffer in request order, as `(tag, start, end)` spans.
        let prefix_len: usize = groups.iter().map(|(_, g)| 2 + g.as_ref().len()).sum();
        let mut prefix_bytes = Vec::with_capacity(prefix_len);
        let mut init_spans: Vec<(usize, usize, usize)> = Vec::with_capacity(groups.len());
        // Frontier batches routinely repeat hot groups (power-law graphs
        // revisit the same whales every hop), so requests against the same
        // dedicated tree are coalesced into one batched scan: the tree's
        // leaves are walked once and each requesting tag replays from the
        // shared segment instead of re-scanning it. A dedicated tree
        // stores bare items, so its requests carry an empty prefix.
        type DedicatedBatch<'a> = BTreeMap<&'a [u8], (Arc<BwTree>, Vec<(usize, [u8; 0])>)>;
        let mut dedicated: DedicatedBatch<'_> = BTreeMap::new();
        for (tag, group) in groups {
            match self.route(group.as_ref()) {
                GroupRoute::Dedicated(tree) => {
                    dedicated
                        .entry(group.as_ref())
                        .or_insert_with(|| (tree, Vec::new()))
                        .1
                        .push((*tag, []));
                }
                GroupRoute::Init(group) => {
                    let start = prefix_bytes.len();
                    push_group_prefix(&mut prefix_bytes, group);
                    init_spans.push((*tag, start, prefix_bytes.len()));
                }
            }
        }
        for (_, (tree, requests)) in dedicated {
            outcome.absorb(tree.scan_prefix_batch(&requests, per_group_limit, visit));
        }
        if !init_spans.is_empty() {
            // Composite prefixes sort exactly like their groups (the
            // length prefix keeps groups from interleaving), so one sorted
            // pass walks the INIT tree's leaves monotonically. Spans start
            // in request order, so equal prefixes keep it.
            init_spans.sort_unstable_by(|&(_, a, a_end), &(_, b, b_end)| {
                prefix_bytes[a..a_end]
                    .cmp(&prefix_bytes[b..b_end])
                    .then(a.cmp(&b))
            });
            let init_resident: Vec<(usize, &[u8])> = init_spans
                .iter()
                .map(|&(tag, start, end)| (tag, &prefix_bytes[start..end]))
                .collect();
            outcome.absorb(
                self.init
                    .scan_prefix_batch(&init_resident, per_group_limit, visit),
            );
        }
        outcome
    }

    /// Number of edges stored for `group`.
    pub fn group_len(&self, group: &[u8]) -> usize {
        let route = self.route(group);
        route
            .tree(&self.init)
            .scan_prefix(&route.prefix(), usize::MAX)
            .len()
    }

    /// Total trees in the forest, including INIT.
    pub fn tree_count(&self) -> usize {
        1 + self
            .stripes
            .iter()
            .map(|s| s.read().directory.len())
            .sum::<usize>()
    }

    /// Total dirty pages across every tree (the group-commit trigger input
    /// for a durable node running deferred flushes). The tree list is
    /// snapshotted once; the per-tree counting runs with no stripe locked.
    pub fn dirty_count(&self) -> usize {
        let trees = self.dedicated_trees();
        self.init.dirty_count() + trees.iter().map(|t| t.dirty_count()).sum::<usize>()
    }

    /// Every tree in the forest, sorted by tree id (INIT first). For
    /// maintenance passes that must visit each tree deterministically,
    /// e.g. group-commit flushes.
    pub fn all_trees(&self) -> Vec<Arc<BwTree>> {
        let mut trees = self.dedicated_trees();
        trees.push(Arc::clone(&self.init));
        trees.sort_by_key(|t| t.id());
        trees
    }

    /// Total edges across all trees. Snapshots the `Arc<BwTree>` list once
    /// and aggregates outside the stripe locks — `entry_count` takes each
    /// tree's own lock, and holding a directory lock across that walk
    /// would serialize every concurrent writer.
    pub fn total_entries(&self) -> usize {
        let trees = self.dedicated_trees();
        self.init_entries() + trees.iter().map(|t| t.entry_count()).sum::<usize>()
    }

    /// Live INIT entries, without a committed split-out's leftovers.
    fn init_entries(&self) -> usize {
        self.init.entry_count() - self.init_leftovers.load(Ordering::Relaxed) as usize
    }

    /// Estimated memory footprint: every tree's footprint plus the hash
    /// directory. This is the "space cost" axis of Fig. 11 — many small
    /// trees pay per-tree overhead.
    pub fn memory_footprint(&self) -> usize {
        let mut directory = 0usize;
        let mut trees = Vec::new();
        for stripe in &self.stripes {
            let guard = stripe.read();
            directory += guard
                .directory
                .keys()
                .map(|g| g.len() + 80) // key + Arc + table slot
                .sum::<usize>();
            trees.extend(guard.directory.values().cloned());
        }
        self.init.memory_footprint()
            + trees.iter().map(|t| t.memory_footprint()).sum::<usize>()
            + directory
    }

    /// Counters describing the forest's structural activity.
    pub fn stats(&self) -> ForestStatsSnapshot {
        ForestStatsSnapshot {
            dedicated_trees: self
                .stripes
                .iter()
                .map(|s| s.read().directory.len() as u64)
                .sum(),
            threshold_split_outs: self.threshold_split_outs.load(Ordering::Relaxed),
            init_evictions: self.init_evictions.load(Ordering::Relaxed),
        }
    }

    /// The shared store backing this forest.
    pub fn store(&self) -> &AppendOnlyStore {
        &self.store
    }

    /// Routes a relocation fix-up from the space reclaimer to the right
    /// tree. `tag` is the `bg3_bwtree::PageTag` the record carried; a
    /// delta's tag routes to its page with the delta bit stripped.
    pub fn repair_relocated(
        &self,
        tag: u64,
        old: bg3_storage::PageAddr,
        new: bg3_storage::PageAddr,
    ) -> bool {
        let decoded = bg3_bwtree::PageTag::decode(tag);
        if decoded.tree == INIT_TREE_ID {
            return self.init.repair_relocated(decoded.page_id(), old, new);
        }
        self.dedicated_trees()
            .iter()
            .find(|t| t.id() == decoded.tree)
            .is_some_and(|t| t.repair_relocated(decoded.page_id(), old, new))
    }

    /// Routes a scrubber resupply request to the owning tree: re-encodes
    /// the record `tag` kept at `old`, if this forest still owns that slot.
    pub fn materialize_record(&self, tag: u64, old: bg3_storage::PageAddr) -> Option<Vec<u8>> {
        let decoded = bg3_bwtree::PageTag::decode(tag);
        if decoded.tree == INIT_TREE_ID {
            return self.init.materialize_record(decoded.page_id(), old);
        }
        self.dedicated_trees()
            .iter()
            .find(|t| t.id() == decoded.tree)
            .and_then(|t| t.materialize_record(decoded.page_id(), old))
    }
}

impl std::fmt::Debug for BwTreeForest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BwTreeForest")
            .field("trees", &self.tree_count())
            .field("entries", &self.total_entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::{StoreBuilder, StoreConfig};

    fn forest(threshold: usize) -> BwTreeForest {
        BwTreeForest::new(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            ForestConfig::default().with_split_out_threshold(threshold),
        )
    }

    #[test]
    fn put_get_before_split_out() {
        let f = forest(100);
        f.put(b"userA", b"video1", b"t=1").unwrap();
        f.put(b"userB", b"video1", b"t=2").unwrap();
        assert_eq!(f.get(b"userA", b"video1").unwrap(), Some(b"t=1".to_vec()));
        assert_eq!(f.get(b"userB", b"video1").unwrap(), Some(b"t=2".to_vec()));
        assert_eq!(f.get(b"userC", b"video1").unwrap(), None);
        assert_eq!(f.tree_count(), 1, "everyone lives in INIT");
    }

    #[test]
    fn active_group_splits_out_and_keeps_data() {
        let f = forest(10);
        for i in 0..25u32 {
            f.put(b"userA", format!("video{i:03}").as_bytes(), b"x")
                .unwrap();
        }
        // userA crossed the threshold → dedicated tree.
        assert!(f.dedicated_tree(b"userA").is_some());
        assert_eq!(f.tree_count(), 2);
        assert_eq!(f.group_len(b"userA"), 25);
        for i in 0..25u32 {
            assert_eq!(
                f.get(b"userA", format!("video{i:03}").as_bytes()).unwrap(),
                Some(b"x".to_vec())
            );
        }
        // INIT no longer holds userA's edges.
        assert_eq!(f.init_tree().entry_count(), 0);
        assert_eq!(f.stats().threshold_split_outs, 1);
    }

    #[test]
    fn ordinary_groups_stay_in_init() {
        let f = forest(10);
        for u in 0..50u32 {
            let user = format!("user{u:03}");
            for v in 0..3u32 {
                f.put(user.as_bytes(), format!("v{v}").as_bytes(), b"x")
                    .unwrap();
            }
        }
        assert_eq!(f.tree_count(), 1, "3 edges each: nobody splits out");
        assert_eq!(f.total_entries(), 150);
    }

    #[test]
    fn dedicated_tree_uses_truncated_keys() {
        let f = forest(2);
        for i in 0..5u32 {
            f.put(b"heavy_user_with_long_id", format!("v{i}").as_bytes(), b"x")
                .unwrap();
        }
        let tree = f.dedicated_tree(b"heavy_user_with_long_id").unwrap();
        let entries = tree.scan_range(None, None, usize::MAX);
        // Keys are bare item ids — no group prefix.
        assert!(entries.iter().all(|(k, _)| k.starts_with(b"v")));
    }

    #[test]
    fn init_tree_eviction_kicks_out_heaviest_group() {
        let f = BwTreeForest::new(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            ForestConfig::default()
                .with_split_out_threshold(usize::MAX)
                .with_init_tree_max_entries(10),
        );
        for i in 0..8u32 {
            f.put(b"whale", format!("v{i}").as_bytes(), b"x").unwrap();
        }
        for i in 0..3u32 {
            f.put(b"minnow", format!("v{i}").as_bytes(), b"x").unwrap();
        }
        // 11 entries > 10 → the whale (8 edges) gets evicted.
        assert!(f.dedicated_tree(b"whale").is_some());
        assert!(f.dedicated_tree(b"minnow").is_none());
        assert_eq!(f.stats().init_evictions, 1);
        assert_eq!(f.group_len(b"whale"), 8);
        assert_eq!(f.group_len(b"minnow"), 3);
    }

    #[test]
    fn scan_group_is_ordered_and_limited() {
        let f = forest(100);
        for i in (0..10u32).rev() {
            f.put(
                b"u",
                format!("item{i}").as_bytes(),
                format!("{i}").as_bytes(),
            )
            .unwrap();
        }
        let scan = f.scan_group(b"u", usize::MAX);
        assert_eq!(scan.len(), 10);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(f.scan_group(b"u", 4).len(), 4);
        // After split-out the scan result is identical.
        let f2 = forest(5);
        for i in (0..10u32).rev() {
            f2.put(
                b"u",
                format!("item{i}").as_bytes(),
                format!("{i}").as_bytes(),
            )
            .unwrap();
        }
        assert!(f2.dedicated_tree(b"u").is_some());
        assert_eq!(f2.scan_group(b"u", usize::MAX), scan);
    }

    #[test]
    fn scan_groups_matches_scan_group_across_tiers() {
        // 8-byte items (the edge encoding): "whale" splits out, the rest
        // stay in INIT; one batched call must agree with per-group scans.
        let f = forest(6);
        for d in 0..10u64 {
            f.put(b"whale", &d.to_be_bytes(), b"W").unwrap();
        }
        for u in 0..5u32 {
            let group = format!("user{u}");
            for d in 0..3u64 {
                f.put(group.as_bytes(), &(d * 7).to_be_bytes(), b"v")
                    .unwrap();
            }
        }
        assert!(f.dedicated_tree(b"whale").is_some());
        let mut groups: Vec<(usize, Vec<u8>)> = vec![(0, b"whale".to_vec())];
        for u in 0..5u32 {
            groups.push((1 + u as usize, format!("user{u}").into_bytes()));
        }
        let mut got: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); groups.len()];
        let outcome = f.scan_groups(&groups, usize::MAX, &mut |tag, item, value| {
            got[tag].push((u64::from_be_bytes(item.try_into().unwrap()), value.to_vec()));
            true
        });
        for (tag, group) in &groups {
            let want: Vec<(u64, Vec<u8>)> = f
                .scan_group(group, usize::MAX)
                .into_iter()
                .map(|(k, v)| (u64::from_be_bytes(k.as_slice().try_into().unwrap()), v))
                .collect();
            assert_eq!(got[*tag], want, "group {tag} agrees with scan_group");
        }
        // Five INIT-resident groups share one small tree: far fewer
        // segments than groups.
        assert!(outcome.segments_scanned < groups.len() as u64 + 1);

        // Per-group limit caps each group independently.
        let mut counts = vec![0usize; groups.len()];
        f.scan_groups(&groups, 2, &mut |tag, _, _| {
            counts[tag] += 1;
            true
        });
        assert_eq!(counts, vec![2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn delete_works_in_both_tiers() {
        let f = forest(3);
        f.put(b"small", b"v1", b"x").unwrap();
        f.delete(b"small", b"v1").unwrap();
        assert_eq!(f.get(b"small", b"v1").unwrap(), None);

        for i in 0..6u32 {
            f.put(b"big", format!("v{i}").as_bytes(), b"x").unwrap();
        }
        assert!(f.dedicated_tree(b"big").is_some());
        f.delete(b"big", b"v0").unwrap();
        assert_eq!(f.get(b"big", b"v0").unwrap(), None);
        assert_eq!(f.group_len(b"big"), 5);
    }

    #[test]
    fn groups_are_isolated() {
        let f = forest(4);
        for i in 0..8u32 {
            f.put(b"a", format!("v{i}").as_bytes(), b"from-a").unwrap();
        }
        f.put(b"b", b"v0", b"from-b").unwrap();
        assert_eq!(f.get(b"b", b"v0").unwrap(), Some(b"from-b".to_vec()));
        assert_eq!(f.get(b"a", b"v0").unwrap(), Some(b"from-a".to_vec()));
        assert_eq!(f.scan_group(b"b", usize::MAX).len(), 1);
    }

    #[test]
    fn memory_footprint_reflects_tree_count() {
        // Mirrors Fig. 11: same data, more trees → more memory.
        let few = forest(usize::MAX);
        let many = forest(1);
        for u in 0..50u32 {
            let user = format!("user{u:03}");
            for v in 0..4u32 {
                let item = format!("v{v}");
                few.put(user.as_bytes(), item.as_bytes(), b"x").unwrap();
                many.put(user.as_bytes(), item.as_bytes(), b"x").unwrap();
            }
        }
        assert_eq!(few.tree_count(), 1);
        assert_eq!(many.tree_count(), 51);
        assert!(
            many.memory_footprint() > few.memory_footprint(),
            "per-tree overhead dominates: {} vs {}",
            many.memory_footprint(),
            few.memory_footprint()
        );
        assert_eq!(few.total_entries(), many.total_entries());
    }

    #[test]
    fn mid_split_crash_leaves_init_tree_authoritative() {
        let f = forest(10);
        for i in 0..10u32 {
            f.put(b"userA", format!("v{i:02}").as_bytes(), b"x")
                .unwrap();
        }
        f.crash_switch().arm(CrashPoint::MidSplit);
        // The 11th put crosses the threshold and dies mid-split-out.
        let err = f.put(b"userA", b"v10", b"x").unwrap_err();
        assert!(err.is_crash());
        // Nothing committed: no dedicated tree, INIT still holds the group
        // (including the put that was logged before the split began).
        assert!(f.dedicated_tree(b"userA").is_none());
        assert_eq!(f.group_len(b"userA"), 11);
        assert_eq!(f.stats().threshold_split_outs, 0);
        // The switch disarmed itself: the next write completes the split.
        f.put(b"userA", b"v11", b"x").unwrap();
        assert!(f.dedicated_tree(b"userA").is_some());
        assert_eq!(f.group_len(b"userA"), 12);
    }

    #[test]
    fn split_out_commit_event_follows_every_copy_and_precedes_every_delete() {
        use bg3_bwtree::RecordingListener;
        let rec = RecordingListener::new();
        let f = BwTreeForest::with_listener(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            ForestConfig::default().with_split_out_threshold(3),
            rec.clone(),
        );
        for i in 0..4u32 {
            f.put(b"hot", format!("v{i}").as_bytes(), b"x").unwrap();
        }
        let tree_id = f.dedicated_tree(b"hot").unwrap().id();
        let events = rec.drain();
        let commit = events
            .iter()
            .position(|(_, e)| matches!(e, TreeEvent::ForestSplitOut { group } if group == b"hot"))
            .expect("split-out commit logged");
        assert_eq!(events[commit].0, tree_id as u64, "tagged with the new tree");
        let copies: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].0 == tree_id as u64 && i != commit)
            .collect();
        let deletes: Vec<usize> = (0..events.len())
            .filter(
                |&i| matches!(events[i], (t, TreeEvent::Delete { .. }) if t == INIT_TREE_ID as u64),
            )
            .collect();
        assert_eq!((copies.len(), deletes.len()), (4, 4), "{events:?}");
        assert!(
            copies.iter().all(|&c| c < commit) && deletes.iter().all(|&d| d > commit),
            "commit record follows every copy and precedes every delete: {events:?}"
        );
    }

    #[test]
    fn single_stripe_forest_behaves_identically() {
        // stripes=1 degenerates to the old global-lock layout; every
        // operation must still work (routing, split-out, aggregates).
        let f = BwTreeForest::new(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            ForestConfig::default()
                .with_split_out_threshold(4)
                .with_stripes(1),
        );
        for u in 0..10u32 {
            let user = format!("user{u}");
            for v in 0..6u32 {
                f.put(user.as_bytes(), format!("v{v}").as_bytes(), b"x")
                    .unwrap();
            }
        }
        assert_eq!(f.stats().dedicated_trees, 10);
        assert_eq!(f.total_entries(), 60);
        assert_eq!(f.all_trees().len(), 11);
        for u in 0..10u32 {
            assert_eq!(f.group_len(format!("user{u}").as_bytes()), 6);
        }
    }

    #[test]
    fn zero_stripes_clamps_to_one() {
        let f = BwTreeForest::new(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            ForestConfig::default().with_stripes(0),
        );
        f.put(b"g", b"i", b"v").unwrap();
        assert_eq!(f.get(b"g", b"i").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn concurrent_writers_on_distinct_groups() {
        let f = Arc::new(forest(16));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                let group = format!("user{t}");
                for i in 0..100u32 {
                    f.put(group.as_bytes(), format!("v{i:03}").as_bytes(), b"x")
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.total_entries(), 800);
        assert_eq!(f.stats().dedicated_trees, 8, "every writer crossed 16");
        for t in 0..8u32 {
            assert_eq!(f.group_len(format!("user{t}").as_bytes()), 100);
        }
    }
}
