//! A replicated BG3 deployment: one durable [`Bg3Db`] leader and N RO
//! followers on one shared store, with heartbeat-driven failover.
//!
//! This is the topology of the synchronization experiments (§4.5) and of
//! the availability story on top of it: graph writes land on the leader,
//! followers tail its WAL and serve strongly consistent reads, and a
//! coordinator that detects leader death through missed heartbeats on the
//! virtual clock promotes the most caught-up follower on the next epoch
//! while reads keep being served (stale-flagged) through the outage.
//!
//! The leader runs with split-out off, so its forest is one INIT tree plus
//! the vertex tree: followers read edges from the INIT tree by composite
//! key and vertices from the vertex tree. They do not follow
//! `ForestSplitOut` yet. The log gives them a consistent cut to follow (the
//! commit record comes after the copy and before the INIT deletes), but a
//! follower would still have to route a committed group's reads to its
//! dedicated tree and skip the INIT leftovers.

use crate::bg3db::{Bg3Config, Bg3Db, VERTEX_TREE_ID};
use bg3_forest::keys::{composite_key, decode_composite, group_prefix};
use bg3_forest::INIT_TREE_ID;
use bg3_graph::{
    decode_dst, edge_group, edge_item, vertex_key, Edge, EdgeType, GraphStore, Vertex, VertexId,
};
use bg3_storage::{
    AppendOnlyStore, EpochFenceSnapshot, MetricsSnapshot, SharedMappingTable, SimInstant,
    StorageError, StorageOp, StorageResult, StoreBuilder, TraceBuffer, TraceKind,
};
use bg3_sync::{RoNode, RoNodeConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deployment parameters.
#[derive(Clone)]
pub struct ReplicatedConfig {
    /// Leader parameters, store included; reused for every promoted
    /// successor. The deployment turns durability on (if unset) and
    /// split-out off.
    pub leader: Bg3Config,
    /// Number of read-only followers.
    pub ro_nodes: usize,
    /// Follower parameters (reused when followers are rebuilt).
    pub ro: RoNodeConfig,
    /// Virtual time without an acknowledged leader write before the
    /// coordinator declares the leader dead and promotes. Models the missed
    /// group-commit heartbeat of a lease-based detector.
    pub heartbeat_timeout_nanos: u64,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig {
            leader: Bg3Config::default(),
            ro_nodes: 1,
            ro: RoNodeConfig::default(),
            heartbeat_timeout_nanos: 50_000_000, // 50ms of virtual time
        }
    }
}

/// What one coordinator tick observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverTick {
    /// A leader is installed and has heartbeated within the timeout.
    Healthy,
    /// No usable leader, but the detection window has not elapsed yet;
    /// followers keep serving stale-flagged reads.
    Waiting {
        /// Virtual nanoseconds since the last acknowledged leader write.
        waited_nanos: u64,
    },
    /// The most caught-up follower was promoted onto `epoch`.
    Promoted {
        /// The new leadership epoch the fence now accepts.
        epoch: u64,
    },
}

/// Counters describing a deployment's failovers so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FailoverStatsSnapshot {
    /// The leadership epoch currently accepted by the store.
    pub epoch: u64,
    /// Completed promotions.
    pub failovers: u64,
    /// Reads served while flagged (possibly) stale — availability through
    /// outages.
    pub stale_reads_served: u64,
    /// WAL records past the promoting follower's `seen_lsn` replayed during
    /// promotions.
    pub promotion_replay_records: u64,
    /// The store-side fence counters (seals, rejected zombie publishes and
    /// appends).
    pub fence: EpochFenceSnapshot,
}

struct State {
    leader: Option<Arc<Bg3Db>>,
    followers: Vec<Arc<RoNode>>,
    /// Virtual instant of the last acknowledged leader write (edge, vertex
    /// or checkpoint): the group-commit heartbeat.
    last_heartbeat: SimInstant,
}

/// One durable leader and N followers sharing a store.
///
/// The coordinator never blocks reads: during an outage followers keep
/// serving from their caches and the adopted mapping version, flagged stale
/// so clients (and the stats) know the leader's final writes may be
/// missing. Writes during an outage fail fast with
/// [`bg3_storage::ErrorKind::NoLeader`].
pub struct ReplicatedBg3 {
    store: AppendOnlyStore,
    mapping: SharedMappingTable,
    config: ReplicatedConfig,
    state: Mutex<State>,
    failovers: AtomicU64,
    /// Stale reads and promotion replays from follower generations that
    /// were already torn down (followers are rebuilt after each promotion).
    retired_stale_reads: AtomicU64,
    retired_promotion_replays: AtomicU64,
}

impl ReplicatedBg3 {
    /// Builds the deployment: a fresh leader plus `ro_nodes` followers.
    pub fn new(mut config: ReplicatedConfig) -> Self {
        let leader = &mut config.leader;
        leader.durability.get_or_insert_with(Default::default);
        leader.forest.split_out_threshold = usize::MAX;
        leader.forest.init_tree_max_entries = usize::MAX;
        let store = StoreBuilder::from_config(leader.store.clone()).build();
        let leader = Bg3Db::with_store(store.clone(), leader.clone());
        let mapping = leader.mapping().expect("a durable leader").clone();
        let followers = Self::build_followers(&store, &leader, &config);
        let last_heartbeat = store.clock().now();
        ReplicatedBg3 {
            store,
            mapping,
            config,
            state: Mutex::new(State {
                leader: Some(Arc::new(leader)),
                followers,
                last_heartbeat,
            }),
            failovers: AtomicU64::new(0),
            retired_stale_reads: AtomicU64::new(0),
            retired_promotion_replays: AtomicU64::new(0),
        }
    }

    fn build_followers(
        store: &AppendOnlyStore,
        leader: &Bg3Db,
        config: &ReplicatedConfig,
    ) -> Vec<Arc<RoNode>> {
        let mapping = leader.mapping().expect("a durable leader");
        (0..config.ro_nodes)
            .map(|_| {
                Arc::new(RoNode::new(
                    store.clone(),
                    mapping.clone(),
                    leader.open_wal_reader().expect("a durable leader"),
                    config.ro.clone(),
                ))
            })
            .collect()
    }

    /// The shared store (clock, I/O counters, fence counters).
    pub fn store(&self) -> &AppendOnlyStore {
        &self.store
    }

    /// The current leader, if one is installed.
    pub fn leader(&self) -> Option<Arc<Bg3Db>> {
        self.state.lock().leader.clone()
    }

    /// Follower `idx` of the current generation.
    pub fn ro(&self, idx: usize) -> Arc<RoNode> {
        self.state.lock().followers[idx].clone()
    }

    /// Number of followers.
    pub fn ro_count(&self) -> usize {
        self.state.lock().followers.len()
    }

    /// Runs `write` on the leader; each acknowledged write doubles as the
    /// leader's heartbeat. Fails with `NoLeader` during an outage.
    fn write(&self, write: impl FnOnce(&Bg3Db) -> StorageResult<()>) -> StorageResult<()> {
        let leader = self
            .leader()
            .ok_or_else(|| StorageError::no_leader(StorageOp::Append))?;
        write(&leader)?;
        self.state.lock().last_heartbeat = self.store.clock().now();
        Ok(())
    }

    /// Inserts an edge on the leader.
    pub fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        self.write(|db| db.insert_edge(edge))
    }

    /// Deletes an edge on the leader (TTL-churn expiry).
    pub fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.write(|db| db.delete_edge(src, etype, dst))
    }

    /// Inserts a vertex on the leader.
    pub fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.write(|db| db.insert_vertex(vertex))
    }

    /// Forces a leader group commit + mapping publish (also a heartbeat).
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.write(|db| db.checkpoint().map(drop))
    }

    /// Dirty (not yet group-committed) pages on the leader — the WAL
    /// group-commit depth the write-admission throttle keys off.
    pub fn dirty_pages(&self) -> usize {
        self.leader().map_or(0, |db| db.dirty_pages())
    }

    /// Fetches one edge's properties from follower `idx`.
    pub fn ro_get_edge(
        &self,
        idx: usize,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        let key = composite_key(&edge_group(src, etype), &edge_item(dst));
        self.ro(idx).get(INIT_TREE_ID as u64, &key)
    }

    /// Verifies an edge on follower `idx` (the risk-control reconciliation
    /// read).
    pub fn ro_check_edge(
        &self,
        idx: usize,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<bool> {
        Ok(self.ro_get_edge(idx, src, etype, dst)?.is_some())
    }

    /// Fetches a vertex's properties from follower `idx`.
    pub fn ro_get_vertex(&self, idx: usize, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.ro(idx).get(VERTEX_TREE_ID as u64, &vertex_key(id))
    }

    /// One-hop neighbors with edge properties, served by follower `idx` —
    /// the adjacency read behind the governed engine's traversal view.
    pub fn ro_neighbors(
        &self,
        idx: usize,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        let prefix = group_prefix(&edge_group(src, etype));
        let mut end = prefix.clone();
        // Prefix successor (group keys are never all-0xFF).
        for i in (0..end.len()).rev() {
            if end[i] != 0xFF {
                end[i] += 1;
                end.truncate(i + 1);
                break;
            }
        }
        let hits =
            self.ro(idx)
                .scan_range(INIT_TREE_ID as u64, Some(&prefix), Some(&end), limit)?;
        Ok(hits
            .into_iter()
            .filter_map(|(k, v)| {
                decode_composite(&k)
                    .and_then(|(_, item)| decode_dst(item))
                    .map(|dst| (dst, v))
            })
            .collect())
    }

    /// Lets every follower of the current generation tail the WAL. Returns
    /// total records consumed.
    pub fn poll_all(&self) -> StorageResult<usize> {
        let followers = self.state.lock().followers.clone();
        let mut total = 0;
        for ro in &followers {
            total += ro.poll()?;
        }
        Ok(total)
    }

    /// Recall on follower `idx` for a set of edges the leader wrote: the
    /// Fig. 12 metric. BG3's WAL-through-storage design keeps this at 1.0.
    pub fn recall(
        &self,
        idx: usize,
        edges: &[(VertexId, EdgeType, VertexId)],
    ) -> StorageResult<f64> {
        if edges.is_empty() {
            return Ok(1.0);
        }
        let mut hit = 0usize;
        for &(src, etype, dst) in edges {
            if self.ro_check_edge(idx, src, etype, dst)? {
                hit += 1;
            }
        }
        Ok(hit as f64 / edges.len() as f64)
    }

    /// Simulates a leader crash: removes the leader from routing (returning
    /// the handle so chaos experiments can resurrect it as a zombie) and
    /// flags every follower stale. Detection still waits for the heartbeat
    /// timeout — [`ReplicatedBg3::tick`] promotes only after the window
    /// elapses.
    pub fn kill_leader(&self) -> Option<Arc<Bg3Db>> {
        let mut state = self.state.lock();
        let zombie = state.leader.take();
        if zombie.is_some() {
            for ro in &state.followers {
                ro.set_serving_stale(true);
            }
        }
        zombie
    }

    /// One coordinator heartbeat check on the virtual clock.
    ///
    /// * Leader installed and fresh → [`FailoverTick::Healthy`].
    /// * Leader installed but silent past the timeout → it is deposed (a
    ///   lease-style detector cannot distinguish hung from dead) and the
    ///   tick falls through to promotion.
    /// * No leader and the window has not elapsed → [`FailoverTick::Waiting`]
    ///   (followers keep serving stale reads).
    /// * Window elapsed → elect the most caught-up follower, promote it on
    ///   the next epoch, rebuild the follower generation from the new
    ///   leader, clear stale flags.
    pub fn tick(&self) -> StorageResult<FailoverTick> {
        let mut state = self.state.lock();
        let waited = self
            .store
            .clock()
            .now()
            .duration_since(state.last_heartbeat);
        if state.leader.is_some() {
            if waited < self.config.heartbeat_timeout_nanos {
                return Ok(FailoverTick::Healthy);
            }
            // Silent leader: depose it before promoting a successor. The
            // fence — not this routing change — is what makes the deposed
            // node harmless if it was merely slow.
            state.leader = None;
            for ro in &state.followers {
                ro.set_serving_stale(true);
            }
        }
        if waited < self.config.heartbeat_timeout_nanos {
            return Ok(FailoverTick::Waiting {
                waited_nanos: waited,
            });
        }
        self.promote_locked(&mut state)
    }

    fn promote_locked(&self, state: &mut State) -> StorageResult<FailoverTick> {
        // Elect on what each follower has *applied* — no catch-up round
        // first, so the winner's promotion honestly replays (and counts)
        // the log tail it had not consumed when the leader died.
        let winner = state
            .followers
            .iter()
            .max_by_key(|ro| ro.seen_lsn())
            .cloned()
            .ok_or_else(|| StorageError::no_leader(StorageOp::Recovery))?;
        let epoch = self.mapping.epoch() + 1;
        let config = &self.config.leader;
        let leader =
            winner.promote(epoch, config.forest.tree_config.retry, |commit, records| {
                Bg3Db::from_log(self.store.clone(), config.clone(), commit, records)
            })?;

        // The outgoing follower generation is torn down (their readers
        // indexed the dead leader's WAL); bank their counters first.
        for ro in &state.followers {
            let stats = ro.stats();
            self.retired_stale_reads
                .fetch_add(stats.stale_reads, Ordering::Relaxed);
            self.retired_promotion_replays
                .fetch_add(stats.promotion_replay_records, Ordering::Relaxed);
        }
        state.followers = Self::build_followers(&self.store, &leader, &self.config);
        state.leader = Some(Arc::new(leader));
        state.last_heartbeat = self.store.clock().now();
        let failovers = self.failovers.fetch_add(1, Ordering::Relaxed) + 1;
        // Trace order per promotion cycle: the fence's `epoch_seal` and the
        // winner's `promotion` were already emitted inside `promote`; the
        // coordinator's election record closes the sequence.
        self.store.trace().emit(
            self.store.clock().now().0,
            TraceKind::LeaderElected,
            epoch,
            failovers,
        );
        Ok(FailoverTick::Promoted { epoch })
    }

    /// The structured trace of the deployment's state transitions (epoch
    /// seals, promotions, elections, fence rejections, WAL appends — all
    /// subsystems share the store's ring).
    pub fn trace(&self) -> &TraceBuffer {
        self.store.trace()
    }

    /// Merged metric registries of the data plane (store) and the metadata
    /// plane (mapping table): counters and histograms sum, gauges take the
    /// mapping's value when both planes registered the same name.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut merged = self.store.metrics_snapshot();
        merged.merge(&self.mapping.stats().metrics());
        merged
    }

    /// Counter snapshot: fence state plus counters accumulated across every
    /// follower generation (live followers included).
    pub fn stats(&self) -> FailoverStatsSnapshot {
        let (mut stale, mut replays) = (
            self.retired_stale_reads.load(Ordering::Relaxed),
            self.retired_promotion_replays.load(Ordering::Relaxed),
        );
        for ro in self.state.lock().followers.iter() {
            let s = ro.stats();
            stale += s.stale_reads;
            replays += s.promotion_replay_records;
        }
        FailoverStatsSnapshot {
            epoch: self.mapping.epoch(),
            failovers: self.failovers.load(Ordering::Relaxed),
            stale_reads_served: stale,
            promotion_replay_records: replays,
            fence: self.mapping.fence().snapshot(),
        }
    }
}

impl std::fmt::Debug for ReplicatedBg3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("ReplicatedBg3")
            .field("leader", &state.leader)
            .field("ro_nodes", &state.followers.len())
            .field("epoch", &self.mapping.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::StoreConfig;

    fn edges(n: u64) -> Vec<(VertexId, EdgeType, VertexId)> {
        (0..n)
            .map(|i| (VertexId(i % 50), EdgeType::TRANSFER, VertexId(1000 + i)))
            .collect()
    }

    fn edge(src: u64, dst: u64, props: &[u8]) -> Edge {
        Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(dst)).with_props(props.to_vec())
    }

    #[test]
    fn followers_see_every_leader_write() {
        let dep = ReplicatedBg3::new(ReplicatedConfig {
            ro_nodes: 3,
            ..ReplicatedConfig::default()
        });
        let written = edges(200);
        for &(s, t, d) in &written {
            dep.insert_edge(&Edge::new(s, t, d)).unwrap();
        }
        dep.insert_vertex(&Vertex {
            id: VertexId(7),
            props: b"seven".to_vec(),
        })
        .unwrap();
        dep.poll_all().unwrap();
        for idx in 0..3 {
            assert_eq!(dep.recall(idx, &written).unwrap(), 1.0, "RO {idx}");
            assert_eq!(
                dep.ro_get_vertex(idx, VertexId(7)).unwrap(),
                Some(b"seven".to_vec())
            );
        }
    }

    #[test]
    fn recall_is_perfect_even_across_checkpoints() {
        let dep = ReplicatedBg3::new(ReplicatedConfig::default());
        let written = edges(100);
        for (i, &(s, t, d)) in written.iter().enumerate() {
            dep.insert_edge(&Edge::new(s, t, d)).unwrap();
            if i % 25 == 24 {
                dep.checkpoint().unwrap();
            }
        }
        dep.poll_all().unwrap();
        assert_eq!(dep.recall(0, &written).unwrap(), 1.0);
    }

    #[test]
    fn ro_neighbors_scan_adjacency() {
        let dep = ReplicatedBg3::new(ReplicatedConfig::default());
        for dst in [5u64, 2, 9] {
            dep.insert_edge(&edge(7, dst, &[dst as u8])).unwrap();
        }
        dep.insert_edge(&edge(8, 1, b"")).unwrap();
        dep.poll_all().unwrap();
        let n = dep
            .ro_neighbors(0, VertexId(7), EdgeType::FOLLOW, usize::MAX)
            .unwrap();
        assert_eq!(
            n,
            vec![
                (VertexId(2), vec![2]),
                (VertexId(5), vec![5]),
                (VertexId(9), vec![9])
            ]
        );
    }

    #[test]
    fn sync_latency_visible_on_simulated_clock() {
        let dep = ReplicatedBg3::new(ReplicatedConfig {
            leader: Bg3Config {
                store: StoreConfig::default(), // cloud latency model
                ..Bg3Config::default()
            },
            ..ReplicatedConfig::default()
        });
        for &(s, t, d) in &edges(10) {
            dep.insert_edge(&Edge::new(s, t, d)).unwrap();
        }
        dep.poll_all().unwrap();
        let ro = dep.ro(0);
        assert!(ro.sync_latency().count() >= 10);
        assert!(ro.sync_latency().mean_nanos() > 0);
    }

    fn failover_deployment() -> ReplicatedBg3 {
        ReplicatedBg3::new(ReplicatedConfig {
            ro_nodes: 2,
            heartbeat_timeout_nanos: 1_000_000, // 1ms of virtual time
            ..ReplicatedConfig::default()
        })
    }

    /// Reads `src -FOLLOW-> dst` from follower 0.
    fn read(dep: &ReplicatedBg3, src: u64, dst: u64) -> Option<Vec<u8>> {
        dep.ro_get_edge(0, VertexId(src), EdgeType::FOLLOW, VertexId(dst))
            .unwrap()
    }

    #[test]
    fn healthy_leader_is_left_alone() {
        let dep = failover_deployment();
        dep.insert_edge(&edge(1, 2, b"v")).unwrap();
        assert_eq!(dep.tick().unwrap(), FailoverTick::Healthy);
        assert_eq!(dep.stats().failovers, 0);
        assert_eq!(dep.stats().epoch, 1);
    }

    #[test]
    fn failover_detects_waits_promotes_and_fences_the_zombie() {
        let dep = failover_deployment();
        for dst in 0..20u64 {
            dep.insert_edge(&edge(1, dst, &dst.to_le_bytes())).unwrap();
        }
        dep.checkpoint().unwrap();
        dep.poll_all().unwrap();
        // Two acked writes the followers have not polled yet: the promotion
        // must replay them from the shared WAL.
        dep.insert_edge(&edge(2, 1, b"t1")).unwrap();
        dep.insert_vertex(&Vertex {
            id: VertexId(2),
            props: b"t2".to_vec(),
        })
        .unwrap();

        let zombie = dep.kill_leader().expect("there was a leader");
        // Writes fail fast; reads keep working, counted stale.
        assert!(matches!(
            dep.insert_edge(&edge(3, 1, b"lost")).unwrap_err().kind,
            bg3_storage::ErrorKind::NoLeader
        ));
        assert_eq!(read(&dep, 1, 0), Some(0u64.to_le_bytes().to_vec()));
        assert!(dep.stats().stale_reads_served >= 1);

        // Detection window: not elapsed yet.
        assert!(matches!(dep.tick().unwrap(), FailoverTick::Waiting { .. }));
        dep.store().clock().advance_nanos(2_000_000);
        assert_eq!(dep.tick().unwrap(), FailoverTick::Promoted { epoch: 2 });

        // The zombie is fenced at the store on every write plane.
        assert!(zombie
            .insert_edge(&edge(4, 1, b"zombie"))
            .unwrap_err()
            .is_fenced());
        assert!(zombie.checkpoint().unwrap_err().is_fenced());
        let stats = dep.stats();
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.failovers, 1);
        assert!(stats.promotion_replay_records >= 2, "replayed the tail");
        assert!(stats.fence.rejected_appends + stats.fence.rejected_publishes >= 1);

        // The new regime serves every acked write — including the tail the
        // followers never polled — and accepts new ones.
        dep.insert_edge(&edge(5, 1, b"ok")).unwrap();
        dep.poll_all().unwrap();
        for dst in 0..20u64 {
            assert_eq!(read(&dep, 1, dst), Some(dst.to_le_bytes().to_vec()));
        }
        assert_eq!(read(&dep, 2, 1), Some(b"t1".to_vec()));
        assert_eq!(
            dep.ro_get_vertex(1, VertexId(2)).unwrap(),
            Some(b"t2".to_vec())
        );
        assert_eq!(read(&dep, 5, 1), Some(b"ok".to_vec()));
        assert_eq!(read(&dep, 4, 1), None, "zombie write invisible");
        assert_eq!(read(&dep, 3, 1), None, "outage write never acked");
    }

    #[test]
    fn promotion_trace_seals_the_epoch_before_the_new_leader_appends() {
        use bg3_obs::names;
        let dep = failover_deployment();
        dep.insert_edge(&edge(1, 2, b"before")).unwrap();
        dep.kill_leader().unwrap();
        dep.store().clock().advance_nanos(2_000_000);
        assert_eq!(dep.tick().unwrap(), FailoverTick::Promoted { epoch: 2 });
        dep.insert_edge(&edge(1, 3, b"after")).unwrap();

        let events = dep.trace().events();
        let seq = |kind: TraceKind| {
            events
                .iter()
                .find(|e| e.kind == kind && e.subject == 2)
                .unwrap_or_else(|| panic!("no {kind:?} for epoch 2"))
                .seq
        };
        let (seal, promo, elect) = (
            seq(TraceKind::EpochSeal),
            seq(TraceKind::Promotion),
            seq(TraceKind::LeaderElected),
        );
        let first_new_append = events
            .iter()
            .find(|e| e.kind == TraceKind::WalAppend && e.detail == 2)
            .expect("new leader appended on epoch 2")
            .seq;
        assert!(seal < promo, "seal before promotion completes");
        assert!(promo < elect, "promotion before election record");
        assert!(
            seal < first_new_append,
            "epoch_seal precedes every post-promotion append"
        );
        // Metrics cover both planes: the data-plane appends and the
        // metadata-plane epoch seal land in one merged snapshot.
        let metrics = dep.metrics_snapshot();
        assert!(metrics.counter(names::STORAGE_APPENDS_TOTAL).unwrap() > 0);
        assert_eq!(metrics.counter(names::EPOCH_SEALS_TOTAL), Some(1));
    }

    #[test]
    fn silent_leader_is_deposed_after_the_timeout() {
        let dep = failover_deployment();
        dep.insert_edge(&edge(1, 2, b"v")).unwrap();
        dep.store().clock().advance_nanos(5_000_000);
        // The handle is still installed, but the lease expired: one tick
        // deposes and promotes.
        assert_eq!(dep.tick().unwrap(), FailoverTick::Promoted { epoch: 2 });
        dep.poll_all().unwrap();
        assert_eq!(read(&dep, 1, 2), Some(b"v".to_vec()));
        assert_eq!(dep.tick().unwrap(), FailoverTick::Healthy);
    }

    #[test]
    fn repeated_failovers_keep_climbing_epochs() {
        let dep = failover_deployment();
        for round in 0..3u64 {
            dep.insert_edge(&edge(1, round, b"v")).unwrap();
            let _zombie = dep.kill_leader().unwrap();
            dep.store().clock().advance_nanos(2_000_000);
            assert_eq!(
                dep.tick().unwrap(),
                FailoverTick::Promoted { epoch: 2 + round }
            );
        }
        dep.poll_all().unwrap();
        for round in 0..3u64 {
            assert_eq!(
                read(&dep, 1, round),
                Some(b"v".to_vec()),
                "round {round} write survived every failover"
            );
        }
        let stats = dep.stats();
        assert_eq!(stats.epoch, 4);
        assert_eq!(stats.failovers, 3);
        assert_eq!(stats.fence.seals, 3);
    }
}
