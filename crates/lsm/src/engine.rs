//! The leveled LSM engine.

use crate::memtable::Memtable;
use crate::sstable::SsTable;
use bg3_storage::{AppendOnlyStore, StorageResult};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// LSM tuning knobs.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable once it buffers this many bytes.
    pub memtable_flush_bytes: usize,
    /// Compact L0 into L1 once it accumulates this many runs.
    pub l0_compaction_threshold: usize,
    /// Target byte size of L1; each deeper level is `level_size_multiplier`
    /// times larger.
    pub level_base_bytes: usize,
    /// Size ratio between adjacent levels.
    pub level_size_multiplier: usize,
    /// Maximum number of levels (L0 included).
    pub max_levels: usize,
    /// Account a commit-log write for every flushed batch (a production
    /// LSM's WAL). Only affects I/O accounting, not recovery semantics —
    /// the simulated store never crashes.
    pub wal_enabled: bool,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_flush_bytes: 64 * 1024,
            l0_compaction_threshold: 4,
            level_base_bytes: 256 * 1024,
            level_size_multiplier: 10,
            max_levels: 6,
            wal_enabled: true,
        }
    }
}

impl LsmConfig {
    /// Small limits so tests exercise flush/compaction quickly.
    pub fn tiny() -> Self {
        LsmConfig {
            memtable_flush_bytes: 1024,
            l0_compaction_threshold: 2,
            level_base_bytes: 4 * 1024,
            level_size_multiplier: 4,
            max_levels: 4,
            wal_enabled: true,
        }
    }
}

struct LsmInner {
    memtable: Memtable,
    /// `levels[0]` holds overlapping runs, newest first. Deeper levels hold
    /// non-overlapping runs sorted by key range.
    levels: Vec<Vec<SsTable>>,
}

/// Counters describing the engine's I/O behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStatsSnapshot {
    /// Memtable flushes (SSTable builds from the write path).
    pub flushes: u64,
    /// Compaction rounds executed.
    pub compactions: u64,
    /// Bytes read + rewritten by compaction — the LSM's write amplification.
    pub compaction_bytes: u64,
    /// Point lookups served.
    pub gets: u64,
    /// SSTables actually probed on storage (post bloom/fence filtering).
    /// `sst_probes / gets` is the engine's read amplification.
    pub sst_probes: u64,
}

/// A leveled LSM key-value store over the shared store's SST stream.
pub struct LsmKv {
    store: AppendOnlyStore,
    config: LsmConfig,
    inner: RwLock<LsmInner>,
    next_table: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    compaction_bytes: AtomicU64,
    gets: AtomicU64,
    sst_probes: AtomicU64,
}

impl LsmKv {
    /// Creates an empty engine.
    pub fn new(store: AppendOnlyStore, config: LsmConfig) -> Self {
        let levels = (0..config.max_levels).map(|_| Vec::new()).collect();
        LsmKv {
            store,
            config,
            inner: RwLock::new(LsmInner {
                memtable: Memtable::new(),
                levels,
            }),
            next_table: AtomicU64::new(1),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            sst_probes: AtomicU64::new(0),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &AppendOnlyStore {
        &self.store
    }

    /// Inserts or overwrites a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        let mut inner = self.inner.write();
        inner.memtable.put(key, value);
        self.maybe_flush(&mut inner)
    }

    /// Deletes a key.
    pub fn delete(&self, key: &[u8]) -> StorageResult<()> {
        let mut inner = self.inner.write();
        inner.memtable.delete(key);
        self.maybe_flush(&mut inner)
    }

    fn maybe_flush(&self, inner: &mut LsmInner) -> StorageResult<()> {
        if inner.memtable.approx_bytes() < self.config.memtable_flush_bytes {
            return Ok(());
        }
        self.flush_locked(inner)
    }

    /// Forces the memtable to disk (used by tests and shutdown paths).
    pub fn flush(&self) -> StorageResult<()> {
        let mut inner = self.inner.write();
        if inner.memtable.is_empty() {
            return Ok(());
        }
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut LsmInner) -> StorageResult<()> {
        let run = inner.memtable.drain_sorted();
        if self.config.wal_enabled {
            // Commit-log accounting: every buffered byte was first made
            // durable in the WAL (like any production LSM's write path).
            let wal_bytes: usize = run
                .iter()
                .map(|(k, v)| k.len() + v.as_ref().map_or(0, |v| v.len()) + 12)
                .sum();
            if wal_bytes > 0 {
                let payload = vec![0u8; wal_bytes.min(self.store.extent_capacity())];
                self.store
                    .append(bg3_storage::StreamId::WAL, &payload, 0, None)?;
            }
        }
        // Chunk oversized runs so no table outgrows an extent.
        let max_chunk = (self.store.extent_capacity() / 2).max(1024);
        let mut chunk: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        let mut size = 0usize;
        let mut tables = Vec::new();
        for (k, v) in run {
            size += k.len() + v.as_ref().map_or(0, |v| v.len()) + 9;
            chunk.push((k, v));
            if size >= max_chunk {
                let id = self.next_table.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = SsTable::build(id, &self.store, &chunk)? {
                    tables.push(t);
                }
                chunk.clear();
                size = 0;
            }
        }
        if !chunk.is_empty() {
            let id = self.next_table.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = SsTable::build(id, &self.store, &chunk)? {
                tables.push(t);
            }
        }
        if !tables.is_empty() {
            // Newest first within L0; chunks of one flush don't overlap, so
            // relative order among them is irrelevant.
            for t in tables {
                inner.levels[0].insert(0, t);
            }
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        self.maybe_compact(inner)
    }

    /// Compacts L0 when it has too many runs, then cascades level-size
    /// triggers downward.
    fn maybe_compact(&self, inner: &mut LsmInner) -> StorageResult<()> {
        if inner.levels[0].len() >= self.config.l0_compaction_threshold {
            self.compact_into(inner, 0)?;
        }
        for level in 1..self.config.max_levels - 1 {
            let target = self.config.level_base_bytes
                * self.config.level_size_multiplier.pow(level as u32 - 1);
            let size: usize = inner.levels[level].iter().map(|t| t.data_bytes()).sum();
            if size > target {
                self.compact_into(inner, level)?;
            }
        }
        Ok(())
    }

    /// Merges every run of `level` with the overlapping runs of `level+1`
    /// into fresh non-overlapping runs placed in `level+1`.
    fn compact_into(&self, inner: &mut LsmInner, level: usize) -> StorageResult<()> {
        let upper: Vec<SsTable> = std::mem::take(&mut inner.levels[level]);
        if upper.is_empty() {
            return Ok(());
        }
        let min = upper.iter().map(|t| t.min_key().to_vec()).min().unwrap();
        let max = upper.iter().map(|t| t.max_key().to_vec()).max().unwrap();
        let (overlapping, disjoint): (Vec<SsTable>, Vec<SsTable>) =
            std::mem::take(&mut inner.levels[level + 1])
                .into_iter()
                .partition(|t| t.overlaps(&min, &max));

        // Oldest-to-newest apply order: deeper level first, then the upper
        // level's runs from oldest (back) to newest (front).
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut bytes = 0u64;
        for table in overlapping.iter().chain(upper.iter().rev()) {
            bytes += table.data_bytes() as u64;
            for (k, v) in table.load(&self.store)? {
                merged.insert(k, v);
            }
        }
        // Drop tombstones if nothing lives below the output level.
        let is_bottom = inner.levels[level + 2..].iter().all(|l| l.is_empty());
        let run: Vec<(Vec<u8>, Option<Vec<u8>>)> = merged
            .into_iter()
            .filter(|(_, v)| !(is_bottom && v.is_none()))
            .collect();

        // Chunk the output into bounded tables so no single SSTable
        // outgrows the target run size (or the store's extent capacity).
        let chunk_bytes = self
            .config
            .level_base_bytes
            .min(self.store.extent_capacity() / 2)
            .max(1024);
        let mut next = disjoint;
        let mut chunk: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        let mut chunk_size = 0usize;
        let mut flush_chunk =
            |chunk: &mut Vec<(Vec<u8>, Option<Vec<u8>>)>, bytes: &mut u64| -> StorageResult<()> {
                if chunk.is_empty() {
                    return Ok(());
                }
                let id = self.next_table.fetch_add(1, Ordering::Relaxed);
                if let Some(table) = SsTable::build(id, &self.store, chunk)? {
                    *bytes += table.data_bytes() as u64;
                    next.push(table);
                }
                chunk.clear();
                Ok(())
            };
        for (k, v) in run {
            chunk_size += k.len() + v.as_ref().map_or(0, |v| v.len()) + 9;
            chunk.push((k, v));
            if chunk_size >= chunk_bytes {
                flush_chunk(&mut chunk, &mut bytes)?;
                chunk_size = 0;
            }
        }
        flush_chunk(&mut chunk, &mut bytes)?;
        #[allow(clippy::drop_non_drop)]
        drop(flush_chunk); // release the borrow of `next`
        next.sort_by(|a, b| a.min_key().cmp(b.min_key()));
        inner.levels[level + 1] = next;
        for table in upper.iter().chain(overlapping.iter()) {
            table.retire(&self.store)?;
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compaction_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Point lookup: memtable, then L0 newest-first, then one candidate per
    /// deeper level. Every SSTable probe costs a random storage read.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.read();
        if let Some(hit) = inner.memtable.get(key) {
            return Ok(hit.map(|v| v.to_vec()));
        }
        for (level, tables) in inner.levels.iter().enumerate() {
            let candidates: Vec<&SsTable> = if level == 0 {
                tables.iter().filter(|t| t.may_contain(key)).collect()
            } else {
                tables
                    .iter()
                    .find(|t| t.covers(key))
                    .filter(|t| t.may_contain(key))
                    .into_iter()
                    .collect()
            };
            for table in candidates {
                self.sst_probes.fetch_add(1, Ordering::Relaxed);
                if let Some(hit) = table.get(&self.store, key)? {
                    return Ok(hit);
                }
            }
        }
        Ok(None)
    }

    /// Range scan `[start, end)` (both optional), up to `limit` entries.
    /// Loads every overlapping run — the LSM result-merging cost §2.4
    /// describes.
    pub fn scan(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        limit: usize,
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let inner = self.inner.read();
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let in_range = |k: &[u8]| start.is_none_or(|s| k >= s) && end.is_none_or(|e| k < e);
        // Oldest to newest: deepest level first, L0 back-to-front, memtable
        // last, so newer versions overwrite older ones.
        for tables in inner.levels.iter().rev() {
            for table in tables.iter().rev() {
                let scan_min = start.unwrap_or(&[]);
                if let Some(e) = end {
                    if !table.overlaps(scan_min, e) {
                        continue;
                    }
                } else if table.max_key() < scan_min {
                    continue;
                }
                self.sst_probes.fetch_add(1, Ordering::Relaxed);
                for (k, v) in table.load(&self.store)? {
                    if in_range(&k) {
                        merged.insert(k, v);
                    }
                }
            }
        }
        for (k, v) in inner.memtable.range(start, end) {
            merged.insert(k.to_vec(), v.map(|v| v.to_vec()));
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .take(limit)
            .collect())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LsmStatsSnapshot {
        LsmStatsSnapshot {
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_bytes: self.compaction_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            sst_probes: self.sst_probes.load(Ordering::Relaxed),
        }
    }

    /// Number of live SSTables per level (diagnostics).
    pub fn level_table_counts(&self) -> Vec<usize> {
        self.inner.read().levels.iter().map(|l| l.len()).collect()
    }

    /// Estimated memory held by table handles and the memtable.
    pub fn memory_footprint(&self) -> usize {
        let inner = self.inner.read();
        inner.memtable.approx_bytes()
            + inner
                .levels
                .iter()
                .flatten()
                .map(|t| t.heap_bytes())
                .sum::<usize>()
    }
}

impl std::fmt::Debug for LsmKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmKv")
            .field("levels", &self.level_table_counts())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::{obs::names, StoreBuilder, StoreConfig};

    fn engine() -> LsmKv {
        LsmKv::new(
            StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(1 << 20))
                .build(),
            LsmConfig::tiny(),
        )
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    #[test]
    fn put_get_across_flushes() {
        let e = engine();
        for i in 0..500u32 {
            e.put(&key(i), format!("value{i}").as_bytes()).unwrap();
        }
        assert!(e.stats().flushes > 0, "memtable flushed");
        for i in (0..500).step_by(17) {
            assert_eq!(
                e.get(&key(i)).unwrap(),
                Some(format!("value{i}").into_bytes()),
                "key {i}"
            );
        }
        assert_eq!(e.get(b"missing").unwrap(), None);
    }

    #[test]
    fn latest_version_wins_across_levels() {
        let e = engine();
        for round in 0..5u32 {
            for i in 0..100u32 {
                e.put(&key(i), format!("round{round}").as_bytes()).unwrap();
            }
        }
        for i in (0..100).step_by(7) {
            assert_eq!(e.get(&key(i)).unwrap(), Some(b"round4".to_vec()));
        }
    }

    #[test]
    fn deletes_survive_compaction() {
        let e = engine();
        for i in 0..200u32 {
            e.put(&key(i), b"v").unwrap();
        }
        for i in (0..200).step_by(2) {
            e.delete(&key(i)).unwrap();
        }
        e.flush().unwrap();
        for i in 0..200u32 {
            let expect = if i % 2 == 0 {
                None
            } else {
                Some(b"v".to_vec())
            };
            assert_eq!(e.get(&key(i)).unwrap(), expect, "key {i}");
        }
    }

    #[test]
    fn compaction_triggers_and_reclaims_old_tables() {
        let e = engine();
        for i in 0..2000u32 {
            e.put(&key(i % 300), &[i as u8; 32]).unwrap();
        }
        let stats = e.stats();
        assert!(stats.compactions > 0, "compaction ran");
        assert!(stats.compaction_bytes > 0);
        // Old tables were retired: store should show invalidations.
        assert!(
            e.store()
                .metrics_snapshot()
                .counter(names::STORAGE_INVALIDATIONS_TOTAL)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn read_amplification_exceeds_one_with_overlapping_runs() {
        let e = engine();
        // Build overlapping L0 runs over the same key range.
        for round in 0..3u32 {
            for i in 0..60u32 {
                e.put(&key(i), format!("r{round}").as_bytes()).unwrap();
            }
            e.flush().unwrap();
        }
        let before = e.stats();
        for i in 0..60u32 {
            e.get(&key(i)).unwrap();
        }
        let after = e.stats();
        let probes = after.sst_probes - before.sst_probes;
        let gets = after.gets - before.gets;
        assert!(
            probes >= gets,
            "multi-run probing: {probes} probes for {gets} gets"
        );
    }

    #[test]
    fn scan_merges_levels_and_filters_tombstones() {
        let e = engine();
        for i in 0..100u32 {
            e.put(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        e.delete(&key(50)).unwrap();
        e.flush().unwrap();
        let hits = e.scan(Some(&key(40)), Some(&key(60)), usize::MAX).unwrap();
        assert_eq!(hits.len(), 19, "20 keys minus 1 tombstone");
        assert!(hits.iter().all(|(k, _)| k != &key(50)));
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
        let limited = e.scan(None, None, 7).unwrap();
        assert_eq!(limited.len(), 7);
    }

    #[test]
    fn scan_sees_unflushed_writes() {
        let e = engine();
        e.put(b"a", b"1").unwrap();
        let hits = e.scan(None, None, usize::MAX).unwrap();
        assert_eq!(hits, vec![(b"a".to_vec(), b"1".to_vec())]);
    }

    #[test]
    fn deeper_levels_are_non_overlapping() {
        let e = engine();
        for i in 0..3000u32 {
            e.put(&key(i), &[0u8; 16]).unwrap();
        }
        e.flush().unwrap();
        let inner = e.inner.read();
        for (level, tables) in inner.levels.iter().enumerate().skip(1) {
            for pair in tables.windows(2) {
                assert!(
                    pair[0].max_key() < pair[1].min_key(),
                    "L{level} runs overlap"
                );
            }
        }
    }
}
