//! SSTables: immutable sorted runs on the shared store.
//!
//! The table's data lives on the store's SST stream (one record per table);
//! the handle kept in memory carries only the key range, entry count, and
//! bloom filter — so probing a table for a key always costs one random
//! storage read, as in a real LSM with a cold block cache.

use crate::bloom::BloomFilter;
use bg3_storage::{AppendOnlyStore, PageAddr, StorageResult, StreamId};

/// A sorted run of `(key, value-or-tombstone)` entries.
pub type Run = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Entry codec: `u32 count | (u32 klen, k, u8 has_value, [u32 vlen, v])*`.
fn encode_run(entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        4 + entries
            .iter()
            .map(|(k, v)| k.len() + v.as_ref().map_or(0, |v| v.len()) + 9)
            .sum::<usize>(),
    );
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        match v {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
    out
}

fn decode_run(buf: &[u8]) -> Option<Run> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        if buf.len() - *pos < n {
            return None;
        }
        let out = &buf[*pos..*pos + n];
        *pos += n;
        Some(out)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let klen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let k = take(&mut pos, klen)?.to_vec();
        let has_value = take(&mut pos, 1)?[0];
        let v = if has_value == 1 {
            let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            Some(take(&mut pos, vlen)?.to_vec())
        } else {
            None
        };
        entries.push((k, v));
    }
    (pos == buf.len()).then_some(entries)
}

/// Immutable sorted run. Tombstones are retained (value `None`).
#[derive(Debug, Clone)]
pub struct SsTable {
    /// Unique table id (for debugging / stats).
    pub id: u64,
    addr: PageAddr,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
    entry_count: usize,
    data_bytes: usize,
    bloom: BloomFilter,
}

impl SsTable {
    /// Builds a table from a sorted, key-unique run and persists it.
    /// Returns `None` for an empty run.
    pub fn build(
        id: u64,
        store: &AppendOnlyStore,
        entries: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> StorageResult<Option<SsTable>> {
        if entries.is_empty() {
            return Ok(None);
        }
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut bloom = BloomFilter::new(entries.len(), 10);
        for (k, _) in entries {
            bloom.insert(k);
        }
        let image = encode_run(entries);
        let addr = store.append(StreamId::SST, &image, id, None)?;
        Ok(Some(SsTable {
            id,
            addr,
            min_key: entries.first().unwrap().0.clone(),
            max_key: entries.last().unwrap().0.clone(),
            entry_count: entries.len(),
            data_bytes: image.len(),
            bloom,
        }))
    }

    /// Key range check — free, uses the in-memory fence keys.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }

    /// Bloom probe — free, in-memory.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.covers(key) && self.bloom.may_contain(key)
    }

    /// True if this table's key range intersects `[other_min, other_max]`.
    pub fn overlaps(&self, other_min: &[u8], other_max: &[u8]) -> bool {
        self.min_key.as_slice() <= other_max && other_min <= self.max_key.as_slice()
    }

    /// Smallest key in the table.
    pub fn min_key(&self) -> &[u8] {
        &self.min_key
    }

    /// Largest key in the table.
    pub fn max_key(&self) -> &[u8] {
        &self.max_key
    }

    /// Number of entries (including tombstones).
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Size of the persisted image in bytes.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Looks the key up, reading the table's data from the store (one
    /// random read). `Ok(Some(None))` is a tombstone hit.
    #[allow(clippy::type_complexity)]
    pub fn get(
        &self,
        store: &AppendOnlyStore,
        key: &[u8],
    ) -> StorageResult<Option<Option<Vec<u8>>>> {
        let entries = self.load(store)?;
        Ok(entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| entries[i].1.clone()))
    }

    /// Reads and decodes the full run from the store.
    pub fn load(&self, store: &AppendOnlyStore) -> StorageResult<Run> {
        let bytes = store.read(self.addr)?;
        Ok(decode_run(&bytes).expect("store returned a valid SSTable image"))
    }

    /// Invalidates the table's storage record (after compaction replaced it).
    pub fn retire(&self, store: &AppendOnlyStore) -> StorageResult<()> {
        store.invalidate(self.addr)
    }

    /// In-memory footprint of the handle (fences + bloom).
    pub fn heap_bytes(&self) -> usize {
        self.min_key.len() + self.max_key.len() + self.bloom.heap_bytes() + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::{obs::names, StoreBuilder, StoreConfig};

    fn store() -> AppendOnlyStore {
        StoreBuilder::from_config(StoreConfig::counting().with_extent_capacity(1 << 20)).build()
    }

    fn run(n: u32) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        (0..n)
            .map(|i| {
                let v = if i % 5 == 4 {
                    None // sprinkle tombstones
                } else {
                    Some(format!("value{i}").into_bytes())
                };
                (format!("key{i:04}").into_bytes(), v)
            })
            .collect()
    }

    #[test]
    fn build_get_round_trip() {
        let s = store();
        let entries = run(100);
        let t = SsTable::build(1, &s, &entries).unwrap().unwrap();
        assert_eq!(t.entry_count(), 100);
        assert_eq!(
            t.get(&s, b"key0000").unwrap(),
            Some(Some(b"value0".to_vec()))
        );
        assert_eq!(t.get(&s, b"key0004").unwrap(), Some(None), "tombstone");
        assert_eq!(t.get(&s, b"nope").unwrap(), None);
    }

    #[test]
    fn empty_run_builds_nothing() {
        assert!(SsTable::build(1, &store(), &[]).unwrap().is_none());
    }

    #[test]
    fn covers_and_overlaps_use_fences() {
        let s = store();
        let t = SsTable::build(1, &s, &run(10)).unwrap().unwrap();
        assert!(t.covers(b"key0005"));
        assert!(!t.covers(b"aaa"));
        assert!(!t.covers(b"zzz"));
        assert!(t.overlaps(b"key0008", b"zzz"));
        assert!(!t.overlaps(b"x", b"z"));
        assert!(t.overlaps(b"a", b"z"));
    }

    #[test]
    fn bloom_short_circuits_misses() {
        let s = store();
        let t = SsTable::build(1, &s, &run(1000)).unwrap().unwrap();
        let reads = s
            .stats()
            .registry()
            .counter(names::STORAGE_RANDOM_READS_TOTAL);
        let before = reads.get();
        // In-range but absent keys: bloom should reject nearly all without
        // touching storage.
        let mut probed = 0;
        for i in 0..1000u32 {
            let key = format!("key{i:04}x").into_bytes();
            if t.may_contain(&key) {
                probed += 1;
            }
        }
        assert!(probed < 100, "bloom filtered most misses ({probed})");
        assert_eq!(reads.get(), before, "may_contain never reads storage");
    }

    #[test]
    fn each_get_costs_one_read_request() {
        let s = store();
        let t = SsTable::build(1, &s, &run(50)).unwrap().unwrap();
        let before = s.metrics_snapshot();
        t.get(&s, b"key0001").unwrap();
        t.get(&s, b"key0002").unwrap();
        let after = s.metrics_snapshot();
        let delta = |name| after.counter(name).unwrap() - before.counter(name).unwrap();
        let random_reads = delta(names::STORAGE_RANDOM_READS_TOTAL);
        // One read request per get; the page cache may serve repeats of
        // the same table block from memory, but never more than one
        // request is issued per lookup.
        assert_eq!(random_reads + delta(names::CACHE_HITS_TOTAL), 2);
        assert!(random_reads >= 1, "the cold block came from storage");
    }

    #[test]
    fn retire_invalidates_storage() {
        let s = store();
        let t = SsTable::build(1, &s, &run(10)).unwrap().unwrap();
        t.retire(&s).unwrap();
        assert_eq!(
            s.metrics_snapshot()
                .counter(names::STORAGE_INVALIDATIONS_TOTAL),
            Some(1)
        );
        assert!(t.retire(&s).is_err(), "double retire");
    }
}
