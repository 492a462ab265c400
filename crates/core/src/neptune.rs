//! A conventional-design comparator standing in for Amazon Neptune.
//!
//! Neptune is closed source, so — as documented in DESIGN.md — we simulate
//! the *class* of design the paper contrasts with: a general-purpose store
//! without graph-native adjacency indexing, using one global index under a
//! coarse lock, and write-through page I/O (every mutation rewrites its
//! whole page to storage; every cold read fetches pages). The point is not
//! to model Neptune's internals but to provide a baseline whose costs scale
//! the way Fig. 8 shows: poorly with concurrency and very poorly with
//! multi-hop fan-out.

use bg3_graph::{edge_group, edge_item, vertex_key, Edge, EdgeType, GraphStore, Vertex, VertexId};
use bg3_storage::{AppendOnlyStore, PageAddr, StorageResult, StoreBuilder, StoreConfig, StreamId};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Entries per write-through page.
const PAGE_ENTRIES: usize = 64;

struct NeptuneInner {
    /// One global sorted index: `group ++ item` → props.
    index: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Address of the write-through page covering each page of the
    /// clustered index. Keys sort by `(src, etype, dst)`, so a page holds a
    /// contiguous slice of one key-prefix group — modelled as
    /// `(10-byte group prefix, page-seq within the group)`. Tracks garbage
    /// for honesty of I/O accounting.
    pages: BTreeMap<(Vec<u8>, usize), PageAddr>,
}

/// The clustered-index page prefix: the first 10 bytes of a key
/// (`src ++ etype` for edges, `V:` + id for vertices).
fn page_prefix(key: &[u8]) -> Vec<u8> {
    key[..key.len().min(10)].to_vec()
}

/// The Neptune-like comparator engine (single node).
pub struct NeptuneLike {
    store: AppendOnlyStore,
    inner: Mutex<NeptuneInner>,
}

impl NeptuneLike {
    /// Opens the comparator over a fresh store.
    pub fn new(store_config: StoreConfig) -> Self {
        Self::with_store(StoreBuilder::from_config(store_config).build())
    }

    /// Opens the comparator over an existing store.
    pub fn with_store(store: AppendOnlyStore) -> Self {
        NeptuneLike {
            store,
            inner: Mutex::new(NeptuneInner {
                index: BTreeMap::new(),
                pages: BTreeMap::new(),
            }),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &AppendOnlyStore {
        &self.store
    }

    fn full_key(src: VertexId, etype: EdgeType, dst: VertexId) -> Vec<u8> {
        let mut key = edge_group(src, etype);
        key.extend_from_slice(&edge_item(dst));
        key
    }

    /// Write-through: rewrite the clustered-index page that contains `key`.
    /// No delta buffering — the conventional cost BG3 avoids.
    fn write_through(&self, inner: &mut NeptuneInner, key: &[u8]) -> StorageResult<()> {
        let prefix = page_prefix(key);
        let (seq, _) = Self::locate(inner, key);
        // Serialize the page's entries as its image.
        let image: Vec<u8> = inner
            .index
            .range::<[u8], _>((
                std::ops::Bound::Included(prefix.as_slice()),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(k, _)| k.starts_with(&prefix))
            .skip(seq * PAGE_ENTRIES)
            .take(PAGE_ENTRIES)
            .flat_map(|(k, v)| {
                let mut rec = Vec::with_capacity(k.len() + v.len() + 8);
                rec.extend_from_slice(&(k.len() as u32).to_le_bytes());
                rec.extend_from_slice(k);
                rec.extend_from_slice(&(v.len() as u32).to_le_bytes());
                rec.extend_from_slice(v);
                rec
            })
            .collect();
        let addr = self
            .store
            .append(StreamId::BASE, &image, seq as u64, None)?;
        if let Some(old) = inner.pages.insert((prefix, seq), addr) {
            // Old page version becomes garbage.
            let _ = self.store.invalidate(old);
        }
        Ok(())
    }

    /// Read path: fetch pages `seq_range` of `prefix`'s group from storage.
    fn read_pages(&self, inner: &NeptuneInner, prefix: &[u8], seqs: impl Iterator<Item = usize>) {
        for seq in seqs {
            if let Some(addr) = inner.pages.get(&(prefix.to_vec(), seq)) {
                // Charge the random read; content is authoritative in memory.
                let _ = self.store.read(*addr);
            }
        }
    }

    /// `(page-seq within the group, rank within the group)` of `key`.
    fn locate(inner: &NeptuneInner, key: &[u8]) -> (usize, usize) {
        let prefix = page_prefix(key);
        let rank = inner
            .index
            .range::<[u8], _>((
                std::ops::Bound::Included(prefix.as_slice()),
                std::ops::Bound::Excluded(key),
            ))
            .count();
        (rank / PAGE_ENTRIES, rank)
    }
}

impl GraphStore for NeptuneLike {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        let key = Self::full_key(edge.src, edge.etype, edge.dst);
        let mut inner = self.inner.lock();
        inner.index.insert(key.clone(), edge.props.clone());
        self.write_through(&mut inner, &key)
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        let key = Self::full_key(src, etype, dst);
        let inner = self.inner.lock();
        let (seq, _) = Self::locate(&inner, &key);
        self.read_pages(&inner, &page_prefix(&key), std::iter::once(seq));
        Ok(inner.index.get(&key).cloned())
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        let key = Self::full_key(src, etype, dst);
        let mut inner = self.inner.lock();
        if inner.index.remove(&key).is_some() {
            self.write_through(&mut inner, &key)?;
        }
        Ok(())
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        let group = edge_group(src, etype);
        let inner = self.inner.lock();
        let hits: Vec<(VertexId, Vec<u8>)> = inner
            .index
            .range::<[u8], _>((
                std::ops::Bound::Included(group.as_slice()),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(k, _)| k.starts_with(&group))
            .take(limit)
            .filter_map(|(k, v)| bg3_graph::decode_dst(&k[group.len()..]).map(|d| (d, v.clone())))
            .collect();
        // Charge page reads proportional to the scan size.
        let pages_touched = hits.len().div_ceil(PAGE_ENTRIES).max(1);
        self.read_pages(&inner, &page_prefix(&group), 0..pages_touched);
        Ok(hits)
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        let mut key = b"V:".to_vec();
        key.extend_from_slice(&vertex_key(vertex.id));
        let mut inner = self.inner.lock();
        inner.index.insert(key.clone(), vertex.props.clone());
        self.write_through(&mut inner, &key)
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        let mut key = b"V:".to_vec();
        key.extend_from_slice(&vertex_key(id));
        let inner = self.inner.lock();
        let (seq, _) = Self::locate(&inner, &key);
        self.read_pages(&inner, &page_prefix(&key), std::iter::once(seq));
        Ok(inner.index.get(&key).cloned())
    }
}

impl std::fmt::Debug for NeptuneLike {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("NeptuneLike")
            .field("entries", &inner.index.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_obs::names;

    fn db() -> NeptuneLike {
        NeptuneLike::new(StoreConfig::counting())
    }

    #[test]
    fn edge_round_trip() {
        let db = db();
        db.insert_edge(
            &Edge::new(VertexId(1), EdgeType::FOLLOW, VertexId(2)).with_props(b"p".to_vec()),
        )
        .unwrap();
        assert_eq!(
            db.get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
                .unwrap(),
            Some(b"p".to_vec())
        );
        db.delete_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
            .unwrap();
        assert_eq!(
            db.get_edge(VertexId(1), EdgeType::FOLLOW, VertexId(2))
                .unwrap(),
            None
        );
    }

    #[test]
    fn neighbors_match_inserted_set() {
        let db = db();
        for dst in [3u64, 1, 2] {
            db.insert_edge(&Edge::new(VertexId(9), EdgeType::LIKE, VertexId(dst)))
                .unwrap();
        }
        db.insert_edge(&Edge::new(VertexId(10), EdgeType::LIKE, VertexId(1)))
            .unwrap();
        let n: Vec<u64> = db
            .neighbors(VertexId(9), EdgeType::LIKE, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(v, _)| v.0)
            .collect();
        assert_eq!(n, vec![1, 2, 3]);
    }

    #[test]
    fn every_write_rewrites_a_page() {
        let db = db();
        for dst in 0..10u64 {
            db.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(dst)))
                .unwrap();
        }
        let snap = db.store().metrics_snapshot();
        assert_eq!(
            snap.counter(names::STORAGE_APPENDS_TOTAL),
            Some(10),
            "write-through: one page per write"
        );
        assert!(
            snap.counter(names::STORAGE_INVALIDATIONS_TOTAL).unwrap() >= 9,
            "old page versions become garbage"
        );
    }

    #[test]
    fn reads_charge_storage_io() {
        let db = db();
        db.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(2)))
            .unwrap();
        let reads = db
            .store()
            .stats()
            .registry()
            .counter(names::STORAGE_RANDOM_READS_TOTAL);
        let before = reads.get();
        db.get_edge(VertexId(1), EdgeType::LIKE, VertexId(2))
            .unwrap();
        db.neighbors(VertexId(1), EdgeType::LIKE, 10).unwrap();
        assert!(reads.get() > before);
    }

    #[test]
    fn vertices_round_trip() {
        let db = db();
        db.insert_vertex(&Vertex {
            id: VertexId(1),
            props: b"v".to_vec(),
        })
        .unwrap();
        assert_eq!(db.get_vertex(VertexId(1)).unwrap(), Some(b"v".to_vec()));
    }
}
