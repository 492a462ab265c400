//! CSR-packed adjacency segments over sealed base pages.
//!
//! A clean leaf (no buffered deltas) holding fixed-width 8-byte item
//! tails — the forest's edge encoding: composite group prefix plus a
//! big-endian `dst` — packs into a columnar segment: one offsets array
//! per distinct group prefix, a contiguous `u64` neighbor run, and the
//! concatenated property bytes. A one-hop expansion over sealed data is
//! then a binary search for the group run plus one sequential scan,
//! instead of a per-edge key decode. Delta chains overlay on top: a page
//! with pending updates is streamed by a two-way merge of its base and
//! pending ops, which copies only the entries it emits, and re-packs
//! lazily after the next consolidation (see `PageState::invalidate_csr`
//! call sites in `tree.rs`).
//!
//! Segments are built lazily on first batched scan and cached per page;
//! any base-page rewrite (consolidation, split, flush) drops the cache.
//! Trees whose keys do not fit the layout (an entry shorter than the
//! 8-byte tail, or group prefixes that interleave under full-key order)
//! are marked unsupported and always served by that merge.

use std::ops::Range;
use std::sync::Arc;

/// Width of the fixed item tail: a big-endian `u64` neighbor id.
pub const CSR_ITEM_LEN: usize = 8;

/// Per-page CSR cache slot.
#[derive(Debug, Default)]
pub(crate) enum CsrCache {
    /// Not built yet (fresh or invalidated page).
    #[default]
    Unbuilt,
    /// The page's keys do not fit the CSR layout; never retry.
    Unsupported,
    /// Packed segment mirroring the page's current base image.
    Ready(Arc<CsrSegment>),
}

/// Visitor fed by batched prefix scans: called as
/// `(tag, item-tail, value)`; returning `false` ends that tag's scan
/// early (limit/count pushdown).
pub type BatchVisitor<'a> = dyn FnMut(usize, &[u8], &[u8]) -> bool + 'a;

/// Aggregate instrumentation of one batched scan: how many distinct
/// sealed segments (leaf pages) were touched, how many bytes were
/// scanned, and how many (prefix, leaf) visits were served by the CSR
/// fast path rather than the streamed base-and-delta merge.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Distinct leaf pages touched (consecutive prefixes sharing a leaf
    /// count it once — the batching win).
    pub segments_scanned: u64,
    /// Bytes scanned across CSR runs and entries the merge visited.
    pub bytes_scanned: u64,
    /// (prefix, leaf) visits served from a packed segment.
    pub csr_hits: u64,
}

impl ScanOutcome {
    /// Accumulates another outcome into this one.
    pub fn absorb(&mut self, other: ScanOutcome) {
        self.segments_scanned += other.segments_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.csr_hits += other.csr_hits;
    }
}

/// A packed, columnar image of one clean base page: group-prefix runs
/// over a contiguous neighbor array plus concatenated properties.
#[derive(Debug)]
pub struct CsrSegment {
    /// `(group prefix, start, end)` — strictly increasing prefixes;
    /// `start..end` indexes `neighbors`/`prop_ends`.
    groups: Vec<(Vec<u8>, u32, u32)>,
    /// Big-endian-decoded 8-byte item tails, in key order.
    neighbors: Vec<u64>,
    /// `prop_ends[i]` is the exclusive end of entry `i`'s bytes in
    /// `props` (entry `i` starts at `prop_ends[i-1]`, or 0).
    prop_ends: Vec<u32>,
    /// Concatenated property bytes.
    props: Vec<u8>,
    /// The page's largest full key (empty for an empty page) — the
    /// "does this group continue into the next leaf" boundary check.
    max_key: Vec<u8>,
}

impl CsrSegment {
    /// Packs a sorted base-page image. Returns `None` when the page does
    /// not fit the layout: an entry shorter than [`CSR_ITEM_LEN`], or
    /// group prefixes that are non-monotonic under full-key order
    /// (possible for variable-length keys that are not length-prefixed
    /// composites).
    pub fn build(base: &[(Vec<u8>, Vec<u8>)]) -> Option<CsrSegment> {
        let mut groups: Vec<(Vec<u8>, u32, u32)> = Vec::new();
        let mut neighbors = Vec::with_capacity(base.len());
        let mut prop_ends = Vec::with_capacity(base.len());
        let mut props = Vec::new();
        for (key, value) in base {
            if key.len() < CSR_ITEM_LEN {
                return None;
            }
            let (prefix, item) = key.split_at(key.len() - CSR_ITEM_LEN);
            let dst = u64::from_be_bytes(item.try_into().expect("8-byte tail"));
            match groups.last_mut() {
                Some((p, _, end)) if p.as_slice() == prefix => *end += 1,
                Some((p, _, _)) if p.as_slice() > prefix => return None,
                _ => {
                    let at = neighbors.len() as u32;
                    groups.push((prefix.to_vec(), at, at + 1));
                }
            }
            neighbors.push(dst);
            props.extend_from_slice(value);
            prop_ends.push(props.len() as u32);
        }
        let max_key = base.last().map(|(k, _)| k.clone()).unwrap_or_default();
        Some(CsrSegment {
            groups,
            neighbors,
            prop_ends,
            props,
            max_key,
        })
    }

    /// The neighbor run for an exact group `prefix`, if present.
    pub fn run(&self, prefix: &[u8]) -> Option<Range<usize>> {
        let i = self
            .groups
            .binary_search_by(|(p, _, _)| p.as_slice().cmp(prefix))
            .ok()?;
        let (_, start, end) = &self.groups[i];
        Some(*start as usize..*end as usize)
    }

    /// The decoded neighbor id at index `i`.
    pub fn neighbor(&self, i: usize) -> u64 {
        self.neighbors[i]
    }

    /// The property bytes of entry `i`.
    pub fn props(&self, i: usize) -> &[u8] {
        let start = if i == 0 {
            0
        } else {
            self.prop_ends[i - 1] as usize
        };
        &self.props[start..self.prop_ends[i] as usize]
    }

    /// The page's largest full key; empty for an empty page.
    pub fn max_key(&self) -> &[u8] {
        &self.max_key
    }

    /// Number of packed entries.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the segment packs zero entries.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(prefix: &[u8], dst: u64, props: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut k = prefix.to_vec();
        k.extend_from_slice(&dst.to_be_bytes());
        (k, props.to_vec())
    }

    #[test]
    fn packs_runs_per_prefix() {
        let base = vec![
            entry(b"aa", 1, b"x"),
            entry(b"aa", 7, b"yy"),
            entry(b"bb", 2, b""),
        ];
        let seg = CsrSegment::build(&base).unwrap();
        assert_eq!(seg.len(), 3);
        let run = seg.run(b"aa").unwrap();
        assert_eq!(run, 0..2);
        assert_eq!(seg.neighbor(0), 1);
        assert_eq!(seg.neighbor(1), 7);
        assert_eq!(seg.props(1), b"yy");
        assert_eq!(seg.run(b"bb").unwrap(), 2..3);
        assert_eq!(seg.props(2), b"");
        assert!(seg.run(b"cc").is_none());
        assert_eq!(seg.max_key(), entry(b"bb", 2, b"").0.as_slice());
    }

    #[test]
    fn bare_item_keys_pack_as_one_empty_prefix_group() {
        let base = vec![entry(b"", 3, b"p"), entry(b"", 9, b"q")];
        let seg = CsrSegment::build(&base).unwrap();
        assert_eq!(seg.run(b"").unwrap(), 0..2);
    }

    #[test]
    fn short_keys_are_unsupported() {
        assert!(CsrSegment::build(&[(b"abc".to_vec(), Vec::new())]).is_none());
    }

    #[test]
    fn interleaved_prefixes_are_unsupported() {
        // Sorted by full key, but the 8-byte-tail prefixes go a, ab, a.
        let base = vec![
            entry(b"a", u64::from_be_bytes(*b"a_______"), b""),
            entry(b"ab", 1, b""),
            entry(b"a", u64::from_be_bytes(*b"zzzzzzzz"), b""),
        ];
        assert!(base.windows(2).all(|w| w[0].0 < w[1].0), "sorted input");
        assert!(CsrSegment::build(&base).is_none());
    }

    #[test]
    fn empty_page_packs_empty() {
        let seg = CsrSegment::build(&[]).unwrap();
        assert!(seg.is_empty());
        assert!(seg.run(b"").is_none());
        assert_eq!(seg.max_key(), b"");
    }
}
