//! CSR-packed adjacency segments over sealed base pages.
//!
//! A clean leaf (no buffered deltas) holding fixed-width 8-byte item
//! tails — the forest's edge encoding: composite group prefix plus a
//! big-endian `dst` — packs into a columnar segment: the distinct group
//! prefixes back to back in one buffer with their run ends, a contiguous
//! `u64` neighbor run, and the concatenated property bytes. A one-hop
//! expansion over sealed data is then a binary search for the group run
//! plus one sequential scan, instead of a per-edge key decode. Delta
//! chains overlay on top: a page with pending updates is streamed by a
//! two-way merge of its base and pending ops, which copies only the
//! entries it emits, and re-packs lazily after the next consolidation
//! (see `PageState::invalidate_csr` call sites in `tree.rs`).
//!
//! Segments are built lazily on first batched scan and kept, boxed, in
//! the page's write-once slot, so readers under the tree's read lock borrow
//! them with no lock and no reference count; any base-page rewrite
//! (consolidation, split, flush) runs under the write lock and empties the
//! slot. Trees whose keys do not fit the layout (an entry shorter than the
//! 8-byte tail, or group prefixes that interleave under full-key order)
//! fill the slot with "unsupported" and are always served by that merge.

use std::cmp::Ordering;
use std::ops::Range;

/// Width of the fixed item tail: a big-endian `u64` neighbor id.
pub const CSR_ITEM_LEN: usize = 8;

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
    /// The distinct group prefixes, strictly increasing, back to back.
    prefix_bytes: Vec<u8>,
    /// `prefix_ends[g]` is the exclusive end of group `g`'s prefix in
    /// `prefix_bytes` (group `g` starts at `prefix_ends[g-1]`, or 0).
    prefix_ends: Vec<u32>,
    /// `run_ends[g]` is the exclusive end of group `g`'s run in
    /// `neighbors`/`prop_ends`; runs are contiguous, like the prefixes.
    run_ends: Vec<u32>,
    /// Big-endian-decoded 8-byte item tails, in key order.
    neighbors: Vec<u64>,
    /// `prop_ends[i]` is the exclusive end of entry `i`'s bytes in
    /// `props` (entry `i` starts at `prop_ends[i-1]`, or 0).
    prop_ends: Vec<u32>,
    /// Concatenated property bytes.
    props: Vec<u8>,
}

/// The `i`-th of the contiguous spans ending at `ends`.
fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

impl CsrSegment {
    /// Packs a sorted base-page image. Returns `None` when the page does
    /// not fit the layout: an entry shorter than [`CSR_ITEM_LEN`], or
    /// group prefixes that are non-monotonic under full-key order
    /// (possible for variable-length keys that are not length-prefixed
    /// composites).
    pub fn build(base: &[(Vec<u8>, Vec<u8>)]) -> Option<CsrSegment> {
        let mut seg = CsrSegment {
            prefix_bytes: Vec::new(),
            prefix_ends: Vec::new(),
            run_ends: Vec::new(),
            neighbors: Vec::with_capacity(base.len()),
            prop_ends: Vec::with_capacity(base.len()),
            props: Vec::new(),
        };
        for (key, value) in base {
            if key.len() < CSR_ITEM_LEN {
                return None;
            }
            let (prefix, item) = key.split_at(key.len() - CSR_ITEM_LEN);
            let dst = u64::from_be_bytes(item.try_into().expect("8-byte tail"));
            let last = seg.prefix_ends.len().checked_sub(1);
            match last.map(|g| seg.prefix(g).cmp(prefix)) {
                Some(Ordering::Equal) => {}
                Some(Ordering::Greater) => return None,
                Some(Ordering::Less) | None => {
                    seg.prefix_bytes.extend_from_slice(prefix);
                    seg.prefix_ends.push(seg.prefix_bytes.len() as u32);
                    seg.run_ends.push(seg.neighbors.len() as u32);
                }
            }
            seg.neighbors.push(dst);
            *seg.run_ends.last_mut().expect("a group is open") += 1;
            seg.props.extend_from_slice(value);
            seg.prop_ends.push(seg.props.len() as u32);
        }
        Some(seg)
    }

    /// Group `g`'s prefix.
    fn prefix(&self, g: usize) -> &[u8] {
        &self.prefix_bytes[span(&self.prefix_ends, g)]
    }

    /// The neighbor run for an exact group `prefix`, if present.
    pub fn run(&self, prefix: &[u8]) -> Option<Range<usize>> {
        let (mut lo, mut hi) = (0, self.prefix_ends.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.prefix(mid).cmp(prefix) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(span(&self.run_ends, mid)),
            }
        }
        None
    }

    /// The decoded neighbor id at index `i`.
    pub fn neighbor(&self, i: usize) -> u64 {
        self.neighbors[i]
    }

    /// The property bytes of entry `i`.
    pub fn props(&self, i: usize) -> &[u8] {
        &self.props[span(&self.prop_ends, i)]
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
        assert!(seg.run(b"a").is_none());
        assert!(seg.run(b"aaa").is_none());
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
    }
}
