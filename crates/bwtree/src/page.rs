//! Page representations and their storage codec.
//!
//! A **base page** is an immutable sorted run of key/value entries. A
//! **delta** is a sorted batch of not-yet-consolidated operations. Both are
//! encoded to byte images before being appended to the shared store, so the
//! latency model and the I/O counters see realistic sizes.

use std::cmp::Ordering;
use std::fmt;

/// A sorted run of key/value entries — the content of one base page.
pub type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// A single buffered operation inside a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert or overwrite `key` with `value`.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// Remove `key` (tombstone until consolidation).
    Delete { key: Vec<u8> },
}

impl DeltaOp {
    /// The key this operation applies to.
    pub fn key(&self) -> &[u8] {
        match self {
            DeltaOp::Put { key, .. } | DeltaOp::Delete { key } => key,
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn heap_size(&self) -> usize {
        match self {
            DeltaOp::Put { key, value } => key.len() + value.len(),
            DeltaOp::Delete { key } => key.len(),
        }
    }
}

/// Errors raised while decoding page images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageCodecError {
    /// Buffer ended early.
    Truncated,
    /// Unknown delta op tag.
    UnknownOp(u8),
}

impl fmt::Display for PageCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageCodecError::Truncated => write!(f, "truncated page image"),
            PageCodecError::UnknownOp(op) => write!(f, "unknown delta op tag {op}"),
        }
    }
}

impl std::error::Error for PageCodecError {}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PageCodecError> {
        if self.buf.len() - self.pos < n {
            return Err(PageCodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PageCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PageCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// One length-prefixed byte string, borrowed from the image.
    fn slice(&mut self) -> Result<&'a [u8], PageCodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, PageCodecError> {
        Ok(self.slice()?.to_vec())
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encodes a base page: `u32 count | (key, value)*` with length-prefixed
/// byte strings. Entries must be sorted by key (callers uphold this).
pub fn encode_base_page<K: AsRef<[u8]>, V: AsRef<[u8]>>(entries: &[(K, V)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        8 + entries
            .iter()
            .map(|(k, v)| k.as_ref().len() + v.as_ref().len() + 8)
            .sum::<usize>(),
    );
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        put_bytes(&mut out, k.as_ref());
        put_bytes(&mut out, v.as_ref());
    }
    out
}

/// Decodes a base page image.
pub fn decode_base_page(buf: &[u8]) -> Result<Entries, PageCodecError> {
    let mut c = Cursor { buf, pos: 0 };
    let count = c.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let k = c.bytes()?;
        let v = c.bytes()?;
        entries.push((k, v));
    }
    if !c.finished() {
        return Err(PageCodecError::Truncated);
    }
    Ok(entries)
}

/// Looks `key` up in a base page image without decoding it: walks the
/// length-prefixed entries in place and borrows the matching value. The
/// walk covers the whole image, so a malformed image fails with the same
/// error as [`decode_base_page`].
pub(crate) fn lookup_base<'a>(
    buf: &'a [u8],
    key: &[u8],
) -> Result<Option<&'a [u8]>, PageCodecError> {
    let mut c = Cursor { buf, pos: 0 };
    let count = c.u32()?;
    let mut found = None;
    for _ in 0..count {
        let k = c.slice()?;
        let v = c.slice()?;
        if k == key {
            found = Some(v);
        }
    }
    if !c.finished() {
        return Err(PageCodecError::Truncated);
    }
    Ok(found)
}

/// Encodes a delta: `u32 count | (u8 tag, key, [value])*`.
pub fn encode_delta(ops: &[DeltaOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + ops.iter().map(|o| o.heap_size() + 9).sum::<usize>());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            DeltaOp::Put { key, value } => {
                out.push(0);
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            DeltaOp::Delete { key } => {
                out.push(1);
                put_bytes(&mut out, key);
            }
        }
    }
    out
}

/// Length of [`encode_delta`]'s image of `ops`, without encoding it.
pub(crate) fn encoded_delta_len(ops: &[DeltaOp]) -> usize {
    4 + ops
        .iter()
        .map(|op| match op {
            DeltaOp::Put { key, value } => 9 + key.len() + value.len(),
            DeltaOp::Delete { key } => 5 + key.len(),
        })
        .sum::<usize>()
}

/// Decodes a delta image.
pub fn decode_delta(buf: &[u8]) -> Result<Vec<DeltaOp>, PageCodecError> {
    let mut c = Cursor { buf, pos: 0 };
    let count = c.u32()? as usize;
    let mut ops = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let tag = c.u8()?;
        let op = match tag {
            0 => DeltaOp::Put {
                key: c.bytes()?,
                value: c.bytes()?,
            },
            1 => DeltaOp::Delete { key: c.bytes()? },
            other => return Err(PageCodecError::UnknownOp(other)),
        };
        ops.push(op);
    }
    if !c.finished() {
        return Err(PageCodecError::Truncated);
    }
    Ok(ops)
}

/// Looks `key` up in a delta image without decoding it: `None` when no op
/// touches `key`, else the newest op's outcome, `Some(None)` for a
/// tombstone. Ops are oldest first and keys may repeat (a traditional
/// chain), so the last op on `key` wins. The walk covers the whole image,
/// so a malformed image fails with the same error as [`decode_delta`].
pub(crate) fn lookup_delta<'a>(
    buf: &'a [u8],
    key: &[u8],
) -> Result<Option<Option<&'a [u8]>>, PageCodecError> {
    let mut c = Cursor { buf, pos: 0 };
    let count = c.u32()?;
    let mut found = None;
    for _ in 0..count {
        let tag = c.u8()?;
        if tag > 1 {
            return Err(PageCodecError::UnknownOp(tag));
        }
        let k = c.slice()?;
        let op = if tag == 0 { Some(c.slice()?) } else { None };
        if k == key {
            found = Some(op);
        }
    }
    if !c.finished() {
        return Err(PageCodecError::Truncated);
    }
    Ok(found)
}

/// Applies `ops` over the sorted `base`, moving entries instead of copying
/// them. `ops` may be a traditional delta chain (oldest first, keys may
/// repeat): the newest op per key wins and a tombstone removes the entry.
pub(crate) fn apply_ops(base: Entries, mut ops: Vec<DeltaOp>) -> Entries {
    if ops.is_empty() {
        return base;
    }
    newest_per_key(&mut ops);
    let mut merged = Vec::with_capacity(base.len() + ops.len());
    merged.extend(Merge::new(base.into_iter(), ops.into_iter()));
    merged
}

/// Something ordered by a key: a page entry or a pending op.
pub(crate) trait Keyed {
    fn key(&self) -> &[u8];
}

impl Keyed for (Vec<u8>, Vec<u8>) {
    fn key(&self) -> &[u8] {
        &self.0
    }
}

impl Keyed for (&[u8], &[u8]) {
    fn key(&self) -> &[u8] {
        self.0
    }
}

impl Keyed for DeltaOp {
    fn key(&self) -> &[u8] {
        DeltaOp::key(self)
    }
}

impl Keyed for &DeltaOp {
    fn key(&self) -> &[u8] {
        DeltaOp::key(self)
    }
}

/// A pending op as it lands in a merged run: a put becomes an entry, a
/// tombstone becomes nothing.
pub(crate) trait Overlay: Keyed {
    type Entry;
    fn into_entry(self) -> Option<Self::Entry>;
}

impl Overlay for DeltaOp {
    type Entry = (Vec<u8>, Vec<u8>);
    fn into_entry(self) -> Option<Self::Entry> {
        match self {
            DeltaOp::Put { key, value } => Some((key, value)),
            DeltaOp::Delete { .. } => None,
        }
    }
}

impl<'a> Overlay for &'a DeltaOp {
    type Entry = (&'a [u8], &'a [u8]);
    fn into_entry(self) -> Option<Self::Entry> {
        match self {
            DeltaOp::Put { key, value } => Some((key, value)),
            DeltaOp::Delete { .. } => None,
        }
    }
}

/// Sorts a delta chain by key keeping only the newest op per key. The
/// sort is stable, so the last op of each run of equal keys is the newest.
fn newest_per_key<O: Keyed>(ops: &mut Vec<O>) {
    ops.sort_by(|a, b| a.key().cmp(b.key()));
    // `dedup_by` drops the later of two equal neighbours; swapping first
    // leaves the newer op in the kept slot.
    ops.dedup_by(|later, kept| {
        let same = later.key() == kept.key();
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

/// A page's pending ops with `key >= start`, in key order with the newest
/// op per key. A read-optimized delta is walked in place; a traditional
/// chain gets a sorted view of at most `consolidate_threshold` references.
pub(crate) enum PendingOps<'a> {
    Sorted(std::slice::Iter<'a, DeltaOp>),
    Chain(std::vec::IntoIter<&'a DeltaOp>),
}

impl<'a> PendingOps<'a> {
    pub(crate) fn from(pending: &'a [DeltaOp], start: &[u8]) -> Self {
        // Strictly ascending keys: a read-optimized delta, one op per key.
        if pending.windows(2).all(|w| w[0].key() < w[1].key()) {
            let first = pending.partition_point(|op| op.key() < start);
            return PendingOps::Sorted(pending[first..].iter());
        }
        let mut chain: Vec<&DeltaOp> = pending.iter().filter(|op| op.key() >= start).collect();
        newest_per_key(&mut chain);
        PendingOps::Chain(chain.into_iter())
    }
}

impl<'a> Iterator for PendingOps<'a> {
    type Item = &'a DeltaOp;

    fn next(&mut self) -> Option<&'a DeltaOp> {
        match self {
            PendingOps::Sorted(ops) => ops.next(),
            PendingOps::Chain(ops) => ops.next(),
        }
    }
}

/// One linear two-way merge of a sorted base run and sorted pending ops
/// with one op per key. An op replaces the base entry with its key, and a
/// tombstone drops it. Over borrowed inputs it copies nothing; over owned
/// inputs it moves every entry.
pub(crate) struct Merge<B: Iterator, O: Iterator> {
    base: std::iter::Peekable<B>,
    ops: std::iter::Peekable<O>,
}

impl<B: Iterator, O: Iterator> Merge<B, O> {
    pub(crate) fn new(base: B, ops: O) -> Self {
        Merge {
            base: base.peekable(),
            ops: ops.peekable(),
        }
    }
}

impl<B, O> Iterator for Merge<B, O>
where
    B: Iterator,
    B::Item: Keyed,
    O: Iterator,
    O::Item: Overlay<Entry = B::Item>,
{
    type Item = B::Item;

    fn next(&mut self) -> Option<B::Item> {
        loop {
            let order = match (self.base.peek(), self.ops.peek()) {
                (_, None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(entry), Some(op)) => entry.key().cmp(op.key()),
            };
            match order {
                Ordering::Less => return self.base.next(),
                // The op supersedes the base entry with the same key.
                Ordering::Equal => {
                    self.base.next();
                }
                Ordering::Greater => {}
            }
            if let Some(entry) = self.ops.next()?.into_entry() {
                return Some(entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kv(k: &str, v: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    fn put(k: &str, v: &str) -> DeltaOp {
        DeltaOp::Put {
            key: k.as_bytes().to_vec(),
            value: v.as_bytes().to_vec(),
        }
    }

    fn del(k: &str) -> DeltaOp {
        DeltaOp::Delete {
            key: k.as_bytes().to_vec(),
        }
    }

    #[test]
    fn base_page_round_trip() {
        let entries = vec![kv("a", "1"), kv("b", "2"), kv("c", "3")];
        let img = encode_base_page(&entries);
        assert_eq!(decode_base_page(&img).unwrap(), entries);
        assert_eq!(
            decode_base_page(&encode_base_page::<Vec<u8>, Vec<u8>>(&[])).unwrap(),
            vec![]
        );
    }

    #[test]
    fn delta_round_trip() {
        let ops = vec![put("a", "1"), del("b"), put("c", "33")];
        let img = encode_delta(&ops);
        assert_eq!(decode_delta(&img).unwrap(), ops);
    }

    /// A key the images hold and one they do not: the in-place lookups
    /// must fail the same way whichever they look for.
    const PROBES: [&[u8]; 2] = [b"k", b"zz"];

    #[test]
    fn truncated_images_error() {
        let img = encode_base_page(&[kv("k", "value")]);
        for cut in 0..img.len() {
            let err = decode_base_page(&img[..cut]).unwrap_err();
            for key in PROBES {
                assert_eq!(lookup_base(&img[..cut], key), Err(err.clone()), "cut {cut}");
            }
        }
        let dimg = encode_delta(&[put("k", "v")]);
        for cut in 0..dimg.len() {
            let err = decode_delta(&dimg[..cut]).unwrap_err();
            for key in PROBES {
                assert_eq!(
                    lookup_delta(&dimg[..cut], key),
                    Err(err.clone()),
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_op_tag_errors() {
        let mut img = encode_delta(&[del("k")]);
        img[4] = 7;
        assert_eq!(decode_delta(&img), Err(PageCodecError::UnknownOp(7)));
        for key in PROBES {
            assert_eq!(lookup_delta(&img, key), Err(PageCodecError::UnknownOp(7)));
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut img = encode_base_page(&[kv("k", "b")]);
        img.push(0);
        assert_eq!(decode_base_page(&img), Err(PageCodecError::Truncated));
        let mut dimg = encode_delta(&[put("k", "v")]);
        dimg.push(0);
        assert_eq!(decode_delta(&dimg), Err(PageCodecError::Truncated));
        for key in PROBES {
            assert_eq!(lookup_base(&img, key), Err(PageCodecError::Truncated));
            assert_eq!(lookup_delta(&dimg, key), Err(PageCodecError::Truncated));
        }
    }

    fn small_key() -> impl Strategy<Value = Vec<u8>> {
        // A three-letter alphabet and up to three bytes: the empty key,
        // shared prefixes and repeated keys all come up often.
        proptest::collection::vec(0u8..3, 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn in_place_lookups_equal_decode_then_search(
            entries in proptest::collection::vec(
                (small_key(), proptest::collection::vec(any::<u8>(), 0..3)),
                0..24,
            ),
            ops in proptest::collection::vec(
                prop_oneof![
                    3 => (small_key(), proptest::collection::vec(any::<u8>(), 0..3))
                        .prop_map(|(key, value)| DeltaOp::Put { key, value }),
                    1 => small_key().prop_map(|key| DeltaOp::Delete { key }),
                ],
                0..24,
            ),
            strangers in proptest::collection::vec(small_key(), 0..8),
        ) {
            // A base page holds each key once, in order.
            let entries: Entries = entries
                .into_iter()
                .collect::<std::collections::BTreeMap<_, _>>()
                .into_iter()
                .collect();
            let base_img = encode_base_page(&entries);
            let delta_img = encode_delta(&ops);
            let decoded = decode_base_page(&base_img).unwrap();
            let chain = decode_delta(&delta_img).unwrap();
            // Every key of either image, plus keys that may be in neither.
            let mut keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
            keys.extend(ops.iter().map(DeltaOp::key));
            keys.extend(strangers.iter().map(Vec::as_slice));
            for key in keys {
                let searched = decoded
                    .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                    .ok()
                    .map(|i| decoded[i].1.as_slice());
                prop_assert_eq!(lookup_base(&base_img, key), Ok(searched), "base {:?}", key);
                let newest = chain.iter().rev().find(|op| op.key() == key).map(|op| match op {
                    DeltaOp::Put { value, .. } => Some(value.as_slice()),
                    DeltaOp::Delete { .. } => None,
                });
                prop_assert_eq!(lookup_delta(&delta_img, key), Ok(newest), "delta {:?}", key);
            }
        }
    }

    #[test]
    fn apply_ops_overwrites_inserts_and_deletes() {
        let base = vec![kv("b", "old"), kv("d", "keep")];
        let merged = apply_ops(base, vec![put("a", "new"), put("b", "upd"), del("d")]);
        assert_eq!(merged, vec![kv("a", "new"), kv("b", "upd")]);
    }

    #[test]
    fn apply_ops_delete_of_absent_key_is_noop() {
        let base = vec![kv("a", "1")];
        assert_eq!(apply_ops(base.clone(), vec![del("zz")]), base);
    }

    #[test]
    fn newest_per_key_keeps_latest_per_key() {
        let mut chain = vec![put("a", "1"), del("b"), put("b", "2"), put("a", "3")];
        newest_per_key(&mut chain);
        assert_eq!(chain, vec![put("a", "3"), put("b", "2")]);
    }

    #[test]
    fn chain_apply_equals_sequential_apply() {
        let base = vec![kv("k1", "v"), kv("k3", "v")];
        let older = vec![put("k2", "x"), del("k1")];
        let newer = vec![put("k1", "back"), put("k2", "y")];
        let sequential = apply_ops(apply_ops(base.clone(), older.clone()), newer.clone());
        let chained = apply_ops(base, [older, newer].concat());
        assert_eq!(sequential, chained);
    }

    #[test]
    fn heap_size_accounts_key_and_value() {
        assert_eq!(put("ab", "cde").heap_size(), 5);
        assert_eq!(del("ab").heap_size(), 2);
    }

    #[test]
    fn encoded_delta_len_matches_the_encoding() {
        for ops in [vec![], vec![put("ab", "cde"), del("x"), put("", "")]] {
            assert_eq!(encoded_delta_len(&ops), encode_delta(&ops).len());
        }
    }
}
