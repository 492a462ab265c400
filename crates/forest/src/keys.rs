//! Key forms, and the routing decision between them.
//!
//! INIT-tree keys are `u16 group_len (BE) | group | item`. The big-endian
//! length prefix keeps all keys of one group contiguous (so a group scan is
//! a prefix scan) while remaining unambiguous for variable-length groups.
//! Dedicated trees store the bare `item` — dropping the group prefix is the
//! key-truncation space saving of §3.2.1. [`GroupRoute`] picks the form.

use bg3_bwtree::Entries;
use std::borrow::Cow;

/// Maximum supported group-id length.
pub const MAX_GROUP_LEN: usize = u16::MAX as usize;

/// Encodes `group ++ item` for the INIT tree.
///
/// # Panics
/// Panics if `group` exceeds [`MAX_GROUP_LEN`] bytes.
pub fn composite_key(group: &[u8], item: &[u8]) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + group.len() + item.len());
    push_group_prefix(&mut key, group);
    key.extend_from_slice(item);
    key
}

/// Appends `group`'s prefix (see [`group_prefix`]) to `out`, so a batch
/// can write many prefixes into one buffer.
///
/// # Panics
/// Panics if `group` exceeds [`MAX_GROUP_LEN`] bytes.
pub fn push_group_prefix(out: &mut Vec<u8>, group: &[u8]) {
    assert!(group.len() <= MAX_GROUP_LEN, "group id too long");
    out.extend_from_slice(&(group.len() as u16).to_be_bytes());
    out.extend_from_slice(group);
}

/// The prefix shared by every key of `group` — scan with this to enumerate
/// the group inside the INIT tree.
pub fn group_prefix(group: &[u8]) -> Vec<u8> {
    composite_key(group, &[])
}

/// Where one group lives (§3.2.1): a committed split-out group in its
/// dedicated tree under bare items, every other group in INIT under
/// [`composite_key`]s. The forest and a follower both route through this,
/// each over its own directory. `T` names a tree: a handle in the forest,
/// an id on a follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRoute<'g, T> {
    /// The group's dedicated tree.
    Dedicated(T),
    /// The INIT tree; the group is kept for its key prefix.
    Init(&'g [u8]),
}

impl<'g, T> GroupRoute<'g, T> {
    /// Routes `group`, given the dedicated tree its directory names, if any.
    pub fn new(group: &'g [u8], dedicated: Option<T>) -> Self {
        dedicated.map_or(GroupRoute::Init(group), GroupRoute::Dedicated)
    }

    /// The tree holding the group, given the INIT tree.
    pub fn tree<'a>(&'a self, init: &'a T) -> &'a T {
        match self {
            GroupRoute::Dedicated(tree) => tree,
            GroupRoute::Init(_) => init,
        }
    }

    /// The key `item` is stored under.
    pub fn key<'i>(&self, item: &'i [u8]) -> Cow<'i, [u8]> {
        match self {
            GroupRoute::Dedicated(_) => Cow::Borrowed(item),
            GroupRoute::Init(group) => Cow::Owned(composite_key(group, item)),
        }
    }

    /// The prefix of every key of the group (empty in a dedicated tree).
    pub fn prefix(&self) -> Vec<u8> {
        match self {
            GroupRoute::Dedicated(_) => Vec::new(),
            GroupRoute::Init(group) => group_prefix(group),
        }
    }

    /// Strips [`GroupRoute::prefix`] off scanned keys, in place.
    pub fn into_items(&self, mut entries: Entries) -> Entries {
        if let GroupRoute::Init(group) = self {
            for (key, _) in &mut entries {
                key.drain(..2 + group.len());
            }
        }
        entries
    }
}

impl GroupRoute<'_, u64> {
    /// The id of the tree holding the group.
    pub fn tree_id(&self) -> u64 {
        *self.tree(&(crate::INIT_TREE_ID as u64))
    }
}

/// Splits a composite key back into `(group, item)`. Returns `None` for
/// malformed keys.
pub fn decode_composite(key: &[u8]) -> Option<(&[u8], &[u8])> {
    if key.len() < 2 {
        return None;
    }
    let group_len = u16::from_be_bytes([key[0], key[1]]) as usize;
    if key.len() < 2 + group_len {
        return None;
    }
    Some((&key[2..2 + group_len], &key[2 + group_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let key = composite_key(b"user:42", b"video:7");
        let (g, i) = decode_composite(&key).unwrap();
        assert_eq!(g, b"user:42");
        assert_eq!(i, b"video:7");
    }

    #[test]
    fn empty_item_and_empty_group() {
        let k1 = composite_key(b"u", b"");
        assert_eq!(decode_composite(&k1), Some((&b"u"[..], &b""[..])));
        let k2 = composite_key(b"", b"x");
        assert_eq!(decode_composite(&k2), Some((&b""[..], &b"x"[..])));
    }

    #[test]
    fn groups_do_not_interleave() {
        // "a" items must never sort between "ab" items: the length prefix
        // separates them.
        let a_hi = composite_key(b"a", &[0xFF; 4]);
        let ab_lo = composite_key(b"ab", &[0x00]);
        assert!(a_hi < ab_lo, "group 'a' sorts wholly before group 'ab'");
    }

    #[test]
    fn prefix_matches_only_its_group() {
        let p = group_prefix(b"user1");
        assert!(composite_key(b"user1", b"v").starts_with(&p));
        assert!(!composite_key(b"user10", b"v").starts_with(&p));
        assert!(!composite_key(b"user2", b"v").starts_with(&p));
    }

    #[test]
    fn malformed_keys_decode_to_none() {
        assert_eq!(decode_composite(&[]), None);
        assert_eq!(decode_composite(&[0]), None);
        // Declared group length longer than the buffer.
        assert_eq!(decode_composite(&[0, 10, b'x']), None);
    }
}
