//! Composite key encoding for the INIT tree.
//!
//! INIT-tree keys are `u16 group_len (BE) | group | item`. The big-endian
//! length prefix keeps all keys of one group contiguous (so a group scan is
//! a prefix scan) while remaining unambiguous for variable-length groups.
//! Dedicated trees store the bare `item` — dropping the group prefix is the
//! key-truncation space saving of §3.2.1.

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
