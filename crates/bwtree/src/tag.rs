//! Relocation tags and mapping keys.
//!
//! Every record a Bw-tree appends to the shared store carries a 64-bit
//! owner tag so that, when the space reclaimer moves the record, the engine
//! can route the address fix-up back to the right tree and page. The tag
//! packs `tree_id` (high 32 bits) and `page_id` (low 32 bits).
//!
//! A page's merged delta record is tagged with bit 31 of the page half set
//! ([`PageTag::delta`]). The same value is the delta's key in the shared
//! mapping table, next to the base image's key, so page ids stay below
//! 2^31.

/// Bit 31 of the page half: set on a page's delta tag, never on a page id.
pub(crate) const DELTA_BIT: u32 = 1 << 31;

/// Decoded relocation tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageTag {
    /// Owning tree within the forest.
    pub tree: u32,
    /// Page within the tree, with bit 31 set on a delta's tag.
    pub page: u32,
}

impl PageTag {
    /// The tag of `page`'s merged delta record (and its mapping key).
    ///
    /// # Panics
    /// When `page` already uses bit 31.
    pub fn delta(tree: u32, page: u32) -> PageTag {
        assert!(page < DELTA_BIT, "page id {page} reaches the delta bit");
        PageTag {
            tree,
            page: page | DELTA_BIT,
        }
    }

    /// The page the tagged record belongs to: the page half with the delta
    /// bit stripped.
    pub fn page_id(self) -> u32 {
        self.page & !DELTA_BIT
    }

    /// Packs the tag into the u64 the storage layer carries.
    pub fn encode(self) -> u64 {
        ((self.tree as u64) << 32) | self.page as u64
    }

    /// Unpacks a storage tag.
    pub fn decode(raw: u64) -> PageTag {
        PageTag {
            tree: (raw >> 32) as u32,
            page: raw as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for (tree, page) in [(0, 0), (1, 2), (u32::MAX, u32::MAX), (7, u32::MAX)] {
            let tag = PageTag { tree, page };
            assert_eq!(PageTag::decode(tag.encode()), tag);
        }
    }

    #[test]
    fn fields_do_not_bleed() {
        let tag = PageTag {
            tree: 0xAABBCCDD,
            page: 0x11223344,
        };
        assert_eq!(tag.encode(), 0xAABBCCDD_11223344);
    }

    #[test]
    fn delta_key_round_trips_to_its_page() {
        for (tree, page) in [(0, 0), (1, 1), (u32::MAX, DELTA_BIT - 1)] {
            let base = PageTag { tree, page };
            let delta = PageTag::delta(tree, page);
            assert_ne!(delta.encode(), base.encode(), "distinct mapping keys");
            let decoded = PageTag::decode(delta.encode());
            assert_eq!(decoded, delta);
            assert_eq!(decoded.page, page | DELTA_BIT, "delta bit set");
            assert_eq!((decoded.tree, decoded.page_id()), (tree, page));
            assert_eq!(base.page_id(), page);
        }
    }

    #[test]
    #[should_panic(expected = "reaches the delta bit")]
    fn page_ids_at_bit_31_are_rejected() {
        PageTag::delta(1, DELTA_BIT);
    }
}
