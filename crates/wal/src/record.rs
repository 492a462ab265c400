//! WAL record types.

use bg3_storage::SimInstant;
use std::fmt;

/// Log sequence number. Strictly increasing per [`crate::WalWriter`];
/// the paper's Fig. 7 example uses LSNs 30..=34.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The zero LSN, smaller than every real record.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// The logical content of one WAL record.
///
/// Page-scoped payloads (`Upsert`, `Delete`, `PageImage`, `NewPage`, `Split`)
/// carry the tree and page they apply to in the enclosing [`WalRecord`];
/// RO nodes index their in-memory log area by that page id (§3.4,
/// "I/O Efficiency").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// A key/value written into the page's delta.
    Upsert { key: Vec<u8>, value: Vec<u8> },
    /// A key deleted from the page.
    Delete { key: Vec<u8> },
    /// The page was consolidated/rewritten; `image` is its full new content
    /// in the Bw-tree page codec.
    PageImage { image: Vec<u8> },
    /// A brand-new page (e.g. the right half of a split, or a new root).
    /// RO nodes create it directly in memory — the old mapping cannot
    /// contain it (Fig. 7 step (6), page Q).
    NewPage { image: Vec<u8> },
    /// The page split: keys `>= separator` moved to `right_page`. Logged
    /// after the right page's `NewPage`, so the log never routes to a page
    /// whose image it lacks.
    Split { right_page: u64, separator: Vec<u8> },
    /// Shared storage now reflects every modification up to (and including)
    /// LSN `upto`: the dirty pages were flushed and the mapping table
    /// published as `mapping_version`. ROs may discard lazy-replay records
    /// with LSN `<= upto`, and must adopt exactly `mapping_version` for
    /// cold reads — the live table may already run ahead of their replay.
    CheckpointComplete { upto: u64, mapping_version: u64 },
    /// The forest committed a split-out: the enclosing record's `tree` is
    /// now the dedicated tree for `group`. Logged *after* the copy and
    /// *before* the INIT-tree deletes, so every prefix of the log is a
    /// consistent cut: before this record the INIT tree is authoritative
    /// and the half-built tree an ignorable orphan; after it the dedicated
    /// tree is, and recovery deletes the group's leftover INIT entries.
    /// RO followers route the group's reads to the tree from this record on.
    ForestSplitOut { group: Vec<u8> },
}

impl WalPayload {
    /// Numeric tag used by the codec.
    pub(crate) fn kind_tag(&self) -> u8 {
        match self {
            WalPayload::Upsert { .. } => 0,
            WalPayload::Delete { .. } => 1,
            WalPayload::PageImage { .. } => 2,
            WalPayload::NewPage { .. } => 3,
            WalPayload::Split { .. } => 4,
            WalPayload::CheckpointComplete { .. } => 5,
            WalPayload::ForestSplitOut { .. } => 6,
        }
    }

    /// Whether the payload mutates a specific page (and therefore belongs in
    /// an RO node's page-indexed log area).
    pub fn is_page_scoped(&self) -> bool {
        !matches!(
            self,
            WalPayload::CheckpointComplete { .. } | WalPayload::ForestSplitOut { .. }
        )
    }
}

/// One WAL record: an LSN, the tree/page it applies to, a timestamp from the
/// RW node's clock (used to measure leader-follower latency), and the
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number assigned by the writer.
    pub lsn: Lsn,
    /// Leadership epoch of the writer (fencing token). Monotonically
    /// non-decreasing along the log; a record with a *lower* epoch than one
    /// before it is a zombie artifact and must be ignored by replay.
    pub epoch: u64,
    /// Bw-tree the record belongs to (forest member id).
    pub tree: u64,
    /// Page the record applies to (0 for records that are not page-scoped).
    pub page: u64,
    /// RW-node clock time when the record was created.
    pub timestamp: SimInstant,
    /// Logical content.
    pub payload: WalPayload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_next() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(1).next(), Lsn(2));
        assert_eq!(Lsn::ZERO.next(), Lsn(1));
        assert_eq!(Lsn(7).to_string(), "lsn:7");
    }

    #[test]
    fn page_scoped_classification() {
        assert!(WalPayload::Upsert {
            key: vec![],
            value: vec![]
        }
        .is_page_scoped());
        assert!(WalPayload::Split {
            right_page: 1,
            separator: vec![]
        }
        .is_page_scoped());
        assert!(!WalPayload::CheckpointComplete {
            upto: 3,
            mapping_version: 0
        }
        .is_page_scoped());
        assert!(!WalPayload::ForestSplitOut { group: vec![7] }.is_page_scoped());
    }

    #[test]
    fn kind_tags_are_distinct() {
        let payloads = [
            WalPayload::Upsert {
                key: vec![1],
                value: vec![2],
            },
            WalPayload::Delete { key: vec![1] },
            WalPayload::PageImage { image: vec![] },
            WalPayload::NewPage { image: vec![] },
            WalPayload::Split {
                right_page: 9,
                separator: vec![3],
            },
            WalPayload::CheckpointComplete {
                upto: 1,
                mapping_version: 0,
            },
            WalPayload::ForestSplitOut { group: vec![4] },
        ];
        let mut tags: Vec<u8> = payloads.iter().map(|p| p.kind_tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), payloads.len());
    }
}
