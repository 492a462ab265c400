//! Bridges Bw-tree mutation events into WAL records.

use bg3_bwtree::{TreeEvent, TreeEventListener};
use bg3_storage::StorageResult;
use bg3_wal::{WalPayload, WalWriter};
use std::sync::Arc;

/// A [`TreeEventListener`] that logs every mutation to the WAL before the
/// tree applies it — establishing the write-ahead property. A failed
/// append (ENOSPC, a failed fsync, a poisoned or fenced log) is returned to
/// the tree, which then leaves the mutation unapplied.
///
/// Event → record mapping:
///
/// | event                | WAL records                                    |
/// |----------------------|------------------------------------------------|
/// | `Upsert`             | `Upsert` on the page                           |
/// | `Delete`             | `Delete` on the page                           |
/// | `Consolidate`        | `PageImage` on the page                        |
/// | `Split`              | `NewPage` on the right page + `Split` on left  |
/// | `ForestSplitOut`     | `ForestSplitOut` on page 0                     |
///
/// A split therefore produces multiple consecutive LSNs, like LSNs 30–32 in
/// the paper's Fig. 7 walk-through. The right page's image comes first: a
/// failure between the two leaves only a `NewPage` on a page no `Split`
/// routes to, which replay drops, and never a `Split` whose right half is
/// missing from the log.
pub struct WalListener {
    wal: Arc<WalWriter>,
}

impl WalListener {
    /// Wraps a WAL writer.
    pub fn new(wal: Arc<WalWriter>) -> Arc<Self> {
        Arc::new(WalListener { wal })
    }

    /// The underlying writer.
    pub fn wal(&self) -> &Arc<WalWriter> {
        &self.wal
    }
}

impl TreeEventListener for WalListener {
    fn on_event(&self, tree: u64, event: &TreeEvent) -> StorageResult<()> {
        let result = match event {
            TreeEvent::Upsert { page, key, value } => self.wal.append(
                tree,
                *page,
                WalPayload::Upsert {
                    key: key.clone(),
                    value: value.clone(),
                },
            ),
            TreeEvent::Delete { page, key } => {
                self.wal
                    .append(tree, *page, WalPayload::Delete { key: key.clone() })
            }
            TreeEvent::Consolidate { page, image } => self.wal.append(
                tree,
                *page,
                WalPayload::PageImage {
                    image: image.clone(),
                },
            ),
            TreeEvent::Split {
                left,
                right,
                separator,
                right_image,
                ..
            } => self
                .wal
                .append(
                    tree,
                    *right,
                    WalPayload::NewPage {
                        image: right_image.clone(),
                    },
                )
                .and_then(|_| {
                    self.wal.append(
                        tree,
                        *left,
                        WalPayload::Split {
                            right_page: *right,
                            separator: separator.clone(),
                        },
                    )
                }),
            TreeEvent::ForestSplitOut { group } => self.wal.append(
                tree,
                0,
                WalPayload::ForestSplitOut {
                    group: group.clone(),
                },
            ),
        };
        result.map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::{StoreBuilder, StoreConfig};
    use bg3_wal::Lsn;

    #[test]
    fn events_become_ordered_wal_records() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let wal = Arc::new(WalWriter::new(store));
        let listener = WalListener::new(Arc::clone(&wal));
        listener
            .on_event(
                3,
                &TreeEvent::Upsert {
                    page: 1,
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                },
            )
            .unwrap();
        listener
            .on_event(
                3,
                &TreeEvent::Split {
                    left: 1,
                    right: 2,
                    separator: b"m".to_vec(),
                    left_image: vec![0, 0, 0, 0],
                    right_image: vec![0, 0, 0, 0],
                },
            )
            .unwrap();
        assert_eq!(wal.last_lsn(), Lsn(3), "upsert + new-page + split");
        let mut reader = wal.open_reader();
        let records = reader.fetch_new().unwrap();
        assert!(matches!(records[0].payload, WalPayload::Upsert { .. }));
        assert!(matches!(records[1].payload, WalPayload::NewPage { .. }));
        assert!(matches!(records[2].payload, WalPayload::Split { .. }));
        assert_eq!(records[1].page, 2, "new page indexed on the right page");
        assert_eq!(records[2].page, 1, "split indexed on the left page");
    }
}
