//! WAL reader (RO-node side).

use crate::codec::decode_record;
use crate::record::{Lsn, WalRecord};
use bg3_storage::{AppendOnlyStore, PageAddr, StorageError, StorageOp, StorageResult};
use parking_lot::RwLock;
use std::sync::Arc;

/// Tails the shared-storage WAL: each call to [`WalReader::fetch_new`]
/// returns (and charges the read cost of) every record appended since the
/// previous call. Each RO node owns one reader; its position is private.
pub struct WalReader {
    store: AppendOnlyStore,
    index: Arc<RwLock<Vec<PageAddr>>>,
    /// Next index position to read (== LSN of the next record minus one).
    next: usize,
}

impl WalReader {
    pub(crate) fn new(store: AppendOnlyStore, index: Arc<RwLock<Vec<PageAddr>>>) -> Self {
        WalReader {
            store,
            index,
            next: 0,
        }
    }

    /// The LSN this reader has consumed up to (exclusive of what a
    /// subsequent `fetch_new` would return).
    pub fn position(&self) -> Lsn {
        Lsn(self.next as u64)
    }

    /// Reads every record the writer has published since the last call.
    /// Records arrive in LSN order.
    ///
    /// If a read fails partway through a batch, the successfully read
    /// prefix is *delivered* rather than discarded — the reader's position
    /// only ever covers records the caller received. The error itself is
    /// returned only when nothing could be read; a persistent fault
    /// re-surfaces on the next call.
    pub fn fetch_new(&mut self) -> StorageResult<Vec<WalRecord>> {
        let addrs: Vec<PageAddr> = {
            let guard = self.index.read();
            guard[self.next.min(guard.len())..].to_vec()
        };
        let mut out = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let record = self.store.read(addr).and_then(|bytes| {
                decode_record(&bytes)
                    .map_err(|_| StorageError::corrupt_record(StorageOp::WalReplay, addr))
            });
            match record {
                Ok(record) => {
                    out.push(record);
                    self.next += 1;
                }
                Err(e) if out.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(out)
    }

    /// True if the writer has records this reader has not consumed.
    pub fn has_new(&self) -> bool {
        self.index.read().len() > self.next
    }
}

impl std::fmt::Debug for WalReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalReader")
            .field("position", &self.position())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalPayload;
    use crate::writer::WalWriter;
    use bg3_storage::{obs::names, StoreBuilder, StoreConfig, StreamId};

    #[test]
    fn reader_sees_records_in_order_and_once() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let w = WalWriter::new(store);
        let mut r = w.open_reader();
        assert!(!r.has_new());
        assert!(r.fetch_new().unwrap().is_empty());

        for i in 0..3u64 {
            w.append(
                1,
                i,
                WalPayload::CheckpointComplete {
                    upto: i,
                    mapping_version: 0,
                },
            )
            .unwrap();
        }
        assert!(r.has_new());
        let batch = r.fetch_new().unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].lsn, Lsn(1));
        assert_eq!(batch[2].lsn, Lsn(3));
        assert_eq!(r.position(), Lsn(3));
        // Nothing new until the writer appends again.
        assert!(r.fetch_new().unwrap().is_empty());
        w.append(1, 9, WalPayload::Delete { key: vec![1] }).unwrap();
        assert_eq!(r.fetch_new().unwrap().len(), 1);
    }

    #[test]
    fn mid_batch_read_fault_delivers_the_prefix_without_losing_records() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // The 3rd WAL-stream read fails once. The batch must surface the
        // first two records; the rest arrive on the retry — none vanish.
        let plan = FaultPlan::seeded(7).with_rule(
            FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0)
                .on_stream(StreamId::WAL)
                .after(2)
                .at_most(1),
        );
        let store = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let w = WalWriter::new(store);
        let mut r = w.open_reader();
        for i in 0..5u64 {
            w.append(
                1,
                i,
                WalPayload::CheckpointComplete {
                    upto: i,
                    mapping_version: 0,
                },
            )
            .unwrap();
        }
        let prefix = r.fetch_new().unwrap();
        assert_eq!(prefix.len(), 2, "prefix before the fault is delivered");
        assert_eq!(
            r.position(),
            Lsn(2),
            "position covers only delivered records"
        );
        let rest = r.fetch_new().unwrap();
        assert_eq!(rest.len(), 3, "retry resumes at the faulted record");
        assert_eq!(rest[0].lsn, Lsn(3));
        assert_eq!(r.position(), Lsn(5));
    }

    #[test]
    fn leading_read_fault_is_an_error_and_retries_cleanly() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        let plan = FaultPlan::seeded(7).with_rule(
            FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0)
                .on_stream(StreamId::WAL)
                .at_most(1),
        );
        let store = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let w = WalWriter::new(store);
        let mut r = w.open_reader();
        w.append(
            1,
            1,
            WalPayload::CheckpointComplete {
                upto: 0,
                mapping_version: 0,
            },
        )
        .unwrap();
        let err = r.fetch_new().unwrap_err();
        assert!(err.is_transient());
        assert_eq!(r.position(), Lsn(0), "nothing consumed");
        assert_eq!(r.fetch_new().unwrap().len(), 1);
    }

    #[test]
    fn independent_readers_have_independent_positions() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let w = WalWriter::new(store);
        w.append(
            1,
            1,
            WalPayload::CheckpointComplete {
                upto: 0,
                mapping_version: 0,
            },
        )
        .unwrap();
        let mut r1 = w.open_reader();
        let mut r2 = w.open_reader();
        assert_eq!(r1.fetch_new().unwrap().len(), 1);
        w.append(
            1,
            2,
            WalPayload::CheckpointComplete {
                upto: 0,
                mapping_version: 0,
            },
        )
        .unwrap();
        assert_eq!(r1.fetch_new().unwrap().len(), 1);
        assert_eq!(r2.fetch_new().unwrap().len(), 2, "r2 reads from the start");
    }

    #[test]
    fn tailing_charges_storage_reads() {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let w = WalWriter::new(store.clone());
        let mut r = w.open_reader();
        w.append(
            1,
            1,
            WalPayload::CheckpointComplete {
                upto: 0,
                mapping_version: 0,
            },
        )
        .unwrap();
        let before = store.metrics_snapshot();
        r.fetch_new().unwrap();
        let after = store.metrics_snapshot();
        let delta = |name| after.counter(name).unwrap() - before.counter(name).unwrap();
        assert_eq!(
            delta(names::STORAGE_RANDOM_READS_TOTAL),
            1,
            "RO pays for reading the log"
        );
        let wal_bytes = store.stream_stats(StreamId::WAL).unwrap().valid_bytes;
        assert_eq!(delta(names::STORAGE_BYTES_READ_TOTAL), wal_bytes);
    }
}
