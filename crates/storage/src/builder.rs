//! The single construction path for [`AppendOnlyStore`].
//!
//! One builder gathers the clock, the backend, the cache capacity, and the
//! fault schedule, then [`StoreBuilder::open`] runs bootstrap recovery
//! against whatever the backend already holds. For the in-memory default
//! nothing can fail and [`StoreBuilder::build`] unwraps for ergonomics;
//! file-backed stores should call `open` and handle the error.

use crate::backend::{BackendKind, ExtentBackend};
use crate::clock::SimClock;
use crate::error::StorageResult;
use crate::fault::FaultPlan;
use crate::store::{AppendOnlyStore, StoreConfig};
use bg3_cache::CacheConfig;
use std::sync::Arc;

/// Builder for [`AppendOnlyStore`]. Start from [`StoreBuilder::new`] (the
/// default config) or [`StoreBuilder::from_config`], chain overrides, then
/// [`StoreBuilder::open`] (fallible: real backends, bootstrap recovery) or
/// [`StoreBuilder::build`] (infallible convenience for sim stores).
#[derive(Debug)]
pub struct StoreBuilder {
    config: StoreConfig,
    clock: Option<SimClock>,
    backend: Option<Arc<dyn ExtentBackend>>,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreBuilder {
    /// Builder over [`StoreConfig::default`].
    pub fn new() -> Self {
        Self::from_config(StoreConfig::default())
    }

    /// Builder over an existing config.
    pub fn from_config(config: StoreConfig) -> Self {
        StoreBuilder {
            config,
            clock: None,
            backend: None,
        }
    }

    /// Builder over [`StoreConfig::counting`] (zero latency, counting-only
    /// experiments).
    pub fn counting() -> Self {
        Self::from_config(StoreConfig::counting())
    }

    /// Shares an existing simulated clock (replication topologies where
    /// several nodes advance one timeline).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Uses an already-instantiated backend. This is how several stores
    /// attach to one shared storage service (the `Arc` is cloned per
    /// store), and how tests inject a backend directly. Takes precedence
    /// over [`StoreBuilder::backend_kind`].
    pub fn backend(mut self, backend: Arc<dyn ExtentBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Selects the backend by kind; [`StoreBuilder::open`] instantiates it.
    pub fn backend_kind(mut self, kind: BackendKind) -> Self {
        self.config.backend = kind;
        self
    }

    /// Overrides the extent capacity.
    pub fn extent_capacity(mut self, capacity: usize) -> Self {
        self.config.extent_capacity = capacity;
        self
    }

    /// Disables the page cache (raw storage reads on every lookup).
    pub fn without_cache(mut self) -> Self {
        self.config.cache = CacheConfig::disabled();
        self
    }

    /// Installs a fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Opens the store: instantiates the backend (unless one was injected),
    /// then rebuilds the metadata plane from whatever it already holds —
    /// the crash-recovery path for file-backed stores, a no-op walk for a
    /// fresh backend.
    pub fn open(self) -> StorageResult<AppendOnlyStore> {
        let backend = match self.backend {
            Some(backend) => backend,
            None => self.config.backend.create()?,
        };
        let clock = self.clock.unwrap_or_default();
        AppendOnlyStore::open_internal(self.config, clock, backend)
    }

    /// Opens the store, panicking on failure. Safe for simulated backends
    /// (which cannot fail to open); file-backed stores should prefer
    /// [`StoreBuilder::open`].
    pub fn build(self) -> AppendOnlyStore {
        self.open()
            .expect("store open failed; use StoreBuilder::open for fallible backends")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::StreamId;
    use crate::backend::SimBackend;

    #[test]
    fn builder_defaults_match_config_defaults() {
        let store = StoreBuilder::new().extent_capacity(128).build();
        assert_eq!(store.extent_capacity(), 128);
        assert_eq!(store.backend().name(), "sim");
    }

    #[test]
    fn injected_backend_is_shared() {
        let backend = Arc::new(SimBackend::new());
        let store = StoreBuilder::counting().backend(backend.clone()).build();
        let addr = store.append(StreamId::BASE, b"persisted", 1, None).unwrap();
        assert_eq!(&store.read(addr).unwrap()[..], b"persisted");
        // A second store over the same backend recovers the record.
        let reopened = StoreBuilder::counting().backend(backend).build();
        let scanned = reopened.scan_stream(StreamId::BASE).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(&scanned[0].2[..], b"persisted");
        assert_eq!(scanned[0].1, 1, "tag recovered from the frame");
    }

    #[test]
    fn bootstrap_skips_torn_tails() {
        let backend = Arc::new(SimBackend::new());
        let store = StoreBuilder::counting().backend(backend.clone()).build();
        let a = store.append(StreamId::WAL, b"first", 10, None).unwrap();
        let b = store.append(StreamId::WAL, b"second", 11, None).unwrap();
        assert_eq!(a.extent, b.extent);
        // Corrupt the second frame's stored bytes directly: recovery must
        // stop the walk there and keep only the first record.
        store.corrupt_record_bit(b, 40).unwrap();
        let reopened = StoreBuilder::counting().backend(backend).build();
        let scanned = reopened.scan_stream(StreamId::WAL).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(&scanned[0].2[..], b"first");
    }

    #[test]
    fn recovered_extents_are_sealed_and_ids_advance() {
        let backend = Arc::new(SimBackend::new());
        let store = StoreBuilder::counting()
            .backend(backend.clone())
            .extent_capacity(8)
            .build();
        let a = store.append(StreamId::BASE, &[1u8; 8], 0, None).unwrap();
        let b = store.append(StreamId::BASE, &[2u8; 8], 0, None).unwrap();
        let reopened = StoreBuilder::counting()
            .backend(backend)
            .extent_capacity(8)
            .build();
        for info in reopened.extent_infos(StreamId::BASE).unwrap() {
            assert_eq!(info.state, crate::extent::ExtentState::Sealed);
        }
        // Fresh appends land in a brand-new extent with a higher id.
        let c = reopened.append(StreamId::BASE, &[3u8; 8], 0, None).unwrap();
        assert!(c.extent.0 > a.extent.0.max(b.extent.0));
        assert!(c.record.0 > a.record.0.max(b.record.0));
    }
}
