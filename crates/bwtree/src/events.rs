//! Logical mutation events emitted by a Bw-tree.
//!
//! The sync layer (bg3-sync) installs a [`TreeEventListener`] on the RW
//! node's trees and converts each event into a WAL record, which is how the
//! "entire Bw-tree split process" of Fig. 7 gets logged (LSNs 30–32 in the
//! paper's example). Keeping the tree decoupled from the WAL lets the same
//! tree code run standalone (micro-benchmarks) or replicated.

use std::sync::Arc;

/// One logical mutation, emitted after the corresponding flush succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeEvent {
    /// `key` now maps to `value` on `page`.
    Upsert {
        page: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// `key` was deleted from `page`.
    Delete { page: u64, key: Vec<u8> },
    /// `page` was consolidated; `image` is its full new base-page image.
    Consolidate { page: u64, image: Vec<u8> },
    /// `left` split: keys `>= separator` moved to new page `right`, whose
    /// full image is `right_image`. `left_image` is the remaining half.
    Split {
        left: u64,
        right: u64,
        separator: Vec<u8>,
        left_image: Vec<u8>,
        right_image: Vec<u8>,
    },
    /// Emitted by the *forest* (not a tree) once a split-out commits: the
    /// tree the event is reported under is now the dedicated tree for
    /// `group`. Ordered after the copied entries and before the INIT-tree
    /// deletes.
    ForestSplitOut { group: Vec<u8> },
}

/// Observer of tree mutations. Implementations must be cheap: they run on
/// the write path under the tree latch.
pub trait TreeEventListener: Send + Sync {
    /// Called once per logical mutation, in commit order for a given tree.
    fn on_event(&self, tree: u64, event: &TreeEvent);
}

/// A no-op listener (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullListener;

impl TreeEventListener for NullListener {
    fn on_event(&self, _tree: u64, _event: &TreeEvent) {}
}

/// A listener that records events in memory, for tests.
#[derive(Debug, Default)]
pub struct RecordingListener {
    events: parking_lot::Mutex<Vec<(u64, TreeEvent)>>,
}

impl RecordingListener {
    /// Creates an empty recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Drains and returns everything recorded so far.
    pub fn drain(&self) -> Vec<(u64, TreeEvent)> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TreeEventListener for RecordingListener {
    fn on_event(&self, tree: u64, event: &TreeEvent) {
        self.events.lock().push((tree, event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_listener_captures_in_order() {
        let rec = RecordingListener::new();
        assert!(rec.is_empty());
        rec.on_event(
            1,
            &TreeEvent::Upsert {
                page: 2,
                key: vec![1],
                value: vec![2],
            },
        );
        rec.on_event(
            1,
            &TreeEvent::Delete {
                page: 2,
                key: vec![1],
            },
        );
        assert_eq!(rec.len(), 2);
        let drained = rec.drain();
        assert!(matches!(drained[0].1, TreeEvent::Upsert { .. }));
        assert!(matches!(drained[1].1, TreeEvent::Delete { .. }));
        assert!(rec.is_empty());
    }

    #[test]
    fn null_listener_is_a_noop() {
        NullListener.on_event(
            0,
            &TreeEvent::Consolidate {
                page: 1,
                image: vec![],
            },
        );
    }
}
