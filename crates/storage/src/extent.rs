//! Extents: the unit of space reclamation.
//!
//! Each stream's data is partitioned into uniformly sized extents (ArkDB's
//! design, adopted by BG3 in §3.3). The extent tracks exactly the per-extent
//! metadata the paper's *Extent Usage Tracking* structure records:
//!
//! 1. the latest update time in the extent,
//! 2. the total number of invalid pages (→ fragmentation rate),
//! 3. a history of `(time, invalid-count)` samples (→ update gradient),
//! 4. the extent-level TTL deadline, derived from the newest record's
//!    timestamp plus the workload's expiration period.

use crate::addr::RecordId;
use crate::clock::SimInstant;
use crate::frame::FRAME_HEADER_LEN;
use serde::{Deserialize, Serialize};

/// One record slot within an extent.
#[derive(Debug, Clone)]
pub(crate) struct RecordSlot {
    pub record: RecordId,
    pub offset: u32,
    pub len: u32,
    pub valid: bool,
    /// True when this record was written by space reclamation (a relocated
    /// survivor). If it later becomes invalid, the relocation was wasted
    /// I/O — the quantity Fig. 5 argues about.
    pub relocated: bool,
    /// Opaque tag the owner (e.g. the Bw-tree) attached at append time; it is
    /// handed back during relocation so the owner can fix up its mapping.
    pub tag: u64,
    /// This record's own TTL deadline, which a relocated copy keeps.
    pub expires_at: Option<SimInstant>,
}

/// Lifecycle state of an extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtentState {
    /// Still receiving appends.
    Open,
    /// Full; eligible for space reclamation.
    Sealed,
    /// Freed (relocated or expired). Kept as a tombstone for bookkeeping.
    Reclaimed,
}

/// One `(time, invalid-count)` observation, the raw material of the update
/// gradient (§3.3, Fig. 5: gradient = Δinvalid / Δtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageSample {
    /// When the invalidation was observed.
    pub at: SimInstant,
    /// Total invalid records in the extent at that moment.
    pub invalid: u64,
}

/// The in-memory *metadata* of one extent. The physical bytes — a
/// sequence of framed records (28-byte checksummed header, then payload;
/// see [`crate::frame`]) — live in the store's
/// [`crate::ExtentBackend`]. Slot offsets point at payloads; the frame
/// header sits in the `FRAME_HEADER_LEN` bytes before each offset.
#[derive(Debug)]
pub(crate) struct Extent {
    /// Physical write cursor: total framed bytes (headers + payloads)
    /// appended to the backend so far. The next frame starts here.
    pub physical_len: u64,
    pub capacity: usize,
    pub slots: Vec<RecordSlot>,
    pub state: ExtentState,
    pub valid_count: u64,
    pub invalid_count: u64,
    pub valid_bytes: u64,
    /// Logical (payload) bytes appended. Capacity accounting is payload-
    /// based: frame headers are integrity metadata, invisible to record
    /// packing and to every space statistic, so experiment numbers do not
    /// drift with the header size.
    pub payload_used: u64,
    /// Set when scrubbing found a frame that fails verification. Reads
    /// fail fast ([`crate::ErrorKind::ExtentQuarantined`]) and GC refuses
    /// to relocate or expire the extent until it has been repaired.
    pub quarantined: bool,
    pub last_update: SimInstant,
    pub created_at: SimInstant,
    /// Bounded history of invalidation samples, oldest first.
    pub usage_history: Vec<UsageSample>,
    /// Expiry deadline of the *newest* record, if every record carried a
    /// TTL. One record without a TTL keeps the extent alive for good.
    pub ttl_deadline: Option<SimInstant>,
    /// A record without a TTL landed here: the extent never expires.
    pub untimed: bool,
}

/// How many `(time, invalid)` samples we retain per extent. Two suffice for
/// the gradient; a few more smooth bursty workloads.
const USAGE_HISTORY_CAP: usize = 16;

impl Extent {
    pub fn new(capacity: usize, now: SimInstant) -> Self {
        Extent {
            physical_len: 0,
            capacity,
            slots: Vec::new(),
            state: ExtentState::Open,
            valid_count: 0,
            invalid_count: 0,
            valid_bytes: 0,
            payload_used: 0,
            quarantined: false,
            last_update: now,
            created_at: now,
            usage_history: Vec::new(),
            ttl_deadline: None,
            untimed: false,
        }
    }

    /// Remaining append capacity in payload bytes.
    pub fn remaining(&self) -> usize {
        self.capacity - self.payload_used as usize
    }

    /// Records a framed append of `len` payload bytes: advances the
    /// physical cursor past header + payload and registers the slot. The
    /// caller has verified the payload fits and writes the actual frame
    /// to the backend at the pre-advance cursor. Returns the payload
    /// offset (cursor + header).
    pub fn push_slot(
        &mut self,
        record: RecordId,
        len: u32,
        tag: u64,
        now: SimInstant,
        expires_at: Option<SimInstant>,
        relocated: bool,
    ) -> u32 {
        debug_assert!(len as usize <= self.remaining());
        let offset = self.physical_len as u32 + FRAME_HEADER_LEN as u32;
        self.physical_len += FRAME_HEADER_LEN as u64 + len as u64;
        self.payload_used += len as u64;
        self.slots.push(RecordSlot {
            record,
            offset,
            len,
            valid: true,
            relocated,
            tag,
            expires_at,
        });
        self.valid_count += 1;
        self.valid_bytes += len as u64;
        self.last_update = now;
        match expires_at {
            // The extent expires when its newest record expires: timestamps
            // within an extent are near-identical at ByteDance scale (§3.3),
            // so the max is a tight bound.
            Some(deadline) if !self.untimed => {
                self.ttl_deadline = Some(match self.ttl_deadline {
                    Some(existing) => existing.max(deadline),
                    None => deadline,
                });
            }
            Some(_) => {}
            None => {
                self.untimed = true;
                self.ttl_deadline = None;
            }
        }
        offset
    }

    /// Marks the slot at `offset` invalid. Returns `None` if it was already
    /// invalid or unknown; otherwise `Some(bytes_wasted)` where the value is
    /// the record length if it had been written by relocation (wasted
    /// background I/O) and 0 otherwise.
    pub fn invalidate(&mut self, offset: u32, now: SimInstant) -> Option<u64> {
        // Slots are appended in strictly increasing offset order.
        let Ok(idx) = self.slots.binary_search_by_key(&offset, |s| s.offset) else {
            return None;
        };
        let slot = &mut self.slots[idx];
        if !slot.valid {
            return None;
        }
        slot.valid = false;
        self.valid_count -= 1;
        self.invalid_count += 1;
        self.valid_bytes -= slot.len as u64;
        self.last_update = now;
        if self.usage_history.len() == USAGE_HISTORY_CAP {
            self.usage_history.remove(0);
        }
        self.usage_history.push(UsageSample {
            at: now,
            invalid: self.invalid_count,
        });
        let slot = &self.slots[idx];
        Some(if slot.relocated { slot.len as u64 } else { 0 })
    }

    /// Fragmentation rate: invalid records over total records. An extent with
    /// no records is 0.0 (nothing to reclaim).
    pub fn fragmentation_rate(&self) -> f64 {
        let total = self.valid_count + self.invalid_count;
        if total == 0 {
            0.0
        } else {
            self.invalid_count as f64 / total as f64
        }
    }

    /// Update gradient: invalidations per simulated second over the window
    /// from the oldest recorded sample to `now` (§3.3:
    /// `(invalid_t1 - invalid_t0) / (t1 - t0)`, evaluated at decision time).
    ///
    /// Measuring against *now* (rather than the last sample) makes the
    /// gradient decay once an extent stops receiving invalidations — an
    /// extent that churned heavily last week but is quiet today is cold,
    /// which is exactly what Fig. 5's Extent C looks like at `t1`.
    pub fn update_gradient(&self, now: SimInstant) -> f64 {
        let (Some(first), Some(last)) = (self.usage_history.first(), self.usage_history.last())
        else {
            return 0.0;
        };
        let di = last.invalid.saturating_sub(first.invalid) as f64;
        let dt = now
            .duration_since(first.at)
            .max(last.at.duration_since(first.at));
        if dt == 0 {
            // A burst of invalidations within one instant is "infinitely hot"
            // relative to the window, but only if something actually changed.
            return if di > 0.0 { f64::INFINITY } else { 0.0 };
        }
        di / (dt as f64 / 1e9)
    }

    /// Produces the public snapshot GC policies consume, evaluated at `now`.
    pub fn info(
        &self,
        id: crate::addr::ExtentId,
        stream: crate::addr::StreamId,
        now: SimInstant,
    ) -> ExtentInfo {
        ExtentInfo {
            id,
            stream,
            state: self.state,
            quarantined: self.quarantined,
            valid_records: self.valid_count,
            invalid_records: self.invalid_count,
            valid_bytes: self.valid_bytes,
            capacity: self.capacity as u64,
            used_bytes: self.payload_used,
            fragmentation_rate: self.fragmentation_rate(),
            update_gradient: self.update_gradient(now),
            last_update: self.last_update,
            created_at: self.created_at,
            ttl_deadline: self.ttl_deadline,
        }
    }
}

/// Public, policy-facing view of one extent's usage tracking data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtentInfo {
    /// Extent identity.
    pub id: crate::addr::ExtentId,
    /// Stream the extent belongs to.
    pub stream: crate::addr::StreamId,
    /// Lifecycle state.
    pub state: ExtentState,
    /// Scrubbing found corruption; the extent is read-fenced and must be
    /// repaired (not relocated or expired) before its space is reclaimed.
    pub quarantined: bool,
    /// Records still valid.
    pub valid_records: u64,
    /// Records invalidated by out-of-place updates/deletes.
    pub invalid_records: u64,
    /// Bytes still valid (these are what relocation must rewrite).
    pub valid_bytes: u64,
    /// Extent capacity in bytes.
    pub capacity: u64,
    /// Bytes appended so far.
    pub used_bytes: u64,
    /// invalid / (valid + invalid).
    pub fragmentation_rate: f64,
    /// Invalidations per simulated second (0.0 = cold).
    pub update_gradient: f64,
    /// Timestamp of the most recent append or invalidation.
    pub last_update: SimInstant,
    /// When the extent was opened.
    pub created_at: SimInstant,
    /// If set, every record in the extent is dead once this instant passes.
    pub ttl_deadline: Option<SimInstant>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ExtentId, StreamId};
    use crate::frame::FRAME_HEADER_LEN;

    fn ext() -> Extent {
        Extent::new(1024, SimInstant(0))
    }

    #[test]
    fn push_tracks_counts_and_bytes() {
        let mut e = ext();
        let off0 = e.push_slot(RecordId(0), 5, 1, SimInstant(10), None, false);
        let off1 = e.push_slot(RecordId(1), 6, 2, SimInstant(20), None, false);
        // Offsets point at payloads; each is preceded by its frame header.
        assert_eq!(off0, FRAME_HEADER_LEN as u32);
        assert_eq!(off1, 2 * FRAME_HEADER_LEN as u32 + 5);
        assert_eq!(e.valid_count, 2);
        assert_eq!(e.valid_bytes, 11);
        assert_eq!(e.remaining(), 1024 - 11);
        assert_eq!(e.last_update, SimInstant(20));
    }

    #[test]
    fn invalidate_flips_exactly_once() {
        let mut e = ext();
        let off = e.push_slot(RecordId(0), 3, 0, SimInstant(0), None, false);
        assert!(e.invalidate(off, SimInstant(5)).is_some());
        assert!(
            e.invalidate(off, SimInstant(6)).is_none(),
            "double invalidation"
        );
        assert!(e.invalidate(999, SimInstant(7)).is_none(), "unknown offset");
        assert_eq!(e.valid_count, 0);
        assert_eq!(e.invalid_count, 1);
        assert_eq!(e.valid_bytes, 0);
    }

    #[test]
    fn fragmentation_rate_matches_paper_example() {
        // Fig. 5: extents A and B with 3 invalid out of 5 → 3/5.
        let mut e = ext();
        let offs: Vec<u32> = (0..5)
            .map(|i| e.push_slot(RecordId(i), 1, 0, SimInstant(0), None, false))
            .collect();
        for &o in &offs[..3] {
            e.invalidate(o, SimInstant(1));
        }
        assert!((e.fragmentation_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn update_gradient_matches_paper_example() {
        // Fig. 5: Extent A has 1 invalid page at t0 and 3 at t1 → (3-1)/(t1-t0).
        let mut e = ext();
        let offs: Vec<u32> = (0..5)
            .map(|i| e.push_slot(RecordId(i), 1, 0, SimInstant(0), None, false))
            .collect();
        let t0 = SimInstant(1_000_000_000); // 1s
        let t1 = SimInstant(3_000_000_000); // 3s
        e.invalidate(offs[0], t0);
        e.invalidate(offs[1], t1);
        e.invalidate(offs[2], t1);
        // From (t0, 1) to (t1, 3): gradient = 2 invalidations / 2 seconds.
        assert!((e.update_gradient(t1) - 1.0).abs() < 1e-9);
        // Evaluated much later with no new invalidations, the extent cools.
        assert!(e.update_gradient(SimInstant(21_000_000_000)) < 0.2);
    }

    #[test]
    fn gradient_of_cold_extent_is_zero() {
        let mut e = ext();
        let off = e.push_slot(RecordId(0), 1, 0, SimInstant(0), None, false);
        assert_eq!(e.update_gradient(SimInstant(0)), 0.0);
        // One sample only: still zero.
        e.invalidate(off, SimInstant(10));
        assert_eq!(e.update_gradient(SimInstant(10)), 0.0);
    }

    #[test]
    fn gradient_burst_at_same_instant_is_infinite() {
        let mut e = ext();
        let offs: Vec<u32> = (0..3)
            .map(|i| e.push_slot(RecordId(i), 1, 0, SimInstant(0), None, false))
            .collect();
        for &o in &offs {
            e.invalidate(o, SimInstant(42));
        }
        assert!(e.update_gradient(SimInstant(42)).is_infinite());
        // The same burst, judged one second later, has cooled off.
        assert!(e.update_gradient(SimInstant(1_000_000_042)).is_finite());
    }

    #[test]
    fn ttl_deadline_takes_newest_record() {
        let mut e = ext();
        e.push_slot(
            RecordId(0),
            1,
            0,
            SimInstant(0),
            Some(SimInstant(100)),
            false,
        );
        e.push_slot(
            RecordId(1),
            1,
            0,
            SimInstant(1),
            Some(SimInstant(50)),
            false,
        );
        assert_eq!(e.ttl_deadline, Some(SimInstant(100)));
        e.push_slot(
            RecordId(2),
            1,
            0,
            SimInstant(2),
            Some(SimInstant(200)),
            false,
        );
        assert_eq!(e.ttl_deadline, Some(SimInstant(200)));
    }

    #[test]
    fn usage_history_is_bounded() {
        let mut e = Extent::new(1 << 16, SimInstant(0));
        let offs: Vec<u32> = (0..64)
            .map(|i| e.push_slot(RecordId(i), 1, 0, SimInstant(0), None, false))
            .collect();
        for (i, &o) in offs.iter().enumerate() {
            e.invalidate(o, SimInstant(i as u64 + 1));
        }
        assert_eq!(e.usage_history.len(), USAGE_HISTORY_CAP);
        // Oldest retained sample is the (64 - 16 + 1)-th invalidation.
        assert_eq!(
            e.usage_history[0].invalid,
            64 - USAGE_HISTORY_CAP as u64 + 1
        );
    }

    #[test]
    fn info_snapshot_is_consistent() {
        let mut e = ext();
        let off = e.push_slot(
            RecordId(0),
            4,
            7,
            SimInstant(3),
            Some(SimInstant(99)),
            false,
        );
        e.invalidate(off, SimInstant(4));
        let info = e.info(ExtentId(5), StreamId::DELTA, SimInstant(4));
        assert_eq!(info.id, ExtentId(5));
        assert_eq!(info.stream, StreamId::DELTA);
        assert_eq!(info.valid_records, 0);
        assert_eq!(info.invalid_records, 1);
        assert_eq!(info.ttl_deadline, Some(SimInstant(99)));
        assert_eq!(info.fragmentation_rate, 1.0);
    }
}
