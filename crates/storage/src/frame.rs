//! Checksummed record framing for every extent append.
//!
//! Real object stores serve bit-rot, misdirected reads, and truncated
//! responses *silently* — the call succeeds and hands back wrong bytes.
//! Production log-structured stores therefore pair the append-only layout
//! with a per-record checksum verified on every read (RocksDB block
//! checksums, PolarFS verify-on-read). This module is that layer for the
//! store: every record appended to an extent is wrapped in a fixed
//! 28-byte header whose CRC32C covers the record's identity (kind, length,
//! record id, caller tag) *and* its payload, so a flipped bit anywhere in
//! the frame — or a frame served for the wrong record — is detected before
//! a single payload byte reaches a caller.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     2  magic   = 0xB6F3
//!      2     1  kind    (FrameKind: stream class of the payload)
//!      3     1  reserved (zero)
//!      4     4  len     (payload length in bytes)
//!      8     8  record  (RecordId minted at append time)
//!     16     8  tag     (caller-supplied; WAL appends store the LSN here)
//!     24     4  crc     CRC32C over bytes [2..24] ++ payload
//! ```
//!
//! The magic bytes sit *outside* the CRC so a read landing mid-payload is
//! reported as a framing error rather than decoding garbage, and the CRC
//! itself is protected because any flip in it mismatches the recomputation.
//!
//! The tag field makes the frame *self-describing for recovery*: a
//! file-backed store reopened after a crash rebuilds its record index —
//! including the WAL's dense LSN sequence — by walking frames alone,
//! without a separate metadata journal ([`decode_header`]).

use crate::addr::RecordId;
use std::fmt;

/// Frame magic: identifies the start of a framed record.
pub const FRAME_MAGIC: u16 = 0xB6F3;

/// Size of the frame header preceding every payload in extent data.
pub const FRAME_HEADER_LEN: usize = 28;

/// The record class carried by a frame, derived from the stream the record
/// was appended to. Verification does not currently bind reads to a kind
/// (addresses carry the stream already); the kind makes raw extent dumps
/// self-describing and is covered by the CRC like every other header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Bw-tree base page (BASE stream).
    BasePage,
    /// Bw-tree delta page (DELTA stream).
    Delta,
    /// Write-ahead-log record (WAL stream).
    WalRecord,
    /// LSM SSTable block (SST stream).
    SsTable,
    /// Any other stream.
    Other(u8),
}

impl FrameKind {
    /// The kind records of `stream` are framed as.
    pub fn for_stream(stream: crate::addr::StreamId) -> FrameKind {
        match stream {
            crate::addr::StreamId::BASE => FrameKind::BasePage,
            crate::addr::StreamId::DELTA => FrameKind::Delta,
            crate::addr::StreamId::WAL => FrameKind::WalRecord,
            crate::addr::StreamId::SST => FrameKind::SsTable,
            crate::addr::StreamId(other) => FrameKind::Other(other),
        }
    }

    /// Wire encoding of the kind byte.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::BasePage => 1,
            FrameKind::Delta => 2,
            FrameKind::WalRecord => 3,
            FrameKind::SsTable => 4,
            FrameKind::Other(b) => b.wrapping_add(5),
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameKind::BasePage => write!(f, "base-page"),
            FrameKind::Delta => write!(f, "delta"),
            FrameKind::WalRecord => write!(f, "wal-record"),
            FrameKind::SsTable => write!(f, "sstable"),
            FrameKind::Other(b) => write!(f, "other({b})"),
        }
    }
}

/// Why a frame failed verification. Carried in the `detail` of the
/// [`crate::ErrorKind::ChecksumMismatch`] error's display and the scrub
/// reports; the error kind itself stays a single variant so retry policies
/// classify on one thing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameViolation {
    /// The bytes before the payload do not start with the frame magic —
    /// the address points at something that is not a record boundary.
    BadMagic,
    /// The header's length field disagrees with the addressed length
    /// (truncated response or stale address).
    LengthMismatch { framed: u32, addressed: u32 },
    /// The CRC32C over header+payload does not match the stored checksum.
    CrcMismatch { stored: u32, computed: u32 },
    /// The frame is internally valid but carries a different record id
    /// than the address — a stale or misdirected read.
    WrongRecord { framed: u64, addressed: u64 },
}

impl fmt::Display for FrameViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameViolation::BadMagic => write!(f, "bad frame magic"),
            FrameViolation::LengthMismatch { framed, addressed } => {
                write!(f, "framed length {framed} != addressed length {addressed}")
            }
            FrameViolation::CrcMismatch { stored, computed } => {
                write!(f, "crc stored {stored:#010x} != computed {computed:#010x}")
            }
            FrameViolation::WrongRecord { framed, addressed } => {
                write!(f, "framed record {framed} != addressed record {addressed}")
            }
        }
    }
}

/// Software CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the
/// checksum RocksDB and iSCSI use. Slicing-by-8: eight 256-entry tables
/// fold eight bytes per step, and a bytewise loop finishes the last 0–7.
/// It runs on every frame encode and on every verify (a page-cache miss,
/// recovery's stream scans, scrub, GC relocation), where one byte per
/// table step was the cost of a cold read. No SIMD and no `unsafe`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_extend(0, bytes)
}

/// Extends a running CRC32C with more bytes (for header ++ payload without
/// concatenating buffers).
pub fn crc32c_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC32C_TABLES[0]` is the bytewise table; `CRC32C_TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes, so one step can fold a byte
/// `k` positions ahead of the last.
const CRC32C_TABLES: [[u32; 256]; 8] = build_crc32c_tables();

const fn build_crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Builds the 28-byte header for a payload of `len` bytes identified by
/// `record` and carrying the caller-supplied `tag`, checksumming header
/// fields and payload together.
pub fn encode_header(
    kind: FrameKind,
    record: RecordId,
    tag: u64,
    payload: &[u8],
) -> [u8; FRAME_HEADER_LEN] {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..2].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[2] = kind.as_u8();
    header[3] = 0; // reserved
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..16].copy_from_slice(&record.0.to_le_bytes());
    header[16..24].copy_from_slice(&tag.to_le_bytes());
    let crc = crc32c_extend(crc32c(&header[2..24]), payload);
    header[24..28].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Encodes a full frame (header ++ payload) into one buffer. The store
/// writes header and payload as one buffer too (a single positioned write
/// per append); this is also for tests and re-serving synthesized frames.
pub fn encode_frame(kind: FrameKind, record: RecordId, tag: u64, payload: &[u8]) -> Vec<u8> {
    let header = encode_header(kind, record, tag, payload);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    out
}

/// Parsed view of a frame header, used by recovery to walk an extent's
/// physical bytes without addresses. Parsing checks the magic only;
/// callers must follow with [`verify_frame`] over the full frame before
/// trusting any field (the CRC covers all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The kind byte as written (not decoded back to [`FrameKind`]).
    pub kind: u8,
    /// Payload length in bytes.
    pub len: u32,
    /// Record identity minted at append time.
    pub record: RecordId,
    /// Caller-supplied tag (WAL appends store the LSN here).
    pub tag: u64,
}

/// Parses the header at the start of `bytes`. Returns
/// [`FrameViolation::BadMagic`] when the bytes are too short or do not
/// start at a record boundary — recovery treats that as the end of the
/// extent's valid prefix (a torn tail).
pub fn decode_header(bytes: &[u8]) -> Result<FrameHeader, FrameViolation> {
    if bytes.len() < FRAME_HEADER_LEN || bytes[0..2] != FRAME_MAGIC.to_le_bytes() {
        return Err(FrameViolation::BadMagic);
    }
    Ok(FrameHeader {
        kind: bytes[2],
        len: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
        record: RecordId(u64::from_le_bytes(
            bytes[8..16].try_into().expect("8 bytes"),
        )),
        tag: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
    })
}

/// Verifies `frame` (header ++ payload) against the address it was read
/// through: the payload must be `addressed_len` bytes and, when
/// `addressed_record` is nonzero, must belong to that record. Returns the
/// payload range on success.
///
/// Every check that can fire fires on any single flipped bit: a flip in the
/// magic is [`FrameViolation::BadMagic`], a flip anywhere in bytes `[2..16]`
/// or the payload mismatches the CRC, and a flip in the stored CRC itself
/// mismatches the recomputation.
pub fn verify_frame(
    frame: &[u8],
    addressed_len: u32,
    addressed_record: RecordId,
) -> Result<(), FrameViolation> {
    if frame.len() < FRAME_HEADER_LEN || frame[0..2] != FRAME_MAGIC.to_le_bytes() {
        return Err(FrameViolation::BadMagic);
    }
    let framed_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    let payload_len = (frame.len() - FRAME_HEADER_LEN) as u32;
    if framed_len != addressed_len || payload_len != addressed_len {
        return Err(FrameViolation::LengthMismatch {
            framed: framed_len,
            addressed: addressed_len,
        });
    }
    let stored = u32::from_le_bytes(frame[24..28].try_into().expect("4 bytes"));
    let computed = crc32c_extend(crc32c(&frame[2..24]), &frame[FRAME_HEADER_LEN..]);
    if stored != computed {
        return Err(FrameViolation::CrcMismatch { stored, computed });
    }
    let framed_record = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    if addressed_record.0 != 0 && framed_record != addressed_record.0 {
        return Err(FrameViolation::WrongRecord {
            framed: framed_record,
            addressed: addressed_record.0,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 / iSCSI test vectors for CRC32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// The byte-at-a-time CRC32C the slicing-by-8 loop must agree with.
    fn crc32c_extend_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_equals_the_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            start in 0usize..=4096,
            split in 0usize..=4096,
            seed in any::<u32>(),
        ) {
            // Any start offset: the slice is unaligned to the word loop.
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(
                crc32c_extend(seed, data),
                crc32c_extend_bytewise(seed, data)
            );
            let (a, b) = data.split_at(split.min(data.len()));
            prop_assert_eq!(crc32c_extend(crc32c(a), b), crc32c(data));
        }
    }

    #[test]
    fn crc32c_extend_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_extend(crc32c(a), b), crc32c(data));
        }
    }

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(FrameKind::BasePage, RecordId(42), 7, b"payload");
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 7);
        assert_eq!(verify_frame(&frame, 7, RecordId(42)), Ok(()));
        // A zero addressed record skips the binding check.
        assert_eq!(verify_frame(&frame, 7, RecordId(0)), Ok(()));
        assert_eq!(&frame[FRAME_HEADER_LEN..], b"payload");
    }

    #[test]
    fn empty_payload_frames_verify() {
        let frame = encode_frame(FrameKind::WalRecord, RecordId(1), 0, b"");
        assert_eq!(verify_frame(&frame, 0, RecordId(1)), Ok(()));
    }

    #[test]
    fn decode_header_round_trips_every_field() {
        let frame = encode_frame(FrameKind::WalRecord, RecordId(42), 17, b"lsn payload");
        let header = decode_header(&frame).expect("valid frame");
        assert_eq!(header.kind, FrameKind::WalRecord.as_u8());
        assert_eq!(header.len, 11);
        assert_eq!(header.record, RecordId(42));
        assert_eq!(header.tag, 17);
        // A short or misaligned buffer is the torn-tail signal.
        assert_eq!(decode_header(&frame[..10]), Err(FrameViolation::BadMagic));
        assert_eq!(decode_header(&frame[4..]), Err(FrameViolation::BadMagic));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let frame = encode_frame(FrameKind::Delta, RecordId(7), 3, b"some record payload");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    verify_frame(&corrupt, 19, RecordId(7)).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn tag_is_covered_by_the_crc() {
        // Two frames differing only in tag must not share a checksum: a
        // recovered WAL frame claiming the wrong LSN has to fail verify.
        let a = encode_frame(FrameKind::WalRecord, RecordId(5), 1, b"x");
        let mut b = a.clone();
        b[16..24].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            verify_frame(&b, 1, RecordId(5)),
            Err(FrameViolation::CrcMismatch { .. })
        ));
    }

    #[test]
    fn wrong_record_is_detected_even_with_valid_crc() {
        // A stale read: the frame is internally consistent but belongs to a
        // different record. Only the identity binding catches it.
        let frame = encode_frame(FrameKind::BasePage, RecordId(9), 0, b"stale");
        assert_eq!(
            verify_frame(&frame, 5, RecordId(10)),
            Err(FrameViolation::WrongRecord {
                framed: 9,
                addressed: 10
            })
        );
    }

    #[test]
    fn truncated_frame_is_a_length_mismatch() {
        let frame = encode_frame(FrameKind::BasePage, RecordId(3), 0, b"full payload");
        assert!(matches!(
            verify_frame(&frame[..frame.len() - 4], 12, RecordId(3)),
            Err(FrameViolation::LengthMismatch { .. })
        ));
        // Shorter than a header at all: framing error.
        assert_eq!(
            verify_frame(&frame[..10], 12, RecordId(3)),
            Err(FrameViolation::BadMagic)
        );
    }

    #[test]
    fn mid_payload_reads_fail_the_magic_check() {
        let frame = encode_frame(FrameKind::BasePage, RecordId(3), 0, b"abcdefgh");
        assert_eq!(
            verify_frame(&frame[4..], 4, RecordId(3)),
            Err(FrameViolation::BadMagic)
        );
    }

    #[test]
    fn kinds_map_streams_distinctly() {
        use crate::addr::StreamId;
        let kinds: Vec<u8> = [
            StreamId::BASE,
            StreamId::DELTA,
            StreamId::WAL,
            StreamId::SST,
        ]
        .iter()
        .map(|&s| FrameKind::for_stream(s).as_u8())
        .collect();
        let mut dedup = kinds.clone();
        dedup.dedup();
        assert_eq!(kinds, dedup);
        assert_eq!(FrameKind::for_stream(StreamId(7)), FrameKind::Other(7));
    }
}
