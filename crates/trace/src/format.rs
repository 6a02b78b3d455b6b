//! The on-disk trace format: constants, CRC-32, varints and the per-record
//! delta encoding.
//!
//! # Layout (format v1)
//!
//! ```text
//! header:
//!   magic          8 bytes  = b"MEMSCTRC"
//!   version        u16 LE   = 1
//!   generation     u8       MemGeneration::code()
//!   reserved       u8       = 0
//!   config_hash    u64 LE   SimConfig fingerprint of the recording run
//!   seed           u64 LE   trace-generation master seed
//!   slice_lines    u64 LE   per-app address-slice size (cache lines)
//!   app_count      u32 LE
//!   app table      app_count × (name_len u16 LE + UTF-8 name)
//!   header_crc     u32 LE   CRC-32/IEEE of every header byte above
//! blocks (repeated):
//!   app_index      u32 LE   (u32::MAX ⇒ end marker)
//!   record_count   u32 LE
//!   payload_len    u32 LE
//!   payload        payload_len bytes (varint/delta records, below)
//!   payload_crc    u32 LE   CRC-32/IEEE of the payload
//! end marker:
//!   app_index = u32::MAX, record_count = 0, payload = total_records u64 LE
//! ```
//!
//! # Record encoding
//!
//! Records are app-local and delta-encoded against the *previous record of
//! the same app* (the delta chain spans blocks; each app's chain starts at
//! cache line 0):
//!
//! ```text
//! varint(gap_instructions)
//! varint(zigzag(line − prev_line) << 1 | has_writeback)
//! [ varint(zigzag(wb_line − line)) ]      only when has_writeback
//! ```
//!
//! Cache-line indices are at most 2^58 (byte addresses are `u64`, lines are
//! 64 bytes), so the zigzagged delta always fits 59 bits and the flag shift
//! cannot overflow.

use crate::error::TraceError;
use memscale_types::address::PhysAddr;
use memscale_workloads::MissEvent;

/// File magic, first 8 bytes of every trace artifact.
pub const MAGIC: [u8; 8] = *b"MEMSCTRC";

/// Newest format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Block `app_index` value marking the end-of-trace marker.
pub const END_MARKER: u32 = u32::MAX;

/// Records per block the writer targets (the last block of an app is
/// usually shorter).
pub const BLOCK_RECORDS: usize = 4096;

// --- CRC-32 (IEEE 802.3, the zlib polynomial) ------------------------------

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight lookups fold eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i as usize] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32/IEEE of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- varints ---------------------------------------------------------------

/// Appends `value` to `out` as an LEB128 varint (7 bits per byte).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    varint(buf, pos).map_err(|e| match e {
        RecordError::Truncated => TraceError::Truncated {
            at: "varint in record payload",
        },
        other => other.in_block(u32::MAX),
    })
}

#[inline]
fn varint(buf: &[u8], pos: &mut usize) -> Result<u64, RecordError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(RecordError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(RecordError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto the unsigned varint space (0, -1, 1, -2, …).
#[inline]
#[allow(clippy::cast_sign_loss)] // zigzag is a bijection on the bit pattern
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[allow(clippy::cast_possible_wrap)] // zigzag is a bijection on the bit pattern
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- record encoding -------------------------------------------------------

/// Largest cache-line index a byte address can reach.
const MAX_LINE: u64 = u64::MAX / PhysAddr::CACHE_LINE_BYTES;

/// Why a record failed to decode. Small and `Copy`, so the decoder stays
/// cheap enough for the replay cursors' hot path; the reader maps it onto
/// a [`TraceError::BlockCorrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The payload ended inside a record.
    Truncated,
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A record's instruction gap was zero.
    ZeroGap,
    /// The miss line's delta left the cache-line address space.
    LineOutOfRange,
    /// The writeback line's delta left the cache-line address space.
    WritebackOutOfRange,
}

impl RecordError {
    /// The [`TraceError::BlockCorrupt`] this defect makes of a block of
    /// app `app`.
    pub(crate) fn in_block(self, app: u32) -> TraceError {
        let detail = match self {
            RecordError::Truncated => "records overrun the block payload",
            RecordError::VarintOverflow => "varint exceeds 64 bits",
            RecordError::ZeroGap => "record gap of zero instructions",
            RecordError::LineOutOfRange => "cache-line delta leaves the address space",
            RecordError::WritebackOutOfRange => "writeback delta leaves the address space",
        };
        TraceError::BlockCorrupt {
            app,
            detail: detail.into(),
        }
    }
}

/// Appends the delta encoding of `ev` to `out`. `prev_line` is the previous
/// record's cache line in the same app stream (0 before the first record)
/// and is updated to this record's line.
pub fn encode_record(out: &mut Vec<u8>, ev: &MissEvent, prev_line: &mut u64) {
    let line = ev.addr.cache_line();
    let delta = line.wrapping_sub(*prev_line) as i64;
    write_varint(out, ev.gap_instructions);
    let has_wb = u64::from(ev.writeback.is_some());
    write_varint(out, (zigzag(delta) << 1) | has_wb);
    if let Some(wb) = ev.writeback {
        let wb_delta = wb.cache_line().wrapping_sub(line) as i64;
        write_varint(out, zigzag(wb_delta));
    }
    *prev_line = line;
}

/// Decodes one record from `buf` at `*pos`, updating the delta state. The
/// one record decoder: the reader validates every record with it, and the
/// replay cursors decode validated bytes with it.
#[inline]
pub fn decode_record(
    buf: &[u8],
    pos: &mut usize,
    prev_line: &mut u64,
) -> Result<MissEvent, RecordError> {
    let gap = varint(buf, pos)?;
    if gap == 0 {
        return Err(RecordError::ZeroGap);
    }
    let packed = varint(buf, pos)?;
    let line = prev_line
        .checked_add_signed(unzigzag(packed >> 1))
        .filter(|&l| l <= MAX_LINE)
        .ok_or(RecordError::LineOutOfRange)?;
    let writeback = if packed & 1 != 0 {
        let wb_line = line
            .checked_add_signed(unzigzag(varint(buf, pos)?))
            .filter(|&l| l <= MAX_LINE)
            .ok_or(RecordError::WritebackOutOfRange)?;
        Some(PhysAddr::from_cache_line(wb_line))
    } else {
        None
    };
    *prev_line = line;
    Ok(MissEvent {
        gap_instructions: gap,
        addr: PhysAddr::from_cache_line(line),
        writeback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The slice-by-8 CRC equals the bytewise table loop at every length
    /// from 0 to 67 bytes: up to eight whole words, with every tail length.
    #[test]
    fn crc32_matches_the_bytewise_loop() {
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        // SplitMix64, seeded: the bytes are arbitrary but fixed.
        let mut state = 0x5EED_u64;
        let bytes: Vec<u8> = (0..67)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).to_le_bytes()[0]
            })
            .collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), bytewise(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes would encode > 64 bits.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceError::BlockCorrupt { .. })
        ));
        let buf = [0x80u8]; // continuation bit set, then EOF
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn record_round_trips_with_delta_chain() {
        let events = [
            MissEvent {
                gap_instructions: 1,
                addr: PhysAddr::from_cache_line(1 << 24),
                writeback: None,
            },
            MissEvent {
                gap_instructions: 977,
                addr: PhysAddr::from_cache_line((1 << 24) + 1),
                writeback: Some(PhysAddr::from_cache_line(1 << 20)),
            },
            MissEvent {
                gap_instructions: 42,
                addr: PhysAddr::from_cache_line(5),
                writeback: Some(PhysAddr::from_cache_line((1 << 58) - 1)),
            },
        ];
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for ev in &events {
            encode_record(&mut buf, ev, &mut prev);
        }
        let mut pos = 0;
        let mut prev = 0u64;
        for ev in &events {
            assert_eq!(&decode_record(&buf, &mut pos, &mut prev).unwrap(), ev);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zero_gap_record_is_rejected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 0); // gap 0: invalid
        write_varint(&mut buf, 0);
        let mut pos = 0;
        let mut prev = 0u64;
        assert_eq!(
            decode_record(&buf, &mut pos, &mut prev),
            Err(RecordError::ZeroGap)
        );
    }
}
