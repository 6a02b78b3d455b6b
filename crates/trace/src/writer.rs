//! Encoded record streams, and the streaming writer that frames them.

use crate::error::TraceError;
use crate::format::{
    crc32, decode_record, encode_record, BLOCK_RECORDS, END_MARKER, FORMAT_VERSION, MAGIC,
};
use memscale_types::config::MemGeneration;
use memscale_workloads::MissEvent;
use std::io::Write;
use std::ops::Range;

/// Each app's block payloads, as byte ranges of the trace, in stream order.
pub(crate) type BlockIndex = Vec<Vec<Range<usize>>>;

/// Bytes a block frame adds to its payload: the app index, record count
/// and payload length ahead of it, and its CRC after it.
const FRAME_BYTES: usize = 16;

/// The metadata a trace artifact carries ahead of its record blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Memory generation the recording run was configured with.
    pub generation: MemGeneration,
    /// Fingerprint of the recording run's full `SimConfig`; replay refuses
    /// a trace whose fingerprint differs from the replay configuration.
    pub config_hash: u64,
    /// Master seed the recorded streams were generated from.
    pub seed: u64,
    /// Cache lines in each application instance's private address slice.
    pub slice_lines: u64,
    /// Application name per instance, in core order.
    pub apps: Vec<String>,
}

impl TraceHeader {
    /// Verifies this header was stamped under the configuration a replay
    /// run is about to use.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ConfigMismatch`] naming the first disagreeing
    /// field (generation, config hash, or app count).
    pub fn check_compat(
        &self,
        generation: MemGeneration,
        config_hash: u64,
        cores: usize,
    ) -> Result<(), TraceError> {
        if self.generation != generation {
            return Err(TraceError::ConfigMismatch {
                field: "generation",
                expected: generation.to_string(),
                got: self.generation.to_string(),
            });
        }
        if self.config_hash != config_hash {
            return Err(TraceError::ConfigMismatch {
                field: "config hash",
                expected: format!("{config_hash:#018x}"),
                got: format!("{:#018x}", self.config_hash),
            });
        }
        if self.apps.len() != cores {
            return Err(TraceError::ConfigMismatch {
                field: "app count",
                expected: cores.to_string(),
                got: self.apps.len().to_string(),
            });
        }
        Ok(())
    }

    /// Serializes the header (everything the header CRC covers).
    fn encode(&self) -> Result<Vec<u8>, TraceError> {
        let mut out = Vec::with_capacity(64 + self.apps.len() * 12);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.generation.code());
        out.push(0); // reserved
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.slice_lines.to_le_bytes());
        let app_count = u32::try_from(self.apps.len()).map_err(|_| TraceError::HeaderCorrupt {
            detail: "more than u32::MAX apps".into(),
        })?;
        out.extend_from_slice(&app_count.to_le_bytes());
        for name in &self.apps {
            let len = u16::try_from(name.len()).map_err(|_| TraceError::HeaderCorrupt {
                detail: format!("app name longer than 64 KiB: {name:.32}…"),
            })?;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        Ok(out)
    }
}

/// One app's records in the trace's record encoding, as
/// [`encode_record`] appends them: delta-chained from cache line 0, with
/// the payload offset at which each full block of [`BLOCK_RECORDS`]
/// records ends.
///
/// A recording holds its misses this way ([`crate::MissTape`]), at a few
/// bytes per record instead of a 32-byte [`MissEvent`], and
/// [`crate::ReplayTrace::from_streams`] frames the payload into blocks
/// without encoding it again. Decoded events become an encoded stream
/// through [`FromIterator`], which appends them with the same encoder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedStream {
    /// The encoded records.
    payload: Vec<u8>,
    /// Offsets in `payload` just past each full block.
    block_ends: Vec<usize>,
    /// Records in `payload`.
    records: usize,
    /// The delta chain's last cache line (0 before the first record).
    last_line: u64,
}

impl EncodedStream {
    /// Appends one record.
    pub(crate) fn push(&mut self, ev: &MissEvent) {
        encode_record(&mut self.payload, ev, &mut self.last_line);
        self.records += 1;
        if self.records.is_multiple_of(BLOCK_RECORDS) {
            self.block_ends.push(self.payload.len());
        }
    }

    /// Records the stream holds.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Encoded bytes the stream holds: exactly the payload its blocks
    /// carry once framed.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Decodes the record at byte `*pos`, advancing `*pos` and the delta
    /// state `*prev_line` (0 at the stream's start); `None` past the last
    /// record.
    pub(crate) fn decode(&self, pos: &mut usize, prev_line: &mut u64) -> Option<MissEvent> {
        (*pos < self.payload.len()).then(|| {
            decode_record(&self.payload, pos, prev_line).expect("an encoded stream decodes")
        })
    }

    /// Bytes the stream takes once framed.
    fn framed_bytes(&self) -> usize {
        self.payload.len() + self.records.div_ceil(BLOCK_RECORDS) * FRAME_BYTES
    }
}

impl Extend<MissEvent> for EncodedStream {
    fn extend<I: IntoIterator<Item = MissEvent>>(&mut self, events: I) {
        for ev in events {
            self.push(&ev);
        }
    }
}

impl FromIterator<MissEvent> for EncodedStream {
    fn from_iter<I: IntoIterator<Item = MissEvent>>(events: I) -> Self {
        let mut stream = EncodedStream::default();
        stream.extend(events);
        stream
    }
}

/// The one block framer, behind [`TraceWriter`] and so behind
/// [`crate::ReplayTrace::from_streams`]: it writes block frames after the
/// header, indexes each payload it writes and counts each app's records.
#[derive(Debug)]
struct Framer<W: Write> {
    out: W,
    /// Bytes written so far.
    written: usize,
    /// Each app's block payloads written so far.
    blocks: BlockIndex,
    /// Each app's records written so far.
    records: Vec<usize>,
}

impl<W: Write> Framer<W> {
    /// Writes one frame and returns where its payload landed.
    fn frame(
        &mut self,
        app_index: u32,
        records: u32,
        payload: &[u8],
        at: &'static str,
    ) -> Result<Range<usize>, TraceError> {
        let payload_len = u32::try_from(payload.len()).map_err(|_| TraceError::BlockCorrupt {
            app: app_index,
            detail: "block payload exceeds u32::MAX bytes".into(),
        })?;
        let mut write = |bytes: &[u8]| {
            self.out
                .write_all(bytes)
                .map_err(|e| TraceError::io(at, &e))
        };
        write(&app_index.to_le_bytes())?;
        write(&records.to_le_bytes())?;
        write(&payload_len.to_le_bytes())?;
        write(payload)?;
        write(&crc32(payload).to_le_bytes())?;
        // The payload follows the 12-byte block header; its CRC follows it.
        let start = self.written + 12;
        self.written = start + payload.len() + 4;
        Ok(start..start + payload.len())
    }

    /// Writes app `app`'s next block, of `records` records.
    fn block(&mut self, app: usize, records: usize, payload: &[u8]) -> Result<(), TraceError> {
        let app_index = u32::try_from(app).expect("app index checked against the header");
        let count = u32::try_from(records).expect("a block holds at most BLOCK_RECORDS records");
        let range = self.frame(app_index, count, payload, "writing trace block")?;
        self.blocks[app].push(range);
        self.records[app] += records;
        Ok(())
    }

    /// Writes `stream`'s full blocks as app `app`'s next blocks and drops
    /// them from the stream, leaving its tail.
    fn full_blocks(&mut self, app: usize, stream: &mut EncodedStream) -> Result<(), TraceError> {
        if stream.block_ends.is_empty() {
            return Ok(());
        }
        let mut start = 0;
        for &end in &stream.block_ends {
            self.block(app, BLOCK_RECORDS, &stream.payload[start..end])?;
            start = end;
        }
        stream.payload.drain(..start);
        stream.records -= stream.block_ends.len() * BLOCK_RECORDS;
        stream.block_ends.clear();
        Ok(())
    }

    /// Writes the end marker, which carries the total record count, and
    /// flushes; returns the sink, the block index and each app's records.
    fn finish(mut self) -> Result<(W, BlockIndex, Vec<usize>), TraceError> {
        let total = self.records.iter().sum::<usize>() as u64;
        self.frame(
            END_MARKER,
            0,
            &total.to_le_bytes(),
            "writing trace end marker",
        )?;
        self.out
            .flush()
            .map_err(|e| TraceError::io("flushing trace file", &e))?;
        Ok((self.out, self.blocks, self.records))
    }
}

/// Writes a trace artifact incrementally: construct with the header, feed
/// events per app in any interleaving, then [`TraceWriter::finish`].
///
/// Each app's events are encoded as they arrive, onto the app's pending
/// [`EncodedStream`], and a block is framed as soon as it fills: the full
/// blocks in the order they fill, then, at the end, each app's partial
/// tail block in app order and the end marker.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    framer: Framer<W>,
    /// Each app's records since its last full block.
    pending: Vec<EncodedStream>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes `header` to `out` and prepares per-app encoder state.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if writing the header fails, or
    /// [`TraceError::HeaderCorrupt`] for an unencodable header.
    pub fn new(mut out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        let bytes = header.encode()?;
        out.write_all(&bytes)
            .map_err(|e| TraceError::io("writing trace header", &e))?;
        out.write_all(&crc32(&bytes).to_le_bytes())
            .map_err(|e| TraceError::io("writing trace header", &e))?;
        let n = header.apps.len();
        Ok(TraceWriter {
            framer: Framer {
                out,
                written: bytes.len() + 4, // the header and its CRC
                blocks: vec![Vec::new(); n],
                records: vec![0; n],
            },
            pending: vec![EncodedStream::default(); n],
        })
    }

    /// App `app`'s pending stream.
    fn pending(&mut self, app: usize) -> Result<&mut EncodedStream, TraceError> {
        let apps = self.pending.len();
        self.pending
            .get_mut(app)
            .ok_or_else(|| TraceError::BlockCorrupt {
                app: u32::try_from(app).unwrap_or(u32::MAX),
                detail: format!("app index out of range (header has {apps} apps)"),
            })
    }

    /// Appends one event to app `app`'s stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if writing a full block fails, or a
    /// [`TraceError::BlockCorrupt`] for an out-of-range app index.
    pub fn append(&mut self, app: usize, ev: MissEvent) -> Result<(), TraceError> {
        self.pending(app)?.push(&ev);
        self.framer.full_blocks(app, &mut self.pending[app])
    }

    /// Appends a whole slice of events to app `app`'s stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceWriter::append`].
    pub fn append_stream(&mut self, app: usize, events: &[MissEvent]) -> Result<(), TraceError> {
        for ev in events {
            self.append(app, *ev)?;
        }
        Ok(())
    }

    /// Appends app `app`'s whole stream, already encoded: its full blocks
    /// are framed now, without encoding them again, and its tail waits
    /// with the other apps' pending records. The stream's delta chain
    /// starts at line 0, so the app must have no records yet.
    ///
    /// # Panics
    ///
    /// Panics if the app already has records.
    pub(crate) fn append_encoded(
        &mut self,
        app: usize,
        mut stream: EncodedStream,
    ) -> Result<(), TraceError> {
        let fresh = self.pending(app)?.records == 0 && self.framer.records[app] == 0;
        assert!(fresh, "app {app} already has records");
        self.framer.full_blocks(app, &mut stream)?;
        stream.payload.shrink_to_fit();
        self.pending[app] = stream;
        Ok(())
    }

    /// Flushes all pending blocks, writes the end-of-trace marker and
    /// returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if any final write fails.
    pub fn finish(self) -> Result<W, TraceError> {
        self.finish_indexed().map(|(out, ..)| out)
    }

    /// [`TraceWriter::finish`], also returning each app's block payloads
    /// as byte ranges of the output, in stream order, and each app's
    /// record count.
    pub(crate) fn finish_indexed(mut self) -> Result<(W, BlockIndex, Vec<usize>), TraceError> {
        for (app, tail) in self.pending.iter().enumerate() {
            if tail.records > 0 {
                self.framer.block(app, tail.records, &tail.payload)?;
            }
        }
        self.framer.finish()
    }
}

impl TraceWriter<Vec<u8>> {
    /// Reserves exactly the room `streams` take once framed, end marker
    /// included, so the output is allocated once.
    pub(crate) fn reserve_for(&mut self, streams: &[EncodedStream]) {
        let end_marker = FRAME_BYTES + 8;
        let framed: usize = streams.iter().map(EncodedStream::framed_bytes).sum();
        self.framer.out.reserve_exact(framed + end_marker);
    }
}
