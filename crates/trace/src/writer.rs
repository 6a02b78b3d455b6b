//! Streaming trace writer.

use crate::error::TraceError;
use crate::format::{crc32, encode_record, BLOCK_RECORDS, END_MARKER, FORMAT_VERSION, MAGIC};
use memscale_types::config::MemGeneration;
use memscale_workloads::MissEvent;
use std::io::Write;
use std::ops::Range;

/// Each app's block payloads, as byte ranges of the trace, in stream order.
pub(crate) type BlockIndex = Vec<Vec<Range<usize>>>;

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

/// Writes a trace artifact incrementally: construct with the header, feed
/// events per app in any interleaving, then [`TraceWriter::finish`].
///
/// Events of one app are delta-encoded against each other across blocks, so
/// the writer keeps one small pending buffer and one delta cursor per app.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    pending: Vec<Vec<MissEvent>>,
    prev_line: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    /// Bytes written so far.
    written: usize,
    /// Each app's block payloads written so far.
    blocks: BlockIndex,
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
            out,
            pending: vec![Vec::with_capacity(BLOCK_RECORDS); n],
            prev_line: vec![0; n],
            counts: vec![0; n],
            total: 0,
            written: bytes.len() + 4, // the header and its CRC
            blocks: vec![Vec::new(); n],
        })
    }

    /// Appends one event to app `app`'s stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if flushing a full block fails, or a
    /// [`TraceError::BlockCorrupt`] for an out-of-range app index.
    pub fn append(&mut self, app: usize, ev: MissEvent) -> Result<(), TraceError> {
        if app >= self.pending.len() {
            return Err(TraceError::BlockCorrupt {
                app: u32::try_from(app).unwrap_or(u32::MAX),
                detail: format!(
                    "app index out of range (header has {} apps)",
                    self.pending.len()
                ),
            });
        }
        self.pending[app].push(ev);
        if self.pending[app].len() >= BLOCK_RECORDS {
            self.flush_app(app)?;
        }
        Ok(())
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

    /// Encodes and writes app `app`'s pending events as one block.
    fn flush_app(&mut self, app: usize) -> Result<(), TraceError> {
        let events = std::mem::take(&mut self.pending[app]);
        if events.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(events.len() * 4);
        for ev in &events {
            encode_record(&mut payload, ev, &mut self.prev_line[app]);
        }
        let record_count = u32::try_from(events.len()).expect("block bounded by BLOCK_RECORDS");
        let payload_len = u32::try_from(payload.len()).map_err(|_| TraceError::BlockCorrupt {
            app: u32::try_from(app).unwrap_or(u32::MAX),
            detail: "block payload exceeds u32::MAX bytes".into(),
        })?;
        let app_index = u32::try_from(app).expect("validated in append");
        let mut write = |bytes: &[u8]| {
            self.out
                .write_all(bytes)
                .map_err(|e| TraceError::io("writing trace block", &e))
        };
        write(&app_index.to_le_bytes())?;
        write(&record_count.to_le_bytes())?;
        write(&payload_len.to_le_bytes())?;
        write(&payload)?;
        write(&crc32(&payload).to_le_bytes())?;
        // The payload follows the 12-byte block header; its CRC follows it.
        let start = self.written + 12;
        self.blocks[app].push(start..start + payload.len());
        self.written = start + payload.len() + 4;
        self.counts[app] += u64::from(record_count);
        self.total += u64::from(record_count);
        Ok(())
    }

    /// Flushes all pending blocks, writes the end-of-trace marker and
    /// returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if any final write fails.
    pub fn finish(self) -> Result<W, TraceError> {
        self.finish_indexed().map(|(out, _)| out)
    }

    /// [`TraceWriter::finish`], also returning each app's block payloads
    /// as byte ranges of the output, in stream order.
    pub(crate) fn finish_indexed(mut self) -> Result<(W, BlockIndex), TraceError> {
        for app in 0..self.pending.len() {
            self.flush_app(app)?;
        }
        let payload = self.total.to_le_bytes();
        let mut write = |bytes: &[u8]| {
            self.out
                .write_all(bytes)
                .map_err(|e| TraceError::io("writing trace end marker", &e))
        };
        write(&END_MARKER.to_le_bytes())?;
        write(&0u32.to_le_bytes())?;
        write(&u32::try_from(payload.len()).expect("8").to_le_bytes())?;
        write(&payload)?;
        write(&crc32(&payload).to_le_bytes())?;
        self.out
            .flush()
            .map_err(|e| TraceError::io("flushing trace file", &e))?;
        Ok((self.out, self.blocks))
    }

    /// Records written so far per app (flushed and pending).
    pub fn record_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .zip(&self.pending)
            .map(|(&flushed, pending)| flushed + pending.len() as u64)
            .collect()
    }
}

/// Writes a complete trace file at `path` from fully materialized per-app
/// streams (the shape the run recorder produces).
///
/// # Errors
///
/// Returns a [`TraceError`] if `path` cannot be created or any write fails.
pub fn write_trace_file(
    path: &std::path::Path,
    header: &TraceHeader,
    streams: &[Vec<MissEvent>],
) -> Result<(), TraceError> {
    let file =
        std::fs::File::create(path).map_err(|e| TraceError::io("creating trace file", &e))?;
    let mut w = TraceWriter::new(std::io::BufWriter::new(file), header)?;
    for (app, events) in streams.iter().enumerate() {
        w.append_stream(app, events)?;
    }
    w.finish()?;
    Ok(())
}
