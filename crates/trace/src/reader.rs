//! Trace reading and replay sources.

use crate::error::TraceError;
use crate::format::{crc32, decode_record, END_MARKER, FORMAT_VERSION, MAGIC};
use crate::writer::{BlockIndex, EncodedStream, TraceHeader, TraceWriter};
use memscale_types::config::MemGeneration;
use memscale_types::ids::AppId;
use memscale_workloads::{MissEvent, MissSource};
use std::io::Read;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Sizes and counts of a parsed trace, for `memscale-sim trace-info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Format version the file was written with.
    pub version: u16,
    /// Records per app, in core order.
    pub records_per_app: Vec<u64>,
    /// Number of record blocks (excluding the end marker).
    pub blocks: u64,
    /// Total encoded payload bytes across all blocks.
    pub payload_bytes: u64,
}

/// A validated, immutable trace held in its encoded form: the header, the
/// trace file's bytes, and where each app's record blocks sit in them.
///
/// The bytes are checked once, when the trace is read (or framed by
/// [`ReplayTrace::from_streams`]); [`ReplayStream`] cursors then decode
/// records as they go, through the same record decoder. The bytes are
/// held behind an [`Arc`], so cloning a `ReplayTrace` — or minting fresh
/// cursors for many concurrent replay shards — never copies them.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    header: TraceHeader,
    summary: TraceSummary,
    bytes: Arc<[u8]>,
    apps: Arc<[AppStream]>,
}

/// Where one app's records sit in a [`ReplayTrace`]'s bytes.
#[derive(Debug)]
struct AppStream {
    /// Payload byte ranges of the app's blocks, in stream order.
    blocks: Vec<Range<usize>>,
    /// Records the blocks hold.
    records: usize,
    /// The decoded view [`ReplayTrace::events`] builds on first use.
    events: OnceLock<Box<[MissEvent]>>,
}

/// Incremental parser producing a [`ReplayTrace`] from any byte source.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    /// Every byte read so far; once validated, the trace's in-memory form.
    bytes: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Wraps a byte source.
    pub fn new(src: R) -> Self {
        TraceReader {
            src,
            bytes: Vec::new(),
        }
    }

    /// Reads `n` more bytes onto the held bytes and returns their offset.
    /// The held bytes grow with what arrives, not with what `n` claims, so
    /// a corrupt length in a short input costs no large allocation.
    fn read_exact(&mut self, n: usize, at: &'static str) -> Result<usize, TraceError> {
        let start = self.bytes.len();
        let got = (&mut self.src)
            .take(n as u64)
            .read_to_end(&mut self.bytes)
            .map_err(|e| TraceError::io(at, &e))?;
        if got < n {
            return Err(TraceError::Truncated { at });
        }
        Ok(start)
    }

    fn read_array<const N: usize>(&mut self, at: &'static str) -> Result<[u8; N], TraceError> {
        let start = self.read_exact(N, at)?;
        let mut b = [0u8; N];
        b.copy_from_slice(&self.bytes[start..]);
        Ok(b)
    }

    fn read_u16(&mut self, at: &'static str) -> Result<u16, TraceError> {
        self.read_array(at).map(u16::from_le_bytes)
    }

    fn read_u32(&mut self, at: &'static str) -> Result<u32, TraceError> {
        self.read_array(at).map(u32::from_le_bytes)
    }

    fn read_u64(&mut self, at: &'static str) -> Result<u64, TraceError> {
        self.read_array(at).map(u64::from_le_bytes)
    }

    /// Parses the header alone and verifies its CRC, leaving the record
    /// blocks unread: enough to tell whether a trace fits a run (see
    /// [`TraceHeader::check_compat`]) without validating its records.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first defect in the header;
    /// arbitrary input bytes can never cause a panic.
    pub fn read_header(mut self) -> Result<TraceHeader, TraceError> {
        self.header().map(|(header, _)| header)
    }

    /// Parses the header and its CRC; returns it with the format version.
    fn header(&mut self) -> Result<(TraceHeader, u16), TraceError> {
        if self.read_array("trace magic")? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = self.read_u16("format version")?;
        if version > FORMAT_VERSION || version == 0 {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let [code, _reserved] = self.read_array("generation code")?;
        let generation =
            MemGeneration::from_code(code).ok_or(TraceError::UnknownGeneration(code))?;
        let config_hash = self.read_u64("config hash")?;
        let seed = self.read_u64("seed")?;
        let slice_lines = self.read_u64("slice size")?;
        let app_count = self.read_u32("app count")?;
        if app_count == 0 || app_count > 4096 {
            return Err(TraceError::HeaderCorrupt {
                detail: format!("implausible app count {app_count}"),
            });
        }
        let mut apps = Vec::with_capacity(app_count as usize);
        for _ in 0..app_count {
            let len = self.read_u16("app name length")?;
            let start = self.read_exact(usize::from(len), "app name")?;
            let name = std::str::from_utf8(&self.bytes[start..]).map_err(|_| {
                TraceError::HeaderCorrupt {
                    detail: "app name is not UTF-8".into(),
                }
            })?;
            apps.push(name.to_owned());
        }
        let computed = crc32(&self.bytes);
        let header_crc = self.read_u32("header CRC")?;
        if header_crc != computed {
            return Err(TraceError::HeaderCorrupt {
                detail: format!("header CRC {header_crc:#010x} != computed {computed:#010x}"),
            });
        }
        let header = TraceHeader {
            generation,
            config_hash,
            seed,
            slice_lines,
            apps,
        };
        Ok((header, version))
    }

    /// Parses the whole trace, verifying the header CRC, every block CRC,
    /// every record and the end marker's total record count. The records
    /// are decoded to check them, not kept: the trace holds the bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first defect found; arbitrary
    /// input bytes can never cause a panic.
    pub fn read(mut self) -> Result<ReplayTrace, TraceError> {
        let (header, version) = self.header()?;
        let n = header.apps.len();
        let mut blocks: BlockIndex = vec![Vec::new(); n];
        let mut records = vec![0usize; n];
        let mut prev_line = vec![0u64; n];
        let mut total = 0u64;
        loop {
            let app_index = self.read_u32("block header")?;
            let record_count = self.read_u32("block header")?;
            let payload_len = self.read_u32("block header")?;
            if payload_len > 1 << 28 {
                return Err(TraceError::BlockCorrupt {
                    app: app_index,
                    detail: format!("implausible block payload of {payload_len} bytes"),
                });
            }
            let start = self.read_exact(payload_len as usize, "block payload")?;
            let payload = start..self.bytes.len();
            let computed = crc32(&self.bytes[payload.clone()]);
            let payload_crc = self.read_u32("block CRC")?;
            if payload_crc != computed {
                return Err(TraceError::BlockCorrupt {
                    app: app_index,
                    detail: format!("payload CRC {payload_crc:#010x} != computed {computed:#010x}"),
                });
            }
            let bytes = &self.bytes[payload.clone()];
            if app_index == END_MARKER {
                let expected =
                    u64::from_le_bytes(bytes.try_into().map_err(|_| TraceError::BlockCorrupt {
                        app: app_index,
                        detail: "end marker payload must be 8 bytes".into(),
                    })?);
                if expected != total {
                    return Err(TraceError::RecordCountMismatch {
                        expected,
                        got: total,
                    });
                }
                break;
            }
            let app = app_index as usize;
            if app >= n {
                return Err(TraceError::BlockCorrupt {
                    app: app_index,
                    detail: format!("app index out of range (header has {n} apps)"),
                });
            }
            let mut pos = 0usize;
            for _ in 0..record_count {
                decode_record(bytes, &mut pos, &mut prev_line[app])
                    .map_err(|e| e.in_block(app_index))?;
            }
            if pos != bytes.len() {
                return Err(TraceError::BlockCorrupt {
                    app: app_index,
                    detail: format!(
                        "{} trailing payload bytes after the last record",
                        bytes.len() - pos
                    ),
                });
            }
            blocks[app].push(payload);
            records[app] += record_count as usize;
            total += u64::from(record_count);
        }
        Ok(ReplayTrace::new(
            header,
            version,
            Arc::from(self.bytes),
            blocks,
            records,
        ))
    }
}

impl ReplayTrace {
    fn new(
        header: TraceHeader,
        version: u16,
        bytes: Arc<[u8]>,
        blocks: BlockIndex,
        records: Vec<usize>,
    ) -> Self {
        let summary = TraceSummary {
            version,
            records_per_app: records.iter().map(|&r| r as u64).collect(),
            blocks: blocks.iter().map(|b| b.len() as u64).sum(),
            payload_bytes: blocks.iter().flatten().map(|r| r.len() as u64).sum(),
        };
        let apps = blocks
            .into_iter()
            .zip(records)
            .map(|(blocks, records)| AppStream {
                blocks,
                records,
                events: OnceLock::new(),
            })
            .collect();
        ReplayTrace {
            header,
            summary,
            bytes,
            apps,
        }
    }

    /// Reads and fully verifies the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the file cannot be opened or fails any
    /// structural or CRC check.
    pub fn open(path: &std::path::Path) -> Result<Self, TraceError> {
        let file =
            std::fs::File::open(path).map_err(|e| TraceError::io("opening trace file", &e))?;
        let len = file.metadata().map_or(0, |m| m.len());
        let mut reader = TraceReader::new(std::io::BufReader::new(file));
        // Only a hint, so the held bytes need not grow by doubling: if the
        // reservation fails, the reader grows them as it reads.
        let _ = reader
            .bytes
            .try_reserve_exact(usize::try_from(len).unwrap_or(0));
        reader.read()
    }

    /// Builds an in-memory trace from recorded streams, one per header
    /// app (the recording path: record → replay without touching disk).
    /// The streams are already in the record encoding, so
    /// [`TraceWriter`] frames them into blocks without encoding them
    /// again: every full block, app by app, then each app's partial tail
    /// block in app order, then the end marker. Those are the bytes the
    /// writer makes of the same events appended app by app.
    ///
    /// Decoded events become an [`EncodedStream`] through its
    /// [`FromIterator`] impl.
    ///
    /// # Panics
    ///
    /// Panics if `header` cannot be encoded (an app name longer than
    /// 64 KiB, or more than `u32::MAX` apps), or if there are more streams
    /// than the header has apps.
    pub fn from_streams(header: TraceHeader, streams: Vec<EncodedStream>) -> Self {
        let mut writer = TraceWriter::new(Vec::new(), &header).expect("trace header encodes");
        writer.reserve_for(&streams);
        for (app, stream) in streams.into_iter().enumerate() {
            writer
                .append_encoded(app, stream)
                .expect("one stream per header app");
        }
        let (bytes, blocks, records) = writer.finish_indexed().expect("writing to memory");
        ReplayTrace::new(header, FORMAT_VERSION, Arc::from(bytes), blocks, records)
    }

    /// The trace's header metadata.
    #[inline]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Parsed sizes and counts (for `trace-info`).
    #[inline]
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// Number of application streams.
    #[inline]
    pub fn apps(&self) -> usize {
        self.apps.len()
    }

    /// The trace file's bytes, exactly as [`TraceWriter`] writes them:
    /// what `memscale-sim record` saves.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Heap bytes the trace holds: its encoded bytes and block index, plus
    /// the decoded [`ReplayTrace::events`] views built so far.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
            + self
                .apps
                .iter()
                .map(|a| {
                    std::mem::size_of_val(&a.blocks[..])
                        + a.events.get().map_or(0, |e| std::mem::size_of_val(&e[..]))
                })
                .sum::<usize>()
    }

    /// Recorded events of app `app`, decoded through a [`ReplayStream`] on
    /// the first call and kept for the trace's lifetime. For tests and
    /// tools: replay runs read the trace through [`ReplayTrace::streams`],
    /// which decodes as it goes and keeps nothing.
    pub fn events(&self, app: usize) -> &[MissEvent] {
        self.apps[app].events.get_or_init(|| {
            let mut cursor = self.stream(app);
            std::iter::from_fn(|| cursor.next_event()).collect()
        })
    }

    /// A replay cursor positioned at the start of app `app`'s stream.
    pub fn stream(&self, app: usize) -> ReplayStream {
        ReplayStream {
            app: AppId(app),
            bytes: Arc::clone(&self.bytes),
            apps: Arc::clone(&self.apps),
            next_block: 0,
            pos: 0,
            end: 0,
            prev_line: 0,
            remaining: self.apps[app].records,
        }
    }

    /// Mints a fresh set of replay cursors, one per app, positioned at the
    /// start of each stream. Cheap: the bytes are shared, not copied.
    pub fn streams(&self) -> Vec<Box<dyn MissSource + Send>> {
        (0..self.apps())
            .map(|app| Box::new(self.stream(app)) as Box<dyn MissSource + Send>)
            .collect()
    }
}

/// One app's replay cursor over a shared recorded trace. Implements the
/// same [`MissSource`] interface as the live generator, decoding each
/// record from the trace's validated bytes as it is asked for, and
/// returning `None` once the recording is exhausted.
#[derive(Debug, Clone)]
pub struct ReplayStream {
    app: AppId,
    bytes: Arc<[u8]>,
    apps: Arc<[AppStream]>,
    /// Index of the app's next block to enter.
    next_block: usize,
    /// Read position and end of the current block's payload.
    pos: usize,
    end: usize,
    /// The delta chain's previous cache line.
    prev_line: u64,
    remaining: usize,
}

impl ReplayStream {
    /// Events remaining before exhaustion.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl MissSource for ReplayStream {
    fn app(&self) -> AppId {
        self.app
    }

    #[inline]
    fn next_event(&mut self) -> Option<MissEvent> {
        while self.pos == self.end {
            let block = self.apps[self.app.0].blocks.get(self.next_block)?;
            self.pos = block.start;
            self.end = block.end;
            self.next_block += 1;
        }
        let ev = decode_record(&self.bytes, &mut self.pos, &mut self.prev_line)
            .expect("replay bytes were validated or just encoded");
        self.remaining -= 1;
        Some(ev)
    }
}
