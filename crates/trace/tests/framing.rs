//! Block framing of recorded streams: a trace built from a miss tape is
//! byte-identical to the writer's output for the same events, on either
//! side of every block boundary and at every margin the tape continues
//! for. Full blocks go app by app as they fill, then each app's partial
//! tail block in app order, then the end marker with the total. Every
//! recording CRC pin rests on that order, so it is checked frame by frame
//! as well as byte for byte.

use memscale_trace::format::BLOCK_RECORDS;
use memscale_trace::{EncodedStream, MissTape, ReplayTrace, TraceHeader, TraceWriter};
use memscale_types::address::PhysAddr;
use memscale_types::config::MemGeneration;
use memscale_types::ids::AppId;
use memscale_workloads::{MissEvent, MissSource};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Each app's record count: none, one, and either side of one and two
/// full blocks.
const LENGTHS: [usize; 6] = [0, 1, 4095, 4096, 4097, 8195];

/// Events the tape's margin draws at least (its floor).
const FLOOR: usize = 64;

/// App `app`'s `i`-th event: lines that jump both ways, a writeback on
/// every third.
fn ev(app: usize, i: usize) -> MissEvent {
    let (app, i) = (app as u64, i as u64);
    let line = (app << 30) + (i * 2_654_435_761) % (1 << 24);
    MissEvent {
        gap_instructions: i % 97 + 1,
        addr: PhysAddr::from_cache_line(line),
        writeback: (i % 3 == 0).then(|| PhysAddr::from_cache_line(line ^ 0xFFF)),
    }
}

/// App `app`'s live source: `ev(app, i)` on its `i`-th draw, dry after
/// `limit` draws, counting its draws.
#[derive(Debug)]
struct Counting {
    app: usize,
    limit: usize,
    draws: Arc<AtomicUsize>,
}

impl MissSource for Counting {
    fn app(&self) -> AppId {
        AppId(self.app)
    }

    fn next_event(&mut self) -> Option<MissEvent> {
        let i = self.draws.load(Ordering::Relaxed);
        (i < self.limit).then(|| {
            self.draws.store(i + 1, Ordering::Relaxed);
            ev(self.app, i)
        })
    }
}

fn header() -> TraceHeader {
    TraceHeader {
        generation: MemGeneration::Ddr3,
        config_hash: 0xF4A3_E5ED_0000_0001,
        seed: 26,
        slice_lines: 1 << 24,
        apps: (0..LENGTHS.len()).map(|i| format!("app{i}")).collect(),
    }
}

/// The frames after a header of `header_len` bytes, as (app index,
/// record count), end marker included.
fn frames(bytes: &[u8], header_len: usize) -> Vec<(u32, u32)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut out = Vec::new();
    let mut pos = header_len;
    while pos < bytes.len() {
        out.push((u32_at(pos), u32_at(pos + 4)));
        pos += 12 + u32_at(pos + 8) as usize + 4;
    }
    assert_eq!(pos, bytes.len(), "frames end with the bytes");
    out
}

/// Pulls `n` events from `cursor`, checking each is the app's next one.
fn pull(cursor: &mut Box<dyn MissSource + Send>, from: usize, n: usize) {
    let app = cursor.app().0;
    for i in from..from + n {
        assert_eq!(cursor.next_event(), Some(ev(app, i)), "app {app} #{i}");
    }
}

#[test]
fn tape_built_traces_frame_like_the_writer() {
    let hdr = header();
    let mut writer = TraceWriter::new(Vec::new(), &hdr).unwrap();
    for (app, &len) in LENGTHS.iter().enumerate() {
        let events: Vec<MissEvent> = (0..len).map(|i| ev(app, i)).collect();
        writer.append_stream(app, &events).unwrap();
    }
    let written = writer.finish().unwrap();

    // The writer's own order: full blocks app by app, tails in app order.
    let end_marker = 12 + 8 + 4;
    let empty = TraceWriter::new(Vec::new(), &hdr)
        .unwrap()
        .finish()
        .unwrap();
    let u32_of = |n: usize| u32::try_from(n).unwrap();
    let mut expected = Vec::new();
    for (app, &len) in LENGTHS.iter().enumerate() {
        let full = (u32_of(app), u32_of(BLOCK_RECORDS));
        expected.extend(std::iter::repeat_n(full, len / BLOCK_RECORDS));
    }
    for (app, &len) in LENGTHS.iter().enumerate() {
        if len % BLOCK_RECORDS != 0 {
            expected.push((u32_of(app), u32_of(len % BLOCK_RECORDS)));
        }
    }
    expected.push((u32::MAX, 0));
    assert_eq!(frames(&written, empty.len() - end_marker), expected);

    for margin in [0, 50] {
        let draws: Vec<Arc<AtomicUsize>> = LENGTHS.iter().map(|_| Arc::default()).collect();
        let tape = MissTape::new(
            LENGTHS
                .iter()
                .zip(&draws)
                .enumerate()
                .map(|(app, (&limit, draws))| {
                    Box::new(Counting {
                        app,
                        limit,
                        draws: Arc::clone(draws),
                    }) as Box<dyn MissSource + Send>
                })
                .collect(),
        );
        // A run pulls all but the margin's floor, interleaved across the
        // apps in slices that straddle the block boundaries; a second run
        // reads the same prefix back off the tape.
        let prefix: Vec<usize> = LENGTHS.iter().map(|l| l.saturating_sub(FLOOR)).collect();
        let mut first = tape.cursors();
        let mut done = vec![0; LENGTHS.len()];
        while done != prefix {
            for (app, cursor) in first.iter_mut().enumerate() {
                let n = (prefix[app] - done[app]).min(1000);
                pull(cursor, done[app], n);
                done[app] += n;
            }
        }
        for (cursor, &n) in tape.cursors().iter_mut().zip(&prefix) {
            pull(cursor, 0, n);
        }

        let streams = tape.finish(margin);
        let records: Vec<usize> = streams.iter().map(EncodedStream::records).collect();
        assert_eq!(records, LENGTHS, "margin {margin}: the sources run dry");
        let drawn: Vec<usize> = draws.iter().map(|d| d.load(Ordering::Relaxed)).collect();
        assert_eq!(drawn, LENGTHS, "margin {margin}: each event is drawn once");

        let trace = ReplayTrace::from_streams(hdr.clone(), streams);
        assert!(
            trace.as_bytes() == &written[..],
            "margin {margin}: bytes differ"
        );
        let per_app: Vec<u64> = LENGTHS.iter().map(|&l| l as u64).collect();
        assert_eq!(trace.summary().records_per_app, per_app);
        assert_eq!(trace.summary().blocks, expected.len() as u64 - 1);
    }
}
