//! Property-based round-trip tests: writing any well-formed event streams
//! and reading them back is the identity, through the full file format and
//! through the replay cursors that decode the held bytes.

use memscale_trace::{ReplayTrace, TraceHeader, TraceReader, TraceWriter};
use memscale_types::address::PhysAddr;
use memscale_types::config::MemGeneration;
use memscale_types::ids::AppId;
use memscale_workloads::{MissEvent, MissSource};
use proptest::prelude::*;

/// Cache-line indices must stay below 2^58 (byte addresses are u64).
const MAX_LINE: u64 = u64::MAX / 64;

/// App lengths at and around the writer's 4096-record block boundaries.
const LENGTHS: [usize; 6] = [0, 1, 4095, 4096, 4097, 8193];

fn event_strategy() -> impl Strategy<Value = MissEvent> {
    (1u64..1 << 40, 0u64..MAX_LINE, 0u64..MAX_LINE, 0u8..4).prop_map(
        |(gap, line, wb_line, wb_sel)| MissEvent {
            gap_instructions: gap,
            addr: PhysAddr::from_cache_line(line),
            // ~25% of misses carry a writeback, anywhere in the space.
            writeback: (wb_sel == 0).then(|| PhysAddr::from_cache_line(wb_line)),
        },
    )
}

fn header(apps: usize) -> TraceHeader {
    TraceHeader {
        generation: MemGeneration::Ddr3,
        config_hash: 0xDEAD_BEEF_CAFE_F00D,
        seed: 42,
        slice_lines: 1 << 20,
        apps: (0..apps).map(|i| format!("app{i}")).collect(),
    }
}

fn encode(hdr: &TraceHeader, streams: &[Vec<MissEvent>]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), hdr).unwrap();
    for (app, events) in streams.iter().enumerate() {
        w.append_stream(app, events).unwrap();
    }
    w.finish().unwrap()
}

/// Drains every app's cursor, both a fresh [`ReplayTrace::stream`] and the
/// boxed one [`ReplayTrace::streams`] mints: each yields the app's events
/// exactly while `remaining()` counts down to 0, then keeps yielding `None`.
fn assert_cursors_replay(trace: &ReplayTrace, streams: &[Vec<MissEvent>]) {
    let mut boxed = trace.streams();
    assert_eq!(boxed.len(), streams.len());
    for (app, events) in streams.iter().enumerate() {
        let mut cursor = trace.stream(app);
        assert_eq!(cursor.app(), AppId(app));
        assert_eq!(boxed[app].app(), AppId(app));
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(cursor.remaining(), events.len() - i, "app {app}");
            assert_eq!(cursor.next_event().as_ref(), Some(ev), "app {app} #{i}");
            assert_eq!(boxed[app].next_event().as_ref(), Some(ev), "app {app} #{i}");
        }
        assert_eq!(cursor.remaining(), 0);
        for _ in 0..3 {
            assert_eq!(cursor.next_event(), None, "app {app} past its end");
            assert_eq!(boxed[app].next_event(), None, "app {app} past its end");
        }
        assert_eq!(cursor.remaining(), 0);
    }
}

/// The whole artifact round-trips: the bytes re-read and the bytes
/// [`ReplayTrace::from_streams`] frames are the writer's bytes, and both
/// traces give back the header and every app's events, through the cursors
/// and through the lazy `events` view, which only then adds to the heap.
fn assert_round_trips(streams: &[Vec<MissEvent>]) {
    let hdr = header(streams.len());
    let bytes = encode(&hdr, streams);
    let reread = TraceReader::new(&bytes[..]).read().unwrap();
    let fresh = ReplayTrace::from_streams(
        hdr.clone(),
        streams
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect(),
    );
    let records: usize = streams.iter().map(Vec::len).sum();
    for trace in [&reread, &fresh] {
        assert_eq!(trace.header(), &hdr);
        assert_eq!(trace.as_bytes(), &bytes[..]);
        assert_eq!(trace.apps(), streams.len());
        assert_cursors_replay(trace, streams);
        let encoded = trace.heap_bytes();
        assert!(encoded >= bytes.len());
        for (app, events) in streams.iter().enumerate() {
            assert_eq!(trace.events(app), &events[..]);
        }
        assert_eq!(
            trace.heap_bytes(),
            encoded + records * std::mem::size_of::<MissEvent>()
        );
    }
    assert_eq!(reread.summary(), fresh.summary());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode ∘ decode = id for the whole artifact: header metadata and
    /// every app's event stream survive a write/read cycle byte-exactly.
    #[test]
    fn file_round_trips(
        streams in prop::collection::vec(
            prop::collection::vec(event_strategy(), 0..300),
            1..5,
        ),
    ) {
        assert_round_trips(&streams);
    }

    /// The writer's output is a pure function of (header, streams): two
    /// writes of the same data are byte-identical — required for the golden
    /// fixture to stay stable.
    #[test]
    fn encoding_is_deterministic(
        events in prop::collection::vec(event_strategy(), 0..200),
    ) {
        let hdr = header(1);
        let encode = || {
            let mut w = TraceWriter::new(Vec::new(), &hdr).unwrap();
            w.append_stream(0, &events).unwrap();
            w.finish().unwrap()
        };
        prop_assert_eq!(encode(), encode());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same identity with app lengths at and around the block size, so
    /// cursors start, cross and end blocks at every boundary the writer
    /// makes.
    #[test]
    fn block_boundaries_round_trip(
        apps in prop::collection::vec(
            (0..LENGTHS.len(), prop::collection::vec(event_strategy(), 8193..8194)),
            1..4,
        ),
    ) {
        let streams: Vec<Vec<MissEvent>> = apps
            .into_iter()
            .map(|(len, mut events)| {
                events.truncate(LENGTHS[len]);
                events
            })
            .collect();
        assert_round_trips(&streams);
    }
}

#[test]
fn empty_streams_round_trip() {
    let hdr = header(3);
    let w = TraceWriter::new(Vec::new(), &hdr).unwrap();
    let bytes = w.finish().unwrap();
    let trace = TraceReader::new(&bytes[..]).read().unwrap();
    assert_eq!(trace.apps(), 3);
    assert_eq!(trace.summary().records_per_app, vec![0, 0, 0]);
}
