//! Durable sweep state: the write-ahead job journal and the on-disk
//! baseline cache (see DESIGN.md §15).
//!
//! With `--state-dir` the server keeps two [`RecordLog`]s:
//!
//! * **`journal.log`** — job lifecycle and completed cells. Before a
//!   response becomes externally visible, its record is appended and
//!   fsynced: `admitted` before the admission line, `cell_done` before
//!   each fresh cell line, `job_done` before the `done` line. A crash
//!   therefore never loses a result the client saw, and replaying the
//!   journal at startup repopulates the cell LRU and identifies jobs
//!   that were admitted but never closed (*interrupted* jobs, marked
//!   `abandoned` so a second restart does not re-report them).
//! * **`baselines.log`** — backend-encoded calibration bundles keyed by
//!   `(fingerprint, trace CRC)`, appended after each successful
//!   calibration. Replay keeps the last record per key.
//!
//! Records are opaque payloads behind the store's frame CRCs; the codecs
//! here are total — a malformed payload decodes to `None` and is counted
//! as corrupt, never panicking the server.

use crate::cache::CacheKey;
use memscale_store::codec::{put_bytes, put_str, put_u64, Cursor};
use memscale_store::{RecordLog, StoreError};
use memscale_types::serve::CellMetrics;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Purpose byte of `journal.log`.
pub const PURPOSE_JOURNAL: u8 = 1;
/// Purpose byte of `baselines.log`.
pub const PURPOSE_BASELINES: u8 = 2;

const TAG_ADMITTED: u64 = 1;
const TAG_CELL_DONE: u64 = 2;
const TAG_JOB_DONE: u64 = 3;
const TAG_BASELINE: u64 = 4;
const TAG_ABANDONED: u64 = 5;

/// One entry of the write-ahead job journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job passed admission control; its cells may start landing.
    Admitted {
        /// Client-chosen job id.
        id: String,
        /// `SimConfig::fingerprint()` of the job.
        fingerprint: u64,
        /// CRC-32 of the job's input identity.
        trace_crc: u32,
        /// Cell labels of the job's plan, in grid order.
        cells: Vec<String>,
    },
    /// A cell completed with metrics (cache-key addressed, so any future
    /// job with the same identity reuses it).
    CellDone {
        /// `SimConfig::fingerprint()` of the producing job.
        fingerprint: u64,
        /// CRC-32 of the producing job's input identity.
        trace_crc: u32,
        /// Policy wire name of the cell.
        label: String,
        /// The metrics, persisted bit-exactly.
        metrics: CellMetrics,
    },
    /// The job's terminal `done` line was about to be sent.
    JobDone {
        /// Client-chosen job id.
        id: String,
    },
    /// The job terminated without a `done` line (terminal error, client
    /// disconnect) — or was found interrupted during recovery.
    Abandoned {
        /// Client-chosen job id.
        id: String,
    },
}

/// Encodes a [`CellMetrics`] as five bit-exact `f64` images, followed —
/// only when the cell carried service-workload results — by a flags word
/// and the flagged optional fields. Records without service fields stay
/// byte-identical to the pre-service format, so old logs replay
/// unchanged and old servers can still read the common case.
fn put_metrics(out: &mut Vec<u8>, m: &CellMetrics) {
    put_u64(out, m.memory_savings.to_bits());
    put_u64(out, m.system_savings.to_bits());
    put_u64(out, m.cpi_increase_avg.to_bits());
    put_u64(out, m.cpi_increase_max.to_bits());
    put_u64(out, m.mean_frequency_mhz.to_bits());
    let flags = u64::from(m.p99_ms.is_some()) | (u64::from(m.slo_violations.is_some()) << 1);
    if flags != 0 {
        put_u64(out, flags);
        if let Some(p) = m.p99_ms {
            put_u64(out, p.to_bits());
        }
        if let Some(v) = m.slo_violations {
            put_u64(out, v);
        }
    }
}

fn take_metrics(cur: &mut Cursor<'_>) -> Option<CellMetrics> {
    let memory_savings = f64::from_bits(cur.take_u64()?);
    let system_savings = f64::from_bits(cur.take_u64()?);
    let cpi_increase_avg = f64::from_bits(cur.take_u64()?);
    let cpi_increase_max = f64::from_bits(cur.take_u64()?);
    let mean_frequency_mhz = f64::from_bits(cur.take_u64()?);
    // Metrics are the final field of their record: an exhausted cursor is
    // a pre-service record, anything else is the flagged tail.
    let (p99_ms, slo_violations) = if cur.is_empty() {
        (None, None)
    } else {
        let flags = cur.take_u64()?;
        // The encoder omits the tail entirely when no field is present, so
        // a zero flags word is corruption (e.g. a trailing garbage byte).
        if flags == 0 || flags & !0b11 != 0 {
            return None;
        }
        let p99 = if flags & 0b01 != 0 {
            Some(f64::from_bits(cur.take_u64()?))
        } else {
            None
        };
        let violations = if flags & 0b10 != 0 {
            Some(cur.take_u64()?)
        } else {
            None
        };
        (p99, violations)
    };
    Some(CellMetrics {
        memory_savings,
        system_savings,
        cpi_increase_avg,
        cpi_increase_max,
        mean_frequency_mhz,
        p99_ms,
        slo_violations,
    })
}

impl JournalRecord {
    /// Serialises the record into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JournalRecord::Admitted {
                id,
                fingerprint,
                trace_crc,
                cells,
            } => {
                put_u64(&mut out, TAG_ADMITTED);
                put_str(&mut out, id);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, u64::from(*trace_crc));
                put_u64(&mut out, cells.len() as u64);
                for label in cells {
                    put_str(&mut out, label);
                }
            }
            JournalRecord::CellDone {
                fingerprint,
                trace_crc,
                label,
                metrics,
            } => {
                put_u64(&mut out, TAG_CELL_DONE);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, u64::from(*trace_crc));
                put_str(&mut out, label);
                put_metrics(&mut out, metrics);
            }
            JournalRecord::JobDone { id } => {
                put_u64(&mut out, TAG_JOB_DONE);
                put_str(&mut out, id);
            }
            JournalRecord::Abandoned { id } => {
                put_u64(&mut out, TAG_ABANDONED);
                put_str(&mut out, id);
            }
        }
        out
    }

    /// Decodes a frame payload, or `None` when malformed.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut cur = Cursor::new(bytes);
        let record = match cur.take_u64()? {
            TAG_ADMITTED => {
                let id = cur.take_str()?.to_string();
                let fingerprint = cur.take_u64()?;
                let trace_crc = u32::try_from(cur.take_u64()?).ok()?;
                let n = usize::try_from(cur.take_u64()?).ok()?;
                if n > 1_000_000 {
                    return None;
                }
                let mut cells = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    cells.push(cur.take_str()?.to_string());
                }
                JournalRecord::Admitted {
                    id,
                    fingerprint,
                    trace_crc,
                    cells,
                }
            }
            TAG_CELL_DONE => JournalRecord::CellDone {
                fingerprint: cur.take_u64()?,
                trace_crc: u32::try_from(cur.take_u64()?).ok()?,
                label: cur.take_str()?.to_string(),
                metrics: take_metrics(&mut cur)?,
            },
            TAG_JOB_DONE => JournalRecord::JobDone {
                id: cur.take_str()?.to_string(),
            },
            TAG_ABANDONED => JournalRecord::Abandoned {
                id: cur.take_str()?.to_string(),
            },
            _ => return None,
        };
        cur.is_empty().then_some(record)
    }
}

/// Encodes a baseline-cache record: key plus the backend's opaque bundle.
pub fn encode_baseline_record(fingerprint: u64, trace_crc: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, TAG_BASELINE);
    put_u64(&mut out, fingerprint);
    put_u64(&mut out, u64::from(trace_crc));
    put_bytes(&mut out, payload);
    out
}

/// Decodes a baseline-cache record, or `None` when malformed.
pub fn decode_baseline_record(bytes: &[u8]) -> Option<(u64, u32, Vec<u8>)> {
    let mut cur = Cursor::new(bytes);
    if cur.take_u64()? != TAG_BASELINE {
        return None;
    }
    let fingerprint = cur.take_u64()?;
    let trace_crc = u32::try_from(cur.take_u64()?).ok()?;
    let payload = cur.take_bytes()?.to_vec();
    cur.is_empty().then_some((fingerprint, trace_crc, payload))
}

/// What startup recovery found and repaired (surfaced by
/// `SweepServer::recovery_report` and the CLI banner).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Completed cells replayed into the result cache.
    pub cells_recovered: usize,
    /// Baseline bundles replayed into the calibration cache (after
    /// backend decoding; bundles the backend rejects count as corrupt).
    pub baselines_recovered: usize,
    /// Jobs admitted but never closed before the crash, now marked
    /// abandoned. Resubmitting them re-runs only their missing cells.
    pub interrupted_jobs: Vec<String>,
    /// Frame-valid records whose payload failed to decode (version skew
    /// or writer bug) — skipped, never fatal.
    pub corrupt_records: usize,
    /// Torn-tail bytes truncated from `journal.log`.
    pub journal_truncated_bytes: u64,
    /// Torn-tail bytes truncated from `baselines.log`.
    pub baseline_truncated_bytes: u64,
    /// Wall-clock spent scanning and replaying both logs, milliseconds
    /// (excludes backend baseline decoding, which the server times
    /// separately).
    pub replay_wall_ms: f64,
}

/// Everything recovery replayed out of the logs, ready to seed the LRUs.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Completed cells in journal order (later duplicates win).
    pub cells: Vec<(CacheKey, CellMetrics)>,
    /// Baseline bundles in log order (later duplicates win), still
    /// backend-opaque.
    pub baselines: Vec<(CacheKey, Vec<u8>)>,
    /// Scan/replay accounting.
    pub report: RecoveryReport,
}

/// The open journal and baseline logs of a `--state-dir` server.
#[derive(Debug)]
pub struct DurableState {
    journal: RecordLog,
    baselines: RecordLog,
}

impl DurableState {
    /// Opens (creating as needed) the logs under `dir`, replays them, and
    /// marks interrupted jobs abandoned.
    ///
    /// # Errors
    ///
    /// Unrepairable store defects (foreign files, newer format) and real
    /// I/O failures; torn tails and corrupt payloads are recovered, not
    /// errors.
    pub fn open(dir: &Path) -> Result<(Self, RecoveredState), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("creating state directory", &e))?;
        let replay_started = Instant::now();
        let (mut journal, journal_rec) =
            RecordLog::open(&dir.join("journal.log"), PURPOSE_JOURNAL)?;
        let (baselines, baseline_rec) =
            RecordLog::open(&dir.join("baselines.log"), PURPOSE_BASELINES)?;

        let mut state = RecoveredState::default();
        state.report.journal_truncated_bytes = journal_rec.truncated_bytes;
        state.report.baseline_truncated_bytes = baseline_rec.truncated_bytes;

        // Journal replay: completed cells seed the result cache; jobs
        // admitted but never closed are the interrupted ones.
        let mut cell_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut open_jobs: Vec<String> = Vec::new();
        let mut open_set: HashSet<String> = HashSet::new();
        for payload in &journal_rec.records {
            match JournalRecord::decode(payload) {
                Some(JournalRecord::Admitted { id, .. }) => {
                    if open_set.insert(id.clone()) {
                        open_jobs.push(id);
                    }
                }
                Some(JournalRecord::JobDone { id } | JournalRecord::Abandoned { id }) => {
                    if open_set.remove(&id) {
                        open_jobs.retain(|j| j != &id);
                    }
                }
                Some(JournalRecord::CellDone {
                    fingerprint,
                    trace_crc,
                    label,
                    metrics,
                }) => {
                    let key = CacheKey {
                        fingerprint,
                        trace_crc,
                        label,
                    };
                    match cell_index.get(&key) {
                        Some(&i) => state.cells[i].1 = metrics,
                        None => {
                            cell_index.insert(key.clone(), state.cells.len());
                            state.cells.push((key, metrics));
                        }
                    }
                }
                None => state.report.corrupt_records += 1,
            }
        }

        // Baseline replay: last record per key wins.
        let mut baseline_index: HashMap<CacheKey, usize> = HashMap::new();
        for payload in &baseline_rec.records {
            match decode_baseline_record(payload) {
                Some((fingerprint, trace_crc, bundle)) => {
                    let key = CacheKey {
                        fingerprint,
                        trace_crc,
                        label: CacheKey::BASELINE.into(),
                    };
                    match baseline_index.get(&key) {
                        Some(&i) => state.baselines[i].1 = bundle,
                        None => {
                            baseline_index.insert(key.clone(), state.baselines.len());
                            state.baselines.push((key, bundle));
                        }
                    }
                }
                None => state.report.corrupt_records += 1,
            }
        }

        // Mark interrupted jobs so a second restart does not re-report
        // them; their completed cells stay recovered above.
        if !open_jobs.is_empty() {
            for id in &open_jobs {
                journal.append(&JournalRecord::Abandoned { id: id.clone() }.encode())?;
            }
            journal.commit()?;
        }
        state.report.cells_recovered = state.cells.len();
        state.report.baselines_recovered = state.baselines.len();
        state.report.interrupted_jobs = open_jobs;
        state.report.replay_wall_ms = replay_started.elapsed().as_secs_f64() * 1e3;
        Ok((DurableState { journal, baselines }, state))
    }

    /// Appends and fsyncs one journal record (the write-ahead step).
    ///
    /// # Errors
    ///
    /// The underlying append/sync failure.
    pub fn record(&mut self, rec: &JournalRecord) -> Result<(), StoreError> {
        self.journal.append_commit(&rec.encode())
    }

    /// Appends and fsyncs one baseline bundle.
    ///
    /// # Errors
    ///
    /// The underlying append/sync failure (including
    /// [`StoreError::RecordTooLarge`] for oversized bundles, which the
    /// server skips without disabling durability).
    pub fn record_baseline(
        &mut self,
        fingerprint: u64,
        trace_crc: u32,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        self.baselines
            .append_commit(&encode_baseline_record(fingerprint, trace_crc, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEQ: AtomicU64 = AtomicU64::new(0);

    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            ScratchDir(
                std::env::temp_dir()
                    .join(format!("memscale_persist_{tag}_{}_{n}", std::process::id())),
            )
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn metrics(seed: f64) -> CellMetrics {
        CellMetrics {
            memory_savings: seed,
            system_savings: seed / 2.0,
            cpi_increase_avg: seed / 3.0,
            cpi_increase_max: seed / 4.0,
            mean_frequency_mhz: 800.0 - seed,
            p99_ms: None,
            slo_violations: None,
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Admitted {
                id: "job-1".into(),
                fingerprint: 0xDEAD_BEEF_u64,
                trace_crc: 0x1234_5678,
                cells: vec!["static:800".into(), "memscale".into()],
            },
            JournalRecord::CellDone {
                fingerprint: 0xDEAD_BEEF_u64,
                trace_crc: 0x1234_5678,
                label: "memscale".into(),
                metrics: metrics(17.25),
            },
            JournalRecord::CellDone {
                fingerprint: 0xDEAD_BEEF_u64,
                trace_crc: 0x1234_5678,
                label: "memscale".into(),
                metrics: CellMetrics {
                    p99_ms: Some(3.25),
                    slo_violations: Some(7),
                    ..metrics(4.5)
                },
            },
            JournalRecord::CellDone {
                fingerprint: 0xDEAD_BEEF_u64,
                trace_crc: 0x1234_5678,
                label: "memscale".into(),
                metrics: CellMetrics {
                    slo_violations: Some(0),
                    ..metrics(4.5)
                },
            },
            JournalRecord::JobDone { id: "job-1".into() },
            JournalRecord::Abandoned { id: "job-2".into() },
        ]
    }

    #[test]
    fn journal_records_round_trip() {
        for rec in sample_records() {
            let bytes = rec.encode();
            assert_eq!(JournalRecord::decode(&bytes), Some(rec.clone()), "{rec:?}");
            // Trailing garbage must be rejected, not silently accepted.
            let mut padded = bytes.clone();
            padded.push(0);
            assert_eq!(JournalRecord::decode(&padded), None);
            // Every truncation of the payload is a decode failure, with one
            // inherent exception: cutting a service-tailed `CellDone` exactly
            // at the pre-service boundary yields a valid legacy record (that's
            // what backward compatibility means). Real torn writes are caught
            // by the record-log frame CRC, not this codec.
            let stripped = match &rec {
                JournalRecord::CellDone {
                    fingerprint,
                    trace_crc,
                    label,
                    metrics,
                } if metrics.p99_ms.is_some() || metrics.slo_violations.is_some() => {
                    Some(JournalRecord::CellDone {
                        fingerprint: *fingerprint,
                        trace_crc: *trace_crc,
                        label: label.clone(),
                        metrics: CellMetrics {
                            p99_ms: None,
                            slo_violations: None,
                            ..*metrics
                        },
                    })
                }
                _ => None,
            };
            for cut in 0..bytes.len() {
                let decoded = JournalRecord::decode(&bytes[..cut]);
                if decoded.is_some() && decoded == stripped {
                    continue;
                }
                assert_eq!(decoded, None, "cut {cut}");
            }
        }
    }

    #[test]
    fn metrics_persist_bit_exactly() {
        let odd = CellMetrics {
            memory_savings: f64::from_bits(0x7FF0_0000_0000_0001), // a NaN payload
            system_savings: -0.0,
            cpi_increase_avg: f64::MIN_POSITIVE / 2.0, // subnormal
            cpi_increase_max: f64::INFINITY,
            mean_frequency_mhz: 1e-308,
            p99_ms: Some(f64::from_bits(0xFFF8_0000_0000_0002)),
            slo_violations: Some(u64::MAX),
        };
        let rec = JournalRecord::CellDone {
            fingerprint: 1,
            trace_crc: 2,
            label: "static:400".into(),
            metrics: odd,
        };
        let Some(JournalRecord::CellDone { metrics: back, .. }) =
            JournalRecord::decode(&rec.encode())
        else {
            panic!("decode failed");
        };
        assert_eq!(back.memory_savings.to_bits(), odd.memory_savings.to_bits());
        assert_eq!(back.system_savings.to_bits(), odd.system_savings.to_bits());
        assert_eq!(
            back.cpi_increase_avg.to_bits(),
            odd.cpi_increase_avg.to_bits()
        );
        assert_eq!(
            back.cpi_increase_max.to_bits(),
            odd.cpi_increase_max.to_bits()
        );
        assert_eq!(
            back.mean_frequency_mhz.to_bits(),
            odd.mean_frequency_mhz.to_bits()
        );
        assert_eq!(back.p99_ms.map(f64::to_bits), odd.p99_ms.map(f64::to_bits));
        assert_eq!(back.slo_violations, odd.slo_violations);
    }

    #[test]
    fn pre_service_cell_records_decode_with_none_fields() {
        // A CellDone frame written before the service-workload fields
        // existed: tag + key + label + exactly five metric words.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, TAG_CELL_DONE);
        put_u64(&mut bytes, 11);
        put_u64(&mut bytes, 22);
        put_str(&mut bytes, "memscale");
        for v in [0.2f64, 0.07, 0.01, 0.03, 512.5] {
            put_u64(&mut bytes, v.to_bits());
        }
        let Some(JournalRecord::CellDone { metrics: m, .. }) = JournalRecord::decode(&bytes) else {
            panic!("pre-service record must decode");
        };
        assert_eq!(m.p99_ms, None);
        assert_eq!(m.slo_violations, None);
        assert_eq!(m.mean_frequency_mhz, 512.5);
        // An unknown flag bit in the tail is corruption, not a guess.
        let mut flagged = bytes.clone();
        put_u64(&mut flagged, 0b100);
        assert_eq!(JournalRecord::decode(&flagged), None);
    }

    #[test]
    fn baseline_records_round_trip() {
        let bytes = encode_baseline_record(7, 9, b"bundle-bytes");
        assert_eq!(
            decode_baseline_record(&bytes),
            Some((7, 9, b"bundle-bytes".to_vec()))
        );
        for cut in 0..bytes.len() {
            assert_eq!(decode_baseline_record(&bytes[..cut]), None);
        }
        // A journal record is not a baseline record and vice versa.
        assert_eq!(
            decode_baseline_record(&JournalRecord::JobDone { id: "x".into() }.encode()),
            None
        );
        assert_eq!(JournalRecord::decode(&bytes), None);
    }

    #[test]
    fn open_replays_cells_and_marks_interrupted_jobs() {
        let scratch = ScratchDir::new("replay");
        {
            let (mut state, rec) = DurableState::open(&scratch.0).expect("open");
            assert!(rec.report.interrupted_jobs.is_empty());
            state
                .record(&JournalRecord::Admitted {
                    id: "done-job".into(),
                    fingerprint: 1,
                    trace_crc: 2,
                    cells: vec!["memscale".into()],
                })
                .expect("record");
            state
                .record(&JournalRecord::CellDone {
                    fingerprint: 1,
                    trace_crc: 2,
                    label: "memscale".into(),
                    metrics: metrics(5.0),
                })
                .expect("record");
            state
                .record(&JournalRecord::JobDone {
                    id: "done-job".into(),
                })
                .expect("record");
            state
                .record(&JournalRecord::Admitted {
                    id: "crashed-job".into(),
                    fingerprint: 1,
                    trace_crc: 2,
                    cells: vec!["memscale".into(), "static:800".into()],
                })
                .expect("record");
            state
                .record(&JournalRecord::CellDone {
                    fingerprint: 1,
                    trace_crc: 2,
                    label: "static:800".into(),
                    metrics: metrics(9.0),
                })
                .expect("record");
            state
                .record_baseline(1, 2, b"calibration-bundle")
                .expect("baseline");
            // No JobDone for crashed-job: this is the kill -9 point.
        }
        let (_, rec) = DurableState::open(&scratch.0).expect("reopen");
        assert_eq!(rec.report.interrupted_jobs, vec!["crashed-job".to_string()]);
        assert_eq!(rec.report.cells_recovered, 2);
        assert_eq!(rec.report.baselines_recovered, 1);
        assert_eq!(rec.report.corrupt_records, 0);
        let labels: Vec<&str> = rec.cells.iter().map(|(k, _)| k.label.as_str()).collect();
        assert_eq!(labels, vec!["memscale", "static:800"]);
        assert_eq!(rec.baselines[0].1, b"calibration-bundle");
        assert_eq!(rec.baselines[0].0.label, CacheKey::BASELINE);

        // Third open: the abandoned mark written above closes the job.
        let (_, rec) = DurableState::open(&scratch.0).expect("third open");
        assert!(rec.report.interrupted_jobs.is_empty());
        assert_eq!(rec.report.cells_recovered, 2);
    }

    #[test]
    fn duplicate_cells_and_baselines_keep_the_last_record() {
        let scratch = ScratchDir::new("dups");
        {
            let (mut state, _) = DurableState::open(&scratch.0).expect("open");
            for v in [1.0, 2.0, 3.0] {
                state
                    .record(&JournalRecord::CellDone {
                        fingerprint: 4,
                        trace_crc: 4,
                        label: "memscale".into(),
                        metrics: metrics(v),
                    })
                    .expect("record");
            }
            state.record_baseline(4, 4, b"old").expect("baseline");
            state.record_baseline(4, 4, b"new").expect("baseline");
        }
        let (_, rec) = DurableState::open(&scratch.0).expect("reopen");
        assert_eq!(rec.cells.len(), 1);
        assert_eq!(rec.cells[0].1.memory_savings, 3.0);
        assert_eq!(rec.baselines.len(), 1);
        assert_eq!(rec.baselines[0].1, b"new");
    }

    mod fuzz {
        use super::*;
        use memscale_types::rng::SplitMix64;
        use proptest::prelude::*;

        /// Seed-derived label: ASCII letters, digits, and colons so labels
        /// look like real policy names, plus the occasional multibyte
        /// character to exercise UTF-8 handling.
        fn label_from(rng: &mut SplitMix64) -> String {
            const ALPHABET: &[char] = &[
                'a', 'b', 'c', 'm', 's', 't', ':', '0', '1', '4', '8', '9', 'µ', '≤',
            ];
            let len = rng.range(1, 17);
            (0..len)
                .map(|_| {
                    ALPHABET[usize::try_from(rng.range(0, ALPHABET.len() as u64)).unwrap_or(0)]
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn admitted_records_round_trip(
                seed in any::<u64>(),
                fingerprint in any::<u64>(),
                trace_crc in any::<u32>(),
                n_cells in 0usize..8,
            ) {
                let mut rng = SplitMix64::new(seed);
                let id = label_from(&mut rng);
                let cells: Vec<String> = (0..n_cells).map(|_| label_from(&mut rng)).collect();
                let rec = JournalRecord::Admitted { id, fingerprint, trace_crc, cells };
                prop_assert_eq!(JournalRecord::decode(&rec.encode()), Some(rec.clone()));
            }

            #[test]
            fn cell_done_records_round_trip(
                seed in any::<u64>(),
                fingerprint in any::<u64>(),
                trace_crc in any::<u32>(),
            ) {
                let mut rng = SplitMix64::new(seed);
                let label = label_from(&mut rng);
                let bits: Vec<u64> = (0..7).map(|_| rng.next_u64()).collect();
                let with_p99 = rng.next_u64() & 1 != 0;
                let with_viol = rng.next_u64() & 1 != 0;
                let metrics = CellMetrics {
                    memory_savings: f64::from_bits(bits[0]),
                    system_savings: f64::from_bits(bits[1]),
                    cpi_increase_avg: f64::from_bits(bits[2]),
                    cpi_increase_max: f64::from_bits(bits[3]),
                    mean_frequency_mhz: f64::from_bits(bits[4]),
                    p99_ms: with_p99.then(|| f64::from_bits(bits[5])),
                    slo_violations: with_viol.then_some(bits[6]),
                };
                let rec = JournalRecord::CellDone { fingerprint, trace_crc, label, metrics };
                let back = JournalRecord::decode(&rec.encode()).expect("decodes");
                let JournalRecord::CellDone { metrics: m2, .. } = &back else {
                    panic!("wrong variant");
                };
                // Bit-exact equality (PartialEq would reject NaN metrics).
                prop_assert_eq!(m2.memory_savings.to_bits(), bits[0]);
                prop_assert_eq!(m2.system_savings.to_bits(), bits[1]);
                prop_assert_eq!(m2.cpi_increase_avg.to_bits(), bits[2]);
                prop_assert_eq!(m2.cpi_increase_max.to_bits(), bits[3]);
                prop_assert_eq!(m2.mean_frequency_mhz.to_bits(), bits[4]);
                prop_assert_eq!(m2.p99_ms.map(f64::to_bits), with_p99.then_some(bits[5]));
                prop_assert_eq!(m2.slo_violations, with_viol.then_some(bits[6]));
            }

            #[test]
            fn arbitrary_bytes_never_panic_the_decoders(
                seed in any::<u64>(),
                len in 0usize..128,
            ) {
                let mut rng = SplitMix64::new(seed);
                let bytes: Vec<u8> =
                    (0..len).map(|_| u8::try_from(rng.next_u64() & 0xff).unwrap_or(0)).collect();
                let _ = JournalRecord::decode(&bytes);
                let _ = decode_baseline_record(&bytes);
            }
        }
    }
}
