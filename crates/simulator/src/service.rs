//! The simulator's [`SweepBackend`] implementation for `memscale-serve`.
//!
//! `memscale-serve` owns the protocol, cache and admission machinery but
//! knows nothing about simulation; this module plugs the replay harness in
//! behind its [`SweepBackend`] trait. A job resolves to:
//!
//! * a **plan** — configuration fingerprint, input CRC and policy cells —
//!   computed before admission, so malformed jobs, and jobs naming a trace
//!   whose header does not match their run, are rejected without costing
//!   a simulation;
//! * a **baseline bundle** ([`ServeBaseline`]) — the calibrated
//!   [`Experiment`] plus the [`ReplayTrace`] every cell replays — built
//!   once per `(fingerprint, input)` and shared via the server's
//!   calibration cache. A recorded job's recording baseline is its
//!   calibrated experiment; a trace file or a persisted baseline
//!   calibrates by replay;
//! * per-cell evaluations — `evaluate_replay` of the cell's policy,
//!   mirroring [`crate::shard::replay_sharded`] one cell at a time so the
//!   server can schedule and cache cells independently.
//!
//! A job's service workload (`arrivals`, `slo_p99_ms`) is part of its
//! [`SimConfig`], so the fingerprint separates batch from service jobs and
//! one service workload from another, and the same calls run both kinds.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::harness::{check_header, record_calibrated, Experiment};
use crate::shard::default_grid;
use memscale::policies::PolicyKind;
use memscale_serve::server::{JobPlan, SweepBackend};
use memscale_serve::wire::{decode_job, encode_job};
use memscale_trace::format::{crc32, read_varint, write_varint};
use memscale_trace::{ReplayTrace, TraceReader};
use memscale_types::freq::MemFreq;
use memscale_types::serve::{CellFailure, CellMetrics, ErrorCode, JobSpec};
use memscale_types::CancelToken;
use memscale_workloads::Mix;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// The calibrated artifact shared by every cell of a job.
#[derive(Debug)]
pub struct ServeBaseline {
    exp: Experiment,
    trace: ReplayTrace,
}

/// The simulator-backed sweep backend handed to
/// [`memscale_serve::SweepServer::bind`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatorBackend;

/// Maps a [`SimError`] onto the wire error vocabulary.
fn sim_error_code(e: &SimError) -> ErrorCode {
    match e {
        SimError::InvalidConfig(_) | SimError::InvalidFaultPlan(_) => ErrorCode::InvalidConfig,
        SimError::PolicyUnavailable { .. } => ErrorCode::UnknownPolicy,
        SimError::Trace(_) | SimError::TraceExhausted { .. } => ErrorCode::Trace,
        SimError::Cancelled { .. } => ErrorCode::Cancelled,
        _ => ErrorCode::Sim,
    }
}

impl SimulatorBackend {
    fn resolve(&self, job: &JobSpec) -> Result<(Mix, SimConfig), (ErrorCode, String)> {
        let mix = Mix::by_name(&job.mix).map_err(|e| (ErrorCode::UnknownMix, e.to_string()))?;
        let cfg = SimConfig::for_job(job)
            .map_err(|e| (ErrorCode::BadRequest, format!("arrivals: {e}")))?;
        cfg.system
            .validate()
            .map_err(|e| (ErrorCode::InvalidConfig, e.to_string()))?;
        Ok((mix, cfg))
    }
}

impl SweepBackend for SimulatorBackend {
    type Baseline = ServeBaseline;

    fn plan(&self, job: &JobSpec) -> Result<JobPlan, (ErrorCode, String)> {
        let (mix, cfg) = self.resolve(job)?;
        let cells: Vec<String> = if job.policies.is_empty() {
            default_grid(job.generation)
                .iter()
                .map(|s| s.policy.wire_name())
                .collect()
        } else {
            job.policies
                .iter()
                .map(|name| {
                    let policy =
                        PolicyKind::parse(name).map_err(|e| (ErrorCode::UnknownPolicy, e))?;
                    if !policy.available_on(job.generation) {
                        return Err((
                            ErrorCode::UnknownPolicy,
                            format!(
                                "policy {name} is not available on generation {}",
                                job.generation
                            ),
                        ));
                    }
                    Ok(policy.wire_name())
                })
                .collect::<Result<_, _>>()?
        };
        // Input identity: the canonical mix name, then the trace file's
        // bytes for a replay job. A live job's input is the mix alone: the
        // fingerprint pins seed, duration, hardware and workload, so
        // regeneration is deterministic.
        let mut input = mix.name.as_bytes().to_vec();
        if let Some(path) = &job.trace {
            File::open(path)
                .and_then(|mut file| file.read_to_end(&mut input))
                .map_err(|e| (ErrorCode::Trace, format!("cannot read trace {path}: {e}")))?;
            // The header ends in its own CRC-32, so the input's CRC cannot
            // tell one header from another of the same length: check it
            // here, before admission and any cache lookup.
            let header = TraceReader::new(&input[mix.name.len()..])
                .read_header()
                .map_err(|e| (ErrorCode::Trace, format!("trace {path}: {e}")))?;
            check_header(&mix, &cfg, &header)
                .map_err(|e| (ErrorCode::Trace, format!("trace {path}: {e}")))?;
        }
        Ok(JobPlan {
            fingerprint: cfg.fingerprint(),
            trace_crc: crc32(&input),
            cells,
        })
    }

    fn calibrate(&self, job: &JobSpec) -> Result<ServeBaseline, (ErrorCode, String)> {
        let (mix, cfg) = self.resolve(job)?;
        let sim_err = |e: SimError| (sim_error_code(&e), e.to_string());
        let (exp, trace) = match &job.trace {
            Some(path) => {
                let trace = ReplayTrace::open(Path::new(path))
                    .map_err(|e| (ErrorCode::Trace, e.to_string()))?;
                let exp = Experiment::calibrate_replay(&mix, &cfg, &trace).map_err(sim_err)?;
                (exp, trace)
            }
            None => {
                // The recording baseline is the calibrated experiment. A
                // batch job also records the grid's slowest static point so
                // every cell replays within margin; a service job's
                // Baseline run already bounds every cell (see
                // `record_calibrated`).
                let slowest = [PolicyKind::Static(MemFreq::MIN)];
                let extra: &[PolicyKind] = if cfg.service.is_some() { &[] } else { &slowest };
                let (exp, header, streams) =
                    record_calibrated(&mix, &cfg, extra, job.margin_pct).map_err(sim_err)?;
                (exp, ReplayTrace::from_streams(header, streams))
            }
        };
        Ok(ServeBaseline { exp, trace })
    }

    /// Serializes a baseline as `varint(job JSON length) | job JSON | trace
    /// file bytes` so the server can persist it to the baseline log. The
    /// job spec pins the mix and configuration; the trace bytes pin the
    /// recorded input, so decoding recalibrates deterministically. The
    /// trace is held as its file bytes, so they are copied, not encoded.
    fn encode_baseline(&self, job: &JobSpec, baseline: &ServeBaseline) -> Option<Vec<u8>> {
        let job_json = encode_job(job);
        let trace = baseline.trace.as_bytes();
        let mut out = Vec::with_capacity(10 + job_json.len() + trace.len());
        write_varint(&mut out, job_json.len() as u64);
        out.extend_from_slice(job_json.as_bytes());
        out.extend_from_slice(trace);
        Some(out)
    }

    /// Rebuilds a baseline from [`SweepBackend::encode_baseline`]'s bytes:
    /// parse the embedded job, read the trace (CRC-checked by the trace
    /// format), and recalibrate by replay — which is deterministic given the
    /// same configuration and trace, so a recovered baseline behaves exactly
    /// like the one that was persisted. Any defect, a trace recorded under
    /// another run description included, yields `None` (the server counts
    /// it as a corrupt record and recalibrates from scratch).
    fn decode_baseline(&self, bytes: &[u8]) -> Option<ServeBaseline> {
        let mut pos = 0usize;
        let json_len = usize::try_from(read_varint(bytes, &mut pos).ok()?).ok()?;
        let job_json = bytes.get(pos..pos.checked_add(json_len)?)?;
        let job = decode_job(std::str::from_utf8(job_json).ok()?).ok()?;
        let trace = TraceReader::new(bytes.get(pos + json_len..)?).read().ok()?;
        let (mix, cfg) = self.resolve(&job).ok()?;
        let exp = Experiment::calibrate_replay(&mix, &cfg, &trace).ok()?;
        Some(ServeBaseline { exp, trace })
    }

    fn run_cell(
        &self,
        baseline: &ServeBaseline,
        label: &str,
        cancel: &CancelToken,
    ) -> Result<CellMetrics, CellFailure> {
        let policy =
            PolicyKind::parse(label).map_err(|e| CellFailure::new(ErrorCode::UnknownPolicy, e))?;
        let (run, cmp) = baseline
            .exp
            .evaluate_replay_cancellable(policy, &baseline.trace, cancel)
            .map_err(|e| CellFailure::new(sim_error_code(&e), e.to_string()))?;
        // A service run reports its requests. It lasts the baseline's
        // duration, so its CPI increase reads 0, and only its memory
        // savings compare (see `crate::harness`).
        let requests = run.requests;
        Ok(CellMetrics {
            memory_savings: cmp.memory_savings,
            system_savings: match requests {
                Some(_) => cmp.memory_savings,
                None => cmp.system_savings,
            },
            cpi_increase_avg: cmp.avg_cpi_increase(),
            cpi_increase_max: cmp.max_cpi_increase(),
            mean_frequency_mhz: run.mean_frequency_mhz(),
            p99_ms: requests.map(|s| s.p99_ms),
            slo_violations: requests.map(|s| s.slo_violations),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job() -> JobSpec {
        let mut job = JobSpec::for_mix("t1", "MID1");
        job.duration_ms = 2;
        job.policies = vec!["static:800".into(), "memscale".into()];
        job
    }

    #[test]
    fn plan_resolves_cells_and_identity() {
        let plan = SimulatorBackend.plan(&tiny_job()).expect("plan");
        assert_eq!(plan.cells, vec!["static:800", "memscale"]);
        assert_eq!(plan.trace_crc, crc32(b"MID1"));
        assert_ne!(plan.fingerprint, 0);
    }

    #[test]
    fn plan_defaults_to_generation_grid() {
        let mut job = tiny_job();
        job.policies.clear();
        let plan = SimulatorBackend.plan(&job).expect("plan");
        assert_eq!(plan.cells.len(), default_grid(job.generation).len());
        assert!(plan.cells.iter().any(|c| c == "memscale"));
        assert!(plan.cells.iter().any(|c| c == "static:200"));
    }

    #[test]
    fn plan_rejects_unknown_mix_listing_valid_names() {
        let mut job = tiny_job();
        job.mix = "nope".into();
        let (code, detail) = SimulatorBackend.plan(&job).expect_err("must reject");
        assert_eq!(code, ErrorCode::UnknownMix);
        assert!(detail.contains("MID1"), "detail lists mixes: {detail}");
    }

    #[test]
    fn plan_rejects_unknown_and_unavailable_policies() {
        let mut job = tiny_job();
        job.policies = vec!["warp-drive".into()];
        let (code, _) = SimulatorBackend.plan(&job).expect_err("must reject");
        assert_eq!(code, ErrorCode::UnknownPolicy);

        let mut job = tiny_job();
        job.policies = vec!["deep-pd".into()]; // LPDDR-only
        let (code, detail) = SimulatorBackend.plan(&job).expect_err("must reject");
        assert_eq!(code, ErrorCode::UnknownPolicy);
        assert!(
            detail.to_lowercase().contains("ddr3"),
            "names the generation: {detail}"
        );
    }

    #[test]
    fn plan_rejects_invalid_config() {
        let mut job = tiny_job();
        job.channels = 0;
        let (code, _) = SimulatorBackend.plan(&job).expect_err("must reject");
        assert_eq!(code, ErrorCode::InvalidConfig);
    }

    #[test]
    fn calibrate_and_run_cell_end_to_end() {
        let job = tiny_job();
        let idle = CancelToken::new();
        let baseline = SimulatorBackend.calibrate(&job).expect("calibrate");
        let metrics = SimulatorBackend
            .run_cell(&baseline, "memscale", &idle)
            .expect("cell runs");
        assert!(metrics.memory_savings > 0.0);
        assert!(metrics.mean_frequency_mhz > 0.0);
        let failure = SimulatorBackend
            .run_cell(&baseline, "warp-drive", &idle)
            .expect_err("unknown policy fails");
        assert_eq!(failure.code, ErrorCode::UnknownPolicy);
    }

    /// Every field of a cell's metrics, floats as bits, so that equality
    /// is bit-for-bit.
    fn metric_bits(m: &CellMetrics) -> [Option<u64>; 7] {
        [
            Some(m.memory_savings.to_bits()),
            Some(m.system_savings.to_bits()),
            Some(m.cpi_increase_avg.to_bits()),
            Some(m.cpi_increase_max.to_bits()),
            Some(m.mean_frequency_mhz.to_bits()),
            m.p99_ms.map(f64::to_bits),
            m.slo_violations,
        ]
    }

    /// Calibrates `job`, round-trips its baseline through the persisted
    /// bytes, and checks the recovered baseline against the original: the
    /// calibrated run, and every planned cell bit-for-bit. The original
    /// reuses the recording run while the recovered one recalibrates by
    /// replay, so this checks that the two paths agree.
    fn assert_round_trips(job: &JobSpec) {
        let idle = CancelToken::new();
        let baseline = SimulatorBackend.calibrate(job).expect("calibrate");
        let bytes = SimulatorBackend
            .encode_baseline(job, &baseline)
            .expect("encodes");
        let back = SimulatorBackend
            .decode_baseline(&bytes)
            .expect("decodes and recalibrates");
        assert_eq!(
            format!("{:?}", baseline.exp.baseline()),
            format!("{:?}", back.exp.baseline())
        );
        for label in SimulatorBackend.plan(job).expect("plan").cells {
            let a = SimulatorBackend
                .run_cell(&baseline, &label, &idle)
                .expect("original cell");
            let b = SimulatorBackend
                .run_cell(&back, &label, &idle)
                .expect("recovered cell");
            assert_eq!(metric_bits(&a), metric_bits(&b), "{label}");
        }
    }

    #[test]
    fn baseline_round_trips_through_bytes_bit_exactly() {
        assert_round_trips(&tiny_job());
    }

    /// The persisted bundle's length and CRC, pinned per job: baseline
    /// logs already written by `serve --state-dir` stay readable only while
    /// these bytes stay the same.
    #[test]
    fn persisted_baseline_bytes_are_pinned() {
        for (mix, seed, len, crc) in [
            ("ILP2", 5, 167_916, 0x1380_ab21_u32),
            ("MID1", 7, 942_907, 0xfa4b_aef0),
        ] {
            let mut job = JobSpec::for_mix("t", mix);
            job.duration_ms = 2;
            job.seed = Some(seed);
            job.policies = vec!["memscale".into(), "static:400".into()];
            let baseline = SimulatorBackend.calibrate(&job).expect("calibrate");
            let bytes = SimulatorBackend
                .encode_baseline(&job, &baseline)
                .expect("encodes");
            assert_eq!(
                (bytes.len(), crc32(&bytes)),
                (len, crc),
                "{mix} seed {seed}: {} B, {:#010x}",
                bytes.len(),
                crc32(&bytes)
            );
        }
    }

    #[test]
    fn corrupt_baseline_bytes_decode_as_none_not_panic() {
        let job = tiny_job();
        let baseline = SimulatorBackend.calibrate(&job).expect("calibrate");
        let bytes = SimulatorBackend
            .encode_baseline(&job, &baseline)
            .expect("encodes");
        assert!(SimulatorBackend.decode_baseline(&[]).is_none());
        assert!(SimulatorBackend.decode_baseline(b"garbage").is_none());
        // Truncating anywhere must fail cleanly, never panic.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(SimulatorBackend.decode_baseline(&bytes[..cut]).is_none());
        }
        // A flipped byte in the trace body trips the format CRC.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(SimulatorBackend.decode_baseline(&flipped).is_none());
    }

    #[test]
    fn service_jobs_get_distinct_cache_identity() {
        let mut job = tiny_job();
        let plain = SimulatorBackend.plan(&job).expect("plain plan");
        job.arrivals = Some("poisson:1500".into());
        let svc1 = SimulatorBackend.plan(&job).expect("service plan");
        job.slo_p99_ms = Some(5.0);
        let svc2 = SimulatorBackend.plan(&job).expect("service+slo plan");
        // Cached cells must never cross the batch/service boundary or an
        // SLO-target change (violation counts depend on the target): the
        // fingerprint covers the workload.
        assert_ne!(plain.fingerprint, svc1.fingerprint);
        assert_ne!(svc1.fingerprint, svc2.fingerprint);
        // The input is the same live mix in all three.
        assert_eq!(plain.trace_crc, svc1.trace_crc);
        assert_eq!(svc1.trace_crc, svc2.trace_crc);
    }

    /// Writes a record-free trace file stamped with the header a recording
    /// of `job` carries, and returns its path.
    fn trace_file_for(job: &JobSpec, tag: &str) -> std::path::PathBuf {
        let (mix, cfg) = SimulatorBackend.resolve(job).expect("resolves");
        let name = format!("memscale_plan_{tag}_{}.trace", std::process::id());
        let path = std::env::temp_dir().join(name);
        memscale_trace::write_trace_file(&path, &crate::trace_header(&mix, &cfg), &[])
            .expect("writes");
        path
    }

    #[test]
    fn a_trace_job_input_covers_the_mix() {
        let mut job = tiny_job();
        let path = trace_file_for(&job, "mix");
        job.trace = Some(path.display().to_string());
        let mid1 = SimulatorBackend.plan(&job).expect("MID1 plan");
        let mut input = b"MID1".to_vec();
        input.extend(std::fs::read(&path).unwrap());
        assert_eq!(mid1.trace_crc, crc32(&input));
        // The same file under another mix is refused, so a MID2 job never
        // answers from a MID1 job's cells.
        job.mix = "MID2".into();
        let (code, detail) = SimulatorBackend.plan(&job).expect_err("MID2 plan");
        std::fs::remove_file(&path).ok();
        assert_eq!(code, ErrorCode::Trace);
        assert!(detail.contains("app table"), "{detail}");
        // A live job's input is its mix name alone.
        job.trace = None;
        assert_eq!(
            SimulatorBackend.plan(&job).unwrap().trace_crc,
            crc32(b"MID2")
        );
    }

    /// The input CRC cannot see a trace's header, so a trace recorded under
    /// another configuration would share a matching trace's cache entries
    /// if `plan` did not check the header itself.
    #[test]
    fn plan_refuses_a_trace_recorded_under_another_configuration() {
        let mut job = tiny_job();
        let mut other = job.clone();
        other.gamma_pct += 5.0;
        let matching = trace_file_for(&job, "match");
        let foreign = trace_file_for(&other, "foreign");
        let garbage =
            std::env::temp_dir().join(format!("memscale_plan_{}.bin", std::process::id()));
        std::fs::write(&garbage, b"not a trace").unwrap();
        let [accepted, foreign, garbage] = [matching, foreign, garbage].map(|path| {
            job.trace = Some(path.display().to_string());
            let plan = SimulatorBackend.plan(&job);
            std::fs::remove_file(&path).ok();
            plan
        });
        assert_eq!(accepted.expect("matching trace").cells.len(), 2);
        let (code, detail) = foreign.expect_err("foreign trace");
        assert_eq!(code, ErrorCode::Trace);
        assert!(detail.contains("config hash"), "{detail}");
        assert_eq!(garbage.expect_err("not a trace").0, ErrorCode::Trace);
    }

    #[test]
    fn bad_arrivals_spec_is_rejected_at_plan_time() {
        let mut job = tiny_job();
        job.arrivals = Some("warp:9".into());
        let (code, detail) = SimulatorBackend.plan(&job).expect_err("must reject");
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("arrivals"), "{detail}");
    }

    #[test]
    fn service_cells_carry_latency_metrics_end_to_end() {
        let mut job = tiny_job();
        job.arrivals = Some("poisson:2000".into());
        job.slo_p99_ms = Some(50.0);
        let idle = CancelToken::new();
        let baseline = SimulatorBackend.calibrate(&job).expect("calibrate");
        let m = SimulatorBackend
            .run_cell(&baseline, "memscale", &idle)
            .expect("service cell");
        assert!(m.p99_ms.is_some(), "service cells report p99");
        assert_eq!(m.slo_violations, Some(0), "50 ms SLO is generous");
        assert_eq!(m.cpi_increase_avg, 0.0, "fixed-work CPI does not apply");
        assert!(
            m.memory_savings > 0.0,
            "memscale saves memory energy under open loop: {}",
            m.memory_savings
        );
        // The Baseline cell replays the recording run: zero savings by
        // construction.
        let b = SimulatorBackend
            .run_cell(&baseline, "baseline", &idle)
            .expect("baseline cell");
        assert!(b.memory_savings.abs() < 1e-9, "{}", b.memory_savings);
    }

    #[test]
    fn service_baseline_round_trips_with_latency_metrics() {
        let mut job = tiny_job();
        job.arrivals = Some("poisson:2000".into());
        job.slo_p99_ms = Some(50.0);
        job.policies.insert(0, "baseline".into());
        assert_round_trips(&job);
    }

    #[test]
    fn pre_cancelled_cell_fails_with_cancelled_code() {
        let job = tiny_job();
        let baseline = SimulatorBackend.calibrate(&job).expect("calibrate");
        let cancel = CancelToken::new();
        cancel.cancel();
        let failure = SimulatorBackend
            .run_cell(&baseline, "memscale", &cancel)
            .expect_err("cancelled before the first epoch boundary");
        assert_eq!(failure.code, ErrorCode::Cancelled);
        assert!(failure.detail.contains("cancelled"), "{}", failure.detail);
    }
}
