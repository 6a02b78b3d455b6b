//! Encoding and decoding of protocol lines, and [`Connection`], the one
//! client that speaks them.
//!
//! One request line (a [`JobSpec`]) flows client → server; a stream of
//! [`Response`] lines flows back. Every line is one compact JSON object
//! terminated by `\n`; every response carries the job `id` it belongs to,
//! so a client can correlate responses even if it pipelines jobs. See
//! DESIGN.md §13 for the schema.

use memscale_types::config::MemGeneration;
use memscale_types::json::{parse, Json};
use memscale_types::serve::{
    CellFailure, CellMetrics, CellOutcome, DoneReason, ErrorCode, JobSpec, JobSummary,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One server → client protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job passed validation and admission; `cells` results will
    /// follow (in completion order, not submission order).
    Admitted {
        /// Job id this response belongs to.
        id: String,
        /// Number of cell results the client should expect.
        cells: usize,
    },
    /// One evaluated grid cell.
    Cell {
        /// Job id this response belongs to.
        id: String,
        /// The cell's label, cache flag and metrics/failure.
        outcome: CellOutcome,
    },
    /// The job finished; no further lines for this id will follow.
    Done {
        /// Job id this response belongs to.
        id: String,
        /// Aggregate counts, cache statistics and wall clock.
        summary: JobSummary,
    },
    /// The job was rejected or died; no further lines for this id.
    Error {
        /// Job id, when the request parsed far enough to learn it.
        id: Option<String>,
        /// Structured, stable error code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
        /// For [`ErrorCode::Overloaded`]: jobs in service when rejected.
        depth: Option<usize>,
        /// For [`ErrorCode::Overloaded`]: the admission limit.
        limit: Option<usize>,
    },
}

impl Response {
    /// The job id this line belongs to, when known.
    pub fn id(&self) -> Option<&str> {
        match self {
            Response::Admitted { id, .. }
            | Response::Cell { id, .. }
            | Response::Done { id, .. } => Some(id),
            Response::Error { id, .. } => id.as_deref(),
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Encodes a job request as one compact protocol line (no trailing
/// newline).
pub fn encode_job(job: &JobSpec) -> String {
    let mut fields = vec![
        ("type", Json::Str("job".into())),
        ("id", Json::Str(job.id.clone())),
        ("mix", Json::Str(job.mix.clone())),
    ];
    if let Some(trace) = &job.trace {
        fields.push(("trace", Json::Str(trace.clone())));
    }
    fields.push(("generation", Json::Str(job.generation.to_string())));
    fields.push(("duration_ms", Json::num(job.duration_ms)));
    if let Some(seed) = job.seed {
        fields.push(("seed", Json::num(seed)));
    }
    fields.push(("gamma_pct", Json::num(job.gamma_pct)));
    fields.push(("epoch_ms", Json::num(job.epoch_ms)));
    fields.push(("cores", Json::num(job.cores)));
    fields.push(("channels", Json::num(job.channels)));
    fields.push((
        "policies",
        Json::Arr(job.policies.iter().map(|p| Json::Str(p.clone())).collect()),
    ));
    fields.push(("margin_pct", Json::num(job.margin_pct)));
    if let Some(d) = job.deadline_ms {
        fields.push(("deadline_ms", Json::num(d)));
    }
    if let Some(a) = &job.arrivals {
        fields.push(("arrivals", Json::Str(a.clone())));
    }
    if let Some(s) = job.slo_p99_ms {
        fields.push(("slo_p99_ms", Json::num(s)));
    }
    obj(fields).render()
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be an unsigned integer")),
    }
}

fn field_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => f
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

fn field_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => f
            .as_str()
            .map(str::to_string)
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

/// Decodes a request line into a [`JobSpec`], applying the
/// [`JobSpec::for_mix`] defaults for absent optional fields.
///
/// # Errors
///
/// A human-readable description of the first malformed field (the server
/// maps it to [`ErrorCode::BadRequest`]).
pub fn decode_job(line: &str) -> Result<JobSpec, String> {
    let v = parse(line).map_err(|e| e.to_string())?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    match field_str(&v, "type")?.as_deref() {
        Some("job") => {}
        other => {
            return Err(format!(
                "unsupported request type {other:?} (expected \"job\")"
            ))
        }
    }
    let id = field_str(&v, "id")?.ok_or("field `id` is required")?;
    let mix = field_str(&v, "mix")?.ok_or("field `mix` is required")?;
    let mut job = JobSpec::for_mix(id, mix);
    job.trace = field_str(&v, "trace")?;
    if let Some(name) = field_str(&v, "generation")? {
        job.generation = MemGeneration::parse(&name)
            .ok_or_else(|| format!("unknown generation `{name}`; use ddr3|ddr4|lpddr3"))?;
    }
    if let Some(d) = field_u64(&v, "duration_ms")? {
        job.duration_ms = d;
    }
    job.seed = field_u64(&v, "seed")?;
    if let Some(g) = field_f64(&v, "gamma_pct")? {
        job.gamma_pct = g;
    }
    if let Some(e) = field_u64(&v, "epoch_ms")? {
        job.epoch_ms = e;
    }
    if let Some(c) = field_u64(&v, "cores")? {
        job.cores = usize::try_from(c).map_err(|_| "field `cores` out of range")?;
    }
    if let Some(c) = field_u64(&v, "channels")? {
        job.channels = u8::try_from(c).map_err(|_| "field `channels` out of range")?;
    }
    if let Some(m) = field_u64(&v, "margin_pct")? {
        job.margin_pct = usize::try_from(m).map_err(|_| "field `margin_pct` out of range")?;
    }
    job.deadline_ms = field_u64(&v, "deadline_ms")?;
    job.arrivals = field_str(&v, "arrivals")?;
    job.slo_p99_ms = field_f64(&v, "slo_p99_ms")?;
    if let Some(p) = v.get("policies") {
        let items = p.as_arr().ok_or("field `policies` must be an array")?;
        job.policies = items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "policies entries must be strings".to_string())
            })
            .collect::<Result<_, _>>()?;
    }
    job.validate_shape()?;
    Ok(job)
}

/// Encodes a response as one compact protocol line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Admitted { id, cells } => obj(vec![
            ("type", Json::Str("admitted".into())),
            ("id", Json::Str(id.clone())),
            ("cells", Json::num(cells)),
        ]),
        Response::Cell { id, outcome } => {
            let mut fields = vec![
                ("type", Json::Str("cell".into())),
                ("id", Json::Str(id.clone())),
                ("label", Json::Str(outcome.label.clone())),
                ("cached", Json::Bool(outcome.cached)),
            ];
            match &outcome.result {
                Ok(m) => {
                    fields.push(("ok", Json::Bool(true)));
                    fields.push(("memory_savings", Json::num(m.memory_savings)));
                    fields.push(("system_savings", Json::num(m.system_savings)));
                    fields.push(("cpi_increase_avg", Json::num(m.cpi_increase_avg)));
                    fields.push(("cpi_increase_max", Json::num(m.cpi_increase_max)));
                    fields.push(("mean_frequency_mhz", Json::num(m.mean_frequency_mhz)));
                    if let Some(p) = m.p99_ms {
                        fields.push(("p99_ms", Json::num(p)));
                    }
                    if let Some(viol) = m.slo_violations {
                        fields.push(("slo_violations", Json::num(viol)));
                    }
                }
                Err(e) => {
                    fields.push(("ok", Json::Bool(false)));
                    fields.push(("code", Json::Str(e.code.as_str().into())));
                    fields.push(("error", Json::Str(e.detail.clone())));
                }
            }
            obj(fields)
        }
        Response::Done { id, summary } => {
            let mut fields = vec![
                ("type", Json::Str("done".into())),
                ("id", Json::Str(id.clone())),
                ("cells", Json::num(summary.cells)),
                ("ok", Json::num(summary.ok)),
                ("failed", Json::num(summary.failed)),
                ("cache_hits", Json::num(summary.cache_hits)),
                ("cache_misses", Json::num(summary.cache_misses)),
                ("evictions", Json::num(summary.evictions)),
                ("wall_ms", Json::num(format!("{:.3}", summary.wall_ms))),
            ];
            if summary.reason != DoneReason::Complete {
                fields.push(("reason", Json::Str(summary.reason.as_str().into())));
            }
            obj(fields)
        }
        Response::Error {
            id,
            code,
            detail,
            depth,
            limit,
        } => {
            let mut fields = vec![("type", Json::Str("error".into()))];
            if let Some(id) = id {
                fields.push(("id", Json::Str(id.clone())));
            }
            fields.push(("code", Json::Str(code.as_str().into())));
            fields.push(("detail", Json::Str(detail.clone())));
            if let Some(d) = depth {
                fields.push(("depth", Json::num(d)));
            }
            if let Some(l) = limit {
                fields.push(("limit", Json::num(l)));
            }
            obj(fields)
        }
    }
    .render()
}

/// Decodes one server response line (the client/loadgen side).
///
/// # Errors
///
/// A human-readable description of the malformed line — the load
/// generator counts these as protocol errors.
pub fn decode_response(line: &str) -> Result<Response, String> {
    let v = parse(line).map_err(|e| e.to_string())?;
    let ty = field_str(&v, "type")?.ok_or("field `type` is required")?;
    match ty.as_str() {
        "admitted" => Ok(Response::Admitted {
            id: field_str(&v, "id")?.ok_or("admitted: field `id` is required")?,
            cells: usize::try_from(
                field_u64(&v, "cells")?.ok_or("admitted: field `cells` is required")?,
            )
            .map_err(|_| "admitted: `cells` out of range")?,
        }),
        "cell" => {
            let id = field_str(&v, "id")?.ok_or("cell: field `id` is required")?;
            let label = field_str(&v, "label")?.ok_or("cell: field `label` is required")?;
            let cached = v
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or("cell: field `cached` is required")?;
            let ok = v
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("cell: field `ok` is required")?;
            let result = if ok {
                Ok(CellMetrics {
                    memory_savings: field_f64(&v, "memory_savings")?
                        .ok_or("cell: `memory_savings` is required")?,
                    system_savings: field_f64(&v, "system_savings")?
                        .ok_or("cell: `system_savings` is required")?,
                    cpi_increase_avg: field_f64(&v, "cpi_increase_avg")?
                        .ok_or("cell: `cpi_increase_avg` is required")?,
                    cpi_increase_max: field_f64(&v, "cpi_increase_max")?
                        .ok_or("cell: `cpi_increase_max` is required")?,
                    mean_frequency_mhz: field_f64(&v, "mean_frequency_mhz")?
                        .ok_or("cell: `mean_frequency_mhz` is required")?,
                    p99_ms: field_f64(&v, "p99_ms")?,
                    slo_violations: field_u64(&v, "slo_violations")?,
                })
            } else {
                let code_str = field_str(&v, "code")?.ok_or("cell: failed cells carry `code`")?;
                let code = ErrorCode::parse(&code_str)
                    .ok_or_else(|| format!("cell: unknown code `{code_str}`"))?;
                Err(CellFailure::new(
                    code,
                    field_str(&v, "error")?.ok_or("cell: failed cells carry `error`")?,
                ))
            };
            Ok(Response::Cell {
                id,
                outcome: CellOutcome {
                    label,
                    cached,
                    result,
                },
            })
        }
        "done" => Ok(Response::Done {
            id: field_str(&v, "id")?.ok_or("done: field `id` is required")?,
            summary: JobSummary {
                cells: usize::try_from(field_u64(&v, "cells")?.ok_or("done: `cells` required")?)
                    .map_err(|_| "done: `cells` out of range")?,
                ok: usize::try_from(field_u64(&v, "ok")?.ok_or("done: `ok` required")?)
                    .map_err(|_| "done: `ok` out of range")?,
                failed: usize::try_from(field_u64(&v, "failed")?.ok_or("done: `failed` required")?)
                    .map_err(|_| "done: `failed` out of range")?,
                cache_hits: field_u64(&v, "cache_hits")?.ok_or("done: `cache_hits` required")?,
                cache_misses: field_u64(&v, "cache_misses")?
                    .ok_or("done: `cache_misses` required")?,
                // Tolerate pre-eviction-counter servers.
                evictions: field_u64(&v, "evictions")?.unwrap_or(0),
                wall_ms: field_f64(&v, "wall_ms")?.ok_or("done: `wall_ms` required")?,
                reason: match field_str(&v, "reason")? {
                    None => DoneReason::Complete,
                    Some(r) => DoneReason::parse(&r)
                        .ok_or_else(|| format!("done: unknown reason `{r}`"))?,
                },
            },
        }),
        "error" => {
            let code_str = field_str(&v, "code")?.ok_or("error: field `code` is required")?;
            let code = ErrorCode::parse(&code_str)
                .ok_or_else(|| format!("error: unknown code `{code_str}`"))?;
            Ok(Response::Error {
                id: field_str(&v, "id")?,
                code,
                detail: field_str(&v, "detail")?.unwrap_or_default(),
                depth: field_u64(&v, "depth")?
                    .map(|d| usize::try_from(d).map_err(|_| "error: `depth` out of range"))
                    .transpose()?,
                limit: field_u64(&v, "limit")?
                    .map(|l| usize::try_from(l).map_err(|_| "error: `limit` out of range"))
                    .transpose()?,
            })
        }
        other => Err(format!("unknown response type `{other}`")),
    }
}

/// The client end of one server connection: request lines go out, decoded
/// response lines come back. Retries, timeouts of whole jobs and what a
/// bad line means are the caller's policy.
#[derive(Debug)]
pub struct Connection {
    stream: BufReader<TcpStream>,
    line: String,
}

impl Connection {
    /// Connects to `addr`. A zero `connect_timeout_ms` waits as long as the
    /// OS does; a zero `io_timeout_ms` leaves reads and writes unbounded.
    ///
    /// # Errors
    ///
    /// A message naming `addr` when it does not resolve or refuses.
    pub fn open(addr: &str, connect_timeout_ms: u64, io_timeout_ms: u64) -> Result<Self, String> {
        let sock_addr = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("cannot resolve {addr}: no addresses"))?;
        let stream = if connect_timeout_ms > 0 {
            TcpStream::connect_timeout(&sock_addr, Duration::from_millis(connect_timeout_ms))
        } else {
            TcpStream::connect(sock_addr)
        }
        .map_err(|e| format!("cannot connect to {addr}: {e} — is the server running?"))?;
        if io_timeout_ms > 0 {
            let timeout = Some(Duration::from_millis(io_timeout_ms));
            let _ = stream.set_read_timeout(timeout);
            let _ = stream.set_write_timeout(timeout);
        }
        Ok(Connection {
            stream: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends `line` and its terminating newline.
    ///
    /// # Errors
    ///
    /// The socket's write error.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
    }

    /// Sends `job` as one request line.
    ///
    /// # Errors
    ///
    /// The socket's write error.
    pub fn submit(&mut self, job: &JobSpec) -> std::io::Result<()> {
        self.send_line(&encode_job(job))
    }

    /// The next non-blank response line: `None` once the stream has ended
    /// (EOF, reset or read timeout), `Some(Err)` for a line that does not
    /// decode.
    pub fn next_response(&mut self) -> Option<Result<Response, String>> {
        loop {
            self.line.clear();
            match self.stream.read_line(&mut self.line) {
                Ok(0) | Err(_) => return None,
                Ok(_) => {}
            }
            let line = self.line.trim();
            if !line.is_empty() {
                return Some(decode_response(line));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_with_all_fields() {
        let mut job = JobSpec::for_mix("j-1", "MEM1");
        job.trace = Some("/tmp/mem1.trace".into());
        job.generation = MemGeneration::Lpddr3;
        job.duration_ms = 6;
        job.seed = Some(u64::MAX);
        job.gamma_pct = 7.5;
        job.epoch_ms = 3;
        job.cores = 8;
        job.channels = 2;
        job.policies = vec!["memscale".into(), "static:400".into()];
        job.margin_pct = 75;
        job.deadline_ms = Some(1_500);
        job.arrivals = Some("diurnal:2x1000,2x3000".into());
        job.slo_p99_ms = Some(5.0);
        let line = encode_job(&job);
        assert_eq!(decode_job(&line).unwrap(), job);
    }

    #[test]
    fn job_defaults_fill_absent_fields() {
        let job = decode_job(r#"{"type":"job","id":"a","mix":"MID1"}"#).unwrap();
        assert_eq!(job, JobSpec::for_mix("a", "MID1"));
    }

    #[test]
    fn job_decode_rejects_malformed_requests() {
        for (line, needle) in [
            ("nonsense", "invalid JSON"),
            ("[1,2]", "object"),
            (r#"{"type":"job","mix":"MID1"}"#, "`id`"),
            (r#"{"type":"job","id":"a"}"#, "`mix`"),
            (r#"{"type":"nope","id":"a","mix":"M"}"#, "type"),
            (
                r#"{"type":"job","id":"a","mix":"M","generation":"ddr9"}"#,
                "generation",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","duration_ms":-3}"#,
                "duration_ms",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","policies":"memscale"}"#,
                "array",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","duration_ms":0}"#,
                "positive",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","deadline_ms":0}"#,
                "deadline_ms",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","deadline_ms":-1}"#,
                "deadline_ms",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","gamma_pct":-5}"#,
                "gamma_pct",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","epoch_ms":18446744074}"#,
                "epoch_ms above 10000",
            ),
            (
                r#"{"type":"job","id":"a","mix":"M","margin_pct":100000000000}"#,
                "margin_pct above 1000",
            ),
        ] {
            let err = decode_job(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Admitted {
                id: "j".into(),
                cells: 12,
            },
            Response::Cell {
                id: "j".into(),
                outcome: CellOutcome {
                    label: "memscale".into(),
                    cached: true,
                    result: Ok(CellMetrics {
                        memory_savings: 0.21,
                        system_savings: 0.08,
                        cpi_increase_avg: 0.02,
                        cpi_increase_max: 0.05,
                        mean_frequency_mhz: 512.5,
                        p99_ms: None,
                        slo_violations: None,
                    }),
                },
            },
            Response::Cell {
                id: "j".into(),
                outcome: CellOutcome {
                    label: "memscale".into(),
                    cached: false,
                    result: Ok(CellMetrics {
                        memory_savings: 0.18,
                        system_savings: 0.06,
                        cpi_increase_avg: 0.03,
                        cpi_increase_max: 0.07,
                        mean_frequency_mhz: 400.0,
                        p99_ms: Some(3.75),
                        slo_violations: Some(2),
                    }),
                },
            },
            Response::Cell {
                id: "j".into(),
                outcome: CellOutcome {
                    label: "static:200".into(),
                    cached: false,
                    result: Err(CellFailure::sim("replay trace for app 3 exhausted")),
                },
            },
            Response::Cell {
                id: "j".into(),
                outcome: CellOutcome {
                    label: "memscale".into(),
                    cached: false,
                    result: Err(CellFailure::new(
                        ErrorCode::CellTimeout,
                        "exceeded the 50 ms cell watchdog",
                    )),
                },
            },
            Response::Done {
                id: "j".into(),
                summary: JobSummary {
                    cells: 12,
                    ok: 11,
                    failed: 1,
                    cache_hits: 5,
                    cache_misses: 8,
                    evictions: 2,
                    wall_ms: 103.25,
                    reason: DoneReason::Complete,
                },
            },
            Response::Done {
                id: "j".into(),
                summary: JobSummary {
                    cells: 3,
                    ok: 1,
                    failed: 2,
                    cache_hits: 0,
                    cache_misses: 3,
                    evictions: 0,
                    wall_ms: 55.0,
                    reason: DoneReason::Deadline,
                },
            },
            Response::Done {
                id: "j".into(),
                summary: JobSummary {
                    cells: 1,
                    ok: 1,
                    failed: 0,
                    cache_hits: 1,
                    cache_misses: 0,
                    evictions: 0,
                    wall_ms: 2.5,
                    reason: DoneReason::Draining,
                },
            },
            Response::Error {
                id: Some("j".into()),
                code: ErrorCode::Overloaded,
                detail: "queue full".into(),
                depth: Some(4),
                limit: Some(4),
            },
            Response::Error {
                id: None,
                code: ErrorCode::BadRequest,
                detail: "invalid JSON at byte 0".into(),
                depth: None,
                limit: None,
            },
        ];
        for resp in responses {
            let line = encode_response(&resp);
            assert_eq!(decode_response(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn overloaded_line_is_structured() {
        let line = encode_response(&Response::Error {
            id: Some("j9".into()),
            code: ErrorCode::Overloaded,
            detail: "admission queue full".into(),
            depth: Some(8),
            limit: Some(8),
        });
        assert!(line.contains("\"code\":\"overloaded\""));
        assert!(line.contains("\"depth\":8") && line.contains("\"limit\":8"));
    }

    #[test]
    fn cell_without_service_fields_decodes_as_none() {
        // Lines from a pre-service-workload server stay decodable.
        let line = r#"{"type":"cell","id":"j","label":"memscale","cached":false,"ok":true,"memory_savings":0.2,"system_savings":0.07,"cpi_increase_avg":0.01,"cpi_increase_max":0.03,"mean_frequency_mhz":500}"#;
        let Response::Cell { outcome, .. } = decode_response(line).expect("decodes") else {
            panic!("not a cell line");
        };
        let metrics = outcome.result.expect("ok cell");
        assert_eq!(metrics.p99_ms, None);
        assert_eq!(metrics.slo_violations, None);
    }

    #[test]
    fn done_without_evictions_field_decodes_as_zero() {
        // Lines from a pre-eviction-counter server stay decodable.
        let line = r#"{"type":"done","id":"j","cells":2,"ok":2,"failed":0,"cache_hits":1,"cache_misses":1,"wall_ms":4.0}"#;
        let Response::Done { summary, .. } = decode_response(line).expect("decodes") else {
            panic!("not a done line");
        };
        assert_eq!(summary.evictions, 0);
    }

    /// Wire-level fuzzing: arbitrary corruption of valid frames — the
    /// torn-frame and truncation faults the chaos proxy injects — must
    /// come back as structured decode errors (or, rarely, a differently
    /// valid frame), never a panic or a hang.
    mod fuzz {
        use super::*;
        use memscale_types::rng::SplitMix64;
        use proptest::prelude::*;

        /// Valid frames of every shape the protocol can produce.
        fn sample_frames() -> Vec<String> {
            let mut job = JobSpec::for_mix("fuzz-1", "MID1");
            job.trace = Some("/tmp/m.trace".into());
            job.seed = Some(42);
            job.policies = vec!["memscale".into(), "static:400".into()];
            job.deadline_ms = Some(250);
            job.arrivals = Some("poisson:1500".into());
            job.slo_p99_ms = Some(5.0);
            vec![
                encode_job(&job),
                encode_response(&Response::Admitted {
                    id: "fuzz-1".into(),
                    cells: 4,
                }),
                encode_response(&Response::Cell {
                    id: "fuzz-1".into(),
                    outcome: CellOutcome {
                        label: "memscale".into(),
                        cached: false,
                        result: Err(CellFailure::new(ErrorCode::CellTimeout, "watchdog")),
                    },
                }),
                encode_response(&Response::Done {
                    id: "fuzz-1".into(),
                    summary: JobSummary {
                        cells: 4,
                        ok: 3,
                        failed: 1,
                        cache_hits: 2,
                        cache_misses: 2,
                        evictions: 1,
                        wall_ms: 9.5,
                        reason: DoneReason::Deadline,
                    },
                }),
                encode_response(&Response::Error {
                    id: None,
                    code: ErrorCode::BadRequest,
                    detail: "invalid JSON".into(),
                    depth: None,
                    limit: None,
                }),
            ]
        }

        /// Flips `flips` bytes of `frame` to seeded arbitrary values,
        /// then repairs the result into a `str` the reader could have
        /// produced (`read_line` only ever yields valid UTF-8).
        fn mutate(frame: &str, seed: u64, flips: usize) -> String {
            let mut bytes = frame.as_bytes().to_vec();
            let mut rng = SplitMix64::new(seed);
            for _ in 0..flips {
                if bytes.is_empty() {
                    break;
                }
                let idx = usize::try_from(rng.range(0, bytes.len() as u64)).unwrap_or(0);
                bytes[idx] = u8::try_from(rng.next_u64() & 0xff).unwrap_or(b'?');
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn corrupted_frames_decode_or_error_but_never_panic(
                seed in any::<u64>(),
                frame_idx in 0usize..5,
                flips in 1usize..8,
            ) {
                let frame = &sample_frames()[frame_idx];
                let mutated = mutate(frame, seed, flips);
                // Outcome (Ok or Err) is irrelevant; surviving the call
                // without panicking is the property.
                let _ = decode_job(&mutated);
                let _ = decode_response(&mutated);
            }

            #[test]
            fn random_garbage_never_decodes_as_panic(seed in any::<u64>(), len in 0usize..200) {
                let mut rng = SplitMix64::new(seed);
                let bytes: Vec<u8> =
                    (0..len).map(|_| u8::try_from(rng.next_u64() & 0xff).unwrap_or(0)).collect();
                let garbage = String::from_utf8_lossy(&bytes).into_owned();
                let _ = decode_job(&garbage);
                let _ = decode_response(&garbage);
            }
        }

        #[test]
        fn every_truncation_point_is_a_structured_error() {
            for frame in sample_frames() {
                for cut in 0..frame.len() {
                    if !frame.is_char_boundary(cut) {
                        continue;
                    }
                    let prefix = &frame[..cut];
                    assert!(
                        decode_job(prefix).is_err(),
                        "job decode accepted truncated frame: {prefix}"
                    );
                    assert!(
                        decode_response(prefix).is_err(),
                        "response decode accepted truncated frame: {prefix}"
                    );
                }
            }
        }
    }
}
