//! Arrival-process specifications and their textual / JSON forms.

use memscale_types::json::{self, Json};
use std::fmt;

/// Upper bound on a sane request rate (guards the exponential sampler
/// against degenerate inputs, not a modeling limit).
const MAX_RATE_RPS: f64 = 1e9;

/// One piecewise-constant segment of a diurnal rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Segment length in simulated milliseconds (> 0).
    pub duration_ms: f64,
    /// Offered request rate over the segment, requests per second (≥ 0;
    /// zero means a quiet valley).
    pub rate_rps: f64,
}

/// A seeded, deterministic open-loop arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Homogeneous Poisson arrivals at `rate_rps`.
    Poisson {
        /// Offered rate, requests per second.
        rate_rps: f64,
    },
    /// A two-state Markov-modulated Poisson process: exponential dwells
    /// alternate between an ON phase at `on_rps` and an OFF phase at
    /// `off_rps` — the classic bursty on/off traffic shape.
    Mmpp {
        /// Rate while the source is ON.
        on_rps: f64,
        /// Rate while the source is OFF (often 0).
        off_rps: f64,
        /// Mean ON dwell, milliseconds.
        mean_on_ms: f64,
        /// Mean OFF dwell, milliseconds.
        mean_off_ms: f64,
    },
    /// A piecewise-constant rate schedule that cycles through its segments
    /// (a compressed day: morning ramp, peak, evening valley, …).
    Diurnal {
        /// The schedule, in order. Cycles past the last segment.
        segments: Vec<RateSegment>,
    },
}

/// Why an arrival spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalError {
    /// The spec string has an unknown shape.
    BadSpec(String),
    /// The spec parsed but carries out-of-range parameters.
    Invalid(String),
    /// A diurnal schedule file could not be read.
    Io(String),
    /// A diurnal schedule file is not the expected JSON shape.
    BadJson(String),
}

impl fmt::Display for ArrivalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalError::BadSpec(s) => write!(
                f,
                "bad arrival spec `{s}`; use poisson:RATE, \
                 mmpp:ON_RPS,OFF_RPS,ON_MS,OFF_MS, diurnal:DURxRATE,... \
                 or diurnal:FILE.json"
            ),
            ArrivalError::Invalid(s) => write!(f, "invalid arrival spec: {s}"),
            ArrivalError::Io(s) => write!(f, "reading diurnal schedule: {s}"),
            ArrivalError::BadJson(s) => write!(f, "diurnal schedule JSON: {s}"),
        }
    }
}

impl std::error::Error for ArrivalError {}

fn check_rate(rate: f64, what: &str) -> Result<(), ArrivalError> {
    if !rate.is_finite() || !(0.0..=MAX_RATE_RPS).contains(&rate) {
        return Err(ArrivalError::Invalid(format!(
            "{what} must be a finite rate in [0, {MAX_RATE_RPS:e}] rps, got {rate}"
        )));
    }
    Ok(())
}

impl ArrivalSpec {
    /// Parses a spec string:
    ///
    /// * `poisson:RATE` — Poisson arrivals at `RATE` requests/second;
    /// * `mmpp:ON_RPS,OFF_RPS,ON_MS,OFF_MS` — bursty on/off arrivals;
    /// * `diurnal:DURxRATE,DURxRATE,…` — inline schedule, each segment
    ///   `DUR` milliseconds at `RATE` requests/second;
    /// * `diurnal:PATH.json` — schedule loaded from a JSON file of the form
    ///   `{"segments": [{"duration_ms": 50, "rate_rps": 800}, …]}`.
    ///
    /// # Errors
    ///
    /// An [`ArrivalError`] describing the malformed field, unreadable file
    /// or out-of-range parameter.
    pub fn parse(s: &str) -> Result<ArrivalSpec, ArrivalError> {
        let bad = || ArrivalError::BadSpec(s.to_string());
        let (kind, rest) = s.split_once(':').ok_or_else(bad)?;
        let spec = match kind {
            "poisson" => ArrivalSpec::Poisson {
                rate_rps: rest.parse().map_err(|_| bad())?,
            },
            "mmpp" => {
                let parts: Vec<&str> = rest.split(',').collect();
                if parts.len() != 4 {
                    return Err(bad());
                }
                let num =
                    |i: usize| -> Result<f64, ArrivalError> { parts[i].parse().map_err(|_| bad()) };
                ArrivalSpec::Mmpp {
                    on_rps: num(0)?,
                    off_rps: num(1)?,
                    mean_on_ms: num(2)?,
                    mean_off_ms: num(3)?,
                }
            }
            "diurnal" if rest.ends_with(".json") => {
                let text = std::fs::read_to_string(rest)
                    .map_err(|e| ArrivalError::Io(format!("{rest}: {e}")))?;
                ArrivalSpec::diurnal_from_json(&text)?
            }
            "diurnal" => {
                let segments = rest
                    .split(',')
                    .map(|seg| {
                        let (dur, rate) = seg.split_once('x').ok_or_else(bad)?;
                        Ok(RateSegment {
                            duration_ms: dur.parse().map_err(|_| bad())?,
                            rate_rps: rate.parse().map_err(|_| bad())?,
                        })
                    })
                    .collect::<Result<Vec<_>, ArrivalError>>()?;
                ArrivalSpec::Diurnal { segments }
            }
            _ => return Err(bad()),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a diurnal schedule from JSON text (the `diurnal:FILE.json`
    /// payload): an object with a `segments` array of
    /// `{"duration_ms": …, "rate_rps": …}` objects.
    ///
    /// # Errors
    ///
    /// [`ArrivalError::BadJson`] for malformed JSON or a missing/mistyped
    /// field; [`ArrivalError::Invalid`] for out-of-range parameters.
    pub fn diurnal_from_json(text: &str) -> Result<ArrivalSpec, ArrivalError> {
        let bad = ArrivalError::BadJson;
        let root = json::parse(text).map_err(|e| bad(e.to_string()))?;
        let items = root
            .get("segments")
            .ok_or_else(|| bad("missing `segments` array".into()))?
            .as_arr()
            .ok_or_else(|| bad("`segments` must be an array".into()))?;
        let segments = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let num = |key: &str| {
                    item.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad(format!("segment {i}: missing numeric `{key}`")))
                };
                Ok(RateSegment {
                    duration_ms: num("duration_ms")?,
                    rate_rps: num("rate_rps")?,
                })
            })
            .collect::<Result<_, ArrivalError>>()?;
        let spec = ArrivalSpec::Diurnal { segments };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks parameter ranges: rates finite and in `[0, 1e9]`, dwells and
    /// segment durations positive, at least one phase/segment with a
    /// positive rate (an always-silent process would never arrive).
    ///
    /// # Errors
    ///
    /// [`ArrivalError::Invalid`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), ArrivalError> {
        match self {
            ArrivalSpec::Poisson { rate_rps } => {
                check_rate(*rate_rps, "poisson rate")?;
                if *rate_rps == 0.0 {
                    return Err(ArrivalError::Invalid(
                        "poisson rate must be positive".into(),
                    ));
                }
            }
            ArrivalSpec::Mmpp {
                on_rps,
                off_rps,
                mean_on_ms,
                mean_off_ms,
            } => {
                check_rate(*on_rps, "mmpp ON rate")?;
                check_rate(*off_rps, "mmpp OFF rate")?;
                if *on_rps == 0.0 && *off_rps == 0.0 {
                    return Err(ArrivalError::Invalid(
                        "mmpp needs a positive rate in at least one phase".into(),
                    ));
                }
                for (v, what) in [
                    (mean_on_ms, "mean ON dwell"),
                    (mean_off_ms, "mean OFF dwell"),
                ] {
                    if !v.is_finite() || *v <= 0.0 {
                        return Err(ArrivalError::Invalid(format!(
                            "{what} must be positive milliseconds, got {v}"
                        )));
                    }
                }
            }
            ArrivalSpec::Diurnal { segments } => {
                if segments.is_empty() {
                    return Err(ArrivalError::Invalid(
                        "diurnal schedule needs at least one segment".into(),
                    ));
                }
                for (i, seg) in segments.iter().enumerate() {
                    if !seg.duration_ms.is_finite() || seg.duration_ms <= 0.0 {
                        return Err(ArrivalError::Invalid(format!(
                            "segment {i} duration must be positive milliseconds, got {}",
                            seg.duration_ms
                        )));
                    }
                    check_rate(seg.rate_rps, "segment rate")?;
                }
                if segments.iter().all(|s| s.rate_rps == 0.0) {
                    return Err(ArrivalError::Invalid(
                        "diurnal schedule needs at least one segment with a positive rate".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// A stable display label for reports (`poisson:500`, `mmpp:…`,
    /// `diurnal:<n>seg`).
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Poisson { rate_rps } => format!("poisson:{rate_rps}"),
            ArrivalSpec::Mmpp {
                on_rps,
                off_rps,
                mean_on_ms,
                mean_off_ms,
            } => format!("mmpp:{on_rps},{off_rps},{mean_on_ms},{mean_off_ms}"),
            ArrivalSpec::Diurnal { segments } => format!("diurnal:{}seg", segments.len()),
        }
    }

    /// The time-averaged offered rate over one cycle of the process
    /// (requests per second).
    pub fn mean_rate_rps(&self) -> f64 {
        match self {
            ArrivalSpec::Poisson { rate_rps } => *rate_rps,
            ArrivalSpec::Mmpp {
                on_rps,
                off_rps,
                mean_on_ms,
                mean_off_ms,
            } => (on_rps * mean_on_ms + off_rps * mean_off_ms) / (mean_on_ms + mean_off_ms),
            ArrivalSpec::Diurnal { segments } => {
                let total: f64 = segments.iter().map(|s| s.duration_ms).sum();
                segments
                    .iter()
                    .map(|s| s.rate_rps * s.duration_ms)
                    .sum::<f64>()
                    / total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_poisson() {
        assert_eq!(
            ArrivalSpec::parse("poisson:500").unwrap(),
            ArrivalSpec::Poisson { rate_rps: 500.0 }
        );
    }

    #[test]
    fn parses_mmpp() {
        assert_eq!(
            ArrivalSpec::parse("mmpp:2000,100,5,15").unwrap(),
            ArrivalSpec::Mmpp {
                on_rps: 2000.0,
                off_rps: 100.0,
                mean_on_ms: 5.0,
                mean_off_ms: 15.0,
            }
        );
    }

    #[test]
    fn parses_inline_diurnal() {
        let spec = ArrivalSpec::parse("diurnal:50x800,100x1500,50x0").unwrap();
        let ArrivalSpec::Diurnal { segments } = &spec else {
            panic!("wrong variant");
        };
        assert_eq!(segments.len(), 3);
        assert_eq!(segments[1].rate_rps, 1500.0);
        assert_eq!(segments[2].rate_rps, 0.0);
    }

    #[test]
    fn parses_diurnal_json() {
        let text = r#"{
            "segments": [
                {"duration_ms": 50, "rate_rps": 800},
                {"duration_ms": 100.5, "rate_rps": 1.5e3},
                {"duration_ms": 50, "rate_rps": 0}
            ]
        }"#;
        let ArrivalSpec::Diurnal { segments } = ArrivalSpec::diurnal_from_json(text).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(segments[0].duration_ms, 50.0);
        assert_eq!(segments[1].rate_rps, 1500.0);
        assert_eq!(segments[1].duration_ms, 100.5);
    }

    #[test]
    fn json_rejects_malformed_input() {
        for (text, needle) in [
            ("", "invalid JSON at byte 0"),
            ("nonsense", "invalid JSON at byte 0"),
            ("[1,2]", "missing `segments`"),
            (r#"{"segments": 3}"#, "must be an array"),
            (r#"{"segments": [{"duration_ms": 5}]}"#, "rate_rps"),
            (
                r#"{"segments": [{"duration_ms": "5", "rate_rps": 1}]}"#,
                "duration_ms",
            ),
            (r#"{"segments": []} trailing"#, "invalid JSON at byte 17"),
        ] {
            let e = ArrivalSpec::diurnal_from_json(text).unwrap_err();
            assert!(matches!(e, ArrivalError::BadJson(_)), "{text}: {e:?}");
            assert!(e.to_string().contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for s in [
            "nonsense",
            "poisson:",
            "poisson:0",
            "poisson:-5",
            "poisson:inf",
            "mmpp:1,2,3",
            "mmpp:0,0,5,5",
            "mmpp:100,0,0,5",
            "diurnal:",
            "diurnal:5x0,10x0",
            "diurnal:0x100",
            "diurnal:10",
        ] {
            assert!(ArrivalSpec::parse(s).is_err(), "{s} should be rejected");
        }
    }

    #[test]
    fn mean_rates() {
        assert_eq!(
            ArrivalSpec::parse("poisson:500").unwrap().mean_rate_rps(),
            500.0
        );
        // MMPP: 5 ms at 2000 + 15 ms at 0 over a 20 ms cycle → 500 rps.
        let m = ArrivalSpec::parse("mmpp:2000,0,5,15").unwrap();
        assert!((m.mean_rate_rps() - 500.0).abs() < 1e-9);
        // Diurnal: 50 ms at 800 + 50 ms at 1200 → 1000 rps.
        let d = ArrivalSpec::parse("diurnal:50x800,50x1200").unwrap();
        assert!((d.mean_rate_rps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            ArrivalSpec::parse("poisson:500").unwrap().label(),
            "poisson:500"
        );
        assert_eq!(
            ArrivalSpec::parse("diurnal:50x800,50x1200")
                .unwrap()
                .label(),
            "diurnal:2seg"
        );
    }
}
