//! Result tables and markdown rendering.

use memscale_types::json::Json;
use std::fmt::Write as _;

/// One regenerated table/figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id (`fig5`, `table1`, `sens_epoch`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Shape checks and paper expectations, one line each.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a note (shape check / paper expectation).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Appends a pass/fail shape check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.notes
            .push(format!("{} {what}", if ok { "PASS:" } else { "MISS:" }));
    }

    /// Renders the table as GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### `{}` — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        out
    }

    /// Whether every shape check passed.
    pub fn all_checks_pass(&self) -> bool {
        !self.notes.iter().any(|n| n.starts_with("MISS:"))
    }
}

/// An ordered key/value JSON artifact (`BENCH_*.json`).
///
/// Benchmarks used to inline `format!` calls for these files, which let a
/// metadata bug slip through unreviewed: `BENCH_replay.json` once recorded
/// the *simulated* horizon (2 ms) under the name `duration_ms` right next
/// to multi-second wall clocks. Routing every artifact through this
/// serializer keeps the two time bases apart by construction — simulated
/// quantities are written by [`BenchArtifact::sim_duration_ms`] and wall
/// clocks by [`BenchArtifact::wall_clock_s`] / [`BenchArtifact::seconds`],
/// each under an unambiguous key — and makes the rendering unit-testable.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    fields: Vec<(String, String)>,
}

impl BenchArtifact {
    /// A new artifact for `benchmark` (always the first field).
    pub fn new(benchmark: &str) -> Self {
        let mut a = BenchArtifact { fields: Vec::new() };
        a.push_str("benchmark", benchmark);
        a
    }

    fn push_raw(&mut self, key: &str, rendered: String) {
        debug_assert!(
            !self.fields.iter().any(|(k, _)| k == key),
            "duplicate artifact field {key}"
        );
        self.fields.push((key.to_string(), rendered));
    }

    /// Appends a string field.
    pub fn push_str(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.push_raw(key, Json::Str(value.to_string()).render());
        self
    }

    /// Appends an integer field.
    pub fn push_int(&mut self, key: &str, value: impl Into<u64>) -> &mut Self {
        self.push_raw(key, value.into().to_string());
        self
    }

    /// Appends a boolean field.
    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push_raw(key, value.to_string());
        self
    }

    /// Appends a usize count field.
    pub fn push_count(&mut self, key: &str, value: usize) -> &mut Self {
        self.push_raw(key, value.to_string());
        self
    }

    /// Appends a float field with `digits` decimals.
    pub fn push_f64(&mut self, key: &str, value: f64, digits: usize) -> &mut Self {
        self.push_raw(key, format!("{value:.digits$}"));
        self
    }

    /// Appends the **simulated** horizon, in (simulated) milliseconds,
    /// always under the key `sim_<key>_ms`.
    pub fn sim_duration_ms(&mut self, key: &str, ms: f64) -> &mut Self {
        self.push_f64(&format!("sim_{key}_ms"), ms, 3)
    }

    /// Appends a **wall-clock** measurement, in seconds, always under the
    /// key `<key>_s`.
    pub fn seconds(&mut self, key: &str, s: f64) -> &mut Self {
        self.push_f64(&format!("{key}_s"), s, 4)
    }

    /// Appends the run's total wall clock under the canonical key
    /// `wall_clock_s`.
    pub fn wall_clock_s(&mut self, s: f64) -> &mut Self {
        self.seconds("wall_clock", s)
    }

    /// The field names, in insertion order.
    pub fn keys(&self) -> Vec<&str> {
        self.fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Renders the artifact as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with the given precision.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders() {
        let mut t = Table::new("fig0", "Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("a note");
        t.check("shape holds", true);
        let md = t.to_markdown();
        assert!(md.contains("### `fig0` — Demo"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("- a note"));
        assert!(md.contains("- PASS: shape holds"));
        assert!(t.all_checks_pass());
    }

    #[test]
    fn failed_checks_detected() {
        let mut t = Table::new("x", "y", &["c"]);
        t.check("bad", false);
        assert!(!t.all_checks_pass());
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn artifact_renders_in_insertion_order() {
        let mut a = BenchArtifact::new("demo");
        a.push_str("mix", "MID1")
            .push_count("shards", 17)
            .push_int("threads", 4u32)
            .push_bool("audited", true)
            .push_f64("speedup", 1.23456, 3);
        assert_eq!(
            a.keys(),
            [
                "benchmark",
                "mix",
                "shards",
                "threads",
                "audited",
                "speedup"
            ]
        );
        let json = a.render();
        assert!(json.starts_with("{\n  \"benchmark\": \"demo\",\n"));
        assert!(json.contains("  \"mix\": \"MID1\",\n"));
        assert!(json.contains("  \"audited\": true,\n"));
        assert!(json.contains("  \"speedup\": 1.235\n"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn artifact_keeps_time_bases_apart() {
        // The regression this serializer exists for: a simulated horizon
        // and a wall clock must land under distinct, unit-suffixed keys.
        let mut a = BenchArtifact::new("trace_replay_sharded");
        a.sim_duration_ms("duration", 2.0)
            .seconds("sequential", 2.8812)
            .wall_clock_s(3.25);
        let json = a.render();
        assert!(json.contains("\"sim_duration_ms\": 2.000"));
        assert!(json.contains("\"sequential_s\": 2.8812"));
        assert!(json.contains("\"wall_clock_s\": 3.2500"));
        assert!(
            !json.contains("\"duration_ms\""),
            "the ambiguous key must not reappear: {json}"
        );
    }

    #[test]
    fn artifact_escapes_strings() {
        let mut a = BenchArtifact::new("esc");
        a.push_str("note", "a \"quoted\" \\ path\nnewline");
        let json = a.render();
        assert!(json.contains(r#""note": "a \"quoted\" \\ path\nnewline""#));
    }

    #[test]
    fn artifact_strings_with_control_characters_parse_back() {
        let value = "tab\there, cr\rthere, unit\u{1}separator";
        let mut a = BenchArtifact::new("esc");
        a.push_str("note", value);
        let parsed = memscale_types::json::parse(&a.render()).expect("valid JSON");
        assert_eq!(parsed.get("note").and_then(Json::as_str), Some(value));
    }
}
