//! Result tables and markdown rendering.

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
}
