//! Aligned text tables for experiment output.

use core::fmt;

/// One experiment table (a reconstructed figure series or table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id, e.g. `"E7"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper reports for this table/figure (for EXPERIMENTS.md).
    pub note: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str, note: &str, header: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            note: note.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extra cells are kept.
    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {}: {} ==", self.id, self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "   (paper: {})", self.note)?;
        }
        let w = self.widths();
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        let total: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float with the given number of decimals.
pub(crate) fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Formats a fraction as a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("E0", "demo", "a note", &["name", "value"]);
        t.push(vec!["longer-name".into(), "1".into()]);
        t.push(vec!["x".into(), "123.45".into()]);
        let s = t.to_string();
        assert!(s.contains("E0: demo"));
        assert!(s.contains("(paper: a note)"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus the two title lines.
        assert_eq!(lines.len(), 6);
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[4].len().max(lines[2].len()));
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = Table::new("E0", "demo", "", &["a", "b"]);
        t.push(vec!["1".into()]);
        t.push(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.to_string();
        assert!(s.contains('3'));
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.1234), "12.34%");
    }
}
