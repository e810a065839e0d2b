//! Aligned text tables for experiment output.

use core::fmt;

/// How a numeric cell prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Fixed point with this many decimals.
    Fixed(usize),
    /// A fraction as a percentage with two decimals.
    Pct,
}

/// One table cell: a label, or a number kept as a number until the
/// table prints, so code can read it back.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label or a pre-formatted figure.
    Text(String),
    /// A number and how it prints.
    Num(f64, Format),
}

impl Cell {
    /// The number in a numeric cell; `None` for text.
    pub(crate) fn num(&self) -> Option<f64> {
        match *self {
            Cell::Num(x, _) => Some(x),
            Cell::Text(_) => None,
        }
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

/// A text cell equals its text; a numeric cell equals no label.
impl PartialEq<&str> for Cell {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Cell::Text(s) if s == other)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Cell::Text(ref s) => out.write_str(s),
            Cell::Num(x, Format::Fixed(decimals)) => out.write_str(&f(x, decimals)),
            Cell::Num(x, Format::Pct) => out.write_str(&pct(x)),
        }
    }
}

/// What a table's note states, printed as its label: a claim of the
/// paper the table reconstructs, what an extension beyond the paper
/// shows, or what the harness guarantees about the table itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Note {
    Paper(&'static str),
    Extension(&'static str),
    Harness(&'static str),
}

impl fmt::Display for Note {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (label, text) = match *self {
            Note::Paper(text) => ("paper", text),
            Note::Extension(text) => ("extension", text),
            Note::Harness(text) => ("harness", text),
        };
        write!(out, "({label}: {text})")
    }
}

/// One experiment table (a reconstructed figure series or table).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id, e.g. `"E7"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the table shows, labelled by what it is.
    pub(crate) note: Note,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
    /// The names of the table's checks that failed on these rows (never
    /// printed with the table).
    pub failed: Vec<&'static str>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str, note: Note, header: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            note,
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extra cells are kept.
    pub fn push<C: Into<Cell>>(&mut self, row: Vec<C>) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// The numbers in the column headed `header`, top to bottom, text
    /// cells skipped.
    ///
    /// # Panics
    ///
    /// Panics if no column has that header.
    pub(crate) fn column(&self, header: &str) -> Vec<f64> {
        let col = self.col(header);
        self.rows
            .iter()
            .filter_map(|row| row.get(col).and_then(Cell::num))
            .collect()
    }

    /// The number under `header` in the row whose leading cells are
    /// `labels`.
    ///
    /// # Panics
    ///
    /// Panics if there is no such row or column, or the cell is text.
    pub(crate) fn num(&self, labels: &[&str], header: &str) -> f64 {
        let col = self.col(header);
        self.rows
            .iter()
            .find(|row| labels.iter().zip(row.iter()).all(|(l, c)| c == l))
            .unwrap_or_else(|| panic!("{}: no row {labels:?}", self.id))[col]
            .num()
            .unwrap_or_else(|| panic!("{}: {labels:?} {header} is text", self.id))
    }

    fn col(&self, header: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("{}: no column {header}", self.id))
    }

    fn widths(&self, rows: &[Vec<String>]) -> Vec<usize> {
        let cols = self
            .header
            .len()
            .max(rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in rows {
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
        writeln!(f, "   {}", self.note)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        let w = self.widths(&rows);
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
        for row in &rows {
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
        let mut t = Table::new("E0", "demo", Note::Harness("a note"), &["name", "value"]);
        t.push(vec!["longer-name".to_string(), "1".into()]);
        t.push(vec!["x".to_string(), "123.45".into()]);
        let s = t.to_string();
        assert!(s.contains("E0: demo"));
        assert!(s.contains("(harness: a note)"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus the two title lines.
        assert_eq!(lines.len(), 6);
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[4].len().max(lines[2].len()));
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = Table::new("E0", "demo", Note::Paper("a note"), &["a", "b"]);
        t.push(vec!["1".to_string()]);
        t.push(vec!["1".to_string(), "2".into(), "3".into()]);
        let s = t.to_string();
        assert!(s.contains('3'));
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn numbers_print_as_formatted_and_read_back_exactly() {
        let mut t = Table::new(
            "E0",
            "demo",
            Note::Paper("a note"),
            &["label", "share", "count"],
        );
        t.push(vec![
            Cell::Text("a".into()),
            Cell::Num(0.1234, Format::Pct),
            Cell::Num(1325.0, Format::Fixed(0)),
        ]);
        t.push(vec![
            Cell::Text("b".into()),
            Cell::Text("-".into()),
            Cell::Num(7.0, Format::Fixed(0)),
        ]);
        assert!(t.to_string().contains("a  12.34%   1325"));
        assert_eq!(t.num(&["a"], "share"), 0.1234);
        assert_eq!(t.column("share"), vec![0.1234]);
        assert_eq!(t.column("count"), vec![1325.0, 7.0]);
    }
}
