//! Shared helpers for the experiment tables.
//!
//! The experiment index lives in `DESIGN.md`; every experiment `E1`–`E12` has
//! a binary in `src/bin/` that prints its table to stdout using the small
//! formatting helpers of this crate. Timings are not taken here: the suite
//! benchmark (`suitebench/`) times every engine layer end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A minimal plain-text table printer (fixed-width columns, Markdown-style).
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have as many cells as the header).
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(widths) {
                let pad = width - cell.chars().count();
                line.push(' ');
                line.push_str(cell);
                line.push_str(&" ".repeat(pad + 1));
                line.push('|');
            }
            line
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push('|');
        for width in &widths {
            out.push_str(&"-".repeat(width + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table with a title line.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        println!("{}", self.render());
    }
}

/// Formats an `f64` compactly (three decimals, scientific for extremes).
#[must_use]
pub fn fmt_f64(value: f64) -> String {
    if value.is_infinite() {
        return "inf".to_owned();
    }
    if value == 0.0 {
        return "0".to_owned();
    }
    if value.abs() >= 1e6 || value.abs() < 1e-3 {
        format!("{value:.3e}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut t = Table::new(["n", "states"]);
        t.row(["8", "5"]).row(["16", "6"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("| n  | states |"));
        assert!(rendered.contains("| 16 | 6      |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.500");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(2.5e10), "2.500e10");
    }
}
