//! Tiny aligned-text-table and CSV helpers used by the experiment binaries.
//!
//! The experiment binaries print the same rows/series the paper reports;
//! this module keeps that formatting in one place so every figure looks
//! consistent and every table also lands in a machine-readable CSV.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// An in-memory table: a header row plus data rows, rendered as aligned
/// monospace text or CSV.
///
/// # Examples
///
/// ```
/// use nucache_common::table::Table;
/// let mut t = Table::new(["workload", "mpki"]);
/// t.row(["mcf_like".to_string(), format!("{:.2}", 31.4)]);
/// let text = t.to_text();
/// assert!(text.contains("mcf_like"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned monospace table with a separator rule.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            // Trailing spaces from padding the last column are noise.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as CSV (commas and quotes in cells are escaped).
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                    let escaped = cell.replace('"', "\"\"");
                    let _ = write!(out, "\"{escaped}\"");
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float with 3 decimal places (the workhorse for speedups).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_alignment() {
        let mut t = Table::new(["a", "longheader"]);
        t.row(["xxxxxx", "1"]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a       "));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(["name", "note"]);
        t.row(["plain", "a,b"]);
        t.row(["quoted", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_roundtrip_dims() {
        let mut t = Table::new(["x"]);
        t.row(["1"]).row(["2"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.to_csv().lines().count(), 3);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("nucache_table_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        let mut t = Table::new(["x"]);
        t.row(["1"]);
        t.write_csv(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
    }
}
