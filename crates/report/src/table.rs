//! Plain-text table rendering for paper-style output.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// ```
/// use zerosim_report::Table;
/// let mut t = Table::new(vec!["config", "TFLOP/s"]);
/// t.row(vec!["DDP".into(), "438".into()]);
/// t.row(vec!["ZeRO-2".into(), "524".into()]);
/// let s = t.render();
/// assert!(s.contains("DDP"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    /// Panics on an empty header list: every caller names its columns.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row, padding or truncating to the column count.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns, a header separator, and a trailing
    /// newline.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let pad = widths[c] - cell.chars().count();
                // Right-align numeric-looking cells, left-align text.
                let numeric = cell
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-' || ch == '+');
                if numeric {
                    for _ in 0..pad {
                        out.push(' ');
                    }
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    for _ in 0..pad {
                        out.push(' ');
                    }
                }
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish quoting).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "123".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width for the value column alignment.
        assert!(lines[3].ends_with("123"));
        assert!(lines[2].ends_with("  1"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        Table::new(Vec::<String>::new());
    }
}
