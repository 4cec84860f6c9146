//! Plain-text table rendering and CSV emission for experiment output.
//!
//! The experiment harness prints paper-style tables to stdout and can dump
//! the same rows as CSV. Hand-rolled (no `csv` dependency): the formats
//! needed here are trivial.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Example
/// ```
/// use ccr_sim::report::Table;
/// let mut t = Table::new("demo", &["n", "value"]);
/// t.row(&["4".into(), "0.97".into()]);
/// let s = t.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains("0.97"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Append one row from displayable values.
    #[cfg(test)]
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        let emit_row = |cells: &[String], out: &mut String| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            let _ = writeln!(out, "{}", body.join(" | "));
        };
        emit_row(&self.headers, &mut out);
        let _ = writeln!(out, "{}", "-".repeat(line));
        for row in &self.rows {
            emit_row(row, &mut out);
        }
        out
    }

    /// Render as CSV (RFC-4180 quoting for cells containing `",\n`).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let hdr: Vec<String> = self.headers.iter().map(|h| esc(h)).collect();
        let _ = writeln!(out, "{}", hdr.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Title accessor.
    pub fn title(&self) -> &str {
        &self.title
    }
}

/// Format a float with a fixed number of significant-looking decimals,
/// trimming to `-` when `NaN` (used for "no data" cells).
pub fn fmt_f64(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.decimals$}")
    }
}

/// Format a ratio as a percentage string.
pub fn fmt_pct(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{:.2}%", 100.0 * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "2000".into()]);
        let s = t.render();
        assert!(s.contains("## T"));
        let lines: Vec<&str> = s.lines().collect();
        // header, separator, two rows, title
        assert_eq!(lines.len(), 5);
        // all data lines have equal width
        assert_eq!(lines[2].len(), lines[4].len().max(lines[2].len()));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn csv_escapes_specials() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn row_display_stringifies() {
        let mut t = Table::new("T", &["n", "f"]);
        t.row_display(&[&42u32, &1.5f64]);
        assert!(t.render().contains("42"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
        assert_eq!(fmt_pct(0.1234), "12.34%");
        assert_eq!(fmt_pct(f64::NAN), "-");
    }
}
