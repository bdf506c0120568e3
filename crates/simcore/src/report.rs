//! Plain-text table rendering for experiment reports.
//!
//! The reproduction harness prints each paper table/figure as an aligned
//! ASCII table; this module keeps that formatting logic in one place.

use core::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use socc_sim::report::Table;
///
/// let mut t = Table::new(["video", "streams/W"]);
/// t.row(["V1", "2.36"]);
/// let out = t.render();
/// assert!(out.contains("video"));
/// assert!(out.contains("V1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated to the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Renders the table to a string (first column left-aligned, the rest
    /// right-aligned, which suits label + numeric layouts).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "== {title} ==");
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(line, "{cell:<width$}", width = widths[i]);
                } else {
                    let _ = write!(line, "{cell:>width$}", width = widths[i]);
                }
            }
            line
        };
        let _ = writeln!(out, "{}", render_row(&self.header));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row));
        }
        out
    }
}

/// Formats a float with `digits` decimal places.
pub fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a value as a percentage like `53.4%`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a dollar amount like `$1,042`.
pub fn dollars(v: f64) -> String {
    let rounded = v.round() as i64;
    let negative = rounded < 0;
    let digits = rounded.abs().to_string();
    let mut grouped = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            grouped.push(',');
        }
        grouped.push(c);
    }
    if negative {
        format!("-${grouped}")
    } else {
        format!("${grouped}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]).with_title("demo");
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        let out = t.render();
        assert!(out.starts_with("== demo =="));
        let lines: Vec<&str> = out.lines().collect();
        // Header, separator, two rows, plus title.
        assert_eq!(lines.len(), 5);
        // All data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["x"]);
        assert_eq!(t.rows.len(), 1);
        let out = t.render();
        assert!(out.contains('x'));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(pct(0.534), "53.4%");
    }

    #[test]
    fn dollar_grouping() {
        assert_eq!(dollars(1042.4), "$1,042");
        assert_eq!(dollars(35.0), "$35");
        assert_eq!(dollars(48236.0), "$48,236");
        assert_eq!(dollars(-1500.0), "-$1,500");
        assert_eq!(dollars(1234567.0), "$1,234,567");
    }
}
