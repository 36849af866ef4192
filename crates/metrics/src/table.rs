//! Fixed-width text tables for experiment output.
//!
//! Every experiment binary prints its results as one of these tables, so the
//! paper-vs-measured comparison in `EXPERIMENTS.md` can be regenerated by
//! copy-paste.

use std::fmt;

/// A simple right-padded text table.
///
/// ```
/// use mtnet_metrics::Table;
/// let mut t = Table::new(["scheme", "loss %"]);
/// t.row(["hard", "12.5"]);
/// t.row(["semisoft", "0.8"]);
/// let s = t.to_string();
/// assert!(s.contains("semisoft"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
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
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for width in &w {
                write!(f, "+{}", "-".repeat(width + 2))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "| {h:<width$} ", width = w[i])?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                write!(f, "| {c:<width$} ", width = w[i])?;
            }
            writeln!(f, "|")?;
        }
        line(f)
    }
}

/// Formats a float with 3 significant decimals — shared by experiment
/// binaries so tables are uniform.
pub fn fmt_f64(x: f64) -> String {
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["wide-cell-content", "1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // border, header, border, row, border
        assert_eq!(lines.len(), 5);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "ragged table:\n{s}");
        assert!(s.contains("| wide-cell-content |"));
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = Table::new(["x"]);
        assert!(t.rows.is_empty());
        assert!(t.to_string().contains("| x |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panics() {
        Table::new(Vec::<String>::new());
    }

    #[test]
    fn len_counts_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1"]).row(["2"]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(1.23456), "1.2346");
    }
}
