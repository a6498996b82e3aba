//! Minimal fixed-width table printer for experiment reports.

use std::fmt::Display;

/// Builds an aligned ASCII table from a header row and data rows.
///
/// # Example
///
/// ```
/// use rhodos_bench::table::Table;
///
/// let mut t = Table::new(&["size", "refs"]);
/// t.row(&[&"8 KiB", &2]);
/// let s = t.render();
/// assert!(s.contains("size"));
/// assert!(s.contains("8 KiB"));
/// ```
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row(&mut self, cells: &[&dyn Display]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("  ");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}", c, width = widths[i] + 2));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str("  ");
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a ratio as `x.yz×`. A fully absorbed cost (zero) is reported
/// as such rather than as a division by zero.
pub fn speedup(base: f64, improved: f64) -> String {
    if improved <= 0.0 {
        return "fully absorbed (cost -> 0)".to_string();
    }
    format!("{:.2}x", base / improved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&[&"wide-cell", &1]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert!(lines[2].starts_with("  wide-cell"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_caught() {
        Table::new(&["a"]).row(&[&1, &2]);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(10.0, 5.0), "2.00x");
        assert_eq!(speedup(1.0, 0.0), "fully absorbed (cost -> 0)");
    }
}
