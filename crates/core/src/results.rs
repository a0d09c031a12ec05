//! Result tables, with plain-text rendering for the reproduction harness,
//! and the threshold lookup on a numeric series.

/// The largest `x` whose paired `y` meets or exceeds `threshold` (e.g.
/// "attack range at ≥ 80 % accuracy"); `None` if no point qualifies. The
/// pairing stops at the shorter of the two slices.
pub fn last_x_with_y_at_least(x: &[f64], y: &[f64], threshold: f64) -> Option<f64> {
    x.iter()
        .zip(y)
        .filter(|(_, y)| **y >= threshold)
        .map(|(x, _)| *x)
        .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
}

/// A printable table: column headers plus rows of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row should have `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text (what the harness prints and
    /// what EXPERIMENTS.md records).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let format_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with a fixed number of decimals (harness convenience).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_construction_and_threshold_lookup() {
        let (x, y) = ([1.0, 2.0, 3.0, 4.0], [1.0, 0.9, 0.7, 0.4]);
        assert_eq!(last_x_with_y_at_least(&x, &y, 0.8), Some(2.0));
        assert_eq!(last_x_with_y_at_least(&x, &y, 0.95), Some(1.0));
        assert_eq!(last_x_with_y_at_least(&x, &y, 1.5), None);
        // Out-of-order x: the farthest qualifying point wins, not the last.
        assert_eq!(
            last_x_with_y_at_least(&[4.0, 1.0], &[0.9, 0.9], 0.8),
            Some(4.0)
        );
        // Mismatched lengths truncate to the shorter slice.
        assert_eq!(
            last_x_with_y_at_least(&[1.0, 2.0, 3.0], &[0.5], 0.0),
            Some(1.0)
        );
        assert_eq!(last_x_with_y_at_least(&[1.0], &[0.1, 0.9], 0.5), None);
    }

    #[test]
    fn table_rendering_is_aligned_and_complete() {
        let mut table = Table::new(
            "Attack range vs power",
            &["Power (W)", "Phone (cm)", "Echo (cm)"],
        );
        table.push_row(vec!["9.2".into(), "222".into(), "145".into()]);
        table.push_row(vec!["23.7".into(), "354".into(), "239".into()]);
        let rendered = table.render();
        assert!(rendered.contains("Attack range vs power"));
        assert!(rendered.contains("Power (W)"));
        assert!(rendered.contains("354"));
        assert_eq!(rendered.lines().count(), 5);
        // Every data line is at least as wide as the header line.
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[4].len() >= "9.2".len());
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt(3.15159, 2), "3.15");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
