//! The one table writer every fleet report prints through.
//!
//! A column carries its header, alignment and cell format, and
//! [`Table::render`] renders the header line and every row from the same
//! columns, two spaces apart, so a header cannot drift from the rows
//! under it. A column is as wide as its header or its widest cell.

/// A column over rows of type `R`: header, right-aligned, cell.
type Col<R> = (&'static str, bool, fn(&R) -> String);

/// Rows of type `R` and the columns that render them.
pub struct Table<R> {
    rows: Vec<R>,
    note: String,
    cols: Vec<Col<R>>,
}

impl<R> Table<R> {
    /// A table over `rows`, with no columns yet.
    pub fn new(rows: impl IntoIterator<Item = R>) -> Self {
        Table {
            rows: rows.into_iter().collect(),
            note: String::new(),
            cols: Vec::new(),
        }
    }

    /// Text the header line ends with, after two spaces.
    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }

    /// Adds a column whose header and cells are padded on the right.
    pub fn left(mut self, head: &'static str, cell: fn(&R) -> String) -> Self {
        self.cols.push((head, false, cell));
        self
    }

    /// Adds a column whose header and cells are padded on the left.
    pub fn right(mut self, head: &'static str, cell: fn(&R) -> String) -> Self {
        self.cols.push((head, true, cell));
        self
    }

    /// The header line, then one line a row: each cell padded to its
    /// column's width and two spaces from the one before, without
    /// trailing blanks.
    pub fn render(&self) -> String {
        let head = self.cols.iter().map(|c| c.0.to_string()).collect();
        let rows = (self.rows.iter()).map(|r| self.cols.iter().map(|c| (c.2)(r)).collect());
        let lines: Vec<Vec<String>> = std::iter::once(head).chain(rows).collect();
        let widest = |i: usize| lines.iter().map(|l| l[i].chars().count()).max();
        let widths: Vec<usize> = (0..self.cols.len()).filter_map(widest).collect();
        let mut out = String::new();
        for (n, cells) in lines.iter().enumerate() {
            let mut line = String::new();
            for (i, (text, &(_, right, _))) in cells.iter().zip(&self.cols).enumerate() {
                let (width, gap) = (widths[i], if i == 0 { "" } else { "  " });
                line += &if right {
                    format!("{gap}{text:>width$}")
                } else {
                    format!("{gap}{text:<width$}")
                };
            }
            if n == 0 && !self.note.is_empty() {
                line = format!("{}  {}", line.trim_end(), self.note);
            }
            out += line.trim_end();
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows_share_one_spec() {
        let out = Table::new([("a", 1.0, ""), ("bb", 22.5, "over")])
            .note("(two rows)".into())
            .left("name", |r| r.0.to_string())
            .right("value", |r| format!("{:.2}", r.1))
            .left("", |r| r.2.to_string())
            .render();
        assert_eq!(
            out,
            "name  value  (two rows)\n\
             a      1.00\n\
             bb    22.50  over\n"
        );
    }

    #[test]
    fn a_column_is_as_wide_as_its_widest_cell() {
        let out = Table::new([1, 1_000_000])
            .right("n", |n| n.to_string())
            .left("x", |_| "y".into())
            .render();
        assert_eq!(out, "      n  x\n      1  y\n1000000  y\n");
    }
}
