//! Fixed-width table formatting for sweep result rows.
//!
//! The CLI (and anything else streaming cell results) needs deterministic,
//! byte-stable rows: same inputs → same bytes, independent of how the cells
//! were scheduled. Centralizing the column layout here keeps every command's
//! table aligned the same way and makes "byte-identical serial vs sharded"
//! a property of the data rather than of ad-hoc format strings.
//!
//! Rows are written by one [`RowWriter`], which appends cells straight into
//! a caller's byte buffer: core `fmt` formats each value in place, padding
//! counts chars the way `format!("{:<w$}")` does, and trailing whitespace
//! is trimmed, so a row costs no allocation beyond the buffer's growth.
//! [`TableFormat::row`] is a thin wrapper over the same writer.

use std::io::Write;

/// Horizontal alignment of a column's cells (headers align the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right.
    Left,
    /// Pad on the left.
    Right,
}

#[derive(Debug, Clone)]
struct Column {
    header: String,
    width: usize,
    align: Align,
}

/// A column layout that renders header, rule and data rows as fixed-width
/// single-space-separated text.
#[derive(Debug, Clone, Default)]
pub struct TableFormat {
    cols: Vec<Column>,
}

impl TableFormat {
    /// Empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a column. Cells wider than `width` are not truncated; they
    /// push the rest of their row right (matching `format!` padding).
    pub fn col(mut self, header: &str, width: usize, align: Align) -> Self {
        self.cols.push(Column {
            header: header.to_string(),
            width,
            align,
        });
        self
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the layout has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Header row.
    pub fn header(&self) -> String {
        let headers: Vec<String> = self.cols.iter().map(|c| c.header.clone()).collect();
        self.row(&headers)
    }

    /// Horizontal rule sized to the full table width.
    pub fn rule(&self) -> String {
        let width =
            self.cols.iter().map(|c| c.width).sum::<usize>() + self.cols.len().saturating_sub(1);
        "-".repeat(width)
    }

    /// One data row from pre-rendered cell strings.
    ///
    /// # Panics
    /// Panics when the cell count does not match the column count.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) -> String {
        assert_eq!(
            cells.len(),
            self.cols.len(),
            "row has {} cells but the layout has {} columns",
            cells.len(),
            self.cols.len()
        );
        let mut buf = Vec::new();
        let mut row = self.row_writer(&mut buf);
        for cell in cells {
            row.cell(cell.as_ref());
        }
        row.finish();
        String::from_utf8(buf).expect("cells are str, so the row is UTF-8")
    }

    /// Starts one data row at the end of `buf`: add every column's cell
    /// with [`RowWriter::cell`], then [`RowWriter::finish`]. No newline is
    /// written.
    pub fn row_writer<'a>(&'a self, buf: &'a mut Vec<u8>) -> RowWriter<'a> {
        RowWriter {
            start: buf.len(),
            cols: &self.cols,
            buf,
            next: 0,
        }
    }
}

/// Appends one row of a [`TableFormat`] to a byte buffer, cell by cell.
#[derive(Debug)]
pub struct RowWriter<'a> {
    cols: &'a [Column],
    buf: &'a mut Vec<u8>,
    /// Where this row starts in `buf`; trimming never crosses it.
    start: usize,
    /// Index of the next column to fill.
    next: usize,
}

impl RowWriter<'_> {
    /// Formats `value` into the next column, padded to the column width by
    /// char count. Pass `format_args!("{:.3}", x)` for a fixed precision:
    /// the bytes are then exactly those of `format!("{x:.3}")`. Cells
    /// wider than the column are not truncated.
    ///
    /// # Panics
    /// Panics when every column is already filled.
    pub fn cell(&mut self, value: impl std::fmt::Display) -> &mut Self {
        let Some(col) = self.cols.get(self.next) else {
            panic!(
                "row has more cells than the layout's {} columns",
                self.cols.len()
            );
        };
        self.next += 1;
        if self.next > 1 {
            self.buf.push(b' ');
        }
        let at = self.buf.len();
        write!(self.buf, "{value}").expect("writing to a Vec cannot fail");
        let chars = self.buf[at..]
            .iter()
            .filter(|&&b| !is_continuation(b))
            .count();
        let pad = col.width.saturating_sub(chars);
        self.buf.resize(self.buf.len() + pad, b' ');
        if col.align == Align::Right {
            self.buf[at..].rotate_right(pad);
        }
        self
    }

    /// Ends the row: strips trailing whitespace (left-aligned last columns
    /// leave padding), so rows are byte-stable regardless of terminal
    /// copy/paste trimming.
    ///
    /// # Panics
    /// Panics when some column got no cell.
    pub fn finish(self) {
        assert_eq!(
            self.next,
            self.cols.len(),
            "row has {} cells but the layout has {} columns",
            self.next,
            self.cols.len()
        );
        // Walk back one char at a time: the row is UTF-8, so the last char
        // starts at the last byte that is not a continuation byte.
        while self.buf.len() > self.start {
            let mut at = self.buf.len() - 1;
            while at > self.start && is_continuation(self.buf[at]) {
                at -= 1;
            }
            let last = std::str::from_utf8(&self.buf[at..])
                .ok()
                .and_then(|s| s.chars().next());
            if !last.is_some_and(char::is_whitespace) {
                break;
            }
            self.buf.truncate(at);
        }
    }
}

/// Whether `b` continues a multibyte UTF-8 char (it does not start one).
fn is_continuation(b: u8) -> bool {
    b & 0xc0 == 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TableFormat {
        TableFormat::new()
            .col("name", 6, Align::Left)
            .col("x", 5, Align::Right)
    }

    #[test]
    fn header_and_rule_match_column_widths() {
        let t = layout();
        assert_eq!(t.header(), "name       x");
        assert_eq!(t.rule().len(), 12);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn rows_align_per_column() {
        let t = layout();
        assert_eq!(t.row(&["ab", "1.5"]), "ab       1.5");
        // Identical inputs render to identical bytes.
        assert_eq!(t.row(&["ab", "1.5"]), t.row(&["ab", "1.5"]));
    }

    #[test]
    fn trailing_whitespace_is_stripped() {
        let t = TableFormat::new().col("name", 8, Align::Left);
        assert_eq!(t.row(&["ab"]), "ab");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn cell_count_mismatch_panics() {
        layout().row(&["only-one"]);
    }

    /// The `format!` padding the writer replaces: `{:<w$}`/`{:>w$}` per
    /// cell, single spaces between, the row `trim_end`ed.
    fn format_row(cols: &[(usize, Align)], cells: &[String]) -> String {
        let mut out = String::new();
        for (i, (cell, &(width, align))) in cells.iter().zip(cols).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match align {
                Align::Left => out.push_str(&format!("{cell:<width$}")),
                Align::Right => out.push_str(&format!("{cell:>width$}")),
            }
        }
        out.truncate(out.trim_end().len());
        out
    }

    #[test]
    fn writer_matches_format_padding_precision_and_trim() {
        let texts = [
            "",
            "a",
            "ab ",
            "ñ",
            "±",
            "日本語",
            "wider-than-any-column",
            "sp\u{3000}",
            "tab\t",
        ];
        let floats = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0005,
            2.5,
            1.0045,
            0.125,
            -1.5,
        ];
        for (left, right) in [(Align::Left, Align::Right), (Align::Right, Align::Left)] {
            let cols = [(6, left), (9, right), (5, right), (7, left)];
            let t = cols.iter().fold(TableFormat::new(), |t, &(width, align)| {
                t.col("h", width, align)
            });
            for (i, text) in texts.iter().enumerate() {
                for (j, &x) in floats.iter().enumerate() {
                    let last = texts[(i + j) % texts.len()];
                    let expected = format_row(
                        &cols,
                        &[
                            text.to_string(),
                            format!("{x:.3}"),
                            format!("{x:.0}"),
                            format!("{x:.2}{last}"),
                        ],
                    );
                    let mut buf = b"kept".to_vec();
                    let mut row = t.row_writer(&mut buf);
                    row.cell(text)
                        .cell(format_args!("{x:.3}"))
                        .cell(format_args!("{x:.0}"))
                        .cell(format_args!("{x:.2}{last}"));
                    row.finish();
                    assert_eq!(&buf[..4], b"kept", "earlier bytes must not change");
                    assert_eq!(std::str::from_utf8(&buf[4..]), Ok(expected.as_str()));
                }
            }
        }
    }

    #[test]
    fn trim_stops_at_the_start_of_the_row() {
        let t = TableFormat::new().col("name", 4, Align::Left);
        let mut buf = b"  ".to_vec();
        let mut row = t.row_writer(&mut buf);
        row.cell(" ");
        row.finish();
        assert_eq!(buf, b"  ", "the blank row trims to nothing, and no further");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn writer_rejects_a_cell_past_the_last_column() {
        let t = layout();
        let mut buf = Vec::new();
        t.row_writer(&mut buf).cell("a").cell("b").cell("c");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn writer_rejects_a_row_with_missing_cells() {
        let t = layout();
        let mut buf = Vec::new();
        let mut row = t.row_writer(&mut buf);
        row.cell("a");
        row.finish();
    }
}
