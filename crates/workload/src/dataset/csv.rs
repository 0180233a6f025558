//! A hand-rolled, zero-dependency streaming CSV reader.
//!
//! The container this workspace builds in has no registry access, so —
//! in the same spirit as the `crates/compat` stubs — the dataset
//! readers parse CSV themselves rather than pulling in the `csv`
//! crate. The dialect is deliberately small: comma-separated fields,
//! one record per line, a mandatory header row, no quoting (the public
//! trace schemas we target are purely numeric plus bare identifiers).
//!
//! The reader streams row by row over any [`BufRead`], so a multi-GB
//! trace file is never resident in memory, and every error carries the
//! 1-based physical line number it was found on.

use crate::WorkloadError;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Streaming CSV reader with header-based column mapping.
#[derive(Debug)]
pub struct CsvReader<R> {
    input: R,
    header: Vec<String>,
    /// 1-based line number of the most recently read row.
    line: usize,
}

impl CsvReader<BufReader<File>> {
    /// Opens `path` and reads its header row.
    pub fn open<P: AsRef<Path>>(path: P) -> crate::Result<Self> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| WorkloadError::Io {
            context: format!("{}: {e}", path.display()),
        })?;
        Self::new(BufReader::new(file))
    }
}

impl<R: BufRead> CsvReader<R> {
    /// Wraps an already-open reader and consumes the header row.
    pub fn new(mut input: R) -> crate::Result<Self> {
        let mut first = String::new();
        let n = input.read_line(&mut first).map_err(|e| WorkloadError::Io {
            context: e.to_string(),
        })?;
        if n == 0 || first.trim().is_empty() {
            return Err(WorkloadError::InvalidParameter(
                "dataset file has no header row",
            ));
        }
        let header = split_fields(&first).map(str::to_owned).collect();
        Ok(CsvReader {
            input,
            header,
            line: 1,
        })
    }

    /// The header fields, in file order.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Index of the header column named `name`, if present.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// Index of the header column named `name`, or a typed error.
    pub fn require_column(&self, name: &'static str) -> crate::Result<usize> {
        self.column(name)
            .ok_or(WorkloadError::MissingColumn { column: name })
    }

    /// Next data row, or `None` at end of input. Blank lines are
    /// skipped; a row whose field count differs from the header's is a
    /// typed error (this is how a truncated final line surfaces).
    pub fn next_row(&mut self) -> Option<crate::Result<Row>> {
        loop {
            let mut raw = String::new();
            match self.input.read_line(&mut raw) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return Some(Err(WorkloadError::Io {
                        context: e.to_string(),
                    }))
                }
            }
            self.line += 1;
            if raw.trim().is_empty() {
                continue;
            }
            let fields: Vec<String> = split_fields(&raw).map(str::to_owned).collect();
            if fields.len() != self.header.len() {
                return Some(Err(WorkloadError::BadColumnCount {
                    line: self.line,
                    expected: self.header.len(),
                    got: fields.len(),
                }));
            }
            return Some(Ok(Row {
                line: self.line,
                fields,
            }));
        }
    }
}

/// One parsed data row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    line: usize,
    fields: Vec<String>,
}

impl Row {
    /// 1-based physical line number this row came from.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Raw text of field `idx` (panics if out of range — callers index
    /// with positions vetted against the header).
    pub fn field(&self, idx: usize) -> &str {
        &self.fields[idx]
    }

    /// Field `idx` parsed as `f64`, with a line-numbered typed error.
    pub fn parse_f64(&self, idx: usize, column: &'static str) -> crate::Result<f64> {
        self.fields[idx]
            .parse()
            .map_err(|_| WorkloadError::BadField {
                line: self.line,
                column,
                value: self.fields[idx].clone(),
            })
    }
}

/// Splits one physical line into trimmed fields.
fn split_fields(line: &str) -> impl Iterator<Item = &str> {
    line.trim_end_matches(['\n', '\r'])
        .split(',')
        .map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> CsvReader<Cursor<&[u8]>> {
        CsvReader::new(Cursor::new(text.as_bytes())).expect("header")
    }

    #[test]
    fn maps_header_and_streams_rows() {
        let mut r = reader("a,b,c\n1,2,3\n\n4,5,6\n");
        assert_eq!(r.header(), ["a", "b", "c"]);
        assert_eq!(r.column("b"), Some(1));
        assert_eq!(r.column("z"), None);
        let row = r.next_row().unwrap().unwrap();
        assert_eq!(row.line(), 2);
        assert_eq!(row.field(2), "3");
        // The blank line is skipped, not an error.
        let row = r.next_row().unwrap().unwrap();
        assert_eq!(row.line(), 4);
        assert_eq!(row.parse_f64(0, "a").unwrap(), 4.0);
        assert!(r.next_row().is_none());
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        assert_eq!(
            CsvReader::new(Cursor::new(b"" as &[u8])).unwrap_err(),
            WorkloadError::InvalidParameter("dataset file has no header row")
        );
    }

    #[test]
    fn missing_column_is_a_typed_error() {
        let r = reader("a,b\n");
        assert_eq!(
            r.require_column("cpu").unwrap_err(),
            WorkloadError::MissingColumn { column: "cpu" }
        );
    }

    #[test]
    fn truncated_row_reports_line_and_counts() {
        let mut r = reader("a,b,c\n1,2,3\n4,5\n");
        r.next_row().unwrap().unwrap();
        assert_eq!(
            r.next_row().unwrap().unwrap_err(),
            WorkloadError::BadColumnCount {
                line: 3,
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn overlong_row_reports_line_and_counts() {
        let mut r = reader("a,b\n1,2,3\n");
        assert_eq!(
            r.next_row().unwrap().unwrap_err(),
            WorkloadError::BadColumnCount {
                line: 2,
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn bad_field_reports_line_column_and_value() {
        let mut r = reader("t,cpu\n5,banana\n");
        let row = r.next_row().unwrap().unwrap();
        assert_eq!(
            row.parse_f64(1, "cpu").unwrap_err(),
            WorkloadError::BadField {
                line: 2,
                column: "cpu",
                value: "banana".into()
            }
        );
    }

    #[test]
    fn crlf_and_padding_are_tolerated() {
        let mut r = reader("a, b\r\n 1 ,2\r\n");
        assert_eq!(r.header(), ["a", "b"]);
        let row = r.next_row().unwrap().unwrap();
        assert_eq!(row.parse_f64(0, "a").unwrap(), 1.0);
    }
}
