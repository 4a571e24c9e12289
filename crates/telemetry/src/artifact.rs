//! Experiment artifact writer.
//!
//! Every `exp_*` binary that writes a `BENCH_*.json` records each run as
//! one JSON line appended to the file, so the file is the experiment's
//! history, oldest run first, and reading the last run needs no JSON
//! parser (`tail -n 1`). This module is the one code path producing
//! those lines:
//!
//! ```json
//! {"experiment": "exp_envelope_cost", "sha": "…", …, "unit": "microseconds", "notes": "…", "rows": [{"hops": 8, "verify_us": 22.95}]}
//! ```
//!
//! The fields between `experiment` and `unit` are the caller's stamp:
//! where and when the run took place and its configuration.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use crate::expo::json_escape;

/// One JSON value in an artifact row.
#[derive(Clone, Debug)]
pub enum Value {
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Float, rendered with two decimals (matching the original
    /// hand-rolled artifacts so diffs stay meaningful).
    Float(f64),
    /// String.
    Str(String),
    /// A nested object.
    Object(Row),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::UInt(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.2}"),
            Value::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Value::Object(row) => write!(f, "{{{}}}", row.fields()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Row> for Value {
    fn from(v: Row) -> Self {
        Value::Object(v)
    }
}

/// One result row: ordered field → value pairs.
#[derive(Clone, Default, Debug)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a field (builder style).
    pub fn field(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.0.push((name.to_string(), value.into()));
        self
    }

    /// The fields as `"name": value` pairs, comma-separated.
    fn fields(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
            .collect();
        fields.join(", ")
    }
}

/// An experiment result record.
#[derive(Clone, Debug)]
pub struct Artifact {
    experiment: String,
    unit: String,
    notes: String,
    rows: Vec<Row>,
}

impl Artifact {
    /// A new artifact for `experiment`, measuring in `unit`.
    pub fn new(experiment: &str, unit: &str, notes: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            unit: unit.to_string(),
            notes: notes.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a result row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Render the record as one line of JSON (no newline), `stamp`'s
    /// fields after the experiment's name.
    fn to_line(&self, stamp: &Row) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{{{}}}", r.fields()))
            .collect();
        format!(
            "{{\"experiment\": \"{}\", {}, \"unit\": \"{}\", \"notes\": \"{}\", \"rows\": [{}]}}",
            json_escape(&self.experiment),
            stamp.fields(),
            json_escape(&self.unit),
            json_escape(&self.notes),
            rows.join(", ")
        )
    }

    /// Append the record, stamped with `stamp`, to `path` as one line.
    pub fn append(&self, path: impl AsRef<Path>, stamp: &Row) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", self.to_line(stamp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_renders_rows_in_order() {
        let mut a = Artifact::new("exp_test", "microseconds", "a \"note\"");
        a.push(Row::new().field("hops", 8u64).field("verify_us", 22.95));
        a.push(Row::new().field("hops", 10u64).field("label", "deep"));
        let stamp = Row::new()
            .field("sha", "abc")
            .field("config", Row::new().field("reps", 9u64));
        let line = a.to_line(&stamp);
        assert!(!line.contains('\n'));
        assert!(line.starts_with(
            "{\"experiment\": \"exp_test\", \"sha\": \"abc\", \"config\": {\"reps\": 9}, \"unit\""
        ));
        assert!(line.contains("\"notes\": \"a \\\"note\\\"\""));
        assert!(line.ends_with(
            "\"rows\": [{\"hops\": 8, \"verify_us\": 22.95}, {\"hops\": 10, \"label\": \"deep\"}]}"
        ));
    }
}
