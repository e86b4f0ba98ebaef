//! Errors for relational schema and store operations.

use std::fmt;

/// Errors raised by relational schema construction and data manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A table with this name already exists in the schema.
    DuplicateTable(String),
    /// A column with this name already exists in the table.
    DuplicateColumn { table: String, column: String },
    /// The named table does not exist.
    UnknownTable(String),
    /// The named column does not exist in the table.
    UnknownColumn { table: String, column: String },
    /// A primary-key or foreign-key declaration references a missing column.
    BadKey { table: String, detail: String },
    /// A row has the wrong number of values for its table.
    ArityMismatch {
        table: String,
        expected: usize,
        found: usize,
    },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        table: String,
        column: String,
        expected: String,
        found: String,
    },
    /// A row with the same primary key already exists.
    DuplicateKey { table: String, key: String },
    /// A NOT NULL column received a null value.
    NullViolation { table: String, column: String },
    /// The commit log failed to record a batch (carries the I/O detail); the
    /// batch was not applied and the log is now poisoned.
    LogAppend(String),
    /// The commit log refused a batch because an earlier append failed; it
    /// accepts appends again only once reopened.
    LogPoisoned,
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::DuplicateTable(t) => write!(f, "duplicate table `{t}`"),
            RelError::DuplicateColumn { table, column } => {
                write!(f, "duplicate column `{column}` in table `{table}`")
            }
            RelError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            RelError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            RelError::BadKey { table, detail } => {
                write!(f, "bad key declaration on `{table}`: {detail}")
            }
            RelError::ArityMismatch {
                table,
                expected,
                found,
            } => write!(
                f,
                "row for `{table}` has {found} values, expected {expected}"
            ),
            RelError::TypeMismatch {
                table,
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch for `{table}.{column}`: expected {expected}, found {found}"
            ),
            RelError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in `{table}`")
            }
            RelError::NullViolation { table, column } => {
                write!(f, "null value for NOT NULL column `{table}.{column}`")
            }
            RelError::LogAppend(e) => write!(f, "commit-log append failed: {e}"),
            RelError::LogPoisoned => write!(
                f,
                "commit log refuses appends after an earlier append failed; reopen it"
            ),
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_identifiers() {
        let e = RelError::UnknownColumn {
            table: "protein".into(),
            column: "organism".into(),
        };
        let s = e.to_string();
        assert!(s.contains("protein") && s.contains("organism"));
    }
}
