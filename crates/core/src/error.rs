//! Errors for the intersection-schema integration layer.

use std::fmt;

/// Errors raised while building federated/intersection/global schemas or answering
/// dataspace queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An error bubbled up from the transformation substrate.
    Automed(automed::AutomedError),
    /// An error bubbled up from a relational source.
    Relational(String),
    /// An IQL parse error (e.g. in a user-supplied mapping or dataspace query).
    Parse(String),
    /// The integration specification is inconsistent (e.g. references an unknown
    /// source or an object the source does not have).
    InvalidSpec(String),
    /// The workflow was driven out of order (e.g. integrating before federating).
    WorkflowOrder(String),
    /// A dataspace query failed to evaluate.
    Query(String),
    /// A prepared query was executed without a binding for one of its `?name`
    /// placeholders.
    UnboundParam(String),
    /// A prepared query was executed with a binding for a name that does not
    /// occur in the query (almost always a typo in the binding set).
    UnknownParam(String),
    /// The durable storage layer failed: the commit log could not be opened,
    /// appended to, compacted, or replayed (carries the I/O or replay detail).
    Storage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Automed(e) => write!(f, "{e}"),
            CoreError::Relational(e) => write!(f, "relational source error: {e}"),
            CoreError::Parse(e) => write!(f, "IQL parse error: {e}"),
            CoreError::InvalidSpec(e) => write!(f, "invalid integration specification: {e}"),
            CoreError::WorkflowOrder(e) => write!(f, "workflow error: {e}"),
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::UnboundParam(p) => {
                write!(f, "no binding for query parameter `?{p}`")
            }
            CoreError::UnknownParam(p) => {
                write!(
                    f,
                    "binding for `?{p}` does not match any parameter of the query"
                )
            }
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<automed::AutomedError> for CoreError {
    fn from(e: automed::AutomedError) -> Self {
        CoreError::Automed(e)
    }
}

impl From<iql::ParseError> for CoreError {
    fn from(e: iql::ParseError) -> Self {
        CoreError::Parse(e.to_string())
    }
}

impl From<iql::EvalError> for CoreError {
    fn from(e: iql::EvalError) -> Self {
        CoreError::Query(e.to_string())
    }
}

impl From<relational::RelError> for CoreError {
    fn from(e: relational::RelError) -> Self {
        use relational::RelError::{LogAppend, LogPoisoned};
        match e {
            LogAppend(_) | LogPoisoned => CoreError::Storage(e.to_string()),
            e => CoreError::Relational(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = automed::AutomedError::UnknownSchema("x".into()).into();
        assert!(e.to_string().contains("x"));
        let p: CoreError = iql::parse("[").unwrap_err().into();
        assert!(matches!(p, CoreError::Parse(_)));
        let q: CoreError = iql::EvalError::DivisionByZero.into();
        assert!(matches!(q, CoreError::Query(_)));
    }
}
