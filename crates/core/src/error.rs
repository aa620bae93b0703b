//! Error type of the core crate.

use rdfref_query::QueryError;
use rdfref_storage::StorageError;
use std::fmt;

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised by reformulation and query answering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The UCQ reformulation exceeded the configured size limit — the
    /// paper's "this huge query could not even be parsed" outcome,
    /// reported gracefully.
    ReformulationTooLarge {
        /// Number of CQs generated before aborting.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A query-layer error (invalid cover, arity mismatch, …).
    Query(QueryError),
    /// A storage-layer error (row budget exceeded, …).
    Storage(StorageError),
    /// A cached plan's shape did not match its request — an internal
    /// planner/cache defect, reported instead of aborting the process.
    PlanShapeMismatch {
        /// The plan shape the request should have produced, e.g. `"UCQ"`.
        expected: &'static str,
    },
    /// The serving database's maintenance pipeline has shut down, so a
    /// submitted write batch can never be applied (or its report was lost).
    ServingStopped,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ReformulationTooLarge { size, limit } => write!(
                f,
                "UCQ reformulation exceeded the size limit ({size} CQs generated, limit {limit})"
            ),
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::PlanShapeMismatch { expected } => write!(
                f,
                "internal error: cached plan does not have the expected {expected} shape"
            ),
            CoreError::ServingStopped => {
                write!(f, "serving maintenance pipeline has stopped")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = CoreError::ReformulationTooLarge {
            size: 318_096,
            limit: 100_000,
        };
        assert!(e.to_string().contains("318096"));
        let q: CoreError = QueryError::UnboundHeadVar("x".into()).into();
        assert!(matches!(q, CoreError::Query(_)));
        let s: CoreError = StorageError::RowBudgetExceeded { budget: 5 }.into();
        assert!(matches!(s, CoreError::Storage(_)));
    }
}
