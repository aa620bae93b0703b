//! Error types of the storage layer.

use std::fmt;

/// Result alias for the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by relation algebra and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A row of the wrong arity was pushed into a relation.
    ArityMismatch {
        /// The relation's arity.
        expected: usize,
        /// The offending row's arity.
        found: usize,
    },
    /// A column name was not found in a relation.
    UnknownColumn(String),
    /// Output column list does not match a CQ head.
    HeadMismatch {
        /// The CQ head arity.
        head: usize,
        /// The provided output column count.
        columns: usize,
    },
    /// An evaluation exceeded the configured row budget (guard against
    /// runaway intermediate results; mirrors the paper's "could not be
    /// evaluated in our experimental setting").
    RowBudgetExceeded {
        /// The configured budget.
        budget: usize,
    },
    /// A morsel worker thread panicked; its results are lost.
    WorkerPanicked,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: relation has {expected}, row has {found}"
                )
            }
            StorageError::UnknownColumn(c) => write!(f, "unknown column ?{c}"),
            StorageError::HeadMismatch { head, columns } => write!(
                f,
                "output column count {columns} does not match CQ head arity {head}"
            ),
            StorageError::RowBudgetExceeded { budget } => {
                write!(f, "evaluation exceeded the row budget of {budget} rows")
            }
            StorageError::WorkerPanicked => {
                write!(f, "a morsel worker thread panicked")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(StorageError::UnknownColumn("x".into())
            .to_string()
            .contains("?x"));
        assert!(StorageError::RowBudgetExceeded { budget: 10 }
            .to_string()
            .contains("10"));
    }
}
