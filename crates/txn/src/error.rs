//! Error type for the transaction service.

use crate::lock::DataItem;
use crate::service::TxnId;
use rhodos_file_service::FileServiceError;
use std::error::Error;
use std::fmt;

/// Errors returned by [`TransactionService`](crate::TransactionService)
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxnError {
    /// The lock needed by this operation is held by another transaction;
    /// the request is queued. Retry the operation later (after other
    /// transactions commit/abort, or after a [`tick`]).
    ///
    /// [`tick`]: crate::TransactionService::tick
    WouldBlock {
        /// The blocked transaction.
        txn: TxnId,
        /// The contested data item.
        item: DataItem,
    },
    /// The transaction does not exist or has already finished.
    NotActive(TxnId),
    /// The transaction was aborted (by `tabort` or the deadlock timeout);
    /// all its effects were discarded.
    Aborted(TxnId),
    /// The file was not opened under this transaction (`topen` first).
    FileNotOpen(TxnId),
    /// `tend` called on a transaction whose nested children are still
    /// active; finish them first.
    ChildrenActive(TxnId),
    /// Reading past the end of the file.
    BeyondEof {
        /// Requested offset.
        offset: u64,
        /// File size.
        size: u64,
    },
    /// The transaction is a prepared cross-shard participant awaiting
    /// its coordinator's decision; only
    /// [`resolve_prepared`](crate::TransactionService::resolve_prepared)
    /// may finish it.
    InDoubt(TxnId),
    /// A group commit took the transaction off the pipeline queue and
    /// panicked before publishing its outcome; only recovery can tell
    /// whether it took effect.
    CommitLost(TxnId),
    /// Underlying file-service failure.
    File(FileServiceError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::WouldBlock { txn, item } => {
                write!(f, "transaction {} must wait for {item}", txn.0)
            }
            TxnError::NotActive(t) => write!(f, "transaction {} is not active", t.0),
            TxnError::Aborted(t) => write!(f, "transaction {} was aborted", t.0),
            TxnError::FileNotOpen(t) => {
                write!(f, "file not opened under transaction {}", t.0)
            }
            TxnError::ChildrenActive(t) => {
                write!(f, "transaction {} still has active nested children", t.0)
            }
            TxnError::BeyondEof { offset, size } => {
                write!(f, "offset {offset} beyond end of file ({size} bytes)")
            }
            TxnError::InDoubt(t) => {
                write!(
                    f,
                    "transaction {} is prepared in-doubt and awaits its coordinator's decision",
                    t.0
                )
            }
            TxnError::CommitLost(t) => {
                write!(
                    f,
                    "the commit of transaction {} was lost with its batch",
                    t.0
                )
            }
            TxnError::File(e) => write!(f, "file service failure: {e}"),
        }
    }
}

impl Error for TxnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxnError::File(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FileServiceError> for TxnError {
    fn from(e: FileServiceError) -> Self {
        TxnError::File(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhodos_file_service::FileId;

    #[test]
    fn display_mentions_specifics() {
        let e = TxnError::WouldBlock {
            txn: TxnId(4),
            item: DataItem::Page(FileId(2), 7),
        };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains("page7"));
    }

    #[test]
    fn file_errors_chain() {
        let e = TxnError::from(FileServiceError::NotFound(FileId(1)));
        assert!(e.source().is_some());
    }
}
