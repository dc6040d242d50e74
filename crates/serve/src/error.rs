//! Error type for the serving subsystem.

use std::fmt;

/// Errors raised by artifact persistence, the query engine, and the
/// HTTP front end.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket I/O failed.
    Io(std::io::Error),
    /// An artifact failed structural validation while decoding: bad
    /// magic, unknown version, truncation, or checksum mismatch.
    Corrupt(String),
    /// An intact artifact file or layout (`what`) in an older format
    /// `version` that serving no longer reads; `sgla-serve compact`
    /// migrates it.
    OldFormat {
        /// What was opened ("file", "layout manifest").
        what: &'static str,
        /// Its artifact format version.
        version: u16,
    },
    /// A query referenced a node/cluster outside the artifact.
    InvalidQuery(String),
    /// A query referenced a node that exists structurally but has been
    /// deleted (tombstoned). Distinct from [`ServeError::InvalidQuery`]
    /// so the HTTP layer can answer 404 (the id was valid once and may
    /// reappear after writes) instead of 400 (the request itself is
    /// malformed).
    NotFound(String),
    /// Structurally invalid input (training parameters, config).
    InvalidArgument(String),
    /// Training the artifact failed in the core pipeline.
    Train(sgla_core::SglaError),
    /// The server failed to start or shut down cleanly.
    Server(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            ServeError::OldFormat { what, version } => write!(
                f,
                "old artifact format: {what} uses format v{version}, which serving no longer \
                 reads; run `sgla-serve compact` on it to migrate it to v{}",
                crate::artifact::FORMAT_VERSION
            ),
            ServeError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ServeError::NotFound(msg) => write!(f, "not found: {msg}"),
            ServeError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            ServeError::Train(e) => write!(f, "training failed: {e}"),
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Train(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<sgla_core::SglaError> for ServeError {
    fn from(e: sgla_core::SglaError) -> Self {
        ServeError::Train(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ServeError::Corrupt("x".into())
            .to_string()
            .contains("corrupt"));
        assert!(ServeError::InvalidQuery("x".into())
            .to_string()
            .contains("query"));
        assert!(ServeError::NotFound("node 7".into())
            .to_string()
            .contains("not found"));
        let io: ServeError = std::io::Error::new(std::io::ErrorKind::NotFound, "n").into();
        assert!(io.to_string().contains("io error"));
    }
}
