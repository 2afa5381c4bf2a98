use cuba_explore::ExploreError;
use cuba_pds::PdsError;

/// Errors raised by the CUBA algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubaError {
    /// An exploration budget was exhausted.
    Explore(ExploreError),
    /// The input system is malformed.
    Model(PdsError),
    /// A session's lineup has only explicit engines, and the system
    /// fails the FCR check (their per-round sets may be infinite); use
    /// the symbolic variants instead (§6 overall procedure).
    FcrRequired,
    /// The property names states, threads or stack symbols that do not
    /// exist in the model (see [`Property::validate`](crate::Property::validate)).
    /// Such a property can never be violated, so running it would
    /// report a vacuous `safe`; it is rejected at session start
    /// instead.
    InvalidProperty(String),
}

impl std::fmt::Display for CubaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubaError::Explore(e) => write!(f, "exploration failed: {e}"),
            CubaError::Model(e) => write!(f, "invalid model: {e}"),
            CubaError::FcrRequired => write!(
                f,
                "explicit-state analysis requires finite context reachability"
            ),
            CubaError::InvalidProperty(msg) => write!(f, "invalid property: {msg}"),
        }
    }
}

impl std::error::Error for CubaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CubaError::Explore(e) => Some(e),
            CubaError::Model(e) => Some(e),
            CubaError::FcrRequired | CubaError::InvalidProperty(_) => None,
        }
    }
}

impl From<ExploreError> for CubaError {
    fn from(e: ExploreError) -> Self {
        CubaError::Explore(e)
    }
}

impl From<PdsError> for CubaError {
    fn from(e: PdsError) -> Self {
        CubaError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CubaError::from(ExploreError::StateBudgetExceeded { limit: 7 });
        assert!(e.to_string().contains("exploration failed"));
        assert!(e.source().is_some());
        assert!(CubaError::FcrRequired.source().is_none());
        let e = CubaError::InvalidProperty("names shared state 99".to_owned());
        assert!(e.to_string().contains("invalid property"));
        assert!(e.source().is_none());
    }
}
