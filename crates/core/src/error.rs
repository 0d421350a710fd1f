//! Error type for the P2P summary-management layer.

use std::fmt;

/// Errors raised by protocol state machines and experiment drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum P2pError {
    /// A peer id is out of range for the network.
    UnknownPeer(u32),
    /// An operation targeted a peer that is not a summary peer.
    NotASummaryPeer(u32),
    /// An operation targeted a peer that is not a partner of the domain.
    NotAPartner(u32),
    /// The underlying summarization layer failed.
    Summary(saintetiq::SummaryError),
    /// The relational layer rejected generated workload data.
    Relation(relation::RelationError),
    /// A configuration value is out of its legal range.
    BadConfig(String),
    /// A generated database disagrees with its ground truth: exact
    /// evaluation of template `template` says `!claimed`, where the
    /// generator claimed `claimed`.
    GroundTruth {
        /// The template index.
        template: usize,
        /// Whether the generator claimed a match.
        claimed: bool,
    },
}

impl fmt::Display for P2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P2pError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            P2pError::NotASummaryPeer(p) => write!(f, "peer {p} is not a summary peer"),
            P2pError::NotAPartner(p) => write!(f, "peer {p} is not a partner of this domain"),
            P2pError::Summary(e) => write!(f, "summarization error: {e}"),
            P2pError::Relation(e) => write!(f, "relational error: {e}"),
            P2pError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            P2pError::GroundTruth { template, claimed } => write!(
                f,
                "generated database breaks its ground truth: template {template} \
                 {} by construction but {} by exact evaluation",
                if *claimed { "matches" } else { "misses" },
                if *claimed { "misses" } else { "matches" },
            ),
        }
    }
}

impl std::error::Error for P2pError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            P2pError::Summary(e) => Some(e),
            P2pError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<saintetiq::SummaryError> for P2pError {
    fn from(e: saintetiq::SummaryError) -> Self {
        P2pError::Summary(e)
    }
}

impl From<relation::RelationError> for P2pError {
    fn from(e: relation::RelationError) -> Self {
        P2pError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = P2pError::BadConfig("alpha out of range".into());
        assert!(e.to_string().contains("alpha"));
        let e: P2pError = saintetiq::SummaryError::Codec("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
