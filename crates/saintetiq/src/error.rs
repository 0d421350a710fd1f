//! Error type for the summarization engine.

use std::fmt;

/// Errors raised by mapping, summarization, merging or wire coding.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryError {
    /// The background knowledge has no vocabulary for a schema attribute
    /// that was requested for summarization.
    UnmappedAttribute(String),
    /// A BK attribute is missing from the relation schema.
    MissingColumn(String),
    /// A numeric BK attribute maps to a non-numeric column or vice versa.
    KindMismatch {
        /// The mismatched attribute.
        attribute: String,
    },
    /// Two summaries built from different background knowledge (different
    /// name or arity) cannot be merged or compared.
    IncompatibleBk {
        /// BK name of the left summary.
        left: String,
        /// BK name of the right summary.
        right: String,
    },
    /// A flattened contribution was offered for a source other than the
    /// one it was flattened for.
    ForeignSource {
        /// The source the contribution was offered for.
        source: u32,
        /// The source it was flattened for.
        flattened_for: u32,
    },
    /// Wire decoding failed.
    Codec(String),
    /// A value fell outside every label of its vocabulary (BK does not
    /// cover the domain).
    Unmappable {
        /// The attribute whose vocabulary rejected the value.
        attribute: String,
        /// Rendering of the unmappable value.
        value: String,
    },
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::UnmappedAttribute(a) => {
                write!(f, "background knowledge has no vocabulary for `{a}`")
            }
            SummaryError::MissingColumn(a) => {
                write!(f, "relation schema has no column for BK attribute `{a}`")
            }
            SummaryError::KindMismatch { attribute } => {
                write!(f, "BK/schema kind mismatch on `{attribute}`")
            }
            SummaryError::IncompatibleBk { left, right } => {
                write!(
                    f,
                    "incompatible background knowledge: `{left}` vs `{right}`"
                )
            }
            SummaryError::ForeignSource {
                source,
                flattened_for,
            } => write!(
                f,
                "contribution flattened for source {flattened_for} offered for source {source}"
            ),
            SummaryError::Codec(msg) => write!(f, "summary codec error: {msg}"),
            SummaryError::Unmappable { attribute, value } => {
                write!(f, "value `{value}` of `{attribute}` matches no BK label")
            }
        }
    }
}

impl std::error::Error for SummaryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_context() {
        let e = SummaryError::Unmappable {
            attribute: "age".into(),
            value: "999".into(),
        };
        assert!(e.to_string().contains("age"));
        assert!(e.to_string().contains("999"));
    }
}
