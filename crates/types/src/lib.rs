//! # exspan-types
//!
//! Foundation types shared by every crate in the ExSPAN workspace:
//!
//! * [`Value`] — the dynamically-typed attribute values carried by network
//!   tuples (node addresses, integers, interned strings, `Arc`-shared lists,
//!   raw digests).
//! * [`Tuple`] — a located relational tuple, the unit of state and of
//!   communication in a declarative network.  Its relation is an interned
//!   [`RelId`]; resolve it with [`Tuple::relation_name`].
//! * [`Symbol`] / [`RelId`] — the workspace-wide string interner behind the
//!   hot path: `Copy` handles with pointer equality and content ordering
//!   (see [`symbol`] for why that combination keeps the figures
//!   byte-identical).
//! * [`NodeId`] — the address of a node in the simulated network.
//! * [`Vid`] / [`Rid`] — provenance vertex identifiers: SHA-1 digests of tuple
//!   contents and of rule-execution instances respectively (paper §4.1).
//! * [`sha1`] — a from-scratch SHA-1 implementation (no external dependency),
//!   used solely to derive collision-resistant vertex identifiers.
//! * [`wire`] — the byte-size model used for all bandwidth accounting in the
//!   evaluation harness.  Interning does not change any wire size: the model
//!   always charged a fixed-width relation id per tuple and content-length
//!   bytes per string value.
//! * [`compress`] — the dictionary wire codec behind the opt-in compressed
//!   accounting mode and the serve protocol's compressed result bodies:
//!   first occurrence of a string/VID in a message is sent inline and
//!   assigned a varint id, repeats cost the id alone.
//! * [`fasthash`] — a small multiplicative [`std::hash::Hasher`] for
//!   in-memory maps on hot paths whose keys are not attacker-chosen.

pub mod compress;
pub mod fasthash;
pub mod sha1;
pub mod symbol;
pub mod tuple;
pub mod value;
pub mod wire;

pub use sha1::{sha1_digest, Digest};
pub use symbol::{RelId, Symbol};
pub use tuple::{NodeId, Rid, Schema, Tuple, TupleKey, Vid};
pub use value::Value;

/// Convenience result alias used across the workspace for fallible operations
/// that report a human-readable error message.
pub type Result<T> = std::result::Result<T, Error>;

/// Error type shared by the foundation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A value had a different runtime type than the operation required.
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it actually got, rendered for display.
        found: String,
    },
    /// A tuple did not match the arity or shape its schema requires.
    SchemaViolation(String),
    /// A generic error with a message.
    Other(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            Error::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_readable() {
        let e = Error::TypeMismatch {
            expected: "int",
            found: "string(\"x\")".into(),
        };
        assert!(e.to_string().contains("expected int"));
        let e = Error::SchemaViolation("arity 3 != 2".into());
        assert!(e.to_string().contains("schema violation"));
        let e = Error::Other("boom".into());
        assert_eq!(e.to_string(), "boom");
    }
}
