//! Codec error type.

use std::fmt;

/// Errors produced while encoding or decoding MRT data.
///
/// Decoding malformed input must *never* panic; every failure mode maps to
/// a variant here.
#[derive(Debug)]
pub enum MrtError {
    /// Input ended before a complete field could be read.
    Truncated {
        /// What was being parsed when the input ran out.
        context: &'static str,
    },
    /// A length field is inconsistent with the surrounding structure.
    BadLength {
        /// What was being parsed.
        context: &'static str,
        /// The offending length value.
        value: usize,
    },
    /// A field holds a value the codec cannot interpret.
    BadValue {
        /// What was being parsed.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The BGP message marker was not all-ones.
    BadMarker,
    /// A value to encode does not fit the wire field that carries it.
    Overflow {
        /// The field being written.
        context: &'static str,
        /// The value that does not fit.
        value: usize,
        /// The largest value the field holds.
        max: usize,
    },
    /// Underlying I/O failure (streaming reader/writer).
    Io(std::io::Error),
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Truncated { context } => write!(f, "truncated input while parsing {context}"),
            MrtError::BadLength { context, value } => {
                write!(f, "inconsistent length {value} while parsing {context}")
            }
            MrtError::BadValue { context, value } => {
                write!(f, "invalid value {value} while parsing {context}")
            }
            MrtError::BadMarker => write!(f, "BGP message marker is not all-ones"),
            MrtError::Overflow {
                context,
                value,
                max,
            } => write!(f, "{context} of {value} exceeds the field's maximum {max}"),
            MrtError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for MrtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrtError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MrtError {
    fn from(e: std::io::Error) -> Self {
        MrtError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = MrtError::Truncated { context: "header" };
        assert!(e.to_string().contains("header"));
        let e = MrtError::BadLength {
            context: "rib entry",
            value: 9,
        };
        assert!(e.to_string().contains('9'));
        let e = MrtError::BadValue {
            context: "afi",
            value: 3,
        };
        assert!(e.to_string().contains("afi"));
        assert!(MrtError::BadMarker.to_string().contains("marker"));
        let e = MrtError::Overflow {
            context: "rib entry count",
            value: 65_536,
            max: 65_535,
        };
        assert!(e.to_string().contains("65536") && e.to_string().contains("65535"));
    }

    #[test]
    fn io_error_wraps_with_source() {
        use std::error::Error;
        let e: MrtError = std::io::Error::other("boom").into();
        assert!(e.source().is_some());
    }
}
