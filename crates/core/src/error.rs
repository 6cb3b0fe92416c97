use crate::MAX_LANES;
use std::error::Error;
use std::fmt;

/// Error produced when constructing or applying a coalescing policy with
/// invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyError {
    /// The requested number of subwarps must divide the warp size for
    /// fixed-sized subwarps (FSS).
    NotADivisor {
        /// Requested number of subwarps.
        num_subwarps: usize,
        /// Warp size it must divide.
        warp_size: usize,
    },
    /// The number of subwarps must be between 1 and the warp size, and
    /// the warp at most [`crate::MAX_LANES`] lanes wide.
    OutOfRange {
        /// Requested number of subwarps.
        num_subwarps: usize,
        /// Warp size bounding the request.
        warp_size: usize,
    },
    /// Subwarp sizes must be positive and sum to the warp size.
    InvalidSizes {
        /// The offending size vector.
        sizes: Vec<usize>,
    },
    /// A block size of zero (or not a power of two) cannot define coalescing
    /// granularity.
    InvalidBlockSize {
        /// The offending block size.
        block_size: u64,
    },
    /// A warp of zero threads cannot be assigned subwarps.
    EmptyWarp,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::NotADivisor {
                num_subwarps,
                warp_size,
            } => write!(
                f,
                "number of subwarps {num_subwarps} does not divide warp size {warp_size}"
            ),
            PolicyError::OutOfRange {
                num_subwarps,
                warp_size,
            } if *warp_size > MAX_LANES && (1..=*warp_size).contains(num_subwarps) => write!(
                f,
                "warp of {warp_size} lanes is wider than the {MAX_LANES}-lane maximum"
            ),
            PolicyError::OutOfRange {
                num_subwarps,
                warp_size,
            } => write!(
                f,
                "number of subwarps {num_subwarps} is outside 1..={warp_size}"
            ),
            PolicyError::InvalidSizes { sizes } => write!(
                f,
                "subwarp sizes {sizes:?} must be positive and sum to the warp size"
            ),
            PolicyError::InvalidBlockSize { block_size } => {
                write!(f, "block size {block_size} is not a positive power of two")
            }
            PolicyError::EmptyWarp => write!(f, "warp has no threads"),
        }
    }
}

impl Error for PolicyError {}

/// Error produced when parsing a [`crate::CoalescingPolicy`] from its
/// textual form (see the `FromStr` implementation for the grammar).
///
/// Carries a human-readable message naming the offending spec, suitable
/// for direct display in CLI errors and scenario-file diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    msg: String,
}

impl ParsePolicyError {
    pub(crate) fn new(msg: String) -> Self {
        ParsePolicyError { msg }
    }
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl Error for ParsePolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            PolicyError::NotADivisor {
                num_subwarps: 3,
                warp_size: 32,
            },
            PolicyError::OutOfRange {
                num_subwarps: 0,
                warp_size: 32,
            },
            PolicyError::OutOfRange {
                num_subwarps: 1,
                warp_size: 65,
            },
            PolicyError::InvalidSizes { sizes: vec![0, 4] },
            PolicyError::InvalidBlockSize { block_size: 0 },
            PolicyError::EmptyWarp,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PolicyError>();
    }
}
