//! Library code of the enclosing workspace: walked and linted.

#![forbid(unsafe_code)]

/// Doubles `x`.
pub fn double(x: u64) -> u64 {
    x * 2
}
