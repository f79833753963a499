//! Library code of the enclosing workspace: walked.

/// Doubles `x`.
pub fn double(x: u64) -> u64 {
    x * 2
}
