//! Structured configuration diagnostics.
//!
//! Every structural check in the workspace — branch-predictor geometry,
//! cache shapes, fetch-policy shape — reports problems as [`Diagnostic`]
//! values instead of panicking. A diagnostic carries a stable
//! machine-readable code (`E0001`, …), the configuration field it refers
//! to, a human-readable message, and a hint suggesting a fix. Every
//! diagnostic is an error: the configuration cannot be simulated
//! faithfully.
//!
//! The code table is documented in the repository README.

use std::fmt;

/// One structured finding about a configuration.
///
/// # Example
///
/// ```
/// use smt_isa::Diagnostic;
///
/// let d = Diagnostic::error(
///     "E0001",
///     "gshare_entries",
///     "gshare table has 1000 entries, which is not a power of two",
///     "use 1024",
/// );
/// assert!(d.to_string().starts_with("error[E0001]"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`E0001` …).
    pub code: &'static str,
    /// Dotted path of the offending configuration field.
    pub field: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(
        code: &'static str,
        field: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            field: field.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Replaces the field path — composite structures use this to re-scope
    /// a nested component's finding onto their own configuration field.
    pub fn in_field(mut self, field: impl Into<String>) -> Self {
        self.field = field.into();
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}: {} (hint: {})",
            self.code, self.field, self.message, self.hint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_code_field_and_hint() {
        let d = Diagnostic::error("E0009", "mem.l1i.ways", "zero ways", "use 2");
        assert_eq!(
            d.to_string(),
            "error[E0009] mem.l1i.ways: zero ways (hint: use 2)"
        );
    }
}
