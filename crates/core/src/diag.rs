//! Structured configuration diagnostics.
//!
//! The inputs from outside the program — a [`SimConfig`](crate::SimConfig)
//! and the engine and policy names the CLI parses — report problems as
//! [`Diagnostic`] values instead of panicking. A diagnostic carries a stable
//! machine-readable code (`E0004`, …), the configuration field it refers
//! to, a human-readable message, and a hint suggesting a fix. Every
//! diagnostic is an error: the configuration cannot be simulated
//! faithfully. Hardware-structure constructors take Table 3 constants and
//! assert their geometry instead.
//!
//! The code table is documented in the repository README.

use std::fmt;

/// One structured finding about a configuration.
///
/// # Example
///
/// ```
/// use smt_core::SimConfig;
///
/// let cfg = SimConfig { fetch_buffer: 2, ..SimConfig::default() };
/// let diags = cfg.validate();
/// assert!(diags[0].to_string().starts_with("error[E0005]"));
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
    pub(crate) fn error(
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
        let d = Diagnostic::error("E0006", "ftq_depth", "zero depth", "use 4");
        assert_eq!(
            d.to_string(),
            "error[E0006] ftq_depth: zero depth (hint: use 4)"
        );
    }
}
