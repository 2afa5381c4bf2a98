//! The structured diagnostics ("lint") model shared by `cuba lint`,
//! this crate's model analysis, and the `boolprog` frontend passes.
//!
//! A [`Lint`] is plain data: a stable kebab-case code, a severity, a
//! message, and an optional 1-based source position (meaningful for
//! `.bp` inputs, absent for textual CPDS models). Rendering — human
//! text or JSON — is left to the consumer so this crate stays free of
//! serialization concerns.

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Informational: worth knowing, never actionable on its own.
    Note,
    /// Suspicious: almost certainly dead weight or a spec mistake.
    Warn,
    /// Definite error: `cuba lint` exits non-zero when any is present.
    Deny,
}

impl std::fmt::Display for LintLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintLevel::Note => write!(f, "note"),
            LintLevel::Warn => write!(f, "warn"),
            LintLevel::Deny => write!(f, "deny"),
        }
    }
}

/// One machine-readable diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable kebab-case identifier (`dead-transition`, …).
    pub code: &'static str,
    /// Severity.
    pub level: LintLevel,
    /// Human-readable description of the finding.
    pub message: String,
    /// 1-based source line, when the model came from a `.bp` file.
    pub line: Option<usize>,
    /// 1-based source column, when the model came from a `.bp` file.
    pub col: Option<usize>,
}

impl Lint {
    /// A lint without a source position.
    pub fn new(code: &'static str, level: LintLevel, message: impl Into<String>) -> Self {
        Lint {
            code,
            level,
            message: message.into(),
            line: None,
            col: None,
        }
    }

    /// Attaches a 1-based source position.
    pub fn with_span(mut self, line: usize, col: usize) -> Self {
        self.line = Some(line);
        self.col = Some(col);
        self
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.level, self.code)?;
        if let (Some(line), Some(col)) = (self.line, self.col) {
            write!(f, " {line}:{col}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_severity() {
        assert!(LintLevel::Note < LintLevel::Warn);
        assert!(LintLevel::Warn < LintLevel::Deny);
    }

    #[test]
    fn display_includes_span_when_present() {
        let plain = Lint::new("dead-transition", LintLevel::Warn, "never fires");
        assert_eq!(plain.to_string(), "warn[dead-transition]: never fires");
        let spanned =
            Lint::new("write-only-variable", LintLevel::Warn, "g never read").with_span(3, 7);
        assert_eq!(
            spanned.to_string(),
            "warn[write-only-variable] 3:7: g never read"
        );
    }
}
