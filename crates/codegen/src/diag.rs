//! Diagnostics engine for simtlint (see [`crate::lint`]).
//!
//! Mirrors a compiler's diagnostic stream: each finding has a severity, a
//! stable machine-readable code, the plan region it anchors to, and a
//! human-readable message. `Remark`s record optimizations applied (e.g.
//! SPMD-ization promotions) the way `-Rpass` remarks do in LLVM.

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An optimization or noteworthy fact, not a problem.
    Remark,
    /// Legal but guaranteed-suboptimal or degenerate (e.g. staging that
    /// always takes the global fallback, zero-trip loops).
    Warning,
    /// A plan that is illegal or would misbehave at runtime;
    /// `CompiledKernel::run` refuses to launch on these.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Remark => write!(f, "remark"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One simtlint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `E-NEST`, `W-FALLBACK`,
    /// `R-SPMDIZE`).
    pub code: &'static str,
    /// Which part of the plan the finding anchors to (e.g. `teams`,
    /// `parallel #0`).
    pub region: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}] {}: {}", self.severity, self.code, self.region, self.message)
    }
}

/// The full diagnostic stream for one compiled kernel.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, in plan-walk order.
    pub diags: Vec<Diagnostic>,
}

impl LintReport {
    /// Append a finding.
    pub fn push(
        &mut self,
        severity: Severity,
        code: &'static str,
        region: String,
        message: String,
    ) {
        self.diags.push(Diagnostic { severity, code, region, message });
    }

    /// Whether any `Error`-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether any `Warning`-severity finding is present.
    pub fn has_warnings(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Warning)
    }

    /// Count findings of one severity.
    pub fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }

    /// All findings carrying a given code.
    pub fn with_code<'a>(&'a self, code: &str) -> impl Iterator<Item = &'a Diagnostic> {
        let code = code.to_string();
        self.diags.iter().filter(move |d| d.code == code)
    }

    /// No findings at all (remarks included).
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Render a human-readable report for a kernel called `name`.
    pub fn render(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simtlint: {name}: {} error(s), {} warning(s), {} remark(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Remark),
        );
        for d in &self.diags {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_counts() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Remark);
        let mut r = LintReport::default();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        r.push(Severity::Remark, "R-SPMDIZE", "parallel #0".into(), "promoted".into());
        r.push(Severity::Warning, "W-FALLBACK", "parallel #1".into(), "stages via global".into());
        assert!(!r.has_errors());
        assert!(r.has_warnings());
        r.push(Severity::Error, "E-NEST", "parallel #2".into(), "double distribution".into());
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.with_code("W-FALLBACK").count(), 1);
        let text = r.render("k");
        assert!(text.contains("1 error(s)"));
        assert!(text.contains("error [E-NEST] parallel #2: double distribution"));
    }
}
