//! Unified access to the `CMPSIM_*` environment variables.
//!
//! Every knob the workspace reads from the environment goes through
//! this module, so malformed values produce one consistent, typed
//! [`EnvError`] instead of being silently ignored (a mistyped
//! `CMPSIM_THREADS=fast` used to fall back to the default without a
//! word). Call sites that can propagate errors use [`parsed`] /
//! [`positive`]; constructors that cannot return a `Result` use
//! [`parsed_or_warn`], which keeps the old lenient behaviour but prints
//! a warning instead of staying quiet.
//!
//! The full table of recognized variables lives in the README
//! ("Environment variables"); the constants below are the single point
//! of truth for the names.

use std::fmt;
use std::str::FromStr;

/// `CMPSIM_THREADS` — sweep worker-pool size (integer ≥ 1).
pub const THREADS: &str = "CMPSIM_THREADS";
/// `CMPSIM_FAULTS` — fault-injection plan (`recoverable[@seed]` / `chaos[@seed]`).
pub const FAULTS: &str = "CMPSIM_FAULTS";
/// `CMPSIM_DUMP_DIR` — directory crash/replay artifacts are written to.
pub const DUMP_DIR: &str = "CMPSIM_DUMP_DIR";
/// `CMPSIM_TRACE` — any value enables the tail debug log near a stall.
pub const TRACE: &str = "CMPSIM_TRACE";
/// `CMPSIM_TRACE_BLOCK` — block address whose messages are debug-logged.
pub const TRACE_BLOCK: &str = "CMPSIM_TRACE_BLOCK";
/// `CMPSIM_BENCH_DIR` — criterion-shim artifact directory (read by the
/// standalone `criterion` shim crate, listed here for completeness).
pub const BENCH_DIR: &str = "CMPSIM_BENCH_DIR";

/// A malformed environment-variable value. Carries the variable name,
/// the offending value and what was expected, so every consumer reports
/// the same actionable one-liner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable that failed to parse.
    pub var: &'static str,
    /// The value found in the environment.
    pub value: String,
    /// Human description of the expected syntax.
    pub expected: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad {} value {:?} (want {})", self.var, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

/// The raw string value; `None` when the variable is unset, empty, or
/// not valid UTF-8.
pub fn string(var: &'static str) -> Option<String> {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => Some(v),
        _ => None,
    }
}

/// True when the variable is set to anything at all (presence flag —
/// `CMPSIM_TRACE=0` still counts, matching the historical behaviour).
pub fn flag(var: &'static str) -> bool {
    std::env::var_os(var).is_some()
}

/// Parses the variable with `T::from_str`. `Ok(None)` when unset or
/// blank; a typed [`EnvError`] when set but malformed.
pub fn parsed<T: FromStr>(var: &'static str, expected: &str) -> Result<Option<T>, EnvError> {
    match string(var) {
        None => Ok(None),
        Some(v) => match v.trim().parse::<T>() {
            Ok(t) => Ok(Some(t)),
            Err(_) => Err(EnvError { var, value: v, expected: expected.to_string() }),
        },
    }
}

/// As [`parsed`] with the extra constraint that the value is an integer
/// ≥ 1 (worker counts, budgets).
pub fn positive(var: &'static str) -> Result<Option<usize>, EnvError> {
    match parsed::<usize>(var, "an integer >= 1")? {
        Some(0) => Err(EnvError {
            var,
            value: "0".to_string(),
            expected: "an integer >= 1".to_string(),
        }),
        other => Ok(other),
    }
}

/// Lenient variant for constructors that cannot return a `Result`: a
/// malformed value is dropped like before, but with a one-line warning
/// on stderr instead of silence.
pub fn parsed_or_warn<T: FromStr>(var: &'static str, expected: &str) -> Option<T> {
    match parsed(var, expected) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("warning: {e}; ignoring");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; each test uses its own unique
    // variable name so parallel test threads cannot race.

    #[test]
    fn unset_is_none() {
        assert_eq!(parsed::<u64>("CMPSIM_TEST_UNSET", "an integer").unwrap(), None);
        assert!(string("CMPSIM_TEST_UNSET").is_none());
        assert!(!flag("CMPSIM_TEST_UNSET"));
    }

    #[test]
    fn well_formed_parses() {
        std::env::set_var("CMPSIM_TEST_WF", "42");
        assert_eq!(parsed::<u64>("CMPSIM_TEST_WF", "an integer").unwrap(), Some(42));
        std::env::remove_var("CMPSIM_TEST_WF");
    }

    #[test]
    fn malformed_is_typed_error() {
        std::env::set_var("CMPSIM_TEST_BAD", "fast");
        let e = parsed::<u64>("CMPSIM_TEST_BAD", "an integer >= 1").unwrap_err();
        assert_eq!(e.var, "CMPSIM_TEST_BAD");
        assert_eq!(e.value, "fast");
        assert!(e.to_string().contains("bad CMPSIM_TEST_BAD value"));
        std::env::remove_var("CMPSIM_TEST_BAD");
    }

    #[test]
    fn zero_rejected_by_positive() {
        std::env::set_var("CMPSIM_TEST_ZERO", "0");
        assert!(positive("CMPSIM_TEST_ZERO").is_err());
        std::env::remove_var("CMPSIM_TEST_ZERO");
    }

    #[test]
    fn blank_is_none() {
        std::env::set_var("CMPSIM_TEST_BLANK", "   ");
        assert_eq!(parsed::<u64>("CMPSIM_TEST_BLANK", "an integer").unwrap(), None);
        std::env::remove_var("CMPSIM_TEST_BLANK");
    }
}
