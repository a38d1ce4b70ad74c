//! Minimal dependency-free flag parser for the `sos` CLI.
//!
//! Supports `--flag value` and `--flag=value` forms, collects free
//! (positional) arguments, and reports unknown or missing flags with
//! actionable messages. Kept deliberately small: the CLI surface is a
//! handful of typed flags, which does not justify an argument-parsing
//! dependency (see DESIGN.md's dependency budget).

use std::collections::HashMap;
use std::fmt;

/// A parse or validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: positionals plus `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
    /// Flags that were consumed by a typed getter (for unknown-flag
    /// reporting).
    consumed: std::cell::RefCell<Vec<String>>,
}

impl ParsedArgs {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for a `--flag` at the end of the line with
    /// no value, or a repeated flag.
    pub fn parse<I, S>(args: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                let (key, value) = if let Some((k, v)) = stripped.split_once('=') {
                    (k.to_string(), v.to_string())
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("flag --{stripped} expects a value")))?;
                    (stripped.to_string(), value)
                };
                if out.flags.insert(key.clone(), value).is_some() {
                    return Err(ArgError(format!("flag --{key} given twice")));
                }
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// The positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Raw string flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(key.to_string());
        self.flags.get(key).map(String::as_str)
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse as `T`.
    pub fn get_or<T>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr,
        T::Err: fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|e| ArgError(format!("flag --{key}: cannot parse {raw:?}: {e}"))),
        }
    }

    /// Errors if any provided flag was never consumed by a getter —
    /// catches typos like `--tirals`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first unknown flag.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        for key in self.flags.keys() {
            if !consumed.iter().any(|c| c == key) {
                return Err(ArgError(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_positionals() {
        let a = ParsedArgs::parse(["figure", "--layers", "3", "--pe=0.2"]).unwrap();
        assert_eq!(a.positionals(), ["figure"]);
        assert_eq!(a.get("layers"), Some("3"));
        assert_eq!(a.get("pe"), Some("0.2"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn typed_defaults() {
        let a = ParsedArgs::parse(["--trials", "50"]).unwrap();
        assert_eq!(a.get_or("trials", 10u64).unwrap(), 50);
        assert_eq!(a.get_or("routes", 10u64).unwrap(), 10);
        assert!(a.get_or::<u64>("trials", 0).is_ok());
    }

    #[test]
    fn bad_value_reported() {
        let a = ParsedArgs::parse(["--trials", "many"]).unwrap();
        let err = a.get_or("trials", 10u64).unwrap_err();
        assert!(err.to_string().contains("--trials"));
    }

    #[test]
    fn missing_value_reported() {
        let err = ParsedArgs::parse(["--layers"]).unwrap_err();
        assert!(err.to_string().contains("--layers"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        let err = ParsedArgs::parse(["--a", "1", "--a", "2"]).unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn unknown_flags_detected() {
        let a = ParsedArgs::parse(["--known", "1", "--typo", "2"]).unwrap();
        let _ = a.get("known");
        let err = a.reject_unknown().unwrap_err();
        assert!(err.to_string().contains("--typo"));
        let _ = a.get("typo");
        assert!(a.reject_unknown().is_ok());
    }
}
