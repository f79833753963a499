//! A small dependency-free command-line argument parser for the
//! `simulate` binary.
//!
//! Supports `--key value` and `--key=value` pairs plus `--flag` booleans;
//! unknown keys, and value keys given without a value, are errors so
//! typos do not silently fall back to defaults.

use std::collections::BTreeMap;
use std::fmt;

/// Error produced when parsing command-line arguments fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Key order matters to [`Args::reject_unknown`]'s error message, so
    /// the map is a `BTreeMap`: the first unknown key reported is always
    /// the alphabetically first, not whichever a hasher happens to yield.
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Keys read so far, each with whether it was read as a value.
    consumed: std::cell::RefCell<Vec<(String, bool)>>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error for positional arguments or a trailing key with
    /// no value.
    pub fn parse<I, S>(raw: I) -> Result<Args, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ParseArgsError(format!("unexpected positional argument '{arg}'")));
            };
            if let Some((k, v)) = key.split_once('=') {
                values.insert(k.to_string(), v.to_string());
            } else if iter.peek().is_some_and(|n| !n.starts_with("--")) {
                #[expect(clippy::expect_used, reason = "`peek` just returned an argument")]
                let v = iter.next().expect("peeked");
                values.insert(key.to_string(), v);
            } else {
                flags.push(key.to_string());
            }
        }
        Ok(Args { values, flags, consumed: std::cell::RefCell::new(Vec::new()) })
    }

    /// String value for `key`, or `default`.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.consumed.borrow_mut().push((key.to_string(), true));
        self.values.get(key).map_or(default, String::as_str)
    }

    /// Parsed numeric value for `key`, or `default`.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but unparsable.
    pub fn get_num<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        self.consumed.borrow_mut().push((key.to_string(), true));
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ParseArgsError(format!("--{key}: cannot parse '{v}'")))
            }
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.consumed.borrow_mut().push((key.to_string(), false));
        self.flags.iter().any(|f| f == key)
    }

    /// After reading every expected key, rejects leftovers (typo guard)
    /// and value keys given as bare flags (`--jobs` with no number).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first value key given without a value,
    /// else the first unrecognized key.
    pub fn reject_unknown(&self) -> Result<(), ParseArgsError> {
        let consumed = self.consumed.borrow();
        for key in &self.flags {
            if consumed.iter().any(|(c, wants_value)| c == key && *wants_value) {
                return Err(ParseArgsError(format!("--{key} needs a value")));
            }
        }
        for key in self.values.keys().chain(self.flags.iter()) {
            if !consumed.iter().any(|(c, _)| c == key) {
                return Err(ParseArgsError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(["--cores", "4", "--scheme=ucp", "--quick"]).unwrap();
        assert_eq!(a.get_or("scheme", "lru"), "ucp");
        assert_eq!(a.get_num("cores", 1usize).unwrap(), 4);
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
        a.reject_unknown().unwrap();
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a.get_or("scheme", "lru"), "lru");
        assert_eq!(a.get_num("cores", 2usize).unwrap(), 2);
    }

    #[test]
    fn positional_rejected() {
        let err = Args::parse(["oops"]).unwrap_err();
        assert!(err.to_string().contains("positional"));
    }

    #[test]
    fn bad_number_rejected() {
        let a = Args::parse(["--cores", "banana"]).unwrap();
        assert!(a.get_num("cores", 1usize).is_err());
    }

    #[test]
    fn unknown_key_rejected() {
        let a = Args::parse(["--corse", "4"]).unwrap();
        let _ = a.get_num("cores", 1usize);
        let err = a.reject_unknown().unwrap_err();
        assert!(err.to_string().contains("corse"));
    }

    #[test]
    fn value_key_without_value_rejected() {
        for raw in [&["--jobs"][..], &["--cores", "--scheme", "nucache"]] {
            let a = Args::parse(raw.iter().copied()).unwrap();
            let _ = a.get_num("jobs", 0usize);
            let _ = a.get_num("cores", 2usize);
            let _ = a.get_or("scheme", "lru");
            let err = a.reject_unknown().unwrap_err().to_string();
            assert_eq!(err, format!("{} needs a value", raw[0]));
        }
    }

    #[test]
    fn trailing_key_becomes_flag() {
        let a = Args::parse(["--quick", "--cores", "2"]).unwrap();
        assert!(a.flag("quick"));
        assert_eq!(a.get_num("cores", 0usize).unwrap(), 2);
    }
}
