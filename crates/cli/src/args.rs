//! Minimal flag parsing (no external dependency): `--flag`, `--key value`.

use std::collections::BTreeMap;
use std::fmt;

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--key` that expects a value was last on the line.
    MissingValue(String),
    /// An argument that is not a recognized flag or positional slot.
    Unknown(String),
    /// A value failed to parse.
    BadValue {
        /// The flag.
        key: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag {k} expects a value"),
            ArgError::Unknown(a) => write!(f, "unknown argument {a:?}"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "flag {key}: expected {expected}, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// A parsed command line: positionals in order, `--key value` options,
/// and bare `--switch` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Parsed {
    /// Positional arguments, in order.
    pub positionals: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Parsed {
    /// Parses `args` given the sets of value-taking option names and
    /// bare switch names (both without the `--` prefix).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for unknown flags or a trailing value-less
    /// option.
    pub fn parse(args: &[&str], options: &[&str], switches: &[&str]) -> Result<Parsed, ArgError> {
        let mut out = Parsed::default();
        let mut it = args.iter();
        while let Some(&arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else if options.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(arg.to_string()))?;
                    out.options.insert(name.to_string(), value.to_string());
                } else {
                    return Err(ArgError::Unknown(arg.to_string()));
                }
            } else {
                out.positionals.push(arg.to_string());
            }
        }
        Ok(out)
    }

    /// The raw value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether bare `--switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Parses `--key`'s value as `T`, or returns `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: format!("--{key}"),
                value: raw.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(args, &["objects", "rate"], &["json", "quiet"])
    }

    #[test]
    fn mixed_arguments() {
        let p = parse(&["pos1", "--objects", "100", "--json", "pos2"]).unwrap();
        assert_eq!(p.positionals, vec!["pos1", "pos2"]);
        assert_eq!(p.get("objects"), Some("100"));
        assert!(p.has("json"));
        assert!(!p.has("quiet"));
        assert_eq!(p.get("rate"), None);
    }

    #[test]
    fn typed_access_with_default() {
        let p = parse(&["--objects", "250"]).unwrap();
        assert_eq!(p.get_parsed("objects", 10u32, "an integer").unwrap(), 250);
        assert_eq!(p.get_parsed("rate", 4.0f64, "a number").unwrap(), 4.0);
    }

    #[test]
    fn errors() {
        assert_eq!(
            parse(&["--objects"]).unwrap_err(),
            ArgError::MissingValue("--objects".into())
        );
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            ArgError::Unknown("--bogus".into())
        );
        let p = parse(&["--objects", "ten"]).unwrap();
        assert!(matches!(
            p.get_parsed("objects", 0u32, "an integer").unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ArgError::MissingValue("--x".into()),
            ArgError::Unknown("y".into()),
            ArgError::BadValue {
                key: "--k".into(),
                value: "v".into(),
                expected: "a number",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
