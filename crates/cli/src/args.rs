//! A small `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ArgError {}

/// Parsed `--flag value` pairs, with typed accessors that consume flags so
/// leftovers can be reported as errors.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `--flag value` pairs from raw arguments.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, flags without values, and repeated
    /// flags.
    pub fn parse(raw: &[String]) -> Result<Args, ArgError> {
        let mut values = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument `{token}` (flags are --name value)"
                )));
            };
            let Some(value) = it.next() else {
                return Err(ArgError(format!("flag --{name} is missing a value")));
            };
            if values.insert(name.to_owned(), value.clone()).is_some() {
                return Err(ArgError(format!("flag --{name} given twice")));
            }
        }
        Ok(Args { values })
    }

    /// Removes and returns a flag's raw value.
    pub fn take(&mut self, name: &str) -> Option<String> {
        self.values.remove(name)
    }

    /// Removes and parses a flag, or returns `default`.
    ///
    /// # Errors
    ///
    /// Reports unparsable values with the flag name.
    pub fn take_or<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.take_opt(name)?.unwrap_or(default))
    }

    /// Removes and parses an optional flag.
    ///
    /// # Errors
    ///
    /// Reports unparsable values with the flag name.
    pub fn take_opt<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        match self.values.remove(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| ArgError(format!("invalid value for --{name}: {e}"))),
        }
    }

    /// Re-serializes the remaining flags as raw `--flag value` tokens
    /// (used by `sweep` to re-parse the shared flags per point).
    #[must_use]
    pub fn to_raw(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.values.len() * 2);
        for (k, v) in &self.values {
            out.push(format!("--{k}"));
            out.push(v.clone());
        }
        out
    }

    /// Errors if any flags were not consumed (catches typos).
    ///
    /// # Errors
    ///
    /// Lists the unrecognized flags.
    pub fn finish(self) -> Result<(), ArgError> {
        if self.values.is_empty() {
            Ok(())
        } else {
            let names: Vec<String> = self.values.keys().map(|k| format!("--{k}")).collect();
            Err(ArgError(format!("unknown flags: {}", names.join(", "))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_flag_pairs() {
        let mut a = Args::parse(&raw(&["--sites", "6", "--policy", "lert"])).unwrap();
        assert_eq!(a.take_or("sites", 0usize).unwrap(), 6);
        assert_eq!(a.take("policy").as_deref(), Some("lert"));
        a.finish().unwrap();
    }

    #[test]
    fn defaults_apply_when_absent() {
        let mut a = Args::parse(&raw(&[])).unwrap();
        assert_eq!(a.take_or("mpl", 20u32).unwrap(), 20);
        assert_eq!(a.take_opt::<f64>("think").unwrap(), None);
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse(&raw(&["oops"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Args::parse(&raw(&["--sites"])).is_err());
    }

    #[test]
    fn rejects_duplicate() {
        assert!(Args::parse(&raw(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn rejects_bad_parse() {
        let mut a = Args::parse(&raw(&["--sites", "many"])).unwrap();
        assert!(a.take_or("sites", 0usize).is_err());
    }

    #[test]
    fn finish_reports_leftovers() {
        let a = Args::parse(&raw(&["--bogus", "1"])).unwrap();
        let err = a.finish().unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }
}
