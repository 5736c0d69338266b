//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positional subcommand + `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: Option<String>,
    options: HashMap<String, String>,
}

/// Options that are boolean switches: present means on, no value token.
const BOOL_FLAGS: &[&str] = &["verbose"];

impl Args {
    /// Parses argv (without the program name).
    ///
    /// Every `--key` must be followed by a value, except the boolean
    /// switches in [`BOOL_FLAGS`] (e.g. `--verbose`), which take none;
    /// unknown keys are kept (validation is per-command).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = if BOOL_FLAGS.contains(&key) {
                    "1".to_string()
                } else {
                    it.next().ok_or_else(|| format!("--{key} expects a value"))?.clone()
                };
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(format!("--{key} given twice"));
                }
            } else if out.command.is_none() {
                out.command = Some(tok.clone());
            } else {
                return Err(format!("unexpected positional argument {tok:?}"));
            }
        }
        Ok(out)
    }

    /// Whether a boolean switch (see [`BOOL_FLAGS`]) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Optional parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Fails on the first option (in name order) that is not in `known`,
    /// so a flag the command does not read is an error, not a no-op.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.options.keys().filter(|k| !known.contains(&k.as_str())).min() {
            Some(key) => Err(format!("unknown option --{key} (known: --{})", known.join(", --"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(&argv(&["cluster", "--clusters", "7", "--data", "/tmp/x"])).unwrap();
        assert_eq!(a.command.as_deref(), Some("cluster"));
        assert_eq!(a.require("data").unwrap(), "/tmp/x");
        assert_eq!(a.get_parsed::<usize>("clusters", 0).unwrap(), 7);
        assert_eq!(a.get_parsed("seed", 5u64).unwrap(), 5);
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Args::parse(&argv(&["x", "--flag"])).is_err());
        assert!(Args::parse(&argv(&["x", "--a", "1", "--a", "2"])).is_err());
        assert!(Args::parse(&argv(&["x", "y"])).is_err());
    }

    #[test]
    fn missing_required_reported() {
        let a = Args::parse(&argv(&["info"])).unwrap();
        assert!(a.require("data").unwrap_err().contains("--data"));
    }

    #[test]
    fn bad_parse_reported() {
        let a = Args::parse(&argv(&["x", "--n", "abc"])).unwrap();
        assert!(a.get_parsed::<usize>("n", 0).is_err());
    }

    #[test]
    fn unknown_options_rejected_by_name() {
        let a = Args::parse(&argv(&["cluster", "--data", "d", "--zeta", "1", "--alpha", "2"])).unwrap();
        assert!(a.reject_unknown(&["data", "zeta", "alpha"]).is_ok());
        let err = a.reject_unknown(&["data"]).unwrap_err();
        assert!(err.starts_with("unknown option --alpha "), "got {err:?}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(&argv(&["cluster", "--verbose", "--clusters", "3"])).unwrap();
        assert!(a.flag("verbose"));
        assert_eq!(a.get_parsed::<usize>("clusters", 0).unwrap(), 3);
        let b = Args::parse(&argv(&["cluster", "--clusters", "3"])).unwrap();
        assert!(!b.flag("verbose"));
        // Trailing boolean flag needs no value either.
        assert!(Args::parse(&argv(&["cluster", "--verbose"])).is_ok());
    }
}
