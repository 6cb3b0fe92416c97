//! Argument parsing helpers for the `rcoal` command-line tool
//! (`src/bin/rcoal-cli.rs`). Kept in the library so the grammar is unit
//! tested.

use rcoal_core::CoalescingPolicy;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Parses a policy spec by delegating to `CoalescingPolicy`'s `FromStr`
/// (which owns the grammar shared by the CLI and scenario files):
///
/// * `baseline`, `disabled`
/// * `fss:M`, `rss:M`, `fss-rts:M`, `rss-rts:M` with `M` the subwarp count
/// * the `Display` form, e.g. `FSS(M=8)` or `RSS(M=4, skewed)`
///
/// # Errors
///
/// Returns a human-readable message for unknown names, missing or
/// malformed subwarp counts, and policy validation failures.
pub fn parse_policy(spec: &str) -> Result<CoalescingPolicy, String> {
    spec.parse::<CoalescingPolicy>().map_err(|e| e.to_string())
}

/// Parses the `--threads` option into an experiment thread count.
///
/// Returns `None` when the flag is absent, which defers the decision to
/// the `RCOAL_THREADS` environment variable and then the machine's
/// available parallelism (see `rcoal_parallel::resolve_threads`).
///
/// # Errors
///
/// Returns a message naming `--threads` for a non-numeric value or `0`
/// (use `--threads 1` for a sequential run).
pub fn parse_threads(args: &ParsedArgs) -> Result<Option<usize>, String> {
    match args.get("threads") {
        None => Ok(None),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("option --threads has invalid value {v:?}"))?;
            if n == 0 {
                return Err(
                    "option --threads must be positive (use --threads 1 for a sequential run)"
                        .into(),
                );
            }
            Ok(Some(n))
        }
    }
}

/// Writes a telemetry artifact (trace JSONL, metrics JSON) to `path`.
///
/// # Errors
///
/// Returns a message naming the path on any I/O failure.
pub fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Extracts `--flag value` pairs and positional arguments from raw args.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options in order of appearance.
    pub options: Vec<(String, String)>,
    /// Option names looked up so far, for [`ParsedArgs::reject_unread`].
    read: RefCell<BTreeSet<String>>,
}

impl ParsedArgs {
    /// Parses raw arguments; every `--flag` must be followed by a value.
    ///
    /// # Errors
    ///
    /// Returns a message naming a trailing flag with no value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("option --{key} needs a value"))?;
                out.options.push((key.to_string(), value));
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Last value given for `key`, if any. Marks `key` as read.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses option `key` as `T`, falling back to `default`.
    ///
    /// # Errors
    ///
    /// Returns a message if the value fails to parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key} has invalid value {v:?}")),
        }
    }

    /// Rejects the first option that no lookup has read. A command
    /// calls this once it has read every option it takes, before doing
    /// any work, so a misspelled or inapplicable option fails loudly
    /// instead of being ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unread option.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self.options.iter().find(|(k, _)| !read.contains(k)) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_core::NumSubwarps;

    #[test]
    fn parses_simple_policies() {
        assert_eq!(parse_policy("baseline"), Ok(CoalescingPolicy::Baseline));
        assert_eq!(parse_policy("BASELINE"), Ok(CoalescingPolicy::Baseline));
        assert_eq!(parse_policy("disabled"), Ok(CoalescingPolicy::Disabled));
        assert_eq!(parse_policy("off"), Ok(CoalescingPolicy::Disabled));
    }

    #[test]
    fn parses_subwarp_policies() {
        assert_eq!(
            parse_policy("fss:8"),
            Ok(CoalescingPolicy::Fss {
                num_subwarps: NumSubwarps::new(8, 32).unwrap()
            })
        );
        assert_eq!(
            parse_policy("rss-rts:4"),
            CoalescingPolicy::rss_rts(4).map_err(|_| String::new())
        );
        assert_eq!(
            parse_policy("FSS+RTS:16"),
            CoalescingPolicy::fss_rts(16).map_err(|_| String::new())
        );
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(parse_policy("fss").unwrap_err().contains("subwarp count"));
        assert!(parse_policy("fss:3").unwrap_err().contains("divide"));
        assert!(parse_policy("fss:x").unwrap_err().contains("invalid"));
        assert!(parse_policy("magic").unwrap_err().contains("unknown"));
        assert!(parse_policy("rss:0").is_err());
        assert!(parse_policy("rss:33").is_err());
    }

    #[test]
    fn parsed_args_splits_flags_and_positionals() {
        let args = ParsedArgs::parse(
            ["attack", "--samples", "200", "--policy", "fss:4", "extra"].map(String::from),
        )
        .unwrap();
        assert_eq!(args.positional, vec!["attack", "extra"]);
        assert_eq!(args.get("samples"), Some("200"));
        assert_eq!(args.get("policy"), Some("fss:4"));
        assert_eq!(args.get("missing"), None);
        assert_eq!(args.get_or("samples", 10usize), Ok(200));
        assert_eq!(args.get_or("seed", 7u64), Ok(7));
        assert!(args.get_or::<usize>("policy", 1).is_err());
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        let err = ParsedArgs::parse(["--samples".to_string()]).unwrap_err();
        assert!(err.contains("--samples"));
    }

    #[test]
    fn threads_flag_parses_and_defaults_to_none() {
        let none = ParsedArgs::parse(["simulate".to_string()]).unwrap();
        assert_eq!(parse_threads(&none), Ok(None));
        let four = ParsedArgs::parse(["--threads", "4"].map(String::from)).unwrap();
        assert_eq!(parse_threads(&four), Ok(Some(4)));
    }

    #[test]
    fn threads_flag_rejects_zero_and_garbage() {
        let zero = ParsedArgs::parse(["--threads", "0"].map(String::from)).unwrap();
        let err = parse_threads(&zero).unwrap_err();
        assert!(err.contains("--threads"), "error names the flag: {err}");
        assert!(err.contains("positive"), "error explains the bound: {err}");
        let junk = ParsedArgs::parse(["--threads", "many"].map(String::from)).unwrap();
        assert!(parse_threads(&junk).unwrap_err().contains("--threads"));
    }

    #[test]
    fn write_artifact_roundtrips_and_names_bad_paths() {
        let path = std::env::temp_dir().join("rcoal-cli-artifact-test.json");
        let path_str = path.to_str().unwrap();
        write_artifact(path_str, "{\"ok\":1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":1}\n");
        std::fs::remove_file(&path).ok();
        let err = write_artifact("/nonexistent-dir/x/y.json", "x").unwrap_err();
        assert!(err.contains("/nonexistent-dir/x/y.json"), "{err}");
    }

    #[test]
    fn unread_options_are_rejected_by_name() {
        let args = ParsedArgs::parse(
            ["attack", "--samples", "40", "--max-sampels", "100"].map(String::from),
        )
        .unwrap();
        assert_eq!(args.get_or("samples", 400usize), Ok(40));
        assert_eq!(args.get("max-samples"), None);
        let err = args.reject_unread().unwrap_err();
        assert!(
            err.contains("--max-sampels"),
            "error names the option: {err}"
        );
        assert_eq!(args.get("max-sampels"), Some("100"));
        assert_eq!(args.reject_unread(), Ok(()), "every option now read");
        let bare = ParsedArgs::parse(["table2".to_string()]).unwrap();
        assert_eq!(bare.reject_unread(), Ok(()));
    }

    #[test]
    fn later_options_override_earlier_ones() {
        let args = ParsedArgs::parse(["--seed", "1", "--seed", "2"].map(String::from)).unwrap();
        assert_eq!(args.get("seed"), Some("2"));
    }
}
