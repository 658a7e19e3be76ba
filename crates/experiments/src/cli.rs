//! Minimal `--key value` argument parsing for the experiment binaries.
//!
//! Every experiment accepts overrides for its scale parameters (module
//! count, rows sampled, trial count, seed) so the paper-scale sweep can
//! be requested explicitly while the default run finishes in seconds.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::fleet::{FailureMode, FleetPolicy};

/// Keys that are value-less boolean flags rather than `--key value`
/// pairs.
const FLAG_KEYS: &[&str] = &["fail-fast", "keep-going", "shutdown", "no-fault"];

/// The usage banner a binary registered via [`Args::usage`], kept so
/// [`Args::reject_unknown`] can reprint it when a typo is detected.
#[derive(Debug, Clone, Default)]
struct UsageBanner {
    name: String,
    description: String,
    params: Vec<(String, String)>,
}

/// Parsed command-line arguments: `--key value` pairs, boolean flags,
/// plus a `--help` flag.
///
/// Every accessor records the key it consumed; [`Args::reject_unknown`]
/// then fails the process on any argument that was neither consumed nor
/// declared in the usage table — a typo like `--job 8` must not
/// silently run the default configuration.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: BTreeSet<String>,
    help: bool,
    consumed: RefCell<BTreeSet<String>>,
    banner: RefCell<UsageBanner>,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics (with a clear message) on a dangling `--key` without a
    /// value or a positional argument.
    pub fn parse() -> Self {
        Args::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable entry point).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Args::parse`].
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = BTreeMap::new();
        let mut flags = BTreeSet::new();
        let mut help = false;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                help = true;
                continue;
            }
            let key = arg
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("unexpected positional argument {arg:?}"));
            if FLAG_KEYS.contains(&key) {
                flags.insert(key.to_string());
                continue;
            }
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("--{key} requires a value"));
            values.insert(key.to_string(), value);
        }
        Args {
            values,
            flags,
            help,
            consumed: RefCell::new(BTreeSet::new()),
            banner: RefCell::new(UsageBanner::default()),
        }
    }

    /// Whether `--help` was passed.
    pub fn wants_help(&self) -> bool {
        self.help
    }

    fn consume(&self, key: &str) {
        self.consumed.borrow_mut().insert(key.to_string());
    }

    /// Keys that were passed on the command line but never consumed by
    /// an accessor nor declared in the usage table — typos, or flags
    /// meant for a different binary.
    pub fn unknown_keys(&self) -> Vec<String> {
        let consumed = self.consumed.borrow();
        let banner = self.banner.borrow();
        self.values
            .keys()
            .chain(self.flags.iter())
            .filter(|key| !consumed.contains(*key) && !banner.params.iter().any(|(k, _)| k == *key))
            .cloned()
            .collect()
    }

    /// Fails the process (exit status 2, help text on stderr) when any
    /// argument was never read — call this after the binary has pulled
    /// all its parameters. Without it, `--intrajobs 4` would silently
    /// run the default config.
    pub fn reject_unknown(&self) {
        let unknown = self.unknown_keys();
        if unknown.is_empty() {
            return;
        }
        let banner = self.banner.borrow();
        for key in &unknown {
            eprintln!("error: unknown argument --{key}");
        }
        if banner.name.is_empty() {
            eprintln!("(run with --help for usage)");
        } else {
            eprintln!("\n{} — {}\n", banner.name, banner.description);
            eprintln!("options:");
            for (key, what) in &banner.params {
                eprintln!("  --{key:<14} {what}");
            }
        }
        std::process::exit(2);
    }

    /// Reads a scaled integer for `key`, exiting with status 2 and a
    /// named error on a malformed value — population-scale counts are
    /// typed by hand (`--dies 2M`), and a typo must not silently run
    /// the default configuration or dump a panic backtrace.
    fn scaled(&self, key: &str, default: u64) -> u64 {
        self.consume(key);
        match self.values.get(key) {
            Some(v) => match parse_scaled(v) {
                Ok(n) => n,
                Err(why) => {
                    eprintln!(
                        "error: --{key} expects an integer (k/M/G suffixes allowed), \
                         got {v:?}: {why}"
                    );
                    std::process::exit(2);
                }
            },
            None => default,
        }
    }

    /// Integer parameter with a default. Accepts `k`/`M`/`G` scale
    /// suffixes (`--dies 2M` = 2,000,000); exits with status 2 on a
    /// malformed value.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.scaled(key, default as u64) as usize
    }

    /// `u64` parameter with a default. Accepts `k`/`M`/`G` scale
    /// suffixes; exits with status 2 on a malformed value.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.scaled(key, default)
    }

    /// String parameter, if present.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.consume(key);
        self.values.get(key).map(String::as_str)
    }

    /// Worker thread count for the experiment fleet: `--jobs N`
    /// (default: all available cores; `--jobs 1` reproduces serial
    /// execution).
    ///
    /// # Panics
    ///
    /// Panics when the value does not parse or is zero.
    pub fn jobs(&self) -> usize {
        let jobs = self.usize(
            "jobs",
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        );
        assert!(jobs > 0, "--jobs must be at least 1");
        jobs
    }

    /// Structured results dump path: `--json PATH`.
    pub fn json_path(&self) -> Option<&str> {
        self.str("json")
    }

    /// Whether a boolean flag (e.g. `--keep-going`) was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.consume(key);
        self.flags.contains(key)
    }

    /// Fleet failure policy: `--fail-fast` (default) stops claiming new
    /// tasks after the first failure; `--keep-going` completes the rest
    /// of the plan and reports the failures. `--retries N` re-runs a
    /// failing task up to `N` more times with a perturbed seed before
    /// recording the failure.
    ///
    /// # Panics
    ///
    /// Panics when both `--fail-fast` and `--keep-going` are passed.
    pub fn failure_policy(&self) -> FleetPolicy {
        assert!(
            !(self.flag("fail-fast") && self.flag("keep-going")),
            "--fail-fast and --keep-going are mutually exclusive"
        );
        let mode = if self.flag("keep-going") {
            FailureMode::KeepGoing
        } else {
            FailureMode::FailFast
        };
        let retries = self.usize("retries", 0) as u32;
        FleetPolicy { mode, retries }
    }

    /// Float parameter with a default.
    ///
    /// # Panics
    ///
    /// Panics when the value does not parse.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.consume(key);
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}")),
            None => default,
        }
    }

    /// Prints a standard usage banner and returns `true` when the caller
    /// should exit (i.e. `--help` was requested).
    pub fn usage(&self, name: &str, description: &str, params: &[(&str, &str)]) -> bool {
        *self.banner.borrow_mut() = UsageBanner {
            name: name.to_string(),
            description: description.to_string(),
            params: params
                .iter()
                .map(|(k, w)| (k.to_string(), w.to_string()))
                .collect(),
        };
        if !self.help {
            return false;
        }
        println!("{name} — {description}\n");
        println!("options:");
        for (key, what) in params {
            println!("  --{key:<14} {what}");
        }
        true
    }
}

/// Parses a non-negative integer with an optional metric scale suffix:
/// `k`/`K` ×10³, `m`/`M` ×10⁶, `g`/`G` ×10⁹ — so population-scale runs
/// read naturally (`--dies 2M`, `--chunk 50k`).
///
/// # Errors
///
/// Returns a human-readable description of what was malformed: an
/// unknown suffix letter, missing digits, a non-integer mantissa, or a
/// scaled value that overflows `u64`.
pub fn parse_scaled(v: &str) -> Result<u64, String> {
    let (digits, scale) = match v.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let scale = match c {
                'k' | 'K' => 1_000u64,
                'm' | 'M' => 1_000_000,
                'g' | 'G' => 1_000_000_000,
                _ => return Err(format!("unknown scale suffix {c:?} (use k, M, or G)")),
            };
            (&v[..i], scale)
        }
        _ => (v, 1),
    };
    if digits.is_empty() {
        return Err("missing digits before the scale suffix".to_string());
    }
    let base: u64 = digits
        .parse()
        .map_err(|_| format!("{digits:?} is not an unsigned integer"))?;
    base.checked_mul(scale)
        .ok_or_else(|| format!("{v:?} overflows a 64-bit count"))
}

/// Reports a failed `--json PATH` dump on stderr and exits with status
/// 1, so an unwritable path yields a named error instead of a panic
/// backtrace.
pub fn exit_json_write_error(path: &str, err: &std::io::Error) -> ! {
    eprintln!("error: could not write --json dump to {path}: {err}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_iter(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = args(&["--chips", "4", "--trials", "100"]);
        assert_eq!(a.usize("chips", 1), 4);
        assert_eq!(a.usize("trials", 1), 100);
        assert_eq!(a.usize("rows", 7), 7, "default when absent");
        assert!(!a.wants_help());
    }

    #[test]
    fn parses_help() {
        assert!(args(&["--help"]).wants_help());
        assert!(args(&["-h"]).wants_help());
    }

    #[test]
    fn u64_and_f64() {
        let a = args(&["--seed", "99", "--alpha", "0.5"]);
        assert_eq!(a.u64("seed", 1), 99);
        assert_eq!(a.f64("alpha", 0.0), 0.5);
    }

    #[test]
    fn jobs_and_json() {
        let a = args(&["--jobs", "4", "--json", "out.json"]);
        assert_eq!(a.jobs(), 4);
        assert_eq!(a.json_path(), Some("out.json"));
        let d = args(&[]);
        assert!(d.jobs() >= 1, "default jobs from core count");
        assert_eq!(d.json_path(), None);
        assert_eq!(d.str("missing"), None);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_jobs_panics() {
        args(&["--jobs", "0"]).jobs();
    }

    #[test]
    fn failure_policy_flags() {
        let d = args(&[]);
        assert_eq!(d.failure_policy(), FleetPolicy::fail_fast());
        let k = args(&["--keep-going", "--retries", "2"]);
        assert!(k.flag("keep-going"));
        assert_eq!(
            k.failure_policy(),
            FleetPolicy::keep_going().with_retries(2)
        );
        let f = args(&["--fail-fast"]);
        assert_eq!(f.failure_policy().mode, FailureMode::FailFast);
        // Flags take no value: a following pair still parses.
        let mixed = args(&["--keep-going", "--jobs", "3"]);
        assert_eq!(mixed.jobs(), 3);
        assert!(mixed.flag("keep-going"));
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn conflicting_policy_flags_panic() {
        args(&["--fail-fast", "--keep-going"]).failure_policy();
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn dangling_key_panics() {
        args(&["--chips"]);
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn positional_panics() {
        args(&["chips"]);
    }

    // A malformed integer exits the process with status 2 (via
    // `scaled`), which a unit test cannot catch in-process — the
    // parser itself is exercised here, and the exit path is covered by
    // the `population_stream` integration test spawning a real binary.
    #[test]
    fn scale_suffixes_parse() {
        assert_eq!(parse_scaled("0"), Ok(0));
        assert_eq!(parse_scaled("1234"), Ok(1234));
        assert_eq!(parse_scaled("50k"), Ok(50_000));
        assert_eq!(parse_scaled("50K"), Ok(50_000));
        assert_eq!(parse_scaled("2M"), Ok(2_000_000));
        assert_eq!(parse_scaled("2m"), Ok(2_000_000));
        assert_eq!(parse_scaled("3G"), Ok(3_000_000_000));
    }

    #[test]
    fn malformed_scale_suffixes_name_the_problem() {
        assert!(parse_scaled("four")
            .unwrap_err()
            .contains("unknown scale suffix"));
        assert!(parse_scaled("2T")
            .unwrap_err()
            .contains("unknown scale suffix"));
        assert!(parse_scaled("4x4")
            .unwrap_err()
            .contains("not an unsigned integer"));
        assert!(parse_scaled("k").unwrap_err().contains("missing digits"));
        assert!(parse_scaled("1.5M")
            .unwrap_err()
            .contains("not an unsigned integer"));
        assert!(parse_scaled("-3k")
            .unwrap_err()
            .contains("not an unsigned integer"));
        assert!(parse_scaled("99999999999999999999G")
            .unwrap_err()
            .contains("not an unsigned integer"));
        assert!(parse_scaled("18446744073709551615k")
            .unwrap_err()
            .contains("overflows"));
    }

    #[test]
    fn suffixed_values_flow_through_accessors() {
        let a = args(&["--dies", "2M", "--chunk", "50k", "--seed", "1k"]);
        assert_eq!(a.usize("dies", 1), 2_000_000);
        assert_eq!(a.usize("chunk", 1), 50_000);
        assert_eq!(a.u64("seed", 0), 1_000);
    }

    /// The typo regression: a `--key value` pair nobody reads must be
    /// reported, not silently ignored.
    #[test]
    fn unread_keys_are_unknown() {
        let a = args(&["--job", "8", "--trials", "5", "--intrajobs", "4"]);
        let _ = a.usize("trials", 1);
        assert_eq!(a.unknown_keys(), vec!["intrajobs", "job"]);
        // Reading the rest clears them.
        let _ = a.usize("job", 1);
        let _ = a.usize("intrajobs", 1);
        assert!(a.unknown_keys().is_empty());
    }

    #[test]
    fn declared_usage_params_count_as_known() {
        let a = args(&["--json", "out.json", "--chips", "2"]);
        let _ = a.usize("chips", 1);
        // `--json` is read late by the binaries; declaring it in the
        // usage table keeps it accepted before that read happens.
        assert_eq!(a.unknown_keys(), vec!["json"]);
        a.usage("unit", "test binary", &[("json", "dump path")]);
        assert!(a.unknown_keys().is_empty());
    }

    #[test]
    fn unconsumed_flags_are_unknown() {
        let a = args(&["--keep-going"]);
        assert_eq!(a.unknown_keys(), vec!["keep-going"]);
        a.failure_policy();
        assert!(a.unknown_keys().is_empty());
    }
}
