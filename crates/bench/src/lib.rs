//! # afta-bench — experiment regenerators and benchmarks
//!
//! One binary per figure/table of the paper (see DESIGN.md's
//! per-experiment index) plus Criterion micro-benchmarks:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig2_lshw` | Fig. 2 — `lshw`-style memory introspection |
//! | `table_memaccess` | §3.1 — method selection table per memory profile |
//! | `fig4_watchdog` | Fig. 4 — watchdog + alpha-count trace |
//! | `fig5_dtof` | Fig. 5 — distance-to-failure examples, n = 7 |
//! | `fig6_adaptation` | Fig. 6 — disturbance vs redundancy time series |
//! | `fig7_histogram` | Fig. 7 — redundancy dwell-time histogram |
//! | `table_clash` | §3.2 — the e1/e2 clash table |
//! | `campaign_65m` | §3.3 — the paper-scale 65M-step run as a parallel campaign |
//!
//! Run e.g. `cargo run -p afta-bench --release --bin fig7_histogram -- --steps 65000000`.
//! The §3.3 binaries accept `--jobs N` to fan campaign shards over N
//! worker threads; the merged results are bit-identical for every N.
//! Every binary but `bench_snapshot` reads its command line through
//! [`Flags`], which refuses a flag the binary does not take.

#![forbid(unsafe_code)]

use std::str::FromStr;

use afta_sim::parse_seed;

/// A binary's command line, read against the flags the binary takes.
///
/// Each binary names its flags as usage lines: `"--steps N"` takes a
/// value and `"--json"` takes none.  [`Flags::from_env`] refuses an
/// unknown flag, a stray argument, a flag given twice and a flag
/// without its value, and the readers refuse a value that does not
/// parse: each exits 2 naming the flag.  A binary reads all of its
/// flags before it runs anything, so a refused command line does
/// nothing.
#[derive(Debug)]
pub struct Flags {
    program: String,
    takes: &'static [&'static str],
    /// Each flag given, in order, with its value.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Reads this process's command line against `takes`; a refused
    /// line exits 2 with the refusal and the binary's usage.
    #[must_use]
    pub fn from_env(takes: &'static [&'static str]) -> Self {
        let mut args = std::env::args();
        let mut flags = Flags {
            program: args.next().unwrap_or_default(),
            takes,
            given: Vec::new(),
        };
        let args: Vec<String> = args.collect();
        if let Err(refusal) = flags.read(&args) {
            flags.refuse(&refusal);
        }
        flags
    }

    /// Pairs each flag in `args` (the program name left out) with its
    /// value.
    fn read(&mut self, args: &[String]) -> Result<(), String> {
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(usage) = self.takes.iter().find(|usage| name_of(usage) == arg) else {
                return Err(if arg.starts_with("--") {
                    format!("unknown flag {arg:?}")
                } else {
                    format!("unexpected argument {arg:?}")
                });
            };
            if self.given.iter().any(|(flag, _)| flag == arg) {
                return Err(format!("{arg} is given twice"));
            }
            let value = if usage.contains(' ') {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                Some(value.clone())
            } else {
                None
            };
            self.given.push((arg.clone(), value));
        }
        Ok(())
    }

    /// Prints `refusal` and the usage, and exits 2.
    fn refuse(&self, refusal: &str) -> ! {
        eprintln!("{}: {refusal}", self.program);
        let usage: String = self.takes.iter().map(|u| format!(" [{u}]")).collect();
        eprintln!("usage: {}{usage}", self.program);
        std::process::exit(2)
    }

    /// Whether `flag` was given, and the value after it if it took one.
    ///
    /// # Panics
    ///
    /// Panics when `flag` is not among the flags the binary takes.
    fn lookup(&self, flag: &str) -> Option<Option<&str>> {
        assert!(
            self.takes.iter().any(|usage| name_of(usage) == flag),
            "{flag} is not among the flags {} takes",
            self.program
        );
        self.given
            .iter()
            .find(|(given, _)| given == flag)
            .map(|(_, value)| value.as_deref())
    }

    /// The value after `flag`, read by `parse`: `Ok(None)` when the flag
    /// is absent, an error naming it when the value does not parse.
    fn value<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<T>, String> {
        match self.lookup(flag).flatten() {
            None => Ok(None),
            Some(value) => parse(value)
                .map(Some)
                .ok_or_else(|| format!("{flag}: {value:?} does not parse")),
        }
    }

    /// The value after `flag` as a `T`, or `default` when the flag is
    /// absent.  A value that does not parse exits 2 naming the flag.
    #[must_use]
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag, |value| value.parse().ok())
            .unwrap_or_else(|refusal| self.refuse(&refusal))
            .unwrap_or(default)
    }

    /// The run's seed: `--seed`, then the `AFTA_SEED` environment
    /// variable, then `default`, each read by [`parse_seed`] (decimal or
    /// `0x`-hex).  A malformed `--seed` exits 2; an unset or malformed
    /// `AFTA_SEED` gives `default`.
    #[must_use]
    pub fn seed(&self, default: u64) -> u64 {
        self.value("--seed", parse_seed)
            .unwrap_or_else(|refusal| self.refuse(&refusal))
            .or_else(|| {
                std::env::var("AFTA_SEED")
                    .ok()
                    .as_deref()
                    .and_then(parse_seed)
            })
            .unwrap_or(default)
    }

    /// The value after `flag`, if it was given one.
    #[must_use]
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.lookup(flag).flatten()
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.lookup(flag).is_some()
    }
}

/// Parses a `--flag value` style string argument from the command line,
/// returning `default` when absent.  Only `bench_snapshot` reads its
/// command line this way, without refusing unknown or repeated flags:
/// its gated `voting_round` ratio moves with the binary's code
/// placement, so its parser stays as it is.
#[must_use]
pub fn arg_str(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_owned())
}

/// The flag a usage line names: `"--steps"` of `"--steps N"`.
fn name_of(usage: &str) -> &str {
    usage.split_once(' ').map_or(usage, |(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAKES: &[&str] = &["--steps N", "--seed N", "--json"];

    fn parse(line: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            program: "bin".into(),
            takes: TAKES,
            given: Vec::new(),
        };
        let args: Vec<String> = line.iter().map(|&a| a.to_owned()).collect();
        flags.read(&args).map(|()| flags)
    }

    #[test]
    fn flags_read_values_switches_and_defaults() {
        let flags = parse(&["--steps", "400000", "--json", "--seed", "0x07"]).unwrap();
        assert_eq!(flags.num("--steps", 1_u64), 400_000);
        assert_eq!(flags.value("--seed", parse_seed), Ok(Some(7)));
        assert_eq!(flags.text("--steps"), Some("400000"));
        assert!(flags.has("--json"));
        let none = parse(&[]).unwrap();
        assert_eq!(none.num("--steps", 42_usize), 42);
        assert!((none.num("--steps", 0.25_f64) - 0.25).abs() < 1e-12);
        assert!(!none.has("--json"));
        assert_eq!(none.text("--seed"), None);
    }

    #[test]
    fn flags_refuse_unknown_repeated_stray_and_valueless_flags_by_name() {
        // A misspelt flag no longer falls back to the default.
        assert_eq!(
            parse(&["--stpes", "1000"]).unwrap_err(),
            "unknown flag \"--stpes\""
        );
        // Nor does the first of two win.
        assert_eq!(
            parse(&["--steps", "1000", "--steps", "400000"]).unwrap_err(),
            "--steps is given twice"
        );
        assert_eq!(
            parse(&["--json", "--json"]).unwrap_err(),
            "--json is given twice"
        );
        // A switch takes no value, so one after it is a stray argument.
        assert_eq!(
            parse(&["--json", "yes"]).unwrap_err(),
            "unexpected argument \"yes\""
        );
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        // A value that does not parse is refused when read.
        let flags = parse(&["--seed", "seven", "--steps", "-3"]).unwrap();
        let refusal = flags.value("--seed", parse_seed).unwrap_err();
        assert!(
            refusal.contains("--seed") && refusal.contains("seven"),
            "{refusal}"
        );
        assert_eq!(
            flags.value("--steps", |v| v.parse::<u64>().ok()),
            Err("--steps: \"-3\" does not parse".into())
        );
    }

    #[test]
    fn arg_str_defaults_when_missing() {
        assert_eq!(arg_str("--definitely-not-passed", "both"), "both");
    }

    #[test]
    #[should_panic(expected = "--jobs is not among the flags bin takes")]
    fn reading_a_flag_the_binary_does_not_take_is_a_bug() {
        let _ = parse(&[]).unwrap().num("--jobs", 1_usize);
    }
}
