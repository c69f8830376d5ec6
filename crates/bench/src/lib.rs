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

#![forbid(unsafe_code)]

use std::str::FromStr;

use afta_sim::parse_seed;

/// The value after `flag` in `args`, read by `parse`: `Ok(None)` when the
/// flag is absent, and an error naming the flag when no value follows it
/// or the value does not parse.
fn find_arg<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    parse(value)
        .map(Some)
        .ok_or_else(|| format!("{flag}: {value:?} does not parse"))
}

/// [`find_arg`] on this process's command line; a refused flag exits 2
/// with the error.
fn command_line_arg<T>(flag: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    find_arg(&args, flag, parse).unwrap_or_else(|refusal| {
        eprintln!("{}: {refusal}", args[0]);
        std::process::exit(2)
    })
}

/// Parses a `--flag value` style argument from the command line,
/// returning `default` when the flag is absent.  A flag without a value,
/// or a value that does not parse as a `T`, exits 2 naming the flag.
#[must_use]
pub fn arg<T: FromStr>(flag: &str, default: T) -> T {
    command_line_arg(flag, |value| value.parse().ok()).unwrap_or(default)
}

/// The run's seed: `--seed`, then the `AFTA_SEED` environment variable,
/// then `default`, each read by [`parse_seed`] (decimal or `0x`-hex).  A
/// malformed `--seed` exits 2 as [`arg`] does; an unset or malformed
/// `AFTA_SEED` gives `default`.
#[must_use]
pub fn arg_seed(default: u64) -> u64 {
    command_line_arg("--seed", parse_seed)
        .or_else(|| {
            std::env::var("AFTA_SEED")
                .ok()
                .as_deref()
                .and_then(parse_seed)
        })
        .unwrap_or(default)
}

/// Parses a `--flag value` style string argument from the command line,
/// returning `default` when absent.
#[must_use]
pub fn arg_str(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_owned())
}

/// Whether a bare `--flag` is present on the command line.
#[must_use]
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_defaults_when_missing() {
        assert_eq!(arg("--definitely-not-passed", 42_u64), 42);
        assert_eq!(arg("--definitely-not-passed", 7_usize), 7);
        assert!((arg("--definitely-not-passed", 0.25_f64) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn find_arg_refuses_a_missing_or_malformed_value_by_name() {
        let args: Vec<String> = ["bin", "--steps", "400000", "--seed", "seven", "--p"]
            .map(String::from)
            .into();
        let number = |v: &str| v.parse::<u64>().ok();
        assert_eq!(find_arg(&args, "--steps", number), Ok(Some(400_000)));
        assert_eq!(find_arg(&args, "--jobs", number), Ok(None));
        let refusal = find_arg(&args, "--seed", parse_seed).unwrap_err();
        assert!(
            refusal.contains("--seed") && refusal.contains("seven"),
            "{refusal}"
        );
        assert_eq!(
            find_arg(&args, "--p", |v| v.parse::<f64>().ok()),
            Err("--p needs a value".into())
        );
        // A hex seed reads as one.
        let hex: Vec<String> = ["bin", "--seed", "0x07"].map(String::from).into();
        assert_eq!(find_arg(&hex, "--seed", parse_seed), Ok(Some(7)));
    }

    #[test]
    fn has_flag_false_when_missing() {
        assert!(!has_flag("--definitely-not-passed"));
    }

    #[test]
    fn arg_str_defaults_when_missing() {
        assert_eq!(arg_str("--definitely-not-passed", "both"), "both");
    }
}
