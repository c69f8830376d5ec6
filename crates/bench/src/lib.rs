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
//!
//! Run e.g. `cargo run -p afta-bench --release --bin fig7_histogram --
//! --steps 65000000 --shards 64 --jobs N` for the paper-scale §3.3 run.
//! The §3.3 binaries accept `--jobs N` to fan campaign shards over N
//! worker threads; the merged results are bit-identical for every N.
//! Every binary but `bench_snapshot` reads its command line through
//! [`afta_sim::Flags`], which refuses a flag the binary does not take.

#![forbid(unsafe_code)]

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_str_defaults_when_missing() {
        assert_eq!(arg_str("--definitely-not-passed", "both"), "both");
    }
}
