//! Ablation A1: the §3.3 control-law knobs.
//!
//! The paper fixes `lower_after = 1000` and raises "when dtof is
//! critically low" without exploring either choice.  This sweep
//! quantifies the trade-offs: resource efficiency (fraction of time at
//! minimal redundancy) versus dependability (voting failures) versus
//! control churn (adaptations), under a storm-heavy environment.
//!
//! Flags: `--steps N` (default 200000), `--seed N` (default
//! `AFTA_SEED`, else 42).

use afta_bench::{arg, arg_seed};
use afta_switchboard::{ablation_base, sweep_lower_after, sweep_raise_threshold};

fn main() {
    let steps = arg::<u64>("--steps", 200_000);
    let seed = arg_seed(42);
    let base = ablation_base(steps, seed);

    println!("environment: cyclic storms (8k calm / 600 @ p=0.08), {steps} steps, seed {seed}\n");

    println!("--- lower_after sweep (paper value: 1000) ---");
    println!(
        "{:>12} {:>16} {:>16} {:>13}",
        "lower_after", "% at min (r=3)", "voting failures", "adaptations"
    );
    for p in sweep_lower_after(&base, &[50, 200, 1_000, 5_000, 20_000]) {
        println!(
            "{:>12} {:>15.3}% {:>16} {:>13}",
            p.parameter,
            100.0 * p.fraction_at_min,
            p.voting_failures,
            p.adaptations
        );
    }

    println!("\n--- raise_threshold sweep (paper: raise when dtof critically low) ---");
    println!(
        "{:>15} {:>16} {:>16} {:>13}",
        "raise_threshold", "% at min (r=3)", "voting failures", "adaptations"
    );
    for p in sweep_raise_threshold(&base, &[0, 1, 2]) {
        println!(
            "{:>15} {:>15.3}% {:>16} {:>13}",
            p.parameter,
            100.0 * p.fraction_at_min,
            p.voting_failures,
            p.adaptations
        );
    }

    println!(
        "\nreading: lower_after trades efficiency (short quota = more time at r=3) against \
         exposure to back-to-back storms; raise_threshold 0 waits for an actual voting \
         failure before growing — the clash the scheme exists to avoid."
    );
}
