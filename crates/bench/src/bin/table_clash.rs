//! E7/E8 (§3.2): the clash table.  Static redoing (`e1`) livelocks under
//! permanent faults; static reconfiguration (`e2`) wastes spares under
//! transient faults; the adaptive alpha-count manager avoids both.
//!
//! Flags: `--rounds N` (default 1000), `--seed N` (default `AFTA_SEED`,
//! else 42).

use afta_bench::{arg, arg_seed};
use afta_ftpatterns::{run_clash_table, ScenarioConfig};

fn main() {
    let rounds = arg::<u64>("--rounds", 1000);
    let seed = arg_seed(42);
    let config = ScenarioConfig {
        rounds,
        seed,
        ..ScenarioConfig::default()
    };

    println!(
        "{:<38} {:<26} {:>9} {:>9} {:>8} {:>7} {:>10}  clash",
        "strategy", "environment", "ok", "failed", "retries", "spares", "livelocks"
    );
    for r in run_clash_table(config) {
        let mut tags = Vec::new();
        if r.shows_livelock() && r.livelocks > r.rounds / 20 {
            tags.push("e1 LIVELOCK");
        }
        if r.shows_waste() {
            tags.push("e2 WASTE");
        }
        println!(
            "{:<38} {:<26} {:>9} {:>9} {:>8} {:>7} {:>10}  {}",
            r.strategy.to_string(),
            r.environment.to_string(),
            r.successes,
            r.failures,
            r.retries,
            r.spares_consumed,
            r.livelocks,
            tags.join(" + ")
        );
    }
    println!(
        "\npaper §3.2: a clash of e1 implies a livelock; a clash of e2 implies unnecessary \
         expenditure of resources; the adaptive strategy (alpha-count -> DAG injection) \
         \"always [uses] the most appropriate design pattern\"."
    );
}
