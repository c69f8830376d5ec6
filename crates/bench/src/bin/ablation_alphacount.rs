//! Ablation A2: the alpha-count decay factor K and the windowed variant.
//!
//! The §3.2 oracle's discrimination quality hinges on K: a fast-forgetting
//! filter (small K) never mislabels sparse transients but takes longer to
//! convict an intermittent fault; a slow-forgetting one (large K) flips
//! fast but false-positives on transient bursts.  The sweep measures, per
//! K and per fault pattern:
//!
//! * **flip latency** — rounds from fault onset to the
//!   permanent-or-intermittent verdict (∞ = never);
//! * **false positive** — whether a *transient-only* workload ever gets
//!   convicted.
//!
//! Flags: `--rounds N` (default 2000).

use afta_alphacount::windowed::WindowedCount;
use afta_alphacount::{AlphaCount, DecayPolicy, Judgment, Verdict};
use afta_bench::arg;

/// A fault pattern: does round `i` (0-based, counted from onset) err?
#[derive(Clone, Copy)]
struct Pattern {
    name: &'static str,
    onset: u64,
    errs: fn(u64) -> bool,
}

const PATTERNS: [Pattern; 3] = [
    Pattern {
        name: "permanent (every round)",
        onset: 100,
        errs: |_| true,
    },
    Pattern {
        name: "intermittent (1 in 2)",
        onset: 100,
        errs: |i| i % 2 == 0,
    },
    Pattern {
        name: "sparse transients (1 in 25)",
        onset: 0,
        errs: |i| i % 25 == 0,
    },
];

fn judge(pattern: &Pattern, round: u64) -> Judgment {
    if round >= pattern.onset && (pattern.errs)(round - pattern.onset) {
        Judgment::Erroneous
    } else {
        Judgment::Correct
    }
}

fn flip_latency(
    mut record: impl FnMut(Judgment) -> Verdict,
    pattern: &Pattern,
    rounds: u64,
) -> Option<u64> {
    for round in 0..rounds {
        if record(judge(pattern, round)) == Verdict::PermanentOrIntermittent {
            return Some(round.saturating_sub(pattern.onset) + 1);
        }
    }
    None
}

fn fmt_latency(l: Option<u64>) -> String {
    l.map_or_else(|| "never".to_owned(), |v| format!("{v}"))
}

fn main() {
    let rounds = arg::<u64>("--rounds", 2_000);

    println!("alpha-count decay sweep, threshold 3.0, {rounds} rounds per cell\n");
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "pattern / K =", "0.1", "0.3", "0.5", "0.7", "0.9", "window 10/4"
    );
    for pattern in &PATTERNS {
        let mut cells = Vec::new();
        for k in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let mut ac = AlphaCount::new(1.0, 3.0, DecayPolicy::Multiplicative(k));
            cells.push(fmt_latency(flip_latency(|j| ac.record(j), pattern, rounds)));
        }
        let mut wc = WindowedCount::new(10, 4);
        let windowed = fmt_latency(flip_latency(|j| wc.record(j), pattern, rounds));
        println!(
            "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
            pattern.name, cells[0], cells[1], cells[2], cells[3], cells[4], windowed
        );
    }

    println!(
        "\nreading: rows 1-2 should flip fast (small latency = quick reconfiguration); \
         row 3 should read `never` (a conviction there is a false positive that would \
         waste a spare on a transient).  The paper's K = 0.5 convicts permanents in 4 \
         rounds while never convicting sparse transients — the windowed 10/4 variant \
         trades one extra round of latency for sharper forgetting."
    );
}
