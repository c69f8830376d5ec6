//! Strict command-line parsing: every flag is required exactly once and
//! every value must parse, otherwise the benchmark exits non-zero before
//! doing any work.

use std::fmt;

/// The workloads the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop through `ServerCore::enqueue` + `pump`, no sockets.
    ServeInproc,
    /// Open loop at a fixed rate over one loopback TCP connection.
    ServePaced,
    /// Closed loop with a deep window over one loopback TCP connection.
    ServeFlood,
    /// The Fig. 7 campaign (E6).
    CampaignFig7,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeInproc,
        Workload::ServePaced,
        Workload::ServeFlood,
        Workload::CampaignFig7,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeInproc => "serve_inproc",
            Workload::ServePaced => "serve_paced",
            Workload::ServeFlood => "serve_flood",
            Workload::CampaignFig7 => "campaign_fig7",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A validated command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds (1..=600).
    pub seconds: u64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The usage line printed with every refusal.
pub const USAGE: &str =
    "usage: perfbench --workload serve_inproc|serve_paced|serve_flood|campaign_fig7 \
--seed N --seconds N --trace 0|1";

fn parse_u64(flag: &str, value: &str) -> Result<u64, ArgError> {
    // `u64::from_str` alone accepts a leading `+`; digits only.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ArgError(format!(
            "{flag}: `{value}` is not a decimal number"
        )));
    }
    value
        .parse()
        .map_err(|_| ArgError(format!("{flag}: `{value}` does not fit in 64 bits")))
}

/// Parses `--workload W --seed N --seconds N --trace 0|1` (any order).
///
/// # Errors
///
/// An unknown or repeated flag, a missing flag or value, an unknown
/// workload, or a malformed number.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| ArgError(format!("{flag}: missing value")))?;
        let repeated = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::parse(&value)
                        .ok_or_else(|| ArgError(format!("unknown workload `{value}`")))?,
                )
                .is_some(),
            "--seed" => seed.replace(parse_u64(&flag, &value)?).is_some(),
            "--seconds" => {
                let s = parse_u64(&flag, &value)?;
                if !(1..=600).contains(&s) {
                    return Err(ArgError(format!("--seconds: {s} is outside 1..=600")));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError(format!("--trace: `{value}` is not 0 or 1"))),
                };
                trace.replace(t).is_some()
            }
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        };
        if repeated {
            return Err(ArgError(format!("{flag} given twice")));
        }
    }
    let missing = |name: &str| ArgError(format!("{name} is required"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_a_full_command_line_in_any_order() {
        let a = parse(argv(
            "--trace 1 --seed 7 --workload serve_flood --seconds 3",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeFlood,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn refuses_malformed_input() {
        for bad in [
            "--workload serve_flood --seed 7x --seconds 3 --trace 0",
            "--workload serve_flood --seed +7 --seconds 3 --trace 0",
            "--workload serve_flood --seed -1 --seconds 3 --trace 0",
            "--workload serve_flood --seed 99999999999999999999 --seconds 3 --trace 0",
            "--workload nope --seed 7 --seconds 3 --trace 0",
            "--workload serve_flood --seed 7 --seconds 0 --trace 0",
            "--workload serve_flood --seed 7 --seconds 3 --trace 2",
            "--workload serve_flood --seed 7 --seconds 3",
            "--workload serve_flood --seed 7 --seed 8 --seconds 3 --trace 0",
            "--workload serve_flood --seed 7 --seconds 3 --trace 0 --extra 1",
            "--workload serve_flood --seed",
        ] {
            assert!(parse(argv(bad)).is_err(), "accepted: {bad}");
        }
    }
}
