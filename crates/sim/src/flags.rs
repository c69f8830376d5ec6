//! The command line of the workspace's binaries: one reader, and one
//! seed rule.

use std::ffi::OsStr;
use std::str::FromStr;

use crate::parse_seed;

/// A command line, read against what a binary (or one of its
/// subcommands) takes.
///
/// Each binary names what it takes as usage lines: `"--steps N"` is a
/// flag that takes a value, `"--json"` one that takes none, and
/// `"<PINS>"` a positional argument the command line must give.
/// [`Flags::new`] refuses an unknown flag, a stray argument, a flag
/// given twice, a flag without its value and a missing positional, and
/// the readers refuse a value that does not parse: each exits 2 naming
/// the flag.  A binary reads all of its flags before it runs anything,
/// so a refused command line does nothing.
#[derive(Debug)]
pub struct Flags {
    program: String,
    takes: &'static [&'static str],
    /// Each flag and positional given, in order, with its value.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Reads this process's command line against `takes`.
    #[must_use]
    pub fn from_env(takes: &'static [&'static str]) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::new(program, &args.collect::<Vec<_>>(), takes)
    }

    /// Reads `args` against `takes`.  `program` names the command in
    /// refusals: the binary, or the binary and its subcommand.  A
    /// refused line exits 2 with the refusal and the usage.
    #[must_use]
    pub fn new(
        program: impl Into<String>,
        args: &[String],
        takes: &'static [&'static str],
    ) -> Self {
        let mut flags = Flags {
            program: program.into(),
            takes,
            given: Vec::new(),
        };
        if let Err(refusal) = flags.read(args) {
            flags.refuse(&refusal);
        }
        flags
    }

    /// Pairs each flag in `args` with its value, and fills the
    /// positionals in the order `takes` declares them.
    fn read(&mut self, args: &[String]) -> Result<(), String> {
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                let slot = self
                    .open_positional()
                    .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
                self.given.push((slot.to_owned(), Some(arg.clone())));
                continue;
            }
            let usage = self
                .takes
                .iter()
                .find(|usage| name_of(usage) == arg)
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            if self.is_given(arg) {
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
        match self.open_positional() {
            Some(missing) => Err(format!("missing {missing}")),
            None => Ok(()),
        }
    }

    /// The first positional this command takes that is not yet given.
    fn open_positional(&self) -> Option<&'static str> {
        self.takes
            .iter()
            .copied()
            .find(|usage| usage.starts_with('<') && !self.is_given(usage))
    }

    fn is_given(&self, name: &str) -> bool {
        self.given.iter().any(|(given, _)| given == name)
    }

    /// Prints `refusal` and the usage, and exits 2.  A binary refuses
    /// a value it checks itself, such as a count that must be at least
    /// 1, through this too.
    pub fn refuse(&self, refusal: &str) -> ! {
        eprintln!("{}: {refusal}", self.program);
        let usage: String = self
            .takes
            .iter()
            .map(|usage| {
                if usage.starts_with('<') {
                    format!(" {usage}")
                } else {
                    format!(" [{usage}]")
                }
            })
            .collect();
        eprintln!("usage: {}{usage}", self.program);
        std::process::exit(2)
    }

    /// Whether `flag` was given, and the value after it if it took one.
    ///
    /// # Panics
    ///
    /// Panics when `flag` is not among the flags the command takes.
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

    /// The value after `flag`, read by `parse`, or `None` when the flag
    /// is absent.  A value that does not parse exits 2 naming the flag.
    #[must_use]
    pub fn get<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        self.value(flag, parse)
            .unwrap_or_else(|refusal| self.refuse(&refusal))
    }

    /// The value after `flag` as a `T`, or `default` when the flag is
    /// absent.  A value that does not parse exits 2 naming the flag.
    #[must_use]
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag, |value| value.parse().ok())
            .unwrap_or(default)
    }

    /// The run's seed: `--seed`, then the `AFTA_SEED` environment
    /// variable, then `default`, each read by [`parse_seed`] (decimal or
    /// `0x`-hex).  A malformed `--seed` exits 2 naming it, and so does
    /// a malformed `AFTA_SEED` when no `--seed` is given.
    #[must_use]
    pub fn seed(&self, default: u64) -> u64 {
        self.seed_from(std::env::var_os("AFTA_SEED").as_deref(), default)
            .unwrap_or_else(|refusal| self.refuse(&refusal))
    }

    /// [`Flags::seed`], with `env` as the value of `AFTA_SEED`.
    fn seed_from(&self, env: Option<&OsStr>, default: u64) -> Result<u64, String> {
        if let Some(seed) = self.value("--seed", parse_seed)? {
            return Ok(seed);
        }
        env.map_or(Ok(default), |text| {
            text.to_str()
                .and_then(parse_seed)
                .ok_or_else(|| format!("AFTA_SEED: {text:?} does not parse"))
        })
    }

    /// The value after `flag`, if it was given one.
    #[must_use]
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.lookup(flag).flatten()
    }

    /// The positional `name` (its usage line, such as `"<PINS>"`),
    /// which every accepted command line gives.
    #[must_use]
    pub fn positional(&self, name: &str) -> &str {
        self.text(name)
            .expect("the reader refuses a missing positional")
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.lookup(flag).is_some()
    }
}

/// The flag a usage line names: `"--steps"` of `"--steps N"`.
fn name_of(usage: &str) -> &str {
    usage.split_once(' ').map_or(usage, |(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAKES: &[&str] = &["--steps N", "--seed N", "--json"];

    fn parse_with(takes: &'static [&'static str], line: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            program: "bin".into(),
            takes,
            given: Vec::new(),
        };
        let args: Vec<String> = line.iter().map(|&a| a.to_owned()).collect();
        flags.read(&args).map(|()| flags)
    }

    fn parse(line: &[&str]) -> Result<Flags, String> {
        parse_with(TAKES, line)
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
        // A misspelt flag does not fall back to the default.
        assert_eq!(
            parse(&["--stpes", "1000"]).unwrap_err(),
            "unknown flag \"--stpes\""
        );
        assert_eq!(parse(&["-h"]).unwrap_err(), "unknown flag \"-h\"");
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
    fn positionals_are_filled_in_order_wherever_they_stand() {
        const CHECK: &[&str] = &["<PINS>", "--bench PATH", "<OUT>"];
        let flags = parse_with(CHECK, &["--bench", "b.json", "pins.toml", "out"]).unwrap();
        assert_eq!(flags.positional("<PINS>"), "pins.toml");
        assert_eq!(flags.positional("<OUT>"), "out");
        assert_eq!(flags.text("--bench"), Some("b.json"));
        assert_eq!(
            parse_with(CHECK, &["pins.toml"]).unwrap_err(),
            "missing <OUT>"
        );
        assert_eq!(
            parse_with(CHECK, &["pins.toml", "out", "more"]).unwrap_err(),
            "unexpected argument \"more\""
        );
        // A flag's value is never taken for a positional.
        assert_eq!(
            parse_with(CHECK, &["--bench", "pins.toml"]).unwrap_err(),
            "missing <PINS>"
        );
    }

    #[test]
    fn the_seed_is_the_flag_then_afta_seed_then_the_default() {
        let env = |text: &str| Some(OsStr::new(text).to_owned());
        let none = parse(&[]).unwrap();
        assert_eq!(none.seed_from(None, 42), Ok(42));
        assert_eq!(none.seed_from(env(" 0x2b\n").as_deref(), 42), Ok(43));
        // A malformed AFTA_SEED is refused by name, not read as the
        // default.
        for bad in ["zz", "", "0x", "-1"] {
            assert_eq!(
                none.seed_from(env(bad).as_deref(), 42),
                Err(format!("AFTA_SEED: {bad:?} does not parse"))
            );
        }
        // `--seed` wins, and a malformed AFTA_SEED beside it is not read.
        let flagged = parse(&["--seed", "7"]).unwrap();
        assert_eq!(flagged.seed_from(env("zz").as_deref(), 42), Ok(7));
        let bad = parse(&["--seed", "0xZZ"]).unwrap();
        assert_eq!(
            bad.seed_from(env("43").as_deref(), 42),
            Err("--seed: \"0xZZ\" does not parse".into())
        );
    }

    #[test]
    #[should_panic(expected = "--jobs is not among the flags bin takes")]
    fn reading_a_flag_the_binary_does_not_take_is_a_bug() {
        let _ = parse(&[]).unwrap().num("--jobs", 1_usize);
    }
}
