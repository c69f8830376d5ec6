//! The `afta-fuzz` command-line interface.
//!
//! ```text
//! afta-fuzz <COMMAND> [OPTIONS]
//!
//! Commands:
//!   run                       Generate and execute seeded schedules
//!       [--seed HEX|DEC]        master seed (default: AFTA_SEED env, else 0xAF7A)
//!       [--schedules N]         schedule count (default: AFTA_FUZZ_SCHEDULES env, else 25)
//!       [--max-steps M]         virtual steps per schedule (default 28)
//!       [--profile battery|wild]
//!       [--corpus DIR]          also replay the reproducer corpus
//!       [--junit PATH]          write a JUnit XML report
//!       [--out-dir DIR]         where reproducers land (default target/fuzz)
//!   replay <FILE>             Re-run a reproducer; exit 0 iff it still trips
//!   shrink                    Re-find and minimize one schedule's failure
//!       --seed HEX|DEC [--index I] [--max-steps M] [--profile battery|wild]
//!       [--out PATH]
//!
//! Exit codes:
//!   0  every schedule passed / reproducer reproduced
//!   1  an invariant violated / reproducer drifted
//!   2  usage, I/O, or parse error
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use afta_ci::junit::{JunitCase, JunitReport, JunitSuite};
use afta_fuzz::{
    assert_one_minimal, generate, load_corpus, replay_reproducer, run_schedule, shrink, BugFlags,
    Profile, Reproducer, RunConfig, Schedule, DEFAULT_MAX_STEPS,
};
use afta_sim::{parse_seed, SeedFactory};
use afta_telemetry::Registry;

const USAGE: &str = "usage: afta-fuzz <run|replay|shrink> [options]  (see --help)";
const DEFAULT_SEED: u64 = 0xAF7A;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("afta-fuzz: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let Some(command) = args.first() else {
        return Err("no command given".to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => cmd_run(rest),
        "replay" => cmd_replay(rest),
        "shrink" => cmd_shrink(rest),
        "-h" | "--help" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Pulls `--flag VALUE` out of `args`, returning the value if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn parse_profile(text: &str) -> Result<Profile, String> {
    match text {
        "battery" => Ok(Profile::Battery),
        "wild" => Ok(Profile::Wild),
        other => Err(format!("bad profile `{other}` (battery|wild)")),
    }
}

fn master_seed(flag: Option<String>) -> Result<u64, String> {
    let Some(text) = flag.or_else(|| std::env::var("AFTA_SEED").ok()) else {
        return Ok(DEFAULT_SEED);
    };
    parse_seed(&text).ok_or_else(|| format!("bad seed `{}` (decimal or 0x-hex)", text.trim()))
}

fn cmd_run(args: &[String]) -> Result<u8, String> {
    let mut args = args.to_vec();
    let seed = master_seed(take_flag(&mut args, "--seed")?)?;
    let schedules = match take_flag(&mut args, "--schedules")? {
        Some(n) => n
            .parse::<u64>()
            .map_err(|_| "bad --schedules".to_string())?,
        None => std::env::var("AFTA_FUZZ_SCHEDULES")
            .ok()
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or(25),
    };
    let max_steps = match take_flag(&mut args, "--max-steps")? {
        Some(n) => n
            .parse::<u64>()
            .map_err(|_| "bad --max-steps".to_string())?,
        None => DEFAULT_MAX_STEPS,
    };
    let profile = match take_flag(&mut args, "--profile")? {
        Some(p) => parse_profile(&p)?,
        None => Profile::Battery,
    };
    let corpus_dir = take_flag(&mut args, "--corpus")?.map(PathBuf::from);
    let junit_path = take_flag(&mut args, "--junit")?.map(PathBuf::from);
    let out_dir = take_flag(&mut args, "--out-dir")?
        .map_or_else(|| PathBuf::from("target/fuzz"), PathBuf::from);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let cfg = RunConfig::from_env();
    let session = Registry::new();
    let factory = SeedFactory::new(seed);
    let flags = BugFlags::default();

    let mut battery = JunitSuite::new("fuzz.battery");
    let mut failures = 0u64;
    println!(
        "fuzz: master seed 0x{seed:016x}, {schedules} schedules x {max_steps} steps ({profile:?})"
    );
    for index in 0..schedules {
        let schedule_seed = factory.shard_seed(index);
        let schedule = generate(schedule_seed, max_steps, profile);
        let report = run_schedule(&schedule, &flags, &cfg, &session);
        let case_name = format!("schedule-{index}-seed-0x{schedule_seed:016x}");
        if report.passed() {
            battery
                .cases
                .push(JunitCase::pass("fuzz.battery", &case_name));
            continue;
        }
        failures += 1;
        let first = &report.violations[0];
        eprintln!("fuzz: schedule {index} (seed 0x{schedule_seed:016x}) violated {first}");
        let mut details = report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        if let Some(outcome) = shrink(&schedule, first.invariant, &flags, &cfg) {
            let reproducer = Reproducer::from_shrink(&outcome, schedule.events.len());
            std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
            let path = out_dir.join(format!(
                "repro-{}-seed-0x{schedule_seed:016x}.json",
                outcome.violation.invariant
            ));
            std::fs::write(&path, reproducer.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "fuzz: minimized to {} event(s) in {} runs -> {}",
                outcome.minimized.events.len(),
                outcome.runs,
                path.display()
            );
            details.push_str(&format!("\nreproducer: {}", path.display()));
        }
        battery.cases.push(JunitCase::fail(
            "fuzz.battery",
            &case_name,
            &format!("{} (seed 0x{schedule_seed:016x})", first.invariant),
            &details,
        ));
    }

    let mut suites = vec![battery];
    if let Some(dir) = corpus_dir {
        let (suite, corpus_failures) = replay_corpus(&dir, &cfg)?;
        failures += corpus_failures;
        suites.push(suite);
    }

    if let Some(path) = junit_path {
        let report = JunitReport { suites };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        std::fs::write(&path, report.to_xml()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("fuzz: junit -> {}", path.display());
    }

    println!(
        "fuzz: {} schedules, {} violated, counters: schedules={} violations={}",
        schedules,
        failures,
        session.counter("fuzz.schedules").get(),
        session.counter("fuzz.violations").get()
    );
    Ok(u8::from(failures > 0))
}

fn replay_corpus(dir: &Path, cfg: &RunConfig) -> Result<(JunitSuite, u64), String> {
    let mut suite = JunitSuite::new("fuzz.corpus");
    let mut failures = 0u64;
    let entries = load_corpus(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "fuzz: replaying {} corpus entries from {}",
        entries.len(),
        dir.display()
    );
    for (name, reproducer) in entries {
        match replay_reproducer(&reproducer, cfg) {
            Ok(_) => match assert_one_minimal(&reproducer, cfg) {
                Ok(()) => suite.cases.push(JunitCase::pass("fuzz.corpus", &name)),
                Err(err) => {
                    failures += 1;
                    suite.cases.push(JunitCase::fail(
                        "fuzz.corpus",
                        &name,
                        &format!("not 1-minimal (seed {})", reproducer.afta_seed),
                        &err,
                    ));
                }
            },
            Err(err) => {
                failures += 1;
                suite.cases.push(JunitCase::fail(
                    "fuzz.corpus",
                    &name,
                    &format!("drifted (seed {})", reproducer.afta_seed),
                    &err,
                ));
            }
        }
    }
    Ok((suite, failures))
}

fn cmd_replay(args: &[String]) -> Result<u8, String> {
    let [path] = args else {
        return Err("replay takes exactly one reproducer file".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let reproducer = Reproducer::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let cfg = RunConfig::from_env();
    match replay_reproducer(&reproducer, &cfg) {
        Ok(report) => {
            let violation = report
                .violation_of(reproducer.invariant)
                .expect("replay_reproducer verified the violation");
            println!("reproduced: {violation}");
            Ok(0)
        }
        Err(drift) => {
            eprintln!("drifted: {drift}");
            Ok(1)
        }
    }
}

fn cmd_shrink(args: &[String]) -> Result<u8, String> {
    let mut args = args.to_vec();
    let seed = master_seed(take_flag(&mut args, "--seed")?)?;
    let index = match take_flag(&mut args, "--index")? {
        Some(n) => Some(n.parse::<u64>().map_err(|_| "bad --index".to_string())?),
        None => None,
    };
    let max_steps = match take_flag(&mut args, "--max-steps")? {
        Some(n) => n
            .parse::<u64>()
            .map_err(|_| "bad --max-steps".to_string())?,
        None => DEFAULT_MAX_STEPS,
    };
    let profile = match take_flag(&mut args, "--profile")? {
        Some(p) => parse_profile(&p)?,
        None => Profile::Wild,
    };
    let out = take_flag(&mut args, "--out")?.map(PathBuf::from);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let schedule_seed = match index {
        Some(index) => SeedFactory::new(seed).shard_seed(index),
        None => seed,
    };
    let schedule: Schedule = generate(schedule_seed, max_steps, profile);
    let cfg = RunConfig::from_env();
    let flags = BugFlags::default();
    let report = run_schedule(&schedule, &flags, &cfg, &Registry::disabled());
    let Some(first) = report.violations.first() else {
        println!("schedule 0x{schedule_seed:016x} passes every invariant; nothing to shrink");
        return Ok(0);
    };
    println!("violation: {first}");
    let outcome = shrink(&schedule, first.invariant, &flags, &cfg)
        .expect("initial run already violated the target");
    for line in &outcome.trace {
        println!("shrink: {line}");
    }
    let reproducer = Reproducer::from_shrink(&outcome, schedule.events.len());
    match out {
        Some(path) => {
            std::fs::write(&path, reproducer.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("reproducer -> {}", path.display());
        }
        None => println!("{}", reproducer.to_json()),
    }
    Ok(1)
}
