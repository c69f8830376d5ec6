//! The `afta-lint` command-line interface.
//!
//! ```text
//! afta-lint [OPTIONS] [<TARGET.json>...]
//!
//! Options:
//!   --format <text|json>   Output format (default: text)
//!   --deny warnings        Escalate every warning to an error
//!   --deny <CODE>          Report the rule at error severity
//!   --warn <CODE>          Report the rule at warning severity
//!   --allow <CODE>         Drop the rule's findings
//!   --schedule <FILE>      Lint a fuzz schedule JSON file against the
//!                          envelope it claims (repeatable; may stand alone)
//!   --list-rules           Print the rule table and exit
//!   -h, --help             Print usage and exit
//!
//! Exit codes:
//!   0  every target linted clean of error-severity findings
//!   1  at least one error-severity finding (including escalated warnings)
//!   2  usage, I/O, or parse error
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;

use afta_lint::{Level, LintDriver, LintReport, LintTarget, Rule, ScheduleDecl};
use serde::Serialize;

const USAGE: &str = "usage: afta-lint [--format text|json] [--deny warnings] \
                     [--allow|--warn|--deny CODE]... [--schedule FILE]... \
                     [--list-rules] [<TARGET.json>...]";

/// Every target linted clean of error-severity findings.
const EXIT_CLEAN: u8 = 0;
/// At least one error-severity finding (including escalated warnings).
const EXIT_FINDINGS: u8 = 1;
/// Usage, I/O, or parse error.
const EXIT_USAGE: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

#[derive(Debug)]
struct Options {
    format: Format,
    files: Vec<String>,
    schedules: Vec<String>,
    levels: Vec<(Rule, Level)>,
    deny_warnings: bool,
    list_rules: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        files: Vec::new(),
        schedules: Vec::new(),
        levels: Vec::new(),
        deny_warnings: false,
        list_rules: false,
        help: false,
    };
    let mut format_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // One `--format` only; the level flags repeat and apply in order.
            "--format" if format_given => return Err("--format is given twice".to_string()),
            "--format" => {
                let value = it.next().ok_or("--format needs a value")?;
                opts.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
                format_given = true;
            }
            "--deny" => {
                let value = it.next().ok_or("--deny needs a value")?;
                if value == "warnings" {
                    opts.deny_warnings = true;
                } else {
                    opts.levels.push((parse_rule(value)?, Level::Deny));
                }
            }
            "--warn" => {
                let value = it.next().ok_or("--warn needs a value")?;
                opts.levels.push((parse_rule(value)?, Level::Warn));
            }
            "--allow" => {
                let value = it.next().ok_or("--allow needs a value")?;
                opts.levels.push((parse_rule(value)?, Level::Allow));
            }
            "--schedule" => {
                let value = it.next().ok_or("--schedule needs a value")?;
                opts.schedules.push(value.clone());
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => opts.help = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            file => opts.files.push(file.to_string()),
        }
    }
    if !opts.help && !opts.list_rules && opts.files.is_empty() && opts.schedules.is_empty() {
        return Err("no target files given".to_string());
    }
    Ok(opts)
}

fn parse_rule(code: &str) -> Result<Rule, String> {
    Rule::from_code(code).ok_or_else(|| format!("unknown rule code `{code}`"))
}

fn rule_table() -> String {
    let mut out = String::new();
    for rule in Rule::ALL {
        let _ = writeln!(
            out,
            "{:<11} {:<8} {:<30} {}",
            rule.code(),
            rule.default_severity(),
            rule.syndrome(),
            rule.summary()
        );
    }
    out
}

/// One linted file, for `--format json` output.
#[derive(Debug, Serialize)]
struct FileReport {
    file: String,
    report: LintReport,
}

fn run(args: &[String]) -> Result<u8, String> {
    let opts = parse_args(args)?;
    if opts.help {
        println!("{USAGE}");
        return Ok(EXIT_CLEAN);
    }
    if opts.list_rules {
        print!("{}", rule_table());
        return Ok(EXIT_CLEAN);
    }

    let mut driver = LintDriver::new();
    driver.deny_warnings(opts.deny_warnings);
    for (rule, level) in &opts.levels {
        driver.set_level(*rule, *level);
    }

    let mut schedules = Vec::new();
    for file in &opts.schedules {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let decl = ScheduleDecl::from_fuzz_json(file, &text)
            .map_err(|e| format!("{file}: parse error: {e}"))?;
        schedules.push(decl);
    }

    let mut results = Vec::new();
    for file in &opts.files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut target =
            LintTarget::from_json(&text).map_err(|e| format!("{file}: parse error: {e}"))?;
        target.schedules.extend(schedules.iter().cloned());
        results.push(FileReport {
            file: file.clone(),
            report: driver.run(&target),
        });
    }
    if opts.files.is_empty() {
        // Schedules alone: lint them as a standalone target.
        let mut target = LintTarget::new();
        target.schedules = schedules;
        results.push(FileReport {
            file: "<schedules>".to_string(),
            report: driver.run(&target),
        });
    }

    let any_error = results.iter().any(|r| r.report.errors > 0);
    match opts.format {
        Format::Text => {
            for r in &results {
                print!("{}: {}", r.file, r.report.render_text());
            }
        }
        Format::Json => {
            let json = if results.len() == 1 {
                serde_json::to_string_pretty(&results[0])
            } else {
                serde_json::to_string_pretty(&results)
            }
            .map_err(|e| e.to_string())?;
            println!("{json}");
        }
    }
    Ok(if any_error { EXIT_FINDINGS } else { EXIT_CLEAN })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("afta-lint: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn rule_listing_covers_every_variant() {
        let table = rule_table();
        for rule in Rule::ALL {
            assert!(
                table.contains(rule.code()),
                "--list-rules output is missing {}",
                rule.code()
            );
        }
        assert_eq!(table.lines().count(), Rule::ALL.len());
    }

    #[test]
    fn schedules_stand_alone_without_target_files() {
        let opts = parse_args(&args(&["--schedule", "corpus/a.json"])).unwrap();
        assert!(opts.files.is_empty());
        assert_eq!(opts.schedules, vec!["corpus/a.json"]);
    }

    #[test]
    fn bare_invocation_is_a_usage_error() {
        assert!(parse_args(&args(&[])).is_err());
    }

    #[test]
    fn unknown_rule_code_is_rejected() {
        let err = parse_args(&args(&["--deny", "AFTA-Z999", "t.json"])).unwrap_err();
        assert!(err.contains("AFTA-Z999"));
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        assert_eq!(EXIT_CLEAN, 0);
        assert_eq!(EXIT_FINDINGS, 1);
        assert_eq!(EXIT_USAGE, 2);
    }
}
