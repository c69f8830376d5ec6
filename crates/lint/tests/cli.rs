//! End-to-end tests of the `afta-lint` binary against the example
//! manifests — the PR's acceptance scenario: the seeded Ariane-style
//! narrowing must fail the lint with a Horning-classified `AFTA-H003`
//! in both output formats, and the fixed manifest must pass.

use std::path::PathBuf;
use std::process::{Command, Output};

fn manifest(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/manifests")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn afta_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_afta-lint"))
        .args(args)
        .output()
        .expect("failed to spawn afta-lint")
}

#[test]
fn seeded_ariane_narrowing_fails_with_h003_text() {
    let out = afta_lint(&[&manifest("ariane.json")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[AFTA-H003]"), "stdout:\n{stdout}");
    assert!(stdout.contains("syndrome: Horning"), "stdout:\n{stdout}");
    assert!(stdout.contains("does not fit"), "stdout:\n{stdout}");
}

#[test]
fn seeded_ariane_narrowing_fails_with_h003_json() {
    let out = afta_lint(&["--format", "json", &manifest("ariane.json")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"AFTA-H003\""), "stdout:\n{stdout}");
    assert!(stdout.contains("Horning"), "stdout:\n{stdout}");
    assert!(stdout.contains("\"errors\": 1"), "stdout:\n{stdout}");
}

#[test]
fn fixed_ariane_manifest_passes_even_denying_warnings() {
    let out = afta_lint(&["--deny", "warnings", &manifest("ariane_fixed.json")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("clean: no diagnostics"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn multiple_files_lint_in_one_run() {
    let out = afta_lint(&[&manifest("ariane.json"), &manifest("ariane_fixed.json")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ariane.json"));
    assert!(stdout.contains("ariane_fixed.json"));
}

#[test]
fn allow_downgrades_the_exit_code() {
    let out = afta_lint(&["--allow", "AFTA-H003", &manifest("ariane.json")]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn missing_file_is_a_usage_error() {
    let out = afta_lint(&["definitely-not-here.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("definitely-not-here.json"));
}

#[test]
fn malformed_json_is_a_usage_error() {
    let dir = std::env::temp_dir().join("afta-lint-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{ not json").unwrap();
    let out = afta_lint(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("parse error"), "stderr:\n{stderr}");
}

#[test]
fn unknown_rule_code_is_a_usage_error() {
    let out = afta_lint(&["--deny", "AFTA-Z999", &manifest("ariane.json")]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_rules_prints_the_whole_table() {
    let out = afta_lint(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for code in ["AFTA-H001", "AFTA-H003", "AFTA-HI004", "AFTA-B005"] {
        assert!(stdout.contains(code), "missing {code} in:\n{stdout}");
    }
    assert!(stdout.contains("Ariane 5"));
}

#[test]
fn help_exits_zero() {
    let out = afta_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("usage: afta-lint"));
}

#[test]
fn a_repeated_format_is_a_usage_error_and_level_flags_repeat() {
    let out = afta_lint(&[
        "--format",
        "json",
        "--format",
        "text",
        &manifest("ariane.json"),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--format"), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty());
    // The level flags apply in order: the last word on a rule wins.
    let out = afta_lint(&[
        "--allow",
        "AFTA-H003",
        "--deny",
        "AFTA-H003",
        "--allow",
        "AFTA-H003",
        &manifest("ariane.json"),
    ]);
    assert_eq!(out.status.code(), Some(0));
}
