//! End-to-end tests of the `afta-ci` binary: one evidence run emits all
//! three artifact formats, the JSONL spans are byte-identical across
//! runs, the pin gate demonstrably fails on a perturbed pin, and each
//! subcommand refuses a command line it cannot read, exiting 2 with a
//! message naming the argument before it runs anything, while every
//! flag it took before still runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use afta_ci::xml;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn afta_ci_command(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_afta-ci"));
    command.args(args).env_remove("AFTA_SEED");
    command
}

fn afta_ci(args: &[&str]) -> Output {
    afta_ci_command(args).output().expect("spawn afta-ci")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afta-ci-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn run_emits_all_three_formats_from_one_evidence_run() {
    let dir = tmp_dir("run");
    let manifest = repo_path("examples/manifests/ariane_fixed.json");
    let out = afta_ci(&[
        "run",
        "--skip-tcp",
        "--manifest",
        manifest.to_str().unwrap(),
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "afta-ci run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // SARIF: present and structurally valid 2.1.0.
    let sarif = std::fs::read_to_string(dir.join("afta-lint.sarif")).unwrap();
    let doc: serde::Value = serde_json::from_str(&sarif).unwrap();
    afta_ci::validate_sarif(&doc).unwrap();

    // JUnit: parses, covers all three suites, and is green.
    let junit = std::fs::read_to_string(dir.join("afta-ci.junit.xml")).unwrap();
    let root = xml::parse(&junit).unwrap();
    assert_eq!(root.name, "testsuites");
    assert_eq!(root.attr("failures"), Some("0"), "{junit}");
    let suites: Vec<String> = root
        .elements("testsuite")
        .iter()
        .map(|s| s.attr("name").unwrap().to_string())
        .collect();
    assert!(suites.iter().any(|s| s == "e6.campaign"), "{suites:?}");
    assert!(suites.iter().any(|s| s.starts_with("e7.differential")));
    assert!(suites.iter().any(|s| s == "checkpoint.resume"));
    let case_count: usize = root
        .elements("testsuite")
        .iter()
        .map(|s| s.elements("testcase").len())
        .sum();
    assert_eq!(case_count.to_string(), root.attr("tests").unwrap());
    // Every campaign case names its shard seed for reproduction.
    let campaign = root
        .elements("testsuite")
        .into_iter()
        .find(|s| s.attr("name") == Some("e6.campaign"))
        .unwrap()
        .clone();
    for case in campaign.elements("testcase") {
        assert!(case.attr("name").unwrap().contains("seed-0x"));
    }

    // OTel JSONL: every line is a JSON object tagged span or metric.
    let jsonl = std::fs::read_to_string(dir.join("afta-spans.jsonl")).unwrap();
    assert!(jsonl.lines().count() > 1);
    for line in jsonl.lines() {
        let value: serde::Value = serde_json::from_str(line).unwrap();
        let kind = value.get("otel").and_then(serde::Value::as_str).unwrap();
        assert!(kind == "span" || kind == "metric");
        assert_eq!(
            value
                .get("traceId")
                .and_then(serde::Value::as_str)
                .unwrap()
                .len(),
            32
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn otel_export_is_byte_identical_across_two_runs_of_the_same_seed() {
    let first = afta_ci(&["otel", "--seed", "42"]);
    let second = afta_ci(&["otel", "--seed", "42"]);
    assert!(first.status.success() && second.status.success());
    assert!(!first.stdout.is_empty());
    assert_eq!(first.stdout, second.stdout);

    let other_seed = afta_ci(&["otel", "--seed", "43"]);
    assert!(other_seed.status.success());
    assert_ne!(first.stdout, other_seed.stdout);
}

#[test]
fn check_passes_on_committed_pins_and_fails_on_a_perturbed_pin() {
    let pins = repo_path("ci/pins.toml");
    let bench = repo_path("BENCH_9.json");
    let manifests = repo_path("examples/manifests");

    let ok = afta_ci(&[
        "check",
        pins.to_str().unwrap(),
        "--bench",
        bench.to_str().unwrap(),
        "--manifests",
        manifests.to_str().unwrap(),
    ]);
    assert!(
        ok.status.success(),
        "committed pins drifted:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    // The manifest directory resolved, so no lint pin may have skipped.
    let ok_stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(!ok_stdout.contains("SKIP  lint_"), "{ok_stdout}");

    // Perturb pins beyond tolerance: the gate must fail and name them —
    // one campaign signal, one whole-program lint signal.
    let text = std::fs::read_to_string(&pins).unwrap();
    let perturbed = text
        .replace(
            "[e6_voting_failures]\nvalue = 26",
            "[e6_voting_failures]\nvalue = 9999",
        )
        .replace("[lint_d001]\nvalue = 1", "[lint_d001]\nvalue = 7");
    assert!(
        perturbed.contains("9999") && perturbed.contains("value = 7"),
        "perturbation targets not found in pins.toml"
    );
    let dir = tmp_dir("check");
    let perturbed_path = dir.join("pins.toml");
    std::fs::write(&perturbed_path, perturbed).unwrap();

    let bad = afta_ci(&[
        "check",
        perturbed_path.to_str().unwrap(),
        "--bench",
        bench.to_str().unwrap(),
        "--manifests",
        manifests.to_str().unwrap(),
    ]);
    assert!(!bad.status.success(), "perturbed pins must fail the gate");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("e6_voting_failures"), "{stdout}");
    assert!(stdout.contains("lint_d001"), "{stdout}");
    assert!(stdout.contains("DRIFT"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn each_subcommand_refuses_what_it_cannot_parse() {
    // Each command line with the argument its refusal must name.
    let cases: &[(&[&str], &str)] = &[
        // No subcommand, or one that does not exist.
        (&[], "no command"),
        (&["frobnicate"], "frobnicate"),
        // A flag the subcommand does not take: misspelt, or another
        // subcommand's.
        (&["sarif", "m.json", "--seed", "1"], "--seed"),
        (&["junit", "--skip-tpc"], "--skip-tpc"),
        (&["otel", "--skip-tcp"], "--skip-tcp"),
        (&["run", "--out", "x"], "--out"),
        (&["check", "pins.toml", "--manifest", "m"], "--manifest"),
        (&["signals", "--seed", "42"], "--seed"),
        // A flag without a value.
        (&["sarif", "m.json", "--out"], "--out"),
        (&["junit", "--out"], "--out"),
        (&["otel", "--seed"], "--seed"),
        (&["run", "--out-dir"], "--out-dir"),
        (&["check", "pins.toml", "--bench"], "--bench"),
        (&["signals", "--manifests"], "--manifests"),
        // A flag given twice, even with the same value.
        (&["sarif", "m.json", "--uri", "a", "--uri", "b"], "--uri"),
        (&["junit", "--skip-tcp", "--skip-tcp"], "--skip-tcp"),
        (&["otel", "--seed", "42", "--seed", "42"], "--seed"),
        (&["run", "--manifest", "a", "--manifest", "b"], "--manifest"),
        (
            &["check", "p.toml", "--bench", "a", "--bench", "b"],
            "--bench",
        ),
        (&["signals", "--bench", "a", "--bench", "a"], "--bench"),
        // A value that does not parse.
        (&["otel", "--seed", "0xZZ"], "--seed"),
        (&["otel", "--seed", "-1"], "--seed"),
        // A stray argument, or a missing one.
        (&["sarif", "a.json", "b.json"], "\"b.json\""),
        (&["sarif", "--out", "x"], "<MANIFEST.json>"),
        (&["junit", "extra"], "\"extra\""),
        (&["otel", "42"], "\"42\""),
        (&["run", "target/evidence"], "\"target/evidence\""),
        (&["check"], "<PINS.toml>"),
        (&["check", "a.toml", "b.toml"], "\"b.toml\""),
        (&["signals", "BENCH_9.json"], "\"BENCH_9.json\""),
    ];
    // Run in an empty directory: a refused command line writes nothing
    // there, not even the default `target/evidence` of `run`.
    let dir = tmp_dir("refusals");
    for &(args, name) in cases {
        let out = afta_ci_command(args)
            .current_dir(&dir)
            .output()
            .expect("spawn afta-ci");
        assert_refused(args, &out, name, &dir);
    }
    // A malformed AFTA_SEED, which `otel` reads when no `--seed` is
    // given, is refused as a malformed `--seed` is.
    let out = afta_ci_command(&["otel"])
        .env("AFTA_SEED", "zz")
        .current_dir(&dir)
        .output()
        .expect("spawn afta-ci");
    assert_refused(&["AFTA_SEED=zz", "otel"], &out, "AFTA_SEED", &dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// `args` exited 2 naming `name`, printed nothing on stdout and wrote
/// nothing into `dir`.
fn assert_refused(args: &[&str], out: &Output, name: &str, dir: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(name), "{args:?} must name {name}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let written = std::fs::read_dir(dir)
        .expect("read the run's directory")
        .count();
    assert_eq!(written, 0, "{args:?} wrote into {}", dir.display());
}

#[test]
fn otel_takes_its_seed_by_the_shared_rule_and_run_keeps_42() {
    let seed_43 = afta_ci(&["otel", "--seed", "43"]);
    assert!(seed_43.status.success());
    let from_env = afta_ci_command(&["otel"])
        .env("AFTA_SEED", "43")
        .output()
        .expect("spawn afta-ci");
    let hex = afta_ci(&["otel", "--seed", "0x2b"]);
    assert_eq!(from_env.stdout, seed_43.stdout, "AFTA_SEED=43 otel");
    assert_eq!(hex.stdout, seed_43.stdout, "otel --seed 0x2b");
    // `--seed` wins over AFTA_SEED, and with neither the seed is 42.
    let seed_42 = afta_ci(&["otel", "--seed", "42"]);
    let flag_wins = afta_ci_command(&["otel", "--seed", "42"])
        .env("AFTA_SEED", "43")
        .output()
        .expect("spawn afta-ci");
    assert_eq!(flag_wins.stdout, seed_42.stdout);
    assert_eq!(afta_ci(&["otel"]).stdout, seed_42.stdout);
    assert_ne!(seed_42.stdout, seed_43.stdout);

    // `run` writes the seed-42 spans whatever AFTA_SEED says.
    let dir = tmp_dir("run-seed");
    let out = afta_ci_command(&["run", "--skip-tcp", "--out-dir", dir.to_str().unwrap()])
        .env("AFTA_SEED", "zz")
        .current_dir(repo_path(""))
        .output()
        .expect("spawn afta-ci");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spans = std::fs::read(dir.join("afta-spans.jsonl")).unwrap();
    assert_eq!(spans, seed_42.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_flag_each_subcommand_took_before_still_runs() {
    let dir = tmp_dir("flags");
    let manifest = repo_path("examples/manifests/ariane.json");

    // A positional may stand after the flags.
    let sarif = dir.join("out.sarif");
    let out = afta_ci(&[
        "sarif",
        "--out",
        sarif.to_str().unwrap(),
        "--uri",
        "manifests/ariane.json",
        manifest.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "sarif: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sarif = std::fs::read_to_string(&sarif).expect("sarif wrote --out");
    assert!(sarif.contains("\"manifests/ariane.json\""), "{sarif}");

    let junit = dir.join("out.junit.xml");
    let out = afta_ci(&["junit", "--skip-tcp", "--out", junit.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "junit: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let junit = std::fs::read_to_string(&junit).expect("junit wrote --out");
    assert!(junit.contains("e7.differential.sim-vs-sim"), "{junit}");

    let spans = dir.join("spans.jsonl");
    let out = afta_ci(&["otel", "--seed", "7", "--out", spans.to_str().unwrap()]);
    assert!(out.status.success() && out.stdout.is_empty());
    assert_eq!(
        std::fs::read(&spans).expect("otel wrote --out"),
        afta_ci(&["otel", "--seed", "7"]).stdout
    );

    let out = afta_ci(&[
        "signals",
        "--bench",
        repo_path("BENCH_9.json").to_str().unwrap(),
        "--manifests",
        repo_path("examples/manifests").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "signals: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("schema = "), "{stdout}");
    // Signals appear from the snapshot and the manifests only when
    // their flags are read.
    assert!(stdout.contains("[bench_speedup_voting_round]"), "{stdout}");
    assert!(stdout.contains("[lint_d001]"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
