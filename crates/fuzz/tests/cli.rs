//! End-to-end tests of the `afta-fuzz` command line: each subcommand
//! refuses an unknown flag, a flag without a value, a flag given twice,
//! a value that does not parse (a malformed `AFTA_SEED` too) and a stray
//! or missing argument, exiting 2 with a message that names it before it
//! runs anything, and every flag it took before still runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn afta_fuzz(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_afta-fuzz"));
    command
        .args(args)
        .env_remove("AFTA_SEED")
        .env_remove("AFTA_FUZZ_SCHEDULES");
    command
}

fn run(args: &[&str]) -> Output {
    afta_fuzz(args).output().expect("spawn afta-fuzz")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afta-fuzz-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn corpus(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(name)
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
        (&["run", "--schedule", "3"], "--schedule"),
        (&["run", "--index", "0"], "--index"),
        (&["shrink", "--corpus", "corpus"], "--corpus"),
        (&["replay", "r.json", "--seed", "7"], "--seed"),
        // A flag without a value.
        (&["run", "--seed"], "--seed"),
        (&["run", "--schedules", "3", "--out-dir"], "--out-dir"),
        (&["shrink", "--index"], "--index"),
        (&["shrink", "--out"], "--out"),
        // A flag given twice, even with the same value.
        (
            &["run", "--schedules", "3", "--schedules", "3"],
            "--schedules",
        ),
        (
            &["run", "--profile", "wild", "--profile", "battery"],
            "--profile",
        ),
        (&["shrink", "--seed", "7", "--seed", "0x7"], "--seed"),
        // A value that does not parse.
        (&["run", "--seed", "0xZZ"], "--seed"),
        (&["run", "--schedules", "ten"], "--schedules"),
        (&["run", "--max-steps", "-1"], "--max-steps"),
        (&["run", "--profile", "tame"], "--profile"),
        (&["shrink", "--index", "first"], "--index"),
        (&["shrink", "--seed", "seven"], "--seed"),
        (&["shrink", "--profile", "Wild"], "--profile"),
        // A stray argument, or a missing one.
        (&["run", "25"], "\"25\""),
        (&["shrink", "--seed", "7", "0"], "\"0\""),
        (&["replay"], "<FILE>"),
        (&["replay", "a.json", "b.json"], "\"b.json\""),
    ];
    // Run in an empty directory: a refused command line writes nothing
    // there, not even the default `target/fuzz` of `run`.
    let dir = tmp_dir("refusals");
    for &(args, name) in cases {
        let out = afta_fuzz(args)
            .current_dir(&dir)
            .output()
            .expect("spawn afta-fuzz");
        assert_refused(args, &out, name, &dir);
    }
    // A malformed AFTA_SEED, which `run` and `shrink` read when no
    // `--seed` is given, is refused as a malformed `--seed` is.
    for command in ["run", "shrink"] {
        let out = afta_fuzz(&[command])
            .env("AFTA_SEED", "zz")
            .current_dir(&dir)
            .output()
            .expect("spawn afta-fuzz");
        assert_refused(&["AFTA_SEED=zz", command], &out, "AFTA_SEED", &dir);
    }
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
fn every_flag_each_subcommand_took_before_still_runs() {
    let dir = tmp_dir("flags");
    let junit = dir.join("fuzz.junit.xml");
    let out = run(&[
        "run",
        "--seed",
        "7",
        "--schedules",
        "3",
        "--max-steps",
        "12",
        "--profile",
        "battery",
        "--corpus",
        corpus("").to_str().unwrap(),
        "--junit",
        junit.to_str().unwrap(),
        "--out-dir",
        dir.join("out").to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout
            .starts_with("fuzz: master seed 0x0000000000000007, 3 schedules x 12 steps (Battery)"),
        "{stdout}"
    );
    assert!(stdout.contains("3 schedules, 0 violated"), "{stdout}");
    let report = std::fs::read_to_string(&junit).expect("run wrote --junit");
    assert!(report.contains("fuzz.corpus"), "{report}");
    let seeded = |seed: &str| run(&["run", "--seed", seed, "--schedules", "3"]).stdout;
    assert_eq!(seeded("0x7"), seeded("7"), "a hex and a decimal seed");

    // A wild schedule that violates an invariant: `shrink` minimises it
    // and exits 1, and `replay` reproduces what it wrote.
    let reproducer = dir.join("repro.json");
    let out = run(&[
        "shrink",
        "--seed",
        "7",
        "--index",
        "0",
        "--max-steps",
        "12",
        "--profile",
        "wild",
        "--out",
        reproducer.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "shrink: {stdout}");
    assert!(stdout.contains("reproducer -> "), "{stdout}");
    for file in [reproducer, corpus("clash-edit-silent-loss.json")] {
        let out = run(&["replay", file.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "replay {}: {stdout}", file.display());
        assert!(stdout.starts_with("reproduced: "), "{stdout}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
