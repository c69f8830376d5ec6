//! End-to-end tests of the `afta-serve` command line: each subcommand
//! refuses an unknown flag, a flag without a value, a flag given twice,
//! a value that does not parse (a malformed `AFTA_SEED` too) and a zero
//! count of tenants or clients, exiting 2 with a message that names the
//! flag before it binds or runs anything, and every flag it took before
//! still runs.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn afta_serve(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_afta-serve"));
    command.args(args).env_remove("AFTA_SEED");
    command
}

/// Runs `afta-serve args` to its exit.  A `serve` that took its command
/// line would run until killed, so one still running after a minute is
/// killed and fails the test.
fn run(args: &[&str]) -> Output {
    let mut child = afta_serve(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn afta-serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll afta-serve").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("afta-serve {args:?} still running after a minute");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect afta-serve output")
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afta-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn each_subcommand_refuses_what_it_cannot_parse() {
    // Each command line with the flag its refusal must name.
    let cases: &[(&[&str], &str)] = &[
        // A flag the subcommand does not take: misspelt, another
        // subcommand's, or no flag at all.
        (&["serve", "--wrokers", "8"], "--wrokers"),
        (&["serve", "--workers", "2", "--wrokers", "8"], "--wrokers"),
        (&["e8", "--connections", "4"], "--connections"),
        (&["soak", "--rounds", "2"], "--rounds"),
        (&["serve", "8"], "\"8\""),
        // Only `e8` takes a seed.
        (&["serve", "--seed", "seven"], "--seed"),
        (&["soak", "--seed", "0x"], "--seed"),
        // A flag without a value.
        (&["serve", "--workers"], "--workers"),
        (&["e8", "--seed"], "--seed"),
        (&["soak", "--json"], "--json"),
        // A value that does not parse.
        (&["serve", "--workers", "four"], "--workers"),
        (&["serve", "--max-connections", "-1"], "--max-connections"),
        (&["soak", "--connections", "1e5"], "--connections"),
        (&["soak", "--tenants", "65536"], "--tenants"),
        (&["e8", "--rounds", "twelve"], "--rounds"),
        (&["e8", "--seed", "0xZZ"], "--seed"),
        (&["e8", "--transport", "udp"], "--transport"),
        // A count of tenants or clients that leaves nothing to run.
        (
            &["soak", "--tenants", "0", "--connections", "4"],
            "--tenants",
        ),
        (&["e8", "--clients", "0"], "--clients"),
        (&["e8", "--tenants", "0"], "--tenants"),
        // A flag given twice, even with the same value.
        (&["serve", "--workers", "2", "--workers", "2"], "--workers"),
        (&["e8", "--rounds", "1", "--rounds", "3"], "--rounds"),
        (
            &["soak", "--frames", "1", "--tenants", "2", "--frames", "8"],
            "--frames",
        ),
    ];
    for &(args, flag) in cases {
        assert_refused(args, &run(args), flag);
    }
    // A malformed AFTA_SEED, which `e8` reads when no `--seed` is given,
    // is refused as a malformed `--seed` is, not run as the default.
    let out = afta_serve(&["e8"])
        .env("AFTA_SEED", "zz")
        .output()
        .expect("run afta-serve");
    assert_refused(&["AFTA_SEED=zz", "e8"], &out, "AFTA_SEED");
}

/// `args` exited 2, naming `flag`, and printed nothing on stdout.
fn assert_refused(args: &[&str], out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_flag_each_subcommand_took_before_still_runs() {
    let json = tmp_path("e8.json");
    let e8 = |seed: &str| {
        let out = run(&[
            "e8",
            "--transport",
            "sim",
            "--tenants",
            "2",
            "--clients",
            "3",
            "--rounds",
            "2",
            "--seed",
            seed,
            "--json",
            json.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "e8: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.starts_with("E8 sim seed=42 tenants=2 clients=3 rounds=2\n"),
            "{stdout}"
        );
        stdout
    };
    assert_eq!(e8("0x2A"), e8("42"), "a hex and a decimal seed");
    let report = std::fs::read_to_string(&json).expect("e8 wrote --json");
    assert!(report.contains("\"combined\""), "{report}");

    let json = tmp_path("soak.json");
    let out = run(&[
        "soak",
        "--connections",
        "8",
        "--tenants",
        "2",
        "--frames",
        "2",
        "--workers",
        "1",
        "--timeout-ms",
        "30000",
        "--json",
        json.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "soak: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("soak: 8 connections"), "{stdout}");
    assert!(stdout.contains("16 frames, 16 observed"), "{stdout}");
    assert!(std::fs::metadata(&json).is_ok(), "soak wrote --json");

    // `serve` runs until killed: it must bind and say where.
    let mut serve = afta_serve(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--max-connections",
        "64",
        "--workers",
        "1",
        "--max-tenants",
        "4",
        "--mailbox-cap",
        "8",
        "--retry-after-ms",
        "5",
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn afta-serve serve");
    let mut line = String::new();
    BufReader::new(serve.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the bind line");
    serve.kill().ok();
    serve.wait().ok();
    assert!(
        line.starts_with("afta-serve listening on 127.0.0.1:"),
        "{line:?}"
    );

    std::fs::remove_dir_all(json.parent().unwrap()).ok();
}
