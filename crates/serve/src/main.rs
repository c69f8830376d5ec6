//! The `afta-serve` binary: host the service, run the E8 differential,
//! or soak the reactor.  See [`afta_serve::CLI_HELP`] for the surface.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use afta_net::TransportKind;
use afta_serve::experiment::{
    differential_matches, run_serve_experiment, ServeExperimentConfig, ServeExperimentReport,
    TcpClient,
};
use afta_serve::{
    Body, Frame, Reactor, ReactorConfig, Reply, Request, ServeConfig, TenantId, CLI_HELP,
};
use afta_sim::Flags;
use afta_telemetry::Registry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve,
        Some("e8") => cmd_e8,
        Some("soak") => cmd_soak,
        None | Some("help" | "--help" | "-h") => {
            print!("{CLI_HELP}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{CLI_HELP}");
            return ExitCode::from(2);
        }
    };
    command(&args[1..])
}

/// [`Flags::num`] for a count of tenants or clients, which must be at
/// least 1: with none there is nothing to serve or compare.
fn count<T: std::str::FromStr + From<u8> + PartialEq>(flags: &Flags, name: &str, default: T) -> T {
    let value = flags.num(name, default);
    if value == T::from(0) {
        flags.refuse(&format!("{name}: needs at least 1, not 0"));
    }
    value
}

/// Writes `value` as JSON to `--json PATH` when the flag is present.
fn write_json<T: serde::Serialize>(flags: &Flags, value: &T) -> ExitCode {
    if let Some(path) = flags.text("--json") {
        let rendered = serde_json::to_string_pretty(value).expect("report serializes");
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The machine-readable shape of `e8 --transport both --json`.
#[derive(serde::Serialize)]
struct DifferentialJson {
    sim: ServeExperimentReport,
    tcp: ServeExperimentReport,
    matches: bool,
}

/// The machine-readable shape of `soak --json` (also the per-tenant
/// telemetry artifact CI uploads).
#[derive(serde::Serialize)]
struct SoakJson {
    connections: usize,
    peak_connections: i64,
    frames_sent: u64,
    observed: u64,
    rejected: u64,
    lost: u64,
    digest_observes: u64,
    elapsed_ms: u64,
    tenants: Vec<afta_serve::TenantDigest>,
}

/// `afta-serve serve`: bind the reactor and host tenants until killed.
fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = Flags::new(
        "afta-serve serve",
        args,
        &[
            "--addr HOST:PORT",
            "--max-connections N",
            "--workers N",
            "--max-tenants N",
            "--mailbox-cap N",
            "--retry-after-ms N",
        ],
    );
    let addr = flags.text("--addr").unwrap_or("127.0.0.1:0");
    let reactor_config = ReactorConfig {
        max_connections: flags.num("--max-connections", 16_384),
        workers: flags.num("--workers", 4),
    };
    let serve_config = ServeConfig {
        max_tenants: flags.num("--max-tenants", 256),
        default_mailbox_cap: flags.num("--mailbox-cap", 64),
        retry_after_ms: flags.num("--retry-after-ms", 25),
        ..ServeConfig::default()
    };
    let registry = Registry::new();
    let reactor = match Reactor::bind(addr, reactor_config, serve_config, &registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("afta-serve listening on {}", reactor.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let tenants = reactor.with_core(|core| core.tenant_ids().len());
        println!(
            "afta-serve: {} connections (peak {}), {} tenants",
            reactor.connections(),
            reactor.peak_connections(),
            tenants,
        );
    }
}

/// `afta-serve e8`: the differential, on one or both backends.
fn cmd_e8(args: &[String]) -> ExitCode {
    let flags = Flags::new(
        "afta-serve e8",
        args,
        &[
            "--transport sim|tcp|both",
            "--tenants N",
            "--clients N",
            "--rounds N",
            "--seed S",
            "--json PATH",
        ],
    );
    let config = ServeExperimentConfig {
        seed: flags.seed(42),
        tenants: count(&flags, "--tenants", 8),
        clients: count(&flags, "--clients", 16),
        rounds: flags.num("--rounds", 12),
        ..ServeExperimentConfig::default()
    };
    let which = flags.text("--transport").unwrap_or("both");
    let registry = Registry::new();
    let run = |kind: TransportKind| {
        run_serve_experiment(
            &ServeExperimentConfig {
                transport: kind,
                ..config.clone()
            },
            &registry,
        )
    };
    let print_report = |r: &ServeExperimentReport| {
        println!(
            "E8 {} seed={} tenants={} clients={} rounds={}",
            r.transport, r.seed, config.tenants, config.clients, config.rounds
        );
        for d in &r.digests {
            println!(
                "  t{} digest={} rounds={} observes={} clashes={} rejected={} q={}",
                d.tenant, d.digest, d.rounds, d.observes, d.clashes, d.rejected, d.quarantined
            );
        }
        println!(
            "  combined={} rounds={} clashes={} rejects={}",
            r.combined, r.rounds, r.clashes, r.rejects
        );
    };
    match which {
        "sim" | "tcp" => {
            let kind: TransportKind = which.parse().expect("validated above");
            let report = run(kind);
            print_report(&report);
            write_json(&flags, &report)
        }
        "both" => {
            let sim = run(TransportKind::Sim);
            let tcp = run(TransportKind::Tcp);
            print_report(&sim);
            print_report(&tcp);
            let matches = differential_matches(&sim, &tcp);
            let code = write_json(
                &flags,
                &DifferentialJson {
                    sim: sim.clone(),
                    tcp: tcp.clone(),
                    matches,
                },
            );
            if matches {
                println!("E8 differential: sim and tcp digests are bit-identical");
                code
            } else {
                eprintln!(
                    "E8 DIFFERENTIAL MISMATCH: sim {} vs tcp {}",
                    sim.combined, tcp.combined
                );
                ExitCode::FAILURE
            }
        }
        other => flags.refuse(&format!("--transport: {other:?} is not sim, tcp or both")),
    }
}

/// `afta-serve soak`: open N concurrent connections against an
/// in-process reactor, push `--frames` observations down each, and
/// verify nothing was lost — every frame must come back as `Observed`
/// or an accounted rejection, and the tenants' digests must carry
/// exactly the observed count (the serving NoLostShard invariant).
/// Every connection is a [`TcpClient`], so a failed connect or write,
/// or a reply that misses its read timeout, panics and fails the run.
#[allow(clippy::too_many_lines)]
fn cmd_soak(args: &[String]) -> ExitCode {
    let flags = Flags::new(
        "afta-serve soak",
        args,
        &[
            "--connections N",
            "--tenants N",
            "--frames N",
            "--workers N",
            "--timeout-ms N",
            "--json PATH",
        ],
    );
    let connections: usize = flags.num("--connections", 10_000);
    let tenants: u16 = count(&flags, "--tenants", 8);
    let frames: u32 = flags.num("--frames", 1);
    let workers: usize = flags.num("--workers", 4);
    let timeout = Duration::from_millis(flags.num("--timeout-ms", 60_000));

    let registry = Registry::new();
    let reactor_config = ReactorConfig {
        max_connections: connections + 64,
        workers,
    };
    let serve_config = ServeConfig {
        max_tenants: usize::from(tenants),
        // One stream per connection: the cap must clear connections/tenants.
        max_streams_per_tenant: u32::MAX,
        ..ServeConfig::default()
    };
    let reactor = match Reactor::bind("127.0.0.1:0", reactor_config, serve_config, &registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot bind the soak reactor: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = reactor.local_addr();
    let started = Instant::now();

    // Register the tenants through a control connection.
    {
        let mut control = TcpClient::connect(addr);
        for t in 0..tenants {
            let frame = Frame::request(
                TenantId(t),
                0,
                Request::RegisterTenant {
                    expected_clients: u32::MAX, // soak never completes a round
                    mailbox_cap: 8192,
                    ballot_min: i64::MIN,
                    ballot_max: i64::MAX,
                },
            );
            control.send(&frame);
            match control.recv().body {
                Body::Reply(Reply::Registered { tenant }) => assert_eq!(tenant, t),
                other => {
                    eprintln!("soak tenant {t} registration refused: {other:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // Open every connection.  A connect returns once the kernel queues
    // it for accept, and std listens with a backlog of 128: connecting
    // faster than the reactor accepts overflows that queue, and each
    // dropped SYN is retransmitted only a second later.  So connect in
    // batches of half the backlog, each after the reactor has accepted
    // the last.
    const CONNECT_BATCH: usize = 64;
    let mut conns: Vec<TcpClient> = Vec::with_capacity(connections);
    while conns.len() < connections {
        let batch = CONNECT_BATCH.min(connections - conns.len());
        conns.extend((0..batch).map(|_| TcpClient::connect(addr)));
        while usize::try_from(reactor.connections()).unwrap_or(0) < conns.len() {
            if started.elapsed() > timeout {
                eprintln!(
                    "soak timed out with {} of {} connections accepted after {:?}",
                    reactor.connections(),
                    conns.len(),
                    started.elapsed()
                );
                return ExitCode::FAILURE;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    // Push every observation before reading any reply.  The reactor
    // reads as the frames come, and each connection's few replies wait
    // in its socket buffer, so no write blocks for long.
    let mut sent: u64 = 0;
    for pass in 0..frames {
        for (i, conn) in conns.iter_mut().enumerate() {
            let tenant = TenantId(u16::try_from(i % usize::from(tenants)).expect("tenant fits"));
            let stream_id = u32::try_from(i / usize::from(tenants)).expect("stream fits");
            conn.send(&Frame::request(
                tenant,
                stream_id,
                Request::Observe {
                    key: "ballot".into(),
                    value: i64::try_from(i).unwrap_or(0) + i64::from(pass),
                },
            ));
            sent += 1;
        }
    }

    // Read each connection's `--frames` replies in turn, checking the
    // budget after each connection.
    let (mut observed, mut rejected) = (0u64, 0u64);
    for (i, conn) in conns.iter_mut().enumerate() {
        for _ in 0..frames {
            match conn.recv().body {
                Body::Reply(Reply::Observed { .. }) => observed += 1,
                Body::Reply(Reply::Rejected { .. }) => rejected += 1,
                other => panic!("unexpected soak reply: {other:?}"),
            }
        }
        if started.elapsed() > timeout {
            eprintln!(
                "soak timed out with {} connections still to read after {:?}",
                connections - i - 1,
                started.elapsed()
            );
            return ExitCode::FAILURE;
        }
    }

    let peak = reactor.peak_connections();
    let digests: Vec<_> = reactor.with_core(|core| {
        core.tenant_ids()
            .into_iter()
            .filter_map(|t| core.tenant_digest(t))
            .collect()
    });
    let digest_observes: u64 = digests.iter().map(|d| d.observes).sum();
    let lost = sent - observed - rejected;
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    reactor.shutdown();

    println!(
        "soak: {connections} connections (peak {peak}), {sent} frames, \
         {observed} observed, {rejected} rejected, {lost} lost, \
         digests carry {digest_observes}, {elapsed_ms}ms"
    );
    let report = SoakJson {
        connections,
        peak_connections: peak,
        frames_sent: sent,
        observed,
        rejected,
        lost,
        digest_observes,
        elapsed_ms,
        tenants: digests,
    };
    let code = write_json(&flags, &report);
    let no_lost_shard = lost == 0 && digest_observes == observed;
    let held_them_all = peak >= i64::try_from(connections).unwrap_or(i64::MAX);
    if no_lost_shard && held_them_all {
        println!("soak: NoLostShard holds");
        code
    } else {
        eprintln!(
            "soak FAILED: lost={lost} digest_observes={digest_observes} observed={observed} \
             peak={peak}/{connections}"
        );
        ExitCode::FAILURE
    }
}
