//! The `afta-serve` binary: host the service, run the E8 differential,
//! or soak the reactor.  See [`afta_serve::CLI_HELP`] for the surface.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use afta_net::TransportKind;
use afta_serve::experiment::{
    differential_matches, run_serve_experiment, ServeExperimentConfig, ServeExperimentReport,
    TcpClient,
};
use afta_serve::proto::{next_framed, write_framed};
use afta_serve::{
    Body, Frame, Reactor, ReactorConfig, Reply, Request, ServeConfig, TenantId, CLI_HELP,
};
use afta_telemetry::Registry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("e8") => cmd_e8(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        None | Some("help" | "--help" | "-h") => {
            print!("{CLI_HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{CLI_HELP}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--name`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `--name N` as a number, falling back to `default`.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Seed resolution order: `--seed`, then `AFTA_SEED`, then `default`.
/// `0x`-prefixed values parse as hex, everything else as decimal.
fn seed_flag(args: &[String], default: u64) -> u64 {
    let parse = |text: &str| {
        let text = text.trim();
        if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            text.parse().ok()
        }
    };
    flag(args, "--seed")
        .and_then(parse)
        .or_else(|| std::env::var("AFTA_SEED").ok().as_deref().and_then(parse))
        .unwrap_or(default)
}

/// Writes `value` as JSON to `--json PATH` when the flag is present.
fn write_json<T: serde::Serialize>(args: &[String], value: &T) -> ExitCode {
    if let Some(path) = flag(args, "--json") {
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
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:0");
    let reactor_config = ReactorConfig {
        max_connections: num_flag(args, "--max-connections", 16_384),
        workers: num_flag(args, "--workers", 4),
        ..ReactorConfig::default()
    };
    let serve_config = ServeConfig {
        max_tenants: num_flag(args, "--max-tenants", 256),
        default_mailbox_cap: num_flag(args, "--mailbox-cap", 64),
        retry_after_ms: num_flag(args, "--retry-after-ms", 25),
        seed: seed_flag(args, 0xAF7A),
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
    let config = ServeExperimentConfig {
        seed: seed_flag(args, 42),
        tenants: num_flag(args, "--tenants", 8),
        clients: num_flag(args, "--clients", 16),
        rounds: num_flag(args, "--rounds", 12),
        ..ServeExperimentConfig::default()
    };
    let which = flag(args, "--transport").unwrap_or("both");
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
            write_json(args, &report)
        }
        "both" => {
            let sim = run(TransportKind::Sim);
            let tcp = run(TransportKind::Tcp);
            print_report(&sim);
            print_report(&tcp);
            let matches = differential_matches(&sim, &tcp);
            let code = write_json(
                args,
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
        other => {
            eprintln!("unknown transport {other:?} (expected sim|tcp|both)");
            ExitCode::from(2)
        }
    }
}

/// One soak connection: a non-blocking loopback socket plus its framing
/// state.
struct SoakConn {
    stream: TcpStream,
    buf: Vec<u8>,
    acked: u32,
    rejected: u32,
}

/// `afta-serve soak`: open N concurrent connections against an
/// in-process reactor, push `--frames` observations down each, and
/// verify nothing was lost — every frame must come back as `Observed`
/// or an accounted rejection, and the tenants' digests must carry
/// exactly the observed count (the serving NoLostShard invariant).
#[allow(clippy::too_many_lines)]
fn cmd_soak(args: &[String]) -> ExitCode {
    let connections: usize = num_flag(args, "--connections", 10_000);
    let tenants: u16 = num_flag(args, "--tenants", 8);
    let frames: u32 = num_flag(args, "--frames", 1);
    let workers: usize = num_flag(args, "--workers", 4);
    let timeout = Duration::from_millis(num_flag(args, "--timeout-ms", 60_000));
    let seed = seed_flag(args, 0xAF7A);

    let registry = Registry::new();
    let reactor_config = ReactorConfig {
        max_connections: connections + 64,
        workers,
        ..ReactorConfig::default()
    };
    let serve_config = ServeConfig {
        max_tenants: usize::from(tenants).max(1),
        // One stream per connection: the cap must clear connections/tenants.
        max_streams_per_tenant: u32::MAX,
        seed,
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

    // Register the tenants through a plain blocking control connection.
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

    // Open every connection, then go non-blocking for the sweep.  A
    // blocking connect returns once the kernel queues it for accept,
    // and std listens with a backlog of 128: connecting faster than the
    // reactor accepts overflows that queue, and each dropped SYN is
    // retransmitted only a second later.  So connect in batches of half
    // the backlog, each after the reactor has accepted the last.
    const CONNECT_BATCH: usize = 64;
    let mut conns: Vec<SoakConn> = Vec::with_capacity(connections);
    while conns.len() < connections {
        for _ in 0..CONNECT_BATCH.min(connections - conns.len()) {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nonblocking(true).expect("nonblocking client");
                    let _ = stream.set_nodelay(true);
                    conns.push(SoakConn {
                        stream,
                        buf: Vec::new(),
                        acked: 0,
                        rejected: 0,
                    });
                }
                Err(e) => {
                    eprintln!("soak connect {}/{connections} failed: {e}", conns.len());
                    return ExitCode::FAILURE;
                }
            }
        }
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

    // Push the observations.  Frames are small enough that the socket
    // buffer absorbs them; a WouldBlock here retries on the next pass.
    let mut sent: u64 = 0;
    for pass in 0..frames {
        for (i, conn) in conns.iter_mut().enumerate() {
            let tenant = TenantId(u16::try_from(i % usize::from(tenants)).expect("tenant fits"));
            let stream_id = u32::try_from(i / usize::from(tenants)).expect("stream fits");
            let frame = Frame::request(
                tenant,
                stream_id,
                Request::Observe {
                    key: "ballot".into(),
                    value: i64::try_from(i).unwrap_or(0) + i64::from(pass),
                },
            );
            let mut msg = Vec::new();
            write_framed(&mut msg, &frame.encode());
            if write_all_blocking(&mut conn.stream, &msg).is_err() {
                eprintln!("soak write on connection {i} failed");
                return ExitCode::FAILURE;
            }
            sent += 1;
        }
    }

    // Sweep for replies until everything is accounted or the budget is
    // spent.
    let mut scratch = vec![0u8; 8192];
    let expect_per_conn = frames;
    loop {
        let mut outstanding = 0u64;
        let mut progressed = false;
        for conn in &mut conns {
            if conn.acked + conn.rejected >= expect_per_conn {
                continue;
            }
            outstanding += 1;
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(n) => {
                        progressed = true;
                        conn.buf.extend_from_slice(&scratch[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            while let Some((bytes, used)) =
                next_framed(&conn.buf, u32::MAX).expect("no frame limit")
            {
                let reply = Frame::decode(bytes).expect("valid reply frame");
                conn.buf.drain(..used);
                match reply.body {
                    Body::Reply(Reply::Observed { .. }) => conn.acked += 1,
                    Body::Reply(Reply::Rejected { .. }) => conn.rejected += 1,
                    other => panic!("unexpected soak reply: {other:?}"),
                }
            }
        }
        if outstanding == 0 {
            break;
        }
        if started.elapsed() > timeout {
            eprintln!(
                "soak timed out with {outstanding} connections still waiting after {:?}",
                started.elapsed()
            );
            return ExitCode::FAILURE;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let observed: u64 = conns.iter().map(|c| u64::from(c.acked)).sum();
    let rejected: u64 = conns.iter().map(|c| u64::from(c.rejected)).sum();
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
    let code = write_json(args, &report);
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

/// `write_all` that rides out `WouldBlock` on a non-blocking socket.
fn write_all_blocking(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
