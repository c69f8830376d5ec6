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
use afta_sim::parse_seed;
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
    match command(&args[1..]) {
        Ok(code) => code,
        Err(refusal) => {
            eprintln!(
                "afta-serve {}: {refusal} (`afta-serve help` lists the flags)",
                args[0]
            );
            ExitCode::from(2)
        }
    }
}

/// A subcommand's command line: `--flag value` pairs, every flag one the
/// subcommand takes.  A subcommand reads all of its flags before it
/// binds or runs anything, so a refused command line does nothing.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Pairs each flag in `args` with the value after it.
    ///
    /// # Errors
    ///
    /// A flag that is not in `known`, or one with no value after it.
    fn parse(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter().map(String::as_str);
        while let Some(flag) = args.next() {
            if !known.contains(&flag) {
                return Err(format!("unknown flag {flag:?}"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag, value));
        }
        Ok(Flags(pairs))
    }

    /// The value after `name`, if it was given.
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|&&(flag, _)| flag == name)
            .map(|&(_, value)| value)
    }

    /// The number after `name`, or `default` when it was not given.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |value| {
            value.parse().map_err(|_| {
                let ty = std::any::type_name::<T>();
                format!("{name}: {value:?} does not parse as a {ty}")
            })
        })
    }

    /// Seed resolution order: `--seed`, then `AFTA_SEED`, then `default`,
    /// each read by [`parse_seed`] (decimal or `0x`-hex).  A malformed
    /// `--seed` is refused; an unset or malformed `AFTA_SEED` gives
    /// `default`.
    fn seed(&self, default: u64) -> Result<u64, String> {
        match self.get("--seed") {
            Some(value) => parse_seed(value)
                .ok_or_else(|| format!("--seed: {value:?} is neither decimal nor 0x-hex")),
            None => Ok(std::env::var("AFTA_SEED")
                .ok()
                .as_deref()
                .and_then(parse_seed)
                .unwrap_or(default)),
        }
    }
}

/// Writes `value` as JSON to `--json PATH` when the flag is present.
fn write_json<T: serde::Serialize>(flags: &Flags<'_>, value: &T) -> ExitCode {
    if let Some(path) = flags.get("--json") {
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
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--addr",
            "--max-connections",
            "--workers",
            "--max-tenants",
            "--mailbox-cap",
            "--retry-after-ms",
            "--seed",
        ],
    )?;
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:0");
    let reactor_config = ReactorConfig {
        max_connections: flags.num("--max-connections", 16_384)?,
        workers: flags.num("--workers", 4)?,
    };
    let serve_config = ServeConfig {
        max_tenants: flags.num("--max-tenants", 256)?,
        default_mailbox_cap: flags.num("--mailbox-cap", 64)?,
        retry_after_ms: flags.num("--retry-after-ms", 25)?,
        seed: flags.seed(0xAF7A)?,
        ..ServeConfig::default()
    };
    let registry = Registry::new();
    let reactor = match Reactor::bind(addr, reactor_config, serve_config, &registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return Ok(ExitCode::FAILURE);
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
fn cmd_e8(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--transport",
            "--tenants",
            "--clients",
            "--rounds",
            "--seed",
            "--json",
        ],
    )?;
    let config = ServeExperimentConfig {
        seed: flags.seed(42)?,
        tenants: flags.num("--tenants", 8)?,
        clients: flags.num("--clients", 16)?,
        rounds: flags.num("--rounds", 12)?,
        ..ServeExperimentConfig::default()
    };
    let which = flags.get("--transport").unwrap_or("both");
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
    Ok(match which {
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
        other => return Err(format!("--transport: {other:?} is not sim, tcp or both")),
    })
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
fn cmd_soak(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--connections",
            "--tenants",
            "--frames",
            "--workers",
            "--timeout-ms",
            "--seed",
            "--json",
        ],
    )?;
    let connections: usize = flags.num("--connections", 10_000)?;
    let tenants: u16 = flags.num("--tenants", 8)?;
    let frames: u32 = flags.num("--frames", 1)?;
    let workers: usize = flags.num("--workers", 4)?;
    let timeout = Duration::from_millis(flags.num("--timeout-ms", 60_000)?);
    let seed = flags.seed(0xAF7A)?;

    let registry = Registry::new();
    let reactor_config = ReactorConfig {
        max_connections: connections + 64,
        workers,
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
            return Ok(ExitCode::FAILURE);
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
                    return Ok(ExitCode::FAILURE);
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
                    return Ok(ExitCode::FAILURE);
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
                return Ok(ExitCode::FAILURE);
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
                return Ok(ExitCode::FAILURE);
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
            return Ok(ExitCode::FAILURE);
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
    let code = write_json(&flags, &report);
    let no_lost_shard = lost == 0 && digest_observes == observed;
    let held_them_all = peak >= i64::try_from(connections).unwrap_or(i64::MAX);
    if no_lost_shard && held_them_all {
        println!("soak: NoLostShard holds");
        Ok(code)
    } else {
        eprintln!(
            "soak FAILED: lost={lost} digest_observes={digest_observes} observed={observed} \
             peak={peak}/{connections}"
        );
        Ok(ExitCode::FAILURE)
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
