//! Multi-tenant serving walkthrough: three tenants hosted by one
//! `ServerCore`, driven in-process — registration, monitored
//! observations, a voting round with a barrier, quota backpressure, a
//! quiesce/evict teardown, and finally the E8 differential in
//! miniature (in process vs. TCP reactor, bit-identical digests).
//!
//! Run with `cargo run --example serve_tenants`.

use afta::serve::{
    differential_matches, run_serve_differential, ClientAddr, Enqueued, Frame, Reply, Request,
    ServeConfig, ServeExperimentConfig, ServerCore, TenantId,
};
use afta::telemetry::Registry;

/// Sends one request frame into the core and returns the decoded
/// replies (pumping the tenant when the frame was queued).
fn roundtrip(core: &mut ServerCore, addr: u64, frame: &Frame) -> Vec<Reply> {
    let outbound = match core.enqueue(ClientAddr(addr), &frame.encode()) {
        Enqueued::Handled(replies) | Enqueued::Rejected(replies) => replies,
        Enqueued::Queued(tenant) => core.pump(tenant),
    };
    outbound
        .into_iter()
        .filter_map(|(_, bytes)| match Frame::decode(&bytes).ok()?.body {
            afta::serve::Body::Reply(reply) => Some(reply),
            afta::serve::Body::Request(_) => None,
        })
        .collect()
}

fn main() {
    let telemetry = Registry::new();
    let mut core = ServerCore::new(ServeConfig::default(), &telemetry);

    // 1. Three tenants, each its own registry/monitor/voting stack.
    //    Tenant 2 asks for a deliberately tiny mailbox so we can watch
    //    backpressure later.
    for (tenant, cap) in [(0u16, 0usize), (1, 0), (2, 2)] {
        let register = Frame::request(
            TenantId(tenant),
            0,
            Request::RegisterTenant {
                expected_clients: 3,
                mailbox_cap: cap,
                ballot_min: -100,
                ballot_max: 100,
            },
        );
        let replies = roundtrip(&mut core, 1, &register);
        println!("register tenant {tenant}: {:?}", replies[0]);
    }

    // 2. Tenant 0: three client streams observe and ballot; the round
    //    barrier trips on the third ballot and every stream receives
    //    the broadcast RoundResult.
    for stream in 0..3u32 {
        let observe = Frame::request(
            TenantId(0),
            stream,
            Request::Observe {
                key: "ballot".into(),
                // Stream 2 escapes the declared +/-100 range: a clash.
                value: if stream == 2 {
                    40_000
                } else {
                    i64::from(stream)
                },
            },
        );
        for reply in roundtrip(&mut core, 100 + u64::from(stream), &observe) {
            println!("tenant 0 stream {stream} observe: {reply:?}");
        }
        let ballot = Frame::request(
            TenantId(0),
            stream,
            Request::Ballot {
                round: 1,
                value: "v7".into(),
            },
        );
        for reply in roundtrip(&mut core, 100 + u64::from(stream), &ballot) {
            match reply {
                Reply::RoundResult(result) => println!("  round broadcast: {}", result.line),
                other => println!("tenant 0 stream {stream} ballot: {other:?}"),
            }
        }
    }

    // 3. Tenant 2 floods its two-slot mailbox without being pumped:
    //    the third observation bounces with a retry-after hint instead
    //    of displacing anyone.
    for n in 0..3u32 {
        let observe = Frame::request(
            TenantId(2),
            n,
            Request::Observe {
                key: "ballot".into(),
                value: 1,
            },
        );
        match core.enqueue(ClientAddr(300 + u64::from(n)), &observe.encode()) {
            Enqueued::Queued(_) => println!("tenant 2 frame {n}: queued"),
            Enqueued::Rejected(replies) => {
                let frame = Frame::decode(&replies[0].1).expect("valid reply");
                println!("tenant 2 frame {n}: rejected -> {:?}", frame.body);
            }
            Enqueued::Handled(_) => unreachable!("observations are data frames"),
        }
    }
    core.pump_all();

    // 4. Teardown is part of the lifecycle: quiesce stops admission,
    //    evict returns the final digest as the handoff.
    let quiesce = Frame::request(TenantId(1), 0, Request::Quiesce);
    println!(
        "quiesce tenant 1: {:?}",
        roundtrip(&mut core, 1, &quiesce)[0]
    );
    let evict = Frame::request(TenantId(1), 0, Request::Evict);
    if let Reply::Evicted(digest) = &roundtrip(&mut core, 1, &evict)[0] {
        println!("evict tenant 1: digest {}", digest.digest);
    }

    // 5. The same core logic with and without a wire: the core called
    //    in process (the `sim` leg, as above) and the poll-based TCP
    //    reactor must produce bit-identical per-tenant digests (E8 in
    //    miniature; the pin-sized run is `afta-serve e8 --transport both`).
    let config = ServeExperimentConfig {
        tenants: 3,
        clients: 4,
        rounds: 3,
        ..ServeExperimentConfig::default()
    };
    let (sim, tcp) = run_serve_differential(&config, &Registry::disabled());
    for (a, b) in sim.digests.iter().zip(&tcp.digests) {
        println!(
            "tenant {}: sim {} | tcp {} | {}",
            a.tenant,
            a.digest,
            b.digest,
            if a == b { "identical" } else { "DIVERGED" }
        );
    }
    assert!(differential_matches(&sim, &tcp));
    println!(
        "differential: sim {} == tcp {} across {} rounds, {} clashes",
        sim.combined, tcp.combined, sim.rounds, sim.clashes
    );

    println!(
        "server totals: {} frames, {} queued, {} rejected",
        telemetry.counter("serve.frames").get(),
        telemetry.counter("serve.queued").get(),
        telemetry.counter("serve.rejected").get()
    );
}
