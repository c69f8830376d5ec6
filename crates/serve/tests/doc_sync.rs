//! Documentation-sync gate: `docs/OPERATIONS.md` and the code may not
//! drift apart.
//!
//! Two directions are enforced:
//!
//! * every `--flag` the manual mentions must exist in [`CLI_HELP`]
//!   (so the manual never documents a flag the binary rejects), and
//! * every field of [`ServeConfig`], [`TenantQuotas`], and
//!   [`ReactorConfig`] must be mentioned in the manual (so adding a
//!   knob without documenting it fails the build), as must every
//!   wire-level reject reason and every metric a server emits.

use afta_serve::{
    ClientAddr, Enqueued, Frame, ReactorConfig, RejectReason, Request, ServeConfig, ServerCore,
    TenantId, TenantQuotas, CLI_HELP,
};
use afta_telemetry::Registry;

fn operations_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OPERATIONS.md");
    std::fs::read_to_string(path).expect("docs/OPERATIONS.md exists")
}

/// Every `--foo-bar` token in `text`, deduplicated.
fn flags_in(text: &str) -> Vec<String> {
    let mut flags = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("--") {
        let start = i + at;
        let mut end = start + 2;
        // A flag starts with a letter; this skips table rules (`---`)
        // and em-dash runs.
        if end < bytes.len() && bytes[end].is_ascii_lowercase() {
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase()
                    || bytes[end] == b'-'
                    || bytes[end].is_ascii_digit())
            {
                end += 1;
            }
        }
        if end > start + 2 {
            let flag = text[start..end].to_string();
            if !flags.contains(&flag) {
                flags.push(flag);
            }
        }
        i = end;
    }
    flags
}

/// Field names out of a derived `Debug` render like
/// `ServeConfig { max_tenants: 256, .. }`.
fn debug_fields(debug: &str) -> Vec<String> {
    let body = debug.split_once('{').map(|(_, rest)| rest).unwrap_or(debug);
    body.split(',')
        .filter_map(|part| part.split_once(':'))
        .map(|(name, _)| name.trim().trim_matches('}').to_string())
        .filter(|name| name.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn every_documented_flag_exists_in_the_cli() {
    let doc = operations_md();
    // The manual also shows `afta-ci check` and `cargo test`
    // invocations; those flags belong to other binaries.
    let foreign = ["--bench", "--manifests", "--lib"];
    for flag in flags_in(&doc) {
        if foreign.contains(&flag.as_str()) {
            continue;
        }
        assert!(
            CLI_HELP.contains(&flag),
            "docs/OPERATIONS.md documents {flag}, which afta-serve does not accept"
        );
    }
}

#[test]
fn every_cli_flag_is_documented() {
    let doc = operations_md();
    for flag in flags_in(CLI_HELP) {
        assert!(
            doc.contains(&flag),
            "afta-serve accepts {flag}, which docs/OPERATIONS.md never mentions"
        );
    }
}

#[test]
fn every_config_knob_is_documented() {
    let doc = operations_md();
    for (what, debug) in [
        ("ServeConfig", format!("{:?}", ServeConfig::default())),
        ("TenantQuotas", format!("{:?}", TenantQuotas::default())),
        ("ReactorConfig", format!("{:?}", ReactorConfig::default())),
    ] {
        let fields = debug_fields(&debug);
        assert!(
            !fields.is_empty(),
            "no fields parsed out of {what}'s Debug: {debug}"
        );
        for field in fields {
            assert!(
                doc.contains(&field),
                "{what}.{field} is a real knob docs/OPERATIONS.md never mentions"
            );
        }
    }
}

#[test]
fn every_reject_reason_is_documented() {
    let doc = operations_md();
    for reason in [
        RejectReason::UnknownTenant,
        RejectReason::TenantExists,
        RejectReason::TenantLimit,
        RejectReason::Quiescing,
        RejectReason::QuotaExceeded,
        RejectReason::StreamLimit,
        RejectReason::BadFrame,
    ] {
        let wire = reason.to_string();
        assert!(
            doc.contains(&wire),
            "reject reason `{wire}` is on the wire but not in docs/OPERATIONS.md"
        );
    }
}

#[test]
fn every_server_metric_is_documented() {
    let doc = operations_md();
    for metric in [
        "serve.frames",
        "serve.handled",
        "serve.queued",
        "serve.rejected",
        "serve.bad_frames",
        "serve.reactor.connections",
        "serve.reactor.peak_connections",
        "serve.reactor.accepted",
        "serve.reactor.refused",
        "serve.reactor.closed",
        "serve.reactor.write_blocked",
        "serve.reactor.sweep",
    ] {
        assert!(
            doc.contains(metric),
            "metric `{metric}` is emitted but not in docs/OPERATIONS.md"
        );
    }

    // Per-tenant metrics: drive one tenant through every event that
    // records one, then look each emitted name up in §6 as
    // `serve.tenant.<id>.*`.
    let registry = Registry::new();
    let mut core = ServerCore::new(ServeConfig::default(), &registry);
    let observe = |value| Request::Observe {
        key: "ballot".into(),
        value,
    };
    for request in [
        Request::RegisterTenant {
            expected_clients: 1,
            mailbox_cap: 0,
            ballot_min: -10,
            ballot_max: 10,
        },
        observe(1),
        observe(99), // a clash
        Request::Ballot {
            round: 1,
            value: "v".into(),
        },
        // Dropped: round 1 is closed.
        Request::Ballot {
            round: 1,
            value: "v".into(),
        },
        Request::Quiesce,
        observe(1), // rejected: the tenant is quiescing
    ] {
        let frame = Frame::request(TenantId(3), 0, request).encode();
        if let Enqueued::Queued(tenant) = core.enqueue(ClientAddr(1), &frame) {
            core.pump(tenant);
        }
    }
    let section = doc
        .split_once("## 6.")
        .and_then(|(_, rest)| rest.split_once("## 7."))
        .expect("docs/OPERATIONS.md has sections 6 and 7")
        .0;
    let report = registry.report();
    let tenant_metrics: Vec<&String> = report
        .counters
        .keys()
        .chain(report.gauges.keys())
        .chain(report.histograms.keys())
        .filter(|name| name.starts_with("serve.tenant.3."))
        .collect();
    assert!(
        tenant_metrics.len() >= 7,
        "the drive reaches every tenant metric: {tenant_metrics:?}"
    );
    for name in tenant_metrics {
        let generic = name.replacen("serve.tenant.3.", "serve.tenant.<id>.", 1);
        assert!(
            section.contains(&format!("`{generic}`")),
            "metric `{name}` is emitted but `{generic}` is not in docs/OPERATIONS.md §6"
        );
    }
}
