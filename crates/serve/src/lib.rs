//! # afta-serve — assumption failure tolerance as an ambient service
//!
//! De Florio's §5 vision is monitoring, diagnosis, and rebinding
//! offered *to many applications at once* — a resident runtime hosting
//! recovery logic on behalf of its clients, not a library compiled into
//! each one.  This crate is that service for the AFTA stack:
//!
//! * **Many tenants, one server.**  Each [`Tenant`] owns a full
//!   single-tenant stack — its declared assumption and a count of the
//!   observations that broke it, an alpha-count monitor per client
//!   stream, majority voting with round barriers, and a redundancy
//!   controller — behind one shared frontend.
//! * **One multiplexed wire protocol.**  Every message is a
//!   [`proto::Frame`]: `[u16 tenant][u32 stream][u8 kind][JSON body]`,
//!   so any number of tenants and client streams share one socket.
//! * **Admission control and per-tenant quotas.**  Data requests pass
//!   through a bounded per-tenant mailbox, a queue capped at exactly
//!   the tenant's `mailbox_cap` ([`ServerCore`]); overflow rejects with
//!   a retry-after hint instead of shedding.
//! * **One network frontend**, the poll-based [`Reactor`]: one
//!   readiness loop over non-blocking sockets plus a small worker pool
//!   that pumps tenant mailboxes, instead of a thread per connection.
//! * **The deterministic story stays intact.**  The E8 differential
//!   ([`experiment`]) sends the same seeded traffic through the reactor
//!   and, in process on one thread, straight into a [`ServerCore`] (its
//!   `sim` leg), and demands bit-identical per-tenant digests from both.
//!
//! ## Quickstart (deterministic, in-process)
//!
//! ```
//! use afta_serve::experiment::{run_serve_experiment, ServeExperimentConfig};
//! use afta_telemetry::Registry;
//!
//! let config = ServeExperimentConfig {
//!     tenants: 2,
//!     clients: 3,
//!     rounds: 2,
//!     ..ServeExperimentConfig::default()
//! };
//! let report = run_serve_experiment(&config, &Registry::disabled());
//! assert_eq!(report.digests.len(), 2);
//! assert_eq!(report.rejects, 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod core;
pub mod experiment;
pub mod proto;
pub mod reactor;
pub mod tenant;

pub use crate::core::{ClientAddr, Enqueued, Outbound, ServeConfig, ServerCore};
pub use crate::experiment::{
    ballot_value, differential_matches, observe_value, run_serve_differential,
    run_serve_experiment, ServeExperimentConfig, ServeExperimentReport,
};
pub use crate::proto::{Body, Frame, RejectReason, Reply, Request, TenantDigest, TenantId};
pub use crate::reactor::{Reactor, ReactorConfig};
pub use crate::tenant::{Lifecycle, Tenant, TenantQuotas};

/// The `afta-serve` CLI surface, shared by the binary and the
/// documentation-sync test so `docs/OPERATIONS.md` can never document a
/// flag that does not exist.
pub const CLI_HELP: &str = "afta-serve — multi-tenant assumption-monitoring service

USAGE:
    afta-serve serve [--addr HOST:PORT] [--max-connections N] [--workers N]
                     [--max-tenants N] [--mailbox-cap N] [--retry-after-ms N]
    afta-serve e8    [--transport sim|tcp|both] [--tenants N] [--clients N]
                     [--rounds N] [--seed HEX|DEC] [--json PATH]
    afta-serve soak  [--connections N] [--tenants N] [--frames N]
                     [--workers N] [--timeout-ms N] [--json PATH]

COMMANDS:
    serve   Bind the poll-based reactor and host tenants until killed.
    e8      Run the E8 differential (in process vs. TCP loopback) and print
            the per-tenant digests; `both` exits nonzero on any mismatch.
    soak    Open N concurrent connections against an in-process reactor,
            drive one monitored observation per connection, and verify
            nothing is lost (the NoLostShard soak).

OPTIONS:
    --addr HOST:PORT      Listen address (default 127.0.0.1:0, printed on bind)
    --max-connections N   Reactor admission cap (default 16384)
    --workers N           Worker pool size (default 4)
    --max-tenants N       Tenant admission cap (default 256)
    --mailbox-cap N       Default per-tenant mailbox bound (default 64)
    --retry-after-ms N    Throttle hint for rejected clients (default 25)
    --transport KIND      sim | tcp | both (default both)
    --tenants N           Tenants in the experiment/soak (default 8)
    --clients N           Client streams per tenant (default 16)
    --rounds N            Voting rounds per tenant (default 12)
    --seed S              Master seed (default AFTA_SEED env, else 42)
    --connections N       Concurrent sockets for the soak (default 10000)
    --frames N            Observations per connection (default 1)
    --timeout-ms N        Soak wall-clock budget (default 60000)
    --json PATH           Also write the machine-readable report to PATH
";
