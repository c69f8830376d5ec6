//! Tenant-churn fuzzing for the multi-tenant service (`afta-serve`).
//!
//! The fuzzer's fault grammar was written for the three in-process
//! strategies; this driver re-targets the same seeded [`Schedule`]s at
//! the serving layer, mapping each [`FaultKind`] onto a tenant-lifecycle
//! hazard:
//!
//! | schedule fault | serving hazard |
//! |---|---|
//! | `VoterCrash` | evict the tenant; re-register when the crash heals |
//! | `Partition` / `LinkBurst` | mute one client stream for the window |
//! | `SefiStorm` | observation flood against one tenant (quota pressure) |
//! | `ClashEdit` | re-bound a tenant's mailbox (E1 tightens, E2 loosens) |
//! | `ClockSkew` | a quiet step: no ballots, the round ticks out empty |
//!
//! Every step ends with a [`Request::Tick`] per live tenant, so rounds
//! always complete (missing ballots count as dissent) and the run can
//! check the serving tier of the invariant set:
//!
//! * [`Invariant::NoLostShard`] — every *admitted* observation is
//!   processed and acknowledged: the tenants' digests (evicted ones
//!   included) carry exactly as many observations as clients got
//!   `Observed` replies for;
//! * [`Invariant::BusAccounting`] — every frame is accounted:
//!   `serve.frames == serve.handled + serve.queued + serve.rejected +
//!   serve.bad_frames`;
//! * [`Invariant::DtofNonNegative`] — no completed round reports a
//!   distance-to-failure beyond its expected-ballot count;
//! * [`Invariant::NoLivelock`] — one round completes per tick issued:
//!   quota pressure may starve ballots, never round progress.
//!
//! [`Request::Tick`]: afta_serve::Request::Tick

use std::collections::HashMap;

use afta_serve::{
    ballot_value, observe_value, Body, ClientAddr, Enqueued, Frame, Outbound, Reply, Request,
    ServeConfig, ServerCore, TenantId,
};
use afta_telemetry::Registry;

use crate::invariant::{Invariant, Violation};
use crate::schedule::{ClashSide, FaultKind, Schedule};

/// Tenants the churn driver hosts (ids `0..SERVE_TENANTS`).
pub const SERVE_TENANTS: u16 = 4;
/// Client streams per tenant (ids `0..SERVE_CLIENTS`).
pub const SERVE_CLIENTS: u32 = 3;
/// Cap on the observation flood one `SefiStorm` maps to.
const FLOOD_CAP: u32 = 16;

/// What one churn run did and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeChurnReport {
    /// Virtual steps executed.
    pub steps: u64,
    /// Data frames submitted (observes, ballots, ticks, floods).
    pub sent: u64,
    /// `Observed` acknowledgements received.
    pub observed: u64,
    /// Rejections received (quota, lifecycle, unknown tenant).
    pub rejected: u64,
    /// Voting rounds completed across all tenant registrations.
    pub rounds: u64,
    /// Tenant evictions the schedule forced.
    pub evictions: u64,
    /// Invariant violations (empty on a passing run).
    pub violations: Vec<Violation>,
}

impl ServeChurnReport {
    /// Whether the run upheld every serving invariant.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-run driver state outside the server.
struct Churn {
    core: ServerCore,
    registry: Registry,
    live: Vec<bool>,
    revive_at: HashMap<u16, u64>,
    muted_until: HashMap<(u16, u32), u64>,
    next_round: Vec<u64>,
    ticks_issued: u64,
    sent: u64,
    observed: u64,
    rejected: u64,
    evictions: u64,
    /// Rounds and observes banked from evicted registrations.
    banked_rounds: u64,
    banked_observes: u64,
    violations: Vec<Violation>,
}

/// Replays `schedule` as tenant churn against a fresh [`ServerCore`]
/// and checks the serving invariants.  Fully deterministic: the same
/// schedule produces the same report.
#[must_use]
pub fn run_serve_churn(schedule: &Schedule, registry: &Registry) -> ServeChurnReport {
    let config = ServeConfig {
        max_tenants: usize::from(SERVE_TENANTS) * 2,
        default_mailbox_cap: 8,
        ..ServeConfig::default()
    };
    let mut churn = Churn {
        core: ServerCore::new(config, registry),
        registry: registry.clone(),
        live: vec![false; usize::from(SERVE_TENANTS)],
        revive_at: HashMap::new(),
        muted_until: HashMap::new(),
        next_round: vec![1; usize::from(SERVE_TENANTS)],
        ticks_issued: 0,
        sent: 0,
        observed: 0,
        rejected: 0,
        evictions: 0,
        banked_rounds: 0,
        banked_observes: 0,
        violations: Vec::new(),
    };
    for t in 0..SERVE_TENANTS {
        churn.register(t, 0);
    }
    for step in 0..schedule.max_steps {
        let mut quiet = false;
        for event in schedule.events.iter().filter(|e| e.at == step) {
            match &event.kind {
                FaultKind::VoterCrash {
                    voter,
                    revive_after,
                } => {
                    let t = voter % SERVE_TENANTS;
                    churn.evict(t, step);
                    if *revive_after > 0 {
                        churn.revive_at.insert(t, step + revive_after);
                    }
                }
                FaultKind::Partition { a, b, heal_after } => {
                    let key = (b % SERVE_TENANTS, u32::from(*a) % SERVE_CLIENTS);
                    let until = if *heal_after == 0 {
                        u64::MAX
                    } else {
                        step + heal_after
                    };
                    churn.muted_until.insert(key, until);
                }
                FaultKind::LinkBurst { from, to, len, .. } => {
                    let key = (to % SERVE_TENANTS, u32::from(*from) % SERVE_CLIENTS);
                    churn.muted_until.insert(key, step + len);
                }
                FaultKind::SefiStorm { flips, .. } => {
                    let t = u16::try_from(flips % u32::from(SERVE_TENANTS)).expect("t < 4");
                    churn.flood(t, (*flips).min(FLOOD_CAP), step);
                }
                FaultKind::ClashEdit { side } => {
                    let t = u16::try_from(step % u64::from(SERVE_TENANTS)).expect("t < 4");
                    let cap = match side {
                        ClashSide::E1 => 2,
                        ClashSide::E2 => 16,
                    };
                    let bounced = churn.core.set_tenant_mailbox_cap(TenantId(t), cap);
                    churn.account(&bounced, step);
                }
                FaultKind::ClockSkew { .. } => quiet = true,
            }
        }
        let due: Vec<u16> = churn
            .revive_at
            .iter()
            .filter(|&(_, &at)| at <= step)
            .map(|(&t, _)| t)
            .collect();
        for t in due {
            churn.revive_at.remove(&t);
            churn.register(t, step);
        }
        if !quiet {
            for t in 0..SERVE_TENANTS {
                let round = churn.next_round[usize::from(t)];
                for c in 0..SERVE_CLIENTS {
                    if churn.muted_until.get(&(t, c)).is_some_and(|&u| u > step) {
                        continue;
                    }
                    churn.data(
                        t,
                        c,
                        Request::Observe {
                            key: "ballot".into(),
                            value: observe_value(schedule.seed, t, c, round),
                        },
                        step,
                    );
                    churn.data(
                        t,
                        c,
                        Request::Ballot {
                            round,
                            value: ballot_value(schedule.seed, t, c, round),
                        },
                        step,
                    );
                }
            }
        }
        // Drain whatever was admitted, then force the rounds shut and
        // drain again — a tick always finds mailbox room this way.
        let out = churn.core.pump_all();
        churn.account(&out, step);
        for t in 0..SERVE_TENANTS {
            if !churn.live[usize::from(t)] {
                continue;
            }
            let round = churn.next_round[usize::from(t)];
            churn.data(t, 0, Request::Tick { round }, step);
            churn.next_round[usize::from(t)] = round + 1;
            churn.ticks_issued += 1;
        }
        let out = churn.core.pump_all();
        churn.account(&out, step);
    }
    churn.finish(schedule.max_steps)
}

impl Churn {
    /// Registers tenant `t` (initial or post-crash re-registration).
    fn register(&mut self, t: u16, step: u64) {
        let frame = Frame::request(
            TenantId(t),
            0,
            Request::RegisterTenant {
                expected_clients: SERVE_CLIENTS,
                mailbox_cap: 0,
                ballot_min: -100,
                ballot_max: 100,
            },
        );
        match self.core.enqueue(self.addr(t, 0), &frame.encode()) {
            Enqueued::Handled(out) => self.account(&out, step),
            other => self.violations.push(Violation {
                invariant: Invariant::NoLivelock,
                strategy: "serve".into(),
                step,
                detail: format!("t{t} registration was not handled inline: {other:?}"),
            }),
        }
        self.live[usize::from(t)] = true;
        self.next_round[usize::from(t)] = 1;
    }

    /// Evicts tenant `t`, counting the replies to what it still had
    /// queued and banking its final digest totals.
    fn evict(&mut self, t: u16, step: u64) {
        if !self.live[usize::from(t)] {
            return;
        }
        let frame = Frame::request(TenantId(t), 0, Request::Evict);
        match self.core.enqueue(self.addr(t, 0), &frame.encode()) {
            Enqueued::Handled(mut out) => {
                // The digest comes last, after the answers to the
                // tenant's queued requests.
                let last = out
                    .pop()
                    .map(|(_, bytes)| Frame::decode(&bytes).expect("server frames decode").body);
                self.account(&out, step);
                match last {
                    Some(Body::Reply(Reply::Evicted(digest))) => {
                        self.banked_rounds += digest.rounds;
                        self.banked_observes += digest.observes;
                    }
                    other => self.violations.push(Violation {
                        invariant: Invariant::NoLivelock,
                        strategy: "serve".into(),
                        step,
                        detail: format!("t{t} eviction answered {other:?}"),
                    }),
                }
            }
            other => self.violations.push(Violation {
                invariant: Invariant::NoLivelock,
                strategy: "serve".into(),
                step,
                detail: format!("t{t} eviction was not handled inline: {other:?}"),
            }),
        }
        self.live[usize::from(t)] = false;
        self.evictions += 1;
    }

    /// The observation flood a `SefiStorm` maps to: `n` back-to-back
    /// observes with no pump in between, so a tight mailbox must start
    /// rejecting — and account for every rejection.
    fn flood(&mut self, t: u16, n: u32, step: u64) {
        for i in 0..n {
            self.data(
                t,
                0,
                Request::Observe {
                    key: "ballot".into(),
                    value: i64::from(i),
                },
                step,
            );
        }
    }

    /// Submits one data request and accounts for the admission verdict.
    fn data(&mut self, t: u16, c: u32, request: Request, step: u64) {
        let frame = Frame::request(TenantId(t), c, request);
        self.sent += 1;
        match self.core.enqueue(self.addr(t, c), &frame.encode()) {
            Enqueued::Queued(_) => {}
            Enqueued::Handled(out) | Enqueued::Rejected(out) => self.account(&out, step),
        }
    }

    /// Counts replies and checks per-round properties.
    fn account(&mut self, out: &[Outbound], step: u64) {
        for (_, bytes) in out {
            let frame = Frame::decode(bytes).expect("server frames decode");
            match frame.body {
                Body::Reply(Reply::Observed { .. }) => self.observed += 1,
                Body::Reply(Reply::Rejected { .. }) => self.rejected += 1,
                Body::Reply(Reply::RoundResult(result)) if result.dtof > result.n => {
                    self.violations.push(Violation {
                        invariant: Invariant::DtofNonNegative,
                        strategy: "serve".into(),
                        step,
                        detail: format!(
                            "round {} of t{} reports dtof {} beyond n {}",
                            result.round, frame.tenant.0, result.dtof, result.n
                        ),
                    });
                }
                _ => {}
            }
        }
    }

    /// The churn driver's synthetic return address for `(t, c)`.
    #[allow(clippy::unused_self)]
    fn addr(&self, t: u16, c: u32) -> ClientAddr {
        ClientAddr(1000 + u64::from(t) * 100 + u64::from(c))
    }

    /// Final digests, the cross-checks, and the report.
    fn finish(mut self, steps: u64) -> ServeChurnReport {
        let out = self.core.pump_all();
        self.account(&out, steps);
        let mut total_rounds = self.banked_rounds;
        let mut total_observes = self.banked_observes;
        for tenant in self.core.tenant_ids() {
            let digest = self.core.tenant_digest(tenant).expect("hosted tenant");
            total_rounds += digest.rounds;
            total_observes += digest.observes;
        }
        if total_observes != self.observed {
            self.violations.push(Violation {
                invariant: Invariant::NoLostShard,
                strategy: "serve".into(),
                step: steps,
                detail: format!(
                    "digests carry {total_observes} observations but clients got {} acks",
                    self.observed
                ),
            });
        }
        if total_rounds != self.ticks_issued {
            self.violations.push(Violation {
                invariant: Invariant::NoLivelock,
                strategy: "serve".into(),
                step: steps,
                detail: format!(
                    "{} ticks issued but {total_rounds} rounds completed",
                    self.ticks_issued
                ),
            });
        }
        let frames = self.registry.counter("serve.frames").get();
        let accounted = self.registry.counter("serve.handled").get()
            + self.registry.counter("serve.queued").get()
            + self.registry.counter("serve.rejected").get()
            + self.registry.counter("serve.bad_frames").get();
        if frames != accounted {
            self.violations.push(Violation {
                invariant: Invariant::BusAccounting,
                strategy: "serve".into(),
                step: steps,
                detail: format!("serve.frames {frames} != accounted {accounted}"),
            });
        }
        ServeChurnReport {
            steps,
            sent: self.sent,
            observed: self.observed,
            rejected: self.rejected,
            rounds: total_rounds,
            evictions: self.evictions,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{generate, Profile};

    #[test]
    fn churn_is_deterministic() {
        let schedule = generate(0xAF7A, 28, Profile::Wild);
        let a = run_serve_churn(&schedule, &Registry::new());
        let b = run_serve_churn(&schedule, &Registry::new());
        assert_eq!(a, b);
    }

    #[test]
    fn churn_battery_upholds_the_serving_invariants() {
        for seed in 0xAF7A..0xAF7A + 24 {
            let schedule = generate(seed, 28, Profile::Battery);
            let report = run_serve_churn(&schedule, &Registry::new());
            assert!(
                report.passed(),
                "seed {seed:#x} violated: {:?}",
                report.violations
            );
            assert!(report.sent > 0 && report.rounds > 0);
        }
    }

    #[test]
    fn wild_churn_keeps_the_implementation_invariants() {
        // Wild schedules may evict tenants forever or starve ballots;
        // the implementation tier (accounting, no lost observations)
        // must hold regardless.
        let mut evictions = 0;
        let mut rejected = 0;
        for seed in 0x5EED..0x5EED + 24 {
            let schedule = generate(seed, 28, Profile::Wild);
            let report = run_serve_churn(&schedule, &Registry::new());
            let hard: Vec<_> = report
                .violations
                .iter()
                .filter(|v| !v.invariant.is_policy())
                .collect();
            assert!(hard.is_empty(), "seed {seed:#x} violated: {hard:?}");
            evictions += report.evictions;
            rejected += report.rejected;
        }
        assert!(evictions > 0, "the wild battery must churn tenants");
        assert!(rejected > 0, "the wild battery must exercise quotas");
    }
}
