//! Output checks: every request gets exactly one ack of the right kind
//! and value, every verdict reaches all streams intact, digests equal
//! the reference fold, and the `serve.*` counters balance.

use afta_serve::proto::FRAME_HEADER_LEN;
use afta_serve::{Body, Frame, Reply, TenantDigest, TenantId};
use afta_telemetry::TelemetryReport;

use crate::traffic::{index, round_slot, Expected, Kind, STREAMS, TENANTS};

/// Failures counted against attempted requests, with the first few
/// reasons kept for the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Failures {
    /// Failures counted.
    pub count: u64,
    /// The first reasons.
    pub reasons: Vec<String>,
}

impl Failures {
    /// Counts one failure.
    pub fn add(&mut self, reason: impl FnOnce() -> String) {
        self.add_n(1, reason);
    }

    /// Counts `n` failures with one reason.
    pub fn add_n(&mut self, n: u64, reason: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.reasons.len() < 8 {
            self.reasons.push(reason());
        }
    }

    /// Folds `other` in.
    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Whether a reply frame carries a `RoundResult`, from its first body
/// bytes only (no JSON parse): what the flood receiver affords per
/// reply.
pub fn is_round_result(frame: &[u8]) -> bool {
    frame
        .get(FRAME_HEADER_LEN..)
        .is_some_and(|body| body.starts_with(b"{\"RoundResult\""))
}

/// Decodes a reply frame, checking it is one.
pub fn decode_reply(bytes: &[u8]) -> Result<(u16, u32, Reply), String> {
    let frame = Frame::decode(bytes).map_err(|e| format!("undecodable reply: {e}"))?;
    match frame.body {
        Body::Reply(reply) => Ok((frame.tenant.0, frame.stream, reply)),
        Body::Request(r) => Err(format!("server sent a request: {r:?}")),
    }
}

/// Checks one decoded reply against what was expected.
pub fn expect_reply(
    got: &(u16, u32, Reply),
    tenant: u16,
    stream: u32,
    want: &Reply,
) -> Result<(), String> {
    if (got.0, got.1) != (tenant, stream) {
        return Err(format!(
            "reply for t{}/s{} where t{tenant}/s{stream} was due",
            got.0, got.1
        ));
    }
    if &got.2 != want {
        return Err(format!(
            "t{tenant}/s{stream}: got {:?}, expected {want:?}",
            got.2
        ));
    }
    Ok(())
}

/// Compares the server's digests with the reference fold.
pub fn check_digests(got: &[TenantDigest], want: &[TenantDigest], failures: &mut Failures) {
    if got.len() != want.len() {
        failures.add(|| format!("{} digests for {} tenants", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            failures.add(|| {
                format!(
                    "tenant {} digest {g:?} differs from reference {w:?}",
                    w.tenant
                )
            });
        }
    }
}

/// Checks `serve.frames = handled + queued + rejected + bad_frames` and
/// that nothing was rejected.  Returns `(rejected, identity holds)`.
pub fn check_accounting(report: &TelemetryReport, failures: &mut Failures) -> (u64, bool) {
    let c = |name: &str| report.counter(name);
    let frames = c("serve.frames");
    let parts =
        c("serve.handled") + c("serve.queued") + c("serve.rejected") + c("serve.bad_frames");
    let ok = frames == parts;
    if !ok {
        failures
            .add(|| format!("serve.frames {frames} != handled+queued+rejected+bad_frames {parts}"));
    }
    let rejected = c("serve.rejected");
    if rejected > 0 {
        failures.add(|| format!("serve.rejected = {rejected}"));
    }
    (rejected, ok)
}

/// Where each reply of a TCP pass went, from frames in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matched {
    /// Arrival time of each request's ack (`u64::MAX`: none).
    pub ack_at: Vec<u64>,
    /// Arrival time of each verdict's last `RoundResult` (`u64::MAX`:
    /// not all arrived), at [`round_slot`].
    pub round_at: Vec<u64>,
    /// Acks matched.
    pub acks: u64,
    /// Verdicts whose `RoundResult` reached all streams.
    pub rounds: u64,
}

/// Matches reply frames (in arrival order, with arrival times) to the
/// requests of the first `rounds` rounds, per `(tenant, stream)` FIFO,
/// and verifies each against `expected`.
pub fn match_replies<'a>(
    frames: impl IntoIterator<Item = (&'a [u8], u64)>,
    rounds: u64,
    expected: &Expected,
    failures: &mut Failures,
) -> Matched {
    let streams = usize::from(TENANTS) * STREAMS as usize;
    let verdicts = rounds as usize * usize::from(TENANTS);
    let mut next_ack = vec![0u64; streams];
    let mut next_result = vec![0u64; streams];
    let mut copies = vec![0u32; verdicts];
    let mut m = Matched {
        ack_at: vec![u64::MAX; verdicts * STREAMS as usize * 2],
        round_at: vec![u64::MAX; verdicts],
        acks: 0,
        rounds: 0,
    };
    for (bytes, at) in frames {
        let got = match decode_reply(bytes) {
            Ok(g) => g,
            Err(e) => {
                failures.add(|| e);
                continue;
            }
        };
        let (tenant, stream) = (got.0, got.1);
        if tenant >= TENANTS || stream >= STREAMS {
            failures.add(|| format!("reply for unknown t{tenant}/s{stream}"));
            continue;
        }
        let s = usize::from(tenant) * STREAMS as usize + stream as usize;
        if let Reply::RoundResult(_) = got.2 {
            next_result[s] += 1;
            let round = next_result[s];
            if round > rounds {
                failures.add(|| format!("extra RoundResult {round} on t{tenant}/s{stream}"));
                continue;
            }
            let slot = round_slot(round, tenant);
            let want = Reply::RoundResult(expected.rounds[slot].clone());
            if let Err(e) = expect_reply(&got, tenant, stream, &want) {
                failures.add(|| e);
                continue;
            }
            copies[slot] += 1;
            if copies[slot] == STREAMS {
                m.round_at[slot] = at;
                m.rounds += 1;
            }
        } else {
            let k = next_ack[s];
            next_ack[s] += 1;
            let round = k / 2 + 1;
            if round > rounds {
                failures.add(|| format!("extra ack on t{tenant}/s{stream}: {:?}", got.2));
                continue;
            }
            let kind = if k.is_multiple_of(2) {
                Kind::Observe
            } else {
                Kind::Ballot
            };
            let i = index(round, tenant, stream, kind);
            match expect_reply(&got, tenant, stream, &expected.ack(i)) {
                Ok(()) => {
                    m.ack_at[i] = at;
                    m.acks += 1;
                }
                Err(e) => failures.add(|| e),
            }
        }
    }
    let missing_acks = m.ack_at.iter().filter(|&&a| a == u64::MAX).count();
    failures.add_n(missing_acks as u64, || {
        format!("{missing_acks} request(s) got no matching ack")
    });
    let incomplete = m.round_at.iter().filter(|&&a| a == u64::MAX).count();
    failures.add_n(incomplete as u64, || {
        format!("{incomplete} verdict(s) did not reach all {STREAMS} streams")
    });
    m
}

/// Encodes the replies a pass of `rounds` rounds must produce, in the
/// order a single-threaded server sends them — the matcher's test input
/// and the size of the TCP receive buffer.
pub fn expected_replies(expected: &Expected, rounds: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for round in 1..=rounds {
        for tenant in 0..TENANTS {
            for stream in 0..STREAMS {
                for kind in [Kind::Observe, Kind::Ballot] {
                    let i = index(round, tenant, stream, kind);
                    out.push(Frame::reply(TenantId(tenant), stream, expected.ack(i)).encode());
                }
            }
            let result = &expected.rounds[round_slot(round, tenant)];
            for stream in 0..STREAMS {
                out.push(
                    Frame::reply(TenantId(tenant), stream, Reply::RoundResult(result.clone()))
                        .encode(),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{reference, Traffic};

    fn fixture(rounds: u64) -> (Expected, Vec<Vec<u8>>) {
        let traffic = Traffic::generate(3, rounds);
        let expected = reference(&traffic);
        let replies = expected_replies(&expected, rounds);
        (expected, replies)
    }

    #[test]
    fn round_results_are_recognised_without_decoding() {
        let (_, replies) = fixture(1);
        let results = replies.iter().filter(|r| is_round_result(r)).count();
        assert_eq!(results, usize::from(TENANTS) * STREAMS as usize);
    }

    #[test]
    fn interleaved_tenants_and_streams_match_per_stream_fifo() {
        let (expected, replies) = fixture(3);
        // Deal the replies round-robin across tenants, reversing stream
        // order inside each tenant: any interleaving that keeps each
        // stream's own order must match the same way.
        let mut per_stream: Vec<Vec<&[u8]>> =
            vec![Vec::new(); usize::from(TENANTS) * STREAMS as usize];
        for r in &replies {
            let (t, s, _) = Frame::peek_header(r).unwrap();
            per_stream[usize::from(t.0) * STREAMS as usize + s as usize].push(r);
        }
        let mut order: Vec<(&[u8], u64)> = Vec::new();
        let mut at = 0u64;
        while per_stream.iter().any(|q| !q.is_empty()) {
            for q in per_stream.iter_mut().rev() {
                if !q.is_empty() {
                    order.push((q.remove(0), at));
                    at += 1;
                }
            }
        }
        let mut failures = Failures::default();
        let m = match_replies(order.iter().copied(), 3, &expected, &mut failures);
        assert_eq!(failures, Failures::default());
        assert_eq!(m.acks as usize, 3 * crate::traffic::PER_ROUND);
        assert_eq!(m.rounds, 3 * u64::from(TENANTS));
        assert!(m.ack_at.iter().all(|&a| a != u64::MAX));
    }

    #[test]
    fn lost_duplicated_or_corrupted_replies_fail() {
        let (expected, replies) = fixture(2);
        let clean: Vec<(&[u8], u64)> = replies.iter().map(|r| (r.as_slice(), 0)).collect();

        let mut lost = clean.clone();
        lost.remove(10);
        let mut f = Failures::default();
        match_replies(lost, 2, &expected, &mut f);
        assert!(f.count > 0, "a lost reply must fail");

        let mut dup = clean.clone();
        dup.insert(5, dup[4]);
        let mut f = Failures::default();
        match_replies(dup, 2, &expected, &mut f);
        assert!(f.count > 0, "a duplicated reply must fail");

        let mut bad = replies.clone();
        let last = bad.last_mut().unwrap();
        let at = last.len() - 3;
        last[at] ^= 1;
        let mut f = Failures::default();
        match_replies(bad.iter().map(|r| (r.as_slice(), 0)), 2, &expected, &mut f);
        assert!(f.count > 0, "a corrupted reply must fail");
    }

    #[test]
    fn tampered_digest_fails_the_check() {
        let (expected, _) = fixture(2);
        let mut f = Failures::default();
        check_digests(&expected.digests, &expected.digests, &mut f);
        assert_eq!(f.count, 0);
        let mut tampered = expected.digests.clone();
        tampered[3].digest = "0000000000000000".into();
        check_digests(&expected.digests, &tampered, &mut f);
        assert_eq!(f.count, 1);
    }
}
