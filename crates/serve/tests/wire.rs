//! The wire codec against its serde reference.
//!
//! `Frame::encode` must write the bytes `serde_json::to_string` renders,
//! and `Frame::decode` must accept exactly those bytes: a body decodes
//! when it is the encoding of what it decodes to, and not otherwise.
//! The decoder is held to an oracle built from serde alone, the same
//! header checks followed by `serde_json::from_str` into the types'
//! `Deserialize` derives, accepting the body only if
//! `serde_json::to_string` renders the value back to it.  The two are
//! compared on hand-written cases, on every sample frame and on seeded
//! byte mutants of encoded frames, and every accepted input must encode
//! back to its own bytes.  The same mutants then go through
//! `ServerCore`, which must answer and count each of them without
//! panicking.  A frame copied to another stream with `Frame::restream`,
//! as a round's fan-out copies it, must be the frame `Frame::encode`
//! writes for that stream.

use afta_serve::proto::{ProtoError, RoundResult, FRAME_HEADER_LEN, KIND_REPLY, KIND_REQUEST};
use afta_serve::{
    Body, ClientAddr, Enqueued, Frame, RejectReason, Reply, Request, ServeConfig, ServerCore,
    TenantDigest, TenantId,
};
use afta_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One frame of every request and reply variant, with the extreme
/// integers and strings full of characters JSON escapes.
fn samples() -> Vec<Frame> {
    // Every control character, the two escaped printables, DEL, a
    // slash (never escaped) and multi-byte UTF-8.
    let awkward: String = (0u8..0x20)
        .map(char::from)
        .chain("\"\\/\u{7f} é ✓ 😀".chars())
        .collect();
    let texts = ["", "v12", awkward.as_str()];
    let digest = |text: &str| TenantDigest {
        tenant: u16::MAX,
        rounds: u64::MAX,
        observes: 0,
        clashes: 1,
        rejected: 2,
        quarantined: u32::MAX,
        digest: text.into(),
    };
    let round = |value: Option<&str>, text: &str| RoundResult {
        round: u64::MAX,
        n: 16,
        ballots: 15,
        value: value.map(Into::into),
        dissent: value.map(|_| 0),
        dtof: u32::MAX,
        decision: text.into(),
        line: text.into(),
    };
    let mut requests = vec![
        Request::RegisterTenant {
            expected_clients: u32::MAX,
            mailbox_cap: usize::MAX,
            ballot_min: i64::MIN,
            ballot_max: i64::MAX,
        },
        Request::RegisterTenant {
            expected_clients: 0,
            mailbox_cap: 0,
            ballot_min: -1,
            ballot_max: 0,
        },
        Request::Quiesce,
        Request::Evict,
        Request::Tick { round: 0 },
        Request::Digest,
    ];
    let mut replies = vec![
        Reply::Registered { tenant: 0 },
        Reply::Quiesced { tenant: u16::MAX },
        Reply::Observed { satisfied: true },
        Reply::Observed { satisfied: false },
        Reply::BallotAccepted { round: u64::MAX },
        Reply::RoundResult(round(None, "none")),
    ];
    for text in texts {
        requests.push(Request::Observe {
            key: text.into(),
            value: i64::MIN,
        });
        requests.push(Request::Ballot {
            round: 1,
            value: text.into(),
        });
        replies.push(Reply::RoundResult(round(Some(text), text)));
        replies.push(Reply::Evicted(digest(text)));
        replies.push(Reply::Digest(digest(text)));
    }
    replies.extend(
        [
            RejectReason::UnknownTenant,
            RejectReason::TenantExists,
            RejectReason::TenantLimit,
            RejectReason::Quiescing,
            RejectReason::QuotaExceeded,
            RejectReason::StreamLimit,
            RejectReason::BadFrame,
        ]
        .map(|reason| Reply::Rejected {
            reason,
            retry_after_ms: 25,
        }),
    );
    requests
        .into_iter()
        .map(|r| Frame::request(TenantId(0x0102), 0x0304_0506, r))
        .chain(
            replies
                .into_iter()
                .map(|r| Frame::reply(TenantId(u16::MAX), u32::MAX, r)),
        )
        .collect()
}

/// `Frame::decode` as serde would do it: the same header checks, then
/// the body through [`rendered_back`].
fn oracle(bytes: &[u8]) -> Result<Frame, ProtoError> {
    let (tenant, stream, kind) = Frame::peek_header(bytes)?;
    let body = std::str::from_utf8(&bytes[FRAME_HEADER_LEN..])
        .map_err(|e| ProtoError::BadBody(e.to_string()))?;
    let body = match kind {
        KIND_REQUEST => Body::Request(rendered_back(body)?),
        KIND_REPLY => Body::Reply(rendered_back(body)?),
        other => return Err(ProtoError::BadKind(other)),
    };
    Ok(Frame {
        tenant,
        stream,
        body,
    })
}

/// `body` parsed by `serde_json::from_str`, kept only when
/// `serde_json::to_string` renders the value back to `body` itself.
fn rendered_back<T: Serialize + Deserialize>(body: &str) -> Result<T, ProtoError> {
    let bad = |e: serde_json::Error| ProtoError::BadBody(e.to_string());
    let value: T = serde_json::from_str(body).map_err(bad)?;
    if serde_json::to_string(&value).map_err(bad)? == body {
        Ok(value)
    } else {
        Err(ProtoError::BadBody("serde renders it otherwise".into()))
    }
}

/// Asserts that the decoder and the oracle agree on `bytes`: equal
/// frames that encode back to `bytes`, or the same error but for the
/// text of a `BadBody`.  Returns whether both decoded it.
fn agree(bytes: &[u8]) -> bool {
    let (got, want) = (Frame::decode(bytes), oracle(bytes));
    match (&got, &want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "on {}", bytes.escape_ascii());
            assert_eq!(a.encode(), bytes, "re-encoding {}", bytes.escape_ascii());
        }
        (Err(ProtoError::BadBody(_)), Err(ProtoError::BadBody(_))) => {}
        (Err(a), Err(b)) => assert_eq!(a, b, "on {}", bytes.escape_ascii()),
        _ => panic!(
            "decoder {got:?} but serde {want:?} on {}",
            bytes.escape_ascii()
        ),
    }
    got.is_ok()
}

/// A frame of `kind` around `body`.
fn framed(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0, 1, 0, 0, 0, 2, kind];
    bytes.extend_from_slice(body);
    bytes
}

#[test]
fn encode_writes_the_bytes_serde_renders() {
    for frame in samples() {
        let (kind, json) = match &frame.body {
            Body::Request(r) => (KIND_REQUEST, serde_json::to_string(r).unwrap()),
            Body::Reply(r) => (KIND_REPLY, serde_json::to_string(r).unwrap()),
        };
        let mut want = frame.tenant.0.to_be_bytes().to_vec();
        want.extend_from_slice(&frame.stream.to_be_bytes());
        want.push(kind);
        want.extend_from_slice(json.as_bytes());
        let got = frame.encode();
        assert_eq!(
            String::from_utf8_lossy(&got[FRAME_HEADER_LEN..]),
            json,
            "{frame:?}"
        );
        assert_eq!(got, want, "{frame:?}");
        assert_eq!(got.capacity(), got.len(), "sized to the frame: {frame:?}");
        assert_eq!(Frame::decode(&got).unwrap(), frame);
        assert!(agree(&got));
    }
}

#[test]
fn a_restreamed_encoding_is_the_encoding_for_that_stream() {
    for frame in samples() {
        let encoded = frame.encode();
        for stream in [0, 1, 255, 65_536, u32::MAX] {
            let mut copy = encoded.clone();
            Frame::restream(&mut copy, stream);
            let fresh = Frame {
                stream,
                ..frame.clone()
            };
            assert_eq!(copy, fresh.encode(), "stream {stream}: {frame:?}");
        }
    }
}

/// Request bodies, each with whether the oracle accepts it, one group
/// per part of the encoder's form.
const REQUESTS: &[(&[u8], bool)] = &[
    // No whitespace before, between or after tokens, and nothing after
    // the body.
    (b" \t\r\n{ \"Tick\" :\n{\t\"round\"\r: 5 } } \n", false),
    (b"\r\n\"Digest\"\t", false),
    (b"{\"Tick\":{\"round\":5}} x", false),
    (b"{\"Tick\":{\"round\":5}}{}", false),
    (b"{\"Tick\":\x0c{\"round\":5}}", false),
    (b" ", false),
    (b"", false),
    (b"{\"Tick\":{\"round\":5}}", true),
    // Fields in declaration order only.
    (b"{\"Observe\":{\"value\":-3,\"key\":\"ballot\"}}", false),
    (b"{\"Observe\":{\"key\":\"ballot\",\"value\":-3}}", true),
    (
        b"{\"RegisterTenant\":{\"ballot_max\":1,\"ballot_min\":-1,\"mailbox_cap\":0,\"expected_clients\":3}}",
        false,
    ),
    (
        b"{\"RegisterTenant\":{\"expected_clients\":3,\"mailbox_cap\":0,\"ballot_min\":-1,\"ballot_max\":1}}",
        true,
    ),
    // No unknown field, whatever it holds, valid JSON or not.
    (b"{\"Tick\":{\"x\":1,\"round\":5}}", false),
    (
        b"{\"Tick\":{\"round\":5,\"x\":[1,{\"y\":null},true,false,\"s\\n\",-2.5e+3,1E9,1.,01]}}",
        false,
    ),
    (
        b"{\"Tick\":{\"round\":5,\"x\":[18446744073709551616,-9223372036854775809,1e999]}}",
        false,
    ),
    (b"{\"Tick\":{\"round\":5,\"x\":[],\"y\":{},\"z\":\"\"}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":1e}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":-}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":--1}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":1-2}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":.5}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":[1,]}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":{\"a\":1,}}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":{1:1}}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":nul}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":truex}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":\"\\q\"}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":\"\\ud800\"}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\":\"a\x01\"}}", false),
    (b"{\"Tick\":{\"round\":5,\"x\"}}", false),
    (b"{\"Tick\":{\"round\":5,}}", false),
    // No repeated field.
    (b"{\"Tick\":{\"round\":5,\"round\":6}}", false),
    (b"{\"Tick\":{\"round\":5,\"round\":\"six\"}}", false),
    (b"{\"Tick\":{\"round\":5,\"round\":six}}", false),
    (b"{\"Tick\":{\"round\":\"five\",\"round\":5}}", false),
    // No missing field.
    (b"{\"Tick\":{}}", false),
    (b"{\"Observe\":{\"key\":\"k\"}}", false),
    (b"{\"Tick\":{\"round\\u0000\":5}}", false),
    // Externally tagged enums: a unit variant only as a string, a data
    // variant only as an object of exactly one entry.
    (b"\"Quiesce\"", true),
    (b"{\"Quiesce\":null}", false),
    (b"{\"Quiesce\":{}}", false),
    (b"\"Observe\"", false),
    (b"\"quiesce\"", false),
    (b"{\"Tick\":5}", false),
    (b"{\"Tick\":[5]}", false),
    (b"{\"Tick\":{\"round\":5},\"Tick\":{\"round\":5}}", false),
    (b"{\"Nope\":{\"round\":5}}", false),
    (b"{}", false),
    (b"[]", false),
    (b"null", false),
    // Names as the encoder writes them, never escaped.
    (b"{\"Obs\\u0065rve\":{\"k\\u0065y\":\"k\",\"value\":1}}", false),
    (b"\"Quiesc\\u0065\"", false),
    (b"{\"Tick\":{\"r\\u006Fund\":5}}", false),
    (b"{\"Tick\":{\"round\\u0000\":7,\"round\":5}}", false),
    // Strings: the short escapes, `\u00xx` in lowercase for the other
    // control characters and nothing else escaped; no raw control
    // character, and DEL, `/` and non-ASCII text verbatim.
    (
        b"{\"Observe\":{\"key\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\",\"value\":0}}",
        false,
    ),
    (
        b"{\"Observe\":{\"key\":\"\\\"\\\\\\b\\f\\n\\r\\t\",\"value\":0}}",
        true,
    ),
    (b"{\"Observe\":{\"key\":\"/\",\"value\":0}}", true),
    (b"{\"Observe\":{\"key\":\"\\u00e9\\u00E9\\u0000\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\u0000\\u001f\\u000b\",\"value\":0}}", true),
    (b"{\"Observe\":{\"key\":\"\\u001F\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\u000a\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\u0020\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\u007f\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\ud83d\\ude00\\uD83D\\uDE00\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\x7f\xc3\xa9\xe2\x9c\x93\",\"value\":0}}", true),
    (b"{\"Observe\":{\"key\":\"\\ud83d\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\ud83dx\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\ud83d\\u0041\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\ude00\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\u12\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\u12g4\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\\x\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"a\tb\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"a\x1f\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"a,\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":'a',\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":null,\"value\":0}}", false),
    // Non-ASCII bytes only inside strings, and there only as whole UTF-8
    // characters: not split by an escape or the closing quote, and no
    // lone continuation byte, encoded surrogate or overlong form.  Not in
    // a name, after the body or inside an integer.
    (b"{\"Observe\":{\"key\":\"\xf0\x9f\x98\x80\",\"value\":0}}", true),
    (b"{\"Observe\":{\"key\":\"\xc3\\n\xa9\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\xc3\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\xa9\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\xed\xa0\x80\",\"value\":0}}", false),
    (b"{\"Observe\":{\"key\":\"\xc0\xaf\",\"value\":0}}", false),
    (b"{\"Obs\xffrve\":{\"key\":\"k\",\"value\":0}}", false),
    (b"{\"Observe\":{\"k\xc3\xa9y\":\"k\",\"value\":0}}", false),
    (b"\"Dig\xc3\xa9st\"", false),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":0}}\xc3\xa9", false),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":5\xff}}", false),
    // Integers in canonical decimal: `0`, or no leading zero, and a `-`
    // only before a negative `i64`; then the field's range.
    (b"{\"Tick\":{\"round\":007}}", false),
    (b"{\"Tick\":{\"round\":00}}", false),
    (b"{\"Tick\":{\"round\":0}}", true),
    (b"{\"Tick\":{\"round\":-0}}", false),
    (b"{\"Tick\":{\"round\":18446744073709551615}}", true),
    (b"{\"Tick\":{\"round\":18446744073709551616}}", false),
    (b"{\"Tick\":{\"round\":1e2}}", false),
    (b"{\"Tick\":{\"round\":1.0}}", false),
    (b"{\"Tick\":{\"round\":-1}}", false),
    (b"{\"Tick\":{\"round\":+1}}", false),
    (b"{\"Tick\":{\"round\":1-2}}", false),
    (b"{\"Tick\":{\"round\":-}}", false),
    (b"{\"Tick\":{\"round\":}}", false),
    (b"{\"Tick\":{\"round\":\"1\"}}", false),
    (b"{\"Tick\":{\"round\":true}}", false),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":-9223372036854775808}}", true),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":9223372036854775808}}", false),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":-9223372036854775809}}", false),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":-01}}", false),
    (b"{\"Observe\":{\"key\":\"k\",\"value\":-0}}", false),
    (
        b"{\"RegisterTenant\":{\"expected_clients\":4294967295,\"mailbox_cap\":18446744073709551615,\"ballot_min\":0,\"ballot_max\":0}}",
        true,
    ),
    (
        b"{\"RegisterTenant\":{\"expected_clients\":4294967296,\"mailbox_cap\":0,\"ballot_min\":0,\"ballot_max\":0}}",
        false,
    ),
];

/// Reply bodies, as [`REQUESTS`], for the types only replies carry.
const REPLIES: &[(&[u8], bool)] = &[
    (b"{\"Registered\":{\"tenant\":65535}}", true),
    (b"{\"Registered\":{\"tenant\":65536}}", false),
    (b"\"Registered\"", false),
    (b"{\"Observed\":{\"satisfied\":true}}", true),
    (b"{\"Observed\":{\"satisfied\":false}}", true),
    (b"{\"Observed\":{\"satisfied\":tru}}", false),
    (b"{\"Observed\":{\"satisfied\":1}}", false),
    (b"{\"Observed\":{\"satisfied\":\"true\"}}", false),
    (b"{\"Observed\":{\"satisfied\":null}}", false),
    (b"{\"Rejected\":{\"retry_after_ms\":0,\"reason\":\"BadFrame\"}}", false),
    (b"{\"Rejected\":{\"reason\":\"BadFrame\",\"retry_after_ms\":0}}", true),
    (b"{\"Rejected\":{\"reason\":\"Bad\\u0046rame\",\"retry_after_ms\":0}}", false),
    (b"{\"Rejected\":{\"reason\":{\"BadFrame\":null},\"retry_after_ms\":0}}", false),
    (b"{\"Rejected\":{\"reason\":\"Nope\",\"retry_after_ms\":0}}", false),
    (b"{\"Rejected\":{\"reason\":\"BadFrame\"}}", false),
    // `Option` fields are always present: `null` or a value of their
    // type.
    (
        b"{\"RoundResult\":{\"round\":1,\"n\":3,\"ballots\":2,\"dtof\":0,\"decision\":\"d\",\"line\":\"l\"}}",
        false,
    ),
    (
        b"{\"RoundResult\":{\"round\":1,\"n\":3,\"ballots\":2,\"value\":null,\"dissent\":null,\"dtof\":0,\"decision\":\"d\",\"line\":\"l\"}}",
        true,
    ),
    (
        b"{\"RoundResult\":{\"round\":1,\"n\":3,\"ballots\":2,\"value\":\"v\",\"dissent\":1,\"dtof\":0,\"decision\":\"d\",\"line\":\"l\"}}",
        true,
    ),
    (
        b"{\"RoundResult\":{\"round\":1,\"n\":3,\"ballots\":2,\"value\":5,\"dtof\":0,\"decision\":\"d\",\"line\":\"l\"}}",
        false,
    ),
    (
        b"{\"RoundResult\":{\"round\":1,\"n\":3,\"ballots\":2,\"dissent\":4294967296,\"dtof\":0,\"decision\":\"d\",\"line\":\"l\"}}",
        false,
    ),
    (
        b"{\"RoundResult\":{\"round\":1,\"n\":3,\"ballots\":2,\"dtof\":0,\"decision\":\"d\"}}",
        false,
    ),
    // A newtype variant's payload is its struct's object.
    (
        b"{\"Evicted\":{\"tenant\":1,\"rounds\":0,\"observes\":0,\"clashes\":0,\"rejected\":0,\"quarantined\":0,\"digest\":\"\"}}",
        true,
    ),
    (b"{\"Evicted\":[1,0,0,0,0,0,\"\"]}", false),
    (b"{\"Digest\":null}", false),
];

#[test]
fn decode_accepts_exactly_what_serde_renders() {
    for (kind, cases) in [(KIND_REQUEST, REQUESTS), (KIND_REPLY, REPLIES)] {
        for &(body, ok) in cases {
            let bytes = framed(kind, body);
            assert_eq!(agree(&bytes), ok, "on {}", body.escape_ascii());
        }
    }
    let request = |body: &[u8]| match Frame::decode(&framed(KIND_REQUEST, body)) {
        Ok(Frame {
            body: Body::Request(request),
            ..
        }) => request,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        request(b"{\"Tick\":{\"round\":0}}"),
        Request::Tick { round: 0 }
    );
    assert_eq!(
        request(b"{\"Observe\":{\"key\":\"\\\"\\\\\\b\\f\\n\\r\\t\\u0000\\u001f\x7f\xc3\xa9/\",\"value\":-9223372036854775808}}"),
        Request::Observe {
            key: "\"\\\u{8}\u{c}\n\r\t\u{0}\u{1f}\u{7f}é/".into(),
            value: i64::MIN
        }
    );
}

#[test]
fn the_header_is_checked_before_the_body() {
    let good = Frame::request(TenantId(1), 2, Request::Digest).encode();
    for len in 0..FRAME_HEADER_LEN {
        assert!(!agree(&good[..len]));
        assert_eq!(Frame::decode(&good[..len]), Err(ProtoError::Truncated));
    }
    assert!(agree(&good));
    // An unknown kind, a request body under the reply kind, and a body
    // that is not UTF-8 (checked before the kind).
    let cases = [
        (framed(9, b"\"Digest\""), ProtoError::BadKind(9)),
        (
            framed(KIND_REPLY, b"\"Digest\""),
            ProtoError::BadBody(String::new()),
        ),
        (
            framed(9, b"\"Dig\xffest\""),
            ProtoError::BadBody(String::new()),
        ),
    ];
    for (bytes, want) in cases {
        assert!(!agree(&bytes));
        match (Frame::decode(&bytes).unwrap_err(), want) {
            (ProtoError::BadBody(_), ProtoError::BadBody(_)) => {}
            (got, want) => assert_eq!(got, want),
        }
    }
}

/// Bytes a mutation may write: JSON punctuation, whitespace, number
/// characters, letters of keywords and escapes, and bytes no valid
/// body holds raw (control characters, DEL, stray UTF-8).
const ALPHABET: &[u8] =
    b"{}[]\":,\\ \t\n\r-+.0123456789eEtrufalsnbdqxDF\x00\x01\x1f\x7f\x80\xc3\xa9\xff";

/// A seeded mutant of `frame`: one to four byte inserts, deletes or
/// replacements anywhere, header included, then one time in eight a
/// truncation.
fn mutate(rng: &mut StdRng, frame: &[u8]) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..3) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.insert(at, byte),
        }
    }
    if rng.gen_range(0..8) == 0 {
        bytes.truncate(rng.gen_range(0..=bytes.len()));
    }
    bytes
}

#[test]
fn decode_agrees_with_serde_on_seeded_mutants() {
    const MUTANTS: usize = 250_000;
    let frames: Vec<Vec<u8>> = samples().iter().map(Frame::encode).collect();
    let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
    let mut decoded = 0;
    for _ in 0..MUTANTS {
        let frame = &frames[rng.gen_range(0..frames.len())];
        decoded += usize::from(agree(&mutate(&mut rng, frame)));
    }
    // Enough mutants stay valid for the comparison of decoded frames to
    // mean something, not only the agreement on errors.
    assert!(decoded > MUTANTS / 50, "only {decoded} mutants decoded");
}

/// Registers `tenant` as a 3-client tenant.
fn register(core: &mut ServerCore, tenant: u16) {
    let frame = Frame::request(
        TenantId(tenant),
        0,
        Request::RegisterTenant {
            expected_clients: 3,
            mailbox_cap: 8,
            ballot_min: -100,
            ballot_max: 100,
        },
    );
    assert!(matches!(
        core.enqueue(ClientAddr(0), &frame.encode()),
        Enqueued::Handled(_)
    ));
}

#[test]
fn hostile_frames_through_the_core_are_answered_and_counted() {
    const MUTANTS: usize = 60_000;
    const TENANTS: [u16; 2] = [1, 2];
    let registry = Registry::new();
    // Room for every tenant id a mutated header can register, so the
    // two tenants under test can always register again.
    let config = ServeConfig {
        max_tenants: 1 << 16,
        ..ServeConfig::default()
    };
    let mut core = ServerCore::new(config, &registry);
    let [frames, handled, queued, rejected, bad_frames] = [
        "serve.frames",
        "serve.handled",
        "serve.queued",
        "serve.rejected",
        "serve.bad_frames",
    ]
    .map(|name| registry.counter(name));
    for tenant in TENANTS {
        register(&mut core, tenant);
    }
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for i in 0..MUTANTS {
        let tenant = TenantId(TENANTS[i % TENANTS.len()]);
        let round = rng.gen_range(1..=8);
        let value = ["a", "b"][rng.gen_range(0..2usize)].to_string();
        let request = match rng.gen_range(0..7) {
            0 => Request::RegisterTenant {
                expected_clients: 3,
                mailbox_cap: 8,
                ballot_min: -100,
                ballot_max: 100,
            },
            1 => Request::Observe {
                key: "ballot".into(),
                value: rng.gen_range(-200..=200),
            },
            2 => Request::Ballot { round, value },
            3 => Request::Tick { round },
            4 => Request::Digest,
            5 => Request::Quiesce,
            _ => Request::Evict,
        };
        let stream = rng.gen_range(0..4);
        let bytes = mutate(&mut rng, &Frame::request(tenant, stream, request).encode());
        let addr = ClientAddr(u64::from(stream));
        let decoded = Frame::decode(&bytes);
        let out = match (&decoded, core.enqueue(addr, &bytes)) {
            (Err(ProtoError::Truncated), Enqueued::Rejected(out)) => {
                assert!(out.is_empty(), "a truncated header gets no reply");
                out
            }
            (Err(_), Enqueued::Rejected(out)) => {
                let (tenant, stream, _) = Frame::peek_header(&bytes).unwrap();
                let bad_frame = Reply::Rejected {
                    reason: RejectReason::BadFrame,
                    retry_after_ms: 0,
                };
                assert_eq!(out.len(), 1, "one reply to {}", bytes.escape_ascii());
                assert_eq!(out[0].0, addr);
                assert_eq!(
                    Frame::decode(&out[0].1),
                    Ok(Frame::reply(tenant, stream, bad_frame))
                );
                out
            }
            (Err(e), other) => panic!("{e} but {other:?} on {}", bytes.escape_ascii()),
            (Ok(_), Enqueued::Queued(tenant)) => core.pump(tenant),
            (Ok(_), Enqueued::Handled(out) | Enqueued::Rejected(out)) => out,
        };
        for (_, reply) in &out {
            assert!(
                matches!(
                    Frame::decode(reply),
                    Ok(Frame {
                        body: Body::Reply(_),
                        ..
                    })
                ),
                "the server sent an undecodable reply"
            );
        }
        assert_eq!(
            frames.get(),
            handled.get() + queued.get() + rejected.get() + bad_frames.get(),
            "accounting after {}",
            bytes.escape_ascii()
        );
        // Keep the data mutants reaching live tenants: one a mutant
        // quiesced or evicted is registered afresh.
        for tenant in TENANTS {
            let quiesced = matches!(
                &decoded,
                Ok(Frame { tenant: t, body: Body::Request(Request::Quiesce), .. }) if t.0 == tenant
            );
            if quiesced {
                let evict = Frame::request(TenantId(tenant), 0, Request::Evict).encode();
                core.enqueue(ClientAddr(0), &evict);
            }
            if core.tenant_digest(TenantId(tenant)).is_none() {
                register(&mut core, tenant);
            }
        }
    }
}
