//! The multiplexed wire protocol of the assumption-monitoring service.
//!
//! Many tenants and many client streams share one connection, so every
//! message travels inside a [`Frame`] with a fixed 7-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     tenant id, u16 big-endian
//! 2       4     stream id, u32 big-endian (one client within the tenant)
//! 6       1     kind: 1 = request, 2 = reply
//! 7       ...   JSON body (a `Request` or a `Reply`)
//! ```
//!
//! On a socket (the reactor path) each frame is wrapped in a `u32`
//! big-endian length prefix, so a socket carries
//! `[len][frame][len][frame]...`.  [`write_framed`] and [`next_framed`]
//! are the only code that writes or parses that prefix.  It is not
//! `TcpTransport`'s framing, which puts a tag byte after the length
//! (`[len][tag][body]`).
//!
//! The body stays JSON (like [`afta_net::Wire`]) so frames are
//! inspectable with nothing fancier than `xxd`.  The binary header can
//! be read without the body ([`Frame::peek_header`]), which is how a
//! frame whose body does not decode still gets its `bad-frame` reply on
//! its own tenant and stream.  The header does not keep JSON off the
//! reactor thread: the reactor admits every frame through
//! [`ServerCore::enqueue`](crate::ServerCore::enqueue), which decodes
//! the whole frame there.
//!
//! [`Frame::encode`] writes the compact JSON body itself, into the
//! header's buffer sized to the whole frame: the bytes are the ones
//! `serde_json::to_string` renders from the types' `Serialize` derives,
//! with no serde `Value` tree built per frame.  [`Frame::decode`] reads
//! bodies the same way, straight into the types through a private
//! cursor, and it is what stands between the server and hostile input.
//! It accepts exactly the JSON that `serde_json::from_str` accepts into
//! the types' `Deserialize` derives, no more and no less: whitespace
//! between any two tokens, struct fields in any order, an unknown field
//! skipped once it parses (nested at most 128 deep), the first of a
//! repeated field decoded and the others only parsed, a missing
//! `Option` field read as `None`, keys unescaped before they match, and
//! integers by the shim's rule (no `.`, `e`, `E`, `+` or inner `-`;
//! `i64`, else `u64`, then the field's range).  `tests/wire.rs` holds it to that: it
//! compares `Frame::decode` with `serde_json::from_str` on every rule,
//! on deep nesting and on seeded byte mutants of encoded frames.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Frame kind byte: the body is a [`Request`].
pub const KIND_REQUEST: u8 = 1;
/// Frame kind byte: the body is a [`Reply`].
pub const KIND_REPLY: u8 = 2;
/// Bytes before the JSON body: tenant (2) + stream (4) + kind (1).
pub const FRAME_HEADER_LEN: usize = 7;
/// Bytes of the `u32` big-endian length prefix before each frame on a
/// byte stream.
const LEN_PREFIX: usize = 4;

/// Identifies one tenant hosted by the server.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Everything a client can ask the server to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Creates the tenant named in the frame header with the given
    /// quotas.  Must arrive before any data request for that tenant.
    RegisterTenant {
        /// Client streams the tenant's voting rounds expect; a round
        /// completes when all of them have balloted (or on [`Request::Tick`]).
        expected_clients: u32,
        /// Bounded mailbox capacity (requests queued but not yet
        /// processed); `0` picks the server default.
        mailbox_cap: usize,
        /// Lower bound of the tenant's `ballot` context assumption.
        ballot_min: i64,
        /// Upper bound of the tenant's `ballot` context assumption.
        ballot_max: i64,
    },
    /// Stops admitting data requests for the tenant; digests stay
    /// readable and the tenant can still be evicted.
    Quiesce,
    /// Removes the tenant and returns its final digest.
    Evict,
    /// Reports a context fact into the tenant's assumption registry.
    Observe {
        /// Fact key (the tenant's registered assumption watches `ballot`).
        key: String,
        /// Observed value.
        value: i64,
    },
    /// Casts this stream's ballot for voting round `round`.
    Ballot {
        /// 1-based round number; rounds complete strictly in order.
        round: u64,
        /// The replicated result this client computed.
        value: String,
    },
    /// Forces round `round` to complete even if ballots are missing
    /// (missing ballots count as dissent) — the liveness escape hatch
    /// when clients crash mid-round.
    Tick {
        /// The round to force-complete.
        round: u64,
    },
    /// Asks for the tenant's current digest without changing anything.
    Digest,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The frame names a tenant the server does not host.
    UnknownTenant,
    /// `RegisterTenant` for a tenant id that already exists.
    TenantExists,
    /// The server is at its tenant cap.
    TenantLimit,
    /// The tenant is quiescing and admits no new data requests.
    Quiescing,
    /// The tenant's bounded mailbox is full — retry after the hinted
    /// delay.
    QuotaExceeded,
    /// The tenant is at its stream cap.
    StreamLimit,
    /// The frame body did not parse, or carried values the server
    /// cannot act on (a registration with `expected_clients: 0` or
    /// `ballot_min > ballot_max`).
    BadFrame,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RejectReason::UnknownTenant => "unknown-tenant",
            RejectReason::TenantExists => "tenant-exists",
            RejectReason::TenantLimit => "tenant-limit",
            RejectReason::Quiescing => "quiescing",
            RejectReason::QuotaExceeded => "quota-exceeded",
            RejectReason::StreamLimit => "stream-limit",
            RejectReason::BadFrame => "bad-frame",
        };
        f.write_str(name)
    }
}

/// The outcome of one completed voting round, broadcast to every
/// attached stream of the tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundResult {
    /// The completed round.
    pub round: u64,
    /// Expected ballots (the tenant's `expected_clients`).
    pub n: u32,
    /// Ballots actually received before the round completed.
    pub ballots: u32,
    /// The majority value, if one exists.
    pub value: Option<String>,
    /// Dissent rebased onto `n`, when a majority exists.
    pub dissent: Option<u32>,
    /// Distance-to-failure of the round.
    pub dtof: u32,
    /// The redundancy controller's decision, rendered.
    pub decision: String,
    /// The digest line this round contributed (what the tenant digest
    /// folds), so clients can audit the fold.
    pub line: String,
}

/// A tenant's accumulated evidence, returned by [`Request::Digest`] and
/// on eviction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantDigest {
    /// The tenant.
    pub tenant: u16,
    /// Voting rounds completed.
    pub rounds: u64,
    /// Observations accepted into the assumption registry.
    pub observes: u64,
    /// Assumption clashes those observations raised.
    pub clashes: u64,
    /// Requests rejected by quota or lifecycle checks.
    pub rejected: u64,
    /// Streams currently quarantined by their alpha-count.
    pub quarantined: u32,
    /// FNV-1a 64 fold of every round line plus the order-independent
    /// totals, in hex — the value the E8 differential compares across
    /// transports.
    pub digest: String,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// The tenant was created.
    Registered {
        /// Echo of the tenant id.
        tenant: u16,
    },
    /// The tenant stopped admitting data requests.
    Quiesced {
        /// Echo of the tenant id.
        tenant: u16,
    },
    /// The tenant was removed; this is its final evidence.
    Evicted(TenantDigest),
    /// An observation was ingested.
    Observed {
        /// Whether every registered assumption still holds.
        satisfied: bool,
    },
    /// A ballot was queued for its round.
    BallotAccepted {
        /// Echo of the round.
        round: u64,
    },
    /// A round completed.
    RoundResult(RoundResult),
    /// Current evidence, from [`Request::Digest`].
    Digest(TenantDigest),
    /// The request was refused.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// How long the client should wait before retrying, in
        /// milliseconds (0 = retrying will not help, e.g. unknown
        /// tenant).
        retry_after_ms: u64,
    },
}

/// One multiplexed message: routing header plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The tenant this frame belongs to.
    pub tenant: TenantId,
    /// The client stream within the tenant.
    pub stream: u32,
    /// Request or reply.
    pub body: Body,
}

/// A frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Client-to-server.
    Request(Request),
    /// Server-to-client.
    Reply(Reply),
}

/// Frame decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Shorter than [`FRAME_HEADER_LEN`].
    Truncated,
    /// Unknown kind byte.
    BadKind(u8),
    /// The JSON body did not parse.
    BadBody(String),
    /// A stream length prefix announced a frame longer than the limit.
    TooLong(u32),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame shorter than its header"),
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadBody(e) => write!(f, "frame body did not parse: {e}"),
            ProtoError::TooLong(len) => write!(f, "length prefix {len} exceeds the frame limit"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Appends `frame` to `out` as one `[u32 big-endian length][frame]`
/// message, the framing of a raw byte stream.
///
/// # Panics
///
/// Panics if `frame` is longer than `u32::MAX` bytes.
pub fn write_framed(out: &mut Vec<u8>, frame: &[u8]) {
    let len = u32::try_from(frame.len()).expect("frame fits the u32 length prefix");
    out.reserve(LEN_PREFIX + frame.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(frame);
}

/// Slices the first message written by [`write_framed`] off the front
/// of `buf`.
///
/// Returns `Ok(Some((frame, used)))` once the whole message is in
/// `buf` (`used` is its size including the prefix, the bytes to drop
/// before the next message) and `Ok(None)` while it is incomplete.
///
/// # Errors
///
/// Returns [`ProtoError::TooLong`] when the prefix announces more than
/// `max_frame` bytes: the stream is corrupt or hostile, and no later
/// message on it can be trusted.
pub fn next_framed(buf: &[u8], max_frame: u32) -> Result<Option<(&[u8], usize)>, ProtoError> {
    let Some((prefix, rest)) = buf.split_first_chunk::<LEN_PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*prefix);
    if len > max_frame {
        return Err(ProtoError::TooLong(len));
    }
    // `usize` holds any `u32` on the targets this crate supports.
    Ok(rest
        .get(..len as usize)
        .map(|frame| (frame, LEN_PREFIX + frame.len())))
}

impl Frame {
    /// A request frame.
    #[must_use]
    pub fn request(tenant: TenantId, stream: u32, request: Request) -> Self {
        Self {
            tenant,
            stream,
            body: Body::Request(request),
        }
    }

    /// A reply frame.
    #[must_use]
    pub fn reply(tenant: TenantId, stream: u32, reply: Reply) -> Self {
        Self {
            tenant,
            stream,
            body: Body::Reply(reply),
        }
    }

    /// Encodes header + JSON body into one buffer of exactly the frame's
    /// size (see the module docs for the body's bytes).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut len = Len(FRAME_HEADER_LEN);
        self.body.write_json(&mut len);
        let mut out = Vec::with_capacity(len.0);
        out.extend_from_slice(&self.tenant.0.to_be_bytes());
        out.extend_from_slice(&self.stream.to_be_bytes());
        out.push(match self.body {
            Body::Request(_) => KIND_REQUEST,
            Body::Reply(_) => KIND_REPLY,
        });
        self.body.write_json(&mut out);
        out
    }

    /// Decodes a frame produced by [`Frame::encode`].
    ///
    /// The body is UTF-8 JSON read straight into a [`Request`] or a
    /// [`Reply`], accepting exactly what `serde_json::from_str` does:
    /// whitespace between tokens, fields in any order, unknown fields
    /// skipped but parsed, the first of a repeated field kept.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] when the buffer is shorter than the
    /// header, carries an unknown kind byte, or its body fails to parse.
    pub fn decode(bytes: &[u8]) -> Result<Frame, ProtoError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(ProtoError::Truncated);
        }
        let tenant = TenantId(u16::from_be_bytes([bytes[0], bytes[1]]));
        let stream = u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        let kind = bytes[6];
        let body = std::str::from_utf8(&bytes[FRAME_HEADER_LEN..])
            .map_err(|e| ProtoError::BadBody(e.to_string()))?;
        let body = match kind {
            KIND_REQUEST => Body::Request(Reader::document(body)?),
            KIND_REPLY => Body::Reply(Reader::document(body)?),
            other => return Err(ProtoError::BadKind(other)),
        };
        Ok(Frame {
            tenant,
            stream,
            body,
        })
    }

    /// Peeks only the routing header, without touching the JSON body —
    /// what the reactor thread does to pick a tenant worker.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Truncated`] when the buffer is shorter than
    /// the header.
    pub fn peek_header(bytes: &[u8]) -> Result<(TenantId, u32, u8), ProtoError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(ProtoError::Truncated);
        }
        Ok((
            TenantId(u16::from_be_bytes([bytes[0], bytes[1]])),
            u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
            bytes[6],
        ))
    }
}

// ---------------------------------------------------------------------------
// The body writer
// ---------------------------------------------------------------------------

/// Where [`Json::write_json`] puts a body: the frame buffer, or a
/// [`Len`] that measures the frame first so that its buffer is
/// allocated once, at its exact size.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes written to it.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A value written as compact JSON, byte for byte what
/// `serde_json::to_string` renders through its `Serialize` derive:
/// struct fields in declaration order, enums externally tagged (unit
/// variants as strings, the others as one-entry objects), `None` as
/// `null`, integers in decimal.
trait Json {
    fn write_json<S: Sink>(&self, s: &mut S);
}

/// Writes `{"a":a,"b":b}` from bindings named like a struct's fields,
/// listed in declaration order.  Field names are Rust identifiers, so
/// they need no escaping.
macro_rules! object {
    ($s:ident; $first:ident $(, $rest:ident)*) => {{
        $s.put(concat!("{\"", stringify!($first), "\":").as_bytes());
        $first.write_json($s);
        $(
            $s.put(concat!(",\"", stringify!($rest), "\":").as_bytes());
            $rest.write_json($s);
        )*
        $s.put(b"}");
    }};
}

/// Writes a variant that carries data: `{"Variant":payload}`.
fn tagged<S: Sink>(s: &mut S, variant: &str, payload: impl FnOnce(&mut S)) {
    s.put(b"{\"");
    s.put(variant.as_bytes());
    s.put(b"\":");
    payload(s);
    s.put(b"}");
}

/// Writes `value` in decimal.
fn write_u64<S: Sink>(s: &mut S, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    s.put(&digits[at..]);
}

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json<S: Sink>(&self, s: &mut S) {
                write_u64(s, *self as u64);
            }
        }
    )*};
}
unsigned_json!(u16, u32, u64, usize);

impl Json for i64 {
    fn write_json<S: Sink>(&self, s: &mut S) {
        if *self < 0 {
            s.put(b"-");
        }
        write_u64(s, self.unsigned_abs());
    }
}

impl Json for bool {
    fn write_json<S: Sink>(&self, s: &mut S) {
        s.put(if *self { "true" } else { "false" }.as_bytes());
    }
}

impl Json for str {
    /// Escapes as the serde shim's `render_string` does: `"`, `\` and
    /// the control characters, with the short escape where JSON has one
    /// and `\u00xx` otherwise; everything else, DEL and non-ASCII text
    /// included, goes out verbatim.  Every escaped character is ASCII
    /// and no byte of a multi-byte UTF-8 sequence is, so scanning bytes
    /// finds exactly the characters the shim escapes.
    fn write_json<S: Sink>(&self, s: &mut S) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        s.put(b"\"");
        let bytes = self.as_bytes();
        let mut verbatim = 0;
        for (at, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            let unicode;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                // Any other control character.
                _ => {
                    unicode = [
                        b'\\',
                        b'u',
                        b'0',
                        b'0',
                        HEX[usize::from(b >> 4)],
                        HEX[usize::from(b & 0xf)],
                    ];
                    &unicode
                }
            };
            s.put(&bytes[verbatim..at]);
            s.put(escape);
            verbatim = at + 1;
        }
        s.put(&bytes[verbatim..]);
        s.put(b"\"");
    }
}

impl Json for String {
    fn write_json<S: Sink>(&self, s: &mut S) {
        self.as_str().write_json(s);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json<S: Sink>(&self, s: &mut S) {
        match self {
            Some(value) => value.write_json(s),
            None => s.put(b"null"),
        }
    }
}

impl Json for Body {
    fn write_json<S: Sink>(&self, s: &mut S) {
        match self {
            Body::Request(request) => request.write_json(s),
            Body::Reply(reply) => reply.write_json(s),
        }
    }
}

impl Json for Request {
    fn write_json<S: Sink>(&self, s: &mut S) {
        match self {
            Request::RegisterTenant {
                expected_clients,
                mailbox_cap,
                ballot_min,
                ballot_max,
            } => tagged(s, "RegisterTenant", |s| {
                object!(s; expected_clients, mailbox_cap, ballot_min, ballot_max);
            }),
            Request::Quiesce => "Quiesce".write_json(s),
            Request::Evict => "Evict".write_json(s),
            Request::Observe { key, value } => tagged(s, "Observe", |s| object!(s; key, value)),
            Request::Ballot { round, value } => tagged(s, "Ballot", |s| object!(s; round, value)),
            Request::Tick { round } => tagged(s, "Tick", |s| object!(s; round)),
            Request::Digest => "Digest".write_json(s),
        }
    }
}

impl Json for RejectReason {
    fn write_json<S: Sink>(&self, s: &mut S) {
        let variant = match self {
            RejectReason::UnknownTenant => "UnknownTenant",
            RejectReason::TenantExists => "TenantExists",
            RejectReason::TenantLimit => "TenantLimit",
            RejectReason::Quiescing => "Quiescing",
            RejectReason::QuotaExceeded => "QuotaExceeded",
            RejectReason::StreamLimit => "StreamLimit",
            RejectReason::BadFrame => "BadFrame",
        };
        variant.write_json(s);
    }
}

impl Json for RoundResult {
    fn write_json<S: Sink>(&self, s: &mut S) {
        let RoundResult {
            round,
            n,
            ballots,
            value,
            dissent,
            dtof,
            decision,
            line,
        } = self;
        object!(s; round, n, ballots, value, dissent, dtof, decision, line);
    }
}

impl Json for TenantDigest {
    fn write_json<S: Sink>(&self, s: &mut S) {
        let TenantDigest {
            tenant,
            rounds,
            observes,
            clashes,
            rejected,
            quarantined,
            digest,
        } = self;
        object!(s; tenant, rounds, observes, clashes, rejected, quarantined, digest);
    }
}

impl Json for Reply {
    fn write_json<S: Sink>(&self, s: &mut S) {
        match self {
            Reply::Registered { tenant } => tagged(s, "Registered", |s| object!(s; tenant)),
            Reply::Quiesced { tenant } => tagged(s, "Quiesced", |s| object!(s; tenant)),
            Reply::Evicted(digest) => tagged(s, "Evicted", |s| digest.write_json(s)),
            Reply::Observed { satisfied } => tagged(s, "Observed", |s| object!(s; satisfied)),
            Reply::BallotAccepted { round } => {
                tagged(s, "BallotAccepted", |s| object!(s; round));
            }
            Reply::RoundResult(result) => tagged(s, "RoundResult", |s| result.write_json(s)),
            Reply::Digest(digest) => tagged(s, "Digest", |s| digest.write_json(s)),
            Reply::Rejected {
                reason,
                retry_after_ms,
            } => tagged(s, "Rejected", |s| object!(s; reason, retry_after_ms)),
        }
    }
}

// ---------------------------------------------------------------------------
// The body reader
// ---------------------------------------------------------------------------

/// The serde shim's nesting limit: a value nested deeper than this, the
/// body itself at depth 0, is refused wherever it sits.
const MAX_DEPTH: usize = 128;

/// A cursor over a JSON body that reads the serde shim's language, its
/// `Parser` followed by the derives' `from_value`, in one pass and
/// without building a `Value` tree.  Strings borrow the body until an
/// escape appears.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting of the next value: one more inside each object or array.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Reads the whole of `text` as one `T`, whitespace around it.
    fn document<T: FromJson>(text: &'a str) -> Result<T, ProtoError> {
        let mut r = Reader {
            text,
            pos: 0,
            depth: 0,
        };
        let value = T::read_json(&mut r)?;
        if r.peek().is_some() {
            return Err(r.error("trailing characters after the body"));
        }
        Ok(value)
    }

    fn error(&self, what: &str) -> ProtoError {
        ProtoError::BadBody(format!("{what} at byte {}", self.pos))
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Skips whitespace and consumes `byte`.
    fn eat(&mut self, byte: u8) -> Result<(), ProtoError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", char::from(byte))))
        }
    }

    /// Consumes `word` (`null`, `true`, `false`) at the cursor, where
    /// [`Reader::peek`] left it.
    fn keyword(&mut self, word: &str) -> Result<(), ProtoError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    /// Reads a string: no raw control character, and the escapes `\"`,
    /// `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t` and `\uXXXX`, a high
    /// surrogate followed at once by its low half.
    fn string(&mut self) -> Result<Cow<'a, str>, ProtoError> {
        self.eat(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut owned: Option<String> = None;
        // `"`, `\` and the control characters are ASCII, which no byte of
        // a multi-byte character is, so every slice below falls on
        // character boundaries.
        loop {
            let run = self.pos;
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            match bytes.get(self.pos) {
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads the escape after a `\`.
    fn escape(&mut self) -> Result<char, ProtoError> {
        let Some(&c) = self.text.as_bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("expected a low surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    first
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("unknown escape sequence")),
        })
    }

    /// Reads the four hex digits of a `\u` escape, in either case.
    fn hex4(&mut self) -> Result<u32, ProtoError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .text
                .as_bytes()
                .get(self.pos)
                .and_then(|&b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("bad hex digit in unicode escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Consumes the shim's number run, `-?[0-9.eE+-]*`, and says whether
    /// it is a float: any `.`, `e`, `E` or `+`, or a `-` past the first
    /// byte.
    fn number(&mut self) -> (&'a str, bool) {
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        (&text[start..self.pos], float)
    }

    /// Reads an integer as the shim does: a number run with no float
    /// character, parsed as `i64`, else as `u64`.  Every integer type's
    /// range lies within the result's, so a field's range check is one
    /// `try_from`.
    fn integer(&mut self) -> Result<i128, ProtoError> {
        let wide = if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            match self.number() {
                (_, true) => None,
                (run, false) => run
                    .parse::<i64>()
                    .map(i128::from)
                    .or_else(|_| run.parse::<u64>().map(i128::from))
                    .ok(),
            }
        } else {
            None
        };
        wide.ok_or_else(|| self.error("expected an integer"))
    }

    /// Parses one value of any kind only to check it, as the shim
    /// parses it: every number it parses is valid here, floats and
    /// integers past `u64` included, and nesting deeper than
    /// [`MAX_DEPTH`] is not.
    fn skip(&mut self) -> Result<(), ProtoError> {
        if self.depth > MAX_DEPTH {
            return Err(self.error("JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip()?;
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(self.error("expected `,` or `]` in array")),
                        }
                    }
                }
                self.depth -= 1;
                Ok(())
            }
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'-' | b'0'..=b'9') => {
                let (run, _) = self.number();
                run.parse::<f64>()
                    .map(drop)
                    .map_err(|_| self.error("invalid number"))
            }
            _ => Err(self.error("expected a value")),
        }
    }

    /// Reads an object, handing each entry's unescaped key to `entry`,
    /// which must read or skip the entry's value.
    fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), ProtoError>,
    ) -> Result<(), ProtoError> {
        self.eat(b'{')?;
        self.depth += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.string()?;
                self.eat(b':')?;
                entry(self, &key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected `,` or `}` in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an externally tagged enum: a unit variant is a string that
    /// `unit` names, a data variant an object of exactly one entry,
    /// whose payload `data` reads for the entry's key.
    fn variant<T>(
        &mut self,
        unit: impl FnOnce(&str) -> Option<T>,
        data: impl FnOnce(&mut Self, &str) -> Result<T, ProtoError>,
    ) -> Result<T, ProtoError> {
        if self.peek() == Some(b'"') {
            let tag = self.string()?;
            return unit(&tag).ok_or_else(|| self.error("unknown unit variant"));
        }
        self.eat(b'{')?;
        self.depth += 1;
        let tag = self.string()?;
        self.eat(b':')?;
        let value = data(self, &tag)?;
        self.eat(b'}')?;
        self.depth -= 1;
        Ok(value)
    }
}

/// A value read from JSON the way its `Deserialize` derive and the
/// serde shim read it (see [`Reader`]).
trait FromJson: Sized {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError>;

    /// The value of a struct field absent from its object, where absence
    /// is allowed: only an `Option` may be missing.
    fn missing() -> Option<Self> {
        None
    }
}

/// Reads an object into the struct or variant written as its fields
/// (`Path { a, b }`), as the derive does: fields in any order, an
/// unknown one skipped, a repeated one decoded the first time and only
/// parsed after, and a missing one refused unless
/// [`FromJson::missing`] gives it a value.
macro_rules! fields {
    ($r:ident; $($path:ident)::+ { $($field:ident),+ }) => {{
        $(let mut $field = None;)+
        $r.object(|r, key| {
            match key {
                $(stringify!($field) if $field.is_none() => {
                    $field = Some(FromJson::read_json(r)?);
                })+
                _ => r.skip()?,
            }
            Ok(())
        })?;
        $($path)::+ {
            $($field: $field.or_else(FromJson::missing).ok_or_else(|| {
                $r.error(concat!("missing field `", stringify!($field), "`"))
            })?,)+
        }
    }};
}

macro_rules! integer_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                let wide = r.integer()?;
                <$t>::try_from(wide)
                    .map_err(|_| r.error(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
integer_from_json!(u16, u32, u64, usize, i64);

impl FromJson for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        match r.peek() {
            Some(b't') => r.keyword("true").map(|()| true),
            Some(b'f') => r.keyword("false").map(|()| false),
            _ => Err(r.error("expected a bool")),
        }
    }
}

impl FromJson for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.string().map(Cow::into_owned)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        if r.peek() == Some(b'n') {
            r.keyword("null").map(|()| None)
        } else {
            T::read_json(r).map(Some)
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl FromJson for Request {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.variant(
            |tag| match tag {
                "Quiesce" => Some(Request::Quiesce),
                "Evict" => Some(Request::Evict),
                "Digest" => Some(Request::Digest),
                _ => None,
            },
            |r, tag| {
                Ok(match tag {
                    "RegisterTenant" => fields!(r; Request::RegisterTenant {
                        expected_clients, mailbox_cap, ballot_min, ballot_max
                    }),
                    "Observe" => fields!(r; Request::Observe { key, value }),
                    "Ballot" => fields!(r; Request::Ballot { round, value }),
                    "Tick" => fields!(r; Request::Tick { round }),
                    _ => return Err(r.error("unknown variant")),
                })
            },
        )
    }
}

impl FromJson for RejectReason {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.variant(
            |tag| match tag {
                "UnknownTenant" => Some(RejectReason::UnknownTenant),
                "TenantExists" => Some(RejectReason::TenantExists),
                "TenantLimit" => Some(RejectReason::TenantLimit),
                "Quiescing" => Some(RejectReason::Quiescing),
                "QuotaExceeded" => Some(RejectReason::QuotaExceeded),
                "StreamLimit" => Some(RejectReason::StreamLimit),
                "BadFrame" => Some(RejectReason::BadFrame),
                _ => None,
            },
            |r, _| Err(r.error("unknown variant")),
        )
    }
}

impl FromJson for RoundResult {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(fields!(r; RoundResult {
            round, n, ballots, value, dissent, dtof, decision, line
        }))
    }
}

impl FromJson for TenantDigest {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(fields!(r; TenantDigest {
            tenant, rounds, observes, clashes, rejected, quarantined, digest
        }))
    }
}

impl FromJson for Reply {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.variant(
            |_| None,
            |r, tag| {
                Ok(match tag {
                    "Registered" => fields!(r; Reply::Registered { tenant }),
                    "Quiesced" => fields!(r; Reply::Quiesced { tenant }),
                    "Evicted" => Reply::Evicted(FromJson::read_json(r)?),
                    "Observed" => fields!(r; Reply::Observed { satisfied }),
                    "BallotAccepted" => fields!(r; Reply::BallotAccepted { round }),
                    "RoundResult" => Reply::RoundResult(FromJson::read_json(r)?),
                    "Digest" => Reply::Digest(FromJson::read_json(r)?),
                    "Rejected" => fields!(r; Reply::Rejected { reason, retry_after_ms }),
                    _ => return Err(r.error("unknown variant")),
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::request(
                TenantId(7),
                3,
                Request::Ballot {
                    round: 12,
                    value: "v12".into(),
                },
            ),
            Frame::request(
                TenantId(0),
                0,
                Request::RegisterTenant {
                    expected_clients: 16,
                    mailbox_cap: 64,
                    ballot_min: -32768,
                    ballot_max: 32767,
                },
            ),
            Frame::reply(
                TenantId(65535),
                u32::MAX,
                Reply::Rejected {
                    reason: RejectReason::QuotaExceeded,
                    retry_after_ms: 25,
                },
            ),
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(Frame::decode(&bytes).unwrap(), frame);
            let (tenant, stream, _) = Frame::peek_header(&bytes).unwrap();
            assert_eq!((tenant, stream), (frame.tenant, frame.stream));
        }
    }

    #[test]
    fn header_layout_is_the_documented_seven_bytes() {
        let bytes = Frame::request(TenantId(0x0102), 0x03040506, Request::Digest).encode();
        assert_eq!(
            &bytes[..FRAME_HEADER_LEN],
            &[1, 2, 3, 4, 5, 6, KIND_REQUEST]
        );
        assert_eq!(bytes[FRAME_HEADER_LEN], b'"', "body starts as JSON");
    }

    #[test]
    fn a_stream_split_at_any_byte_yields_the_same_frames() {
        let frames: Vec<Vec<u8>> = vec![
            Frame::request(TenantId(1), 2, Request::Digest).encode(),
            Vec::new(),
            Frame::reply(TenantId(3), 4, Reply::Quiesced { tenant: 3 }).encode(),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            write_framed(&mut stream, frame);
        }
        for split in 0..=stream.len() {
            let (mut buf, mut got) = (Vec::new(), Vec::new());
            for part in [&stream[..split], &stream[split..]] {
                buf.extend_from_slice(part);
                while let Some((frame, used)) = next_framed(&buf, 1024).unwrap() {
                    got.push(frame.to_vec());
                    buf.drain(..used);
                }
            }
            assert_eq!(got, frames, "split at byte {split}");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn framing_refuses_oversized_and_waits_for_short_prefixes() {
        for short in 0..LEN_PREFIX {
            assert_eq!(next_framed(&[0; LEN_PREFIX][..short], 16), Ok(None));
        }
        assert_eq!(
            next_framed(&[0, 0, 0, 17], 16),
            Err(ProtoError::TooLong(17))
        );
        assert_eq!(next_framed(&[0, 0, 0, 16, 9], 16), Ok(None));
        assert_eq!(
            next_framed(&[0, 0, 0, 1, 9, 8], 16),
            Ok(Some((&[9][..], 5)))
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Frame::decode(&[0, 1, 2]), Err(ProtoError::Truncated));
        assert_eq!(
            Frame::decode(&[0, 0, 0, 0, 0, 0, 9, b'{']),
            Err(ProtoError::BadKind(9))
        );
        assert!(matches!(
            Frame::decode(&[0, 0, 0, 0, 0, 0, KIND_REQUEST, b'{']),
            Err(ProtoError::BadBody(_))
        ));
    }
}
