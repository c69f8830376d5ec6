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
//! with no serde `Value` tree built per frame.  [`Frame::decode`] is its
//! mirror, and it is what stands between the server and hostile input:
//! a private cursor reads the writer's bytes back and nothing else.
//! Struct fields come in declaration order, variant names unescaped,
//! integers in canonical decimal (no leading zero, no `-0`), `None` as
//! `null`, and strings with only the writer's escapes (`\"`, `\\`, `\n`,
//! `\r`, `\t`, `\b`, `\f`, and lowercase `\u00xx` for the other control
//! characters), with no whitespace anywhere.  So `Frame::decode(b)` is
//! `Ok(f)` exactly when `b == f.encode()`: the server assumes its clients
//! send what it would have written itself, and this is where that
//! assumption is stated.  `tests/wire.rs` holds the decoder to it with an
//! oracle built from the serde derives, `serde_json::from_str` followed
//! by `serde_json::to_string`, which must give the body back: on
//! hand-written cases and on seeded byte mutants of encoded frames.
//!
//! The cursor walks the body's bytes once.  Outside strings they must
//! match the writer's ASCII literals, variant names and decimal digits;
//! only inside a string, where the writer puts non-ASCII text, is each
//! verbatim run checked as UTF-8.  So every body it accepts is UTF-8.

use serde::{Deserialize, Serialize};
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
        /// processed); `0` picks the server default, and more than 8192
        /// is refused with [`RejectReason::BadFrame`].
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
    /// Reports a context fact, checked against the tenant's one declared
    /// assumption.
    Observe {
        /// Fact key (the tenant's assumption watches `ballot`; any other
        /// key holds).
        key: String,
        /// Observed value.
        value: i64,
    },
    /// Casts this stream's ballot for voting round `round`.
    Ballot {
        /// 1-based round number; rounds complete strictly in order.
        round: u64,
        /// The replicated result this client computed; longer than 256
        /// bytes is refused with [`RejectReason::BadFrame`].
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
    /// The frame body did not decode (see [`Frame::decode`]), or carried
    /// values the server cannot act on: a registration with
    /// `expected_clients: 0`, `ballot_min > ballot_max` or `mailbox_cap`
    /// above 8192, or a [`Request::Ballot`] whose value is longer than
    /// 256 bytes.
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
    /// Observations checked against the tenant's declared assumption.
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
    /// An observation was checked.
    Observed {
        /// Whether the observation keeps the tenant's declared
        /// assumption.
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
    /// The body is not UTF-8, or not the encoding of a body of its kind
    /// (see [`Frame::decode`]).
    BadBody(String),
    /// A stream length prefix announced a frame longer than the limit.
    TooLong(u32),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame shorter than its header"),
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadBody(e) => write!(f, "frame body did not decode: {e}"),
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

    /// Decodes a frame produced by [`Frame::encode`], and nothing else:
    /// `Frame::decode(b)` is `Ok(f)` exactly when `b == f.encode()`, so
    /// every decoded frame encodes back to the bytes it came from.
    ///
    /// The body is UTF-8 JSON read straight into a [`Request`] or a
    /// [`Reply`] as the encoder writes it (see the module docs):
    /// whitespace, other field orders, unknown or missing fields and
    /// escapes or numbers written another way are refused.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] when the buffer is shorter than the
    /// header, carries an unknown kind byte, or its body is not the
    /// encoding of a body of that kind.  A body that is not UTF-8 is
    /// [`ProtoError::BadBody`] whatever the kind byte says.
    pub fn decode(bytes: &[u8]) -> Result<Frame, ProtoError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(ProtoError::Truncated);
        }
        let tenant = TenantId(u16::from_be_bytes([bytes[0], bytes[1]]));
        let stream = u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        let body = &bytes[FRAME_HEADER_LEN..];
        let body = match bytes[6] {
            KIND_REQUEST => Body::Request(Reader::document(body)?),
            KIND_REPLY => Body::Reply(Reader::document(body)?),
            // The reader refuses a body that is not UTF-8; under an
            // unknown kind that refusal still comes first.
            other => {
                std::str::from_utf8(body).map_err(|e| ProtoError::BadBody(e.to_string()))?;
                return Err(ProtoError::BadKind(other));
            }
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

    /// Rewrites the stream field of an encoded frame's header in place,
    /// leaving the tenant, kind and body as they are: how one encoding
    /// of a frame is copied to many streams.
    ///
    /// # Panics
    ///
    /// Panics when `frame` is shorter than [`FRAME_HEADER_LEN`].
    pub fn restream(frame: &mut [u8], stream: u32) {
        let header = &mut frame[..FRAME_HEADER_LEN];
        header[2..6].copy_from_slice(&stream.to_be_bytes());
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

/// A cursor that reads a body back exactly as the writer above writes
/// it, with nothing before, between or after the writer's bytes.  Each
/// reading step mirrors one writing step: `fields!` reads what
/// `object!` writes, [`Reader::variant`] what [`tagged`] and the unit
/// variants write, [`Reader::integer`] what [`write_u64`] writes and
/// [`Reader::string`] what `str`'s escaping writes.  So a body decodes
/// exactly when it is the encoding of what it decodes to.
///
/// It walks the body's bytes once.  Outside strings every byte must
/// match an ASCII literal, an ASCII variant name or a decimal digit;
/// inside a string each verbatim run is checked as UTF-8 before it is
/// kept.  Only strings hold non-ASCII bytes, and a run ends only at an
/// ASCII byte, so every body it accepts is UTF-8.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads the whole of `bytes` as one `T`.
    fn document<T: FromJson>(bytes: &'a [u8]) -> Result<T, ProtoError> {
        let mut r = Reader { bytes, pos: 0 };
        let value = T::read_json(&mut r)?;
        if r.pos < bytes.len() {
            return Err(r.error("trailing bytes after the body"));
        }
        Ok(value)
    }

    /// Kept out of line, so that the reading steps that may fail stay
    /// small enough to inline.
    #[cold]
    #[inline(never)]
    fn error(&self, what: impl fmt::Display) -> ProtoError {
        ProtoError::BadBody(format!("{what} at byte {}", self.pos))
    }

    /// The bytes not read yet.
    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Consumes `literal` if the body goes on with it, and says whether
    /// it did.
    fn take(&mut self, literal: &str) -> bool {
        let found = self.rest().starts_with(literal.as_bytes());
        if found {
            self.pos += literal.len();
        }
        found
    }

    /// Consumes `literal`, which the body must go on with.
    fn eat(&mut self, literal: &str) -> Result<(), ProtoError> {
        if self.take(literal) {
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{literal}`")))
        }
    }

    /// Reads a variant name up to and past its closing quote.  Names are
    /// Rust identifiers, which the writer never escapes, so the name is
    /// the raw bytes: one with an escape or a non-ASCII byte in it names
    /// no variant.
    fn name(&mut self) -> Result<&'a [u8], ProtoError> {
        let rest = self.rest();
        let Some(len) = rest.iter().position(|&b| b == b'"') else {
            return Err(self.error("unterminated name"));
        };
        self.pos += len + 1;
        Ok(&rest[..len])
    }

    /// Reads a string as `str`'s writer writes it: every character but
    /// `"`, `\` and the control characters verbatim, and those escaped.
    fn string(&mut self) -> Result<String, ProtoError> {
        self.eat("\"")?;
        let bytes = self.bytes;
        let mut out = String::new();
        loop {
            let run = self.pos;
            self.pos += self
                .rest()
                .iter()
                .take_while(|&&b| b >= 0x20 && b != b'"' && b != b'\\')
                .count();
            // `"`, `\` and the control characters are ASCII, which no
            // byte of a multi-byte character is: the string is UTF-8
            // exactly when each run between them is.
            let text = std::str::from_utf8(&bytes[run..self.pos])
                .map_err(|_| self.error("a string that is not UTF-8"))?;
            out.push_str(text);
            match self.rest().first() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads the escape after a `\`, one the writer writes: a short
    /// escape, or `\u00xx` in lowercase hex for a control character that
    /// has none.
    fn escape(&mut self) -> Result<char, ProtoError> {
        let (byte, len) = match *self.rest() {
            [b'"', ..] => (b'"', 1),
            [b'\\', ..] => (b'\\', 1),
            [b'n', ..] => (b'\n', 1),
            [b'r', ..] => (b'\r', 1),
            [b't', ..] => (b'\t', 1),
            [b'b', ..] => (0x08, 1),
            [b'f', ..] => (0x0c, 1),
            [b'u', b'0', b'0', hi @ (b'0' | b'1'), lo @ (b'0'..=b'9' | b'a'..=b'f'), ..] => {
                let lo = if lo <= b'9' {
                    lo - b'0'
                } else {
                    lo - b'a' + 10
                };
                let byte = (hi - b'0') << 4 | lo;
                // These five have a short escape, which the writer uses.
                if matches!(byte, 0x08 | 0x09 | 0x0a | 0x0c | 0x0d) {
                    return Err(self.error("a long escape for a short one"));
                }
                (byte, 5)
            }
            _ => return Err(self.error("an escape the writer does not write")),
        };
        self.pos += len;
        Ok(char::from(byte))
    }

    /// Reads an integer as [`write_u64`] writes one, after a `-` when
    /// negative: `0`, or digits with no leading zero, and never `-0`.
    /// Every integer type's range lies within the result's, so a field's
    /// range check is one `try_from`.
    fn integer(&mut self) -> Result<i128, ProtoError> {
        let negative = self.take("-");
        let start = self.pos;
        let mut magnitude = 0u64;
        while let Some(&digit @ b'0'..=b'9') = self.rest().first() {
            magnitude = magnitude
                .checked_mul(10)
                .and_then(|m| m.checked_add(u64::from(digit - b'0')))
                .ok_or_else(|| self.error("an integer wider than 64 bits"))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        if digits == 0 || (self.bytes[start] == b'0' && (digits > 1 || negative)) {
            return Err(self.error("expected an integer as the writer writes it"));
        }
        let magnitude = i128::from(magnitude);
        Ok(if negative { -magnitude } else { magnitude })
    }

    /// Reads an enum as the writer writes one: a unit variant as its
    /// quoted name, which `unit` looks up, and a data variant as
    /// [`tagged`] writes it, `{"Name":payload}`, whose payload `data`
    /// reads for the name.
    fn variant<T>(
        &mut self,
        unit: impl FnOnce(&[u8]) -> Option<T>,
        data: impl FnOnce(&mut Self, &[u8]) -> Result<T, ProtoError>,
    ) -> Result<T, ProtoError> {
        if self.take("\"") {
            let name = self.name()?;
            return unit(name).ok_or_else(|| self.error("unknown unit variant"));
        }
        self.eat("{\"")?;
        let name = self.name()?;
        self.eat(":")?;
        let value = data(self, name)?;
        self.eat("}")?;
        Ok(value)
    }
}

/// A value read back from the bytes its [`Json`] writer writes (see
/// [`Reader`]).
trait FromJson: Sized {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError>;
}

/// Reads what `object!` writes for the same fields, `{"a":a,"b":b}` in
/// declaration order, into the struct or variant written as its fields
/// (`Path { a, b }`).
macro_rules! fields {
    ($r:ident; $($path:ident)::+ { $first:ident $(, $rest:ident)* }) => {{
        $r.eat(concat!("{\"", stringify!($first), "\":"))?;
        let $first = FromJson::read_json($r)?;
        $(
            $r.eat(concat!(",\"", stringify!($rest), "\":"))?;
            let $rest = FromJson::read_json($r)?;
        )*
        $r.eat("}")?;
        $($path)::+ { $first $(, $rest)* }
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
        if r.take("true") {
            Ok(true)
        } else {
            r.eat("false").map(|()| false)
        }
    }
}

impl FromJson for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.string()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        if r.take("null") {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl FromJson for Request {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.variant(
            |name| match name {
                b"Quiesce" => Some(Request::Quiesce),
                b"Evict" => Some(Request::Evict),
                b"Digest" => Some(Request::Digest),
                _ => None,
            },
            |r, name| {
                Ok(match name {
                    b"RegisterTenant" => fields!(r; Request::RegisterTenant {
                        expected_clients, mailbox_cap, ballot_min, ballot_max
                    }),
                    b"Observe" => fields!(r; Request::Observe { key, value }),
                    b"Ballot" => fields!(r; Request::Ballot { round, value }),
                    b"Tick" => fields!(r; Request::Tick { round }),
                    _ => return Err(r.error("unknown variant")),
                })
            },
        )
    }
}

impl FromJson for RejectReason {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        r.variant(
            |name| match name {
                b"UnknownTenant" => Some(RejectReason::UnknownTenant),
                b"TenantExists" => Some(RejectReason::TenantExists),
                b"TenantLimit" => Some(RejectReason::TenantLimit),
                b"Quiescing" => Some(RejectReason::Quiescing),
                b"QuotaExceeded" => Some(RejectReason::QuotaExceeded),
                b"StreamLimit" => Some(RejectReason::StreamLimit),
                b"BadFrame" => Some(RejectReason::BadFrame),
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
            |r, name| {
                Ok(match name {
                    b"Registered" => fields!(r; Reply::Registered { tenant }),
                    b"Quiesced" => fields!(r; Reply::Quiesced { tenant }),
                    b"Evicted" => Reply::Evicted(FromJson::read_json(r)?),
                    b"Observed" => fields!(r; Reply::Observed { satisfied }),
                    b"BallotAccepted" => fields!(r; Reply::BallotAccepted { round }),
                    b"RoundResult" => Reply::RoundResult(FromJson::read_json(r)?),
                    b"Digest" => Reply::Digest(FromJson::read_json(r)?),
                    b"Rejected" => fields!(r; Reply::Rejected { reason, retry_after_ms }),
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
