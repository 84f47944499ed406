//! The daemon's wire protocol: length-prefixed JSON frames, typed
//! requests/responses, and canonical spec hashing.
//!
//! # Framing
//!
//! Every message is one *frame*: a little-endian `u32` byte length followed
//! by that many bytes of protocol JSON ([`crate::json`]). The length prefix
//! is checked against a configurable cap **before** the payload is read, so
//! an oversized request is rejected with a typed error after reading eight
//! bytes, not after buffering an attacker-chosen allocation.
//!
//! # Requests
//!
//! ```json
//! {"id":"r1","op":"synth","pla":".i 2\n.o 1\n11 1\n.e\n",
//!  "deadline_ms":2000,"step_limit":100000,"max_in":12,"max_out":10}
//! {"id":"r2","op":"synth","registry":"1-digit decimal adder"}
//! {"id":"s","op":"stats"}
//! {"id":"q","op":"shutdown","mode":"drain"}
//! ```
//!
//! # Responses
//!
//! ```json
//! {"id":"r1","status":"ok","spec_hash":"…16 hex…","cached":false,
//!  "resumed":false,"result":{"stats":{…},"cascade":"…","verilog":"…",
//!  "degradations":[]}}
//! {"id":"r3","status":"error","error":{"code":"queue_full","message":"…"}}
//! ```
//!
//! The `result` object is rendered deterministically, which is what lets
//! the chaos harness byte-compare a crash-recovered response against a
//! locally recomputed one.

use crate::json::{self, Json};
use bddcf_bdd::snapshot::fnv1a64;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default cap on a single frame's payload (1 MiB) — far above any
/// legitimate request, far below a memory-exhaustion attempt.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Writes one frame: `u32` little-endian length, then the payload.
///
/// Prefix and payload go down in a single `write_all`, so a frame larger
/// than a `BufWriter`'s buffer reaches the socket as one write rather than
/// a 4-byte segment followed by the payload, which Nagle's algorithm would
/// hold back until the peer's delayed ACK.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// How reading a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (or timed out).
    Io(io::Error),
    /// The length prefix exceeds the configured cap; the payload was not
    /// read and the connection can no longer be framed reliably.
    Oversized {
        /// The advertised payload length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame, or `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Some(payload))
}

/// One client round trip: connects to `addr`, sends `payload` as one
/// frame, and returns the payload of the reply frame, waiting up to 120 s
/// for it.
pub(crate) fn roundtrip(addr: SocketAddr, payload: &[u8]) -> Result<Vec<u8>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("socket: {e}"))?;
    write_frame(&mut &stream, payload).map_err(|e| format!("send: {e}"))?;
    match read_frame(&mut &stream, DEFAULT_MAX_FRAME) {
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err("daemon closed before replying".into()),
        Err(e) => Err(format!("read: {e}")),
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Where a synthesis request's function comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// An inline PLA text.
    Pla(String),
    /// A registry benchmark, matched by exact label (see
    /// `bddcf_funcs::registry`).
    Registry(String),
}

/// The canonical description of one synthesis job. Two requests with equal
/// specs are the same computation — the cache, the circuit breaker, and
/// the spool all key on [`SynthSpec::hash`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthSpec {
    /// The function to synthesize.
    pub source: Source,
    /// Sifting passes before reduction (default 1).
    pub sift: usize,
    /// Fixpoint iteration cap (default 4).
    pub max_iter: usize,
    /// Maximum LUT cell inputs (default 12).
    pub max_in: usize,
    /// Maximum LUT cell outputs (default 10).
    pub max_out: usize,
    /// Per-request node quota; `None` uses the server default shard.
    pub node_limit: Option<usize>,
    /// Per-request step quota (deterministic degradation knob).
    pub step_limit: Option<u64>,
}

impl SynthSpec {
    /// A spec with default knobs for `source`.
    pub fn new(source: Source) -> Self {
        SynthSpec {
            source,
            sift: 1,
            max_iter: 4,
            max_in: 12,
            max_out: 10,
            node_limit: None,
            step_limit: None,
        }
    }

    /// The canonical JSON of the spec — the hashing domain. Field order is
    /// fixed; optional fields render as `null` so absence is unambiguous.
    pub fn canonical(&self) -> Json {
        let (kind, text) = match &self.source {
            Source::Pla(text) => ("pla", text.clone()),
            Source::Registry(label) => ("registry", label.clone()),
        };
        Json::Obj(vec![
            ("kind".into(), Json::Str(kind.into())),
            ("text".into(), Json::Str(text)),
            ("sift".into(), Json::Int(self.sift as i64)),
            ("max_iter".into(), Json::Int(self.max_iter as i64)),
            ("max_in".into(), Json::Int(self.max_in as i64)),
            ("max_out".into(), Json::Int(self.max_out as i64)),
            (
                "node_limit".into(),
                self.node_limit.map_or(Json::Null, |n| Json::Int(n as i64)),
            ),
            (
                "step_limit".into(),
                self.step_limit
                    .map_or(Json::Null, |n| Json::Int(n.min(i64::MAX as u64) as i64)),
            ),
        ])
    }

    /// FNV-1a/64 over the canonical rendering — the spec's identity.
    pub fn hash(&self) -> u64 {
        fnv1a64(self.canonical().render().as_bytes())
    }

    /// The hash as fixed-width lowercase hex (protocol/spool currency).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash())
    }
}

/// Graceful-shutdown flavors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admitting, finish every queued and in-flight job, then exit.
    Drain,
    /// Stop admitting, cancel in-flight jobs at their next checkpoint
    /// boundary (long jobs park a resumable checkpoint in the spool), and
    /// exit; queued jobs stay spooled for the next start.
    Checkpoint,
}

/// What a parsed request asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestBody {
    /// Run one synthesis job.
    Synth {
        /// The job description.
        spec: SynthSpec,
        /// Relative deadline in milliseconds (`None` = no deadline).
        deadline_ms: Option<u64>,
        /// Checkpoint the reduction into the spool (resumable after a
        /// crash or a `Checkpoint`-mode shutdown).
        checkpoint: bool,
    },
    /// Server counters.
    Stats,
    /// Begin shutdown.
    Shutdown(ShutdownMode),
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The operation.
    pub body: RequestBody,
}

/// Why a request frame was rejected before reaching the queue.
#[derive(Debug)]
pub struct ParseError {
    /// Id salvaged from the frame, when one parsed (echoed back so the
    /// client can correlate the rejection).
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

fn field_usize(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

impl Request {
    /// Parses a request frame. On failure the salvaged id (if any) rides
    /// along so the error response still correlates.
    pub fn from_bytes(bytes: &[u8]) -> Result<Request, ParseError> {
        let value = json::parse(bytes).map_err(|e| ParseError {
            id: None,
            message: e.to_string(),
        })?;
        let id = value.get("id").and_then(Json::as_str).map(str::to_owned);
        let fail = |message: String| ParseError {
            id: id.clone(),
            message,
        };
        let id_ok = id
            .clone()
            .ok_or_else(|| fail("missing string `id`".into()))?;
        if id_ok.is_empty() || id_ok.len() > 128 {
            return Err(fail("`id` must be 1..=128 characters".into()));
        }
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `op`".into()))?;
        let body = match op {
            "synth" => {
                let source = match (
                    value.get("pla").and_then(Json::as_str),
                    value.get("registry").and_then(Json::as_str),
                ) {
                    (Some(text), None) => Source::Pla(text.to_owned()),
                    (None, Some(label)) => Source::Registry(label.to_owned()),
                    _ => {
                        return Err(fail(
                            "synth needs exactly one of string `pla` or `registry`".into(),
                        ))
                    }
                };
                let mut spec = SynthSpec::new(source);
                spec.sift = field_usize(&value, "sift", spec.sift).map_err(&fail)?;
                spec.max_iter = field_usize(&value, "max_iter", spec.max_iter).map_err(&fail)?;
                spec.max_in = field_usize(&value, "max_in", spec.max_in).map_err(&fail)?;
                spec.max_out = field_usize(&value, "max_out", spec.max_out).map_err(&fail)?;
                if spec.max_in == 0 || spec.max_out == 0 {
                    return Err(fail("`max_in` and `max_out` must be positive".into()));
                }
                spec.node_limit = field_opt_u64(&value, "node_limit")
                    .map_err(&fail)?
                    .map(|n| n as usize);
                spec.step_limit = field_opt_u64(&value, "step_limit").map_err(&fail)?;
                RequestBody::Synth {
                    spec,
                    deadline_ms: field_opt_u64(&value, "deadline_ms").map_err(&fail)?,
                    checkpoint: value
                        .get("checkpoint")
                        .map_or(Ok(false), |v| {
                            v.as_bool().ok_or("`checkpoint` must be a boolean".into())
                        })
                        .map_err(|e: String| fail(e))?,
                }
            }
            "stats" => RequestBody::Stats,
            "shutdown" => {
                let mode = match value.get("mode").and_then(Json::as_str) {
                    None | Some("drain") => ShutdownMode::Drain,
                    Some("checkpoint") => ShutdownMode::Checkpoint,
                    Some(other) => {
                        return Err(fail(format!(
                            "unknown shutdown mode {other:?} (drain | checkpoint)"
                        )))
                    }
                };
                RequestBody::Shutdown(mode)
            }
            other => return Err(fail(format!("unknown op {other:?}"))),
        };
        Ok(Request { id: id_ok, body })
    }

    /// Renders the request to a frame payload (client side).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut fields = vec![("id".to_string(), Json::Str(self.id.clone()))];
        match &self.body {
            RequestBody::Synth {
                spec,
                deadline_ms,
                checkpoint,
            } => {
                fields.push(("op".into(), Json::Str("synth".into())));
                match &spec.source {
                    Source::Pla(text) => fields.push(("pla".into(), Json::Str(text.clone()))),
                    Source::Registry(label) => {
                        fields.push(("registry".into(), Json::Str(label.clone())))
                    }
                }
                fields.push(("sift".into(), Json::Int(spec.sift as i64)));
                fields.push(("max_iter".into(), Json::Int(spec.max_iter as i64)));
                fields.push(("max_in".into(), Json::Int(spec.max_in as i64)));
                fields.push(("max_out".into(), Json::Int(spec.max_out as i64)));
                if let Some(n) = spec.node_limit {
                    fields.push(("node_limit".into(), Json::Int(n as i64)));
                }
                if let Some(n) = spec.step_limit {
                    fields.push((
                        "step_limit".into(),
                        Json::Int(n.min(i64::MAX as u64) as i64),
                    ));
                }
                if let Some(ms) = deadline_ms {
                    fields.push((
                        "deadline_ms".into(),
                        Json::Int((*ms).min(i64::MAX as u64) as i64),
                    ));
                }
                if *checkpoint {
                    fields.push(("checkpoint".into(), Json::Bool(true)));
                }
            }
            RequestBody::Stats => fields.push(("op".into(), Json::Str("stats".into()))),
            RequestBody::Shutdown(mode) => {
                fields.push(("op".into(), Json::Str("shutdown".into())));
                let mode = match mode {
                    ShutdownMode::Drain => "drain",
                    ShutdownMode::Checkpoint => "checkpoint",
                };
                fields.push(("mode".into(), Json::Str(mode.into())));
            }
        }
        Json::Obj(fields).render().into_bytes()
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Typed rejection/failure classes, each with distinct client guidance:
/// `queue_full`/`overloaded`/`draining` are retryable elsewhere-or-later,
/// `circuit_open` means back off this spec, the rest are terminal for the
/// request as sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a well-formed request.
    Malformed,
    /// The frame exceeded the size cap.
    Oversized,
    /// The bounded request queue is full.
    QueueFull,
    /// Admitting the job would exceed the global in-flight node budget.
    Overloaded,
    /// The per-spec circuit breaker is open after repeated failures.
    CircuitOpen,
    /// The server is shutting down and no longer admits work.
    Draining,
    /// The request's deadline passed (in queue or mid-run).
    Deadline,
    /// A node/step quota made the job fail outright (degradations that
    /// still complete report `status:"degraded"` instead).
    Budget,
    /// The job panicked; its manager was poisoned and discarded.
    Panicked,
    /// The function cannot be synthesized under the cell constraints.
    Infeasible,
    /// An internal error (spool I/O, checkpoint corruption, …).
    Internal,
}

impl ErrorCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::CircuitOpen => "circuit_open",
            ErrorCode::Draining => "draining",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Budget => "budget",
            ErrorCode::Panicked => "panicked",
            ErrorCode::Infeasible => "infeasible",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire token.
    pub fn parse_token(token: &str) -> Option<ErrorCode> {
        Some(match token {
            "malformed" => ErrorCode::Malformed,
            "oversized" => ErrorCode::Oversized,
            "queue_full" => ErrorCode::QueueFull,
            "overloaded" => ErrorCode::Overloaded,
            "circuit_open" => ErrorCode::CircuitOpen,
            "draining" => ErrorCode::Draining,
            "deadline" => ErrorCode::Deadline,
            "budget" => ErrorCode::Budget,
            "panicked" => ErrorCode::Panicked,
            "infeasible" => ErrorCode::Infeasible,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Should a client retry the same request later? (`circuit_open` is
    /// deliberately *not* retryable: the spec itself keeps failing.)
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull | ErrorCode::Overloaded | ErrorCode::Draining
        )
    }
}

/// Summary numbers of a synthesized cascade plus the reduction trajectory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthStats {
    /// LUT cells in the cascade.
    pub cells: usize,
    /// Total LUT outputs.
    pub lut_outputs: usize,
    /// Total memory bits.
    pub memory_bits: u64,
    /// Widest inter-cell rail bus.
    pub max_rails: usize,
    /// Final χ width after reduction. (The *initial* width is deliberately
    /// absent: a checkpoint-resumed run cannot know it, and the response
    /// must be byte-identical whether or not the daemon was restarted.)
    pub width: usize,
    /// Final χ node count after reduction.
    pub nodes: usize,
}

/// The deterministic payload of a completed job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthResult {
    /// Cascade summary numbers.
    pub stats: SynthStats,
    /// The `.cas` cell-table artifact.
    pub cascade: String,
    /// The Verilog artifact (module named `spec_<hash16>`).
    pub verilog: String,
    /// Rendered degradation events (empty = fully reduced under budget).
    pub degradations: Vec<String>,
}

impl SynthResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "stats".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::Int(self.stats.cells as i64)),
                    (
                        "lut_outputs".into(),
                        Json::Int(self.stats.lut_outputs as i64),
                    ),
                    (
                        "memory_bits".into(),
                        Json::Int(self.stats.memory_bits.min(i64::MAX as u64) as i64),
                    ),
                    ("max_rails".into(), Json::Int(self.stats.max_rails as i64)),
                    ("width".into(), Json::Int(self.stats.width as i64)),
                    ("nodes".into(), Json::Int(self.stats.nodes as i64)),
                ]),
            ),
            ("cascade".into(), Json::Str(self.cascade.clone())),
            ("verilog".into(), Json::Str(self.verilog.clone())),
            (
                "degradations".into(),
                Json::Arr(
                    self.degradations
                        .iter()
                        .map(|d| Json::Str(d.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Option<SynthResult> {
        let stats = value.get("stats")?;
        let g = |k: &str| stats.get(k).and_then(Json::as_u64);
        Some(SynthResult {
            stats: SynthStats {
                cells: g("cells")? as usize,
                lut_outputs: g("lut_outputs")? as usize,
                memory_bits: g("memory_bits")?,
                max_rails: g("max_rails")? as usize,
                width: g("width")? as usize,
                nodes: g("nodes")? as usize,
            },
            cascade: value.get("cascade")?.as_str()?.to_owned(),
            verilog: value.get("verilog")?.as_str()?.to_owned(),
            degradations: value
                .get("degradations")?
                .as_arr()?
                .iter()
                .map(|d| d.as_str().map(str::to_owned))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Overall request verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Completed with a clean degradation report.
    Ok,
    /// Completed, but budget pressure downgraded some reduction steps;
    /// the artifacts are valid but less reduced ([`SynthResult::degradations`]).
    Degraded,
    /// Not completed; see the error code.
    Error,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Degraded => "degraded",
            Status::Error => "error",
        }
    }
}

/// One response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id (empty when the id could not be parsed).
    pub id: String,
    /// Verdict.
    pub status: Status,
    /// Spec identity, when the request parsed far enough to have one.
    pub spec_hash: Option<String>,
    /// Error code and message (`status == Error` only).
    pub error: Option<(ErrorCode, String)>,
    /// The job payload (`status != Error` for synth requests).
    pub result: Option<SynthResult>,
    /// Served from the validated response cache.
    pub cached: bool,
    /// Completed by a restarted daemon from the spool (checkpoint resume
    /// or queued-request recovery).
    pub resumed: bool,
    /// The daemon could not durably record this request or its outcome
    /// (ENOSPC/EIO on the spool or checkpoint path). The result itself is
    /// correct, but it is **not** crash-durable and was not cached; a
    /// client that needs durability should retry once storage recovers
    /// (watch `storage_degraded` in `stats`).
    pub storage_degraded: bool,
}

impl Response {
    /// An error response.
    pub fn failure(id: impl Into<String>, code: ErrorCode, message: impl Into<String>) -> Self {
        Response {
            id: id.into(),
            status: Status::Error,
            spec_hash: None,
            error: Some((code, message.into())),
            result: None,
            cached: false,
            resumed: false,
            storage_degraded: false,
        }
    }

    /// Renders the full wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("status".into(), Json::Str(self.status.as_str().into())),
        ];
        if let Some(hash) = &self.spec_hash {
            fields.push(("spec_hash".into(), Json::Str(hash.clone())));
        }
        if let Some((code, message)) = &self.error {
            fields.push((
                "error".into(),
                Json::Obj(vec![
                    ("code".into(), Json::Str(code.as_str().into())),
                    ("message".into(), Json::Str(message.clone())),
                ]),
            ));
        }
        fields.push(("cached".into(), Json::Bool(self.cached)));
        fields.push(("resumed".into(), Json::Bool(self.resumed)));
        if self.storage_degraded {
            // Emitted only when set, so pre-existing clients see unchanged
            // wire bytes on the healthy path.
            fields.push(("storage_degraded".into(), Json::Bool(true)));
        }
        if let Some(result) = &self.result {
            fields.push(("result".into(), result.to_json()));
        }
        Json::Obj(fields).render().into_bytes()
    }

    /// The *deterministic* portion of the response — everything except the
    /// delivery-path flags (`cached`, `resumed`, `storage_degraded`), which
    /// legitimately differ between a first run, a cache hit, and a
    /// crash-recovered replay. The chaos harness byte-compares these.
    pub fn artifact_bytes(&self) -> Vec<u8> {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("status".into(), Json::Str(self.status.as_str().into())),
        ];
        if let Some(hash) = &self.spec_hash {
            fields.push(("spec_hash".into(), Json::Str(hash.clone())));
        }
        if let Some((code, _)) = &self.error {
            fields.push(("error_code".into(), Json::Str(code.as_str().into())));
        }
        if let Some(result) = &self.result {
            fields.push(("result".into(), result.to_json()));
        }
        Json::Obj(fields).render().into_bytes()
    }

    /// Parses a response frame (client side).
    pub fn from_bytes(bytes: &[u8]) -> Result<Response, String> {
        let value = json::parse(bytes).map_err(|e| e.to_string())?;
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("response missing `id`")?
            .to_owned();
        let status = match value.get("status").and_then(Json::as_str) {
            Some("ok") => Status::Ok,
            Some("degraded") => Status::Degraded,
            Some("error") => Status::Error,
            other => return Err(format!("bad response status {other:?}")),
        };
        let error = match value.get("error") {
            None => None,
            Some(e) => {
                let code = e
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse_token)
                    .ok_or("bad error code")?;
                let message = e
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned();
                Some((code, message))
            }
        };
        let result = match value.get("result") {
            None => None,
            Some(r) => Some(SynthResult::from_json(r).ok_or("bad result object")?),
        };
        Ok(Response {
            id,
            status,
            spec_hash: value
                .get("spec_hash")
                .and_then(Json::as_str)
                .map(str::to_owned),
            error,
            result,
            cached: value.get("cached").and_then(Json::as_bool).unwrap_or(false),
            resumed: value
                .get("resumed")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            storage_degraded: value
                .get("storage_degraded")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 64).expect("read").as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut r, 64).expect("read").as_deref(),
            Some(&b""[..])
        );
        assert!(read_frame(&mut r, 64).expect("eof").is_none());
    }

    #[test]
    fn a_frame_past_the_buffer_is_one_write() {
        /// Counts the writes that reach the inner writer.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload = vec![b'x'; 9 * 1024];
        let mut w = io::BufWriter::new(Counting::default());
        write_frame(&mut w, &payload).expect("write");
        let inner = w.get_ref();
        assert_eq!(inner.writes, 1, "prefix and payload in one write");
        let mut r = &inner.bytes[..];
        assert_eq!(
            read_frame(&mut r, 1 << 20).expect("read").as_deref(),
            Some(&payload[..])
        );
    }

    #[test]
    fn oversized_frames_reject_before_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1_000_000u32).to_le_bytes());
        // Deliberately no payload bytes: the cap check must fire first.
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Oversized {
                len: 1_000_000,
                max: 1024
            })
        ));
    }

    #[test]
    fn truncated_prefix_is_an_error_not_eof() {
        let mut r = &[0x05u8, 0x00][..];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Io(_))));
    }

    #[test]
    fn requests_round_trip_and_hash_stably() {
        let req = Request {
            id: "r-1".into(),
            body: RequestBody::Synth {
                spec: SynthSpec {
                    source: Source::Pla(".i 1\n.o 1\n1 1\n.e\n".into()),
                    sift: 2,
                    max_iter: 3,
                    max_in: 8,
                    max_out: 6,
                    node_limit: Some(5000),
                    step_limit: None,
                },
                deadline_ms: Some(250),
                checkpoint: true,
            },
        };
        let parsed = Request::from_bytes(&req.to_bytes()).expect("parse");
        assert_eq!(parsed, req);
        let RequestBody::Synth { spec, .. } = &parsed.body else {
            panic!("synth body");
        };
        // The hash depends only on the spec, not on id/deadline.
        assert_eq!(spec.hash_hex().len(), 16);
        let mut other = spec.clone();
        assert_eq!(other.hash(), spec.hash());
        other.step_limit = Some(9);
        assert_ne!(other.hash(), spec.hash());
    }

    #[test]
    fn malformed_requests_salvage_the_id() {
        let err = Request::from_bytes(b"{\"id\":\"x\",\"op\":\"nope\"}").expect_err("reject");
        assert_eq!(err.id.as_deref(), Some("x"));
        let err = Request::from_bytes(b"not json").expect_err("reject");
        assert_eq!(err.id, None);
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response {
            id: "r-1".into(),
            status: Status::Degraded,
            spec_hash: Some("00ff00ff00ff00ff".into()),
            error: None,
            result: Some(SynthResult {
                stats: SynthStats {
                    cells: 2,
                    lut_outputs: 3,
                    memory_bits: 96,
                    max_rails: 2,
                    width: 3,
                    nodes: 22,
                },
                cascade: "cells 2\n".into(),
                verilog: "module spec_x;\nendmodule\n".into(),
                degradations: vec!["alg33: skipped level 2".into()],
            }),
            cached: true,
            resumed: false,
            storage_degraded: false,
        };
        let parsed = Response::from_bytes(&resp.to_bytes()).expect("parse");
        assert_eq!(parsed, resp);
        // artifact_bytes ignores the delivery-path flags.
        let mut replay = resp.clone();
        replay.cached = false;
        replay.resumed = true;
        replay.storage_degraded = true;
        assert_eq!(replay.artifact_bytes(), resp.artifact_bytes());
        assert_ne!(replay.to_bytes(), resp.to_bytes());
        // storage_degraded itself round trips, and its absence on the
        // healthy path keeps pre-existing wire bytes unchanged.
        let parsed = Response::from_bytes(&replay.to_bytes()).expect("parse");
        assert!(parsed.storage_degraded);
        assert!(!String::from_utf8_lossy(&resp.to_bytes()).contains("storage_degraded"));
    }

    #[test]
    fn shutdown_and_stats_parse() {
        let req =
            Request::from_bytes(b"{\"id\":\"q\",\"op\":\"shutdown\",\"mode\":\"checkpoint\"}")
                .expect("parse");
        assert_eq!(req.body, RequestBody::Shutdown(ShutdownMode::Checkpoint));
        let req = Request::from_bytes(b"{\"id\":\"s\",\"op\":\"stats\"}").expect("parse");
        assert_eq!(req.body, RequestBody::Stats);
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::QueueFull,
            ErrorCode::Overloaded,
            ErrorCode::CircuitOpen,
            ErrorCode::Draining,
            ErrorCode::Deadline,
            ErrorCode::Budget,
            ErrorCode::Panicked,
            ErrorCode::Infeasible,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse_token(code.as_str()), Some(code));
        }
        assert!(ErrorCode::QueueFull.is_retryable());
        assert!(!ErrorCode::CircuitOpen.is_retryable());
        assert!(!ErrorCode::Budget.is_retryable());
    }
}
