// cast-safety: the frozen byte format never narrows a value silently.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

//! The framed wire codec: length-prefixed, versioned, checksummed frames
//! and the message set they carry.
//!
//! # Frame layout
//!
//! Every frame on the wire is:
//!
//! | field      | size      | value                                        |
//! |------------|-----------|----------------------------------------------|
//! | `magic`    | 4 bytes   | [`WIRE_MAGIC`] = `b"ETSN"`                   |
//! | `version`  | u16 LE    | [`WIRE_VERSION`] of the writer               |
//! | `msg_type` | u8        | message discriminant (see [`Message`])       |
//! | `len`      | u32 LE    | payload length in bytes                      |
//! | `payload`  | `len` B   | message body ([`etsc_persist`] primitives)   |
//! | `checksum` | u64 LE    | FNV-1a 64 over every preceding byte          |
//!
//! The checksum reuses [`etsc_core::hash`] — the same function the persist
//! envelope uses — seeded over the header and continued over the payload
//! ([`hash::fnv1a_64_with`]), so integrity covers the framing itself, not
//! just the body. Inside the payload the primitive vocabulary is exactly
//! the persist codec's ([`Encoder`]/[`Decoder`]): little-endian fixed
//! widths, length-prefixed strings and blobs, floats as IEEE bits.
//!
//! # Version policy
//!
//! [`WIRE_VERSION`] follows the same rules as
//! [`etsc_persist::FORMAT_VERSION`]: any change to the frame layout or to
//! an existing message's payload layout bumps the version, and readers
//! reject every other version with [`WireError::UnsupportedVersion`]
//! rather than misdecoding. Adding a *new* message type is allowed within
//! a version (unknown types are a typed error, and nodes only ever reply
//! with types the requesting client already knows).
//!
//! # Robustness
//!
//! Decoding never panics, never hangs, and never allocates proportionally
//! to an unvalidated length: the payload length is checked against the
//! receiver's [`MAX_FRAME_PAYLOAD`] cap before any buffer is sized, element
//! counts inside payloads are validated against the bytes actually present
//! ([`Decoder::check_claim`]), and a connection that drops mid-frame
//! surfaces as [`WireError::Truncated`].

use std::io::{ErrorKind, Read, Write};

use etsc_core::hash;
use etsc_core::trace::TraceContext;
use etsc_persist::{Decoder, Encoder};
use etsc_serve::{Record, StreamAlarm};
use etsc_stream::Alarm;

use crate::error::WireError;

/// Frame magic bytes ("ETSc Net"; distinct from the persist envelope's
/// `b"ETSC"` so a snapshot file is never mistaken for a frame stream).
pub const WIRE_MAGIC: [u8; 4] = *b"ETSN";

/// Current wire version. Bump on any frame- or payload-layout change;
/// readers reject every other version instead of misdecoding.
///
/// **v2** (fault tolerance): [`Message::IngestBatch`] gained a `(client,
/// seq)` idempotency tag (`(0, 0)` = untagged), [`Message::IngestAck`]
/// gained an `applied` flag (false = the batch was a duplicate of one the
/// node already applied), and the [`WireError::QueueFull`] /
/// [`WireError::Busy`] error payloads gained a `retry_after_ms` hint
/// (0 = unknown) so clients can honor server pressure when backing off.
///
/// **v3** (distributed tracing): [`Message::IngestBatch`] gained an
/// *optional trailing* [`TraceContext`] — 16 bytes (trace id u64 LE, then
/// parent span id u64 LE) appended after the record list only when the
/// sender is tracing, so an untraced ingest costs zero extra bytes on the
/// wire. Decoders distinguish the two layouts by the bytes remaining after
/// the records (0 = untraced, 16 = traced; anything else is
/// [`WireError::Malformed`]). v3 also added the [`Message::Trace`] request
/// / [`Message::TraceAck`] reply pair, which exports a node's span ring as
/// Chrome `trace_event` JSON the same way [`Message::Stats`] exports its
/// metrics. Version negotiation is unchanged: readers accept exactly
/// [`WIRE_VERSION`] and reject everything else with
/// [`WireError::UnsupportedVersion`] — a v2 peer never sees a half-decoded
/// v3 frame.
pub const WIRE_VERSION: u16 = 3;

/// Default cap on a frame's payload length (32 MiB). A header declaring
/// more fails with [`WireError::FrameTooLarge`] before any allocation.
pub const MAX_FRAME_PAYLOAD: usize = 32 << 20;

/// Frame header size: magic (4) + version (2) + msg_type (1) + len (4).
pub const FRAME_HEADER_LEN: usize = 11;

/// Frame trailer size: the u64 checksum.
pub const FRAME_CHECKSUM_LEN: usize = 8;

/// A decoded frame: the message discriminant and its raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant (see [`Message`] for the assignment).
    pub msg_type: u8,
    /// Message body bytes.
    pub payload: Vec<u8>,
}

/// Encode a frame: header, payload, trailing checksum.
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + FRAME_CHECKSUM_LEN);
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.push(msg_type);
    // The length field is u32. A payload too large to represent cannot be
    // framed at all; saturating the declared length yields a frame every
    // reader refuses with a typed [`WireError::FrameTooLarge`] (payload
    // caps sit far below `u32::MAX`) instead of one that misdecodes.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = hash::fnv1a_64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Write one frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, msg_type: u8, payload: &[u8]) -> Result<(), WireError> {
    let bytes = encode_frame(msg_type, payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Validate a frame header; returns `(msg_type, payload_len)`.
fn validate_header(
    header: &[u8; FRAME_HEADER_LEN],
    max_payload: usize,
) -> Result<(u8, usize), WireError> {
    let [m0, m1, m2, m3, v0, v1, msg_type, l0, l1, l2, l3] = *header;
    if [m0, m1, m2, m3] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    // On a target whose usize cannot hold the declared u32 length the frame
    // is oversized by definition; saturate so the cap check below rejects it
    // with the same typed error.
    let len = usize::try_from(u32::from_le_bytes([l0, l1, l2, l3])).unwrap_or(usize::MAX);
    if len > max_payload {
        return Err(WireError::FrameTooLarge {
            declared: len,
            max: max_payload,
        });
    }
    Ok((msg_type, len))
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, checksum-verified frame.
    Frame(Frame),
    /// The peer closed the connection cleanly at a frame boundary (EOF
    /// before the first header byte).
    Closed,
    /// `should_stop` returned true while waiting for bytes (only possible
    /// on transports with a read timeout).
    Stopped,
}

/// Fill `buf` from `r`, retrying timeouts until `should_stop` says
/// otherwise. `Ok(None)` means stopped; `Ok(Some(false))` means EOF before
/// the first byte (only accepted when `filled_any` starts false and
/// `eof_ok`), `Ok(Some(true))` means filled.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_ok: bool,
    context: &'static str,
    should_stop: &mut dyn FnMut() -> bool,
) -> Result<Option<bool>, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        // The loop guard keeps `filled` in range; `else` is unreachable but
        // costs a typed error, not a panic, if that ever stops being true.
        let Some(dst) = buf.get_mut(filled..) else {
            return Err(WireError::Truncated { context });
        };
        match r.read(dst) {
            Ok(0) => {
                return if filled == 0 && eof_ok {
                    Ok(Some(false))
                } else {
                    Err(WireError::Truncated { context })
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if e.kind() != ErrorKind::Interrupted && should_stop() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(Some(true))
}

/// Read one frame from `r`, validating magic, version, length cap, and
/// checksum.
///
/// Read timeouts on the underlying transport are retried until
/// `should_stop` returns true (servers pass their shutdown flag; clients
/// pass a deadline check), so a stalled peer can never hang the caller
/// forever, and a peer that disappears mid-frame surfaces as
/// [`WireError::Truncated`] — typed, every time.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
    should_stop: &mut dyn FnMut() -> bool,
) -> Result<ReadOutcome, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match read_full(r, &mut header, true, "frame header", should_stop)? {
        None => return Ok(ReadOutcome::Stopped),
        Some(false) => return Ok(ReadOutcome::Closed),
        Some(true) => {}
    }
    let (msg_type, len) = validate_header(&header, max_payload)?;
    // `len` is already capped by max_payload, so this allocation is bounded.
    let mut rest = vec![0u8; len + FRAME_CHECKSUM_LEN];
    if read_full(r, &mut rest, false, "frame payload", should_stop)?.is_none() {
        return Ok(ReadOutcome::Stopped);
    }
    // `rest` was sized `len + FRAME_CHECKSUM_LEN` above, so the split is in
    // bounds; `get` keeps the codec structurally panic-free regardless.
    let (payload, checksum) = (
        rest.get(..len).unwrap_or(&[]),
        rest.get(len..).unwrap_or(&[]),
    );
    let expected = hash::fnv1a_64_with(hash::fnv1a_64(&header), payload);
    let actual = checksum
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
    if expected != actual {
        return Err(WireError::ChecksumMismatch);
    }
    // Drop the checksum off the end: the read buffer becomes the payload.
    rest.truncate(len);
    Ok(ReadOutcome::Frame(Frame {
        msg_type,
        payload: rest,
    }))
}

/// Decode one frame from an in-memory buffer (no transport); used by tests
/// and fuzzing. Equivalent to [`read_frame`] over a slice reader, with
/// clean-EOF reported as [`WireError::Truncated`] (a buffer, unlike a
/// socket, cannot "close").
pub fn decode_frame(bytes: &[u8], max_payload: usize) -> Result<Frame, WireError> {
    let mut r = bytes;
    match read_frame(&mut r, max_payload, &mut || false)? {
        ReadOutcome::Frame(f) => Ok(f),
        ReadOutcome::Closed => Err(WireError::Truncated {
            context: "frame header",
        }),
        // Slice reads never time out, so this arm is dead; a typed error
        // keeps the decode path panic-free even so.
        ReadOutcome::Stopped => Err(WireError::Io(
            "in-memory frame decode reported a timeout".to_string(),
        )),
    }
}

// Message discriminants. Requests are 1..=15, replies 65..=79, the error
// reply is 127.
const MT_OPEN_STREAM: u8 = 1;
const MT_INGEST_BATCH: u8 = 2;
const MT_DRAIN: u8 = 3;
const MT_CHECKPOINT: u8 = 4;
const MT_STATS: u8 = 5;
const MT_MIGRATE_OUT: u8 = 6;
const MT_MIGRATE_IN: u8 = 7;
const MT_SHUTDOWN: u8 = 8;
const MT_PING: u8 = 9;
const MT_STREAM_COUNT: u8 = 10;
const MT_TRACE: u8 = 11;
const MT_OPEN_ACK: u8 = 65;
const MT_INGEST_ACK: u8 = 66;
const MT_DRAIN_ACK: u8 = 67;
const MT_CHECKPOINT_ACK: u8 = 68;
const MT_STATS_ACK: u8 = 69;
const MT_MIGRATE_STREAMS: u8 = 70;
const MT_MIGRATE_IN_ACK: u8 = 71;
const MT_PONG: u8 = 72;
const MT_SHUTDOWN_ACK: u8 = 73;
const MT_STREAM_COUNT_ACK: u8 = 74;
const MT_TRACE_ACK: u8 = 75;
const MT_ERROR: u8 = 127;

/// The protocol's message set: requests a client sends, replies a node
/// returns. Every request has exactly one reply; a request the node cannot
/// satisfy is answered with [`Message::Error`] (never a dropped
/// connection).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // --- requests ---
    /// Open a monitor for `stream` on the node (idempotent; the reply says
    /// whether it was created).
    OpenStream {
        /// Stream id to open.
        stream: u64,
    },
    /// Append a batch of records to the node's shard queues. Backpressure
    /// follows the remote runtime's overflow policy: the node either does
    /// the work before acking (Block — the client's call blocks) or
    /// replies [`WireError::QueueFull`] atomically (Reject).
    ///
    /// The `(client, seq)` pair is an idempotency tag: a tagged batch
    /// (`client != 0 && seq != 0`) whose `seq` the node has already
    /// applied for that client is acknowledged without being re-applied
    /// ([`Message::IngestAck`] with `applied: false`), which is what makes
    /// retrying an ingest whose ack was lost safe — the batch lands
    /// exactly once no matter how many times the client re-sends it.
    IngestBatch {
        /// Idempotency client id (0 = untagged, no dedup).
        client: u64,
        /// Per-client batch sequence number, starting at 1 (0 = untagged).
        seq: u64,
        /// The records, in ingest order.
        records: Vec<Record>,
        /// Optional trace context (v3): present only when the sender is
        /// tracing this batch. `None` encodes to zero bytes, so an
        /// untraced ingest's frame is byte-identical to a v2 one apart
        /// from the version field.
        ctx: Option<TraceContext>,
    },
    /// Process every queued record and return the produced alarms.
    Drain,
    /// Cut a model + runtime-state checkpoint into the node's registry.
    Checkpoint,
    /// Fetch the node's metrics in Prometheus text exposition format.
    Stats,
    /// Export the named streams for migration: the node snapshots, retires,
    /// and returns them as `(stream id, anchor snapshot)` pairs
    /// ([`Message::MigrateStreams`]). Atomic: an unknown id fails the whole
    /// request with no stream removed.
    MigrateOut {
        /// Stream ids to export, their queued records drained first.
        streams: Vec<u64>,
    },
    /// Import streams exported from another node. Atomic: corrupt bytes or
    /// a duplicate id refuse the whole batch.
    MigrateIn {
        /// `(stream id, anchor snapshot)` pairs from a
        /// [`Message::MigrateStreams`] reply.
        streams: Vec<(u64, Vec<u8>)>,
    },
    /// Gracefully stop the node: drain in-flight work, return the final
    /// alarms, then stop accepting connections.
    Shutdown,
    /// Round-trip probe; the node echoes `token` in a [`Message::Pong`].
    Ping {
        /// Arbitrary token echoed back.
        token: u64,
    },
    /// Ask how many streams are live on the node.
    StreamCount,
    /// Export the node's span ring and event log as Chrome `trace_event`
    /// JSON (the tracing counterpart of [`Message::Stats`]). A node
    /// without a tracer answers with a complete empty trace document, not
    /// an error.
    Trace,

    // --- replies ---
    /// Reply to [`Message::OpenStream`].
    OpenAck {
        /// True if the stream was created, false if already live.
        created: bool,
    },
    /// Reply to [`Message::IngestBatch`]: the batch was fully accepted.
    IngestAck {
        /// True if the batch was applied now; false if its idempotency tag
        /// marked it as a duplicate of an already-applied batch (the
        /// records were **not** re-applied).
        applied: bool,
    },
    /// Reply to [`Message::Drain`] with the alarms produced.
    DrainAck {
        /// Alarms sorted by the node's global ingest sequence number.
        alarms: Vec<StreamAlarm>,
    },
    /// Reply to [`Message::Checkpoint`].
    CheckpointAck {
        /// Size of the state envelope written, in bytes.
        bytes: u64,
    },
    /// Reply to [`Message::Stats`].
    StatsAck {
        /// Prometheus text exposition
        /// ([`ServeStats::render_prometheus`](etsc_serve::ServeStats::render_prometheus)).
        text: String,
    },
    /// Reply to [`Message::MigrateOut`] with the exported streams.
    MigrateStreams {
        /// `(stream id, anchor snapshot)` pairs, in request order.
        streams: Vec<(u64, Vec<u8>)>,
    },
    /// Reply to [`Message::MigrateIn`].
    MigrateInAck {
        /// Streams adopted (always the full batch — imports are atomic).
        accepted: u64,
    },
    /// Reply to [`Message::Ping`].
    Pong {
        /// The request's token.
        token: u64,
    },
    /// Reply to [`Message::Shutdown`] with the node's final drain.
    ShutdownAck {
        /// Alarms still undelivered when the shutdown arrived.
        alarms: Vec<StreamAlarm>,
    },
    /// Reply to [`Message::StreamCount`].
    StreamCountAck {
        /// Streams live across the node's shards.
        streams: u64,
    },
    /// Reply to [`Message::Trace`].
    TraceAck {
        /// Chrome `trace_event` JSON
        /// ([`Tracer::export_chrome`](etsc_core::trace::Tracer::export_chrome)).
        json: String,
    },
    /// Typed failure reply to any request.
    Error(
        /// The remote failure, decoded back into the same [`WireError`]
        /// variants the in-process path produces.
        WireError,
    ),
}

/// The [`Message::IngestBatch`] body: the idempotency tag, the records,
/// then the v3 optional trailing trace context (zero bytes when the sender
/// is not tracing). [`Message::encode`] and [`ingest_frame`] both write
/// through here, so the layout lives in one place.
fn put_ingest_batch(
    enc: &mut Encoder,
    client: u64,
    seq: u64,
    records: &[Record],
    ctx: Option<TraceContext>,
) {
    enc.put_u64(client);
    enc.put_u64(seq);
    enc.put_usize(records.len());
    for r in records {
        enc.put_u64(r.stream);
        enc.put_f64(r.value);
    }
    if let Some(ctx) = ctx {
        enc.put_u64(ctx.trace_id);
        enc.put_u64(ctx.parent_span);
    }
}

/// Frame an [`IngestBatch`](Message::IngestBatch) straight from borrowed
/// records: the bytes [`Message::to_frame_bytes`] writes for the same
/// batch, without first copying the records into a [`Message`].
pub(crate) fn ingest_frame(
    client: u64,
    seq: u64,
    records: &[Record],
    ctx: Option<TraceContext>,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    put_ingest_batch(&mut enc, client, seq, records, ctx);
    encode_frame(MT_INGEST_BATCH, &enc.into_bytes())
}

fn put_alarms(enc: &mut Encoder, alarms: &[StreamAlarm]) {
    enc.put_usize(alarms.len());
    for a in alarms {
        enc.put_u64(a.stream);
        enc.put_u64(a.seq);
        a.alarm.encode(enc);
    }
}

fn get_alarms(dec: &mut Decoder<'_>) -> Result<Vec<StreamAlarm>, WireError> {
    let n = dec.get_usize("alarm count")?;
    // stream + seq + 4-field alarm body = 48 bytes each.
    dec.check_claim(n, 48, "alarms")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let stream = dec.get_u64("alarm stream")?;
        let seq = dec.get_u64("alarm seq")?;
        let alarm = Alarm::decode(dec)?;
        out.push(StreamAlarm { stream, seq, alarm });
    }
    Ok(out)
}

fn put_stream_blobs(enc: &mut Encoder, streams: &[(u64, Vec<u8>)]) {
    enc.put_usize(streams.len());
    for (id, bytes) in streams {
        enc.put_u64(*id);
        enc.put_bytes(bytes);
    }
}

fn get_stream_blobs(dec: &mut Decoder<'_>) -> Result<Vec<(u64, Vec<u8>)>, WireError> {
    let n = dec.get_usize("stream blob count")?;
    // id + blob length prefix = 16 bytes minimum each.
    dec.check_claim(n, 16, "stream blobs")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = dec.get_u64("stream id")?;
        let bytes = dec.get_bytes("stream anchor snapshot")?;
        out.push((id, bytes));
    }
    Ok(out)
}

// Error-reply payload tags.
const ET_QUEUE_FULL: u8 = 0;
const ET_MODEL_MISSING: u8 = 1;
const ET_UNKNOWN_STREAM: u8 = 2;
const ET_DUPLICATE_STREAM: u8 = 3;
const ET_BAD_CONFIG: u8 = 4;
const ET_PERSIST: u8 = 5;
const ET_MALFORMED: u8 = 6;
const ET_BUSY: u8 = 7;

/// Encode a [`WireError`] into an error-reply payload. Only the remote
/// variants have a wire form; transport/framing errors that somehow reach
/// this path travel as a malformed-request report (still typed — the
/// encoding is total, a node can always answer).
fn put_error(enc: &mut Encoder, err: &WireError) {
    match err {
        WireError::QueueFull {
            shard,
            stream,
            capacity,
            retry_after_ms,
        } => {
            enc.put_u8(ET_QUEUE_FULL);
            enc.put_usize(*shard);
            enc.put_u64(*stream);
            enc.put_usize(*capacity);
            enc.put_u64(*retry_after_ms);
        }
        WireError::ModelMissing { stream, model } => {
            enc.put_u8(ET_MODEL_MISSING);
            enc.put_u64(*stream);
            enc.put_str(model);
        }
        WireError::UnknownStream { stream } => {
            enc.put_u8(ET_UNKNOWN_STREAM);
            enc.put_u64(*stream);
        }
        WireError::DuplicateStream { stream } => {
            enc.put_u8(ET_DUPLICATE_STREAM);
            enc.put_u64(*stream);
        }
        WireError::RemoteBadConfig(msg) => {
            enc.put_u8(ET_BAD_CONFIG);
            enc.put_str(msg);
        }
        WireError::RemotePersist(msg) => {
            enc.put_u8(ET_PERSIST);
            enc.put_str(msg);
        }
        WireError::RemoteMalformed(msg) => {
            enc.put_u8(ET_MALFORMED);
            enc.put_str(msg);
        }
        WireError::Busy {
            active,
            limit,
            retry_after_ms,
        } => {
            enc.put_u8(ET_BUSY);
            enc.put_usize(*active);
            enc.put_usize(*limit);
            enc.put_u64(*retry_after_ms);
        }
        other => {
            enc.put_u8(ET_MALFORMED);
            enc.put_str(&other.to_string());
        }
    }
}

fn get_error(dec: &mut Decoder<'_>) -> Result<WireError, WireError> {
    Ok(match dec.get_u8("error tag")? {
        ET_QUEUE_FULL => WireError::QueueFull {
            shard: dec.get_usize("error shard")?,
            stream: dec.get_u64("error stream")?,
            capacity: dec.get_usize("error capacity")?,
            retry_after_ms: dec.get_u64("error retry-after")?,
        },
        ET_MODEL_MISSING => WireError::ModelMissing {
            stream: dec.get_u64("error stream")?,
            model: dec.get_str("error model")?,
        },
        ET_UNKNOWN_STREAM => WireError::UnknownStream {
            stream: dec.get_u64("error stream")?,
        },
        ET_DUPLICATE_STREAM => WireError::DuplicateStream {
            stream: dec.get_u64("error stream")?,
        },
        ET_BAD_CONFIG => WireError::RemoteBadConfig(dec.get_str("error message")?),
        ET_PERSIST => WireError::RemotePersist(dec.get_str("error message")?),
        ET_MALFORMED => WireError::RemoteMalformed(dec.get_str("error message")?),
        ET_BUSY => WireError::Busy {
            active: dec.get_usize("error active")?,
            limit: dec.get_usize("error limit")?,
            retry_after_ms: dec.get_u64("error retry-after")?,
        },
        t => return Err(WireError::Malformed(format!("error-reply tag {t}"))),
    })
}

impl Message {
    /// A short static name for diagnostics and
    /// [`WireError::UnexpectedReply`].
    pub fn name(&self) -> &'static str {
        match self {
            Message::OpenStream { .. } => "OpenStream",
            Message::IngestBatch { .. } => "IngestBatch",
            Message::Drain => "Drain",
            Message::Checkpoint => "Checkpoint",
            Message::Stats => "Stats",
            Message::MigrateOut { .. } => "MigrateOut",
            Message::MigrateIn { .. } => "MigrateIn",
            Message::Shutdown => "Shutdown",
            Message::Ping { .. } => "Ping",
            Message::StreamCount => "StreamCount",
            Message::Trace => "Trace",
            Message::OpenAck { .. } => "OpenAck",
            Message::IngestAck { .. } => "IngestAck",
            Message::DrainAck { .. } => "DrainAck",
            Message::CheckpointAck { .. } => "CheckpointAck",
            Message::StatsAck { .. } => "StatsAck",
            Message::MigrateStreams { .. } => "MigrateStreams",
            Message::MigrateInAck { .. } => "MigrateInAck",
            Message::Pong { .. } => "Pong",
            Message::ShutdownAck { .. } => "ShutdownAck",
            Message::StreamCountAck { .. } => "StreamCountAck",
            Message::TraceAck { .. } => "TraceAck",
            Message::Error(_) => "Error",
        }
    }

    /// Encode into `(msg_type, payload)` — the inputs of
    /// [`encode_frame`]/[`write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut enc = Encoder::new();
        let t = match self {
            Message::OpenStream { stream } => {
                enc.put_u64(*stream);
                MT_OPEN_STREAM
            }
            Message::IngestBatch {
                client,
                seq,
                records,
                ctx,
            } => {
                put_ingest_batch(&mut enc, *client, *seq, records, *ctx);
                MT_INGEST_BATCH
            }
            Message::Drain => MT_DRAIN,
            Message::Checkpoint => MT_CHECKPOINT,
            Message::Stats => MT_STATS,
            Message::MigrateOut { streams } => {
                enc.put_usize(streams.len());
                for s in streams {
                    enc.put_u64(*s);
                }
                MT_MIGRATE_OUT
            }
            Message::MigrateIn { streams } => {
                put_stream_blobs(&mut enc, streams);
                MT_MIGRATE_IN
            }
            Message::Shutdown => MT_SHUTDOWN,
            Message::Ping { token } => {
                enc.put_u64(*token);
                MT_PING
            }
            Message::StreamCount => MT_STREAM_COUNT,
            Message::Trace => MT_TRACE,
            Message::OpenAck { created } => {
                enc.put_bool(*created);
                MT_OPEN_ACK
            }
            Message::IngestAck { applied } => {
                enc.put_bool(*applied);
                MT_INGEST_ACK
            }
            Message::DrainAck { alarms } => {
                put_alarms(&mut enc, alarms);
                MT_DRAIN_ACK
            }
            Message::CheckpointAck { bytes } => {
                enc.put_u64(*bytes);
                MT_CHECKPOINT_ACK
            }
            Message::StatsAck { text } => {
                enc.put_str(text);
                MT_STATS_ACK
            }
            Message::MigrateStreams { streams } => {
                put_stream_blobs(&mut enc, streams);
                MT_MIGRATE_STREAMS
            }
            Message::MigrateInAck { accepted } => {
                enc.put_u64(*accepted);
                MT_MIGRATE_IN_ACK
            }
            Message::Pong { token } => {
                enc.put_u64(*token);
                MT_PONG
            }
            Message::ShutdownAck { alarms } => {
                put_alarms(&mut enc, alarms);
                MT_SHUTDOWN_ACK
            }
            Message::StreamCountAck { streams } => {
                enc.put_u64(*streams);
                MT_STREAM_COUNT_ACK
            }
            Message::TraceAck { json } => {
                enc.put_str(json);
                MT_TRACE_ACK
            }
            Message::Error(err) => {
                put_error(&mut enc, err);
                MT_ERROR
            }
        };
        (t, enc.into_bytes())
    }

    /// Decode a frame's payload according to its message type. Every byte
    /// of the payload must be consumed (trailing bytes are a typed error,
    /// mirroring the persist codec's layout-drift check).
    pub fn decode(frame: &Frame) -> Result<Message, WireError> {
        let mut dec = Decoder::new(&frame.payload);
        let msg = match frame.msg_type {
            MT_OPEN_STREAM => Message::OpenStream {
                stream: dec.get_u64("open stream id")?,
            },
            MT_INGEST_BATCH => {
                let client = dec.get_u64("ingest client id")?;
                let seq = dec.get_u64("ingest batch seq")?;
                let n = dec.get_usize("record count")?;
                // stream id + f64 value = 16 bytes each.
                dec.check_claim(n, 16, "records")?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let stream = dec.get_u64("record stream")?;
                    let value = dec.get_f64("record value")?;
                    records.push(Record { stream, value });
                }
                // v3: an optional 16-byte trace context may trail the
                // records. Zero remaining bytes means untraced; anything
                // other than exactly the context fields fails the
                // `dec.finish()` layout check below.
                let ctx = if dec.remaining() > 0 {
                    Some(TraceContext {
                        trace_id: dec.get_u64("ingest trace id")?,
                        parent_span: dec.get_u64("ingest parent span")?,
                    })
                } else {
                    None
                };
                Message::IngestBatch {
                    client,
                    seq,
                    records,
                    ctx,
                }
            }
            MT_DRAIN => Message::Drain,
            MT_CHECKPOINT => Message::Checkpoint,
            MT_STATS => Message::Stats,
            MT_MIGRATE_OUT => {
                let n = dec.get_usize("migrate-out count")?;
                dec.check_claim(n, 8, "migrate-out streams")?;
                let mut streams = Vec::with_capacity(n);
                for _ in 0..n {
                    streams.push(dec.get_u64("migrate-out stream")?);
                }
                Message::MigrateOut { streams }
            }
            MT_MIGRATE_IN => Message::MigrateIn {
                streams: get_stream_blobs(&mut dec)?,
            },
            MT_SHUTDOWN => Message::Shutdown,
            MT_PING => Message::Ping {
                token: dec.get_u64("ping token")?,
            },
            MT_STREAM_COUNT => Message::StreamCount,
            MT_TRACE => Message::Trace,
            MT_OPEN_ACK => Message::OpenAck {
                created: dec.get_bool("open ack")?,
            },
            MT_INGEST_ACK => Message::IngestAck {
                applied: dec.get_bool("ingest ack applied")?,
            },
            MT_DRAIN_ACK => Message::DrainAck {
                alarms: get_alarms(&mut dec)?,
            },
            MT_CHECKPOINT_ACK => Message::CheckpointAck {
                bytes: dec.get_u64("checkpoint bytes")?,
            },
            MT_STATS_ACK => Message::StatsAck {
                text: dec.get_str("stats text")?,
            },
            MT_MIGRATE_STREAMS => Message::MigrateStreams {
                streams: get_stream_blobs(&mut dec)?,
            },
            MT_MIGRATE_IN_ACK => Message::MigrateInAck {
                accepted: dec.get_u64("migrate-in accepted")?,
            },
            MT_PONG => Message::Pong {
                token: dec.get_u64("pong token")?,
            },
            MT_SHUTDOWN_ACK => Message::ShutdownAck {
                alarms: get_alarms(&mut dec)?,
            },
            MT_STREAM_COUNT_ACK => Message::StreamCountAck {
                streams: dec.get_u64("stream count")?,
            },
            MT_TRACE_ACK => Message::TraceAck {
                json: dec.get_str("trace json")?,
            },
            MT_ERROR => Message::Error(get_error(&mut dec)?),
            t => return Err(WireError::UnknownMsgType(t)),
        };
        dec.finish()?;
        Ok(msg)
    }

    /// Encode and frame this message in one step.
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let (t, payload) = self.encode();
        encode_frame(t, &payload)
    }

    /// Write this message as one frame to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        let (t, payload) = self.encode();
        write_frame(w, t, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_stream::Alarm;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::OpenStream { stream: 42 },
            Message::IngestBatch {
                client: 0,
                seq: 0,
                records: vec![Record::new(7, 1.5), Record::new(u64::MAX, -0.0)],
                ctx: None,
            },
            Message::IngestBatch {
                client: 0xC0FFEE,
                seq: 41,
                records: vec![Record::new(3, 0.25)],
                ctx: None,
            },
            Message::IngestBatch {
                client: 0xC0FFEE,
                seq: 42,
                records: vec![Record::new(3, 0.5)],
                ctx: Some(TraceContext {
                    trace_id: 0xFEED,
                    parent_span: 17,
                }),
            },
            Message::Trace,
            Message::TraceAck {
                json: "{\"traceEvents\":[]}".to_string(),
            },
            Message::Drain,
            Message::Checkpoint,
            Message::Stats,
            Message::MigrateOut {
                streams: vec![1, 2, u64::MAX - 3],
            },
            Message::MigrateIn {
                streams: vec![(9, vec![1, 2, 3]), (10, vec![])],
            },
            Message::Shutdown,
            Message::Ping { token: 0xDEAD },
            Message::StreamCount,
            Message::StreamCountAck { streams: 12 },
            Message::OpenAck { created: true },
            Message::IngestAck { applied: true },
            Message::IngestAck { applied: false },
            Message::DrainAck {
                alarms: vec![StreamAlarm {
                    stream: 3,
                    seq: 99,
                    alarm: Alarm {
                        time: 12,
                        anchor: 8,
                        label: 1,
                        confidence: 0.875,
                    },
                }],
            },
            Message::CheckpointAck { bytes: 1024 },
            Message::StatsAck {
                text: "etsc_serve_streams 5\n".to_string(),
            },
            Message::MigrateStreams {
                streams: vec![(11, vec![0xAA; 16])],
            },
            Message::MigrateInAck { accepted: 2 },
            Message::Pong { token: 0xDEAD },
            Message::ShutdownAck { alarms: vec![] },
            Message::Error(WireError::QueueFull {
                shard: 2,
                stream: 5,
                capacity: 128,
                retry_after_ms: 25,
            }),
            Message::Error(WireError::ModelMissing {
                stream: 77,
                model: "ects".to_string(),
            }),
            Message::Error(WireError::UnknownStream { stream: 1 }),
            Message::Error(WireError::DuplicateStream { stream: 2 }),
            Message::Error(WireError::RemoteBadConfig("no registry".to_string())),
            Message::Error(WireError::RemotePersist("disk gone".to_string())),
            Message::Error(WireError::Busy {
                active: 32,
                limit: 32,
                retry_after_ms: 0,
            }),
            Message::Error(WireError::RemoteMalformed("trailing bytes".to_string())),
        ]
    }

    #[test]
    fn cast_safety_ban_still_bites() {
        // A true positive for this module's cast lints: if it stops firing,
        // the unfulfilled expectation fails the clippy gate.
        let len = u64::from(u32::MAX) + 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "true positive: cast-safety must reject a narrowing `as`"
        )]
        let wrapped = len as u32;
        assert_eq!(wrapped, 0, "a bare `as` silently wraps a length");
        assert!(u32::try_from(len).is_err(), "`try_from` surfaces it");
    }

    #[test]
    fn every_message_round_trips_through_a_frame() {
        for msg in sample_messages() {
            let bytes = msg.to_frame_bytes();
            let frame = decode_frame(&bytes, MAX_FRAME_PAYLOAD).unwrap();
            let back = Message::decode(&frame).unwrap();
            assert_eq!(back, msg, "{} must round-trip", msg.name());
        }
    }

    /// Golden wire v3 frames, in hex: header (magic, version, type,
    /// length), the payload in 8-byte fields, then the checksum. Changing
    /// any of these bytes is a [`WIRE_VERSION`] bump.
    const GOLDEN_FRAMES: [(&str, &[&str]); 4] = [
        // Untagged and untraced: client 0, seq 1, two records.
        (
            "4554534e03000238000000",
            &[
                "0000000000000000",
                "0100000000000000",
                "0200000000000000",
                "0700000000000000",
                "000000000000f83f",
                "ffffffffffffffff",
                "0000000000000080",
                "193632f817349050",
            ],
        ),
        // Tagged and traced: the 16-byte context trails the records.
        (
            "4554534e03000248000000",
            &[
                "eeffc00000000000",
                "2a00000000000000",
                "0200000000000000",
                "0300000000000000",
                "000000000000d03f",
                "0900000000000000",
                "00000000000004c0",
                "edfe000000000000",
                "1100000000000000",
                "6eccac90d962bae6",
            ],
        ),
        // Empty.
        (
            "4554534e03000218000000",
            &[
                "0000000000000000",
                "0200000000000000",
                "0000000000000000",
                "f2cae3a8f24a79bd",
            ],
        ),
        // The acknowledgement.
        ("4554534e03004201000000", &["01", "a875059ebc950226"]),
    ];

    fn golden_messages() -> [Message; 4] {
        [
            Message::IngestBatch {
                client: 0,
                seq: 1,
                records: vec![Record::new(7, 1.5), Record::new(u64::MAX, -0.0)],
                ctx: None,
            },
            Message::IngestBatch {
                client: 0xC0FFEE,
                seq: 42,
                records: vec![Record::new(3, 0.25), Record::new(9, -2.5)],
                ctx: Some(TraceContext {
                    trace_id: 0xFEED,
                    parent_span: 17,
                }),
            },
            Message::IngestBatch {
                client: 0,
                seq: 2,
                records: vec![],
                ctx: None,
            },
            Message::IngestAck { applied: true },
        ]
    }

    fn unhex(header: &str, fields: &[&str]) -> Vec<u8> {
        let hex: String = std::iter::once(header)
            .chain(fields.iter().copied())
            .collect();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn ingest_frames_match_the_golden_v3_bytes() {
        for (msg, (header, fields)) in golden_messages().iter().zip(GOLDEN_FRAMES) {
            let golden = unhex(header, fields);
            assert_eq!(msg.to_frame_bytes(), golden, "{msg:?}: Message encoder");
            if let Message::IngestBatch {
                client,
                seq,
                records,
                ctx,
            } = msg
            {
                assert_eq!(
                    ingest_frame(*client, *seq, records, *ctx),
                    golden,
                    "{msg:?}: slice encoder"
                );
            }
            let frame = decode_frame(&golden, MAX_FRAME_PAYLOAD).unwrap();
            assert_eq!(&Message::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn transport_errors_crossing_as_replies_become_remote_malformed() {
        // A non-remote variant still has a total wire form: it crosses as a
        // typed RemoteMalformed report rather than being unencodable.
        let msg = Message::Error(WireError::ChecksumMismatch);
        let frame = decode_frame(&msg.to_frame_bytes(), MAX_FRAME_PAYLOAD).unwrap();
        match Message::decode(&frame).unwrap() {
            Message::Error(WireError::RemoteMalformed(m)) => {
                assert!(m.contains("checksum"), "{m}");
            }
            other => panic!("expected RemoteMalformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors_at_every_cut() {
        let bytes = Message::Ping { token: 7 }.to_frame_bytes();
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut], MAX_FRAME_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        decode_frame(&bytes, MAX_FRAME_PAYLOAD).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let good = Message::Drain.to_frame_bytes();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_frame(&bad, MAX_FRAME_PAYLOAD).unwrap_err(),
            WireError::BadMagic
        );
        let mut bad = good.clone();
        bad[4] = 0xFF; // version LE low byte
        assert_eq!(
            decode_frame(&bad, MAX_FRAME_PAYLOAD).unwrap_err(),
            WireError::UnsupportedVersion {
                found: u16::from_le_bytes([0xFF, 0]),
                supported: WIRE_VERSION,
            }
        );
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = Message::OpenStream { stream: 5 }.to_frame_bytes();
        let i = FRAME_HEADER_LEN; // first payload byte
        bytes[i] ^= 0x40;
        assert_eq!(
            decode_frame(&bytes, MAX_FRAME_PAYLOAD).unwrap_err(),
            WireError::ChecksumMismatch
        );
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        // Hand-build a header declaring a payload far past the cap; the
        // decode must fail on the declared length alone — there are no
        // such bytes to read, and none may be allocated.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(MT_DRAIN);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes, MAX_FRAME_PAYLOAD).unwrap_err(),
            WireError::FrameTooLarge {
                declared: u32::MAX as usize,
                max: MAX_FRAME_PAYLOAD,
            }
        );
        // A small custom cap applies the same way.
        let big = Message::StatsAck {
            text: "x".repeat(1000),
        }
        .to_frame_bytes();
        assert!(matches!(
            decode_frame(&big, 64).unwrap_err(),
            WireError::FrameTooLarge { max: 64, .. }
        ));
    }

    #[test]
    fn unknown_message_type_is_a_typed_error() {
        let bytes = encode_frame(200, &[]);
        let frame = decode_frame(&bytes, MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            WireError::UnknownMsgType(200)
        );
    }

    #[test]
    fn hostile_element_counts_fail_before_allocating() {
        // An IngestBatch claiming u64::MAX/16 records inside a tiny payload
        // must fail the claim check, not allocate a huge Vec.
        let mut enc = Encoder::new();
        enc.put_u64(0); // client
        enc.put_u64(0); // seq
        enc.put_usize(usize::MAX / 16);
        let frame = Frame {
            msg_type: MT_INGEST_BATCH,
            payload: enc.into_bytes(),
        };
        assert!(matches!(
            Message::decode(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
        // Same for the migration blob list and the alarm list.
        for t in [
            MT_MIGRATE_IN,
            MT_MIGRATE_STREAMS,
            MT_DRAIN_ACK,
            MT_SHUTDOWN_ACK,
        ] {
            let mut enc = Encoder::new();
            enc.put_usize(usize::MAX / 16);
            let frame = Frame {
                msg_type: t,
                payload: enc.into_bytes(),
            };
            assert!(
                matches!(
                    Message::decode(&frame).unwrap_err(),
                    WireError::Malformed(_)
                ),
                "type {t}"
            );
        }
    }

    #[test]
    fn trace_context_is_zero_bytes_off_and_sixteen_on() {
        let base = Message::IngestBatch {
            client: 1,
            seq: 2,
            records: vec![Record::new(9, 1.0)],
            ctx: None,
        };
        let traced = Message::IngestBatch {
            client: 1,
            seq: 2,
            records: vec![Record::new(9, 1.0)],
            ctx: Some(TraceContext {
                trace_id: 3,
                parent_span: 4,
            }),
        };
        let (_, p0) = base.encode();
        let (_, p1) = traced.encode();
        assert_eq!(p1.len(), p0.len() + 16, "context must cost exactly 16B");

        // A truncated context (8 trailing bytes instead of 16) is a typed
        // layout error, never a misdecode.
        let (t, mut payload) = base.encode();
        payload.extend_from_slice(&7u64.to_le_bytes());
        let frame = Frame {
            msg_type: t,
            payload,
        };
        assert!(matches!(
            Message::decode(&frame).unwrap_err(),
            WireError::Malformed(_) | WireError::Truncated { .. }
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let (t, mut payload) = Message::Drain.encode();
        payload.push(0xEE);
        let frame = Frame {
            msg_type: t,
            payload,
        };
        assert!(matches!(
            Message::decode(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }
}
