#![warn(missing_docs)]
// panic-freedom: runtime code returns typed errors, never panics.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
// cast-safety: the frozen byte format never narrows a value silently.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

//! # etsc-persist
//!
//! Versioned binary snapshots for fitted models and checkpoint/restore for
//! in-flight streaming sessions — the substrate that turns the workspace's
//! incremental sessions into durable, migratable units of work (restarts,
//! deploys, shard migrations).
//!
//! Consistent with the workspace's offline-shim policy, this crate has **no
//! dependencies** beyond `etsc-core`: the codec is a hand-rolled
//! little-endian binary format, not serde.
//!
//! ## Wire format
//!
//! Every snapshot is an **envelope**:
//!
//! ```text
//! magic      4 bytes   b"ETSC"
//! version    u16 LE    FORMAT_VERSION of the writer
//! kind       str       length-prefixed type tag (e.g. "GaussianModel")
//! payload    u64 LE length, then that many body bytes
//! checksum   u64 LE    FNV-1a 64 over every preceding byte
//! ```
//!
//! Inside the payload, the primitive vocabulary is fixed:
//!
//! * integers are little-endian fixed width; `usize` travels as `u64`;
//! * `f64` is `to_bits()` little-endian — snapshots round-trip floats
//!   **bit-exactly**, which is what makes restored sessions continue
//!   bit-identically to uninterrupted ones;
//! * `bool` is one byte (0/1), `Option<T>` is a one-byte tag then `T`;
//! * strings and slices are length-prefixed;
//! * composite records are wrapped in length-prefixed **sections**
//!   ([`Encoder::section`] / [`Decoder::section`]), so readers can validate
//!   that a record consumed exactly its declared bytes;
//! * a snapshot nested in another's payload is a length-prefixed envelope
//!   that keeps its own checksum ([`Encoder::try_nested_envelope`]).
//!
//! Sections and envelopes are written in place: a reserved length is
//! patched once the body is written, so a snapshot of any depth is encoded
//! into one buffer, each byte written once.
//!
//! Format evolution policy: the golden fixtures under
//! `tests/fixtures/persist/` pin the current layout. Any layout change must
//! bump [`FORMAT_VERSION`] (readers reject other versions with
//! [`PersistError::UnsupportedVersion`]) and regenerate the fixtures —
//! never silently reshape version 1.
//!
//! ## The [`Persist`] trait
//!
//! A fitted model implements [`Persist`] by providing `encode_body` /
//! `decode_body`; the envelope handling ([`Persist::snapshot`] /
//! [`Persist::restore`]) is supplied. Session checkpointing (for types that
//! borrow a model and therefore cannot implement `restore(&[u8]) -> Self`)
//! lives on the session traits themselves (`DecisionSession::save_state` in
//! `etsc-early`, `ScoreSession::{save_state, load_state}` in
//! `etsc-classifiers`) and reuses this crate's codec.
//!
//! ## [`ModelRegistry`]
//!
//! A small file-backed store (one `<name>.etsc` file per snapshot) for
//! deploy-style workflows: save fitted models by name, list what a
//! directory holds (name, kind, format version, size), and load them back
//! in a new process.

use std::convert::Infallible;
use std::fmt;

use etsc_core::UcrDataset;

/// Current wire-format version. Bump on any layout change; readers reject
/// every other version instead of misdecoding.
pub const FORMAT_VERSION: u16 = 1;

/// Envelope magic bytes.
pub const MAGIC: [u8; 4] = *b"ETSC";

/// Errors produced by snapshot encoding, decoding, and the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The byte stream ended before a field could be read.
    UnexpectedEof {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The envelope does not start with [`MAGIC`].
    BadMagic,
    /// The envelope was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u16,
        /// Version this reader supports.
        supported: u16,
    },
    /// The envelope's kind tag names a different type.
    KindMismatch {
        /// Kind expected by the caller.
        expected: String,
        /// Kind found in the envelope.
        found: String,
    },
    /// The envelope checksum does not match its contents.
    ChecksumMismatch,
    /// Bytes were left over after a complete decode — the snapshot does not
    /// match the expected layout.
    TrailingBytes {
        /// Number of undecoded bytes remaining.
        remaining: usize,
    },
    /// The bytes decoded, but violate an invariant of the target type
    /// (wrong lengths, out-of-range discriminant, shape mismatch against
    /// the owning model, …).
    Corrupt(String),
    /// The model or session type does not support persistence.
    Unsupported(&'static str),
    /// A filesystem operation failed (registry paths).
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            PersistError::BadMagic => write!(f, "not an etsc snapshot (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (reader supports {supported})"
            ),
            PersistError::KindMismatch { expected, found } => {
                write!(f, "snapshot holds a {found:?}, expected a {expected:?}")
            }
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            PersistError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete decode")
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            PersistError::Unsupported(what) => {
                write!(f, "persistence is not supported by {what}")
            }
            PersistError::Io(msg) => write!(f, "registry I/O error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

// FNV-1a 64-bit hash — the envelope's content checksum, shared with the
// rest of the workspace via `etsc_core::hash` (the serving layer routes
// streams to shards with the same function). Not cryptographic; it guards
// against truncation and bit rot, not adversaries.
use etsc_core::hash::fnv1a_64 as fnv1a;

/// Little-endian binary writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `capacity` bytes before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first byte.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64` (the portable width).
    pub fn put_usize(&mut self, v: usize) {
        // usize → u64 is widening on every supported target; the fallback
        // exists only to keep the conversion structurally infallible.
        self.put_u64(u64::try_from(v).unwrap_or(u64::MAX));
    }

    /// Write an `f64` as its IEEE 754 bits — exact round-trip.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Write an `Option<f64>` as a tag byte then the value.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Write an `Option<usize>` as a tag byte then the value.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_usize(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    ///
    /// The prefix is u32; a string too large to represent (> 4 GiB — far
    /// beyond any model name or label this codec carries) saturates the
    /// declared length, producing an envelope that fails closed at decode
    /// (`UnexpectedEof`/checksum) instead of silently truncating.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed opaque byte blob — the carrier for nested
    /// pre-encoded snapshots (e.g. the anchor envelopes a migration ships
    /// between nodes). A snapshot written for the purpose is better nested
    /// in place with [`try_nested_envelope`](Self::try_nested_envelope),
    /// which writes the same bytes without a buffer of its own.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed slice of `f64`.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Write a length-prefixed slice of `usize`.
    pub fn put_usize_slice(&mut self, xs: &[usize]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_usize(x);
        }
    }

    /// Write a length-prefixed **section**: a `u64` length, then the bytes
    /// `f` writes. Readers consume sections with [`Decoder::section`], which
    /// enforces that the record decodes to exactly its declared extent.
    ///
    /// The section is written in place: `f` runs on this encoder behind a
    /// reserved length, which is patched once `f` returns, so the body is
    /// never copied.
    pub fn section<F: FnOnce(&mut Encoder)>(&mut self, f: F) {
        let Ok(()) = self.section_with(|e| {
            f(e);
            Ok::<(), Infallible>(())
        });
    }

    /// Fallible twin of [`Encoder::section`] for bodies that can refuse
    /// (session `save_state` implementations), written in place the same
    /// way. If `f` fails, the encoder is truncated back to where the
    /// section began: a failed section writes nothing, neither its length
    /// nor whatever `f` wrote before it failed.
    pub fn try_section<F>(&mut self, f: F) -> Result<(), PersistError>
    where
        F: FnOnce(&mut Encoder) -> Result<(), PersistError>,
    {
        self.section_with(f)
    }

    /// Write a complete envelope (see the crate docs for its layout) whose
    /// payload is what `body` writes.
    ///
    /// This is the one envelope writer: the header goes first, with a
    /// placeholder payload length; `body` writes the payload in place; then
    /// sealing patches the length and appends FNV-1a over every byte of
    /// the envelope. The result is the bytes [`envelope`](fn@envelope)
    /// returns for the same kind and payload, without a payload buffer of
    /// its own.
    pub fn envelope<F: FnOnce(&mut Encoder)>(&mut self, kind: &str, body: F) {
        let Ok(()) = self.envelope_with(kind, |e| {
            body(e);
            Ok::<(), Infallible>(())
        });
    }

    /// Fallible twin of [`Encoder::envelope`]. If `body` fails, the encoder
    /// is truncated back to where the envelope began, so it holds exactly
    /// the bytes it held before the call.
    pub fn try_envelope<F>(&mut self, kind: &str, body: F) -> Result<(), PersistError>
    where
        F: FnOnce(&mut Encoder) -> Result<(), PersistError>,
    {
        self.envelope_with(kind, body)
    }

    /// Nest an envelope inside this encoder's payload: writes exactly the
    /// bytes `put_bytes(&envelope(kind, payload))` writes for the payload
    /// `body` produces, but in place — the nested envelope is a section
    /// holding a [`try_envelope`](Self::try_envelope). It keeps its own
    /// checksum. A failing `body` leaves nothing behind.
    pub fn try_nested_envelope<F>(&mut self, kind: &str, body: F) -> Result<(), PersistError>
    where
        F: FnOnce(&mut Encoder) -> Result<(), PersistError>,
    {
        self.section_with(|e| e.envelope_with(kind, body))
    }

    /// Reserve a `u64` length at the end of the buffer; returns its offset
    /// for [`patch_len`](Self::patch_len).
    fn reserve_len(&mut self) -> usize {
        let at = self.buf.len();
        self.put_u64(0);
        at
    }

    /// Fill the length reserved at `at` with the number of bytes written
    /// after it.
    fn patch_len(&mut self, at: usize) {
        let end = at.saturating_add(8);
        let len = u64::try_from(self.buf.len().saturating_sub(end)).unwrap_or(u64::MAX);
        if let Some(slot) = self.buf.get_mut(at..end) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
    }

    /// The body of [`section`](Self::section) and
    /// [`try_section`](Self::try_section).
    fn section_with<E>(&mut self, f: impl FnOnce(&mut Encoder) -> Result<(), E>) -> Result<(), E> {
        let start = self.reserve_len();
        if let Err(e) = f(self) {
            self.buf.truncate(start);
            return Err(e);
        }
        self.patch_len(start);
        Ok(())
    }

    /// The envelope writer behind [`envelope`](Self::envelope),
    /// [`try_envelope`](Self::try_envelope) and [`envelope`](fn@envelope).
    fn envelope_with<E>(
        &mut self,
        kind: &str,
        body: impl FnOnce(&mut Encoder) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&MAGIC);
        self.put_u16(FORMAT_VERSION);
        self.put_str(kind);
        let payload_len = self.reserve_len();
        if let Err(e) = body(self) {
            self.buf.truncate(start);
            return Err(e);
        }
        self.patch_len(payload_len);
        let checksum = fnv1a(self.buf.get(start..).unwrap_or_default());
        self.put_u64(checksum);
        Ok(())
    }
}

/// Little-endian binary reader over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over raw body bytes (no envelope handling; see
    /// [`open_envelope`] for that).
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        // `get` bounds-checks (and `checked_add` guards the end offset), so
        // a corrupt length costs a typed error, never a panic.
        let end = self
            .pos
            .checked_add(n)
            .ok_or(PersistError::UnexpectedEof { context })?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(PersistError::UnexpectedEof { context })?;
        self.pos = end;
        Ok(out)
    }

    /// [`take`](Self::take) as a fixed-size array: the panic-free bridge
    /// from a checked slice to `from_le_bytes`.
    fn take_array<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<[u8; N], PersistError> {
        <[u8; N]>::try_from(self.take(N, context)?)
            .map_err(|_| PersistError::UnexpectedEof { context })
    }

    /// Read one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, PersistError> {
        let [b] = self.take_array(context)?;
        Ok(b)
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take_array(context)?))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take_array(context)?))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take_array(context)?))
    }

    /// Read a `usize` (stored as `u64`), rejecting values that do not fit.
    pub fn get_usize(&mut self, context: &'static str) -> Result<usize, PersistError> {
        let v = self.get_u64(context)?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("{context}: {v} overflows")))
    }

    /// Read an `f64` from its IEEE 754 bits.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Read a `bool`, rejecting tags other than 0/1.
    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, PersistError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(PersistError::Corrupt(format!("{context}: bool tag {t}"))),
        }
    }

    /// Read an `Option<f64>`.
    pub fn get_opt_f64(&mut self, context: &'static str) -> Result<Option<f64>, PersistError> {
        Ok(if self.get_bool(context)? {
            Some(self.get_f64(context)?)
        } else {
            None
        })
    }

    /// Read an `Option<usize>`.
    pub fn get_opt_usize(&mut self, context: &'static str) -> Result<Option<usize>, PersistError> {
        Ok(if self.get_bool(context)? {
            Some(self.get_usize(context)?)
        } else {
            None
        })
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, PersistError> {
        let declared = self.get_u32(context)?;
        let n = usize::try_from(declared).map_err(|_| {
            PersistError::Corrupt(format!("{context}: string length {declared} overflows"))
        })?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt(format!("{context}: invalid UTF-8")))
    }

    /// Read a length-prefixed opaque byte blob written by
    /// [`Encoder::put_bytes`].
    pub fn get_bytes(&mut self, context: &'static str) -> Result<Vec<u8>, PersistError> {
        let n = self.get_usize(context)?;
        Ok(self.take(n, context)?.to_vec())
    }

    /// Read a length-prefixed `Vec<f64>`.
    pub fn get_f64_vec(&mut self, context: &'static str) -> Result<Vec<f64>, PersistError> {
        let n = self.get_usize(context)?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(PersistError::UnexpectedEof { context });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64(context)?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `Vec<usize>`.
    pub fn get_usize_vec(&mut self, context: &'static str) -> Result<Vec<usize>, PersistError> {
        let n = self.get_usize(context)?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(PersistError::UnexpectedEof { context });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_usize(context)?);
        }
        Ok(out)
    }

    /// Validate a declared element count against the bytes actually
    /// remaining, **before** any allocation sized by it.
    ///
    /// Decoders that read `count` records of at least `min_bytes_per_item`
    /// bytes each must call this before `Vec::with_capacity(count)` (or any
    /// other count-proportional allocation): a hostile length prefix — e.g.
    /// arriving over a network connection — must cost a typed error, not a
    /// multi-gigabyte allocation. Uses saturating arithmetic so
    /// near-`u64::MAX` claims cannot overflow-panic.
    pub fn check_claim(
        &self,
        count: usize,
        min_bytes_per_item: usize,
        context: &'static str,
    ) -> Result<(), PersistError> {
        if self.remaining() < count.saturating_mul(min_bytes_per_item.max(1)) {
            return Err(PersistError::Corrupt(format!(
                "{context}: {count} items declared but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Enter a length-prefixed section: returns a sub-decoder over exactly
    /// the section's bytes and advances this decoder past it.
    pub fn section(&mut self, context: &'static str) -> Result<Decoder<'a>, PersistError> {
        let n = self.get_usize(context)?;
        let bytes = self.take(n, context)?;
        Ok(Decoder::new(bytes))
    }

    /// Assert that every byte was consumed — the end-of-record check that
    /// catches layout drift.
    pub fn finish(&self) -> Result<(), PersistError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(PersistError::TrailingBytes { remaining }),
        }
    }
}

/// Header of an envelope, as reported by [`inspect`] and
/// [`ModelRegistry::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeInfo {
    /// The kind tag of the snapshotted type.
    pub kind: String,
    /// Format version the snapshot was written with.
    pub version: u16,
    /// Payload size in bytes (excluding the envelope framing).
    pub payload_len: usize,
}

/// Bytes an envelope adds around its kind tag and payload: magic, version,
/// the kind's length prefix, the payload length and the checksum.
const ENVELOPE_FRAMING: usize = 4 + 2 + 4 + 8 + 8;

/// Wrap pre-encoded body bytes in a versioned, checksummed envelope,
/// through [`Encoder::envelope`] into a buffer sized for it exactly.
pub fn envelope(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(
        ENVELOPE_FRAMING
            .saturating_add(kind.len())
            .saturating_add(payload.len()),
    );
    enc.envelope(kind, |e| e.buf.extend_from_slice(payload));
    enc.into_bytes()
}

/// Validate an envelope (magic, version, kind, checksum) and return a
/// decoder positioned over its payload.
pub fn open_envelope<'a>(bytes: &'a [u8], kind: &str) -> Result<Decoder<'a>, PersistError> {
    let info = inspect(bytes)?;
    if info.version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: info.version,
            supported: FORMAT_VERSION,
        });
    }
    if info.kind != kind {
        return Err(PersistError::KindMismatch {
            expected: kind.to_string(),
            found: info.kind,
        });
    }
    // `inspect` proved `payload_len + 8 <= bytes.len()`; saturating + `get`
    // keep that proof local instead of trusting it across functions.
    let payload_end = bytes.len().saturating_sub(8);
    let payload_start = payload_end.saturating_sub(info.payload_len);
    let payload = bytes
        .get(payload_start..payload_end)
        .ok_or(PersistError::UnexpectedEof { context: "payload" })?;
    Ok(Decoder::new(payload))
}

/// Read and validate an envelope's header and checksum without decoding
/// its payload. Accepts any version ≤ the envelope framing itself (the
/// framing has been stable since version 1), so [`ModelRegistry::list`] can
/// report snapshots this reader would refuse to decode.
pub fn inspect(bytes: &[u8]) -> Result<EnvelopeInfo, PersistError> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.take(4, "magic")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = dec.get_u16("version")?;
    let kind = dec.get_str("kind")?;
    let payload_len = dec.get_usize("payload length")?;
    // Checked arithmetic: the length field is corruption-controlled, and a
    // near-usize::MAX value must report EOF, not overflow-panic (list()
    // relies on inspect never panicking to skip foreign files).
    if payload_len
        .checked_add(8)
        .is_none_or(|need| dec.remaining() < need)
    {
        return Err(PersistError::UnexpectedEof { context: "payload" });
    }
    let body_end = dec.pos.saturating_add(payload_len);
    let body = bytes
        .get(..body_end)
        .ok_or(PersistError::UnexpectedEof { context: "payload" })?;
    let expected = fnv1a(body);
    let mut tail = Decoder::new(bytes.get(body_end..).unwrap_or(&[]));
    let actual = tail.get_u64("checksum")?;
    tail.finish()?;
    if expected != actual {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(EnvelopeInfo {
        kind,
        version,
        payload_len,
    })
}

/// A snapshot-able fitted model.
///
/// Implementors provide the body codec; `snapshot`/`restore` add the
/// envelope (magic, format version, kind tag, checksum). Restored models
/// are **bit-identical** in behavior to the originals: every float travels
/// as its IEEE bits, and anything recomputed at decode time (e.g. derived
/// cumulative sums) is recomputed by the same deterministic code that fit
/// time ran.
pub trait Persist: Sized {
    /// Type tag written into (and demanded from) the envelope.
    const KIND: &'static str;

    /// Append this model's body to `enc`.
    fn encode_body(&self, enc: &mut Encoder);

    /// Decode a body previously written by [`Persist::encode_body`],
    /// validating every invariant the type relies on.
    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError>;

    /// Serialize into a self-describing, checksummed byte vector; the body
    /// is encoded in place, inside the envelope ([`Encoder::envelope`]).
    fn snapshot(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.envelope(Self::KIND, |e| self.encode_body(e));
        enc.into_bytes()
    }

    /// Reconstruct from bytes produced by [`Persist::snapshot`].
    fn restore(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut dec = open_envelope(bytes, Self::KIND)?;
        let v = Self::decode_body(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

impl Persist for UcrDataset {
    const KIND: &'static str = "UcrDataset";

    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_usize(self.series_len());
        enc.put_usize(self.len());
        enc.put_usize_slice(self.labels());
        for i in 0..self.len() {
            for &v in self.series(i) {
                enc.put_f64(v);
            }
        }
    }

    fn decode_body(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let series_len = dec.get_usize("dataset series_len")?;
        let n = dec.get_usize("dataset size")?;
        let labels = dec.get_usize_vec("dataset labels")?;
        if labels.len() != n {
            return Err(PersistError::Corrupt(format!(
                "dataset: {} labels for {n} exemplars",
                labels.len()
            )));
        }
        if dec.remaining() < n.saturating_mul(series_len).saturating_mul(8) {
            return Err(PersistError::UnexpectedEof {
                context: "dataset rows",
            });
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(series_len);
            for _ in 0..series_len {
                row.push(dec.get_f64("dataset row")?);
            }
            data.push(row);
        }
        UcrDataset::new(data, labels).map_err(|e| PersistError::Corrupt(e.to_string()))
    }
}

mod registry;
pub use registry::{ModelEntry, ModelRegistry};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_iteration_ban_still_bites() {
        // A true positive for the workspace's `disallowed_types` ban: if it
        // stops firing, the unfulfilled expectation fails the clippy gate.
        #[expect(
            clippy::disallowed_types,
            reason = "true positive: ordered-iteration must reject `HashMap`"
        )]
        let hashed: std::collections::HashMap<u64, u64> = (0..64).map(|k| (k, k * k)).collect();
        let ordered: std::collections::BTreeMap<u64, u64> = hashed.into_iter().collect();
        assert!(ordered.keys().copied().eq(0..64));
    }

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u16(65_000);
        enc.put_u32(4_000_000_000);
        enc.put_u64(u64::MAX);
        enc.put_usize(42);
        enc.put_f64(-0.0);
        enc.put_f64(f64::NAN);
        enc.put_bool(true);
        enc.put_opt_f64(None);
        enc.put_opt_usize(Some(9));
        enc.put_str("héllo");
        enc.put_f64_slice(&[1.5, f64::INFINITY]);
        enc.put_usize_slice(&[3, 1]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8("a").unwrap(), 7);
        assert_eq!(dec.get_u16("b").unwrap(), 65_000);
        assert_eq!(dec.get_u32("c").unwrap(), 4_000_000_000);
        assert_eq!(dec.get_u64("d").unwrap(), u64::MAX);
        assert_eq!(dec.get_usize("e").unwrap(), 42);
        assert_eq!(dec.get_f64("f").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.get_f64("g").unwrap().is_nan());
        assert!(dec.get_bool("h").unwrap());
        assert_eq!(dec.get_opt_f64("i").unwrap(), None);
        assert_eq!(dec.get_opt_usize("j").unwrap(), Some(9));
        assert_eq!(dec.get_str("k").unwrap(), "héllo");
        assert_eq!(dec.get_f64_vec("l").unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(dec.get_usize_vec("m").unwrap(), vec![3, 1]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut enc = Encoder::new();
        enc.put_u64(5);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..4]);
        assert!(matches!(
            dec.get_u64("x"),
            Err(PersistError::UnexpectedEof { .. })
        ));
        // A declared-but-missing slice errors cleanly too.
        let mut enc = Encoder::new();
        enc.put_usize(1 << 40); // absurd length
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_f64_vec("big").is_err());
    }

    #[test]
    fn byte_blobs_round_trip_and_reject_truncation() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xDE, 0xAD, 0xBE]);
        enc.put_bytes(&[]);
        enc.put_u8(7);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_bytes("blob").unwrap(), vec![0xDE, 0xAD, 0xBE]);
        assert_eq!(dec.get_bytes("empty").unwrap(), Vec::<u8>::new());
        assert_eq!(dec.get_u8("tail").unwrap(), 7);
        dec.finish().unwrap();
        // A declared-but-missing blob errors cleanly.
        let mut enc = Encoder::new();
        enc.put_usize(1 << 40);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).get_bytes("big"),
            Err(PersistError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn sections_isolate_records() {
        let mut enc = Encoder::new();
        enc.section(|e| e.put_f64_slice(&[1.0, 2.0]));
        enc.put_u8(9);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut sub = dec.section("record").unwrap();
        assert_eq!(sub.get_f64_vec("xs").unwrap(), vec![1.0, 2.0]);
        sub.finish().unwrap();
        assert_eq!(dec.get_u8("tail").unwrap(), 9);
        dec.finish().unwrap();

        // Nested sections: each length counts exactly the bytes after it.
        let mut enc = Encoder::new();
        enc.section(|e| {
            e.put_u8(1);
            e.section(|e| e.put_u32(0xAABB_CCDD));
        });
        let mut expected = Encoder::new();
        expected.put_u64(1 + 8 + 4);
        expected.put_u8(1);
        expected.put_u64(4);
        expected.put_u32(0xAABB_CCDD);
        assert_eq!(enc.into_bytes(), expected.into_bytes());

        // An empty section is its zero length alone.
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.section(|_| {});
        assert_eq!(enc.into_bytes(), [7, 0, 0, 0, 0, 0, 0, 0, 0]);

        // A try_section whose body writes, then fails, leaves the encoder
        // byte-identical to what it was before the call; a later section
        // lands where the failed one would have.
        let mut enc = Encoder::new();
        enc.put_u16(0x0102);
        enc.section(|e| e.put_u8(3));
        let before = enc.buf.clone();
        let err = enc.try_section(|e| {
            e.put_u64(u64::MAX);
            e.section(|e| e.put_u8(4));
            Err(PersistError::Unsupported("test body"))
        });
        assert_eq!(err, Err(PersistError::Unsupported("test body")));
        assert_eq!(enc.buf, before);
        enc.try_section(|e| {
            e.put_u8(5);
            Ok(())
        })
        .unwrap();
        let mut expected = Encoder::new();
        expected.put_u16(0x0102);
        expected.put_u64(1);
        expected.put_u8(3);
        expected.put_u64(1);
        expected.put_u8(5);
        assert_eq!(enc.into_bytes(), expected.into_bytes());
    }

    /// The envelope layout of the crate docs, built from the primitives and
    /// the checksum function alone.
    fn sealed_by_hand(kind: &str, payload: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.buf.extend_from_slice(b"ETSC");
        enc.put_u16(1);
        enc.put_u32(u32::try_from(kind.len()).unwrap());
        enc.buf.extend_from_slice(kind.as_bytes());
        enc.put_u64(u64::try_from(payload.len()).unwrap());
        enc.buf.extend_from_slice(payload);
        let checksum = etsc_core::hash::fnv1a_64(&enc.buf);
        enc.put_u64(checksum);
        enc.into_bytes()
    }

    #[test]
    fn envelope_validates_magic_version_kind_checksum() {
        let bytes = envelope("Thing", &[1, 2, 3]);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.kind, "Thing");
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.payload_len, 3);
        let mut dec = open_envelope(&bytes, "Thing").unwrap();
        assert_eq!(dec.get_u8("p").unwrap(), 1);

        // Wrong kind.
        assert!(matches!(
            open_envelope(&bytes, "Other"),
            Err(PersistError::KindMismatch { .. })
        ));
        // Flipped payload bit -> checksum failure.
        let mut bad = bytes.clone();
        let flip = bad.len() - 10;
        bad[flip] ^= 0x01;
        assert!(matches!(
            inspect(&bad),
            Err(PersistError::ChecksumMismatch) | Err(PersistError::Corrupt(_))
        ));
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(inspect(&bad), Err(PersistError::BadMagic));
        // Truncation.
        assert!(inspect(&bytes[..bytes.len() - 3]).is_err());

        // The writer's bytes are the documented layout, for an empty
        // payload too, whichever way the payload arrives.
        for payload in [&[1u8, 2, 3][..], &[]] {
            let expected = sealed_by_hand("Thing", payload);
            assert_eq!(envelope("Thing", payload), expected);
            let mut enc = Encoder::new();
            enc.envelope("Thing", |e| e.buf.extend_from_slice(payload));
            assert_eq!(enc.into_bytes(), expected);
        }

        // The nested form writes exactly put_bytes(&envelope(..)), behind
        // whatever the outer encoder already holds, and keeps its own
        // checksum.
        let mut enc = Encoder::new();
        enc.put_u8(9);
        enc.try_nested_envelope("Inner", |e| {
            e.put_u16(0xBEEF);
            e.section(|e| e.put_u8(6));
            Ok(())
        })
        .unwrap();
        let mut payload = Encoder::new();
        payload.put_u16(0xBEEF);
        payload.put_u64(1);
        payload.put_u8(6);
        let inner = sealed_by_hand("Inner", &payload.into_bytes());
        let mut expected = Encoder::new();
        expected.put_u8(9);
        expected.put_bytes(&inner);
        assert_eq!(enc.into_bytes(), expected.into_bytes());
        inspect(&inner).unwrap();

        // A nested envelope whose body fails leaves nothing behind, inside
        // an outer envelope as well.
        let mut enc = Encoder::new();
        enc.put_u8(9);
        let before = enc.buf.clone();
        let err = enc.try_nested_envelope("Inner", |e| {
            e.put_u64(42);
            Err(PersistError::Unsupported("test body"))
        });
        assert_eq!(err, Err(PersistError::Unsupported("test body")));
        assert_eq!(enc.buf, before);
        let err = enc.try_envelope("Outer", |e| {
            e.put_u8(1);
            e.try_nested_envelope("Inner", |_| Err(PersistError::Unsupported("test body")))
        });
        assert_eq!(err, Err(PersistError::Unsupported("test body")));
        assert_eq!(enc.buf, before);
    }

    #[test]
    fn huge_payload_length_reports_eof_not_overflow() {
        // An envelope whose payload-length field is near u64::MAX must fail
        // as truncated, not panic on `payload_len + 8`.
        let mut enc = Encoder::new();
        enc.buf.extend_from_slice(&MAGIC);
        enc.put_u16(FORMAT_VERSION);
        enc.put_str("Thing");
        enc.put_u64(u64::MAX - 3);
        let bytes = enc.into_bytes();
        assert!(matches!(
            inspect(&bytes),
            Err(PersistError::UnexpectedEof { .. }) | Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn future_format_version_is_rejected_explicitly() {
        // Hand-build a structurally valid envelope claiming version
        // FORMAT_VERSION + 1, with a correct checksum — the reader must
        // reject it as UnsupportedVersion (not mis-decode, not call it
        // corrupt).
        let mut enc = Encoder::new();
        enc.buf.extend_from_slice(&MAGIC);
        enc.put_u16(FORMAT_VERSION + 1);
        enc.put_str("Thing");
        enc.put_usize(2);
        enc.put_u8(1);
        enc.put_u8(2);
        let checksum = fnv1a(&enc.buf);
        enc.put_u64(checksum);
        let bytes = enc.into_bytes();
        // inspect reports the header (so a registry can list it)...
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, FORMAT_VERSION + 1);
        // ...but decoding refuses.
        assert_eq!(
            open_envelope(&bytes, "Thing").err(),
            Some(PersistError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn ucr_dataset_round_trips() {
        let d =
            UcrDataset::new(vec![vec![1.0, -2.5, 0.0], vec![4.0, 5.0, 6.25]], vec![0, 1]).unwrap();
        let bytes = d.snapshot();
        let back = UcrDataset::restore(&bytes).unwrap();
        assert_eq!(back, d);
        // Label/exemplar count mismatch is rejected at decode.
        assert!(matches!(
            UcrDataset::restore(&envelope("UcrDataset", &[0u8; 16])),
            Err(PersistError::Corrupt(_)) | Err(PersistError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let d = UcrDataset::new(vec![vec![1.0]], vec![0]).unwrap();
        let mut enc = Encoder::new();
        d.encode_body(&mut enc);
        enc.put_u8(0xFF); // stray byte
        let bytes = envelope(UcrDataset::KIND, &enc.into_bytes());
        assert!(matches!(
            UcrDataset::restore(&bytes),
            Err(PersistError::TrailingBytes { .. })
        ));
    }
}
