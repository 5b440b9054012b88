//! Versioned, length-prefixed frames and their stream I/O.
//!
//! Wire layout of one frame:
//!
//! ```text
//! len: u32le            — body length, bounded by MAX_FRAME_LEN
//! body[0]: u8           — PROTO_VERSION
//! body[1]: u8           — frame tag
//! body[2..]: payload    — tag-specific fields (little-endian)
//! ```
//!
//! [`read_frame`] always consumes the *entire* advertised body before
//! validating version or tag, so a recoverable decode error (unknown
//! version, unknown tag, malformed payload) leaves the stream in sync
//! and the server can answer with [`Frame::ErrorReply`] instead of
//! closing the connection. Only a length prefix above [`MAX_FRAME_LEN`]
//! or an I/O error is unrecoverable.

use crate::canon::JobSpec;
use crate::codec::{ByteReader, ByteWriter, DecodeError};
use std::io::{Read, Write};
use tempora_core::engine::Engine;

/// The protocol version this build speaks. Frames carrying any other
/// version decode to [`DecodeError::UnknownVersion`]. Version 2 dropped
/// the trailing wave-schedule byte of version 1's `SolveConfig`
/// encoding, so a version-1 peer gets the typed, recoverable version
/// error instead of a mis-parse. Version 3 changed no frame layout: it
/// redefined [`RunReply::digest`] (the word-wise lane-parallel fold of
/// [`crate::digest`] replaced a byte-serial FNV-1a), so a version-2 peer
/// gets that same typed error, never a digest that silently mismatches.
/// Version 4 added engine byte 3 (`avx512`) to [`RunReply`], which a
/// version-3 peer would reject as a malformed reply instead of the typed
/// version error.
pub const PROTO_VERSION: u8 = 4;

/// Upper bound on one frame's body length (16 MiB). Length prefixes
/// above this are rejected **before** any allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 24;

const TAG_SUBMIT: u8 = 1;
const TAG_RUN: u8 = 2;
const TAG_REPORT: u8 = 3;
const TAG_ERROR: u8 = 4;

/// Typed failure category carried by [`Frame::ErrorReply`].
///
/// The resilience codes added for graceful degradation
/// ([`ErrorCode::GoingAway`], [`ErrorCode::Busy`],
/// [`ErrorCode::DeadlineExceeded`]) are *retry hints*: a well-behaved
/// client treats them as transient, backs off (honoring
/// [`ErrorCode::retry_after_ms`] when present) and retries — `RunSteps`
/// is idempotent by construction, every retry is bitwise-identical to
/// the first attempt. The wire encoding is append-only: new codes take
/// new tag values, old tags never change meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request frame failed to decode (the stream stayed in sync).
    BadFrame,
    /// The request's version byte is not [`PROTO_VERSION`].
    UnsupportedVersion,
    /// `PlanBuilder::build` rejected the spec.
    BuildFailed,
    /// `Plan::run` returned a non-poisoning error.
    RunFailed,
    /// The cached plan for this spec was poisoned by this request's own
    /// panic; the entry recovers (via `Plan::reset`) on the next
    /// request, so retrying is safe.
    Poisoned,
    /// Any other server-side failure.
    Internal,
    /// The server is draining for shutdown: this connection will be
    /// closed after this reply and no new work is accepted. Sent both as
    /// the answer to a request that arrives during the drain window and
    /// as an unsolicited farewell (`request_id == 0`) on idle
    /// connections. Reconnect (to a restarted instance) and retry.
    GoingAway,
    /// The server refused to take the work on — the connection limit or
    /// a cache entry's queue-depth bound was hit. Retry after
    /// `retry_after_ms` (with jitter on top).
    Busy {
        /// Server-suggested minimum backoff before retrying.
        retry_after_ms: u32,
    },
    /// The peer was too slow: a frame stayed half-read past the server's
    /// stall timeout (slow-loris defense) or a reply could not be
    /// written within the write timeout. The connection is closed after
    /// this reply; reconnect and retry.
    DeadlineExceeded,
}

impl ErrorCode {
    /// True when the failure is transient and the request (idempotent by
    /// construction) should be retried, possibly on a new connection.
    #[must_use]
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ErrorCode::Poisoned
                | ErrorCode::GoingAway
                | ErrorCode::Busy { .. }
                | ErrorCode::DeadlineExceeded
        )
    }

    /// The server's minimum-backoff hint in milliseconds, when the code
    /// carries one.
    #[must_use]
    pub fn retry_after_ms(&self) -> Option<u32> {
        match self {
            ErrorCode::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }

    fn encode(self, w: &mut ByteWriter) {
        match self {
            ErrorCode::BadFrame => w.put_u8(1),
            ErrorCode::UnsupportedVersion => w.put_u8(2),
            ErrorCode::BuildFailed => w.put_u8(3),
            ErrorCode::RunFailed => w.put_u8(4),
            ErrorCode::Poisoned => w.put_u8(5),
            ErrorCode::Internal => w.put_u8(6),
            ErrorCode::GoingAway => w.put_u8(7),
            ErrorCode::Busy { retry_after_ms } => {
                w.put_u8(8);
                w.put_u32(retry_after_ms);
            }
            ErrorCode::DeadlineExceeded => w.put_u8(9),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<ErrorCode, DecodeError> {
        Ok(match r.u8()? {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::BuildFailed,
            4 => ErrorCode::RunFailed,
            5 => ErrorCode::Poisoned,
            6 => ErrorCode::Internal,
            7 => ErrorCode::GoingAway,
            8 => ErrorCode::Busy {
                retry_after_ms: r.u32()?,
            },
            9 => ErrorCode::DeadlineExceeded,
            _ => return Err(DecodeError::BadValue { what: "error code" }),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorCode::BadFrame => f.write_str("bad-frame"),
            ErrorCode::UnsupportedVersion => f.write_str("unsupported-version"),
            ErrorCode::BuildFailed => f.write_str("build-failed"),
            ErrorCode::RunFailed => f.write_str("run-failed"),
            ErrorCode::Poisoned => f.write_str("poisoned"),
            ErrorCode::Internal => f.write_str("internal"),
            ErrorCode::GoingAway => f.write_str("going-away"),
            ErrorCode::Busy { retry_after_ms } => {
                write!(f, "busy (retry after {retry_after_ms}ms)")
            }
            ErrorCode::DeadlineExceeded => f.write_str("deadline-exceeded"),
        }
    }
}

/// What the server did for one `RunSteps` (or `SubmitProblem`, with
/// `steps == 0`): cache provenance, the solver's `Report` fields, a
/// digest of the resulting state, and service time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReply {
    /// True when the plan was served from cache (no build this request).
    pub cache_hit: bool,
    /// Lifetime builds of this cache entry (1 = built once, never
    /// rebuilt — the clone-free steady state).
    pub plan_builds: u64,
    /// Lifetime poison-recovery resets of this cache entry.
    pub resets: u64,
    /// Requests holding or waiting for this plan when this one was
    /// admitted, itself included (≥ 1). Its maximum over a run is the
    /// peak number of concurrent requests for one plan.
    pub batched: u32,
    /// Resolved engine (`Report::engine`), if the method dispatches.
    pub engine: Option<Engine>,
    /// Time steps advanced (`Report::steps`).
    pub steps: u64,
    /// Worker threads of the plan's pool (`Report::threads`).
    pub threads: u32,
    /// Whether every pool worker was pinned (`Report::pinned`).
    pub pinned: bool,
    /// Tile geometry `(tiles, block, height)` for tiled plans
    /// (`Report::tiles`).
    pub tiles: Option<(u64, u64, u64)>,
    /// The LCS length for LCS problems (`Report::lcs_length`).
    pub lcs_length: Option<i32>,
    /// Digest of the full output state ([`crate::state_digest`]); lets
    /// clients assert bitwise identity against a local reference run.
    pub digest: u64,
    /// Server-side service time for this request, in nanoseconds
    /// (queueing + run, excluding socket I/O).
    pub server_ns: u64,
}

impl RunReply {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.cache_hit as u8);
        w.put_u64(self.plan_builds);
        w.put_u64(self.resets);
        w.put_u32(self.batched);
        w.put_u8(match self.engine {
            None => 0,
            Some(Engine::Portable) => 1,
            Some(Engine::Avx2) => 2,
            Some(Engine::Avx512) => 3,
        });
        w.put_u64(self.steps);
        w.put_u32(self.threads);
        w.put_u8(self.pinned as u8);
        match self.tiles {
            None => w.put_u8(0),
            Some((t, b, h)) => {
                w.put_u8(1);
                w.put_u64(t);
                w.put_u64(b);
                w.put_u64(h);
            }
        }
        match self.lcs_length {
            None => w.put_u8(0),
            Some(l) => {
                w.put_u8(1);
                w.put_i32(l);
            }
        }
        w.put_u64(self.digest);
        w.put_u64(self.server_ns);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<RunReply, DecodeError> {
        let cache_hit = flag(r, "cache-hit flag")?;
        let plan_builds = r.u64()?;
        let resets = r.u64()?;
        let batched = r.u32()?;
        let engine = match r.u8()? {
            0 => None,
            1 => Some(Engine::Portable),
            2 => Some(Engine::Avx2),
            3 => Some(Engine::Avx512),
            _ => return Err(DecodeError::BadValue { what: "engine tag" }),
        };
        let steps = r.u64()?;
        let threads = r.u32()?;
        let pinned = flag(r, "pinned flag")?;
        let tiles = match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.u64()?, r.u64()?)),
            _ => {
                return Err(DecodeError::BadValue {
                    what: "tiles option tag",
                })
            }
        };
        let lcs_length = match r.u8()? {
            0 => None,
            1 => Some(r.i32()?),
            _ => {
                return Err(DecodeError::BadValue {
                    what: "lcs-length option tag",
                })
            }
        };
        Ok(RunReply {
            cache_hit,
            plan_builds,
            resets,
            batched,
            engine,
            steps,
            threads,
            pinned,
            tiles,
            lcs_length,
            digest: r.u64()?,
            server_ns: r.u64()?,
        })
    }
}

fn flag(r: &mut ByteReader<'_>, what: &'static str) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::BadValue { what }),
    }
}

/// One protocol message. See the crate docs for the frame table.
///
/// # Request-id 0 is reserved
///
/// Correlation ids are client-chosen, but **id 0 is reserved for
/// uncorrelated server messages**: an [`Frame::ErrorReply`] answering a
/// request too malformed to carry an id, or an unsolicited
/// [`ErrorCode::GoingAway`] farewell during shutdown drain. Clients MUST
/// start their id counter at 1 and never wrap back onto 0, so an
/// uncorrelated reply can never be mistaken for the answer to a real
/// request (`tempora_client` enforces this).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: intern (prepare) a plan for `spec` without
    /// running it. Replied with [`Frame::ReportReply`] (`steps == 0`).
    SubmitProblem {
        /// Client-chosen correlation id (≥ 1; 0 is reserved), echoed in
        /// the reply.
        request_id: u64,
        /// The problem and solver configuration to compile.
        spec: JobSpec,
    },
    /// Client → server: run `spec`'s plan over its full time extent
    /// against a fresh state deterministically filled from `seed`.
    RunSteps {
        /// Client-chosen correlation id (≥ 1; 0 is reserved), echoed in
        /// the reply.
        request_id: u64,
        /// The problem and solver configuration to run.
        spec: JobSpec,
        /// Seed for the server-side deterministic initial state.
        seed: u64,
    },
    /// Server → client: success.
    ReportReply {
        /// The request this answers.
        request_id: u64,
        /// What executed.
        reply: RunReply,
    },
    /// Server → client: typed failure. `request_id` is 0 when the
    /// request was too malformed to carry one.
    ErrorReply {
        /// The request this answers (0 if unknown).
        request_id: u64,
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail (bounded; see
        /// [`crate::codec::MAX_TEXT_LEN`]).
        message: String,
    },
}

impl Frame {
    /// Encode this frame's *body* (version + tag + payload), without the
    /// length prefix.
    #[must_use]
    pub fn encode_body(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(PROTO_VERSION);
        match self {
            Frame::SubmitProblem { request_id, spec } => {
                w.put_u8(TAG_SUBMIT);
                w.put_u64(*request_id);
                spec.encode(&mut w);
            }
            Frame::RunSteps {
                request_id,
                spec,
                seed,
            } => {
                w.put_u8(TAG_RUN);
                w.put_u64(*request_id);
                spec.encode(&mut w);
                w.put_u64(*seed);
            }
            Frame::ReportReply { request_id, reply } => {
                w.put_u8(TAG_REPORT);
                w.put_u64(*request_id);
                reply.encode(&mut w);
            }
            Frame::ErrorReply {
                request_id,
                code,
                message,
            } => {
                w.put_u8(TAG_ERROR);
                w.put_u64(*request_id);
                code.encode(&mut w);
                w.put_str(message);
            }
        }
        w.into_bytes()
    }

    /// Decode one frame *body* (as framed by the length prefix).
    ///
    /// The caller has already consumed the whole body from the stream,
    /// so any error here is recoverable: reply and keep reading.
    pub fn decode_body(body: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = ByteReader::new(body);
        let version = r.u8()?;
        if version != PROTO_VERSION {
            return Err(DecodeError::UnknownVersion { got: version });
        }
        let tag = r.u8()?;
        let frame = match tag {
            TAG_SUBMIT => Frame::SubmitProblem {
                request_id: r.u64()?,
                spec: JobSpec::decode(&mut r)?,
            },
            TAG_RUN => Frame::RunSteps {
                request_id: r.u64()?,
                spec: JobSpec::decode(&mut r)?,
                seed: r.u64()?,
            },
            TAG_REPORT => Frame::ReportReply {
                request_id: r.u64()?,
                reply: RunReply::decode(&mut r)?,
            },
            TAG_ERROR => Frame::ErrorReply {
                request_id: r.u64()?,
                code: ErrorCode::decode(&mut r)?,
                message: r.str()?,
            },
            got => return Err(DecodeError::UnknownTag { got }),
        };
        r.finish()?;
        Ok(frame)
    }

    /// The correlation id carried by this frame (0 for none).
    #[must_use]
    pub fn request_id(&self) -> u64 {
        match self {
            Frame::SubmitProblem { request_id, .. }
            | Frame::RunSteps { request_id, .. }
            | Frame::ReportReply { request_id, .. }
            | Frame::ErrorReply { request_id, .. } => *request_id,
        }
    }
}

/// A stream-level protocol failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer's bytes failed to decode. `recoverable()` tells whether
    /// the stream is still in sync.
    Decode(DecodeError),
}

impl WireError {
    /// True when the whole frame body was consumed before the failure,
    /// so the connection can continue after an `ErrorReply`. False for
    /// I/O errors and for length prefixes above [`MAX_FRAME_LEN`]
    /// (where the remaining stream contents are unknowable).
    #[must_use]
    pub fn recoverable(&self) -> bool {
        match self {
            WireError::Io(_) => false,
            WireError::Decode(DecodeError::FrameTooLarge { .. }) => false,
            WireError::Decode(_) => true,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Decode(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError::Decode(e)
    }
}

/// Write one length-prefixed frame and flush.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let body = frame.encode_body();
    debug_assert!((body.len() as u64) <= MAX_FRAME_LEN);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// What one [`FrameAccum::poll`] produced.
#[derive(Debug)]
pub enum FramePoll {
    /// A whole frame arrived (and decoded).
    Frame(Frame),
    /// Clean EOF at a frame boundary (the peer hung up between frames).
    Eof,
    /// The read would block (the socket's read timeout elapsed).
    /// `mid_frame` says whether part of the next frame has already been
    /// consumed into the accumulator — a `true` here that persists is a
    /// stalled peer (slow-loris); a `false` is mere idleness.
    Pending {
        /// True when the accumulator holds a partial frame.
        mid_frame: bool,
    },
}

/// Incremental frame reader that survives read timeouts.
///
/// [`read_frame`] blocks until a whole frame arrives, which pins the
/// reading thread for as long as the peer dawdles. `FrameAccum` instead
/// accumulates partial bytes across calls: give the socket a short read
/// timeout and call [`FrameAccum::poll`] in a loop — every
/// [`FramePoll::Pending`] wakeup is a chance to check shutdown flags,
/// idle budgets and stall deadlines without losing a half-received
/// frame. This is the server's slow-peer defense primitive.
#[derive(Debug, Default)]
pub struct FrameAccum {
    prefix: [u8; 4],
    got_prefix: usize,
    /// `Some(body)` once the length prefix is complete; `got_body` bytes
    /// of it are filled so far.
    body: Option<Vec<u8>>,
    got_body: usize,
}

impl FrameAccum {
    /// An empty accumulator, at a frame boundary.
    #[must_use]
    pub fn new() -> FrameAccum {
        FrameAccum::default()
    }

    /// True when part of the next frame has been consumed — a timeout in
    /// this state means the peer stalled mid-frame and the stream cannot
    /// be resynchronized by anything but closing it.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.got_prefix > 0 || self.body.is_some()
    }

    /// Drive the accumulator with whatever `r` has available.
    ///
    /// Returns [`FramePoll::Pending`] when the underlying read times out
    /// (`WouldBlock`/`TimedOut`), preserving all bytes consumed so far.
    /// Error semantics match [`read_frame`]: oversized length prefixes
    /// are unrecoverable, any other [`DecodeError`] is returned with the
    /// stream in sync (the accumulator is reset to the next frame
    /// boundary).
    pub fn poll(&mut self, r: &mut impl Read) -> Result<FramePoll, WireError> {
        while self.got_prefix < 4 {
            match r.read(&mut self.prefix[self.got_prefix..]) {
                Ok(0) if self.got_prefix == 0 => return Ok(FramePoll::Eof),
                Ok(0) => {
                    return Err(WireError::Decode(DecodeError::Truncated {
                        needed: 4 - self.got_prefix,
                        have: 0,
                    }))
                }
                Ok(n) => self.got_prefix += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => {
                    return Ok(FramePoll::Pending {
                        mid_frame: self.mid_frame(),
                    })
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        if self.body.is_none() {
            let len = u32::from_le_bytes(self.prefix) as u64;
            if len > MAX_FRAME_LEN {
                return Err(WireError::Decode(DecodeError::FrameTooLarge {
                    len,
                    max: MAX_FRAME_LEN,
                }));
            }
            self.body = Some(vec![0u8; len as usize]);
            self.got_body = 0;
        }
        loop {
            // Justification (panic-justification): the branch above
            // guarantees `body` is `Some` on every path reaching here.
            let body = self.body.as_mut().expect("length prefix parsed");
            if self.got_body == body.len() {
                break;
            }
            match r.read(&mut body[self.got_body..]) {
                Ok(0) => {
                    let needed = body.len() - self.got_body;
                    *self = FrameAccum::new();
                    return Err(WireError::Decode(DecodeError::Truncated {
                        needed,
                        have: 0,
                    }));
                }
                Ok(n) => self.got_body += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => return Ok(FramePoll::Pending { mid_frame: true }),
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        // Justification (panic-justification): `body` was `Some` in the
        // loop above and nothing cleared it since.
        let body = self.body.take().expect("body buffer filled");
        *self = FrameAccum::new();
        Ok(FramePoll::Frame(Frame::decode_body(&body)?))
    }
}

/// True for the error kinds a socket read deadline produces.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between frames). A length prefix above [`MAX_FRAME_LEN`] is
/// rejected before any allocation and is **not** recoverable; any other
/// [`DecodeError`] is returned after the full body was consumed, so the
/// caller may reply and keep serving the connection. A read timeout on
/// the underlying socket surfaces as an unrecoverable `Io` error — use
/// [`FrameAccum`] to keep the stream alive across timeouts.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut accum = FrameAccum::new();
    match accum.poll(r)? {
        FramePoll::Frame(frame) => Ok(Some(frame)),
        FramePoll::Eof => Ok(None),
        FramePoll::Pending { .. } => Err(WireError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "read timed out mid-frame",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::JobSpec;
    use tempora_plan::Problem;
    use tempora_stencil::Heat1dCoeffs;

    fn spec() -> JobSpec {
        JobSpec::new(Problem::heat1d(256, 8, Heat1dCoeffs::classic(0.25)))
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let frames = vec![
            Frame::SubmitProblem {
                request_id: 1,
                spec: spec(),
            },
            Frame::RunSteps {
                request_id: 2,
                spec: spec(),
                seed: 42,
            },
            Frame::ErrorReply {
                request_id: 3,
                code: ErrorCode::Poisoned,
                message: "cached plan poisoned".into(),
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), *f);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(
            err,
            WireError::Decode(DecodeError::FrameTooLarge { .. })
        ));
        assert!(!err.recoverable());
    }

    #[test]
    fn resilience_error_codes_roundtrip() {
        for code in [
            ErrorCode::GoingAway,
            ErrorCode::Busy {
                retry_after_ms: 1234,
            },
            ErrorCode::DeadlineExceeded,
        ] {
            let frame = Frame::ErrorReply {
                request_id: 0,
                code,
                message: "drain".into(),
            };
            let decoded = Frame::decode_body(&frame.encode_body()).unwrap();
            assert_eq!(decoded, frame);
            assert!(code.retryable());
        }
        assert_eq!(
            ErrorCode::Busy { retry_after_ms: 25 }.retry_after_ms(),
            Some(25)
        );
        assert_eq!(ErrorCode::GoingAway.retry_after_ms(), None);
        assert!(!ErrorCode::BuildFailed.retryable());
        assert!(ErrorCode::Poisoned.retryable());
    }

    /// A reader that dribbles one byte per call, interleaving timeouts,
    /// to model a slow peer against [`FrameAccum`].
    struct Dribble {
        bytes: Vec<u8>,
        at: usize,
        /// Return a WouldBlock before each real byte.
        starve: bool,
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.starve {
                self.starve = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "starved",
                ));
            }
            self.starve = true;
            if self.at == self.bytes.len() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_accum_survives_timeouts_mid_frame() {
        let frame = Frame::RunSteps {
            request_id: 7,
            spec: spec(),
            seed: 3,
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        write_frame(&mut bytes, &frame).unwrap();
        let mut r = Dribble {
            bytes,
            at: 0,
            starve: true,
        };
        let mut accum = FrameAccum::new();
        let mut frames = 0;
        let mut pendings = 0;
        loop {
            match accum.poll(&mut r).unwrap() {
                FramePoll::Frame(got) => {
                    assert_eq!(got, frame);
                    frames += 1;
                }
                FramePoll::Eof => break,
                FramePoll::Pending { mid_frame } => {
                    pendings += 1;
                    // After the first byte of a frame and before its
                    // last, the accumulator must report mid-frame.
                    assert_eq!(mid_frame, accum.mid_frame());
                }
            }
        }
        assert_eq!(frames, 2, "both dribbled frames decode");
        assert!(pendings > 8, "every byte was preceded by a timeout");
    }

    #[test]
    fn frame_accum_pending_idle_vs_stalled() {
        let frame = Frame::SubmitProblem {
            request_id: 1,
            spec: spec(),
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        // Only half the frame arrives, then endless timeouts.
        bytes.truncate(bytes.len() / 2);
        struct HalfThenBlock {
            bytes: Vec<u8>,
            at: usize,
        }
        impl std::io::Read for HalfThenBlock {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.at == self.bytes.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "stalled",
                    ));
                }
                let n = buf.len().min(self.bytes.len() - self.at);
                buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }
        // Idle: nothing has arrived at all.
        let mut idle = HalfThenBlock {
            bytes: Vec::new(),
            at: 0,
        };
        let mut accum = FrameAccum::new();
        assert!(matches!(
            accum.poll(&mut idle).unwrap(),
            FramePoll::Pending { mid_frame: false }
        ));
        assert!(!accum.mid_frame());
        // Stalled: half a frame arrived, then silence.
        let mut stalled = HalfThenBlock { bytes, at: 0 };
        let mut accum = FrameAccum::new();
        assert!(matches!(
            accum.poll(&mut stalled).unwrap(),
            FramePoll::Pending { mid_frame: true }
        ));
        assert!(accum.mid_frame());
    }

    #[test]
    fn unknown_version_is_recoverable() {
        // The previous versions (version 3's replies knew no engine byte
        // 3, version 2's `digest` meant something else) as much as a
        // future one.
        assert_eq!(PROTO_VERSION, 4);
        for version in [2, 3, PROTO_VERSION + 1] {
            let mut body = Frame::SubmitProblem {
                request_id: 9,
                spec: spec(),
            }
            .encode_body();
            body[0] = version;
            let err = Frame::decode_body(&body).unwrap_err();
            assert_eq!(err, DecodeError::UnknownVersion { got: version });
            assert!(WireError::from(err).recoverable());
        }
    }

    #[test]
    fn engine_bytes_are_pinned() {
        let body = |engine| {
            let reply = RunReply {
                cache_hit: true,
                plan_builds: 1,
                resets: 0,
                batched: 1,
                engine,
                steps: 32,
                threads: 1,
                pinned: false,
                tiles: None,
                lcs_length: None,
                digest: 7,
                server_ns: 9,
            };
            Frame::ReportReply {
                request_id: 5,
                reply,
            }
            .encode_body()
        };
        // The engine byte: where the encodings of two engines differ.
        let none = body(None);
        let at = (0..none.len())
            .find(|&i| none[i] != body(Some(Engine::Avx512))[i])
            .unwrap();
        let engines = [
            None,
            Some(Engine::Portable),
            Some(Engine::Avx2),
            Some(Engine::Avx512),
        ];
        for (byte, engine) in engines.into_iter().enumerate() {
            let encoded = body(engine);
            assert_eq!(encoded[at], byte as u8, "{engine:?}");
            let Ok(Frame::ReportReply { reply, .. }) = Frame::decode_body(&encoded) else {
                panic!("{engine:?}: the reply does not decode");
            };
            assert_eq!(reply.engine, engine);
        }
        let mut unknown = none;
        unknown[at] = 4;
        assert_eq!(
            Frame::decode_body(&unknown),
            Err(DecodeError::BadValue { what: "engine tag" })
        );
    }
}
