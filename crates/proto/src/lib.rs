//! # tempora-proto — the solver service wire protocol
//!
//! A dependency-free, length-prefixed binary protocol between
//! `tempora-serve` (the long-running solver server) and its clients,
//! plus the **canonical serialization of [`Problem`]** that doubles as
//! the plan-cache key. No serde, no external codecs: every frame is
//! hand-encoded little-endian bytes behind a 4-byte length prefix.
//!
//! ## Frames
//!
//! | frame | direction | meaning |
//! |---|---|---|
//! | [`Frame::SubmitProblem`] | client → server | intern (prepare) a plan for a [`JobSpec`]; replies [`Frame::ReportReply`] with `steps == 0` |
//! | [`Frame::RunSteps`] | client → server | run the spec's plan against a fresh deterministic state (`seed`), one full time extent |
//! | [`Frame::ReportReply`] | server → client | what executed: cache provenance, resolved engine, state digest, service time |
//! | [`Frame::ErrorReply`] | server → client | typed failure ([`ErrorCode`]) with a message; never a panic |
//!
//! Request ids are client-chosen and **id 0 is reserved** for
//! uncorrelated server messages (decode-failure replies, unsolicited
//! [`ErrorCode::GoingAway`] farewells) — see [`Frame`]. The resilience
//! codes [`ErrorCode::GoingAway`], [`ErrorCode::Busy`] and
//! [`ErrorCode::DeadlineExceeded`] are retry hints
//! ([`ErrorCode::retryable`]); servers reading with short socket
//! timeouts keep half-received frames alive across wakeups with
//! [`FrameAccum`].
//!
//! On the wire each frame is `len: u32le` followed by `len` body bytes;
//! the body starts with `version: u8` ([`PROTO_VERSION`], currently 3)
//! and `tag: u8`.
//! Decoding is total: truncated bodies, oversized length prefixes
//! (bounded by [`MAX_FRAME_LEN`]), unknown versions and unknown tags all
//! map to a [`DecodeError`] the server answers with an [`ErrorCode`] —
//! see the adversarial tests in `tests/framing.rs`.
//!
//! ## Canonical problems and cache keys
//!
//! [`canon`] defines one byte encoding used both on the wire and as the
//! interning key: [`ProblemKey`] / [`SpecKey`] hash and compare those
//! canonical bytes, so two differently-constructed but equal problems
//! collide onto one cached plan. `f64` coefficients are encoded by **bit
//! pattern** (`+0.0 ≠ -0.0`), with every NaN normalized to the canonical
//! quiet NaN — see [`canon::canon_f64`] for the full policy. A
//! [`JobSpec`] is the problem followed by the six [`SolveConfig`] fields
//! in declaration order: method, tiling, engine selection, threads,
//! optional stride, pin.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canon;
pub mod codec;
pub mod digest;
pub mod frame;

pub use canon::{canon_f64, JobSpec, ProblemKey, SolveConfig, SpecKey};
pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use digest::state_digest;
pub use frame::{
    read_frame, write_frame, ErrorCode, Frame, FrameAccum, FramePoll, RunReply, WireError,
    MAX_FRAME_LEN, PROTO_VERSION,
};

// The protocol speaks the solver vocabulary directly.
pub use tempora_plan::{Engine, Method, Problem, Select, Tiling};
