//! Wire-framing coverage: property-tested roundtrips of every frame
//! type over randomized problems/configs, plus adversarial decoding —
//! truncations at every byte, oversized length prefixes, unknown
//! versions and tags, bit-flipped payloads. The invariant throughout:
//! hostile bytes produce a `DecodeError` (mapped by the server to an
//! `ErrorReply`), never a panic.

use proptest::prelude::*;
use std::io::{ErrorKind, Read};
use tempora_proto::{
    read_frame, write_frame, DecodeError, ErrorCode, Frame, FrameAccum, FramePoll, JobSpec, Method,
    Problem, RunReply, Select, SolveConfig, Tiling, WireError, MAX_FRAME_LEN, PROTO_VERSION,
};
use tempora_stencil::{
    Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
    LifeRule,
};

/// Deterministically derive an interesting `f64` from raw bits: mixes
/// ordinary values with signed zeros, infinities and NaNs so the
/// canonical encoding's edge cases ride through the roundtrip tests.
fn coeff(bits: u64) -> f64 {
    match bits % 7 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::from_bits(0x7ff8_0000_0000_0000 | (bits >> 3)), // a NaN
        _ => (bits as f64 / u64::MAX as f64) * 4.0 - 2.0,
    }
}

/// After one encode→decode trip every NaN is the canonical quiet NaN,
/// so compare by canonical bits, not `==`.
fn canon_eq(a: f64, b: f64) -> bool {
    tempora_proto::canon_f64(a) == tempora_proto::canon_f64(b)
}

/// A problem of any of the nine kinds, derived from three integers.
fn problem(kind: u8, size: u64, cb: u64) -> Problem {
    let n = 16 + (size % 240) as usize;
    let steps = 1 + (size % 31) as usize;
    match kind % 9 {
        0 => Problem::heat1d(
            n,
            steps,
            Heat1dCoeffs::new(coeff(cb), coeff(cb ^ 1), coeff(cb ^ 2)),
        ),
        1 => Problem::gs1d(
            n,
            steps,
            Gs1dCoeffs::new(coeff(cb), coeff(cb ^ 1), coeff(cb ^ 2)),
        ),
        2 => Problem::heat2d(
            n,
            n / 2 + 4,
            steps,
            Heat2dCoeffs::new(
                coeff(cb),
                coeff(cb ^ 1),
                coeff(cb ^ 2),
                coeff(cb ^ 3),
                coeff(cb ^ 4),
            ),
        ),
        3 => {
            let mut c = [[0.0; 3]; 3];
            for (i, row) in c.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = coeff(cb ^ ((i * 3 + j) as u64));
                }
            }
            Problem::box2d(n, n / 2 + 4, steps, Box2dCoeffs::new(c))
        }
        4 => Problem::gs2d(
            n,
            n / 2 + 4,
            steps,
            Gs2dCoeffs::new(
                coeff(cb),
                coeff(cb ^ 1),
                coeff(cb ^ 2),
                coeff(cb ^ 3),
                coeff(cb ^ 4),
            ),
        ),
        5 => Problem::life(
            n,
            n / 2 + 4,
            steps,
            LifeRule {
                birth: (cb & 0x1ff) as u16,
                survive: ((cb >> 9) & 0x1ff) as u16,
            },
        ),
        6 => Problem::heat3d(
            n / 4 + 4,
            n / 4 + 4,
            n / 4 + 4,
            steps,
            Heat3dCoeffs::new(
                coeff(cb),
                coeff(cb ^ 1),
                coeff(cb ^ 2),
                coeff(cb ^ 3),
                coeff(cb ^ 4),
                coeff(cb ^ 5),
                coeff(cb ^ 6),
            ),
        ),
        7 => Problem::gs3d(
            n / 4 + 4,
            n / 4 + 4,
            n / 4 + 4,
            steps,
            Gs3dCoeffs::new(
                coeff(cb),
                coeff(cb ^ 1),
                coeff(cb ^ 2),
                coeff(cb ^ 3),
                coeff(cb ^ 4),
                coeff(cb ^ 5),
                coeff(cb ^ 6),
            ),
        ),
        _ => Problem::lcs(n, n / 2 + 4),
    }
}

/// A solver configuration derived from one integer.
fn config(sel: u64) -> SolveConfig {
    SolveConfig {
        method: [
            Method::Temporal,
            Method::Multiload,
            Method::Reorg,
            Method::Dlt,
            Method::Scalar,
        ][(sel % 5) as usize],
        tiling: match (sel >> 3) % 4 {
            0 => Tiling::None,
            1 => Tiling::Ghost {
                block: 32 + (sel % 64) as usize,
                height: 1 + (sel % 7) as usize,
            },
            2 => Tiling::Skew {
                block: 32 + (sel % 64) as usize,
                height: 1 + (sel % 7) as usize,
            },
            _ => Tiling::LcsRect {
                xblock: 8 + (sel % 32) as usize,
                yblock: 8 + ((sel >> 5) % 32) as usize,
            },
        },
        select: [Select::Auto, Select::Portable, Select::Avx2][((sel >> 7) % 3) as usize],
        threads: 1 + (sel % 4) as usize,
        stride: if sel & 0x100 != 0 {
            Some(2 + (sel % 6) as usize)
        } else {
            None
        },
        pin: sel & 0x200 != 0,
    }
}

fn spec(kind: u8, size: u64, cb: u64, sel: u64) -> JobSpec {
    JobSpec {
        problem: problem(kind, size, cb),
        config: config(sel),
    }
}

/// Problems compare equal after a roundtrip up to NaN canonicalization;
/// the cache key is exactly invariant.
fn assert_spec_roundtrip(s: &JobSpec) {
    let f = Frame::SubmitProblem {
        request_id: 7,
        spec: *s,
    };
    let body = f.encode_body();
    let decoded = Frame::decode_body(&body).expect("roundtrip must decode");
    let Frame::SubmitProblem { spec: d, .. } = &decoded else {
        panic!("tag changed in roundtrip");
    };
    assert_eq!(d.config, s.config);
    assert_eq!(d.key(), s.key(), "cache key must survive the wire");
    // Spot-check a coefficient field by canonical bits.
    if let (Problem::Heat1d { coeffs: a, .. }, Problem::Heat1d { coeffs: b, .. }) =
        (&s.problem, &d.problem)
    {
        assert!(canon_eq(a.w, b.w) && canon_eq(a.c, b.c) && canon_eq(a.e, b.e));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_frame_type_roundtrips(kind in any::<u8>(), size in any::<u64>(),
                                   cb in any::<u64>(), sel in any::<u64>(),
                                   rid in any::<u64>(), seed in any::<u64>()) {
        let s = spec(kind, size, cb, sel);
        assert_spec_roundtrip(&s);

        let run = Frame::RunSteps { request_id: rid, spec: s, seed };
        prop_assert_eq!(
            Frame::decode_body(&run.encode_body()).unwrap().request_id(), rid);

        let reply = Frame::ReportReply {
            request_id: rid,
            reply: RunReply {
                cache_hit: seed & 1 != 0,
                plan_builds: seed % 5,
                resets: seed % 3,
                batched: 1 + (seed % 7) as u32,
                engine: [None, Some(tempora_proto::Engine::Portable),
                         Some(tempora_proto::Engine::Avx2),
                         Some(tempora_proto::Engine::Avx512)][(seed % 4) as usize],
                steps: size % 1000,
                threads: 1 + (sel % 8) as u32,
                pinned: sel & 4 != 0,
                tiles: if seed & 2 != 0 { Some((seed % 9, seed % 11, seed % 13)) } else { None },
                lcs_length: if kind % 9 == 8 { Some((size % 1000) as i32) } else { None },
                digest: cb,
                server_ns: size,
            },
        };
        prop_assert_eq!(Frame::decode_body(&reply.encode_body()).unwrap(), reply);

        let err = Frame::ErrorReply {
            request_id: rid,
            code: [ErrorCode::BadFrame, ErrorCode::UnsupportedVersion, ErrorCode::BuildFailed,
                   ErrorCode::RunFailed, ErrorCode::Poisoned, ErrorCode::Internal]
                  [(seed % 6) as usize],
            message: format!("failure {seed}"),
        };
        prop_assert_eq!(Frame::decode_body(&err.encode_body()).unwrap(), err);
    }

    #[test]
    fn truncation_anywhere_errors_never_panics(kind in any::<u8>(), size in any::<u64>(),
                                               cb in any::<u64>(), sel in any::<u64>(),
                                               cut in any::<u64>()) {
        let body = Frame::RunSteps {
            request_id: 11,
            spec: spec(kind, size, cb, sel),
            seed: 5,
        }.encode_body();
        let cut = (cut % body.len() as u64) as usize;
        // Every strict prefix must decode to an error, not a panic and
        // not a (shorter) success.
        prop_assert!(Frame::decode_body(&body[..cut]).is_err());
    }

    #[test]
    fn bit_flips_never_panic(kind in any::<u8>(), size in any::<u64>(),
                             cb in any::<u64>(), sel in any::<u64>(),
                             at in any::<u64>(), bit in 0u8..8) {
        let mut body = Frame::SubmitProblem {
            request_id: 3,
            spec: spec(kind, size, cb, sel),
        }.encode_body();
        let at = (at % body.len() as u64) as usize;
        body[at] ^= 1 << bit;
        // Either it still decodes (the flip hit a don't-care bit like a
        // coefficient) or it errors; it must never panic.
        let _ = Frame::decode_body(&body);
    }
}

/// A stream handed out in chunks — one `read` never crosses a cut — with a
/// `WouldBlock` between consecutive chunks, then EOF: a socket whose read
/// timeout fires wherever the peer's writes were split.
struct Chunked {
    data: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
    blocked: bool,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.cuts.iter().copied().find(|&c| c > self.pos);
        let end = end.unwrap_or(self.data.len());
        if self.pos == self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        if self.cuts.contains(&self.pos) && !self.blocked {
            self.blocked = true;
            return Err(ErrorKind::WouldBlock.into());
        }
        self.blocked = false;
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drive a `FrameAccum` over `r` to EOF or the first error: the bodies of
/// the frames it yields, re-encoded, and the error.
fn accumulate(r: &mut impl Read) -> (Vec<Vec<u8>>, Option<WireError>) {
    let (mut accum, mut frames) = (FrameAccum::new(), vec![]);
    loop {
        match accum.poll(r) {
            Ok(FramePoll::Frame(f)) => frames.push(f.encode_body()),
            Ok(FramePoll::Pending { .. }) => {}
            Ok(FramePoll::Eof) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any chunking of a stream of one to four frames, with a
    /// `WouldBlock` between chunks, yields through `FrameAccum::poll` the
    /// frames `read_frame` decodes from the unsplit stream; a stream cut
    /// inside its last frame yields the frames before it and then
    /// `Truncated` — never a panic and never a shorter frame.
    #[test]
    fn frame_accum_yields_the_frames_of_read_frame_under_any_chunking(
        kind in any::<u8>(), size in any::<u64>(), cb in any::<u64>(), sel in any::<u64>(),
        count in 1usize..=4,
        cuts in proptest::collection::vec(any::<u64>(), 0..12),
        cut_last in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        let mut last_start = 0;
        for i in 0..count as u64 {
            let spec = spec(kind.wrapping_add(i as u8), size ^ i, cb, sel.rotate_left(i as u32));
            let frame = match sel.wrapping_add(i) % 3 {
                0 => Frame::SubmitProblem { request_id: i + 1, spec },
                1 => Frame::RunSteps { request_id: i + 1, spec, seed: cb ^ i },
                _ => Frame::ErrorReply {
                    request_id: i + 1,
                    code: ErrorCode::BuildFailed,
                    message: format!("frame {i}"),
                },
            };
            last_start = stream.len();
            write_frame(&mut stream, &frame).unwrap();
        }
        let mut cursor = std::io::Cursor::new(&stream);
        let mut whole = vec![];
        while let Some(f) = read_frame(&mut cursor).unwrap() {
            whole.push(f.encode_body());
        }
        prop_assert_eq!(whole.len(), count);

        let split = |data: &[u8]| Chunked {
            cuts: cuts.iter().map(|&c| (c % (data.len() as u64 + 1)) as usize).collect(),
            data: data.to_vec(),
            pos: 0,
            blocked: false,
        };
        let (frames, err) = accumulate(&mut split(&stream));
        prop_assert!(err.is_none(), "{:?}", err);
        prop_assert_eq!(&frames, &whole);

        let end = last_start + 1 + (cut_last % (stream.len() - last_start - 1) as u64) as usize;
        let (frames, err) = accumulate(&mut split(&stream[..end]));
        prop_assert_eq!(&frames[..], &whole[..count - 1]);
        prop_assert!(
            matches!(err, Some(WireError::Decode(DecodeError::Truncated { .. }))),
            "cut at {} of {}: {:?}", end, stream.len(), err
        );
    }
}

#[test]
fn unknown_version_maps_to_error_reply_material_not_panic() {
    let mut body = Frame::SubmitProblem {
        request_id: 1,
        spec: JobSpec::new(Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25))),
    }
    .encode_body();
    for v in [0u8, 1, 7, 255] {
        body[0] = v;
        assert_eq!(
            Frame::decode_body(&body),
            Err(DecodeError::UnknownVersion { got: v })
        );
        // A version mismatch is recoverable: the body was fully framed,
        // so a server answers ErrorReply and keeps the connection.
        assert!(WireError::from(DecodeError::UnknownVersion { got: v }).recoverable());
    }
    body[0] = PROTO_VERSION;
    assert!(Frame::decode_body(&body).is_ok());
}

#[test]
fn unknown_tag_and_trailing_bytes_are_rejected() {
    let spec = JobSpec::new(Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25)));
    let mut body = Frame::SubmitProblem {
        request_id: 1,
        spec,
    }
    .encode_body();
    body[1] = 99;
    assert_eq!(
        Frame::decode_body(&body),
        Err(DecodeError::UnknownTag { got: 99 })
    );
    body[1] = 1;
    body.push(0xab);
    assert!(matches!(
        Frame::decode_body(&body),
        Err(DecodeError::BadValue { .. })
    ));
}

#[test]
fn oversized_length_prefix_is_bounded() {
    // One byte above the bound: rejected before allocation, stream
    // declared unrecoverable.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    let err = read_frame(&mut std::io::Cursor::new(bytes)).unwrap_err();
    assert!(matches!(
        err,
        WireError::Decode(DecodeError::FrameTooLarge { len, max })
            if len == MAX_FRAME_LEN + 1 && max == MAX_FRAME_LEN
    ));
    assert!(!err.recoverable());
}

#[test]
fn torn_length_prefix_is_a_truncation_error() {
    // EOF inside the 4-byte prefix (peer died mid-write).
    let err = read_frame(&mut std::io::Cursor::new(vec![1u8, 2])).unwrap_err();
    assert!(matches!(
        err,
        WireError::Decode(DecodeError::Truncated { .. })
    ));
}

#[test]
fn multi_frame_stream_stays_in_sync_after_bad_version() {
    // good | bad-version | good on one stream: the reader surfaces the
    // middle error and still decodes the third frame.
    let good = Frame::RunSteps {
        request_id: 1,
        spec: JobSpec::new(Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25))),
        seed: 9,
    };
    let mut stream = Vec::new();
    write_frame(&mut stream, &good).unwrap();
    let mut bad = good.encode_body();
    bad[0] = PROTO_VERSION + 1;
    stream.extend_from_slice(&(bad.len() as u32).to_le_bytes());
    stream.extend_from_slice(&bad);
    write_frame(&mut stream, &good).unwrap();

    let mut cursor = std::io::Cursor::new(stream);
    assert!(read_frame(&mut cursor).unwrap().is_some());
    let mid = read_frame(&mut cursor).unwrap_err();
    assert!(mid.recoverable());
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), good);
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn version_1_run_steps_gets_the_version_error_and_the_stream_stays_in_sync() {
    // `RunSteps { request_id: 1, spec: JobSpec::new(heat1d(64, 4,
    // classic(0.25))), seed: 9 }` as a version-1 build encoded it: the
    // config carried one more byte (the wave schedule) after `pin`.
    #[rustfmt::skip]
    const V1_RUN_STEPS: [u8; 81] = [
        1, 2, 1, 0, 0, 0, 0, 0, 0, 0,                   // version, tag, request id
        1, 64, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, // heat1d, n, steps
        0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224, 63, // w, c
        0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 0, 0,  // e, boundary
        0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,          // method … threads, stride, pin
        0,                                              // wave schedule
        9, 0, 0, 0, 0, 0, 0, 0,                         // seed
    ];
    let err = Frame::decode_body(&V1_RUN_STEPS).unwrap_err();
    assert_eq!(err, DecodeError::UnknownVersion { got: 1 });
    assert!(WireError::from(err).recoverable());

    let same_request = Frame::RunSteps {
        request_id: 1,
        spec: JobSpec::new(Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25))),
        seed: 9,
    };
    assert_eq!(same_request.encode_body().len(), V1_RUN_STEPS.len() - 1);

    let mut stream = Vec::new();
    stream.extend_from_slice(&(V1_RUN_STEPS.len() as u32).to_le_bytes());
    stream.extend_from_slice(&V1_RUN_STEPS);
    write_frame(&mut stream, &same_request).unwrap();
    let mut cursor = std::io::Cursor::new(stream);
    assert!(read_frame(&mut cursor).unwrap_err().recoverable());
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), same_request);
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn spec_keys_collide_only_for_equal_configs() {
    let tilings = [
        Tiling::None,
        Tiling::Ghost {
            block: 32,
            height: 4,
        },
        Tiling::Ghost {
            block: 32,
            height: 8,
        },
        Tiling::Skew {
            block: 32,
            height: 4,
        },
        Tiling::LcsRect {
            xblock: 32,
            yblock: 4,
        },
    ];
    let mut configs = Vec::new();
    for method in [
        Method::Temporal,
        Method::Multiload,
        Method::Reorg,
        Method::Dlt,
        Method::Scalar,
    ] {
        for tiling in tilings {
            for select in [Select::Auto, Select::Portable, Select::Avx2] {
                for threads in [1, 2] {
                    for stride in [None, Some(2), Some(7)] {
                        for pin in [false, true] {
                            configs.push(SolveConfig {
                                method,
                                tiling,
                                select,
                                threads,
                                stride,
                                pin,
                            });
                        }
                    }
                }
            }
        }
    }
    let problem = Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25));
    let key = |config: &SolveConfig| {
        JobSpec {
            problem,
            config: *config,
        }
        .key()
    };
    let keys: Vec<_> = configs.iter().map(key).collect();
    for (a, ka) in configs.iter().zip(&keys) {
        assert_eq!(&key(a), ka, "{a:?}: the key is a function of the spec");
        for (b, kb) in configs.iter().zip(&keys) {
            assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
        }
    }
}
