//! Canonical serialization of [`Problem`] and the solver configuration —
//! one byte encoding used both **on the wire** and as the **plan-cache
//! key**, so "same bytes" is exactly "same compiled plan".
//!
//! # `f64` policy
//!
//! Coefficients and boundary values are encoded by **bit pattern**
//! ([`canon_f64`]), not by `==`:
//!
//! * `+0.0` and `-0.0` are *different* keys (they are different stencils:
//!   the sign survives multiplication);
//! * every NaN is normalized to the canonical quiet NaN
//!   (`f64::NAN.to_bits()`), so two NaNs with different payload bits
//!   intern to one plan — NaN payloads carry no solver semantics and
//!   letting each payload mint a fresh cache entry would be a trivial
//!   cache-exhaustion vector. The normalization also applies on the
//!   wire: NaN payloads are **not preserved** end to end.
//!
//! This makes key equality slightly *finer* than `Problem`'s derived
//! `PartialEq` on zeros (where `0.0 == -0.0`) and *coarser* on NaNs
//! (where `NaN != NaN`); both directions are deliberate and pinned by
//! unit tests.

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use crate::digest::bytes_hash;
use tempora_grid::Boundary;
use tempora_plan::{Method, PlanBuilder, Problem, Select, Tiling};
use tempora_stencil::{
    Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
    LifeRule,
};

/// The canonical bit pattern of an `f64`: the value's own bits, except
/// that every NaN maps to the canonical quiet NaN. See the module docs
/// for the rationale.
#[must_use]
pub fn canon_f64(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn put_f64(w: &mut ByteWriter, x: f64) {
    w.put_u64(canon_f64(x));
}

fn get_f64(r: &mut ByteReader<'_>) -> Result<f64, DecodeError> {
    Ok(f64::from_bits(r.u64()?))
}

// Problem kind tags (wire + key encoding). Append-only: reusing a tag
// for a different kind would silently alias cache keys across releases.
const TAG_HEAT1D: u8 = 1;
const TAG_GS1D: u8 = 2;
const TAG_HEAT2D: u8 = 3;
const TAG_BOX2D: u8 = 4;
const TAG_GS2D: u8 = 5;
const TAG_LIFE: u8 = 6;
const TAG_HEAT3D: u8 = 7;
const TAG_GS3D: u8 = 8;
const TAG_LCS: u8 = 9;

/// Append the canonical encoding of `problem` to `w`.
pub fn encode_problem(w: &mut ByteWriter, problem: &Problem) {
    match *problem {
        Problem::Heat1d {
            n,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_HEAT1D);
            w.put_usize(n);
            w.put_usize(steps);
            for c in [coeffs.w, coeffs.c, coeffs.e] {
                put_f64(w, c);
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Gs1d {
            n,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_GS1D);
            w.put_usize(n);
            w.put_usize(steps);
            for c in [coeffs.w, coeffs.c, coeffs.e] {
                put_f64(w, c);
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Heat2d {
            nx,
            ny,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_HEAT2D);
            w.put_usize(nx);
            w.put_usize(ny);
            w.put_usize(steps);
            for c in [coeffs.cn, coeffs.cw, coeffs.cc, coeffs.ce, coeffs.cs] {
                put_f64(w, c);
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Box2d {
            nx,
            ny,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_BOX2D);
            w.put_usize(nx);
            w.put_usize(ny);
            w.put_usize(steps);
            for row in coeffs.c {
                for c in row {
                    put_f64(w, c);
                }
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Gs2d {
            nx,
            ny,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_GS2D);
            w.put_usize(nx);
            w.put_usize(ny);
            w.put_usize(steps);
            for c in [coeffs.cn, coeffs.cw, coeffs.cc, coeffs.ce, coeffs.cs] {
                put_f64(w, c);
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Life {
            nx,
            ny,
            steps,
            rule,
            boundary,
        } => {
            w.put_u8(TAG_LIFE);
            w.put_usize(nx);
            w.put_usize(ny);
            w.put_usize(steps);
            w.put_u16(rule.birth);
            w.put_u16(rule.survive);
            let Boundary::Dirichlet(b) = boundary;
            w.put_i32(b);
        }
        Problem::Heat3d {
            nx,
            ny,
            nz,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_HEAT3D);
            w.put_usize(nx);
            w.put_usize(ny);
            w.put_usize(nz);
            w.put_usize(steps);
            for c in [
                coeffs.cxm, coeffs.cym, coeffs.czm, coeffs.cc, coeffs.czp, coeffs.cyp, coeffs.cxp,
            ] {
                put_f64(w, c);
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Gs3d {
            nx,
            ny,
            nz,
            steps,
            coeffs,
            boundary,
        } => {
            w.put_u8(TAG_GS3D);
            w.put_usize(nx);
            w.put_usize(ny);
            w.put_usize(nz);
            w.put_usize(steps);
            for c in [
                coeffs.cxm, coeffs.cym, coeffs.czm, coeffs.cc, coeffs.czp, coeffs.cyp, coeffs.cxp,
            ] {
                put_f64(w, c);
            }
            let Boundary::Dirichlet(b) = boundary;
            put_f64(w, b);
        }
        Problem::Lcs { la, lb } => {
            w.put_u8(TAG_LCS);
            w.put_usize(la);
            w.put_usize(lb);
        }
        // `Problem` is `#[non_exhaustive]`; the workspace ships proto and
        // plan in lockstep, so a variant with no canonical encoding is a
        // build-time omission, not a runtime condition.
        _ => unreachable!("Problem variant without a canonical encoding"),
    }
}

/// Decode one canonical [`Problem`].
pub fn decode_problem(r: &mut ByteReader<'_>) -> Result<Problem, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        TAG_HEAT1D => {
            let (n, steps) = (r.usize()?, r.usize()?);
            let (cw, cc, ce) = (get_f64(r)?, get_f64(r)?, get_f64(r)?);
            Problem::Heat1d {
                n,
                steps,
                coeffs: Heat1dCoeffs::new(cw, cc, ce),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_GS1D => {
            let (n, steps) = (r.usize()?, r.usize()?);
            let (cw, cc, ce) = (get_f64(r)?, get_f64(r)?, get_f64(r)?);
            Problem::Gs1d {
                n,
                steps,
                coeffs: Gs1dCoeffs::new(cw, cc, ce),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_HEAT2D => {
            let (nx, ny, steps) = (r.usize()?, r.usize()?, r.usize()?);
            let mut c = [0.0; 5];
            for v in &mut c {
                *v = get_f64(r)?;
            }
            Problem::Heat2d {
                nx,
                ny,
                steps,
                coeffs: Heat2dCoeffs::new(c[0], c[1], c[2], c[3], c[4]),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_BOX2D => {
            let (nx, ny, steps) = (r.usize()?, r.usize()?, r.usize()?);
            let mut c = [[0.0; 3]; 3];
            for row in &mut c {
                for v in row {
                    *v = get_f64(r)?;
                }
            }
            Problem::Box2d {
                nx,
                ny,
                steps,
                coeffs: Box2dCoeffs::new(c),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_GS2D => {
            let (nx, ny, steps) = (r.usize()?, r.usize()?, r.usize()?);
            let mut c = [0.0; 5];
            for v in &mut c {
                *v = get_f64(r)?;
            }
            Problem::Gs2d {
                nx,
                ny,
                steps,
                coeffs: Gs2dCoeffs::new(c[0], c[1], c[2], c[3], c[4]),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_LIFE => {
            let (nx, ny, steps) = (r.usize()?, r.usize()?, r.usize()?);
            let (birth, survive) = (r.u16()?, r.u16()?);
            Problem::Life {
                nx,
                ny,
                steps,
                rule: LifeRule { birth, survive },
                boundary: Boundary::Dirichlet(r.i32()?),
            }
        }
        TAG_HEAT3D => {
            let (nx, ny, nz, steps) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
            let mut c = [0.0; 7];
            for v in &mut c {
                *v = get_f64(r)?;
            }
            Problem::Heat3d {
                nx,
                ny,
                nz,
                steps,
                coeffs: Heat3dCoeffs::new(c[0], c[1], c[2], c[3], c[4], c[5], c[6]),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_GS3D => {
            let (nx, ny, nz, steps) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
            let mut c = [0.0; 7];
            for v in &mut c {
                *v = get_f64(r)?;
            }
            Problem::Gs3d {
                nx,
                ny,
                nz,
                steps,
                coeffs: Gs3dCoeffs::new(c[0], c[1], c[2], c[3], c[4], c[5], c[6]),
                boundary: Boundary::Dirichlet(get_f64(r)?),
            }
        }
        TAG_LCS => Problem::Lcs {
            la: r.usize()?,
            lb: r.usize()?,
        },
        _ => {
            return Err(DecodeError::BadValue {
                what: "unknown problem kind tag",
            })
        }
    })
}

/// How the server should compile the problem: the [`PlanBuilder`] knobs
/// a client is allowed to choose. `count_reorg` is deliberately not on
/// the wire (instrumented runs are a bench-local concern).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveConfig {
    /// Vectorization method.
    pub method: Method,
    /// Time-space tiling.
    pub tiling: Tiling,
    /// Engine selection policy.
    pub select: Select,
    /// Worker threads for the plan's pool.
    pub threads: usize,
    /// Temporal space stride (`None` = the per-kind default, see
    /// `PlanBuilder::stride`; the built plan reports it as `Plan::stride`).
    pub stride: Option<usize>,
    /// Request per-core pinning of the plan's workers.
    pub pin: bool,
}

impl Default for SolveConfig {
    fn default() -> SolveConfig {
        SolveConfig {
            method: Method::Temporal,
            tiling: Tiling::None,
            select: Select::Auto,
            threads: 1,
            stride: None,
            pin: false,
        }
    }
}

impl SolveConfig {
    /// The [`PlanBuilder`] this configuration describes.
    #[must_use]
    pub fn plan_builder(&self) -> PlanBuilder {
        let mut b = PlanBuilder::new()
            .method(self.method)
            .tiling(self.tiling)
            .select(self.select)
            .threads(self.threads)
            .pin(self.pin);
        if let Some(s) = self.stride {
            b = b.stride(s);
        }
        b
    }
}

fn encode_config(w: &mut ByteWriter, cfg: &SolveConfig) {
    w.put_u8(match cfg.method {
        Method::Temporal => 0,
        Method::Multiload => 1,
        Method::Reorg => 2,
        Method::Dlt => 3,
        Method::Scalar => 4,
    });
    match cfg.tiling {
        Tiling::None => w.put_u8(0),
        Tiling::Ghost { block, height } => {
            w.put_u8(1);
            w.put_usize(block);
            w.put_usize(height);
        }
        Tiling::Skew { block, height } => {
            w.put_u8(2);
            w.put_usize(block);
            w.put_usize(height);
        }
        Tiling::LcsRect { xblock, yblock } => {
            w.put_u8(3);
            w.put_usize(xblock);
            w.put_usize(yblock);
        }
    }
    w.put_u8(match cfg.select {
        Select::Auto => 0,
        Select::Portable => 1,
        Select::Avx2 => 2,
    });
    w.put_usize(cfg.threads);
    match cfg.stride {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_usize(s);
        }
    }
    w.put_u8(cfg.pin as u8);
}

fn decode_config(r: &mut ByteReader<'_>) -> Result<SolveConfig, DecodeError> {
    let method = match r.u8()? {
        0 => Method::Temporal,
        1 => Method::Multiload,
        2 => Method::Reorg,
        3 => Method::Dlt,
        4 => Method::Scalar,
        _ => return Err(DecodeError::BadValue { what: "method tag" }),
    };
    let tiling = match r.u8()? {
        0 => Tiling::None,
        1 => Tiling::Ghost {
            block: r.usize()?,
            height: r.usize()?,
        },
        2 => Tiling::Skew {
            block: r.usize()?,
            height: r.usize()?,
        },
        3 => Tiling::LcsRect {
            xblock: r.usize()?,
            yblock: r.usize()?,
        },
        _ => return Err(DecodeError::BadValue { what: "tiling tag" }),
    };
    let select = match r.u8()? {
        0 => Select::Auto,
        1 => Select::Portable,
        2 => Select::Avx2,
        _ => return Err(DecodeError::BadValue { what: "select tag" }),
    };
    let threads = r.usize()?;
    let stride = match r.u8()? {
        0 => None,
        1 => Some(r.usize()?),
        _ => {
            return Err(DecodeError::BadValue {
                what: "stride option tag",
            })
        }
    };
    let pin = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::BadValue { what: "pin flag" }),
    };
    Ok(SolveConfig {
        method,
        tiling,
        select,
        threads,
        stride,
        pin,
    })
}

/// A complete unit of server work: the problem plus how to compile it.
/// This is what `SubmitProblem` / `RunSteps` carry and what the plan
/// cache interns ([`SpecKey`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// The stencil problem.
    pub problem: Problem,
    /// The solver configuration.
    pub config: SolveConfig,
}

impl JobSpec {
    /// A spec with the default solver configuration.
    #[must_use]
    pub fn new(problem: Problem) -> JobSpec {
        JobSpec {
            problem,
            config: SolveConfig::default(),
        }
    }

    /// Append the canonical encoding to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        encode_problem(w, &self.problem);
        encode_config(w, &self.config);
    }

    /// Decode one canonical spec.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<JobSpec, DecodeError> {
        Ok(JobSpec {
            problem: decode_problem(r)?,
            config: decode_config(r)?,
        })
    }

    /// This spec's cache key.
    #[must_use]
    pub fn key(&self) -> SpecKey {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        SpecKey(CanonKey::of_bytes(w.into_bytes()))
    }
}

/// Canonical-bytes key: hashes by a precomputed [`bytes_hash`] of the
/// bytes (stable across platforms and releases, unlike `DefaultHasher`),
/// compares by the bytes themselves (hash collisions cannot alias).
#[derive(Clone, Debug, Eq)]
struct CanonKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl CanonKey {
    fn of_bytes(bytes: Vec<u8>) -> CanonKey {
        CanonKey {
            hash: bytes_hash(&bytes),
            bytes,
        }
    }
}

impl PartialEq for CanonKey {
    fn eq(&self, other: &CanonKey) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl std::hash::Hash for CanonKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The canonicalized identity of a [`Problem`]: hashes and compares the
/// canonical byte encoding (see the module docs for the `f64` policy).
/// Two differently-constructed but equal problems produce equal keys.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProblemKey(CanonKey);

impl ProblemKey {
    /// The key of `problem`.
    #[must_use]
    pub fn of(problem: &Problem) -> ProblemKey {
        let mut w = ByteWriter::new();
        encode_problem(&mut w, problem);
        ProblemKey(CanonKey::of_bytes(w.into_bytes()))
    }

    /// The precomputed hash of the canonical bytes (used for shard selection).
    #[must_use]
    pub fn hash64(&self) -> u64 {
        self.0.hash
    }
}

/// The canonicalized identity of a [`JobSpec`] — the plan-cache key:
/// problem *and* solver configuration, since different configurations
/// compile different plans.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpecKey(CanonKey);

impl SpecKey {
    /// The precomputed hash of the canonical bytes (used for shard selection).
    #[must_use]
    pub fn hash64(&self) -> u64 {
        self.0.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_problems_built_differently_share_a_key() {
        // `classic(0.25)` is exactly `new(0.25, 0.5, 0.25)`.
        let a = Problem::heat1d(1024, 32, Heat1dCoeffs::classic(0.25));
        let b = Problem::heat1d(1024, 32, Heat1dCoeffs::new(0.25, 1.0 - 2.0 * 0.25, 0.25));
        assert_eq!(ProblemKey::of(&a), ProblemKey::of(&b));
        assert_eq!(ProblemKey::of(&a).hash64(), ProblemKey::of(&b).hash64());
        assert_eq!(JobSpec::new(a).key(), JobSpec::new(b).key());
    }

    #[test]
    fn perturbed_problems_do_not_collide() {
        let a = Problem::heat1d(1024, 32, Heat1dCoeffs::classic(0.25));
        // One-ULP coefficient perturbation, a different extent, a
        // different step count: all distinct keys.
        let c = Heat1dCoeffs::new(f64::from_bits(0.25f64.to_bits() + 1), 0.5, 0.25);
        assert_ne!(
            ProblemKey::of(&a),
            ProblemKey::of(&Problem::heat1d(1024, 32, c))
        );
        assert_ne!(
            ProblemKey::of(&a),
            ProblemKey::of(&Problem::heat1d(1025, 32, Heat1dCoeffs::classic(0.25)))
        );
        assert_ne!(
            ProblemKey::of(&a),
            ProblemKey::of(&Problem::heat1d(1024, 33, Heat1dCoeffs::classic(0.25)))
        );
    }

    #[test]
    fn nan_payloads_collide_but_signed_zeros_do_not() {
        let nan1 = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan2 = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(canon_f64(nan1), canon_f64(nan2));
        let a = Problem::heat1d(64, 4, Heat1dCoeffs::new(nan1, 0.5, 0.25));
        let b = Problem::heat1d(64, 4, Heat1dCoeffs::new(nan2, 0.5, 0.25));
        assert_eq!(ProblemKey::of(&a), ProblemKey::of(&b));
        // Signed zeros are distinct stencils and distinct keys.
        let z = Problem::heat1d(64, 4, Heat1dCoeffs::new(0.0, 0.5, 0.25));
        let nz = Problem::heat1d(64, 4, Heat1dCoeffs::new(-0.0, 0.5, 0.25));
        assert_ne!(ProblemKey::of(&z), ProblemKey::of(&nz));
    }

    #[test]
    fn config_is_part_of_the_spec_key() {
        let p = Problem::heat1d(1024, 32, Heat1dCoeffs::classic(0.25));
        let base = JobSpec::new(p);
        let mut threaded = base;
        threaded.config.tiling = Tiling::Ghost {
            block: 128,
            height: 4,
        };
        threaded.config.threads = 2;
        assert_ne!(base.key(), threaded.key());
    }
}
