//! Cross-crate equivalence: every execution path — spatial baselines,
//! temporal engines at every width, tiled and parallel schedules, the
//! service — reproduces the scalar references exactly (bit-for-bit for
//! floats, since all kernels share the same fused operation trees; exact
//! for integers).
//!
//! Each test is a slice of the one generated oracle of `common`: cases of
//! `Problem × SolveConfig` drawn on the edges of the temporal sweep's
//! boundary phases, built and run through the plan API, and checked
//! against the scalar reference, the engine model and the validation
//! model (see `common::check`).

mod common;

use std::collections::HashSet;
use std::mem::discriminant;

use common::{check_slice, Kind, Space, Tile, KINDS};
use tempora::client::Client;
use tempora::engine;
use tempora::prelude::{Engine, PlanBuilder, Problem, Select};
use tempora::proto::{state_digest, JobSpec};
use tempora::server::{fresh_state, Server, ServerConfig};
use tempora::stencil::Heat1dCoeffs;

/// Heat-1D: all five methods (the reorg and DLT baselines included) at
/// every tiling, selection and stride class.
#[test]
fn heat1d_all_schemes_agree() {
    check_slice("heat1d_all_schemes_agree");
}

/// Heat-2D and 2D9P: every method, tiling and selection.
#[test]
fn heat2d_and_box2d_all_schemes_agree() {
    check_slice("heat2d_and_box2d_all_schemes_agree");
}

/// Life: every method, tiling and selection, random B/S rules.
#[test]
fn life_all_schemes_agree() {
    check_slice("life_all_schemes_agree");
}

/// Heat-3D: every method, tiling and selection.
#[test]
fn heat3d_all_schemes_agree() {
    check_slice("heat3d_all_schemes_agree");
}

/// GS-1D, GS-2D and GS-3D: every method (multi-load rejected), tiling and
/// selection.
#[test]
fn gauss_seidel_all_schemes_agree() {
    check_slice("gauss_seidel_all_schemes_agree");
}

/// LCS: every method, tiling and selection.
#[test]
fn lcs_all_schemes_agree() {
    check_slice("lcs_all_schemes_agree");
}

/// Every kind's own tiling on 2 to 8 threads equals the reference, hence
/// every thread count equals every other.
#[test]
fn parallel_results_are_deterministic_across_thread_counts() {
    check_slice("parallel_results_are_deterministic_across_thread_counts");
}

/// Shapes where the boundary phases (the slab prologue and epilogue, the
/// 1-D ring fill and masked ends) and remainder steps are most of the run: outer extents of a few slabs or around
/// `VL·s`, no steps, fewer steps than lanes, steps around multiples of the
/// lane counts, blocks around `VL·s`; both forced engines.
#[test]
fn boundary_dominated_shapes_match_reference_bitwise() {
    check_slice("boundary_dominated_shapes_match_reference_bitwise");
}

/// The forced AVX2 engine, every kind, untiled and tiled.
#[test]
fn avx2_engines_match_scalar_oracles_bitwise() {
    check_slice("avx2_engines_match_scalar_oracles_bitwise");
}

/// Every selection, untiled: each equals the reference (so each other)
/// and reports the engine the model resolves.
#[test]
fn forced_portable_and_avx2_selections_agree_bitwise() {
    check_slice("forced_portable_and_avx2_selections_agree_bitwise");
}

/// Every kind's own tiling at every selection and 1 to 8 threads, blocks
/// around `VL·s` and the whole or a part of the outer extent.
#[test]
fn tiled_forced_engines_agree_bitwise() {
    check_slice("tiled_forced_engines_agree_bitwise");
}

/// Life's temporal engines, untiled and ghost-tiled, random rules.
#[test]
fn life_forced_engines_agree_bitwise() {
    check_slice("life_forced_engines_agree_bitwise");
}

/// LCS's band sweeps at both widths, untiled and rectangle-tiled.
#[test]
fn lcs_forced_engines_agree() {
    check_slice("lcs_forced_engines_agree");
}

/// No engine writes into the alignment padding of a 2-D grid.
#[test]
fn canaries_survive_every_engine() {
    check_slice("canaries_survive_every_engine");
}

/// The `TEMPORA_ENGINE` environment variable drives `Select::from_env`,
/// and a plan built with that selection reports the forced engine.
#[test]
fn tempora_engine_env_is_honoured() {
    // Parsing (pure).
    assert_eq!(Select::parse("auto"), Some(Select::Auto));
    assert_eq!(Select::parse("PORTABLE"), Some(Select::Portable));
    assert_eq!(Select::parse(" avx2 "), Some(Select::Avx2));
    assert_eq!(Select::parse("neon"), None);
    // End-to-end through the process environment. Nothing else in this
    // binary reads TEMPORA_ENGINE (the oracle forces every selection), so
    // the temporary mutation is safe.
    std::env::set_var(engine::ENV_VAR, "portable");
    assert_eq!(Select::from_env(), Select::Portable);
    let problem = Problem::heat1d(300, 8, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new()
        .stride(7)
        .select(Select::from_env())
        .build(&problem)
        .unwrap();
    let report = plan.run(&mut fresh_state(&problem, 1)).unwrap();
    assert_eq!(report.engine, Some(Engine::Portable));
    std::env::remove_var(engine::ENV_VAR);
    assert_eq!(Select::from_env(), Select::Auto);
}

/// Heat-1D, GS-1D and LCS on lines of `VL·s + 1 ..= 2·VL·s + 1`, where a
/// sweep's masked front and back meet inside one part: untiled, and tiled
/// on two to four threads with block cuts around `VL·s` — LCS at the
/// strides whose `B` comes from the lane layout (1, 2) and strided (3, 4,
/// 17, 33), its masked ends reading `B`'s padding past both ends.
#[test]
fn masked_ends_meet_inside_one_part() {
    check_slice("masked_ends_meet_inside_one_part");
}

/// The six slab kinds on `VL·s + 1 ..= 2·VL·s + 1` slabs, where a sweep's
/// masked front and back meet inside one part, with inner extents around
/// the segment width, so that masked anchors cross segment edges — the
/// `f64` 2-D kinds at both widths, strides 2 to 5: untiled, and ghost /
/// skew tiles on two to four threads with blocks around `VL·s` or cutting
/// the grid in two to four, whose part edges fall next to the masked ends.
#[test]
fn slab_masked_ends_cross_segments_and_parts() {
    check_slice("slab_masked_ends_cross_segments_and_parts");
}

/// Every edge class of the case space has, for every kind, a checked draw
/// the plan accepts and one it rejects — wherever the kind admits one —
/// over the categorical stratum and the draws of every slice.
#[test]
fn oracle_covers_every_edge_class() {
    check_slice("oracle_covers_every_edge_class");
    let mut cases = common::categorical();
    for slice in common::SLICES {
        cases.extend(common::cases_of(slice.name));
    }
    let tally = common::tally(&cases);
    let mut missing = vec![];
    for kind in KINDS {
        for class in common::edge_classes(kind) {
            let (accepted, rejected) = tally
                .get(&(kind, class.clone()))
                .copied()
                .unwrap_or_default();
            println!("{kind:?} {class}: {accepted} accepted, {rejected} rejected");
            let want_accepted = common::admits_acceptance(kind, &class);
            let want_rejected = !class.starts_with("s=");
            if (want_accepted && accepted == 0) || (want_rejected && rejected == 0) {
                missing.push(format!("{kind:?} {class}: {accepted} / {rejected}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "classes without an accepted or a rejected draw: {missing:#?}"
    );
}

/// Served ≡ in-process: a fixed draw of accepted cases of every kind,
/// untiled and on the kind's own tiling at one or two threads, through
/// one loopback server; each reply's digest, engine, steps and threads
/// equal those of the same plan run in this process on the same state.
#[test]
fn served_runs_match_in_process_runs() {
    let server = Server::start(ServerConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp configured").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let space = Space {
        tiles: &[Tile::None, Tile::Native],
        threads: (1, 2),
        ..Space::LEGAL
    };
    let draws = common::accepted_draws("served_runs_match_in_process_runs", 300, &space);
    let of_kind = |k| {
        draws
            .iter()
            .filter(move |c| Kind::of(&c.problem) == k)
            .take(3)
    };
    let cases: Vec<_> = KINDS.into_iter().flat_map(of_kind).collect();
    assert_eq!(cases.len(), 27, "the draw covers every kind");
    let tilings: HashSet<_> = cases
        .iter()
        .map(|c| discriminant(&c.config.tiling))
        .collect();
    assert_eq!(tilings.len(), 4, "the draw covers every tiling");
    for case in &cases {
        let spec = JobSpec {
            problem: case.problem,
            config: case.config,
        };
        let mut state = fresh_state(&case.problem, case.seed);
        let report = case
            .config
            .plan_builder()
            .build(&case.problem)
            .unwrap()
            .run(&mut state)
            .unwrap();
        let reply = client.run_steps(&spec, case.seed).expect("served run");
        assert_eq!(reply.digest, state_digest(&state), "{case:?}");
        assert_eq!(reply.engine, report.engine, "{case:?}");
        assert_eq!(reply.steps, report.steps as u64, "{case:?}");
        assert_eq!(reply.threads, report.threads as u32, "{case:?}");
    }
    server.shutdown(std::time::Duration::from_secs(5));
}
