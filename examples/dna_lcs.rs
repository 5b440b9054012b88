//! Longest common subsequence of two DNA-like sequences, computed with
//! the temporal DP engine (§3.4) and the parallel rectangle tiling —
//! all through the solver API.
//!
//! Run with: `cargo run --release --example dna_lcs`

use std::time::Instant;

use tempora::grid::random_sequence;
use tempora::prelude::*;

fn to_dna(seq: &[u8]) -> String {
    seq.iter()
        .map(|&c| b"ACGT"[c as usize % 4] as char)
        .collect()
}

/// Compile a plan for `(a, b)` with the given builder and run it once,
/// returning the LCS length and the wall time.
fn run_lcs(a: &[u8], b: &[u8], builder: PlanBuilder) -> (i32, f64) {
    let problem = Problem::lcs(a.len(), b.len());
    let mut plan = builder.build(&problem).expect("valid configuration");
    let mut state = problem.state();
    {
        let l = state.lcs_mut().unwrap();
        l.a = a.to_vec();
        l.b = b.to_vec();
    }
    let t0 = Instant::now();
    let report = plan.run(&mut state).expect("state matches plan");
    (report.lcs_length.unwrap(), t0.elapsed().as_secs_f64())
}

fn main() {
    // Small demo pair first: show the actual subsequence length.
    let a = b"GATTACAAGGTACCATGCA";
    let b = b"GTTAACAGGGTCCATGA";
    let (len, _) = run_lcs(a, b, PlanBuilder::new());
    println!(
        "LCS({}, {}) = {}",
        String::from_utf8_lossy(a),
        String::from_utf8_lossy(b),
        len
    );
    assert_eq!(len, reference::lcs_len(a, b));

    // Now a serious workload: two random 32k-base sequences.
    let n = 32_768;
    let sa = random_sequence(n, 4, 1);
    let sb = random_sequence(n, 4, 2);
    println!(
        "\nsequences: {}… vs {}…",
        &to_dna(&sa)[..48],
        &to_dna(&sb)[..48]
    );

    let t0 = Instant::now();
    let gold = reference::lcs_len(&sa, &sb);
    let t_scalar = t0.elapsed().as_secs_f64();

    // Sequential temporal DP: i32 × 8 lanes, or × 16 where the CPU has
    // AVX-512F.
    let problem = Problem::lcs(n, n);
    let lanes = match PlanBuilder::new().build(&problem).unwrap().engine() {
        Some(Engine::Avx512) => 16,
        _ => 8,
    };
    let (fast, t_temporal) = run_lcs(&sa, &sb, PlanBuilder::new());
    assert_eq!(fast, gold);

    // Parallel rectangle tiling on all cores.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (par, t_par) = run_lcs(
        &sa,
        &sb,
        PlanBuilder::new()
            .tiling(Tiling::LcsRect {
                xblock: 2048,
                yblock: 2048,
            })
            .threads(threads),
    );
    assert_eq!(par, gold);

    let gcells = |t: f64| (n as f64) * (n as f64) / t / 1e9;
    println!(
        "LCS length = {gold} ({:.1}% of n)",
        100.0 * gold as f64 / n as f64
    );
    println!(
        "scalar DP:             {:.3}s = {:.2} Gcells/s",
        t_scalar,
        gcells(t_scalar)
    );
    println!(
        "temporal (i32 x {lanes:<2}):   {:.3}s = {:.2} Gcells/s",
        t_temporal,
        gcells(t_temporal)
    );
    println!(
        "temporal + tiles ({threads}T): {:.3}s = {:.2} Gcells/s",
        t_par,
        gcells(t_par)
    );
    println!(
        "speedup over scalar:   {:.2}x (sequential), {:.2}x (parallel)",
        t_scalar / t_temporal,
        t_scalar / t_par
    );
}
