//! Property-based cross-crate tests: for drawn shapes, strides, seeds,
//! step counts, coefficients and rules, the temporal engines and tiled
//! parallel schedules reproduce the scalar references exactly. Each
//! property is a slice of the generated oracle of `common`.

mod common;

use common::check_slice;

/// Heat-1D's temporal engines at every selection, untiled and ghost-tiled.
#[test]
fn temporal_1d_jacobi_equals_reference() {
    check_slice("temporal_1d_jacobi_equals_reference");
}

/// GS-1D's temporal engines at every selection, untiled and skew-tiled.
#[test]
fn temporal_1d_gs_equals_reference() {
    check_slice("temporal_1d_gs_equals_reference");
}

/// The `f64` 2-D kinds' temporal engines at every selection and tiling.
#[test]
fn temporal_2d_equals_reference() {
    check_slice("temporal_2d_equals_reference");
}

/// Life (eight `i32` lanes in every engine), temporal and scalar.
#[test]
fn life_vl8_equals_reference() {
    check_slice("life_vl8_equals_reference");
}

/// The ghost tiling of every Jacobi kind, temporal and scalar.
#[test]
fn ghost_tiling_equals_reference() {
    check_slice("ghost_tiling_equals_reference");
}

/// The skewed tiling of every Gauss-Seidel kind, temporal and scalar.
#[test]
fn skewed_gs_tiling_equals_reference() {
    check_slice("skewed_gs_tiling_equals_reference");
}

/// The rectangle tiling of LCS, temporal and scalar.
#[test]
fn tiled_lcs_equals_reference() {
    check_slice("tiled_lcs_equals_reference");
}

/// Accepted and rejected strides of every grid kind: the plan accepts
/// exactly the strides the dependence analysis allows, and those are the
/// ones the schedule interpreter (`validate_schedule`) proves safe.
#[test]
fn stride_legality_is_enforced_and_sufficient() {
    check_slice("stride_legality_is_enforced_and_sufficient");
}
