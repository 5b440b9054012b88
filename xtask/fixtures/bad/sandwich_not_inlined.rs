//! Fixture: closures handed to a codegen sandwich (`Ymm::run`,
//! `Zmm::run`) without `#[inline(always)]`.

/// Attributed, in rustfmt's layout: clean.
pub fn kept(isa: Ymm, a: &mut [f64]) {
    isa.run(
        #[inline(always)]
        || body(a),
    )
}

/// The attribute dropped from the same call: flagged at the call.
pub fn dropped(isa: Ymm, a: &mut [f64]) {
    isa.run(
        || body(a),
    )
}

/// A hint is not a guarantee: flagged.
pub fn hinted(isa: Zmm, a: &mut [f64]) {
    let _ = 0;
    isa.run(#[inline] move || body(a))
}

/// A bare `move` closure on the call's line: flagged.
pub fn moved(isa: Zmm, a: &mut [f64]) {
    isa.run(move || body(a))
}

/// Not a closure: another type's `run`, left alone.
pub fn plan(p: &mut Plan, s: &mut State) {
    let _ = p.run(s);
}
