//! The safety audit wall: repo-specific lints over workspace sources.
//!
//! Seven rules, each scoped to where it is meaningful (unit-test regions
//! are recognized by `#[cfg(test)]` / `#[test]` tracking, and files
//! under `tests/`, `benches/` or `examples/` count as test code):
//!
//! | rule | requirement | scope |
//! |---|---|---|
//! | `safety-comment` | every `unsafe` block/fn/impl carries a `// SAFETY:` contract (or `# Safety` doc section for `unsafe fn`) | non-test code |
//! | `allow-justification` | every `#[allow(...)]` carries a justification comment, same line or directly above | everywhere |
//! | `ordering-rationale` | every atomic `Ordering::` use carries an ordering-rationale comment, same line or directly above | non-test code |
//! | `panic-justification` | every `.unwrap()` / `.expect(` call carries a justification comment, same line or directly above | non-test code |
//! | `forbidden-construct` | `transmute`, raw `core::arch`/`std::arch` intrinsics and inline `asm!` only in `tempora_simd::arch` and the pinning module; the raw `tempora_simd::arch::avx2` calls only under `crates/simd/` (everything above computes through the `Lanes` vocabulary) | everywhere |
//! | `target-feature` | every `#[target_feature]` fn is `unsafe` and documents the `avx2_available()` capability probe it is dispatched behind | everywhere |
//! | `phase-inline` | every definition of a phase function (one source, instantiated per codegen context) carries `#[inline(always)]` | `crates/core/src`, the lane vocabulary in `crates/simd/src`, the vector formulas in `crates/stencil/src` |
//!
//! The engine is deliberately line-based and dependency-free: it
//! complements (never replaces) the denied rustc/clippy lints in
//! `[workspace.lints]`, and its exact accept/reject behavior is pinned
//! by the fixture tests at the bottom of this file.

use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Needles. Built with `concat!` so this file does not trip its own
// lints when the audit walks `xtask/src` itself.
// ---------------------------------------------------------------------

const UNSAFE: &str = concat!("un", "safe");
const SAFETY_MARK: &str = concat!("SAF", "ETY");
const SAFETY_DOC: &str = concat!("# Saf", "ety");
const ALLOW_ATTR: &str = concat!("#[al", "low(");
const ALLOW_INNER_ATTR: &str = concat!("#![al", "low(");
const ORDERING: &str = concat!("Order", "ing::");
const UNWRAP_CALL: &str = concat!(".unw", "rap()");
const EXPECT_CALL: &str = concat!(".exp", "ect(");
const TRANSMUTE: &str = concat!("trans", "mute");
const ASM_BANG: &str = concat!("asm", "!");
const CORE_ARCH: &str = concat!("core::", "arch");
const STD_ARCH: &str = concat!("std::", "arch");
const MM_INTRINSIC: &str = concat!("_m", "m");
const TARGET_FEATURE: &str = concat!("#[tar", "get_feature");
const AVAILABLE_PROBE: &str = concat!("avx2_av", "ailable");
const ARCH_AVX2: &str = concat!("arch::", "avx2");
const ARCH_BRACE: &str = concat!("arch::", "{");
const AVX2_MODULE: &str = concat!("av", "x2");

/// Directory allowed to name the raw AVX2 vocabulary module.
const AVX2_SCOPE: &str = "crates/simd/";

const INLINE_ALWAYS: &str = "#[inline(always)]";

/// The phase functions, by the directory or file that defines them: code
/// written once and instantiated twice — for baseline x86-64 by the
/// portable engine, and inside the `#[target_feature(enable = "avx2,fma")]`
/// sandwiches of the AVX2 engine. That second instantiation exists only
/// because these functions are `#[inline(always)]`; drop the attribute
/// from one and it compiles once, for baseline x86-64, where every
/// `f64::mul_add` is a call into libm's `fma` and every `Ymm` method a
/// call instead of an instruction — same results, ≈ 20× slower, and no
/// test notices.
///
/// * `tempora_core`: the boundary phases and scalar steps, the steady
///   states (`steady_ring`, `ring_sweep`; `steady`, `ring_regs`,
///   `tile_seg_in`; `steady_row`), which carry no `#[target_feature]` of
///   their own and reach their instructions only by being inlined into a
///   sandwich, everything on the slab row path (`cursor` … `finish`), the
///   kernel adapters (`scalar`, `pack`) and the multi-load step bodies;
/// * `tempora_simd`: the lane vocabulary — every method of `Packs`, and of
///   `Ymm` (`$name`: the macro-generated safe forms of the AVX2 calls);
/// * `tempora_stencil`: the kernels' vector formulas.
const PHASE_FNS: [(&str, &[&str]); 4] = [
    (
        "crates/core/src/",
        &[
            "sweep_body",
            "tile_prologue",
            "tile_epilogue",
            "steady_slabs",
            "scalar_sweep_body",
            "scalar_step_inplace",
            "scalar_cells",
            "sweep_row",
            "steady_row",
            "sweep_level",
            "pack_rows",
            "unpack_lane",
            "fill_shell",
            "copy_slab",
            "reset_shells",
            "gs_initial_output",
            "steady_ring",
            "ring_sweep",
            "tile_seg_in",
            "steady",
            "ring_regs",
            "cursor",
            "views",
            "len",
            "read",
            "centre",
            "nbhd",
            "nbhd3",
            "finish",
            "scalar",
            "pack",
            "step_1d_body",
            "step_2d_body",
            "step_3d_body",
        ],
    ),
    (
        "crates/simd/src/lanes.rs",
        &[
            "load",
            "store",
            "splat",
            "top",
            "shift_up_insert",
            "mul",
            "fmadd",
            "add",
            "mullo",
            "max",
            "cmpeq",
            "blendv",
            "srav",
            "and",
            "load_u8",
        ],
    ),
    (
        "crates/simd/src/arch.rs",
        &["$name", "load", "store", "splat", "srav", "load_u8"],
    ),
    (
        "crates/stencil/src/",
        &["apply_pack", "apply_neighborhood_pack", "lcs_update_pack"],
    ),
];

/// The phase function of `path` defined on code line `i`, if any. A
/// bodiless trait-method prototype (its signature ends in `;` before any
/// `{`) is a declaration, not a definition: the attribute belongs on each
/// impl.
fn defined_phase_fn(path: &str, code: &[String], i: usize) -> Option<&'static str> {
    let rest = &code[i][code[i].find("fn ")? + 3..];
    // `$name`: a function generated by a macro of the scope.
    let name_len = rest
        .bytes()
        .take_while(|&b| is_ident(b) || b == b'$')
        .count();
    let name = PHASE_FNS
        .iter()
        .filter(|(scope, _)| path.starts_with(scope))
        .flat_map(|(_, fns)| fns.iter().copied())
        .find(|&f| f == &rest[..name_len])?;
    let end = code[i..]
        .iter()
        .find_map(|l| l.find(['{', ';']).map(|at| &l[at..=at]));
    (end != Some(";")).then_some(name)
}

/// Files allowed to use `transmute` / raw intrinsics / inline `asm!`:
/// the SIMD vocabulary and the affinity (pinning) syscall leaf.
const CONSTRUCT_SANCTUARIES: [&str; 2] =
    ["crates/simd/src/arch.rs", "crates/parallel/src/affinity.rs"];

/// One audit violation, rendered as `file:line: [rule] message`.
pub(crate) struct Diagnostic {
    pub(crate) file: String,
    pub(crate) line: usize,
    pub(crate) rule: &'static str,
    pub(crate) msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

// ---------------------------------------------------------------------
// File walking
// ---------------------------------------------------------------------

/// Collect every workspace `.rs` file under `root`, as sorted
/// `/`-separated paths relative to `root`. Skips `target/`, `.git/` and
/// the deliberately-violating lint fixtures under `xtask/fixtures/`.
pub(crate) fn collect_rs_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let sub = if rel.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel.join(&name)
            };
            let ty = entry.file_type();
            if ty.as_ref().map(|t| t.is_dir()).unwrap_or(false) {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(sub);
            } else if name.ends_with(".rs") {
                out.push(sub.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Line model
// ---------------------------------------------------------------------

/// Comment-stripped view of one line: the code part (line comments and
/// block-comment spans removed, string literal contents kept) plus
/// whether the raw line carried a `//` line comment.
fn strip_comments(line: &str, in_block: &mut bool) -> (String, bool) {
    let b = line.as_bytes();
    let mut out = String::new();
    let mut has_line_comment = false;
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        if *in_block {
            if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_str {
            if b[i] == b'\\' {
                i += 2;
                continue;
            }
            if b[i] == b'"' {
                in_str = false;
            }
            out.push(b[i] as char);
            i += 1;
            continue;
        }
        match b[i] {
            b'"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                has_line_comment = true;
                break;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                *in_block = true;
                i += 2;
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    (out, has_line_comment)
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `tok` occurs in `code` with a non-identifier character (or the line
/// boundary) on each side.
fn contains_token(code: &str, tok: &str) -> bool {
    let b = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(tok) {
        let p = start + pos;
        let end = p + tok.len();
        let before_ok = p == 0 || !is_ident(b[p - 1]);
        let after_ok = end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            return true;
        }
        start = p + 1;
    }
    false
}

/// `tok` occurs with a non-identifier character before it (suffix may
/// continue as an identifier — used for the `_mm…` intrinsic family).
fn contains_prefix_token(code: &str, tok: &str) -> bool {
    let b = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(tok) {
        let p = start + pos;
        if p == 0 || !is_ident(b[p - 1]) {
            return true;
        }
        start = p + 1;
    }
    false
}

struct FileView {
    /// Raw source lines.
    raw: Vec<String>,
    /// Comment-stripped code parts, index-aligned with `raw`.
    code: Vec<String>,
    /// Raw line carries a `//` line comment (trailing or whole-line).
    commented: Vec<bool>,
    /// Line sits inside a `#[cfg(test)]` / `#[test]` region.
    in_test: Vec<bool>,
}

fn build_view(src: &str) -> FileView {
    let raw: Vec<String> = src.lines().map(str::to_owned).collect();
    let mut code = Vec::with_capacity(raw.len());
    let mut commented = Vec::with_capacity(raw.len());
    let mut in_block = false;
    for line in &raw {
        let (c, lc) = strip_comments(line, &mut in_block);
        code.push(c);
        commented.push(lc);
    }

    // Brace-depth tracking for test regions: a `#[cfg(… test …)]` or
    // `#[test]` attribute arms the tracker; the next `{` opens a region
    // that closes when depth returns to its entry value. A `;` before
    // any `{` (attribute on a use/statement) disarms it.
    let mut in_test = vec![false; raw.len()];
    let mut depth: i64 = 0;
    let mut region_depth: Option<i64> = None;
    let mut armed = false;
    for (i, c) in code.iter().enumerate() {
        let t = c.trim();
        if region_depth.is_none()
            && t.starts_with("#[")
            && (t.contains("test") && !t.contains("not("))
        {
            armed = true;
        }
        if region_depth.is_none() && armed && c.contains('{') {
            region_depth = Some(depth);
            armed = false;
        } else if armed && c.contains(';') && !c.contains('{') {
            armed = false;
        }
        if region_depth.is_some() {
            in_test[i] = true;
        }
        for ch in c.bytes() {
            match ch {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(d) = region_depth {
            if depth <= d {
                region_depth = None;
            }
        }
    }
    FileView {
        raw,
        code,
        commented,
        in_test,
    }
}

/// Any raw line in `lines[lo..=hi]` mentions the SAFETY marker.
fn safety_nearby(v: &FileView, lo: usize, hi: usize) -> bool {
    v.raw[lo..=hi].iter().any(|l| l.contains(SAFETY_MARK))
}

/// An `unsafe` block/impl at line `i` has a SAFETY contract: on the line
/// itself, anywhere in the contiguous comment block directly above it
/// (contracts often run long), or — grace window — within the six
/// preceding lines, so a short binding between the contract and the
/// block it governs does not break the association.
fn block_has_safety(v: &FileView, i: usize) -> bool {
    if v.raw[i].contains(SAFETY_MARK) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = v.raw[j].trim_start();
        if !t.starts_with("//") {
            break;
        }
        if v.raw[j].contains(SAFETY_MARK) {
            return true;
        }
    }
    safety_nearby(v, i.saturating_sub(6), i)
}

/// Scan the contiguous doc/attribute/comment block directly above line
/// `i`; true if any of it contains `needle`.
fn header_block_contains(v: &FileView, i: usize, needle: &str) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = v.raw[j].trim_start();
        if t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("//")
            || t.starts_with("#[")
        {
            if v.raw[j].contains(needle) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// The line directly above `i` is a plain `//` comment (not a doc
/// comment), or line `i` itself carries a trailing comment.
fn has_adjacent_comment(v: &FileView, i: usize) -> bool {
    if v.commented[i] {
        return true;
    }
    if i == 0 {
        return false;
    }
    let t = v.raw[i - 1].trim_start();
    t.starts_with("//") && !t.starts_with("///")
}

fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

// ---------------------------------------------------------------------
// The audit proper
// ---------------------------------------------------------------------

/// Run every audit rule over one file; `path` must be `/`-separated and
/// relative to the workspace root (it scopes the path-based rules).
pub(crate) fn audit_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let v = build_view(src);
    let test_path = is_test_path(path);
    let sanctuary = CONSTRUCT_SANCTUARIES.contains(&path);
    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, msg: String| {
        out.push(Diagnostic {
            file: path.to_owned(),
            line: line + 1,
            rule,
            msg,
        });
    };

    for i in 0..v.raw.len() {
        let code = &v.code[i];
        let in_test = test_path || v.in_test[i];

        // --- safety-comment -------------------------------------------
        if !in_test && contains_token(code, UNSAFE) {
            let is_fn = code.contains(&format!("{UNSAFE} fn"));
            let is_impl = code.contains(&format!("{UNSAFE} impl"));
            if is_fn {
                if !header_block_contains(&v, i, SAFETY_DOC)
                    && !header_block_contains(&v, i, SAFETY_MARK)
                {
                    push(
                        i,
                        "safety-comment",
                        format!(
                            "`{UNSAFE} fn` without a `{SAFETY_DOC}` doc section \
                             (or `// {SAFETY_MARK}:` contract) above"
                        ),
                    );
                }
            } else if is_impl {
                if !block_has_safety(&v, i) {
                    push(
                        i,
                        "safety-comment",
                        format!(
                            "`{UNSAFE} impl` without a `// {SAFETY_MARK}:` justification above"
                        ),
                    );
                }
            } else if !block_has_safety(&v, i) {
                push(
                    i,
                    "safety-comment",
                    format!(
                        "`{UNSAFE}` block without a `// {SAFETY_MARK}:` contract \
                         in the preceding lines"
                    ),
                );
            }
        }

        // --- allow-justification --------------------------------------
        if (code.contains(ALLOW_ATTR) || code.contains(ALLOW_INNER_ATTR))
            && !has_adjacent_comment(&v, i)
            && !header_block_contains(&v, i, "Justification")
        {
            push(
                i,
                "allow-justification",
                format!("`{ALLOW_ATTR}...)]` without a justification comment (same line or above)"),
            );
        }

        // --- ordering-rationale ---------------------------------------
        if !in_test && code.contains(ORDERING) && !has_adjacent_comment(&v, i) {
            push(
                i,
                "ordering-rationale",
                format!(
                    "atomic `{ORDERING}` use without an ordering-rationale comment \
                     (same line or directly above)"
                ),
            );
        }

        // --- panic-justification --------------------------------------
        if !in_test && !has_adjacent_comment(&v, i) {
            for tok in [UNWRAP_CALL, EXPECT_CALL] {
                if code.contains(tok) {
                    push(
                        i,
                        "panic-justification",
                        format!(
                            "`{tok}…` without a panic-justification comment \
                             (same line or directly above)"
                        ),
                    );
                    break;
                }
            }
        }

        // --- forbidden-construct --------------------------------------
        if !sanctuary {
            let mut banned: Option<&str> = None;
            if contains_token(code, TRANSMUTE) {
                banned = Some(TRANSMUTE);
            } else if contains_token(code, ASM_BANG) {
                banned = Some(ASM_BANG);
            } else if code.contains(CORE_ARCH) {
                banned = Some(CORE_ARCH);
            } else if code.contains(STD_ARCH) {
                banned = Some(STD_ARCH);
            } else if contains_prefix_token(code, MM_INTRINSIC) {
                banned = Some(MM_INTRINSIC);
            }
            if let Some(tok) = banned {
                push(
                    i,
                    "forbidden-construct",
                    format!(
                        "`{tok}` is banned outside tempora_simd::arch and the pinning module \
                         (crates/parallel/src/affinity.rs)"
                    ),
                );
            }
        }
        let names_avx2 = contains_token(code, ARCH_AVX2)
            || (code.contains(ARCH_BRACE) && contains_token(code, AVX2_MODULE));
        if names_avx2 && !path.starts_with(AVX2_SCOPE) {
            push(
                i,
                "forbidden-construct",
                format!(
                    "`{ARCH_AVX2}` may be named only under {AVX2_SCOPE}: compute through the \
                     `Lanes` vocabulary (`Ymm`), so that a steady state stays one body for \
                     every engine"
                ),
            );
        }

        // --- target-feature -------------------------------------------
        if code.contains(TARGET_FEATURE) {
            let mut decl_unsafe = false;
            for j in i + 1..(i + 8).min(v.raw.len()) {
                let c = &v.code[j];
                if c.contains("fn ") {
                    decl_unsafe = c.contains(&format!("{UNSAFE} fn"));
                    break;
                }
            }
            if !decl_unsafe {
                push(
                    i,
                    "target-feature",
                    format!("`{TARGET_FEATURE}]` fn must be declared `{UNSAFE} fn`"),
                );
            }
            if !header_block_contains(&v, i, AVAILABLE_PROBE) {
                push(
                    i,
                    "target-feature",
                    format!(
                        "`{TARGET_FEATURE}]` fn must document its capability probe: a \
                         `{SAFETY_DOC}` section referencing `{AVAILABLE_PROBE}()` \
                         (dispatch goes through engine::Select)"
                    ),
                );
            }
        }

        // --- phase-inline ---------------------------------------------
        if !in_test {
            if let Some(name) = defined_phase_fn(path, &v.code, i) {
                if !header_block_contains(&v, i, INLINE_ALWAYS) {
                    push(
                        i,
                        "phase-inline",
                        format!(
                            "phase function `{name}` must be `{INLINE_ALWAYS}`: without it the \
                             AVX2 sandwiches call the baseline-x86-64 instantiation (libm `fma` \
                             per `mul_add`) instead of compiling their own"
                        ),
                    );
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Fixture tests: every lint, known-good and known-bad, with the exact
// diagnostic text and line numbers pinned.
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<String> {
        audit_source(path, src)
            .iter()
            .map(|d| d.to_string())
            .collect()
    }

    #[test]
    fn good_fixture_is_clean() {
        let src = include_str!("../fixtures/good/clean.rs");
        assert_eq!(diags("crates/demo/src/lib.rs", src), Vec::<String>::new());
    }

    #[test]
    fn missing_safety_comment_is_flagged_with_location() {
        let src = include_str!("../fixtures/bad/missing_safety.rs");
        let d = diags("crates/demo/src/lib.rs", src);
        assert_eq!(
            d,
            vec![
                format!(
                    "crates/demo/src/lib.rs:6: [safety-comment] `{UNSAFE} fn` without a \
                     `{SAFETY_DOC}` doc section (or `// {SAFETY_MARK}:` contract) above"
                ),
                format!(
                    "crates/demo/src/lib.rs:12: [safety-comment] `{UNSAFE}` block without a \
                     `// {SAFETY_MARK}:` contract in the preceding lines"
                ),
                format!(
                    "crates/demo/src/lib.rs:16: [safety-comment] `{UNSAFE} impl` without a \
                     `// {SAFETY_MARK}:` justification above"
                ),
            ]
        );
    }

    #[test]
    fn unjustified_allow_is_flagged() {
        let src = include_str!("../fixtures/bad/unjustified_allow.rs");
        let d = diags("crates/demo/src/lib.rs", src);
        assert_eq!(
            d,
            vec![format!(
                "crates/demo/src/lib.rs:4: [allow-justification] `{ALLOW_ATTR}...)]` without \
                 a justification comment (same line or above)"
            )]
        );
    }

    #[test]
    fn bare_ordering_is_flagged_outside_tests_only() {
        let src = include_str!("../fixtures/bad/bare_ordering.rs");
        let d = diags("crates/demo/src/lib.rs", src);
        assert_eq!(
            d,
            vec![format!(
                "crates/demo/src/lib.rs:8: [ordering-rationale] atomic `{ORDERING}` use \
                 without an ordering-rationale comment (same line or directly above)"
            )]
        );
    }

    #[test]
    fn naked_unwrap_and_expect_are_flagged() {
        let src = include_str!("../fixtures/bad/naked_unwrap.rs");
        let d = diags("crates/demo/src/lib.rs", src);
        assert_eq!(
            d,
            vec![
                format!(
                    "crates/demo/src/lib.rs:5: [panic-justification] `{UNWRAP_CALL}…` without \
                     a panic-justification comment (same line or directly above)"
                ),
                format!(
                    "crates/demo/src/lib.rs:10: [panic-justification] `{EXPECT_CALL}…` without \
                     a panic-justification comment (same line or directly above)"
                ),
            ]
        );
        // Test paths are exempt, like the other non-test-scoped rules.
        assert_eq!(diags("crates/demo/tests/it.rs", src), Vec::<String>::new());
    }

    #[test]
    fn forbidden_constructs_flagged_outside_sanctuaries() {
        let src = include_str!("../fixtures/bad/forbidden.rs");
        let d = diags("crates/demo/src/lib.rs", src);
        assert_eq!(
            d,
            vec![
                format!(
                    "crates/demo/src/lib.rs:4: [forbidden-construct] `{CORE_ARCH}` is banned \
                     outside tempora_simd::arch and the pinning module \
                     (crates/parallel/src/affinity.rs)"
                ),
                format!(
                    "crates/demo/src/lib.rs:9: [forbidden-construct] `{TRANSMUTE}` is banned \
                     outside tempora_simd::arch and the pinning module \
                     (crates/parallel/src/affinity.rs)"
                ),
                format!(
                    "crates/demo/src/lib.rs:14: [forbidden-construct] `{MM_INTRINSIC}` is \
                     banned outside tempora_simd::arch and the pinning module \
                     (crates/parallel/src/affinity.rs)"
                ),
            ]
        );
        // The same source inside a sanctuary is legal.
        assert_eq!(diags("crates/simd/src/arch.rs", src), Vec::<String>::new());
    }

    #[test]
    fn raw_avx2_vocabulary_is_flagged_outside_simd() {
        let src = include_str!("../fixtures/bad/arch_avx2_outside_simd.rs");
        let msg = format!(
            "[forbidden-construct] `{ARCH_AVX2}` may be named only under {AVX2_SCOPE}: compute \
             through the `Lanes` vocabulary (`Ymm`), so that a steady state stays one body \
             for every engine"
        );
        assert_eq!(
            diags("crates/core/src/t9d_avx2.rs", src),
            vec![
                format!("crates/core/src/t9d_avx2.rs:5: {msg}"),
                format!("crates/core/src/t9d_avx2.rs:7: {msg}"),
                format!("crates/core/src/t9d_avx2.rs:14: {msg}"),
            ]
        );
        // The vocabulary's own crate names it freely.
        assert_eq!(diags("crates/simd/tests/it.rs", src), Vec::<String>::new());
    }

    #[test]
    fn safe_target_feature_fn_is_flagged_twice() {
        let src = include_str!("../fixtures/bad/target_feature_safe.rs");
        let d = diags("crates/demo/src/lib.rs", src);
        assert_eq!(
            d,
            vec![
                format!(
                    "crates/demo/src/lib.rs:5: [target-feature] `{TARGET_FEATURE}]` fn must \
                     be declared `{UNSAFE} fn`"
                ),
                format!(
                    "crates/demo/src/lib.rs:5: [target-feature] `{TARGET_FEATURE}]` fn must \
                     document its capability probe: a `{SAFETY_DOC}` section referencing \
                     `{AVAILABLE_PROBE}()` (dispatch goes through engine::Select)"
                ),
            ]
        );
    }

    #[test]
    fn phase_fn_without_inline_always_is_flagged_in_core_only() {
        let src = include_str!("../fixtures/bad/phase_not_inlined.rs");
        assert_eq!(
            diags("crates/core/src/t9d.rs", src),
            vec![format!(
                "crates/core/src/t9d.rs:12: [phase-inline] phase function `tile_epilogue` must \
                 be `{INLINE_ALWAYS}`: without it the AVX2 sandwiches call the \
                 baseline-x86-64 instantiation (libm `fma` per `mul_add`) instead of \
                 compiling their own"
            )]
        );
        // Other crates may reuse the names freely.
        assert_eq!(diags("crates/demo/src/lib.rs", src), Vec::<String>::new());
        // The vocabulary and the formulas are phase functions in their own
        // files, under their own names only.
        let lane = "pub fn fmadd(a: f64) -> f64 {\n    a\n}\n";
        assert_eq!(diags("crates/simd/src/lanes.rs", lane).len(), 1);
        assert_eq!(diags("crates/simd/src/pack.rs", lane), Vec::<String>::new());
        let formula = "pub fn apply_pack(a: f64) -> f64 {\n    a\n}\n";
        assert_eq!(diags("crates/stencil/src/heat.rs", formula).len(), 1);
        assert_eq!(
            diags("crates/core/src/kernels.rs", formula),
            Vec::<String>::new()
        );
        // The good fixture defines a phase function with the attribute.
        let good = include_str!("../fixtures/good/clean.rs");
        assert!(good.contains("fn tile_prologue"));
        assert_eq!(diags("crates/core/src/t9d.rs", good), Vec::<String>::new());
    }

    #[test]
    fn test_regions_are_exempt_from_test_scoped_rules() {
        // The good fixture keeps an undocumented Ordering:: use and an
        // uncommented unsafe block inside `mod tests` — both exempt.
        let src = include_str!("../fixtures/good/clean.rs");
        assert!(src.contains("mod tests"));
        assert_eq!(diags("crates/demo/src/lib.rs", src), Vec::<String>::new());
        // A tests/ path exempts the whole file.
        let bad_ordering = include_str!("../fixtures/bad/bare_ordering.rs");
        assert_eq!(
            diags("crates/demo/tests/it.rs", bad_ordering),
            Vec::<String>::new()
        );
    }

    #[test]
    fn walker_skips_fixtures_and_target() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .to_path_buf();
        let files = collect_rs_files(&root);
        assert!(files.iter().any(|f| f == "xtask/src/audit.rs"));
        assert!(!files.iter().any(|f| f.contains("fixtures")));
        assert!(!files.iter().any(|f| f.starts_with("target/")));
    }
}
