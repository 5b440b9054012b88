//! Line counts of the workspace's non-test code, per crate.
//!
//! A crate's lines are those of the `.rs` files under its `src/`, each
//! read up to its first `#[cfg(test)]` line: unit tests follow that line
//! by convention, and whole test-only files (the `floor_names.rs` entry
//! points) begin with it. Integration tests, examples and the `ledger`
//! package are not counted. Three counts per crate: every line, the
//! non-blank lines, and the code lines — non-blank lines that are not
//! `//` comments (doc comments included).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The three counts of one file or crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) lines: usize,
    pub(crate) non_blank: usize,
    pub(crate) code: usize,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.lines += o.lines;
        self.non_blank += o.non_blank;
        self.code += o.code;
    }
}

/// The counts of one source file, up to its first `#[cfg(test)]` line.
pub(crate) fn count(src: &str) -> Counts {
    let mut c = Counts::default();
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("#[cfg(test)]") {
            break;
        }
        c.lines += 1;
        if !t.is_empty() {
            c.non_blank += 1;
            if !t.starts_with("//") {
                c.code += 1;
            }
        }
    }
    c
}

/// The crate directory a workspace file belongs to, when it is crate
/// source: `src/…` (the façade), `xtask/src/…`, `crates/<c>/src/…` or
/// `shims/<c>/src/…`.
fn crate_dir(rel: &str) -> Option<&str> {
    if rel.starts_with("src/") {
        return Some("");
    }
    if rel.starts_with("xtask/src/") {
        return Some("xtask");
    }
    let mut parts = rel.splitn(4, '/');
    let (group, name, src) = (parts.next()?, parts.next()?, parts.next()?);
    let dir = &rel[..group.len() + 1 + name.len()];
    (matches!(group, "crates" | "shims") && src == "src").then_some(dir)
}

/// The package name in `manifest`, or `fallback`.
fn package_name(manifest: &str, fallback: &str) -> String {
    manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .map_or(fallback, |n| n.trim_matches('"'))
        .to_string()
}

/// The per-crate table of the workspace at `root`, then the total.
pub(crate) fn table(root: &Path, files: &[String]) -> Result<String, String> {
    let mut crates = BTreeMap::<String, Counts>::new();
    for rel in files {
        let Some(dir) = crate_dir(rel) else {
            continue;
        };
        let read = |p: &Path| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        let name = package_name(&read(&root.join(dir).join("Cargo.toml"))?, dir);
        *crates.entry(name).or_default() += count(&read(&root.join(rel))?);
    }
    let mut out = format!(
        "{:<20} {:>7} {:>9} {:>7}\n",
        "crate", "lines", "non-blank", "code"
    );
    let mut total = Counts::default();
    let mut row = |name: &str, c: Counts| {
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{name:<20} {:>7} {:>9} {:>7}",
            c.lines, c.non_blank, c.code
        );
    };
    for (name, &c) in &crates {
        row(name, c);
        total += c;
    }
    row("total", total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_stop_at_the_first_test_module() {
        let src = "//! Crate docs.\n\
                   \n\
                   /// A doc comment.\n\
                   pub fn f() -> u8 {\n    \
                       // A comment.\n    \
                       1 // and a trailing one\n\
                   }\n\
                   \n\
                   #[cfg(test)]\n\
                   mod tests {\n    \
                       fn g() {}\n\
                   }\n";
        let want = Counts {
            lines: 8,
            non_blank: 6,
            code: 3,
        };
        assert_eq!(count(src), want);
        assert_eq!(count("// Entry points.\n#[cfg(test)]\nmod t {}\n").code, 0);
    }

    #[test]
    fn only_crate_sources_count() {
        assert_eq!(crate_dir("crates/grid/src/grid.rs"), Some("crates/grid"));
        assert_eq!(crate_dir("shims/rand/src/lib.rs"), Some("shims/rand"));
        assert_eq!(crate_dir("src/lib.rs"), Some(""));
        assert_eq!(crate_dir("xtask/src/loc.rs"), Some("xtask"));
        assert_eq!(crate_dir("crates/plan/tests/miri_portable.rs"), None);
        assert_eq!(crate_dir("tests/common/mod.rs"), None);
        assert_eq!(crate_dir("ledger/src/main.rs"), None);
        assert_eq!(
            package_name("[package]\nname = \"tempora_grid\"\n", "x"),
            "tempora_grid"
        );
    }
}
