//! Repo-local automation for the tempora workspace.
//!
//! Three subcommands, wired up as a cargo alias (`.cargo/config.toml`):
//!
//! ```text
//! cargo xtask audit
//! cargo xtask bench-diff OLD NEW
//! cargo xtask loc
//! ```
//!
//! `loc` prints the non-test lines of every crate and their total — all
//! lines, non-blank lines and code lines; see [`loc`].
//! `bench-diff` compares two files of captured `ledger` output under the
//! bounds of `BENCHMARK.json`; see [`bench_diff`]. `audit` is the safety
//! audit wall.
//! The audit walks every workspace `.rs` file (skipping `target/`,
//! `.git/` and the lint fixtures under `xtask/fixtures/`) and enforces
//! the repo's safety policy; see [`audit`] for the rule catalogue. Any
//! violation prints one `file:line: [rule] message` diagnostic and the
//! process exits non-zero, so CI can gate on it directly.

mod audit;
mod bench_diff;
mod loc;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["audit"] => run_audit(),
        ["bench-diff", old, new] => run_bench_diff(old, new),
        ["loc"] => run_loc(),
        _ => {
            eprintln!("usage: cargo xtask audit");
            eprintln!("       cargo xtask bench-diff OLD NEW");
            eprintln!("       cargo xtask loc");
            eprintln!();
            eprintln!("subcommands:");
            eprintln!("  audit        run the repo safety lints over every workspace .rs file");
            eprintln!("  bench-diff   compare two files of captured `ledger` output under the");
            eprintln!("               bounds of BENCHMARK.json; fails on an end-to-end regression");
            eprintln!("  loc          count each crate's non-test lines: all, non-blank, code");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: xtask always lives one directory below it.
fn workspace_root() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        // Panic-justification: CARGO_MANIFEST_DIR is compile-time known
        // ("<root>/xtask"), so a missing parent means a broken checkout.
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

fn run_bench_diff(old: &str, new: &str) -> ExitCode {
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let result = read(&workspace_root().join("BENCHMARK.json")).and_then(|benchmark| {
        bench_diff::diff(&benchmark, &read(old.as_ref())?, &read(new.as_ref())?)
    });
    match result {
        Ok(diff) => {
            print!("{}", diff.table);
            if diff.regressed {
                println!("xtask bench-diff: NEW regresses against OLD");
                ExitCode::FAILURE
            } else {
                println!("xtask bench-diff: no end-to-end regression");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("xtask bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_loc() -> ExitCode {
    let root = workspace_root();
    match loc::table(&root, &audit::collect_rs_files(&root)) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask loc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_audit() -> ExitCode {
    let root = workspace_root();
    let files = audit::collect_rs_files(&root);
    let mut diags = Vec::new();
    for rel in &files {
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask audit: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        diags.extend(audit::audit_source(rel, &src));
    }
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("xtask audit: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask audit: {} violation(s) in {} files scanned",
            diags.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}
