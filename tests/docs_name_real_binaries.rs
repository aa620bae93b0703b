//! Pins that the docs, the CI workflow and the verify skill only name
//! experiment binaries that exist, and that no single-shot `BENCH_*.json`
//! artifact comes back to the repository root.
//!
//! The `benchmark` binary is the one harness whose numbers may appear in
//! EXPERIMENTS.md for E9–E14; the four `exp_*` binaries and four root
//! artifacts it replaced must not rot back in through a doc or a CI step.
//! ROADMAP.md, CHANGES.md and the frozen benchmark's own README are history
//! and are not scanned.

use std::fs;
use std::path::PathBuf;

/// Files whose `exp_*` and `--bin <name>` tokens must resolve.
const SCANNED: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "crates/bench/src/lib.rs",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The leading `[a-z0-9_]*` of `s`.
fn identifier(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Binary names a text refers to: every `exp_<ident>` token and every
/// identifier after `--bin `. Placeholders (`exp_*`, `exp_<name>`,
/// `--bin <name>`) have an empty identifier part and name nothing.
fn named_binaries(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, prefix) in text.match_indices("exp_") {
        let suffix = identifier(&text[at + prefix.len()..]);
        if !suffix.is_empty() {
            names.push(format!("exp_{suffix}"));
        }
    }
    for (at, flag) in text.match_indices("--bin ") {
        let name = identifier(&text[at + flag.len()..]);
        // `--bin exp_…` is already covered by the loop above.
        if !name.is_empty() && !name.starts_with("exp_") {
            names.push(name.to_string());
        }
    }
    names
}

#[test]
fn every_named_experiment_binary_exists() {
    let bins = root().join("crates/bench/src/bin");
    let mut scanned_names = 0;
    for file in SCANNED {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for name in named_binaries(&text) {
            scanned_names += 1;
            assert!(
                bins.join(format!("{name}.rs")).is_file()
                    || bins.join(&name).join("main.rs").is_file(),
                "{file} names `{name}`, which is not a binary under crates/bench/src/bin/"
            );
        }
    }
    assert!(
        scanned_names > 20,
        "the scan found only {scanned_names} names"
    );
}

#[test]
fn no_single_shot_artifact_sits_at_the_repository_root() {
    for entry in fs::read_dir(root()).expect("read repository root") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !(name.starts_with("BENCH_") && name.ends_with(".json")),
            "{name}: results come from `benchmark --out <dir>` (EXPERIMENTS.md E9–E14), \
             not from a committed single-shot file"
        );
    }
}

#[test]
fn placeholders_and_real_names_are_told_apart() {
    let text = "run `--bin exp_<name>`, any `exp_*`, `--bin <name>`, \
                `--bin benchmark --` or `exp_dataset_stats# E7`";
    assert_eq!(named_binaries(text), ["exp_dataset_stats", "benchmark"]);
}
