//! Pins that the docs, the CI workflow and the verify skill only name
//! experiment binaries and test targets that exist, that every binary is
//! named in one of them and every test target in README, DESIGN or the CI
//! workflow, that no single-shot `BENCH_*.json` artifact comes back to the
//! repository root, and that the knob tables list exactly the source's
//! knobs: DESIGN.md's the `EngineBuilder` setters and `AnswerOptions`
//! fields, README's the setters of `QueryRequest` and `EngineBuilder`.
//!
//! The crate has two binaries: `exp_all`, whose committed run is the only
//! source of EXPERIMENTS.md's E1–E8 and A1–A6 numbers, and `benchmark`, the
//! one harness behind E9–E18. Binaries and root artifacts they replaced must
//! not rot back in through a doc or a CI step.
//! ROADMAP.md, CHANGES.md and the frozen benchmark's own README are history
//! and are not scanned.

use std::fs;
use std::path::PathBuf;

/// Files whose `exp_*`, `--bin <name>`, `tests/<name>.rs` and
/// `--test <name>` tokens must resolve.
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

/// Test targets a text refers to: every `tests/<name>.rs` path and every
/// identifier after `--test `. Placeholders and paths that are no target's
/// (`tests/<name>.rs`, `tests/{a,b}.rs`, `tests/common/mod.rs`) name nothing.
fn named_test_targets(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, dir) in text.match_indices("tests/") {
        let rest = &text[at + dir.len()..];
        let name = identifier(rest);
        if !name.is_empty() && rest[name.len()..].starts_with(".rs") {
            names.push(name.to_string());
        }
    }
    for (at, flag) in text.match_indices("--test ") {
        let name = identifier(&text[at + flag.len()..]);
        if !name.is_empty() {
            names.push(name.to_string());
        }
    }
    names
}

/// Files of which one must name each test target, so none is unaccounted.
const TEST_INDEX: &[&str] = &["README.md", "DESIGN.md", ".github/workflows/ci.yml"];

#[test]
fn every_named_test_target_exists() {
    let crates = fs::read_dir(root().join("crates")).expect("read crates/");
    let mut dirs: Vec<PathBuf> = crates
        .map(|entry| entry.expect("dir entry").path().join("tests"))
        .collect();
    dirs.push(root().join("tests"));
    let mut indexed = Vec::new();
    for file in SCANNED {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for name in named_test_targets(&text) {
            assert!(
                dirs.iter().any(|d| d.join(format!("{name}.rs")).is_file()),
                "{file} names test target `{name}`, which is no `tests/{name}.rs` of the workspace"
            );
            if TEST_INDEX.contains(file) {
                indexed.push(name);
            }
        }
    }
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        for entry in fs::read_dir(dir).expect("read a tests/ directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            let stem = path.file_stem().expect("a file name").to_string_lossy();
            assert!(
                indexed.iter().any(|name| *name == stem),
                "none of {TEST_INDEX:?} names the test target `{}`",
                path.strip_prefix(root()).unwrap_or(&path).display()
            );
        }
    }
}

#[test]
fn every_named_experiment_binary_exists() {
    let bins = root().join("crates/bench/src/bin");
    let mut named = Vec::new();
    for file in SCANNED {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for name in named_binaries(&text) {
            assert!(
                bins.join(format!("{name}.rs")).is_file()
                    || bins.join(&name).join("main.rs").is_file(),
                "{file} names `{name}`, which is not a binary under crates/bench/src/bin/"
            );
            named.push(name);
        }
    }
    // Coverage instead of a mention floor: every binary is named somewhere.
    for entry in fs::read_dir(&bins).expect("read crates/bench/src/bin/") {
        let path = entry.expect("dir entry").path();
        let stem = path.file_stem().expect("a file name").to_string_lossy();
        assert!(
            named.iter().any(|name| *name == stem),
            "no scanned file names the binary `{stem}`"
        );
    }
}

#[test]
fn no_single_shot_artifact_sits_at_the_repository_root() {
    for entry in fs::read_dir(root()).expect("read repository root") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !(name.starts_with("BENCH_") && name.ends_with(".json")),
            "{name}: results come from `benchmark --out <dir>` (EXPERIMENTS.md E9–E18), \
             not from a committed single-shot file"
        );
    }
}

#[test]
fn placeholders_and_real_names_are_told_apart() {
    let text = "run `--bin exp_<name>`, any `exp_*`, `--bin <name>`, \
                `--bin benchmark --` or `exp_dataset_stats# E7`";
    assert_eq!(named_binaries(text), ["exp_dataset_stats", "benchmark"]);
    let text = "`tests/<name>.rs`, `tests/{a,b}.rs`, `tests/common/mod.rs`, \
                `crates/storage/tests/alloc_budget.rs` and `--test properties`";
    assert_eq!(named_test_targets(text), ["alloc_budget", "properties"]);
}

/// Rows of the first markdown table after `marker` in `text`, as trimmed
/// cells, without the header and separator rows.
fn table_after(text: &str, marker: &str) -> Vec<Vec<String>> {
    let at = text
        .find(marker)
        .unwrap_or_else(|| panic!("no `{marker}` in the text"));
    text[at..]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2)
        .map(|line| {
            let cells = line.trim().trim_matches('|').split('|');
            cells.map(|cell| cell.trim().to_string()).collect()
        })
        .collect()
}

/// The sorted identifiers in `names`, each the leading identifier of a
/// markdown cell such as `` `encoding(DictEncoding)` ``, `` `limits` `` or
/// `` `.row_budget(…)` ``.
fn cell_identifiers<'a>(names: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut ids: Vec<String> = names
        .map(|cell| identifier(cell.trim_start_matches(['`', '.'])).to_string())
        .collect();
    ids.sort();
    ids
}

/// The sorted names that the lines of `source`'s block opened by the line
/// `start` introduce with `prefix`, keeping the lines `keep` accepts.
fn block_items(source: &str, start: &str, prefix: &str, keep: fn(&str) -> bool) -> Vec<String> {
    let mut names: Vec<String> = source
        .lines()
        .skip_while(|line| *line != start)
        .skip(1)
        .take_while(|line| *line != "}")
        .filter(|line| keep(line))
        .filter_map(|line| line.trim().strip_prefix(prefix))
        .map(|rest| identifier(rest).to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn design_knob_tables_match_the_builder_and_the_answer_options() {
    let read = |file: &str| {
        fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let design = read("DESIGN.md");
    let setters = |file: &str, start: &str| {
        block_items(&read(file), start, "pub fn ", |line| {
            line.contains("(mut self")
        })
    };

    // §3f: every `EngineBuilder` method that takes the builder by `mut self`,
    // and every terminal, which takes it by `self`.
    let builder = setters("crates/core/src/builder.rs", "impl EngineBuilder {");
    let table = table_after(&design, "\nKnobs:\n");
    assert_eq!(
        cell_identifiers(table.iter().map(|row| &row[0])),
        builder,
        "DESIGN §3f's knob table against `EngineBuilder`'s knobs"
    );
    let terminals = block_items(
        &read("crates/core/src/builder.rs"),
        "impl EngineBuilder {",
        "pub fn ",
        |line| line.contains("(self"),
    );
    let table = table_after(&design, "| Terminal |");
    assert_eq!(
        cell_identifiers(table.iter().map(|row| &row[0])),
        terminals,
        "DESIGN §3f's terminal table against `EngineBuilder`'s terminals"
    );

    // §3d: every field of `AnswerOptions`.
    let fields = block_items(
        &read("crates/core/src/answer.rs"),
        "pub struct AnswerOptions {",
        "pub ",
        |_| true,
    );
    let table = table_after(&design, "### Configuration knobs");
    let rows = table.iter().filter(|row| row[0] == "`AnswerOptions`");
    assert_eq!(
        cell_identifiers(rows.map(|row| &row[1])),
        fields,
        "DESIGN §3d's knob table against `AnswerOptions`' fields"
    );

    // README: every `mut self` setter of `QueryRequest` and `EngineBuilder`,
    // each in the row of its type.
    let request = setters(
        "crates/core/src/engine.rs",
        "impl<'q, E: QueryEngine> QueryRequest<'q, E> {",
    );
    let table = table_after(&read("README.md"), "| Knob | Where |");
    for (ty, setters) in [("QueryRequest", request), ("EngineBuilder", builder)] {
        let rows = table.iter().filter(|row| row[1] == format!("`{ty}`"));
        assert_eq!(
            cell_identifiers(rows.map(|row| &row[0])),
            setters,
            "README's knob table against `{ty}`'s setters"
        );
    }
    for row in &table {
        assert!(
            ["`QueryRequest`", "`EngineBuilder`"].contains(&row[1].as_str()),
            "README's knob table sets {} through {}, neither builder",
            row[0],
            row[1]
        );
    }
}
