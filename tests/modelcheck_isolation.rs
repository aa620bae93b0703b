//! Pins that the model checker stays out of normal builds.
//!
//! The `rdfref_sync` facade is a zero-cost re-export of std/parking_lot
//! unless `--features model-check` swaps in the instrumented shims. These
//! tests enforce the manifest discipline that guarantees it: the scheduler
//! crate is an *optional* dependency of the facade only, the `model-check`
//! feature is never a default anywhere, and every `model-check` feature in
//! the workspace bottoms out in `rdfref-sync`'s. If any of this drifts, a
//! release binary would silently carry (and possibly route sync ops
//! through) the model-checking runtime.
//!
//! The converse is pinned textually: `core` and `storage` name no
//! schedulable primitive of `std::sync`/`std::thread`/`parking_lot`
//! directly, so nothing the model checker cannot see takes part in the
//! protocol it explores.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn crate_manifests() -> Vec<(String, String)> {
    let crates = workspace_root().join("crates");
    let mut out = Vec::new();
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, fs::read_to_string(&manifest).expect("read manifest")));
        }
    }
    assert!(!out.is_empty(), "no crate manifests found");
    out.sort();
    out
}

/// The `default = […]` feature list of a manifest, if any.
fn default_features(manifest: &str) -> Option<&str> {
    let line = manifest.lines().find(|l| {
        l.trim_start().starts_with("default ") || l.trim_start().starts_with("default=")
    })?;
    line.split_once('=').map(|(_, v)| v.trim())
}

#[test]
fn model_check_is_never_a_default_feature() {
    for (name, manifest) in crate_manifests() {
        if let Some(defaults) = default_features(&manifest) {
            assert!(
                !defaults.contains("model-check"),
                "crates/{name}: `model-check` must stay opt-in, found in default features: {defaults}"
            );
        }
    }
    let root = fs::read_to_string(workspace_root().join("Cargo.toml")).expect("root manifest");
    if let Some(defaults) = default_features(&root) {
        assert!(
            !defaults.contains("model-check"),
            "root defaults: {defaults}"
        );
    }
}

#[test]
fn the_scheduler_is_an_optional_dependency_of_the_facade_only() {
    for (name, manifest) in crate_manifests() {
        if name == "modelcheck" {
            continue; // the crate itself
        }
        let uses_scheduler = manifest.contains("rdfref-modelcheck");
        if name == "sync" {
            assert!(uses_scheduler, "the facade must gate the scheduler");
            let dep_line = manifest
                .lines()
                .find(|l| l.contains("rdfref-modelcheck"))
                .unwrap();
            assert!(
                dep_line.contains("optional = true"),
                "crates/sync: the scheduler dep must be optional, got: {dep_line}"
            );
            assert!(
                manifest.contains("model-check = [\"dep:rdfref-modelcheck\"]"),
                "crates/sync: the model-check feature must be what enables the dep"
            );
        } else {
            assert!(
                !uses_scheduler,
                "crates/{name} depends on rdfref-modelcheck directly — only the \
                 rdfref-sync facade may link the scheduler, and only behind model-check"
            );
        }
    }
}

#[test]
fn downstream_model_check_features_bottom_out_in_the_facade() {
    for (name, manifest) in crate_manifests() {
        if name == "sync" || name == "modelcheck" {
            continue;
        }
        for line in manifest.lines() {
            let t = line.trim_start();
            if t.starts_with("model-check") && t.contains('=') {
                // Only `core` has one, and it forwards straight to the
                // facade's `dep:rdfref-modelcheck`.
                assert!(
                    t.contains("rdfref-sync/model-check"),
                    "crates/{name}: a model-check feature must forward to \
                     rdfref-sync/model-check, got: {t}"
                );
            }
        }
    }
}

/// This test compiles in the default (non-model-check) configuration; if
/// the scheduler ever leaked into the normal build graph, the facade's
/// types would stop being std/parking_lot's and this would fail to
/// compile. Backed by `rdfref_sync::zero_cost_identity`, which pins the
/// type identities themselves.
#[test]
fn facade_types_are_the_real_ones_in_this_build() {
    let arc: rdfref_sync::Arc<u64> = std::sync::Arc::new(7);
    assert_eq!(*arc, 7);
    let atomic = rdfref_sync::atomic::AtomicU64::new(1);
    let std_ref: &std::sync::atomic::AtomicU64 = &atomic;
    assert_eq!(std_ref.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn scheduler_symbols_are_absent_from_the_normal_dep_graph() {
    // The lockfile records the full resolved graph; `rdfref-modelcheck`
    // may appear (it is a workspace member) but nothing outside
    // `rdfref-sync` may list it as a dependency edge. Parse the minimal
    // structure: package blocks are separated by blank lines.
    let lock = fs::read_to_string(workspace_root().join("Cargo.lock")).expect("Cargo.lock");
    let mut current: Option<&str> = None;
    let mut facade_edge_seen = false;
    for line in lock.lines() {
        if let Some(rest) = line.strip_prefix("name = ") {
            current = Some(rest.trim_matches('"'));
        }
        // Dependency edges are quoted list entries inside `dependencies = […]`;
        // the package's own `name = …` line does not match this shape.
        let t = line.trim();
        if t == "\"rdfref-modelcheck\"," || t == "\"rdfref-modelcheck\"" {
            let owner = current.unwrap_or("?");
            assert_eq!(
                owner, "rdfref-sync",
                "Cargo.lock: {owner} lists rdfref-modelcheck as a dependency"
            );
            facade_edge_seen = true;
        }
    }
    assert!(
        facade_edge_seen,
        "Cargo.lock: expected the optional rdfref-sync → rdfref-modelcheck edge"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers a path names right after `root` (`std::sync::` or
/// `std::thread::`): the next segment, or everything inside a `{…}` group.
fn named_after(rest: &str) -> Vec<&str> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let group = match rest.strip_prefix('{') {
        Some(inner) => inner.split('}').next().unwrap_or(inner),
        None => rest.split(|c: char| !is_ident(c)).next().unwrap_or(""),
    };
    group
        .split(|c: char| !is_ident(c))
        .filter(|s| !s.is_empty())
        .collect()
}

/// The engine crates take every primitive the scheduler instruments from the
/// `rdfref_sync` facade. `Arc`, `OnceLock`, `thread::scope` and
/// `available_parallelism` are deliberately not shimmed (see
/// `crates/sync/src/lib.rs`) and stay legal; `#[cfg(test)]` tails and
/// comments are skipped. `obs` is out of scope: a protocol-free leaf crate
/// kept free of workspace dependencies.
#[test]
fn engine_crates_reach_sync_primitives_through_the_facade() {
    const BANNED: [(&str, &[&str]); 2] = [
        (
            "std::sync::",
            &["Mutex", "RwLock", "Condvar", "mpsc", "atomic"],
        ),
        ("std::thread::", &["spawn", "Builder"]),
    ];
    let mut files = Vec::new();
    for krate in ["core", "storage"] {
        rust_sources(
            &workspace_root().join("crates").join(krate).join("src"),
            &mut files,
        );
    }
    assert!(files.len() > 20, "source walk found too few files");
    let mut offences = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("read source");
        let code: String = text
            .lines()
            .take_while(|l| l.trim() != "#[cfg(test)]")
            .flat_map(|l| [l.split("//").next().unwrap_or(""), "\n"])
            .collect();
        let mut hits: Vec<usize> = code
            .match_indices("parking_lot")
            .map(|(at, _)| at)
            .collect();
        for (root, names) in BANNED {
            for (at, _) in code.match_indices(root) {
                let used = named_after(&code[at + root.len()..]);
                if used.iter().any(|u| names.contains(u)) {
                    hits.push(at);
                }
            }
        }
        for at in hits {
            let line = code[..at].matches('\n').count();
            let shown = code.lines().nth(line).unwrap_or("").trim();
            offences.push(format!("{}:{}: {shown}", file.display(), line + 1));
        }
    }
    assert!(
        offences.is_empty(),
        "raw sync primitive outside the rdfref_sync facade (invisible to the model checker):\n{}",
        offences.join("\n")
    );
}
