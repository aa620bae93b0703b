//! Run every row family of `EXPERIMENTS.md` (E1–E8, A1–A6) in-process,
//! print one plain line per record, and write the JSON document to the
//! given path.
//!
//! ```sh
//! cargo run --release -p rdfref-bench --bin exp_all -- crates/bench/experiments.json
//! ```

use rdfref_bench::{families, render, to_json, Header, Run};
use std::process::Command;
use std::time::Instant;

/// The trimmed stdout of a command, if it ran and succeeded.
fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: exp_all <out.json>");
        std::process::exit(2);
    };
    let start = Instant::now();
    let mut run = Run::full();
    for family in families::ALL {
        family(&mut run);
    }
    print!("{}", render(&run.records));
    let header = Header {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        dirty: output("git", &["status", "--porcelain"]).is_none_or(|s| !s.is_empty()),
        rustc: output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    };
    if let Err(e) = std::fs::write(&path, to_json(&header, &run.records)) {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    }
    println!(
        "\n{} records in {:.1} s → {path}",
        run.records.len(),
        start.elapsed().as_secs_f64()
    );
}
