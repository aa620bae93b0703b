//! Run every experiment binary in sequence (the full EXPERIMENTS.md
//! regeneration). Each experiment is spawned as a child process so a
//! pathological configuration cannot take the whole sweep down.
//!
//! ```sh
//! cargo run --release -p rdfref-bench --bin exp_all
//! ```

use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "exp_example1",
    "exp_strategies",
    "exp_cover_space",
    "exp_constraints",
    "exp_data_sweep",
    "exp_maintenance",
    "exp_dataset_stats",
    "exp_completeness",
    "exp_ablations",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("current exe has a directory");
    let mut failures = 0;
    for name in EXPERIMENTS {
        println!("\n================ {name} ================");
        let start = Instant::now();
        let status = Command::new(exe_dir.join(name)).status();
        match status {
            Ok(s) if s.success() => {
                println!("---- {name} done in {:?}", start.elapsed());
            }
            Ok(s) => {
                eprintln!("---- {name} FAILED with {s}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("---- {name} could not start: {e} (build with --bins first)");
                failures += 1;
            }
        }
    }
    println!("\n{} experiments, {failures} failure(s)", EXPERIMENTS.len());
    if failures > 0 {
        std::process::exit(1);
    }
}
