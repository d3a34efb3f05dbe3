//! CLI driver for the experiment suite.
//!
//! ```text
//! experiments [--full] [e1 e2 ...]
//! ```
//!
//! With no experiment ids, runs everything. `--quick` (default) uses
//! reduced trial counts; `--full` uses the larger counts each experiment
//! module sets for its `quick = false` mode.

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let quick = !full;
    let selected: Vec<String> =
        args.iter().filter(|a| !a.starts_with("--")).map(|a| a.to_lowercase()).collect();

    let registry = bench::all();
    let to_run: Vec<&bench::Experiment> = if selected.is_empty() {
        registry.iter().collect()
    } else {
        let picked: Vec<&bench::Experiment> =
            registry.iter().filter(|e| selected.contains(&e.id.to_string())).collect();
        if picked.is_empty() {
            eprintln!(
                "unknown experiment ids {selected:?}; available: {}",
                registry.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        }
        picked
    };

    println!(
        "# near-clique reproduction experiments ({})",
        if quick { "quick mode; use --full for recorded trial counts" } else { "full mode" }
    );
    println!();
    for exp in to_run {
        let start = Instant::now();
        println!("## {} — {}", exp.id.to_uppercase(), exp.what);
        for table in (exp.run)(quick) {
            println!("{}", table.render());
        }
        println!("({} finished in {:.1?})", exp.id, start.elapsed());
        println!();
    }
}
