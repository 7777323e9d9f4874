//! Experiment runner: regenerates any table/figure of the paper.
//!
//! ```text
//! cargo run --release -p neutron-bench --bin exp -- all
//! cargo run --release -p neutron-bench --bin exp -- fig10 table2
//! cargo run --release -p neutron-bench --bin exp -- --smoke fig16
//! ```
//!
//! Every id is resolved before any experiment runs, so a typo exits 2
//! without printing a table.

use neutron_bench::{exp, Setup};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut setup = Setup::Paper;
    let mut ids: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--smoke" => setup = Setup::Smoke,
            "--paper" => setup = Setup::Paper,
            "all" => ids.extend(exp::ALL_EXPERIMENTS),
            "extras" => ids.extend(exp::EXTRA_EXPERIMENTS),
            other => ids.push(other),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: exp [--smoke] <experiment...|all|extras>");
        eprintln!("experiments: {}", exp::known_ids());
        std::process::exit(2);
    }
    let mut drivers = Vec::with_capacity(ids.len());
    for id in ids {
        match exp::driver(id) {
            Some(driver) => drivers.push((id, driver)),
            None => {
                eprintln!("unknown experiment '{id}'; known: {}", exp::known_ids());
                std::process::exit(2);
            }
        }
    }
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for (id, driver) in drivers {
        let started = std::time::Instant::now();
        writeln!(lock, "{}", driver(setup)).unwrap();
        writeln!(
            lock,
            "[{id} completed in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        )
        .unwrap();
    }
}
