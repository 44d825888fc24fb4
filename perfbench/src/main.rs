//! Host-time benchmark of the BabelFish simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mongodb-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One workload per process. With `--trace 0` the last line of standard
//! output reports the end-to-end metrics (`ns_per_access`, `setup_s`,
//! `peak_rss_mb`); with `--trace 1` it reports the per-layer metrics of
//! a traced run, and a Chrome trace of host-time spans is written under
//! `perfbench/out/`. `--toy` shrinks every workload for the self-test.
//! See `perfbench/BENCHMARK.md` for the method.

mod host;
mod layers;
mod run;
mod setup;
mod spans;
mod stats;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

use run::{Args, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--toy]
workloads: serve-mongodb-paper serve-resident faas-churn replay-mongodb";

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut toy = false;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--toy" => toy = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        toy,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run::run(&args);
    println!("{}", report.diagnostics_line());
    println!("{}", report.result_line(args.trace));
}
