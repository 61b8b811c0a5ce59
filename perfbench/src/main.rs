//! The repository benchmark: open-loop service workloads against
//! predictd and predictgw, a pinned modelcheck scan, and a traced run
//! that prints per-layer costs.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Normally started through `run.sh`, which builds the binaries first
//! and tells this program where they are (`PERFBENCH_BIN_DIR`) and
//! where it may write (`PERFBENCH_TMP`). The report goes to standard
//! output; its last line is the JSON result.

mod check;
mod daemons;
mod gen;
mod load;
mod report;
mod scan;
mod stream;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use daemons::Env;
use report::{result_line, table, Outcome};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] =
    ["steady_predict", "churn_schedule", "gateway_fanout", "modelcheck_pinned"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| format!("--seconds: cannot parse {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1\n{USAGE}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn env_path(name: &str) -> Result<PathBuf, String> {
    std::env::var_os(name).map(PathBuf::from).ok_or(format!("{name} is not set (use run.sh)"))
}

/// The run stamp: what produced these numbers.
fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "stamp: workload {} seed {} seconds {} trace {} | nproc {nproc} | {} | tree {} | profile release",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        var("PERFBENCH_RUSTC"),
        var("PERFBENCH_TREE"),
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let env = Env { bin_dir: env_path("PERFBENCH_BIN_DIR")?, tmp: env_path("PERFBENCH_TMP")? };
    let bench_dir = env_path("PERFBENCH_DIR")?;
    std::fs::create_dir_all(&env.tmp)
        .map_err(|e| format!("creating {}: {e}", env.tmp.display()))?;
    if args.trace {
        return trace::run(&args.workload, args.seed, args.seconds, &env, &bench_dir);
    }
    match stream::service_workload(&args.workload) {
        Some(w) => load::run(w, args.seed, args.seconds, &env),
        None => scan::run(args.seconds, &env, &bench_dir),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp(&args));
    match run(&args) {
        Ok(outcome) => {
            let title = if args.trace { "per-layer (traced run)" } else { "end to end" };
            print!("{}", table(&format!("{} {title}", args.workload), &outcome));
            // Every answer was checked; any failure makes the run incorrect.
            println!("{}", result_line(outcome.failed == 0, &outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
