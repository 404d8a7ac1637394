//! Seeded benchmark of the mrls planner, execution simulator and serve tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-dag --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists and which layers
//! it loads): `plan-dag`, `plan-bulk`, `online-churn`, `serve-mix`.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it replays the same inputs with spans around every call into a layer and
//! reports the per-layer metrics instead. Every schedule any workload
//! produces goes through the benchmark's own checker (`check.rs`) beside the
//! program's validator. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is non-zero
//! when any output check failed.

mod check;
mod churn;
mod plan;
mod report;
mod serve;
mod stats;
mod tracer;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <plan-dag|plan-bulk|online-churn|serve-mix> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for `{flag}`")));
        let bad = || -> ! { usage(&format!("invalid value `{value}` for `{flag}`")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let report: Report = match args.workload.as_str() {
        "plan-dag" => plan::run(plan::Kind::Dag, &args),
        "plan-bulk" => plan::run(plan::Kind::Bulk, &args),
        "online-churn" => churn::run(&args),
        "serve-mix" => serve::run(&args),
        other => usage(&format!("unknown workload `{other}`")),
    };
    report.print(&args)
}
