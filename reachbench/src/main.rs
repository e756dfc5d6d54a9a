//! The REACH benchmark: one command runs a named workload with a seed,
//! checks its outputs against a model, and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path reachbench/Cargo.toml -- \
//!     --workload monitor-wire --seed 7 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the gated end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the full report: every end-to-end metric that
//! applies to the workload, the settings, the failures by operation
//! and error variant, and any output mismatch. See README.md.

mod harness;
mod inventory;
mod layers;
mod monitor;
mod probe;
mod stats;

use harness::Plan;
use stats::num;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics that apply to every workload and are steady
/// enough from run to run to gate on; they make up the last line. The
/// rest are in the report line (see README.md).
const GATED: [&str; 2] = ["setup_s", "txn_p25_us"];

/// Runs episode `k` of a workload in this process.
type Workload = fn(&Plan, usize) -> Result<harness::Episode, String>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("monitor-wire", monitor::wire),
    ("monitor-inproc", monitor::inproc),
    ("inventory-rw", inventory::run),
    ("monitor-sharded", monitor::sharded),
];

/// Workloads whose episodes run on one CPU: `monitor-wire`'s client
/// and server take turns, so a second CPU adds no parallelism, only a
/// wake-up of the other virtual CPU on every hand-off, which the
/// hypervisor makes slow and, with other tenants' load, unsteady.
const ONE_CPU: [&str; 1] = ["monitor-wire"];

/// Where runs keep their databases and traces, under the working
/// directory.
const OUT_DIR: &str = ".reachbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process is a run's child that runs one episode.
    episode: Option<(usize, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut episode = None;
    let mut run_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--episode" => episode = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let episode = match (episode, run_dir) {
        (Some(k), Some(dir)) => Some((k, dir)),
        (None, None) => None,
        _ => return Err("--episode and --run-dir go together".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        episode,
    })
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: reachbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn quoted(items: impl Iterator<Item = String>) -> String {
    items
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some((name, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let mut plan = Plan {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        one_cpu: ONE_CPU.contains(name),
        dir: out_dir.join(format!("run-{name}-{}", std::process::id())),
    };

    if let Some((k, dir)) = args.episode {
        plan.dir = dir;
        return match workload(&plan, k) {
            Ok(ep) => {
                println!("{}", ep.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{name}: episode {k}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let result = harness::run(&plan);
    let _ = std::fs::remove_dir_all(&plan.dir);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let attempted = out.failures.attempted();
    let failed = out.failures.failed();
    let trace_file = if args.trace {
        plan.trace_file().display().to_string()
    } else {
        String::new()
    };
    let correct = out.mismatch_count == 0 && attempted > 0;
    let settings: Vec<String> = out
        .settings
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"settings\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}, \
         \"failures\": {}, \"mismatch_count\": {}, \"mismatches\": [{}], \
         \"trace_file\": \"{trace_file}\", \"spans\": {}, \"spans_dropped\": {}}}}}",
        args.seed,
        num(args.seconds),
        args.trace,
        nproc(),
        settings.join(", "),
        out.e2e.to_json(None),
        out.layers.to_json(None),
        out.failures.errors_json(),
        out.mismatch_count,
        quoted(out.mismatches.iter().cloned()),
        out.spans,
        out.spans_dropped,
    );
    for m in &out.mismatches {
        eprintln!("{name}: output check failed: {m}");
    }
    let metrics = if args.trace {
        out.layers.to_json(None)
    } else {
        out.e2e.to_json(Some(&GATED))
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
