//! End-to-end and per-layer benchmark of the same-different workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--sdd <path>]
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds `sdd` and this binary first). Workloads: `serve-s953`,
//! `serve-c17`, `build-s5378`, `volume-s5378` — see `perfbench/README.md`.
//!
//! Standard output ends with two lines: a detail object (provenance, input
//! shape, and every metric the workload measured, by name and unit), then
//! the result object `{"correct","attempted","failed","metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! A traced run also writes its spans to `perfbench/out/`. Any failed
//! output check makes the exit status nonzero.

mod build_patch;
mod fixtures;
mod report;
mod serve;
mod trace;
mod volume;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_string, Outcome, END_TO_END, PER_LAYER};

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    pub trace: bool,
    /// The `sdd` binary the serve workloads start.
    pub sdd: PathBuf,
    /// Scratch directory for artifacts, removed at exit.
    pub work: PathBuf,
    /// Repository root (the working directory).
    pub root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut sdd = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--sdd" => sdd = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(root.join(".bench_build"), PathBuf::from);
    let sdd = sdd.unwrap_or_else(|| root.join(target).join("release").join("sdd"));
    let work = root
        .join("perfbench")
        .join("work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        sdd,
        work,
        root,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve-s953" => serve::run(serve::S953, args),
        "serve-c17" => serve::run(serve::C17, args),
        "build-s5378" => build_patch::run(args),
        "volume-s5378" => volume::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let provenance: Vec<String> = report::provenance(args.seed, &args.root)
        .into_iter()
        .chain([("workload", args.workload.clone())])
        .chain([("trace", u8::from(args.trace).to_string())])
        .map(|(k, v)| format!("\"{k}\":{}", json_string(&v)))
        .collect();
    let shape: Vec<String> = outcome
        .shape
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_string(v)))
        .collect();
    let header = format!(
        "{{\"provenance\":{{{}}},\"shape\":{{{}}},\"detail\":{}}}",
        provenance.join(","),
        shape.join(","),
        outcome.metrics.json(None)
    );
    if args.trace {
        let path = args
            .root
            .join("perfbench")
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload));
        match trace::dump(&path, &header, &outcome.spans) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{header}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json(Some(names))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
