//! The benchmark of record for the PaSE planner.
//!
//! ```text
//! pase-perfbench --workload <plan-cold|plan-frontier|serve-mixed> --seed <n>
//!                --seconds <s> --trace <0|1> --pase <path to the pase CLI>
//!                [--out <dir for the span dump>]
//! ```
//!
//! Every workload checks every answer it gets and prints, as its last
//! stdout line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans the benchmark records around each call into a
//! layer) with `--trace 1`. `perfbench/README.md` maps each per-layer
//! metric to the end-to-end metric and workload it should move.

mod layers;
mod plan;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads. `BENCHMARK.json` lists all but `plan-frontier`.
const WORKLOADS: [&str; 3] = ["plan-cold", "plan-frontier", "serve-mixed"];

/// Printed on every run, so the benchmark says which workload it dropped.
const FRONTIER_NOTE: &str = "plan-frontier is not in the benchmark of record: on a shared \
     2-vCPU host its CPU time per plan drifted by more than the 25 % bound between runs \
     (perfbench/README.md); it stays runnable for work on the frontier DP";

/// Settings of one run.
pub struct Opts<'a> {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The release `pase` CLI binary.
    pub pase: &'a Path,
}

/// The command line, checked.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pase: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pase = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--pase" => pase = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pase: pase.ok_or("--pase is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        workload,
        seed,
        seconds,
        trace,
        pase,
        out,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pase-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("pase-perfbench: {FRONTIER_NOTE}");
    let opts = Opts {
        seed,
        seconds,
        trace,
        pase: &pase,
    };
    let mut report = Report::default();
    let spans = match workload.as_str() {
        "plan-cold" => plan::run(plan::Mode::Cold, &opts, &mut report),
        "plan-frontier" => plan::run(plan::Mode::Frontier, &opts, &mut report),
        _ => match serve::run(&opts, &mut report) {
            Ok(spans) => spans,
            Err(e) => {
                eprintln!("pase-perfbench: serve-mixed could not run: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if let (Some(dir), false) = (&out, spans.is_empty()) {
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&spans)))
        {
            eprintln!("pase-perfbench: cannot write {}: {e}", path.display());
        }
    }
    eprint!("{}", report.table());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
