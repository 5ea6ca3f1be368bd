//! The repository benchmark: four workloads, five end-to-end metrics on
//! each, and a traced run with per-layer metrics. See `README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH
//! ```
//!
//! The last line of standard output is the result JSON.

mod data;
mod loadgen;
mod oracle;
mod pipeline;
mod report;
mod serving;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order the manifest lists them.
const WORKLOADS: [&str; 4] = [
    "serve-binary-drp",
    "serve-jsonl-feedback",
    "pipeline-rdrp",
    "pipeline-karm",
];

/// One run's settings.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The `rdrp-cli` binary the serving workloads start.
    pub cli: PathBuf,
    /// Scratch directory for this run's inputs and artifacts.
    pub work_dir: PathBuf,
    /// Where a traced run leaves its span log and server trace.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--cli" => cli = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?.max(1);
    let base = PathBuf::from(".bench_build");
    let tag = format!(
        "{workload}-seed{seed}-{}",
        if trace == Some(true) { "trace" } else { "e2e" }
    );
    Ok(RunArgs {
        work_dir: base
            .join("perfbench-work")
            .join(format!("{tag}-{}", std::process::id())),
        out_dir: base.join("perfbench-traces").join(tag),
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        cli: cli.ok_or("--cli is required")?,
    })
}

/// A fixed benchmark-owned probe: a 96×96 f64 matrix product, median of
/// five. Printed as a host diagnostic only, never used to correct a metric.
fn probe_ms() -> f64 {
    const N: usize = 96;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.5).collect();
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut c = vec![0.0f64; N * N];
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&c);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times)
}

fn host_line(when: &str) {
    let steal = sys::read_steal_ticks().map_or("n/a".to_string(), |s| s.to_string());
    println!(
        "host {when}: probe_ms {:.3} steal_ticks {steal} cpus {}",
        probe_ms(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

/// How much of a unit of work the spans of a traced run may leave
/// unaccounted for, in percent.
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

fn run(args: &RunArgs) -> Result<report::Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "serve-binary-drp" => serving::run_binary(args),
        "serve-jsonl-feedback" => serving::run_jsonl(args),
        "pipeline-rdrp" => pipeline::run_rdrp(args),
        "pipeline-karm" => pipeline::run_karm(args),
        other => Err(format!("unknown workload {other}")),
    }?;
    if let Some(pct) = outcome.values.get("trace.unattributed_pct") {
        if pct > UNATTRIBUTED_TOLERANCE_PCT {
            println!(
                "check failed: spans leave {pct:.2} % of a unit unattributed \
                 (tolerance {UNATTRIBUTED_TOLERANCE_PCT} %)"
            );
            outcome.correct = false;
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dirs = [Some(&args.work_dir), args.trace.then_some(&args.out_dir)];
    for dir in dirs.into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    host_line("before");
    let result = run(&args);
    host_line("after");
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result.and_then(|o| o.to_json(args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
