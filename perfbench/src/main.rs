//! End-to-end and per-layer benchmark of the AVCC reproduction.
//!
//! ```text
//! avcc-perfbench --workload <train-wide|serve-matvec|socket-train>
//!                --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! With `--trace 0` the last stdout line is one JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! derived from spans the benchmark records around calls into the public
//! APIs (no span sits inside the program). Every run checks the program's
//! outputs and exits non-zero when a correctness gate fails. README.md
//! records why each workload exists and which end-to-end metric each
//! layer metric should move.

mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of every tuning run, for checking a later performance claim
/// on inputs its author never measured.
pub const HELD_OUT_SEED: u64 = 7919;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Static VCC training on a `ThreadedExecutor`, GISETTE-shaped data.
    TrainWide,
    /// A burst of coded-matmul jobs through the serving `Scheduler`.
    ServeMatvec,
    /// Static VCC training over a TCP-loopback `SocketExecutor`.
    SocketTrain,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "train-wide" => Some(Workload::TrainWide),
            "serve-matvec" => Some(Workload::ServeMatvec),
            "socket-train" => Some(Workload::SocketTrain),
            _ => None,
        }
    }

    /// The workload's name as the command line spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainWide => "train-wide",
            Workload::ServeMatvec => "serve-matvec",
            Workload::SocketTrain => "socket-train",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory the traced run writes its spans to.
    pub trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25u64;
    let mut trace = false;
    let mut trace_out = PathBuf::from(".bench_build/perfbench-traces");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            "--trace-out" => trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("avcc-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} pool_threads={} \
         default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        nproc,
        avcc_pool::global().parallelism(),
    );
    let outcome: Outcome = match args.workload {
        Workload::TrainWide | Workload::SocketTrain => train::run(&args),
        Workload::ServeMatvec => serve::run(&args),
    };
    match outcome.print(args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("avcc-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
