//! The repository benchmark: the simulator's Figure 7 sweep and the
//! `schedtaskd` fleet under hot and miss traffic. See `README.md`.
//!
//! ```text
//! perfbench --workload sim-fig7|fleet-hot|fleet-miss --seed N --seconds S
//!           --trace 0|1 [--daemon PATH]
//! perfbench record-fig7-digests
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fleet;
mod layers;
mod report;
mod sim;
mod sys;

use std::path::{Path, PathBuf};
use std::process::exit;

use report::{Report, END_TO_END, PER_LAYER};

/// Scratch space for fleet cache directories, inside the checkout.
const RUN_DIR: &str = ".bench_run";

/// What one run measured and how many of its operations failed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
}

/// SplitMix64: every seed-derived choice in the benchmark goes through it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        daemon: PathBuf::from(".bench_build/release/schedtaskd"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: want 0 or 1")),
                }
            }
            "--daemon" => args.daemon = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn run(args: &Args, placement: &sys::Placement) -> Result<Outcome, String> {
    sys::pin_current_thread(&placement.generator)?;
    let dir = Path::new(RUN_DIR).join(&args.workload);
    let mix = match args.workload.as_str() {
        "sim-fig7" => {
            return if args.trace {
                sim::traced(args.seed)
            } else {
                sim::timed(args.seed, args.seconds)
            }
        }
        "fleet-hot" => fleet::Mix::Hot,
        "fleet-miss" => fleet::Mix::Miss,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if !args.daemon.is_file() {
        return Err(format!("no schedtaskd at {}", args.daemon.display()));
    }
    if args.trace {
        fleet::traced(mix, args.seed, args.seconds, &args.daemon, &dir, placement)
    } else {
        fleet::timed(mix, args.seed, args.seconds, &args.daemon, &dir, placement)
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("record-fig7-digests") {
        if let Err(e) = sim::record_digests() {
            eprintln!("perfbench: {e}");
            exit(1);
        }
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    let placement = sys::Placement::detect();
    let fingerprint = sys::fingerprint(&placement);
    let outcome = run(&args, &placement).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        exit(1);
    });
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = outcome.report.metrics(table).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1);
    });
    println!("fingerprint: {fingerprint}");
    println!(
        "{}",
        report::result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
}
