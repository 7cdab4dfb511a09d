//! The Atropos benchmark: three closed-loop workloads with one client,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detect-cold|repair-loop|fleet-store|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
//! each workload in a child process of its own (so that peak memory is per
//! workload) and passes their output through. `--write-reference`
//! regenerates `reference.txt` from the current code.
//!
//! See `README.md` in this directory for the workloads, the metric
//! definitions and the pinned engine configuration.

mod detect_cold;
mod fleet_store;
mod harness;
mod programs;
mod quality;
mod reference;
mod repair_loop;
mod trace;
mod trace_metrics;
mod yardstick;

use std::process::ExitCode;

use harness::{Args, Workload};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--write-reference" => args.write_reference = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() && !args.write_reference {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The engine configuration is pinned in code; a stray `ATROPOS_*`
/// variable would change what library defaults read, so it is refused.
fn refuse_atropos_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("ATROPOS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Runs every workload in its own child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for name in harness::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    refuse_atropos_env()?;
    if args.write_reference {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
        std::fs::write(path, reference::generate()?).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
        return Ok(true);
    }
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "all" => return run_all(&args),
        "detect-cold" => Box::new(detect_cold::DetectCold::new(args.seed)?),
        "repair-loop" => Box::new(repair_loop::RepairLoop::new(args.seed)?),
        "fleet-store" => Box::new(fleet_store::FleetStore::new(args.seed)?),
        other => return Err(format!("unknown workload {other}")),
    };
    harness::run(&args, workload.as_mut())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
