//! `mtnet-benchmark --root DIR --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! the contract's JSON result. `run.sh` builds this binary and calls it.

use mtnet_benchmark::bench::{self, Config};
use mtnet_benchmark::WORKLOADS;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mtnet-benchmark --root DIR --workload W --seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config {
        root: PathBuf::from("benchmark"),
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => cfg.root = PathBuf::from(value()?),
            "--workload" => cfg.workload = value()?,
            "--seed" => {
                cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cfg.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            cfg.workload
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&cfg) {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mtnet-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
