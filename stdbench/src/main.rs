//! `stdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of standard
//! output; `stdbench steady [--runs N] [--seconds S] [--seed-base B]`
//! repeats every declared workload and prints each end-to-end metric's
//! spread.

use std::process::ExitCode;
use stdbench::inputs::{Scale, Workload};
use stdbench::run::{run, RunOptions};

const USAGE: &str = "usage: stdbench --workload <interactive-sampled|exec-unsampled|batch-corpus> \
--seed <n> --seconds <s> --trace <0|1>\n       stdbench steady [--runs N] [--seconds S] [--seed-base B] [--workloads a,b]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("steady") {
        stdbench::steady::main(&args[1..])
    } else {
        parse(&args).and_then(|opts| {
            let outcome = run(&opts)?;
            println!("{}", outcome.json());
            // The known-fault operation fails every round by design.
            if outcome.correct && outcome.failed == outcome.known_failed {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} operations failed",
                    outcome.failed, outcome.attempted
                ))
            }
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stdbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(RunOptions {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    })
}
