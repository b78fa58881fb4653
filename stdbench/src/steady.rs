//! The steadiness command: runs every declared workload (or those named
//! by `--workloads`) repeatedly, alternating workloads, each run a fresh process with its own seed, and prints for
//! each end-to-end metric the median, the quartiles and the relative
//! spread `(Q3 − Q1) / median` next to the metric's bound, plus the share
//! of failed operations.

use crate::inputs::Workload;
use crate::schema::END_TO_END;
use crate::stats;
use std::collections::BTreeMap;
use std::process::Command;

/// Runs the command with `args` (after `steady`).
///
/// # Errors
///
/// Fails on bad flags, a run that exits non-zero, or an unreadable
/// result line.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut runs = 10u64;
    let mut seconds = "40".to_string();
    let mut seed_base = 1u64;
    let mut workloads: Vec<Workload> = Workload::DECLARED.to_vec();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = value.clone(),
            "--seed-base" => seed_base = value.parse().map_err(|e| format!("--seed-base: {e}"))?,
            "--workloads" => {
                workloads = value
                    .split(',')
                    .map(|w| Workload::parse(w).ok_or_else(|| format!("unknown workload {w}")))
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    // values[workload][metric] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failed_share: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        for w in &workloads {
            let seed = (seed_base + i).to_string();
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                    "--trace",
                    "0",
                ])
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !out.status.success() {
                return Err(format!("{} seed {seed} failed: {line}", w.name()));
            }
            let doc = serde_json::from_str(line)
                .map_err(|e| format!("bad result line {line:?}: {e:?}"))?;
            let attempted = doc.get("attempted").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let failed = doc.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0);
            failed_share
                .entry(w.name())
                .or_default()
                .push(failed / attempted.max(1.0));
            let row = values.entry(w.name()).or_default();
            for m in END_TO_END {
                if let Some(v) = doc
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(|x| x.as_f64())
                {
                    row.entry(m.name.to_string()).or_default().push(v);
                }
            }
            let shown: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| {
                    row.get(m.name)
                        .and_then(|v| v.last())
                        .map(|v| format!("{}={v:.4}", m.name))
                })
                .collect();
            eprintln!(
                "[steady] run {} {} seed {seed}: {}",
                i + 1,
                w.name(),
                shown.join(" ")
            );
        }
    }
    println!(
        "{:<22} {:<20} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (w, row) in &values {
        for m in END_TO_END {
            let xs = row.get(m.name).cloned().unwrap_or_default();
            let (Some(med), Some((q1, q3))) = (stats::median(&xs), stats::quartiles(&xs)) else {
                println!("{w:<22} {:<20} (fewer than two values)", m.name);
                continue;
            };
            let spread = (q3 - q1) / med;
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                "TOO WIDE"
            };
            println!(
                "{w:<22} {:<20} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.2}  {verdict}",
                m.name
            );
        }
        let shares = &failed_share[w];
        println!("{w:<22} {:<20} {:?}", "failed share", shares);
    }
    Ok(())
}
