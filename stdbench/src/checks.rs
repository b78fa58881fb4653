//! Output checks, computed apart from the search: every standardized
//! script is re-parsed and re-executed on the workload's `D_IN` under the
//! same sampling, its intent is re-measured with the benchmark's own
//! measures, and the report's numbers are checked against each other.

use lucidscript::core::report::StandardizeReport;
use lucidscript::core::Standardizer;
use lucidscript::frame::{Column, DataFrame};
use lucidscript::interp::{BudgetUsage, Interpreter};
use lucidscript::ml::{encode_features, encode_labels, train_test_split, LogisticRegression};
use lucidscript::pyast::parse_module;
use std::collections::HashSet;

/// The intent a workload's searches must preserve.
#[derive(Debug, Clone)]
pub enum Intent {
    /// Value-set Jaccard of the two outputs at least `tau`.
    Jaccard {
        /// τ_J.
        tau: f64,
        /// Gate on Example 2.1's measure, column names included
        /// ([`value_set_jaccard`]); otherwise on the cell values alone
        /// ([`cell_value_jaccard`]), the part the program's Δ_J covers.
        with_names: bool,
    },
    /// Relative change of downstream accuracy at most `tau_pct` percent.
    ModelPerf {
        /// τ_M in percent.
        tau_pct: f64,
        /// Label column.
        target: String,
    },
}

/// What a passing check measured along the way.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The re-executed input script's output frame.
    pub base_out: DataFrame,
    /// The re-executed standardized script's output frame.
    pub std_out: DataFrame,
    /// Resources the standardized script's re-execution used.
    pub usage: BudgetUsage,
    /// Wall time of that re-execution in milliseconds.
    pub run_ms: f64,
    /// Example 2.1's value-set Jaccard of the two outputs, column names
    /// included (`None` when the intent is not τ_J or the script is
    /// unchanged).
    pub jaccard_with_names: Option<f64>,
}

/// How the τ_J check's failure message starts when it gates on Example
/// 2.1's measure with column names.
pub const NAMES_GATE: &str = "value-set Jaccard with column names";

/// Canonical key of a cell or a column name in the value set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Name(String),
    Num(i64),
    Real(u64),
    Text(String),
    Flag(bool),
}

/// Value-set Jaccard after the paper's Example 2.1: the set of distinct
/// non-null cell values of each table plus its column names, compared as
/// |A ∩ B| / |A ∪ B|, so a renamed or dropped column registers as a
/// difference. Integral floats count as their integer, so `3` and `3.0`
/// are one value, as in pandas. Two empty sets are identical.
pub fn value_set_jaccard(a: &DataFrame, b: &DataFrame) -> f64 {
    jaccard(&value_set(a, true), &value_set(b, true))
}

/// [`value_set_jaccard`] over the cell values alone, without the column
/// names: what the program's Δ_J (`frame::value_jaccard`) measures.
pub fn cell_value_jaccard(a: &DataFrame, b: &DataFrame) -> f64 {
    jaccard(&value_set(a, false), &value_set(b, false))
}

fn jaccard(sa: &HashSet<Key>, sb: &HashSet<Key>) -> f64 {
    let union = sa.union(sb).count();
    if union == 0 {
        return 1.0;
    }
    sa.intersection(sb).count() as f64 / union as f64
}

fn value_set(df: &DataFrame, names: bool) -> HashSet<Key> {
    let mut set = HashSet::new();
    for (name, col) in df.iter() {
        if names {
            set.insert(Key::Name(name.to_string()));
        }
        insert_cells(&mut set, col);
    }
    set
}

fn insert_cells(set: &mut HashSet<Key>, col: &Column) {
    use lucidscript::frame::Value;
    for i in 0..col.len() {
        let key = match col.get(i).expect("row index within the column") {
            Value::Null => continue,
            Value::Int(v) => Key::Num(v),
            Value::Float(f) if f.is_nan() => continue,
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Key::Num(f as i64),
            Value::Float(f) => Key::Real((f + 0.0).to_bits()),
            Value::Str(s) => Key::Text(s),
            Value::Bool(b) => Key::Flag(b),
        };
        set.insert(key);
    }
}

/// Downstream accuracy of a prepared table under the paper's fixed-split
/// protocol: logistic regression (120 epochs) predicting `target` from
/// every other column, trained on 75% of the rows split with seed 13 and
/// scored on the rest.
///
/// # Errors
///
/// Fails when the target is missing or the table cannot be encoded.
pub fn model_accuracy(df: &DataFrame, target: &str) -> Result<f64, String> {
    let label = df.column(target).map_err(|e| e.to_string())?;
    let y = encode_labels(label).map_err(|e| e.to_string())?;
    let x = encode_features(df, &[target]).map_err(|e| e.to_string())?;
    if x.n_rows() < 8 {
        return Err(format!("only {} rows", x.n_rows()));
    }
    let split = train_test_split(&x, &y, 0.25, 13).map_err(|e| e.to_string())?;
    let model = LogisticRegression {
        epochs: 120,
        ..Default::default()
    }
    .fit(&split.x_train, &split.y_train)
    .map_err(|e| e.to_string())?;
    Ok(model.score(&split.x_test, &split.y_test))
}

/// Relative accuracy change in percent between two prepared tables.
///
/// # Errors
///
/// Fails when either table cannot be scored.
pub fn accuracy_change_pct(
    base: &DataFrame,
    other: &DataFrame,
    target: &str,
) -> Result<f64, String> {
    let a = model_accuracy(base, target)?;
    let b = model_accuracy(other, target)?;
    Ok(if a.abs() <= f64::EPSILON {
        if b.abs() <= f64::EPSILON {
            0.0
        } else {
            100.0
        }
    } else {
        ((a - b) / a).abs() * 100.0
    })
}

/// Checks one standardize report. `interp` holds the ingested `D_IN` and
/// the search's seed and sampling; `std` scores sources against the
/// corpus; `seq_len` is the search's transformation cap.
///
/// # Errors
///
/// A message naming the first check that failed.
pub fn check_report(
    report: &StandardizeReport,
    interp: &Interpreter,
    std: &Standardizer,
    intent: &Intent,
    seq_len: usize,
) -> Result<Checked, String> {
    // Consistency of the search result.
    if report.re_after > report.re_before {
        return Err(format!(
            "RE rose: {} -> {}",
            report.re_before, report.re_after
        ));
    }
    if report.applied.len() > seq_len {
        return Err(format!(
            "{} transformations applied, cap {seq_len}",
            report.applied.len()
        ));
    }
    let pct = if report.re_before <= f64::EPSILON {
        0.0
    } else {
        (report.re_before - report.re_after) / report.re_before * 100.0
    };
    if (pct - report.improvement_pct).abs() > 1e-9 * pct.abs().max(1.0) {
        return Err(format!(
            "improvement {} does not recompute from the REs ({pct})",
            report.improvement_pct
        ));
    }
    let rescored = std
        .score_source(&report.output_source)
        .map_err(|e| format!("output does not score: {e}"))?;
    if rescored.to_bits() != report.re_after.to_bits() {
        return Err(format!(
            "re_after {} differs from the output's score {rescored}",
            report.re_after
        ));
    }

    // Re-parse and re-execute both scripts.
    let input = parse_module(&report.input_source).map_err(|e| format!("input re-parse: {e}"))?;
    let output =
        parse_module(&report.output_source).map_err(|e| format!("output re-parse: {e}"))?;
    let base_out = interp
        .run(&input)
        .map_err(|e| format!("input re-execution: {e}"))?
        .output_frame()
        .cloned()
        .ok_or("input produced no frame")?;
    let t = std::time::Instant::now();
    let (res, usage) = interp.run_with_usage(&output);
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    let std_out = res
        .map_err(|e| format!("output re-execution: {e}"))?
        .output_frame()
        .cloned()
        .ok_or("output produced no frame")?;

    // Intent, re-measured. An unchanged script preserves intent by
    // definition, whatever its measure evaluates to.
    let mut jaccard_with_names = None;
    if report.output_source != report.input_source {
        match intent {
            Intent::Jaccard { tau, with_names } => {
                let named = value_set_jaccard(&base_out, &std_out);
                if *with_names {
                    if named < *tau {
                        return Err(format!("{NAMES_GATE} {named:.4} < τ_J {tau}"));
                    }
                } else {
                    let cells = cell_value_jaccard(&base_out, &std_out);
                    if cells < *tau {
                        return Err(format!("cell-value Jaccard {cells:.4} < τ_J {tau}"));
                    }
                }
                jaccard_with_names = Some(named);
            }
            Intent::ModelPerf { tau_pct, target } => {
                let delta = accuracy_change_pct(&base_out, &std_out, target)
                    .map_err(|e| format!("accuracy not measurable: {e}"))?;
                if delta > *tau_pct + 1e-9 {
                    return Err(format!("accuracy changed {delta:.3}% > τ_M {tau_pct}%"));
                }
            }
        }
    }
    Ok(Checked {
        base_out,
        std_out,
        usage,
        run_ms,
        jaccard_with_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucidscript::frame::csv::read_csv_str;

    #[test]
    fn identical_tables_have_jaccard_one() {
        let df = read_csv_str("a,b\n1,x\n2,y\n").unwrap();
        assert_eq!(value_set_jaccard(&df, &df), 1.0);
        assert_eq!(cell_value_jaccard(&df, &df), 1.0);
        assert_eq!(value_set_jaccard(&DataFrame::new(), &DataFrame::new()), 1.0);
    }

    #[test]
    fn integral_floats_equal_integers() {
        let a = read_csv_str("v\n3\n4\n").unwrap();
        let b = read_csv_str("v\n3.0\n4.0\n").unwrap();
        assert_eq!(value_set_jaccard(&a, &b), 1.0);
    }
}
