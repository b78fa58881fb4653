//! The output checks themselves, and a second seed passing all of them.

use lucidscript::frame::csv::read_csv_str;
use stdbench::checks::{accuracy_change_pct, cell_value_jaccard, value_set_jaccard};
use stdbench::inputs::{Scale, Workload};
use stdbench::run::{run, RunOptions};

/// Two outputs in the manner of the paper's Example 2.1: one script fills
/// a missing cell, the other drops its row. Cell values
/// {1, 0, 3, x, y, z} against {1, 3, x, z} share 4 of 6; with the column
/// names a and b added to both sets, 6 of 8.
#[test]
fn jaccard_on_example_2_1_tables() {
    let filled = read_csv_str("a,b\n1,x\n0,y\n3,z\n").unwrap();
    let dropped = read_csv_str("a,b\n1,x\n3,z\n").unwrap();
    assert!((value_set_jaccard(&filled, &dropped) - 6.0 / 8.0).abs() < 1e-12);
    assert!((cell_value_jaccard(&filled, &dropped) - 4.0 / 6.0).abs() < 1e-12);
    // Nulls are not values; a renamed column only shows with names.
    let nulls = read_csv_str("a,b\n1,x\n,\n3,z\n").unwrap();
    assert_eq!(value_set_jaccard(&nulls, &dropped), 1.0);
    let renamed = read_csv_str("a,c\n1,x\n3,z\n").unwrap();
    assert!((value_set_jaccard(&renamed, &dropped) - 5.0 / 7.0).abs() < 1e-12);
    assert_eq!(cell_value_jaccard(&renamed, &dropped), 1.0);
}

#[test]
fn accuracy_change_of_a_table_with_itself_is_zero() {
    let mut csv = String::from("f,g,y\n");
    for i in 0..60 {
        csv.push_str(&format!("{},{},{}\n", i % 7, (i * 3) % 5, i % 2));
    }
    let df = read_csv_str(&csv).unwrap();
    assert_eq!(accuracy_change_pct(&df, &df, "y"), Ok(0.0));
    assert!(accuracy_change_pct(&df, &df, "missing").is_err());
}

#[test]
fn a_second_seed_passes_every_check() {
    for w in Workload::ALL {
        let outcome = run(&RunOptions {
            workload: w,
            seed: 2,
            seconds: 0.2,
            trace: false,
            scale: Scale::Smoke,
        })
        .expect("smoke run");
        assert!(outcome.correct, "{}: {:?}", w.name(), outcome.failures);
        assert_eq!(
            outcome.failed,
            outcome.known_failed,
            "{}: {:?}",
            w.name(),
            outcome.failures
        );
        assert!(outcome.attempted > 0);
    }
}

/// The known-fault operation ends every round of a τ_J workload and fails
/// its Example 2.1 gate every time, so the failed share is one operation
/// per round whatever the seed.
#[test]
fn the_known_fault_fails_once_per_round() {
    for seed in [3, 4] {
        let outcome = run(&RunOptions {
            workload: Workload::InteractiveSampled,
            seed,
            seconds: 0.2,
            trace: false,
            scale: Scale::Smoke,
        })
        .expect("smoke run");
        // Six profiles and the known-fault operation per round.
        assert_eq!(outcome.attempted % 7, 0);
        assert_eq!(outcome.known_failed, outcome.attempted / 7);
        assert_eq!(
            outcome.failed, outcome.known_failed,
            "{:?}",
            outcome.failures
        );
    }
}
