//! Inputs are a pure function of the seed.

use stdbench::inputs::{Inputs, Scale, Workload};

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 7, Scale::Smoke);
        let b = Inputs::generate(w, 7, Scale::Smoke);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        for (x, y) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(x.csv, y.csv);
            assert_eq!(x.corpora, y.corpora);
            assert_eq!(x.users, y.users);
        }
        let c = Inputs::generate(w, 8, Scale::Smoke);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "{}: the seed matters",
            w.name()
        );
    }
    // The benchmark's own sizes, on the workload cheapest to generate.
    let a = Inputs::generate(Workload::ExecUnsampled, 3, Scale::Full);
    let b = Inputs::generate(Workload::ExecUnsampled, 3, Scale::Full);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// User scripts come from their own seed stream, not a corpus's: no
/// corpus starts with the user scripts. (The template libraries are
/// small, so single scripts do coincide: about half of NLP's.)
#[test]
fn user_scripts_are_drawn_apart_from_the_corpus() {
    let inputs = Inputs::generate(Workload::InteractiveSampled, 5, Scale::Full);
    for p in inputs.profiles.iter().filter(|p| !p.known_fault) {
        for corpus in &p.corpora {
            assert_ne!(p.users[..3], corpus[..3], "{}", p.profile.name);
        }
    }
}

#[test]
fn batches_carry_forked_duplicates() {
    let inputs = Inputs::generate(Workload::BatchCorpus, 5, Scale::Smoke);
    for p in &inputs.profiles {
        for batch in &p.batches {
            let forks: Vec<_> = batch
                .iter()
                .filter(|s| s.name.ends_with("__fork"))
                .collect();
            assert!(!forks.is_empty());
            for f in forks {
                let original = f.name.trim_end_matches("__fork");
                let orig = batch
                    .iter()
                    .find(|s| s.name == original)
                    .expect("fork of a batch script");
                assert_eq!(orig.source, f.source);
            }
        }
    }
}
