//! # stdbench
//!
//! End-to-end and per-layer benchmark of the LucidScript standardizer.
//! It generates seeded inputs with `lucid_corpus`, drives the public API
//! (`read_csv_str`, `Standardizer`, `standardize_corpus`), checks every
//! result apart from the search, and prints one JSON result line. See
//! `README.md` for the workloads, metrics and reference figures.

pub mod checks;
pub mod inputs;
pub mod run;
pub mod schema;
pub mod stats;
pub mod steady;
pub mod trace;
