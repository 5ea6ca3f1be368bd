//! Experiment harness: the code behind every table and figure.
//!
//! Each paper artifact has a binary (`table1`, `table2`, `fig1`, `fig5`,
//! `fig6`) that regenerates it on the dataset lookalikes and prints a
//! paper-vs-measured comparison; the Criterion benches under `benches/`
//! check the §IV-D time-complexity claims. Shared machinery lives here:
//!
//! * [`harness::TABLE1`] and [`harness::TABLE2`] — each table's methods
//!   as registry names, in the paper's row order,
//! * [`harness::run_setting`] — fit + score + AUCC for a set of methods
//!   on one (dataset, setting) cell, averaged over seeds,
//! * [`report`] — markdown table printing and JSON result persistence.

pub mod harness;
pub mod report;
