//! Evaluation metrics for ROI ranking.
//!
//! The paper's metric is the **Area Under the Cost Curve (AUCC)**: sort
//! individuals by predicted ROI, sweep a treatment-fraction cutoff from 0
//! to 100%, estimate the *incremental* benefit and cost of treating each
//! top-k set from the RCT labels, and plot cumulative incremental benefit
//! against cumulative incremental cost (both normalized to end at 1). A
//! random ranking walks the diagonal (AUCC = 0.5); a perfect ROI ranking
//! bows the curve up-left (AUCC → 1).
//!
//! [`qini()`] and [`uplift_at_k`] are standard companions used by the
//! ablation analysis, and [`rank_correlation`] supports model-selection
//! diagnostics.

pub mod aucc;
pub mod qini;
pub mod ranking;

pub use aucc::{aucc_checked, aucc_from_labels, aucc_oracle, cost_curve, CostCurvePoint};
pub use qini::{qini, uplift_at_k};
pub use ranking::rank_correlation;
