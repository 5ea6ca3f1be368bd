//! Tree ensembles: CART regression trees, bagged random forests, and
//! honest causal forests.
//!
//! These serve two roles in the reproduction:
//!
//! * base regressors for the meta-learner baselines (S-/X-learner need
//!   an outcome model; we offer ridge and forests),
//! * the TPM-CF baseline of Table I, which ranks individuals by the ratio
//!   of two causal-forest CATE estimates (revenue uplift / cost uplift).
//!
//! The causal tree follows Athey & Imbens' *honest* recipe: the training
//! split is divided into a split half (chooses the tree structure by
//! maximizing effect heterogeneity) and an estimation half (provides the
//! leaf-level treatment-effect estimates), which removes the adaptive
//! overfitting bias of reusing the same data for both.

pub mod batch;
pub mod causal;
pub mod forest;
pub mod split;
pub mod tree;

pub use batch::{BlockScratch, FlatCausalForest, FlatForest, FlatTree};
pub use causal::{CausalForest, CausalForestConfig, CausalTree};
pub use forest::{RandomForest, RandomForestConfig};
pub use tree::{RegressionTree, TreeConfig};
