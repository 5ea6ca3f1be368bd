//! A minimal feed-forward neural-network framework.
//!
//! The rDRP paper's models (DRP itself, Direct Rank, TARNet, DragonNet,
//! OffsetNet, SNet) are all small multilayer perceptrons — one hidden layer
//! with 10–100 units in the paper's setup. This crate implements exactly
//! what those models need and nothing more:
//!
//! * [`Dense`] layers with manual backprop (no autograd — the
//!   computation graphs here are static chains).
//! * [`Dropout`] with three execution modes, including the
//!   **Monte-Carlo-active** mode that rDRP uses at *inference* time to
//!   estimate the standard deviation of its point predictions
//!   ([`mc::mc_predict`]).
//! * Custom training objectives via the [`Objective`] trait: the DRP loss
//!   (Eq. 2 of the paper) and the Direct Rank loss need per-sample
//!   gradients that depend on treatment labels and batch-level
//!   normalization, so objectives receive the batch's dataset row indices.
//! * The [`Adam`] optimizer and a minibatch [`trainer`].
//! * [`MultiHeadNet`] — a shared trunk with several heads, for the
//!   TARNet/DragonNet/OffsetNet/SNet baselines.
//!
//! Everything is deterministic given a [`linalg::random::Prng`] seed.
//!
//! Fallibility: the [`trainer`] returns typed [`TrainError`]s instead of
//! panicking, and guards every epoch with divergence sentinels plus a
//! checkpoint-rollback/LR-halving retry loop (see [`trainer::train`]).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod activation;
pub mod dense;
pub mod dropout;
pub mod error;
mod init;
pub mod karm;
pub mod mc;
pub mod mlp;
pub mod multihead;
pub mod objective;
pub mod optimizer;
pub mod trainer;

pub use activation::Activation;
pub use dense::Dense;
pub use dropout::{Dropout, Mode};
pub use error::{DivergenceCause, TrainError};
pub use karm::{build_karm_net, train_arm_heads};
pub use mc::{mc_predict, mc_predict_map, McStats};
pub use mlp::{BlockWorkspace, Mlp, Workspace};
pub use multihead::MultiHeadNet;
pub use objective::{BceObjective, MseObjective, Objective};
pub use optimizer::Adam;
pub use trainer::{train, Recovery, TrainConfig, TrainReport};

/// Training buffers a layer reuses from one step to the next, boxed so
/// they do not widen the layer.
///
/// A clone starts with empty buffers: they hold only the latest batch,
/// which belongs to the original network, and copying them would make
/// every trainer checkpoint and MC-rate variant pay for a batch it never
/// backpropagates.
#[derive(Debug, Default)]
pub(crate) struct Scratch<T>(Box<T>);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl<T> std::ops::Deref for Scratch<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
