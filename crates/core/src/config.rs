//! Hyperparameter configuration.
//!
//! The paper states DRP and rDRP share hyperparameters with \[5\]: one
//! hidden layer of 10–100 units (we default to 64), MC dropout repeated
//! 10–100 times (we default to 50), calibration sets of 1 000–10 000
//! points, binary-search tolerance around 1e-3 (we use 1e-4), and a
//! conformal error rate α = 0.1.

/// DRP training hyperparameters.
#[derive(Debug, Clone)]
pub struct DrpConfig {
    /// Hidden layer width (paper: 10–100).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Dropout probability (also the MC-dropout layer's rate).
    pub dropout: f64,
    /// Global gradient-norm clip.
    pub grad_clip: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
}

tinyjson::json_struct!(DrpConfig {
    hidden,
    epochs,
    batch_size,
    lr,
    dropout,
    grad_clip,
    weight_decay
});

impl Default for DrpConfig {
    fn default() -> Self {
        DrpConfig {
            hidden: 64,
            epochs: 40,
            batch_size: 256,
            lr: 1e-3,
            dropout: 0.1,
            grad_clip: 5.0,
            weight_decay: 1e-5,
        }
    }
}

/// rDRP post-processing hyperparameters (on top of [`DrpConfig`]).
#[derive(Debug, Clone)]
pub struct RdrpConfig {
    /// Underlying DRP configuration.
    pub drp: DrpConfig,
    /// MC-dropout passes (paper: 10–100).
    pub mc_passes: usize,
    /// Dropout rate of the MC layer at inference. The paper *adds* a
    /// dropout layer for MC inference, so this need not equal the
    /// training rate; 0.5 is the Gal & Ghahramani convention.
    pub mc_dropout: f64,
    /// Conformal miscoverage level α.
    pub alpha: f64,
    /// Binary-search tolerance ε for Algorithm 2.
    pub search_eps: f64,
    /// Floor for the MC std before dividing (keeps Eq. 3 finite).
    pub std_floor: f64,
    /// Spread threshold below which the calibration-set MC stds are
    /// declared degenerate (near-constant uncertainty): when
    /// `max(std) − min(std)` on the calibration set is at most this
    /// value, rDRP falls back to plain DRP ranking in
    /// [`crate::calibrate::DegradedMode::DegenerateUncertainty`].
    pub std_degeneracy_eps: f64,
}

tinyjson::json_struct!(RdrpConfig {
    drp,
    mc_passes,
    mc_dropout,
    alpha,
    search_eps,
    std_floor,
    std_degeneracy_eps
});

impl Default for RdrpConfig {
    fn default() -> Self {
        RdrpConfig {
            drp: DrpConfig::default(),
            mc_passes: 50,
            mc_dropout: 0.5,
            alpha: 0.1,
            search_eps: 1e-4,
            // Floor on r̂(x) before dividing in Eq. 3. Too small a floor
            // lets near-deterministic predictions blow the conformal
            // score (and hence q̂) up by orders of magnitude; 1e-3 is
            // ~1% of a typical MC std.
            std_floor: 1e-3,
            // A healthy MC-dropout pass spreads stds by ~1e-2; a spread
            // at the floor's own scale means the stds are all the floor.
            std_degeneracy_eps: 1e-6,
        }
    }
}

impl RdrpConfig {
    /// Validates ranges; returns the first problem found.
    pub fn validate(&self) -> Option<String> {
        if self.drp.hidden == 0 {
            return Some("hidden must be positive".into());
        }
        if !(0.0..1.0).contains(&self.drp.dropout) {
            return Some("dropout must be in [0,1)".into());
        }
        if self.mc_passes == 0 {
            return Some("mc_passes must be positive".into());
        }
        if !(0.0..1.0).contains(&self.mc_dropout) {
            return Some("mc_dropout must be in [0,1)".into());
        }
        if !(0.0 < self.alpha && self.alpha < 1.0) {
            return Some("alpha must be in (0,1)".into());
        }
        if self.search_eps <= 0.0 {
            return Some("search_eps must be positive".into());
        }
        if self.std_floor <= 0.0 {
            return Some("std_floor must be positive".into());
        }
        if self.std_degeneracy_eps < 0.0 {
            return Some("std_degeneracy_eps must be non-negative".into());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert_eq!(RdrpConfig::default().validate(), None);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = RdrpConfig {
            alpha: 1.0,
            ..RdrpConfig::default()
        };
        assert!(c.validate().unwrap().contains("alpha"));
        let c = RdrpConfig {
            mc_passes: 0,
            ..RdrpConfig::default()
        };
        assert!(c.validate().unwrap().contains("mc_passes"));
        let mut c = RdrpConfig::default();
        c.drp.dropout = 1.0;
        assert!(c.validate().unwrap().contains("dropout"));
        let c = RdrpConfig {
            search_eps: 0.0,
            ..RdrpConfig::default()
        };
        assert!(c.validate().unwrap().contains("search_eps"));
    }

    #[test]
    fn serde_roundtrip() {
        use tinyjson::{FromJson, ToJson};
        let c = RdrpConfig::default();
        let json = tinyjson::to_string(&c.to_json());
        let back = RdrpConfig::from_json(&tinyjson::from_str(&json).unwrap()).unwrap();
        assert_eq!(back.mc_passes, c.mc_passes);
        assert_eq!(back.drp.hidden, c.drp.hidden);
    }
}
