//! Bounded retry with deterministic, seeded jitter.
//!
//! The serving stack retries exactly two kinds of operation: loading an
//! artifact whose file is briefly unavailable (registry hot-swap racing
//! a deploy's rename) and connecting to a TCP endpoint that is still
//! binding. Both want the same shape: a *bounded* number of attempts,
//! exponential spacing so a struggling disk or listener is not hammered,
//! and jitter so many clients do not retry in lockstep. Unbounded loops
//! and wall-clock-seeded jitter are both banned here — the first pins
//! threads forever (the failure mode this PR's TCP hardening removes),
//! the second breaks trace determinism. Jitter draws from a xorshift
//! stream seeded by [`BackoffPolicy::seed`], so a test can pin the exact
//! delay schedule.

use std::time::Duration;

/// A bounded exponential-backoff schedule.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Total attempts, the first included. Zero behaves as one: the
    /// operation always runs at least once.
    pub attempts: u32,
    /// Delay before the second attempt.
    pub base: Duration,
    /// Multiplier between consecutive delays.
    pub factor: f64,
    /// Per-delay ceiling, applied before jitter.
    pub cap: Duration,
    /// Jitter amplitude as a fraction of the delay: each delay is
    /// scaled by a factor drawn uniformly from `1.0 ± jitter`. Zero
    /// disables jitter.
    pub jitter: f64,
    /// Seed of the jitter stream — fixed seed, fixed schedule.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            factor: 2.0,
            cap: Duration::from_secs(1),
            jitter: 0.2,
            seed: 0x5eed,
        }
    }
}

impl BackoffPolicy {
    /// The delay before attempt `attempt + 1` (so `delay(0)` separates
    /// the first attempt from the second), jitter applied.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.factor.powi(attempt.min(63) as i32);
        let raw = self.base.as_secs_f64() * exp;
        let capped = raw.min(self.cap.as_secs_f64());
        let jittered = capped * self.jitter_factor(attempt);
        Duration::from_secs_f64(jittered.max(0.0))
    }

    /// The full delay schedule: one entry between each consecutive pair
    /// of attempts.
    pub fn delays(&self) -> Vec<Duration> {
        (0..self.attempts.saturating_sub(1))
            .map(|i| self.delay(i))
            .collect()
    }

    // xorshift64* keyed by (seed, attempt): stateless, so `delay` is a
    // pure function and concurrent callers cannot skew each other's
    // schedules.
    fn jitter_factor(&self, attempt: u32) -> f64 {
        if self.jitter <= 0.0 {
            return 1.0;
        }
        let mut s = (self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let unit = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter * (2.0 * unit - 1.0)
    }
}

/// Runs `op` up to `policy.attempts` times, sleeping the policy's delay
/// between attempts. Retries only errors `retryable` accepts; the first
/// non-retryable error (and the final attempt's error) returns as-is.
/// `op` receives the 0-based attempt index.
///
/// # Errors
/// The last error `op` produced when every allowed attempt failed, or
/// the first non-retryable one.
pub fn retry<T, E>(
    policy: &BackoffPolicy,
    mut op: impl FnMut(u32) -> Result<T, E>,
    retryable: impl Fn(&E) -> bool,
) -> Result<T, E> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt + 1 >= attempts || !retryable(&e) {
                    return Err(e);
                }
                std::thread::sleep(policy.delay(attempt));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn fast() -> BackoffPolicy {
        BackoffPolicy {
            attempts: 4,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
            ..BackoffPolicy::default()
        }
    }

    #[test]
    fn delays_are_deterministic_per_seed_and_bounded() {
        let p = BackoffPolicy::default();
        assert_eq!(p.delays(), p.delays());
        let other = BackoffPolicy {
            seed: 99,
            ..BackoffPolicy::default()
        };
        assert_ne!(p.delays(), other.delays());
        for d in p.delays() {
            // Cap plus full jitter headroom.
            assert!(
                d <= Duration::from_secs_f64(1.0 * (1.0 + p.jitter)),
                "{d:?}"
            );
        }
        assert_eq!(p.delays().len(), 4);
    }

    #[test]
    fn zero_jitter_is_pure_exponential_under_the_cap() {
        let p = BackoffPolicy {
            attempts: 4,
            base: Duration::from_millis(10),
            factor: 2.0,
            cap: Duration::from_secs(1),
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(
            p.delays(),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
            ]
        );
    }

    #[test]
    fn retry_stops_on_success() {
        let calls = Cell::new(0u32);
        let result: Result<u32, &str> = retry(
            &fast(),
            |i| {
                calls.set(calls.get() + 1);
                if i < 2 {
                    Err("transient")
                } else {
                    Ok(i)
                }
            },
            |_| true,
        );
        assert_eq!(result, Ok(2));
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn retry_gives_up_after_the_attempt_budget() {
        let calls = Cell::new(0u32);
        let result: Result<(), &str> = retry(
            &fast(),
            |_| {
                calls.set(calls.get() + 1);
                Err("still down")
            },
            |_| true,
        );
        assert_eq!(result, Err("still down"));
        assert_eq!(calls.get(), 4);
    }

    #[test]
    fn retry_respects_non_retryable_errors() {
        let calls = Cell::new(0u32);
        let result: Result<(), &str> = retry(
            &fast(),
            |_| {
                calls.set(calls.get() + 1);
                Err("fatal")
            },
            |e| *e != "fatal",
        );
        assert_eq!(result, Err("fatal"));
        assert_eq!(calls.get(), 1);
    }
}
