//! Bounded retry with exponential backoff in simulated ticks.

/// Retry policy for hop delivery: up to `max_attempts` tries, with
/// exponential backoff between attempts and a per-route deadline budget
/// measured in simulated ticks.
///
/// [`RetryPolicy::none`] (also `Default`) is the paper-faithful policy:
/// exactly one attempt, no backoff — delivery behaves exactly as the
/// fault-unaware code did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts per hop (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in simulated ticks; doubles on
    /// each further attempt (`backoff_base << (attempt - 2)`).
    pub backoff_base: u64,
    /// Total simulated-tick budget per route; once a route has spent
    /// this many ticks on backoff/delay/slow-down, no further retries
    /// are scheduled.
    pub deadline: u64,
}

impl RetryPolicy {
    /// Single attempt, no backoff — the paper-faithful policy.
    pub const fn none() -> Self {
        RetryPolicy { max_attempts: 1, backoff_base: 0, deadline: u64::MAX }
    }

    /// A policy with `max_attempts` tries, `backoff_base` initial
    /// backoff ticks, and a per-route `deadline` tick budget.
    ///
    /// Panics if `max_attempts == 0`.
    pub fn new(max_attempts: u32, backoff_base: u64, deadline: u64) -> Self {
        assert!(max_attempts >= 1, "max_attempts must be >= 1");
        RetryPolicy { max_attempts, backoff_base, deadline }
    }

    /// `true` for the single-attempt policy (no retry behavior at all).
    pub fn is_none(&self) -> bool {
        self.max_attempts <= 1
    }

    /// Backoff in ticks before the given 1-based attempt (0 for the
    /// first attempt, `backoff_base` before the second, doubling after,
    /// saturating on overflow).
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt <= 1 || self.backoff_base == 0 {
            return 0;
        }
        let doublings = attempt - 2;
        if doublings >= 64 {
            return u64::MAX;
        }
        self.backoff_base.saturating_mul(1u64 << doublings)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_single_attempt() {
        let p = RetryPolicy::none();
        assert!(p.is_none());
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_before(1), 0);
        assert_eq!(RetryPolicy::default(), p);
    }

    #[test]
    fn backoff_doubles() {
        let p = RetryPolicy::new(5, 4, 1_000);
        assert!(!p.is_none());
        assert_eq!(p.backoff_before(1), 0);
        assert_eq!(p.backoff_before(2), 4);
        assert_eq!(p.backoff_before(3), 8);
        assert_eq!(p.backoff_before(4), 16);
        assert_eq!(p.backoff_before(5), 32);
    }

    #[test]
    fn backoff_saturates() {
        let p = RetryPolicy::new(200, u64::MAX / 2, u64::MAX);
        assert_eq!(p.backoff_before(100), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "max_attempts must be >= 1")]
    fn rejects_zero_attempts() {
        let _ = RetryPolicy::new(0, 1, 10);
    }
}
