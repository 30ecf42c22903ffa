//! Per-tenant admission control: token buckets, bounded queues, and the
//! global in-flight budget.
//!
//! Admission is decided entirely at **submit** time, in deterministic
//! logical ticks: the tenant's token bucket must cover the request's cost
//! (cold sessions cost extra — they will pay a rehydration) and the
//! tenant's bounded queue must have room. Either failure sheds the
//! request with a typed `Overloaded { retry_after }` instead of queueing
//! it unboundedly — overload degrades into *fast, honest rejections*, and
//! the retry-after hint is computed from the bucket's actual refill rate
//! so well-behaved clients converge on the sustainable rate.
//!
//! Fairness is the dispatcher's job (`crate::server`): queues drain
//! round-robin, one request per tenant per turn, under a global in-flight
//! cap — a hot tenant can fill *its own* queue and nothing else.

/// Admission-control knobs. All rates and costs are in logical ticks and
/// abstract tokens — the serving harness advances time explicitly.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Tokens added to each tenant's bucket per tick (sustained rate).
    pub refill_per_tick: u64,
    /// Bucket capacity (burst allowance).
    pub burst: u64,
    /// Token cost of admitting one request for a live session.
    pub cost: u64,
    /// Extra tokens charged when the target session is cold (the touch
    /// will pay a rehydration; see `SessionStore::admission_probe`).
    pub cold_cost: u64,
    /// Bound on each tenant's queue; a submit that finds it full is shed.
    pub queue_cap: usize,
    /// Global bound on requests dispatched per [`crate::Server::dispatch`]
    /// call — the in-flight budget the round-robin scheduler divides
    /// fairly across tenants.
    pub max_in_flight: usize,
    /// Deadline stamped on requests whose envelope carries none, in ticks
    /// from submission.
    pub default_deadline: u64,
    /// Budget ticks charged per engine phase of a multi-phase read (see
    /// `cr_core::deadline::PhaseDeadline`).
    pub cost_per_phase: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            refill_per_tick: 2,
            burst: 16,
            cost: 1,
            cold_cost: 2,
            queue_cap: 32,
            max_in_flight: 8,
            default_deadline: 64,
            cost_per_phase: 1,
        }
    }
}

/// A deterministic token bucket refilled by tick arithmetic (no wall
/// clock): `tokens = min(burst, tokens + refill_per_tick · elapsed)`.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: u64,
    last_tick: u64,
}

impl TokenBucket {
    /// A bucket born full (burst available immediately) at tick `now`.
    pub fn full(cfg: &AdmissionConfig, now: u64) -> Self {
        TokenBucket {
            tokens: cfg.burst,
            last_tick: now,
        }
    }

    /// Refills for the ticks elapsed since the last interaction.
    fn refill(&mut self, cfg: &AdmissionConfig, now: u64) {
        let elapsed = now.saturating_sub(self.last_tick);
        self.last_tick = self.last_tick.max(now);
        self.tokens = self
            .tokens
            .saturating_add(elapsed.saturating_mul(cfg.refill_per_tick))
            .min(cfg.burst);
    }

    /// Tries to spend `cost` tokens at tick `now`. On failure returns the
    /// minimum ticks until the bucket could cover the cost — the
    /// `retry_after` hint carried by `Overloaded`.
    pub fn try_spend(&mut self, cfg: &AdmissionConfig, now: u64, cost: u64) -> Result<(), u64> {
        self.refill(cfg, now);
        if self.tokens >= cost {
            self.tokens -= cost;
            return Ok(());
        }
        let deficit = cost - self.tokens;
        let rate = cfg.refill_per_tick.max(1);
        Err(deficit.div_ceil(rate))
    }

    /// Tokens currently available (after a refill to `now`).
    pub fn available(&mut self, cfg: &AdmissionConfig, now: u64) -> u64 {
        self.refill(cfg, now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            refill_per_tick: 2,
            burst: 10,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn burst_then_sustained_rate() {
        let cfg = cfg();
        let mut b = TokenBucket::full(&cfg, 0);
        // The burst admits 10 requests at tick 0.
        for _ in 0..10 {
            assert!(b.try_spend(&cfg, 0, 1).is_ok());
        }
        // The 11th is shed with an honest retry-after: 1 token needs
        // ceil(1/2) = 1 tick.
        assert_eq!(b.try_spend(&cfg, 0, 1), Err(1));
        // After that tick, exactly the refilled tokens are available.
        assert!(b.try_spend(&cfg, 1, 2).is_ok());
        assert_eq!(b.try_spend(&cfg, 1, 1), Err(1));
    }

    #[test]
    fn retry_after_scales_with_cost() {
        let cfg = cfg();
        let mut b = TokenBucket::full(&cfg, 0);
        assert!(b.try_spend(&cfg, 0, 10).is_ok());
        // A cold request costing 7 needs ceil(7/2) = 4 ticks.
        assert_eq!(b.try_spend(&cfg, 0, 7), Err(4));
    }

    #[test]
    fn refill_caps_at_burst() {
        let cfg = cfg();
        let mut b = TokenBucket::full(&cfg, 0);
        assert!(b.try_spend(&cfg, 0, 10).is_ok());
        assert_eq!(b.available(&cfg, 1_000_000), cfg.burst);
    }

    #[test]
    fn time_never_runs_backwards() {
        let cfg = cfg();
        let mut b = TokenBucket::full(&cfg, 100);
        assert!(b.try_spend(&cfg, 100, 10).is_ok());
        // A stale tick neither refills nor panics.
        assert_eq!(b.available(&cfg, 50), 0);
        assert_eq!(b.available(&cfg, 101), 2);
    }
}
