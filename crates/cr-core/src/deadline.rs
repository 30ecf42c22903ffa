//! Deadline-aware execution budgets for serving-layer entry points.
//!
//! The serving layer ([`cr-server`]) stamps every request with an absolute
//! deadline measured in logical server **ticks** (no wall clock anywhere —
//! the harness advances time explicitly, so timeout behaviour is
//! deterministic and replayable under seeded test). A multi-phase request
//! (e.g. `TrueValues` = is-valid → deduce → extract, `Suggest` adds a
//! repair pass) threads one [`PhaseDeadline`] through its phases: each
//! phase first *checks* the budget and then *charges* its cost, so a
//! request can expire mid-flight between phases instead of only at queue
//! boundaries. The caller enters one phase
//! ([`PhaseDeadline::enter_phase`]) before each engine step it runs.
//!
//! [`cr-server`]: https://docs.rs/cr-server

/// A request ran past its deadline. Carries the tick the budget expired at
/// and how far past it the violating phase would have landed, so callers
/// can report lateness honestly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The absolute deadline tick the request was admitted with.
    pub deadline: u64,
    /// The virtual tick the request had reached when the check failed.
    pub now: u64,
}

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadline exceeded: at tick {} with deadline {} (late by {})",
            self.now,
            self.deadline,
            self.now.saturating_sub(self.deadline)
        )
    }
}

impl std::error::Error for DeadlineExceeded {}

/// A phase-charged deadline budget.
///
/// `now` starts at the tick the request was dequeued and advances by
/// `cost_per_phase` each time a phase completes. A phase whose *start*
/// tick is already past `deadline` fails with [`DeadlineExceeded`]; work
/// inside a phase is never interrupted (phases are the cancellation
/// granularity, matching the engine's atomic solve/deduce/extract steps).
#[derive(Clone, Copy, Debug)]
pub struct PhaseDeadline {
    now: u64,
    deadline: u64,
    cost_per_phase: u64,
}

impl PhaseDeadline {
    /// A budget dequeued at `now` that expires after tick `deadline`,
    /// charging `cost_per_phase` ticks per completed phase.
    pub fn new(now: u64, deadline: u64, cost_per_phase: u64) -> Self {
        Self { now, deadline, cost_per_phase }
    }

    /// An effectively unbounded budget (deadline `u64::MAX`), for callers
    /// that charge phases without a timeout.
    pub fn unbounded() -> Self {
        Self { now: 0, deadline: u64::MAX, cost_per_phase: 0 }
    }

    /// The virtual tick the budget has advanced to.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The absolute deadline tick.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Fails iff the budget is already spent (`now > deadline`). Called at
    /// every phase boundary *before* the phase runs.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.now > self.deadline {
            Err(DeadlineExceeded { deadline: self.deadline, now: self.now })
        } else {
            Ok(())
        }
    }

    /// Charges one completed phase, advancing `now`.
    pub fn charge(&mut self) {
        self.now = self.now.saturating_add(self.cost_per_phase);
    }

    /// `check` + `charge` in phase order: admit the phase against the
    /// current tick, then advance past it. Returns the error of the
    /// *check*, i.e. the phase did not run if this fails.
    pub fn enter_phase(&mut self) -> Result<(), DeadlineExceeded> {
        self.check()?;
        self.charge();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_expires_between_phases() {
        // Dequeued at tick 10, deadline 12, 2 ticks/phase: phases start at
        // 10, 12, 14 — the third phase must fail.
        let mut b = PhaseDeadline::new(10, 12, 2);
        assert!(b.enter_phase().is_ok());
        assert!(b.enter_phase().is_ok());
        let err = b.enter_phase().unwrap_err();
        assert_eq!(err, DeadlineExceeded { deadline: 12, now: 14 });
        assert_eq!(err.to_string(), "deadline exceeded: at tick 14 with deadline 12 (late by 2)");
    }

    #[test]
    fn already_late_fails_immediately() {
        let mut b = PhaseDeadline::new(9, 3, 1);
        assert!(b.enter_phase().is_err());
    }

    #[test]
    fn unbounded_never_expires() {
        let mut b = PhaseDeadline::unbounded();
        for _ in 0..1000 {
            assert!(b.enter_phase().is_ok());
        }
    }
}
