//! Causal metadata for correction streams: hybrid logical clocks and
//! per-source vector clocks.
//!
//! Real correction sources (the paper's Section 7 "value corrections from
//! users/curators") are concurrent, duplicated and delayed; whether two
//! corrections *conflict* is a property of causal concurrency, not arrival
//! order. This module provides the three pieces the revision pipeline tags
//! every upstream event with:
//!
//! * [`Hlc`] — a hybrid logical clock timestamp: totally ordered, and
//!   monotone along causal chains (an event that causally observed another
//!   carries a strictly larger HLC), so last-writer-wins over causally
//!   *incomparable* branch tips is well-defined and order-independent;
//! * [`VectorClock`] — one entry per [`SourceId`]: entry `s ↦ n` means the
//!   stamping source had seen source `s`'s events up to sequence `n`.
//!   Dominance decides causal order; mutual non-dominance is concurrency;
//! * [`CausalStamp`] — the `{source, hlc, vclock}` triple attached to each
//!   revision. The stamp's own entry `vclock[source]` is the event's
//!   per-source sequence number, which drives causal delivery (an event is
//!   deliverable once its predecessor from the same source and everything
//!   it causally depends on have been delivered) and `(source, hlc)`
//!   deduplicates redelivery.
//!
//! [`SourceClock`] is the emitter-side state machine (one per correction
//! source): it ticks the HLC, bumps the own vector-clock entry per event,
//! and `observe`s other sources' stamps to record causal dependencies —
//! modeled on the hlc/vector-clock pair of event-sourced conflict stores.

use std::collections::BTreeMap;

/// Identifies one correction source. `SourceId(0)` ([`SourceId::LOCAL`]) is
/// reserved for the resolution session itself (user answers are local
/// events: remote corrections never causally observe them, which is what
/// makes a late correction *concurrent* with an accepted answer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl SourceId {
    /// The resolution session itself (stamps user answers).
    pub const LOCAL: SourceId = SourceId(0);
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A monotone session version number. The resolution session seals one
/// epoch per committed mutation batch (a round of user input, a revision
/// batch that applied at least one event), so an epoch names a settled
/// state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch of a freshly opened session (nothing sealed yet).
    pub const ZERO: Epoch = Epoch(0);

    /// The epoch after sealing one more batch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A hybrid logical clock timestamp: `(physical, logical)` with
/// lexicographic total order. [`SourceClock`] guarantees the HLC property —
/// if event `b` causally observed event `a` then `a.hlc < b.hlc` — so
/// last-writer-wins by `(hlc, source)` over concurrent branch tips never
/// prefers a causally-overwritten value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hlc {
    /// Physical component (any monotone per-source counter; wall-clock
    /// milliseconds in deployments, a deterministic tick in tests).
    pub physical: u64,
    /// Logical component, breaking ties when events share a physical tick.
    pub logical: u32,
}

impl Hlc {
    /// Builds a timestamp.
    pub fn new(physical: u64, logical: u32) -> Self {
        Hlc { physical, logical }
    }
}

impl std::fmt::Display for Hlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.physical, self.logical)
    }
}

/// A vector clock: `source ↦ highest sequence number seen`. Absent entries
/// read as 0 (nothing seen from that source).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VectorClock {
    entries: BTreeMap<SourceId, u64>,
}

impl VectorClock {
    /// The empty clock (seen nothing).
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// The highest sequence number seen from `source` (0 if none).
    pub fn get(&self, source: SourceId) -> u64 {
        self.entries.get(&source).copied().unwrap_or(0)
    }

    /// Sets `source`'s entry to `max(current, seq)`.
    pub fn observe(&mut self, source: SourceId, seq: u64) {
        let e = self.entries.entry(source).or_insert(0);
        *e = (*e).max(seq);
    }

    /// Increments `source`'s entry and returns the new sequence number.
    pub fn bump(&mut self, source: SourceId) -> u64 {
        let e = self.entries.entry(source).or_insert(0);
        *e += 1;
        *e
    }

    /// Pointwise maximum with `other` (causal join).
    pub fn merge(&mut self, other: &VectorClock) {
        for (&s, &n) in &other.entries {
            self.observe(s, n);
        }
    }

    /// True iff `self ≥ other` pointwise: everything `other` has seen,
    /// `self` has seen too.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other.entries.iter().all(|(&s, &n)| self.get(s) >= n)
    }

    /// True iff neither clock dominates the other — the stamped events are
    /// causally concurrent.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// Iterates `(source, seq)` entries (absent = 0 entries are skipped).
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, u64)> + '_ {
        self.entries.iter().map(|(&s, &n)| (s, n))
    }
}

/// The causal stamp carried by every upstream revision: who asserted it,
/// its HLC timestamp, and the asserting source's causal knowledge at the
/// time ([`VectorClock`], whose own entry is the event's sequence number).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalStamp {
    /// The asserting source.
    pub source: SourceId,
    /// HLC timestamp (dedup key together with `source`; LWW tiebreak over
    /// concurrent branch tips).
    pub hlc: Hlc,
    /// Causal knowledge at emission; `vclock[source]` is this event's
    /// per-source sequence number.
    pub vclock: VectorClock,
}

impl CausalStamp {
    /// This event's per-source sequence number (`vclock[source]`). A
    /// well-formed stamp has `seq ≥ 1`; `seq == 0` marks a malformed stamp
    /// (no causal constraints expressible — the frontier delivers it
    /// immediately and validation decides its fate).
    pub fn seq(&self) -> u64 {
        self.vclock.get(self.source)
    }

    /// The redelivery-dedup key.
    pub fn dedup_key(&self) -> (SourceId, Hlc) {
        (self.source, self.hlc)
    }

    /// True iff this stamp causally observed `other` (its clock covers
    /// `other`'s sequence number). An event trivially saw itself.
    pub fn saw(&self, other: &CausalStamp) -> bool {
        other.seq() > 0 && self.vclock.get(other.source) >= other.seq()
    }

    /// True iff the two stamped events are causally concurrent: neither
    /// observed the other.
    pub fn concurrent_with(&self, other: &CausalStamp) -> bool {
        !self.saw(other) && !other.saw(self)
    }

    /// Last-writer-wins key over concurrent branch tips: HLC first, source
    /// id as the deterministic tiebreak.
    pub fn lww_key(&self) -> (Hlc, SourceId) {
        (self.hlc, self.source)
    }
}

/// Emitter-side clock state of one correction source: stamps events with
/// monotone HLCs and a per-source-sequenced vector clock, and records
/// causal dependencies on other sources' events via [`SourceClock::observe`].
#[derive(Clone, Debug)]
pub struct SourceClock {
    source: SourceId,
    hlc: Hlc,
    vclock: VectorClock,
}

impl SourceClock {
    /// A fresh clock for `source`.
    pub fn new(source: SourceId) -> Self {
        SourceClock {
            source,
            hlc: Hlc::default(),
            vclock: VectorClock::new(),
        }
    }

    /// The source this clock stamps for.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Records that this source saw `stamp`'s event (e.g. replicated from
    /// another source): merges the vector clock and advances the HLC past
    /// the observed timestamp, so later stamps causally dominate it.
    pub fn observe(&mut self, stamp: &CausalStamp) {
        self.vclock.merge(&stamp.vclock);
        if stamp.hlc >= self.hlc {
            self.hlc = Hlc::new(stamp.hlc.physical, stamp.hlc.logical + 1);
        }
    }

    /// Stamps the next event at physical time `physical` (any monotone
    /// tick). The HLC advances strictly; the own vector-clock entry bumps
    /// to this event's sequence number.
    pub fn stamp(&mut self, physical: u64) -> CausalStamp {
        self.hlc = if physical > self.hlc.physical {
            Hlc::new(physical, 0)
        } else {
            Hlc::new(self.hlc.physical, self.hlc.logical + 1)
        };
        self.vclock.bump(self.source);
        CausalStamp {
            source: self.source,
            hlc: self.hlc,
            vclock: self.vclock.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hlc_orders_lexicographically() {
        assert!(Hlc::new(1, 5) < Hlc::new(2, 0));
        assert!(Hlc::new(2, 0) < Hlc::new(2, 1));
        assert_eq!(Hlc::new(3, 3), Hlc::new(3, 3));
    }

    #[test]
    fn source_clock_hlc_is_strictly_monotone() {
        let mut c = SourceClock::new(SourceId(1));
        let a = c.stamp(10);
        let b = c.stamp(10); // same physical tick: logical breaks the tie
        let d = c.stamp(5); // physical regression: logical keeps advancing
        assert!(a.hlc < b.hlc);
        assert!(b.hlc < d.hlc);
        assert_eq!(a.seq(), 1);
        assert_eq!(b.seq(), 2);
        assert_eq!(d.seq(), 3);
    }

    #[test]
    fn vector_clock_dominance_and_concurrency() {
        let mut a = VectorClock::new();
        a.observe(SourceId(1), 2);
        let mut b = VectorClock::new();
        b.observe(SourceId(1), 2);
        b.observe(SourceId(2), 1);
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
        assert!(!a.concurrent_with(&b));
        let mut c = VectorClock::new();
        c.observe(SourceId(3), 1);
        assert!(a.concurrent_with(&c));
    }

    #[test]
    fn unobserved_stamps_are_concurrent_observed_are_ordered() {
        let mut s1 = SourceClock::new(SourceId(1));
        let mut s2 = SourceClock::new(SourceId(2));
        let a = s1.stamp(1);
        let b = s2.stamp(2);
        assert!(a.concurrent_with(&b), "independent sources are concurrent");

        s2.observe(&a);
        let c = s2.stamp(2);
        assert!(c.saw(&a), "after observe, later stamps cover the event");
        assert!(!a.saw(&c));
        assert!(!c.concurrent_with(&a));
        assert!(a.hlc < c.hlc, "HLC respects causality through observe");
    }

    #[test]
    fn lww_key_is_total_and_deterministic() {
        let mut s1 = SourceClock::new(SourceId(1));
        let mut s2 = SourceClock::new(SourceId(2));
        let a = s1.stamp(7);
        let b = s2.stamp(7);
        // Same physical tick: source id breaks the tie deterministically.
        assert_ne!(a.lww_key(), b.lww_key());
        let winner = if a.lww_key() > b.lww_key() { &a } else { &b };
        assert_eq!(winner.lww_key(), a.lww_key().max(b.lww_key()));
    }

    #[test]
    fn malformed_stamp_has_seq_zero() {
        let stamp = CausalStamp {
            source: SourceId(4),
            hlc: Hlc::new(1, 0),
            vclock: VectorClock::new(),
        };
        assert_eq!(stamp.seq(), 0);
        assert!(!stamp.saw(&stamp));
    }
}
