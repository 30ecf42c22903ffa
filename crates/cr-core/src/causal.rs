//! Causal delivery for correction streams: the frontier that turns an
//! adversarial event stream (out-of-order, duplicated, delayed, partly
//! corrupt) into the in-order, exactly-once stream the revision engine
//! consumes.
//!
//! The delivery rule is Birman–Schiper–Stephenson causal ordering over the
//! per-source vector clocks of [`cr_types::CausalStamp`]: an event from
//! source `s` with sequence number `n` is deliverable once `n-1` events
//! from `s` have been delivered and every cross-source dependency recorded
//! in its vector clock has been delivered too; everything else buffers.
//! Redelivered events are dropped by their `(source, hlc)` identity.
//!
//! Concurrent value corrections to the same cell form *branches*; the
//! frontier keeps a per-cell write log and the session applies the
//! last-writer-wins pick (HLC, then source id) over the causally-maximal
//! **branch tips**. Because the tip set and the LWW pick are functions of
//! the delivered event *set*, the final cell state is independent of
//! delivery order — the property the convergence differentials
//! (`cr_oracle::resolve_causal_checked` under `cr_data`'s chaos adapter)
//! verify end-to-end against scratch re-resolution.

use std::collections::{BTreeMap, BTreeSet};

use cr_types::VectorClock;
use cr_types::{AttrId, CausalStamp, Hlc, SourceId, TupleId, Value};

use crate::ingest::Revision;
use crate::spec::Specification;

/// One causally-stamped upstream correction.
#[derive(Clone, Debug, PartialEq)]
pub struct CausalRevision {
    /// Who asserted it, when, and with what causal knowledge.
    pub stamp: CausalStamp,
    /// The correction itself.
    pub rev: Revision,
}

/// A push stream of causally-stamped corrections. Unlike
/// [`crate::ingest::RevisionSource`], the stream also reports how many
/// events it still holds, so drivers know when draining is complete (the
/// frontier may additionally hold buffered events — see
/// [`CausalFrontier::pending`]).
pub trait CausalRevisionSource {
    /// The events that arrived before interaction round `round`.
    fn poll(&mut self, round: usize, current: &Specification) -> Vec<CausalRevision>;
    /// Events not yet handed out by `poll`.
    fn remaining(&self) -> usize;
}

/// A [`CausalRevisionSource`] replaying a fixed timeline of
/// `(round, event)` entries — the canonical-order delivery the chaos
/// adapter's permutations are compared against.
#[derive(Clone, Debug, Default)]
pub struct ScriptedCausalRevisions {
    events: Vec<(usize, CausalRevision)>,
}

impl ScriptedCausalRevisions {
    /// A scripted stream from `(round, event)` pairs (stable-sorted by
    /// round, so within-round generation order is preserved).
    pub fn new(mut events: Vec<(usize, CausalRevision)>) -> Self {
        events.sort_by_key(|(round, _)| *round);
        ScriptedCausalRevisions { events }
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }
}

impl CausalRevisionSource for ScriptedCausalRevisions {
    fn poll(&mut self, round: usize, _current: &Specification) -> Vec<CausalRevision> {
        let mut due = Vec::new();
        self.events.retain(|(r, e)| {
            if *r <= round {
                due.push(e.clone());
                false
            } else {
                true
            }
        });
        due
    }

    fn remaining(&self) -> usize {
        self.events.len()
    }
}

/// One cell's log of applied value corrections, in stamp order.
pub type StampedWrites = Vec<(CausalStamp, Value)>;

/// A plain-data snapshot of a [`CausalFrontier`], used by the durable
/// session log (`cr-store`) to persist and restore delivery state.
/// [`CausalFrontier::state`] and [`CausalFrontier::from_state`] roundtrip
/// exactly (`from_state(f.state()) == f`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrontierState {
    /// Highest delivered sequence number per source.
    pub delivered: Vec<(SourceId, u64)>,
    /// Out-of-order events still waiting for their causal predecessors.
    pub buffered: Vec<CausalRevision>,
    /// `(source, hlc)` identities already seen (delivered *or* buffered).
    pub seen: Vec<(SourceId, Hlc)>,
    /// Per-cell logs of applied value corrections.
    pub writes: Vec<(TupleId, AttrId, StampedWrites)>,
    /// Redelivered events dropped (cumulative).
    pub duplicates: u64,
    /// Events buffered on arrival (cumulative).
    pub buffered_total: u64,
    /// Concurrent disagreeing writes observed (cumulative).
    pub concurrent_conflicts: u64,
}

/// The session's causal delivery state: per-source delivered watermarks,
/// out-of-order buffers, the redelivery dedup set, and the per-cell write
/// log concurrent corrections resolve through.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CausalFrontier {
    /// Highest delivered sequence number per source.
    delivered: BTreeMap<SourceId, u64>,
    /// Out-of-order events waiting for their causal predecessors, keyed by
    /// per-source sequence number.
    buffers: BTreeMap<SourceId, BTreeMap<u64, CausalRevision>>,
    /// `(source, hlc)` identities already seen (delivered *or* buffered).
    seen: BTreeSet<(SourceId, Hlc)>,
    /// Per-cell log of applied value corrections.
    writes: BTreeMap<(TupleId, AttrId), Vec<(CausalStamp, Value)>>,
    duplicates: usize,
    buffered: usize,
    concurrent_conflicts: usize,
}

impl CausalFrontier {
    /// An empty frontier (nothing delivered, nothing buffered).
    pub fn new() -> Self {
        CausalFrontier::default()
    }

    /// Feeds a batch of arrivals through dedup and causal gating; returns
    /// the events now deliverable (the batch's admissible ones plus any
    /// previously-buffered events they unblock), in causal order.
    pub fn ingest(&mut self, events: Vec<CausalRevision>) -> Vec<CausalRevision> {
        let mut released = Vec::new();
        for ev in events {
            if !self.seen.insert(ev.stamp.dedup_key()) {
                self.duplicates += 1;
                continue;
            }
            if self.deliverable(&ev.stamp) {
                self.mark_delivered(&ev.stamp);
                released.push(ev);
                self.drain_buffers(&mut released);
            } else {
                self.buffered += 1;
                self.buffers
                    .entry(ev.stamp.source)
                    .or_default()
                    .insert(ev.stamp.seq(), ev);
            }
        }
        released
    }

    /// True iff the stamped event's causal predecessors have all been
    /// delivered. A malformed stamp (sequence number 0) carries no
    /// expressible constraints and is deliverable immediately — validation
    /// downstream decides its fate. A sequence number at or below the
    /// delivered watermark is also released immediately (a stale
    /// re-emission; the apply path degrades it).
    fn deliverable(&self, stamp: &CausalStamp) -> bool {
        let seq = stamp.seq();
        if seq == 0 {
            return true;
        }
        let delivered = self.delivered.get(&stamp.source).copied().unwrap_or(0);
        if seq <= delivered {
            return true;
        }
        if delivered + 1 != seq {
            return false;
        }
        stamp
            .vclock
            .iter()
            .all(|(s, n)| s == stamp.source || self.delivered.get(&s).copied().unwrap_or(0) >= n)
    }

    fn mark_delivered(&mut self, stamp: &CausalStamp) {
        let seq = stamp.seq();
        if seq > 0 {
            let e = self.delivered.entry(stamp.source).or_insert(0);
            *e = (*e).max(seq);
        }
    }

    /// Releases buffered events to a fixpoint: each delivery may unblock
    /// further buffered events (same source's successor, or another
    /// source's cross-dependency).
    fn drain_buffers(&mut self, out: &mut Vec<CausalRevision>) {
        loop {
            let mut next: Option<(SourceId, u64)> = None;
            'scan: for (source, buf) in &self.buffers {
                for (seq, ev) in buf {
                    if self.deliverable(&ev.stamp) {
                        next = Some((*source, *seq));
                        break 'scan;
                    }
                }
            }
            let Some((source, seq)) = next else { break };
            let buf = self.buffers.get_mut(&source).expect("scanned entry exists");
            let ev = buf.remove(&seq).expect("scanned entry exists");
            if buf.is_empty() {
                self.buffers.remove(&source);
            }
            self.mark_delivered(&ev.stamp);
            out.push(ev);
        }
    }

    /// Events currently buffered (arrived, not yet causally deliverable).
    pub fn pending(&self) -> usize {
        self.buffers.values().map(|b| b.len()).sum()
    }

    /// Redelivered events dropped so far.
    pub fn duplicates_dropped(&self) -> usize {
        self.duplicates
    }

    /// Events that had to be buffered on arrival (cumulative).
    pub fn buffered_events(&self) -> usize {
        self.buffered
    }

    /// Causally-concurrent disagreeing writes observed on some cell
    /// (cumulative) — the conflicts a user interface would surface.
    pub fn concurrent_conflicts(&self) -> usize {
        self.concurrent_conflicts
    }

    /// The delivered watermark as a vector clock — the causal knowledge a
    /// locally-produced event (a user answer) is stamped with.
    pub fn delivered_vector(&self) -> VectorClock {
        let mut v = VectorClock::new();
        for (&s, &n) in &self.delivered {
            v.observe(s, n);
        }
        v
    }

    /// Records a delivered value correction in the cell's write log and
    /// returns the cell's canonical value: the last-writer-wins pick (HLC,
    /// then source id) over the causally-maximal branch tips. Both the tip
    /// set and the pick depend only on the accumulated write *set*, so the
    /// canonical value is independent of delivery order.
    pub fn record_write(
        &mut self,
        tuple: TupleId,
        attr: AttrId,
        stamp: &CausalStamp,
        value: &Value,
    ) -> Value {
        let log = self.writes.entry((tuple, attr)).or_default();
        self.concurrent_conflicts += log
            .iter()
            .filter(|(other, v)| other.concurrent_with(stamp) && v != value)
            .count();
        log.push((stamp.clone(), value.clone()));
        Self::tips_of(log)
            .into_iter()
            .max_by_key(|(s, _)| s.lww_key())
            .map(|(_, v)| v.clone())
            .expect("write log is non-empty")
    }

    /// The causally-maximal writes recorded for `(tuple, attr)`: every
    /// entry no *other* write causally observed. Empty if the cell was
    /// never corrected.
    pub fn branch_tips(&self, tuple: TupleId, attr: AttrId) -> Vec<(&CausalStamp, &Value)> {
        match self.writes.get(&(tuple, attr)) {
            Some(log) => Self::tips_of(log),
            None => Vec::new(),
        }
    }

    fn tips_of(log: &[(CausalStamp, Value)]) -> Vec<(&CausalStamp, &Value)> {
        let mut tips = Vec::new();
        for (i, (stamp, value)) in log.iter().enumerate() {
            let dominated = log
                .iter()
                .enumerate()
                .any(|(j, (other, _))| j != i && other.saw(stamp));
            if !dominated {
                tips.push((stamp, value));
            }
        }
        tips
    }

    /// Snapshots the full delivery state as plain data (for persistence).
    pub fn state(&self) -> FrontierState {
        FrontierState {
            delivered: self.delivered.iter().map(|(&s, &n)| (s, n)).collect(),
            buffered: self
                .buffers
                .values()
                .flat_map(|b| b.values().cloned())
                .collect(),
            seen: self.seen.iter().copied().collect(),
            writes: self
                .writes
                .iter()
                .map(|(&(t, a), log)| (t, a, log.clone()))
                .collect(),
            duplicates: self.duplicates as u64,
            buffered_total: self.buffered as u64,
            concurrent_conflicts: self.concurrent_conflicts as u64,
        }
    }

    /// Rebuilds a frontier from a snapshot. Inverse of
    /// [`CausalFrontier::state`]: `from_state(f.state()) == f`.
    pub fn from_state(state: FrontierState) -> Self {
        let mut f = CausalFrontier::new();
        for (s, n) in state.delivered {
            if n > 0 {
                f.delivered.insert(s, n);
            }
        }
        for ev in state.buffered {
            f.buffers
                .entry(ev.stamp.source)
                .or_default()
                .insert(ev.stamp.seq(), ev);
        }
        f.seen = state.seen.into_iter().collect();
        for (t, a, log) in state.writes {
            f.writes.insert((t, a), log);
        }
        f.duplicates = state.duplicates as usize;
        f.buffered = state.buffered_total as usize;
        f.concurrent_conflicts = state.concurrent_conflicts as usize;
        f
    }
}
