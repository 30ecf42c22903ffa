//! Eviction/rehydration state-loss regressions: per-field differentials.
//!
//! A session evicted mid-flight must rehydrate to **exactly** the state of
//! a never-evicted twin — including the fields that only exist between
//! polls: frontier-buffered out-of-order events, undrained
//! [`take_competing`](cr_core::ResolutionSession::take_competing) cells, a
//! non-empty quarantine log (and its cap), the session epoch, and the
//! re-opened-answer bookkeeping. Each test pins one field: a regression in
//! `SessionState`/`restore` coverage fails the named test for the dropped
//! field, not just a blanket diff.

use cr_core::causal::CausalRevision;
use cr_core::ingest::Revision;
use cr_core::spec::UserInput;
use cr_core::Specification;
use cr_store::{
    diff_logical_states, FaultyBackend, MemoryBackend, SessionId, SessionStore, StoreConfig,
};
use cr_types::{EntityInstance, Schema, SourceClock, SourceId, Tuple, TupleId, Value};

const ID: SessionId = SessionId(3);

/// A minimal unconstrained spec for manual causal driving.
fn two_city_spec() -> Specification {
    let s = Schema::new("p", ["name", "city"]).unwrap();
    let e = EntityInstance::new(
        s.clone(),
        vec![
            Tuple::of([Value::str("X"), Value::str("NY")]),
            Tuple::of([Value::str("X"), Value::str("LA")]),
        ],
    )
    .unwrap();
    Specification::without_orders(e, vec![], vec![])
}

/// A store/twin pair over the same spec: the subject gets evicted, the
/// twin never does.
fn pair(
    spec: &Specification,
    snapshot_every: usize,
) -> (SessionStore<FaultyBackend<MemoryBackend>>, SessionStore<FaultyBackend<MemoryBackend>>) {
    let cfg = StoreConfig { snapshot_every, ..StoreConfig::default() };
    let mut subject =
        SessionStore::new(FaultyBackend::new(MemoryBackend::new()).unwrap(), cfg).unwrap();
    let mut twin =
        SessionStore::new(FaultyBackend::new(MemoryBackend::new()).unwrap(), cfg).unwrap();
    subject.open(ID, spec);
    twin.open(ID, spec);
    (subject, twin)
}

fn replace(tuple: TupleId, attr: cr_types::AttrId, value: &str) -> Revision {
    Revision::ReplaceValue { tuple, attr, value: Value::str(value) }
}

/// Field (a): frontier-buffered out-of-order events. Evicting a session
/// whose frontier holds an undeliverable successor must not lose the
/// buffered event — after rehydration the late predecessor still cascades
/// the full causal chain.
#[test]
fn eviction_preserves_frontier_buffered_events() {
    let spec = two_city_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let e1 = CausalRevision { stamp: s1.stamp(1), rev: replace(TupleId(0), city, "SF") };
    let e2 = CausalRevision { stamp: s1.stamp(2), rev: replace(TupleId(0), city, "Chicago") };

    for snapshot_every in [0usize, 1] {
        let (mut subject, mut twin) = pair(&spec, snapshot_every);
        // The successor arrives first and buffers at the frontier.
        assert!(subject.ingest_causal(ID, vec![e2.clone()]).unwrap().is_empty());
        assert!(twin.ingest_causal(ID, vec![e2.clone()]).unwrap().is_empty());

        assert!(subject.evict(ID).unwrap());
        let restored = subject.session(ID).unwrap();
        assert_eq!(
            restored.frontier().pending(),
            1,
            "snapshot_every {snapshot_every}: the buffered event must survive eviction"
        );
        assert_eq!(restored.revision_telemetry().buffered, 1);
        let restored_state = restored.state();
        diff_logical_states(&restored_state, &twin.session(ID).unwrap().state())
            .expect("rehydrated state ≡ never-evicted twin (buffered frontier)");

        // The late predecessor must still release the buffered successor.
        let got = subject.ingest_causal(ID, vec![e1.clone()]).unwrap();
        let want = twin.ingest_causal(ID, vec![e1.clone()]).unwrap();
        assert_eq!(got, want, "the rehydrated frontier cascades like the twin's");
        assert_eq!(got.len(), 2, "predecessor plus the released successor");
        assert_eq!(
            subject.session(ID).unwrap().current().entity().tuple(TupleId(0)).get(city),
            &Value::str("Chicago")
        );
    }
}

/// Field (b): undrained competing cells. Concurrent writes leave a
/// [`cr_core::ingest::CompetingCell`] waiting for `take_competing`;
/// evicting before the drain must not swallow it.
#[test]
fn eviction_preserves_undrained_competing_cells() {
    let spec = two_city_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let mut s2 = SourceClock::new(SourceId(2));
    let a = CausalRevision { stamp: s1.stamp(1), rev: replace(TupleId(0), city, "SF") };
    let b = CausalRevision { stamp: s2.stamp(2), rev: replace(TupleId(0), city, "Boston") };

    let (mut subject, mut twin) = pair(&spec, 0);
    subject.ingest_causal(ID, vec![a.clone(), b.clone()]).unwrap();
    twin.ingest_causal(ID, vec![a, b]).unwrap();

    assert!(subject.evict(ID).unwrap());
    let restored_state = subject.session(ID).unwrap().state();
    let twin_state = twin.session(ID).unwrap().state();
    assert_eq!(
        restored_state.competing, twin_state.competing,
        "the undrained competing-cell buffer must survive eviction"
    );
    assert!(!restored_state.competing.is_empty(), "the scenario really competes");
    diff_logical_states(&restored_state, &twin_state).expect("full logical state matches");

    // Draining after rehydration yields exactly what the twin yields.
    let drained = subject.session(ID).unwrap().take_competing();
    let twin_drained = twin.session(ID).unwrap().take_competing();
    assert_eq!(drained, twin_drained);
    assert_eq!(drained.len(), 1);
    assert_eq!((drained[0].tuple, drained[0].attr), (TupleId(0), city));
    assert!(drained[0].candidates.contains(&(SourceId(1), Value::str("SF"))));
    assert!(drained[0].candidates.contains(&(SourceId(2), Value::str("Boston"))));
    assert!(subject.session(ID).unwrap().take_competing().is_empty(), "drained once");
}

/// Field (c): the quarantine log. Quarantined `(revision, error)` pairs —
/// and the cap that bounds them — must survive eviction, so an operator
/// can still inspect rejected corrections after the session went cold.
#[test]
fn eviction_preserves_quarantine_log_and_cap() {
    let spec = two_city_spec();
    let mut s1 = SourceClock::new(SourceId(1));
    // No CFDs in this spec: every retraction quarantines (UnknownCfd).
    let bad1 = CausalRevision { stamp: s1.stamp(1), rev: Revision::RetractCfd { cfd: 7 } };
    let bad2 = CausalRevision { stamp: s1.stamp(2), rev: Revision::RetractCfd { cfd: 9 } };

    let (mut subject, mut twin) = pair(&spec, 0);
    subject.ingest_causal(ID, vec![bad1.clone(), bad2.clone()]).unwrap();
    twin.ingest_causal(ID, vec![bad1, bad2]).unwrap();

    assert!(subject.evict(ID).unwrap());
    let restored_state = subject.session(ID).unwrap().state();
    let twin_state = twin.session(ID).unwrap().state();
    assert_eq!(
        restored_state.quarantine, twin_state.quarantine,
        "the quarantine log must survive eviction"
    );
    assert_eq!(restored_state.quarantine.len(), 2, "both rejects are retained");
    assert_eq!(
        restored_state.quarantine_cap, twin_state.quarantine_cap,
        "the quarantine cap must survive eviction"
    );
    assert_eq!(restored_state.telemetry.quarantined, 2);
    diff_logical_states(&restored_state, &twin_state).expect("full logical state matches");
}

/// Fields (d)+(e): the session epoch and the re-opened-answer bookkeeping,
/// across eviction — plus the duplicate-redelivery regression on the
/// rehydrated session: redelivering the correction that re-opened an
/// accepted answer must not re-open it again after a rehydration either.
#[test]
fn eviction_preserves_epoch_and_reopen_dedup() {
    let spec = two_city_spec();
    let city = spec.schema().attr_id("city").unwrap();
    let mut s1 = SourceClock::new(SourceId(1));
    let correction =
        CausalRevision { stamp: s1.stamp(1), rev: replace(TupleId(0), city, "Boston") };
    let mut input = UserInput::empty();
    input.values.insert(city, Value::str("Paris"));

    for snapshot_every in [0usize, 2] {
        let (mut subject, mut twin) = pair(&spec, snapshot_every);
        // Accept a local answer, then deliver a causally-concurrent
        // contradicting correction: the answer re-opens.
        subject.apply_input(ID, &input).unwrap();
        twin.apply_input(ID, &input).unwrap();
        subject.ingest_causal(ID, vec![correction.clone()]).unwrap();
        twin.ingest_causal(ID, vec![correction.clone()]).unwrap();
        let twin_reopened = twin.session(ID).unwrap().revision_telemetry().reopened;
        assert_eq!(twin_reopened, 1, "snapshot_every {snapshot_every}: the scenario re-opens");

        assert!(subject.evict(ID).unwrap());
        let restored_state = subject.session(ID).unwrap().state();
        let twin_state = twin.session(ID).unwrap().state();
        assert_eq!(
            restored_state.epoch, twin_state.epoch,
            "snapshot_every {snapshot_every}: the epoch must survive eviction"
        );
        assert_eq!(restored_state.telemetry.reopened, 1);
        diff_logical_states(&restored_state, &twin_state).expect("full logical state matches");

        // Redelivering the re-opening correction after rehydration: the
        // `(source, hlc)` dedup state also survived, so nothing re-opens
        // or double-counts on either side.
        assert!(subject.ingest_causal(ID, vec![correction.clone()]).unwrap().is_empty());
        assert!(twin.ingest_causal(ID, vec![correction.clone()]).unwrap().is_empty());
        let subject_t = subject.session(ID).unwrap().revision_telemetry();
        let twin_t = twin.session(ID).unwrap().revision_telemetry();
        assert_eq!(subject_t.reopened, 1, "redelivery must not re-open again");
        assert_eq!(subject_t.duplicates_dropped, 1, "the redelivery is dropped");
        assert_eq!(subject_t.reopened, twin_t.reopened);
        assert_eq!(subject_t.duplicates_dropped, twin_t.duplicates_dropped);
        diff_logical_states(
            &subject.session(ID).unwrap().state(),
            &twin.session(ID).unwrap().state(),
        )
        .expect("states still match after the duplicate redelivery");
    }
}
