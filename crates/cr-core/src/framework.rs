//! The interactive conflict-resolution framework (Fig. 4).
//!
//! Each round: (1) validity checking, (2) true-value deducing, (3) check
//! whether `T(Se ⊕ Ot)` exists, (4) otherwise generate a suggestion, obtain
//! user input and extend the specification. The user is abstracted behind
//! [`UserOracle`]; experiments plug in [`GroundTruthOracle`] (the paper
//! "simulated user interactions by providing true values for suggested
//! attributes, some with new values").
//!
//! # Incremental resolution engine
//!
//! The Fig. 4 loop is the system's hot path: every user interaction
//! re-enters validity checking and deduction on a specification that grew
//! by one tuple. With [`ResolutionConfig::incremental`] (the default) the
//! loop runs on an engine that keeps three pieces of state alive across
//! rounds instead of rebuilding them:
//!
//! * the [`EncodedSpec`](crate::encode::EncodedSpec) — user answers
//!   drawn from the interned value space are absorbed by
//!   [`ResolutionSession::apply_input`], which appends the unit clauses
//!   and Σ instances induced by the fresh user-input tuple (value spaces
//!   and the Ω(Se) instantiation of the original tuples are invariant
//!   under such input);
//! * one CDCL [`cr_sat::Solver`] shared by the validity check and (for
//!   [`DeductionMethod::NaiveSat`]) the deduction probes — clauses learnt
//!   in any phase of any round prune the search in all later ones;
//! * one *deducer*, a second solver loaded the same way but never
//!   searched: its root trail ([`cr_sat::Solver::root_trail`]) is the
//!   unit-propagation fixpoint, which resumes when the per-round clause
//!   delta arrives, so `DeduceOrder` does work proportional to the
//!   delta's consequences.
//!
//! # Consumers are views of Φ(Se)
//!
//! Answers outside the interned space ("new values" in the paper's
//! terminology) change the value spaces and the Γ instantiation. The
//! engine keeps one rule for them: the encoding is the one source of
//! truth, and the two solvers are views of its CNF.
//!
//! * A new value appends its order variables and units to the encoding,
//!   and every CFD referencing the grown attribute loses its clauses and
//!   is re-emitted over the grown space (`EncodedSpec::extend_with_input`).
//! * A deletion shifts clause indices, so the solvers cannot follow it by
//!   their tail sync: at its next call the engine rebuilds both from the
//!   encoding, each on its old allocations. The rebuilt warm solver loses
//!   its learnt clauses.
//! * Every other answer only appends, and both solvers take the tail.
//!
//! Few answers pay for a rebuild. A count of the extensions in 4 s runs
//! of the repository benchmark at seed 11 (2 cores): in `interactive`,
//! 1,965 of 26,570 answers (7.4%) carried an out-of-domain value and 480
//! (1.8%) deleted CFD clauses; in `serve` (its setup-check replays
//! included), 584 of 35,578 grew the space and 44 (0.12%) deleted; in
//! `batch`, none of 95,922 did either.
//! [`ResolutionOutcome::retractions`] counts these rebuilds per
//! resolution.
//!
//! At each round boundary the engine also compacts the solver's learnt
//! database (`cr_sat::Solver::compact_learnts`), bounding memory over
//! arbitrarily long interactions.
//!
//! # Order axioms as a theory
//!
//! The `O(n³)`-per-attribute order axioms are never clauses of `Φ(Se)`. The
//! encoding registers its order atoms with every solver, which holds the
//! axioms as the built-in order theory of `cr_sat::order` and applies it
//! inside its own propagation, rebuilding an axiom instance as a reason
//! clause only when conflict analysis asks for it. Deduction reads the
//! root trail of the never-searched deducer, so one propagation engine
//! serves `DeduceOrder` and CDCL alike. The MaxSAT repair registers the
//! same domains on its solver. No query adds a clause to `Φ(Se)`. The
//! session's steps run the same bodies as the one-shot
//! `is_valid_encoded`, `deduce_order`, `naive_deduce` and `suggest`, over
//! warm solvers instead of fresh ones (`fresh_solver`). See the "One
//! encoding, and the oracle's reference CNF" section of the encode module
//! docs for the encoding, the oracles' reference CNF and the
//! differential-test coverage.
//!
//! # The from-scratch oracle
//!
//! With `incremental: false` the same loop body runs on a **fresh
//! [`ResolutionSession`] per round**: the session is opened on the
//! extended specification with the engine's encoding, answered
//! against, and discarded — an answer extends a copy of the
//! specification, never the session. Every round therefore re-encodes
//! and constructs fresh solvers, as the paper describes the loop, so
//! extension and the rebuilds that deletions cause are checked against
//! re-encoding. This is the differential-testing baseline
//! (`tests/incremental_differential.rs`) and the paper-faithful baseline
//! for benchmarks. The extended and rebuilt solvers are checked against
//! the reference CNF of a fresh encoding by the per-round oracle
//! (`check_session_against_scratch` in `cr-store`'s harness, run by
//! `tests/lazy_differential.rs` and every replay and recovery
//! differential).
//!
//! Independent entities share no *mutable* state;
//! [`crate::sched::resolve_batch`] fans a batch of resolutions across
//! the worker threads of [`crate::sched`], which pop whole entities off
//! one bounded queue. What entities do share is the dataset's immutable
//! `Arc<CompiledProgram>` (stamped by the dataset generators): Σ/Γ are
//! compiled once per dataset and every entity on every thread only
//! projects through the shared program — see the "Compiled constraint
//! programs" section of the encode module docs. Workers additionally pool
//! per-entity solver scratch ([`ResolutionSession`] teardown feeds the
//! next resolution's solver construction), and streaming ingestion feeds
//! the same queue ([`crate::sched::resolve_stream`]) so unresolved
//! entities never pile up unboundedly ahead of the workers.

use std::time::{Duration, Instant};

use cr_types::{Schema, Tuple};

use crate::deduce::DeducedOrders;
use crate::ingest::{CompetingCell, ResolutionSession, RevisionSource, RevisionTelemetry};
use crate::spec::{Specification, UserInput};
use crate::suggest::Suggestion;
use crate::truevalue::TrueValues;

/// How implied orders are deduced in step (2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeductionMethod {
    /// `DeduceOrder` — unit propagation (fast, sound, incomplete).
    #[default]
    UnitPropagation,
    /// `NaiveDeduce` — complete via per-variable SAT probes.
    NaiveSat,
}

/// Configuration of the resolution loop.
#[derive(Clone, Copy, Debug)]
pub struct ResolutionConfig {
    /// Maximum user-interaction rounds before settling with partial values.
    pub max_rounds: usize,
    /// Deduction algorithm.
    pub deduction: DeductionMethod,
    /// Reuse the encoding and both solvers across rounds (see
    /// the module docs). `false` opens a fresh session on the extended
    /// specification every round, re-deriving everything exactly as the
    /// paper describes the loop.
    pub incremental: bool,
}

impl Default for ResolutionConfig {
    fn default() -> Self {
        ResolutionConfig {
            max_rounds: 10,
            deduction: DeductionMethod::UnitPropagation,
            incremental: true,
        }
    }
}

/// Per-round measurements (the breakdown plotted in Fig. 8(c)/(d)).
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round number (0 = before any interaction).
    pub round: usize,
    /// Time spent in validity checking: the SAT solve, plus — on the
    /// from-scratch loop's rounds after the first — re-opening the session
    /// (encode + solver construction). Round 0's session is opened before
    /// the loop in both modes and is not timed here.
    pub validity: Duration,
    /// Time spent deducing orders and true values.
    pub deduce: Duration,
    /// Time spent generating the suggestion (zero on the final round).
    pub suggest: Duration,
    /// Attributes with known true values after this round's deduction.
    pub known_after_deduce: usize,
    /// Size `|A|` of the suggestion shown to the user (0 if none needed).
    pub suggestion_size: usize,
    /// Attributes the user answered.
    pub user_answers: usize,
    /// Revision telemetry of the events absorbed before this round's
    /// validity check — the round's delta of the session's
    /// [`ResolutionSession::revision_telemetry`] (all 0 without a revision
    /// source). `events_coalesced` and `replays_saved` report what its
    /// multi-event batches shared; `quarantined` counts the events that
    /// failed validation under the session's
    /// [`RevisionPolicy`](crate::ingest::RevisionPolicy).
    pub revisions: RevisionTelemetry,
    /// Cells holding causally-concurrent competing candidates after this
    /// round's revision drain — the branch tips (plus any re-opened local
    /// answer) a caller should present to the user instead of a bare
    /// re-open. Empty on non-causal streams.
    pub competing: Vec<CompetingCell>,
}

impl RoundReport {
    /// A report for a round that ended without a suggestion: invalid
    /// specification, complete true values, or the final allowed round.
    pub(crate) fn settled(
        round: usize,
        validity: Duration,
        deduce: Duration,
        known: usize,
    ) -> Self {
        RoundReport {
            round,
            validity,
            deduce,
            suggest: Duration::ZERO,
            known_after_deduce: known,
            suggestion_size: 0,
            user_answers: 0,
            revisions: RevisionTelemetry::default(),
            competing: Vec::new(),
        }
    }
}

/// Outcome of a resolution run.
#[derive(Clone, Debug)]
pub struct ResolutionOutcome {
    /// Final per-attribute true values (possibly partial).
    pub resolved: TrueValues,
    /// True iff the initial specification (and every extension) was valid.
    pub valid: bool,
    /// True iff `T(Se ⊕ Ot)` was found for all attributes.
    pub complete: bool,
    /// Number of interaction rounds that involved the user.
    pub interactions: usize,
    /// Total attributes answered by the user across rounds.
    pub user_values: usize,
    /// Total size of the order extension `|Ot|` accumulated from input.
    pub ot_size: usize,
    /// Always 0: the order axioms are the solvers' theory, so no query
    /// adds a clause to `Φ(Se)`. Kept only because the benchmark reads it
    /// (`perfbench/src/drive.rs`), like `RevisionTelemetry::cone_union`.
    pub injected_axioms: usize,
    /// Engine rebuilds that answers caused: out-of-domain answers whose
    /// extension deleted CFD clauses (0 on the scratch path).
    pub retractions: usize,
    /// Push-based correction telemetry: upstream revision events absorbed,
    /// delivered, degraded and coalesced (all 0 without a revision source
    /// — see [`Resolver::resolve_with_revisions`]).
    pub revisions: RevisionTelemetry,
    /// Per-round timing/progress reports.
    pub rounds: Vec<RoundReport>,
}

/// A source of true values for suggested attributes.
pub trait UserOracle {
    /// Answers (a subset of) the suggestion. Returning an empty input makes
    /// the framework settle with the true values derived so far.
    fn provide(&mut self, schema: &Schema, suggestion: &Suggestion) -> UserInput;
}

/// An oracle that never answers — resolution is purely automatic (the
/// "0-interaction" configuration of the experiments).
pub struct SilentOracle;

impl UserOracle for SilentOracle {
    fn provide(&mut self, _schema: &Schema, _suggestion: &Suggestion) -> UserInput {
        UserInput::empty()
    }
}

/// Answers from a ground-truth tuple, like the paper's simulated users. Can
/// be capped to `max_attrs_per_round` to exercise multi-round interaction.
pub struct GroundTruthOracle {
    truth: Tuple,
    /// Maximum attributes answered per round (`usize::MAX` = all asked).
    pub max_attrs_per_round: usize,
}

impl GroundTruthOracle {
    /// An oracle answering every asked attribute from `truth`.
    pub fn new(truth: Tuple) -> Self {
        GroundTruthOracle {
            truth,
            max_attrs_per_round: usize::MAX,
        }
    }

    /// An oracle answering at most `cap` attributes per round.
    pub fn with_cap(truth: Tuple, cap: usize) -> Self {
        GroundTruthOracle {
            truth,
            max_attrs_per_round: cap,
        }
    }
}

impl UserOracle for GroundTruthOracle {
    fn provide(&mut self, _schema: &Schema, suggestion: &Suggestion) -> UserInput {
        // Answer the most *influential* attributes first: users naturally
        // validate the values other facts hinge on (George's `status` in
        // Example 12). Influence = number of selected derivation rules
        // mentioning the attribute on their left-hand side.
        let mut ranked: Vec<cr_types::AttrId> = suggestion.ask.keys().copied().collect();
        let influence = |attr: cr_types::AttrId| {
            suggestion
                .rules
                .iter()
                .filter(|r| r.lhs.iter().any(|(a, _)| *a == attr))
                .count()
        };
        ranked.sort_by_key(|&a| (std::cmp::Reverse(influence(a)), a));
        let mut input = UserInput::empty();
        for attr in ranked.into_iter().take(self.max_attrs_per_round) {
            let v = self.truth.get(attr).clone();
            if !v.is_null() {
                input.values.insert(attr, v);
            }
        }
        input
    }
}

/// The framework driver.
pub struct Resolver {
    config: ResolutionConfig,
}

impl Resolver {
    /// A resolver with the given configuration.
    pub fn new(config: ResolutionConfig) -> Self {
        Resolver { config }
    }

    /// A resolver with default configuration.
    pub fn default_config() -> Self {
        Resolver::new(ResolutionConfig::default())
    }

    /// Runs the loop of Fig. 4 on `spec` with `oracle` as the user, on the
    /// incremental engine or — with [`ResolutionConfig::incremental`] off —
    /// on a fresh session per round.
    pub fn resolve(&self, spec: &Specification, oracle: &mut dyn UserOracle) -> ResolutionOutcome {
        self.resolve_pooled(spec, oracle, &mut None)
    }

    /// [`Resolver::resolve`] with a solver scratch the scheduler's workers
    /// cycle across their resolutions: the round-0 session's solver is
    /// built from `scratch` and the spent session is torn back into it.
    /// Outcome-identical to a fresh solver — a scratch-built solver starts
    /// in the same state.
    pub(crate) fn resolve_pooled(
        &self,
        spec: &Specification,
        oracle: &mut dyn UserOracle,
        scratch: &mut Option<cr_sat::SolverScratch>,
    ) -> ResolutionOutcome {
        let session = ResolutionSession::with_scratch(spec, scratch.take());
        let (outcome, session) = self.drive_session(spec, oracle, None, session);
        *scratch = Some(session.into_solver_scratch());
        outcome
    }

    /// This resolver's configuration.
    pub fn config(&self) -> &ResolutionConfig {
        &self.config
    }

    /// [`Resolver::resolve`] with a **push stream of upstream corrections**:
    /// before each interaction round the `source` is polled and every
    /// pending [`crate::ingest::Revision`] — a retracted CFD, a withdrawn
    /// currency order or user answer, a corrected value — is absorbed into
    /// the session's specification as one batch; the round's validity check
    /// then re-encodes it (see the [`crate::ingest`] module docs).
    /// [`ResolutionOutcome::revisions`] reports the events applied,
    /// degraded and coalesced.
    ///
    /// Always runs one session across all rounds, opened like
    /// [`ResolutionSession::new`]; the differential harness
    /// `cr_oracle::resolve_with_revisions_checked` proves it equivalent to
    /// a fresh resolution of the post-revision specification.
    pub fn resolve_with_revisions(
        &self,
        spec: &Specification,
        oracle: &mut dyn UserOracle,
        source: &mut dyn RevisionSource,
    ) -> ResolutionOutcome {
        let session = ResolutionSession::new(&self.config, spec);
        self.drive_session(spec, oracle, Some(source), session).0
    }

    /// The Fig. 4 loop body over a pre-built round-0 session, returning
    /// the spent session alongside the outcome so callers can recycle its
    /// solver allocations ([`ResolutionSession::into_solver_scratch`]) —
    /// the scheduler's workers resolve thousands of entities each
    /// and pool their scratch across resolutions.
    ///
    /// The incremental engine absorbs each answer into the live session.
    /// The from-scratch loop ([`ResolutionConfig::incremental`] off, no
    /// revision stream) never extends a session: it applies the answer to
    /// a copy of the current specification and re-opens the next round's
    /// session on it, inside that round's validity timer.
    pub(crate) fn drive_session(
        &self,
        spec: &Specification,
        oracle: &mut dyn UserOracle,
        mut source: Option<&mut dyn RevisionSource>,
        mut session: ResolutionSession,
    ) -> (ResolutionOutcome, ResolutionSession) {
        // A revision stream mutates the live session, so it always runs
        // on one session.
        let from_scratch = !self.config.incremental && source.is_none();
        let mut rounds = Vec::new();
        let mut interactions = 0;
        let mut user_values = 0;
        let mut ot_size = 0;
        // From scratch: the extended specification the next round re-opens
        // on.
        let mut reopen: Option<Specification> = None;
        let arity = spec.schema().arity();
        let mut last_values = TrueValues::new(vec![None; arity]);

        let outcome = |session: &ResolutionSession,
                       resolved: TrueValues,
                       valid: bool,
                       complete: bool,
                       interactions: usize,
                       user_values: usize,
                       ot_size: usize,
                       rounds: Vec<RoundReport>| {
            ResolutionOutcome {
                resolved,
                valid,
                complete,
                interactions,
                user_values,
                ot_size,
                injected_axioms: session.injected_axioms(),
                retractions: session.replays().0,
                revisions: session.revision_telemetry(),
                rounds,
            }
        };

        for round in 0..=self.config.max_rounds {
            // (0) Drain the correction stream: upstream events that arrived
            // since the last round are absorbed before validity is
            // re-checked (which re-encodes the corrected specification).
            let before = session.revision_telemetry();
            if let Some(src) = source.as_deref_mut() {
                let revs = src.poll(round, session.current());
                if !revs.is_empty() {
                    // The whole poll is one batch, and the engine
                    // re-encodes once regardless of the poll size. The
                    // production session runs under its degradation
                    // policy (default: quarantine), so a malformed event
                    // is logged and counted, not propagated.
                    session
                        .absorb_revision_batch(&revs)
                        .expect("default policy never rejects");
                }
            }
            let revisions = session.revision_telemetry().since(&before);
            // Competing-candidate cells drained once per round (populated
            // only by causally-stamped streams; empty here unless a custom
            // driver interleaved `ingest_causal` calls).
            let mut competing = session.take_competing();
            let mut stamp_revisions = |report: &mut RoundReport| {
                report.revisions = revisions;
                report.competing = std::mem::take(&mut competing);
            };

            // (1) Validity checking. The incremental engine only re-solves
            // after the delta; from scratch, every round after the first
            // re-encodes and constructs fresh solvers here.
            let t0 = Instant::now();
            if let Some(next) = reopen.take() {
                session = ResolutionSession::with_scratch(&next, None);
            }
            let valid = session.is_valid();
            let validity = t0.elapsed();
            if !valid {
                let mut report = RoundReport::settled(round, validity, Duration::ZERO, 0);
                stamp_revisions(&mut report);
                rounds.push(report);
                let o = outcome(
                    &session,
                    last_values,
                    false,
                    false,
                    interactions,
                    user_values,
                    ot_size,
                    rounds,
                );
                return (o, session);
            }

            // (2) True value deducing.
            let t1 = Instant::now();
            let od: DeducedOrders = session
                .deduce(self.config.deduction)
                .expect("deduction cannot conflict on a valid specification");
            let values = session.true_values(&od);
            let deduce = t1.elapsed();
            last_values = values.clone();

            // (3) T(Se ⊕ Ot) exists?
            if values.complete() {
                let mut report =
                    RoundReport::settled(round, validity, deduce, values.known_count());
                stamp_revisions(&mut report);
                rounds.push(report);
                let o = outcome(
                    &session,
                    values,
                    true,
                    true,
                    interactions,
                    user_values,
                    ot_size,
                    rounds,
                );
                return (o, session);
            }
            if round == self.config.max_rounds {
                let mut report =
                    RoundReport::settled(round, validity, deduce, values.known_count());
                stamp_revisions(&mut report);
                rounds.push(report);
                break;
            }

            // (4) Generate a suggestion and ask the user.
            let t2 = Instant::now();
            let sug = session.suggest(&od, &values);
            let suggest_time = t2.elapsed();
            let input = oracle.provide(spec.schema(), &sug);
            let mut report = RoundReport {
                suggest: suggest_time,
                suggestion_size: sug.len(),
                user_answers: input.values.len(),
                ..RoundReport::settled(round, validity, deduce, values.known_count())
            };
            stamp_revisions(&mut report);
            rounds.push(report);
            if input.is_empty() {
                break; // user settles with partial true values
            }
            interactions += 1;
            user_values += input.values.len();
            if from_scratch {
                let mut next = session.current().clone();
                ot_size += next.apply_user_input(&input).1;
                reopen = Some(next);
            } else {
                ot_size += session.apply_input(&input);
            }
        }

        let o = outcome(
            &session,
            last_values.clone(),
            true,
            last_values.complete(),
            interactions,
            user_values,
            ot_size,
            rounds,
        );
        (o, session)
    }
}

/// Convenience: resolve with the default configuration and a ground-truth
/// oracle, returning the outcome.
pub fn resolve_with_truth(spec: &Specification, truth: &Tuple) -> ResolutionOutcome {
    let mut oracle = GroundTruthOracle::new(truth.clone());
    Resolver::default_config().resolve(spec, &mut oracle)
}

/// Fraction of attributes resolved, used by the Fig. 8(e)/(i)/(m) plots.
pub fn resolved_fraction(outcome: &ResolutionOutcome, schema: &Schema) -> f64 {
    outcome.resolved.known_count() as f64 / schema.arity() as f64
}

/// Pretty-prints a resolved tuple (`?` for unresolved attributes).
pub fn render_resolved(schema: &Schema, values: &TrueValues) -> String {
    let parts: Vec<String> = schema
        .iter()
        .map(|(id, a)| {
            format!(
                "{}: {}",
                a.name(),
                values
                    .get(id)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "?".to_string())
            )
        })
        .collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
    use cr_types::{EntityInstance, Schema, Value};

    fn edith_spec_and_truth() -> (Specification, Tuple) {
        let s = Schema::new(
            "person",
            [
                "name", "status", "job", "kids", "city", "AC", "zip", "county",
            ],
        )
        .unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([
                    Value::str("Edith"),
                    Value::str("working"),
                    Value::str("nurse"),
                    Value::int(0),
                    Value::str("NY"),
                    Value::int(212),
                    Value::str("10036"),
                    Value::str("Manhattan"),
                ]),
                Tuple::of([
                    Value::str("Edith"),
                    Value::str("retired"),
                    Value::str("n/a"),
                    Value::int(3),
                    Value::str("SFC"),
                    Value::int(415),
                    Value::str("94924"),
                    Value::str("Dogtown"),
                ]),
                Tuple::of([
                    Value::str("Edith"),
                    Value::str("deceased"),
                    Value::str("n/a"),
                    Value::Null,
                    Value::str("LA"),
                    Value::int(213),
                    Value::str("90058"),
                    Value::str("Vermont"),
                ]),
            ],
        )
        .unwrap();
        let sigma = parse_currency_file(
            &s,
            r#"
            phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
            phi2: t1[status] = "retired" && t2[status] = "deceased" -> t1 <[status] t2
            phi3: t1[job] = "sailor" && t2[job] = "veteran" -> t1 <[job] t2
            phi4: t1[kids] < t2[kids] -> t1 <[kids] t2
            phi5: t1 <[status] t2 -> t1 <[job] t2
            phi6: t1 <[status] t2 -> t1 <[AC] t2
            phi7: t1 <[status] t2 -> t1 <[zip] t2
            phi8: t1 <[city] t2 && t1 <[zip] t2 -> t1 <[county] t2
            "#,
        )
        .unwrap();
        let gamma = parse_cfd_file(
            &s,
            r#"
            psi1: AC = 213 -> city = "LA"
            psi2: AC = 212 -> city = "NY"
            "#,
        )
        .unwrap();
        let truth = Tuple::of([
            Value::str("Edith"),
            Value::str("deceased"),
            Value::str("n/a"),
            Value::int(3),
            Value::str("LA"),
            Value::int(213),
            Value::str("90058"),
            Value::str("Vermont"),
        ]);
        (Specification::without_orders(e, sigma, gamma), truth)
    }

    /// Example 2: Edith's true tuple is derived fully automatically —
    /// no user interaction at all.
    #[test]
    fn edith_resolves_with_zero_interactions() {
        let (spec, truth) = edith_spec_and_truth();
        let mut oracle = SilentOracle;
        let outcome = Resolver::default_config().resolve(&spec, &mut oracle);
        assert!(outcome.valid);
        assert!(outcome.complete, "Edith must resolve automatically");
        assert_eq!(outcome.interactions, 0);
        let resolved = outcome.resolved.to_tuple().unwrap();
        assert_eq!(resolved.values(), truth.values());
    }

    #[test]
    fn invalid_spec_is_reported_not_panicked() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![Tuple::of([Value::int(1)]), Tuple::of([Value::int(2)])],
        )
        .unwrap();
        let sigma = parse_currency_file(
            &s,
            "t1[a] = 1 && t2[a] = 2 -> t1 <[a] t2\nt1[a] = 2 && t2[a] = 1 -> t1 <[a] t2\n",
        )
        .unwrap();
        let spec = Specification::without_orders(e, sigma, vec![]);
        let outcome = Resolver::default_config().resolve(&spec, &mut SilentOracle);
        assert!(!outcome.valid);
        assert!(!outcome.complete);
    }

    #[test]
    fn silent_oracle_settles_with_partial_values() {
        let s = Schema::new("p", ["name", "city"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::str("X"), Value::str("NY")]),
                Tuple::of([Value::str("X"), Value::str("LA")]),
            ],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let outcome = Resolver::default_config().resolve(&spec, &mut SilentOracle);
        assert!(outcome.valid);
        assert!(!outcome.complete);
        assert_eq!(outcome.resolved.known_count(), 1); // name only
        assert_eq!(outcome.interactions, 0);
        assert_eq!(outcome.rounds.len(), 1);
    }

    #[test]
    fn ground_truth_oracle_completes_ambiguous_specs() {
        let s = Schema::new("p", ["name", "city"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::str("X"), Value::str("NY")]),
                Tuple::of([Value::str("X"), Value::str("LA")]),
            ],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let truth = Tuple::of([Value::str("X"), Value::str("LA")]);
        let outcome = resolve_with_truth(&spec, &truth);
        assert!(outcome.complete);
        assert_eq!(outcome.interactions, 1);
        assert_eq!(
            outcome.resolved.to_tuple().unwrap().values(),
            truth.values()
        );
        assert!(outcome.ot_size > 0);
    }

    #[test]
    fn out_of_domain_answer_triggers_a_retraction() {
        // CFD: AC = 213 → city = "LA". The truth's AC is outside the active
        // domain, so the oracle's answer grows the space, deletes the CFD's
        // clauses and must show up as a rebuild.
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let gamma = parse_cfd_file(&s, "psi: AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        let truth = Tuple::of([Value::int(999), Value::str("NY")]);
        let outcome = resolve_with_truth(&spec, &truth);
        assert!(outcome.complete, "resolution must finish");
        assert!(
            outcome.retractions > 0,
            "the CFD deletion must rebuild the engine: {outcome:?}"
        );
    }

    #[test]
    fn render_resolved_marks_unknowns() {
        let s = Schema::new("p", ["a", "b"]).unwrap();
        let values = TrueValues::new(vec![Some(Value::int(1)), None]);
        assert_eq!(render_resolved(&s, &values), "(a: 1, b: ?)");
    }
}
