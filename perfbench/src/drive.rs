//! The Fig. 4 loop driven step by step through the public
//! `ResolutionSession` API, in the same order as the library's own
//! `Resolver` loop, with a span around every call and the latencies a
//! user of the session sees.
//!
//! Both the `interactive` workload and the traced sample of `batch` run
//! through [`drive`]; comparing its [`Decided`] with [`Decided::of`] a
//! `Resolver::resolve` outcome checks that the driven loop is the
//! library's loop.

use std::time::Instant;

use cr_core::framework::{DeductionMethod, ResolutionConfig, ResolutionOutcome, UserOracle};
use cr_core::ingest::ResolutionSession;
use cr_core::{Specification, TrueValues};

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Passes, Report};

/// What one driven resolution decided (the fields `Resolver::resolve`
/// reports for the same loop).
#[derive(Clone, Debug, PartialEq)]
pub struct Decided {
    pub valid: bool,
    pub complete: bool,
    pub resolved: TrueValues,
    pub interactions: usize,
    pub user_values: usize,
    pub ot_size: usize,
    pub injected_axioms: usize,
}

impl Decided {
    pub fn of(o: &ResolutionOutcome) -> Self {
        Decided {
            valid: o.valid,
            complete: o.complete,
            resolved: o.resolved.clone(),
            interactions: o.interactions,
            user_values: o.user_values,
            ot_size: o.ot_size,
            injected_axioms: o.injected_axioms,
        }
    }

    /// Agreement with the paper-faithful from-scratch loop, which re-encodes
    /// every round and so counts axioms and order extensions its own way.
    pub fn same_answer(&self, other: &Decided) -> bool {
        (
            self.valid,
            self.complete,
            &self.resolved,
            self.interactions,
            self.user_values,
        ) == (
            other.valid,
            other.complete,
            &other.resolved,
            other.interactions,
            other.user_values,
        )
    }
}

/// The from-scratch loop (`incremental: false`), the independent
/// reference for sampled outcomes.
pub fn scratch_config() -> ResolutionConfig {
    ResolutionConfig {
        incremental: false,
        ..ResolutionConfig::default()
    }
}

/// Latencies seen by the user of a session.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// Session open → first suggestion, or → settled answer.
    pub first_response: Samples,
    /// User answer → next suggestion, or → settled answer.
    pub round: Samples,
    /// One query: validity → deduction → true values → suggestion (or
    /// settlement).
    pub read: Samples,
    /// Absorbing one user answer (`apply_input`).
    pub write: Samples,
}

/// Work counts of driven resolutions; every field repeats exactly for a
/// given seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub entities: u64,
    pub clauses: u64,
    pub vars: u64,
    pub bytes: u64,
    pub isvalid_calls: u64,
    pub isvalid_axioms: u64,
    pub deduce_calls: u64,
    pub deduce_axioms: u64,
    pub truevalue_calls: u64,
    pub suggest_calls: u64,
    pub suggest_axioms: u64,
    pub suggest_size: u64,
    pub inputs: u64,
    pub ot_added: u64,
    pub retraction_replays: u64,
    pub retraction_invalidated: u64,
}

/// Resolves `spec` with `oracle` as the user, one public session call at a
/// time. `id` labels the spans.
pub fn drive(
    config: &ResolutionConfig,
    spec: &Specification,
    oracle: &mut dyn UserOracle,
    tr: &Tracer,
    id: u64,
    lat: &mut Latencies,
    counts: &mut Counts,
) -> Decided {
    let opened = Instant::now();
    let mut session = tr.span("encode", id, || ResolutionSession::new(config, spec));
    counts.entities += 1;
    counts.clauses += session.encoded().cnf().num_clauses() as u64;
    counts.vars += u64::from(session.encoded().cnf().num_vars());
    counts.bytes += session.encoded().approx_bytes() as u64;

    // The user-visible wait in progress: from the open, then from each answer.
    let mut waiting_since = opened;
    let mut first = true;
    let settle = |lat: &mut Latencies, since: Instant, first: &mut bool| {
        let waited = since.elapsed();
        if std::mem::take(first) {
            lat.first_response.push(waited);
        } else {
            lat.round.push(waited);
        }
    };

    let arity = spec.schema().arity();
    let mut last_values = TrueValues::new(vec![None; arity]);
    let (mut interactions, mut user_values, mut ot_size) = (0, 0, 0);
    let mut valid = true;
    for round in 0..=config.max_rounds {
        let query = Instant::now();
        let before = session.injected_axioms();
        valid = tr.span("isvalid", id, || session.is_valid());
        counts.isvalid_calls += 1;
        counts.isvalid_axioms += (session.injected_axioms() - before) as u64;
        if !valid {
            lat.read.push(query.elapsed());
            settle(lat, waiting_since, &mut first);
            break;
        }
        let before = session.injected_axioms();
        let od = tr
            .span("deduce", id, || {
                session.deduce(DeductionMethod::UnitPropagation)
            })
            .expect("deduction cannot conflict on a valid specification");
        counts.deduce_calls += 1;
        counts.deduce_axioms += (session.injected_axioms() - before) as u64;
        let values = tr.span("truevalue", id, || session.true_values(&od));
        counts.truevalue_calls += 1;
        last_values = values.clone();
        if values.complete() || round == config.max_rounds {
            lat.read.push(query.elapsed());
            settle(lat, waiting_since, &mut first);
            break;
        }
        let before = session.injected_axioms();
        let sug = tr.span("suggest", id, || session.suggest(&od, &values));
        counts.suggest_calls += 1;
        counts.suggest_axioms += (session.injected_axioms() - before) as u64;
        counts.suggest_size += sug.len() as u64;
        lat.read.push(query.elapsed());
        settle(lat, waiting_since, &mut first);

        let input = oracle.provide(spec.schema(), &sug);
        if input.is_empty() {
            break; // the user settles with partial true values
        }
        interactions += 1;
        user_values += input.values.len();
        waiting_since = Instant::now();
        let added = tr.span("ingest", id, || session.apply_input(&input));
        lat.write.push(waiting_since.elapsed());
        counts.inputs += 1;
        counts.ot_added += added as u64;
        ot_size += added;
    }
    let (replays, invalidated, _) = session.replays();
    counts.retraction_replays += replays as u64;
    counts.retraction_invalidated += invalidated as u64;
    Decided {
        valid,
        complete: valid && last_values.complete(),
        resolved: last_values,
        interactions,
        user_values,
        ot_size,
        injected_axioms: session.injected_axioms(),
    }
}

/// The engine-layer metrics of driven resolutions: busy times per traced
/// pass, counts of one pass.
pub(crate) fn set_engine_layers<P>(report: &mut Report, c: &Counts, passes: &Passes<P>) {
    let per_entity = |v: u64| v as f64 / c.entities.max(1) as f64;
    report.set("encode.busy_ms", passes.busy_ms("encode"));
    report.set("encode.open_p99_ms", passes.span_p99_ms("encode"));
    report.set("encode.clauses_per_entity", per_entity(c.clauses));
    report.set("encode.vars_per_entity", per_entity(c.vars));
    report.set("encode.bytes_per_entity", per_entity(c.bytes));
    report.set("isvalid.busy_ms", passes.busy_ms("isvalid"));
    report.set("isvalid.calls", c.isvalid_calls as f64);
    report.set("isvalid.injected_axioms", c.isvalid_axioms as f64);
    report.set("deduce.busy_ms", passes.busy_ms("deduce"));
    report.set("deduce.calls", c.deduce_calls as f64);
    report.set("deduce.injected_axioms", c.deduce_axioms as f64);
    report.set("truevalue.busy_ms", passes.busy_ms("truevalue"));
    report.set("truevalue.calls", c.truevalue_calls as f64);
    report.set("suggest.busy_ms", passes.busy_ms("suggest"));
    report.set("suggest.calls", c.suggest_calls as f64);
    report.set("suggest.injected_axioms", c.suggest_axioms as f64);
    report.set(
        "suggest.mean_size",
        c.suggest_size as f64 / c.suggest_calls.max(1) as f64,
    );
    report.set("ingest.input_busy_ms", passes.busy_ms("ingest"));
    report.set("ingest.inputs", c.inputs as f64);
    report.set("ingest.ot_added", c.ot_added as f64);
    report.set("ingest.retraction_replays", c.retraction_replays as f64);
    report.set(
        "ingest.retraction_invalidated",
        c.retraction_invalidated as f64,
    );
}
