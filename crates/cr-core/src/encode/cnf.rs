//! `ConvertToCNF`: from instance constraints to the CNF Φ(Se).
//!
//! # Guard-literal clause groups
//!
//! The lazy kind ([`EncodedSpec::encode_lazy`]; see the "Encoding kinds"
//! section of the encode module docs) emits the CFD instance constraints
//! as **retractable clause groups**, one group per CFD. The eager kinds
//! emit them as plain clauses. The lifecycle:
//!
//! 1. *Emission* — a group allocates a fresh guard variable `g`; every
//!    clause of the group carries the extra literal `¬g`, so the clauses
//!    are vacuous until `g` is asserted.
//! 2. *Activation* — consumers assert `g`: fresh solvers/propagators add
//!    the unit clauses [`EncodedSpec::active_guards`]
//!    (see [`EncodedSpec::fresh_solver`]); the incremental engine's warm
//!    solver instead carries the guards as persistent *assumptions*
//!    (`cr_sat::Solver::set_persistent_assumptions`), which keeps them
//!    retractable.
//! 3. *Retraction* — when a user answer introduces a new value on an
//!    attribute referenced by a CFD, that CFD's ωX premise (and possibly
//!    its domination conclusions) are stale: the group is retracted by
//!    appending the root unit `¬g` to the CNF, which permanently satisfies
//!    the group's clauses *and* every clause the warm solver learnt from
//!    them (learnt clauses depending on the group contain `¬g` by
//!    construction of conflict analysis). The CFD is then re-emitted over
//!    the grown value space under a fresh guard. A CFD withdrawn upstream
//!    ([`EncodedSpec::retract_cfd`]) is retracted the same way and never
//!    re-emitted.
//!
//! The CNF therefore remains the single append-only source of truth:
//! solvers sync by ingesting the clause tail, and the retraction unit
//! travels through the same channel. Only CFD instances need groups — Σ
//! instances, base orders, null-bottom axioms and the order axioms are
//! never invalidated by user input; new values only *add* to them.
//!
//! # Lazy axiom instantiation
//!
//! In the lazy kind the order axioms are not part of the CNF at all. Each
//! consumer gets them in one way, with no delta to track:
//!
//! * A unit propagator holds them as its built-in order theory:
//!   [`EncodedSpec::fresh_propagator`] (and the session's warm propagator,
//!   through `register_order_atoms`) registers every attribute's dense
//!   `lo × hi` variable table as an order domain, and deduction is plain
//!   `propagate_to_fixpoint` (see `cr_sat::order`). Nothing is recorded.
//! * A solver pulls them through its one consultation driver, the CEGAR
//!   loop `cr_sat::Solver::solve_lazy_with_assumptions`, with the encoding
//!   as its [`cr_sat::LazyAxiomSource`]: [`EncodedSpec::violated_axioms`]
//!   scans a total candidate model against the variable table and appends
//!   exactly the asymmetry/totality/transitivity instances it violates to
//!   the caller's flat clause buffer. The scan reads the model into
//!   per-value bit rows and finds the third value of each triple by word
//!   operations; the value-by-value scan it replaced is kept as a test
//!   oracle with an identical output sequence.
//!
//! Each consultation appends the violated instances to the caller's
//! buffer **and** records them into the CNF, tagged
//! [`ClauseKind::Axiom`]. The session's warm solver thus keeps them across
//! rounds, the MaxSAT repair's borrowed hard base sees them, and a one-shot
//! query leaves them behind for the next; a propagator with registered
//! order atoms skips them in its tail sync, since its theory already
//! covers them. An eager encoding answers every consultation with nothing
//! and registers no atoms — its axioms are already clauses — so callers
//! never branch on the kind. Recorded clauses are permanent (`NO_GROUP`):
//! axioms hold regardless of any CFD group, so retraction never touches
//! them.

use cr_sat::{Assignment, ClauseBuffer, Cnf, Lit, Var};
use cr_types::{AttrId, AttrValueSpace, Value, ValueId};

use super::omega::{
    build_spaces, cfd_instances, emit_base, emit_sigma_gamma, instantiate_pair, Conclusion,
    InstanceConstraint, OmegaSink, OrderAtom, Premise, ProjectionCache,
};
use crate::spec::{Specification, UserInput};

/// Sentinel for an unallocated slot in [`VarTable`].
const NO_VAR: u32 = u32::MAX;

/// Sentinel for a variable that is not an order atom (guard variables).
const NO_ATOM: u32 = u32::MAX;

/// Identifier of a retractable clause group (index into the encoding's
/// group table). Also used as the group tag handed to
/// `cr_sat::UnitPropagator::add_clause_grouped`.
pub type GroupId = u32;

/// Group tag of permanent clauses.
const NO_GROUP: GroupId = cr_sat::NO_GROUP;

/// Which of the three encodings an [`EncodedSpec`] is — see the "Encoding
/// kinds" section of the encode module docs. Guarded CFD groups come with
/// the lazy kind, totality with every kind but the paper-faithful one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Every axiom materialised, plain CFD clauses; one-shot.
    Eager,
    /// [`Kind::Eager`] without totality clauses (Section V-A as written).
    PaperFaithful,
    /// Lazy axioms, guarded CFD groups: the engine's encoding.
    Lazy,
}

/// Classification of one CNF clause, parallel to the clause list. One byte
/// per clause is what lets the encoding keep no Ω(Se) instance list: rule
/// derivation re-reads its Currency/BaseOrder implications straight from
/// the flat literal arena via [`EncodedSpec::for_each_order_rule`] instead
/// of keeping a second materialised copy of every instance constraint.
/// The tag also marks the axiom clauses lazy instantiation recorded, which
/// an order-theory propagator skips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ClauseKind {
    /// Eager axioms, CFD instances, guard units, deltas — everything
    /// rule derivation ignores.
    General = 0,
    /// A Σ-currency or base-order implication with an order-atom
    /// conclusion: exactly the Ω instances the paper's `TrueDer` rule
    /// derivation (Section VI) consumes.
    OrderRule = 1,
    /// An order-axiom instance recorded by lazy instantiation (see the
    /// module docs).
    Axiom = 2,
}

/// Dense `attr × lo × hi → Var` index. Order-variable lookup sits on the
/// hot path of clause generation, deduction and suggestion; a flat
/// row-major table per attribute answers it with two bounds checks and one
/// load instead of hashing a 10-byte key.
#[derive(Clone, Debug, Default)]
struct VarTable {
    /// One `n × n` slot table per attribute (`lo.index() * n + hi.index()`).
    per_attr: Vec<Vec<u32>>,
    /// `n` (number of interned values) per attribute.
    width: Vec<usize>,
}

impl VarTable {
    /// A table sized for the given per-attribute value-space widths.
    fn new(widths: Vec<usize>) -> Self {
        VarTable {
            per_attr: widths.iter().map(|&n| vec![NO_VAR; n * n]).collect(),
            width: widths,
        }
    }

    #[inline]
    fn get(&self, attr: AttrId, lo: ValueId, hi: ValueId) -> Option<Var> {
        let n = self.width[attr.index()];
        if lo.index() >= n || hi.index() >= n {
            return None;
        }
        let raw = self.per_attr[attr.index()][lo.index() * n + hi.index()];
        (raw != NO_VAR).then_some(Var(raw))
    }

    #[inline]
    fn set(&mut self, attr: AttrId, lo: ValueId, hi: ValueId, var: Var) {
        let n = self.width[attr.index()];
        self.per_attr[attr.index()][lo.index() * n + hi.index()] = var.0;
    }

    /// Regrows `attr`'s table to `new_n` values, preserving the existing
    /// slots (row-major relayout). Used when a user answer appends a new
    /// value to an attribute's space.
    fn grow(&mut self, attr: AttrId, new_n: usize) {
        let old_n = self.width[attr.index()];
        if new_n <= old_n {
            return;
        }
        let old = std::mem::replace(
            &mut self.per_attr[attr.index()],
            vec![NO_VAR; new_n * new_n],
        );
        for lo in 0..old_n {
            self.per_attr[attr.index()][lo * new_n..lo * new_n + old_n]
                .copy_from_slice(&old[lo * old_n..(lo + 1) * old_n]);
        }
        self.width[attr.index()] = new_n;
    }
}

/// A retractable clause group: its guard variable and whether it is still
/// active.
#[derive(Clone, Copy, Debug)]
struct GroupState {
    guard: Var,
    active: bool,
}

/// [`OmegaSink`] adapter converting streamed instances to clauses on the
/// spot (see [`EncodedSpec::encode`]).
struct EncoderSink<'a> {
    enc: &'a mut EncodedSpec,
}

impl OmegaSink for EncoderSink<'_> {
    fn hint(&mut self, additional: usize) {
        // `additional` is a pair-count *upper bound* (vacuous pairs emit
        // nothing); reserving it in full routinely over-allocates the clause
        // storage 2–3× and pushes every encode into fresh large mappings.
        // Cap the hint and let amortised growth cover dense constraints.
        let capped = additional.min(4096);
        self.enc.clause_groups.reserve(capped);
        self.enc.clause_kinds.reserve(capped);
        self.enc.cnf.reserve_clauses(capped);
    }
    fn emit(&mut self, c: InstanceConstraint) {
        self.enc.route_omega(c);
    }
}

/// The encoded form of a specification: the CNF `Φ(Se)`, the value spaces
/// and the variable table for order atoms. All downstream algorithms
/// (`IsValid`, `DeduceOrder`, `Suggest`, the exact true-value queries) run
/// off this struct.
///
/// The encoding supports **delta extension** with user input
/// (`EncodedSpec::extend_with_input`, driven by
/// [`ResolutionSession::apply_input`](crate::ingest::ResolutionSession::apply_input)):
/// a round of the Fig. 4 loop only appends the clauses induced by the
/// fresh user-input tuple instead of re-deriving the whole CNF. With
/// guarded CFDs (see the module docs) this covers *every* input, including
/// answers outside the interned value space: the new value's order
/// variables are appended, and the affected CFDs are retracted and
/// re-emitted under fresh guards. Only lazy encodings are extended; an
/// eager one is one-shot.
pub struct EncodedSpec {
    space: AttrValueSpace,
    vars: VarTable,
    /// Order atoms in allocation order, with their variables.
    atoms: Vec<OrderAtom>,
    atom_vars: Vec<Var>,
    /// Var index → index into `atoms` (`NO_ATOM` for guard variables).
    var_atom: Vec<u32>,
    cnf: Cnf,
    /// Group tag per CNF clause (`NO_GROUP` = permanent), parallel to
    /// `cnf.clauses()`.
    clause_groups: Vec<GroupId>,
    /// [`ClauseKind`] per CNF clause, parallel to `clause_groups` — the
    /// one-byte tag behind the Ω-free rule scan.
    clause_kinds: Vec<ClauseKind>,
    groups: Vec<GroupState>,
    /// Per CFD index: its currently active group, if emitted.
    cfd_groups: Vec<Option<GroupId>>,
    /// Per CFD index: withdrawn by an upstream correction
    /// ([`EncodedSpec::retract_cfd`]); never re-emitted.
    cfd_retired: Vec<bool>,
    kind: Kind,
    /// Axiom clauses recorded into the CNF by lazy instantiation (the
    /// [`cr_sat::LazyAxiomSource`] impl); 0 for eager encodings.
    injected_axioms: usize,
    /// Reused buffers of [`EncodedSpec::violated_axioms`].
    scan: ScanScratch,
}

/// The bit rows and score marks of the total-model axiom scan, kept
/// across consultations so the CEGAR loop allocates nothing per model.
#[derive(Default)]
struct ScanScratch {
    /// Truth rows, row-major, and their transpose.
    rows: Vec<u64>,
    cols: Vec<u64>,
    /// Scores seen so far, for the tournament criterion.
    score_seen: Vec<bool>,
}

impl EncodedSpec {
    /// The eager encoding of `spec`: every order axiom (totality included)
    /// materialised, CFD clauses plain — self-contained and one-shot.
    pub fn encode(spec: &Specification) -> Self {
        Self::encode_kind(spec, Kind::Eager)
    }

    /// The paper-faithful encoding of `spec`: eager, without totality
    /// clauses — Section V-A exactly (see the encode module docs for what
    /// the missing totality breaks).
    pub fn encode_paper_faithful(spec: &Specification) -> Self {
        Self::encode_kind(spec, Kind::PaperFaithful)
    }

    /// The engine's encoding of `spec`: lazy order axioms (totality
    /// included) and guarded CFD groups, extensible with every user
    /// answer. Consumers activate the guards through
    /// [`EncodedSpec::fresh_solver`] / [`EncodedSpec::fresh_propagator`].
    pub fn encode_lazy(spec: &Specification) -> Self {
        Self::encode_kind(spec, Kind::Lazy)
    }

    fn encode_kind(spec: &Specification, kind: Kind) -> Self {
        let (space, g2l) = build_spaces(spec);
        let widths: Vec<usize> = (0..space.arity())
            .map(|i| space.attr(AttrId(i as u16)).len())
            .collect();
        let mut enc = EncodedSpec {
            vars: VarTable::new(widths.clone()),
            // Placeholder until Ω emission (which only reads the local
            // `space`) completes; swapped in below.
            space: AttrValueSpace::new(0),
            atoms: Vec::new(),
            atom_vars: Vec::new(),
            var_atom: Vec::new(),
            cnf: Cnf::new(),
            clause_groups: Vec::new(),
            clause_kinds: Vec::new(),
            groups: Vec::new(),
            cfd_groups: vec![None; spec.gamma().len()],
            cfd_retired: vec![false; spec.gamma().len()],
            kind,
            injected_axioms: 0,
            scan: ScanScratch::default(),
        };

        // Variables for every ordered pair of distinct values. Every kind
        // allocates the full dense table (`O(n²)` per attribute): the
        // lazy kind needs it to detect violated instances, and downstream
        // consumers (`top_assumptions`, suggestion literals) rely on every
        // pair variable existing. The table is empty here, so the atoms can
        // be bulk-allocated in row-major walk order without the per-atom
        // existence check `var()` pays.
        let total: usize = widths.iter().map(|&n| n * n.saturating_sub(1)).sum();
        enc.atoms.reserve(total);
        let mut idx: u32 = 0;
        for (ai, &width) in widths.iter().enumerate() {
            let attr = AttrId(ai as u16);
            let n = width as u32;
            let row = &mut enc.vars.per_attr[ai];
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        row[(a * n + b) as usize] = idx;
                        enc.atoms.push(OrderAtom {
                            attr,
                            lo: ValueId(a),
                            hi: ValueId(b),
                        });
                        idx += 1;
                    }
                }
            }
        }
        debug_assert_eq!(idx as usize, total);
        // Variable ↔ atom mappings are the identity over the bulk range.
        enc.cnf.ensure_vars(idx);
        enc.atom_vars = (0..idx).map(Var).collect();
        enc.var_atom = (0..idx).collect();

        // Ω(Se), streamed straight from the compiled-program projection
        // into clause emission — instance construction and clause
        // conversion happen in one pass with no intermediate buffer.
        // The lazy kind puts CFD instances into one retractable group per
        // CFD (routed by `route_omega`); everything else is permanent.
        {
            let program = spec.compiled_program().clone();
            let mut sink = EncoderSink { enc: &mut enc };
            emit_base(spec, &space, &g2l, &mut sink);
            emit_sigma_gamma(spec, &program, &space, &g2l, &mut sink);
        }
        enc.space = space;

        // Transitivity and asymmetry per attribute, over the realised
        // variable set. The lazy kind emits nothing here (see the module
        // docs).
        if kind == Kind::Lazy {
            return enc;
        }
        let mut per_attr: Vec<Vec<ValueId>> = vec![Vec::new(); enc.space.arity()];
        for atom in &enc.atoms {
            per_attr[atom.attr.index()].push(atom.lo);
            per_attr[atom.attr.index()].push(atom.hi);
        }
        for (ai, vals) in per_attr.iter_mut().enumerate() {
            vals.sort_unstable();
            vals.dedup();
            let attr = AttrId(ai as u16);
            // Asymmetry: ¬x_ab ∨ ¬x_ba for unordered pairs; totality
            // x_ab ∨ x_ba unless paper-faithful (see the encode module docs).
            for (i, &a) in vals.iter().enumerate() {
                for &b in &vals[i + 1..] {
                    if let (Some(xab), Some(xba)) =
                        (enc.vars.get(attr, a, b), enc.vars.get(attr, b, a))
                    {
                        enc.push_clause([xab.negative(), xba.negative()], NO_GROUP);
                        if kind != Kind::PaperFaithful {
                            enc.push_clause([xab.positive(), xba.positive()], NO_GROUP);
                        }
                    }
                }
            }
            // Transitivity over realised triples.
            for &a in vals.iter() {
                for &b in vals.iter() {
                    if a == b {
                        continue;
                    }
                    let Some(xab) = enc.vars.get(attr, a, b) else {
                        continue;
                    };
                    for &c in vals.iter() {
                        if c == a || c == b {
                            continue;
                        }
                        let (Some(xbc), Some(xac)) =
                            (enc.vars.get(attr, b, c), enc.vars.get(attr, a, c))
                        else {
                            continue;
                        };
                        enc.push_clause([xab.negative(), xbc.negative(), xac.positive()], NO_GROUP);
                    }
                }
            }
        }
        enc
    }

    /// Extends the encoding in place with the effect of
    /// [`Specification::apply_user_input`]: the fresh tuple `to` carrying
    /// the answered values is ranked strictly above every existing tuple on
    /// each answered attribute, which translates to
    ///
    /// 1. unit clauses `w ≺v_A v` for every other interned value `w` of each
    ///    answered attribute `A` (the base-order extension `Ot`), and
    /// 2. the instance constraints of Σ on the tuple pairs involving `to`
    ///    (pairs among the original tuples are already instantiated).
    ///
    /// Answers **outside** the interned value space are handled additively
    /// by the guarded CFD groups of the lazy kind: the new value id
    /// appends a row to the dense attr×lo×hi variable table and allocates
    /// its pair variables (a propagator registers the grown attribute
    /// again, and the lazy source reads the grown table), its null-bottom
    /// unit is appended, and every CFD referencing the grown attribute is
    /// retracted and re-emitted over the new space under a fresh guard
    /// group (see the module docs for the lifecycle).
    ///
    /// `spec` must be the specification this encoding currently represents
    /// (i.e. *before* the input is applied). Returns the clause groups
    /// withdrawn in the process (stale CFD emissions), in retraction order:
    /// callers holding a live `UnitPropagator` must forward them to
    /// `retract_groups` before syncing the clause tail.
    pub(crate) fn extend_with_input(
        &mut self,
        spec: &Specification,
        input: &UserInput,
    ) -> Vec<GroupId> {
        let mut answered: Vec<(AttrId, ValueId)> = Vec::new();
        let mut grown: Vec<AttrId> = Vec::new();
        for (attr, v) in &input.values {
            if v.is_null() {
                continue;
            }
            match self.space.get(*attr, v) {
                Some(id) => answered.push((*attr, id)),
                None => grown.push(*attr),
            }
        }

        // Out-of-domain answers: append the new values and their axioms,
        // then retract and re-emit every CFD whose premise or conclusion
        // ranges over a grown attribute, so ωX premises and domination sets
        // quantify over the current space.
        let mut retracted_groups: Vec<GroupId> = Vec::new();
        for (attr, v) in &input.values {
            if !v.is_null() && self.space.get(*attr, v).is_none() {
                let vid = self.append_value(*attr, v);
                answered.push((*attr, vid));
            }
        }
        if !grown.is_empty() {
            grown.sort_unstable();
            grown.dedup();
            for (gi, cfd) in spec.gamma().iter().enumerate() {
                if self.cfd_retired[gi] {
                    continue; // withdrawn upstream: never re-emitted
                }
                let touched = cfd
                    .lhs()
                    .iter()
                    .any(|(a, _)| grown.binary_search(a).is_ok())
                    || grown.binary_search(&cfd.rhs().0).is_ok();
                if !touched {
                    continue;
                }
                if let Some(group) = self.cfd_groups[gi].take() {
                    self.deactivate_group(group);
                    retracted_groups.push(group);
                }
                let instances = cfd_instances(&self.space, gi, cfd);
                if !instances.is_empty() {
                    let group = self.new_group();
                    self.cfd_groups[gi] = Some(group);
                    for c in instances {
                        self.add_omega_constraint_in(c, group);
                    }
                }
            }
        }

        // (1) Base-order units: the answered value tops its attribute.
        for &(attr, vid) in &answered {
            let below: Vec<ValueId> = self
                .space
                .attr(attr)
                .iter()
                .filter(|(id, v)| *id != vid && !v.is_null())
                .map(|(id, _)| id)
                .collect();
            for lo in below {
                self.add_omega_constraint(InstanceConstraint {
                    premise: Premise::new(),
                    conclusion: Conclusion::Atom(OrderAtom { attr, lo, hi: vid }),
                    origin: super::Origin::BaseOrder,
                });
            }
        }

        // (2) Σ instances on pairs involving the user-input tuple. Tuples
        // sharing a projection on a constraint's referenced attributes
        // produce identical instances (same grouping as `instantiate`), so
        // only one representative per projection is paired with `to`.
        let entity = spec.entity();
        let arity = spec.schema().arity();
        let mut values = vec![Value::Null; arity];
        for (attr, v) in &input.values {
            values[attr.index()] = v.clone();
        }
        let to = cr_types::Tuple::from_values(values);
        let answered_attr = |attr: AttrId| answered.iter().any(|&(a, _)| a == attr);
        let program = spec.compiled_program().clone();
        let projections = ProjectionCache::new(&program);
        for (ci, cc) in program.sigma.iter().enumerate() {
            // A pair involving `to` instantiates only if the conclusion is
            // non-null on `to`'s side, and order / tuple-comparison
            // premises need both sides non-null — so those attributes must
            // all be among the answered ones. Σ can be large (hundreds of
            // constraints on generated workloads); these O(|ω|) checks —
            // over the compiled premise shapes, nothing re-derived — skip
            // the per-tuple work for the vast majority.
            if !answered_attr(cc.conclusion_attr) {
                continue;
            }
            if cc.order_premises.iter().any(|a| !answered_attr(*a))
                || cc.tuple_cmps.iter().any(|(a, _)| !answered_attr(*a))
            {
                continue;
            }
            // Constant comparisons against `to`'s side have one fixed
            // operand: evaluate them once per direction instead of per
            // tuple.
            let to_second = cc.t2_consts.iter().all(|c| c.eval_tuple(&to)); // pairs (t, to)
            let to_first = cc.t1_consts.iter().all(|c| c.eval_tuple(&to)); // pairs (to, t)
            if !to_first && !to_second {
                continue;
            }
            let constraint = &spec.sigma()[ci];
            // One representative per distinct projection — the first
            // occurring, in tuple-id order — grouped once per projection
            // class for the whole input.
            for &tid in &projections.get(&program, entity, cc.class).reps {
                let t = entity.tuple(tid);
                if to_second {
                    if let Some(c) = instantiate_pair(&self.space, constraint, ci, t, &to) {
                        self.add_omega_constraint(c);
                    }
                }
                if to_first {
                    if let Some(c) = instantiate_pair(&self.space, constraint, ci, &to, t) {
                        self.add_omega_constraint(c);
                    }
                }
            }
        }
        retracted_groups
    }

    /// Appends a brand-new value to `attr`'s space: interns it, regrows the
    /// variable table, allocates the order variables of every pair
    /// involving it and emits its null-bottom unit. The order axioms of
    /// the new pairs stay unmaterialised: the grown table is what a
    /// propagator registers and the lazy source scans. Only lazy encodings
    /// grow — an eager one would need its axioms appended here. Null is
    /// never appended: user answers are non-null.
    fn append_value(&mut self, attr: AttrId, v: &Value) -> ValueId {
        debug_assert_eq!(
            self.kind,
            Kind::Lazy,
            "eager encodings are one-shot and never grow"
        );
        debug_assert!(!v.is_null() && self.space.get(attr, v).is_none());
        let vid = self.space.intern(attr, v);
        let n = self.space.attr(attr).len();
        debug_assert_eq!(vid.index(), n - 1);
        self.vars.grow(attr, n);
        let olds: Vec<ValueId> = (0..(n - 1) as u32).map(ValueId).collect();
        for &w in &olds {
            self.var(OrderAtom {
                attr,
                lo: w,
                hi: vid,
            });
            self.var(OrderAtom {
                attr,
                lo: vid,
                hi: w,
            });
        }
        if let Some(null_id) = self.space.get(attr, &Value::Null) {
            // Null stays a strict bottom below the new value.
            self.add_omega_constraint(InstanceConstraint {
                premise: Premise::new(),
                conclusion: Conclusion::Atom(OrderAtom {
                    attr,
                    lo: null_id,
                    hi: vid,
                }),
                origin: super::Origin::NullBottom,
            });
        }
        vid
    }

    /// Withdraws CFD `gamma[gi]` permanently — the encoding-level half of an
    /// upstream **CFD retraction** (see [`crate::ingest`]). The CFD's clause
    /// group is retracted (root `¬g` unit) and the CFD is marked retired so
    /// no later extension re-emits it. Requires a lazy encoding; a session
    /// calls it on each fresh encoding of its specification, before any
    /// solver or propagator reads the CNF.
    pub(crate) fn retract_cfd(&mut self, gi: usize) {
        debug_assert_eq!(
            self.kind,
            Kind::Lazy,
            "CFD retraction needs a lazy encoding"
        );
        self.cfd_retired[gi] = true;
        if let Some(group) = self.cfd_groups[gi].take() {
            self.deactivate_group(group);
        }
    }

    /// True iff CFD `gamma[gi]` was withdrawn by `EncodedSpec::retract_cfd`.
    /// Rule derivation (`TrueDer`) skips retired CFDs.
    pub fn is_cfd_retired(&self, gi: usize) -> bool {
        self.cfd_retired.get(gi).copied().unwrap_or(false)
    }

    /// Adds the clause of an instance constraint to the CNF.
    ///
    /// Delta constraints from [`EncodedSpec::extend_with_input`] may
    /// duplicate already-instantiated projections — harmless: duplicate
    /// clauses are absorbed by the solvers, and rule derivation
    /// canonicalises its premise pools (`true_der` sorts and dedups them),
    /// so deriving rules from Ω(Se) is insensitive to duplicates and
    /// ordering.
    fn add_omega_constraint(&mut self, c: InstanceConstraint) {
        self.add_omega_constraint_in(c, NO_GROUP);
    }

    /// Routes one streamed Ω instance to its clause group: CFD instances go
    /// into their retractable group (created on first use) in the lazy
    /// kind, everything else is permanent.
    fn route_omega(&mut self, c: InstanceConstraint) {
        match c.origin {
            super::Origin::Cfd(gi) if self.kind == Kind::Lazy => {
                let group = match self.cfd_groups[gi] {
                    Some(g) => g,
                    None => {
                        let g = self.new_group();
                        self.cfd_groups[gi] = Some(g);
                        g
                    }
                };
                self.add_omega_constraint_in(c, group);
            }
            _ => self.add_omega_constraint(c),
        }
    }

    /// [`EncodedSpec::add_omega_constraint`] into a clause group: the
    /// group's guard literal `¬g` is appended to the clause. Literals go
    /// straight into the CNF's flat arena — no per-clause allocation, no
    /// intermediate buffer — and the clause, tagged with its
    /// [`ClauseKind`], is the instance's sole representation.
    fn add_omega_constraint_in(&mut self, c: InstanceConstraint, group: GroupId) {
        for a in c.premise.iter() {
            let lit = self.var(*a).negative();
            self.cnf.push_clause_lit(lit);
        }
        let mut kind = ClauseKind::General;
        if let Conclusion::Atom(atom) = c.conclusion {
            let concl = self.var(atom).positive();
            self.cnf.push_clause_lit(concl);
            if matches!(
                c.origin,
                super::Origin::Currency(_) | super::Origin::BaseOrder
            ) {
                kind = ClauseKind::OrderRule;
            }
        }
        if group != NO_GROUP {
            let guard = self.groups[group as usize].guard;
            self.cnf.push_clause_lit(guard.negative());
        }
        self.cnf.finish_clause();
        self.clause_groups.push(group);
        self.clause_kinds.push(kind);
    }

    /// Appends one clause to the CNF, tagging it with its group (the
    /// group's guard literal is appended automatically). Every clause of
    /// the encoding goes through here so `clause_groups` stays parallel to
    /// the clause list; every caller allocates its variables through
    /// [`EncodedSpec::var`] / [`EncodedSpec::new_group`] first, so the CNF
    /// skips its per-literal variable scan.
    fn push_clause(&mut self, lits: impl IntoIterator<Item = Lit>, group: GroupId) {
        if group == NO_GROUP {
            self.cnf.add_clause_prealloc(lits);
        } else {
            let guard = self.groups[group as usize].guard;
            self.cnf
                .add_clause_prealloc(lits.into_iter().chain(std::iter::once(guard.negative())));
        }
        self.clause_groups.push(group);
        self.clause_kinds.push(ClauseKind::General);
    }

    /// Allocates a fresh, active clause group with its guard variable.
    fn new_group(&mut self) -> GroupId {
        let guard = self.cnf.new_var();
        debug_assert_eq!(guard.index(), self.var_atom.len());
        self.var_atom.push(NO_ATOM);
        let id = self.groups.len() as GroupId;
        self.groups.push(GroupState {
            guard,
            active: true,
        });
        id
    }

    /// Retracts a clause group: marks it inactive and appends the root unit
    /// `¬g` to the CNF, which permanently satisfies the group's clauses
    /// (and any clauses a solver learnt from them) once synced.
    fn deactivate_group(&mut self, group: GroupId) {
        let state = &mut self.groups[group as usize];
        debug_assert!(state.active, "group retracted twice");
        state.active = false;
        let guard = state.guard;
        self.push_clause([guard.negative()], NO_GROUP);
    }

    /// Allocates (or returns) the variable for an order atom.
    fn var(&mut self, atom: OrderAtom) -> Var {
        if let Some(v) = self.vars.get(atom.attr, atom.lo, atom.hi) {
            return v;
        }
        let v = self.cnf.new_var();
        debug_assert_eq!(v.index(), self.var_atom.len());
        self.vars.set(atom.attr, atom.lo, atom.hi, v);
        self.var_atom.push(self.atoms.len() as u32);
        self.atoms.push(atom);
        self.atom_vars.push(v);
        v
    }

    /// The CNF `Φ(Se)`.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Walks every **live** order-rule clause — the Σ-currency and
    /// base-order implications with an order-atom conclusion, i.e. exactly
    /// the Ω(Se) subset the paper's rule derivation (`TrueDer`,
    /// Section VI) consumes — reconstructing each rule's premise atoms and
    /// conclusion atom from the flat literal arena via the var → atom
    /// table. Guard literals are skipped (they map to no atom); clauses of
    /// retracted groups are skipped, so the visit order is emission order
    /// restricted to the live order rules.
    ///
    /// The premise slice is a scratch buffer reused across clauses; copy
    /// out whatever must outlive the callback.
    pub fn for_each_order_rule<F: FnMut(&[OrderAtom], OrderAtom)>(&self, mut f: F) {
        let mut premise: Vec<OrderAtom> = Vec::new();
        for idx in 0..self.clause_kinds.len() {
            if self.clause_kinds[idx] != ClauseKind::OrderRule {
                continue;
            }
            let group = self.clause_groups[idx];
            if group != NO_GROUP && !self.groups[group as usize].active {
                continue;
            }
            premise.clear();
            let mut conclusion = None;
            for &lit in self.cnf.clause(idx) {
                // Guard literals have no atom behind their variable.
                let Some(atom) = self.order_atom(lit.var()) else {
                    continue;
                };
                if lit.is_positive() {
                    conclusion = Some(atom);
                } else {
                    premise.push(atom);
                }
            }
            let concl = conclusion.expect("OrderRule clauses have an atom conclusion");
            f(&premise, concl);
        }
    }

    /// Approximate heap footprint of the encoding in bytes: the CNF arena,
    /// the per-clause group/kind tags, the dense variable table and the
    /// atom tables. Feeds the bytes-per-entity accounting of the
    /// benchmarks.
    pub fn approx_bytes(&self) -> usize {
        let vars: usize = self
            .vars
            .per_attr
            .iter()
            .map(|t| t.capacity() * std::mem::size_of::<u32>())
            .sum();
        self.cnf.approx_bytes()
            + self.clause_groups.capacity() * std::mem::size_of::<GroupId>()
            + self.clause_kinds.capacity() * std::mem::size_of::<ClauseKind>()
            + vars
            + self.atoms.capacity() * std::mem::size_of::<OrderAtom>()
            + self.atom_vars.capacity() * std::mem::size_of::<Var>()
            + self.var_atom.capacity() * std::mem::size_of::<u32>()
    }

    /// The per-attribute value spaces (active domain + null).
    pub fn space(&self) -> &AttrValueSpace {
        &self.space
    }

    /// The variable encoding `lo ≺v_attr hi`, if allocated.
    pub fn var_of(&self, attr: AttrId, lo: ValueId, hi: ValueId) -> Option<Var> {
        self.vars.get(attr, lo, hi)
    }

    /// The order atom behind a variable, or `None` for auxiliary (guard)
    /// variables.
    pub fn order_atom(&self, var: Var) -> Option<OrderAtom> {
        let idx = *self.var_atom.get(var.index())?;
        (idx != NO_ATOM).then(|| self.atoms[idx as usize])
    }

    /// All order variables with their atoms, in allocation order.
    pub fn order_vars(&self) -> impl Iterator<Item = (Var, OrderAtom)> + '_ {
        self.atom_vars
            .iter()
            .copied()
            .zip(self.atoms.iter().copied())
    }

    /// Number of order variables (guard variables excluded).
    pub fn num_order_vars(&self) -> usize {
        self.atoms.len()
    }

    /// Positive literals of the guards of every **active** clause group.
    /// Fresh solvers/propagators over [`EncodedSpec::cnf`] must assert
    /// these (retracted groups are already neutralised by `¬g` units inside
    /// the CNF); the incremental engine instead carries them as persistent
    /// assumptions so they stay retractable.
    pub fn active_guards(&self) -> Vec<Lit> {
        self.groups
            .iter()
            .filter(|g| g.active)
            .map(|g| g.guard.positive())
            .collect()
    }

    /// Whether `group` is still active (not yet retracted). The engine's
    /// tail sync consults this so clauses of a group retracted before the
    /// sync reached them (a retired CFD on a fresh encoding) are never fed
    /// live to the group-aware propagator — the solver side is already
    /// safe because the group's `¬g` unit travels in the same tail.
    pub fn is_group_active(&self, group: GroupId) -> bool {
        self.groups[group as usize].active
    }

    /// The group and guard variable of CNF clause `idx`, or `None` for
    /// permanent clauses. Used by the engine to strip guard literals when
    /// syncing its group-aware unit propagator.
    pub fn clause_group(&self, idx: usize) -> Option<(GroupId, Var)> {
        let g = self.clause_groups[idx];
        (g != NO_GROUP).then(|| (g, self.groups[g as usize].guard))
    }

    /// A CDCL solver over `Φ(Se)` with all active guard groups asserted as
    /// root units — correct for any consumer that never retracts.
    pub fn fresh_solver(&self) -> cr_sat::Solver {
        let mut solver = cr_sat::Solver::from_cnf(&self.cnf);
        for g in self.active_guards() {
            solver.add_clause([g]);
        }
        solver
    }

    /// A root-level unit propagator over `Φ(Se)` with all active guard
    /// groups asserted as units and, for the lazy kind, every order atom
    /// registered — correct for any consumer that never retracts.
    pub fn fresh_propagator(&self) -> cr_sat::UnitPropagator {
        let mut up = cr_sat::UnitPropagator::new(&self.cnf);
        self.register_order_atoms(&mut up, 0);
        for g in self.active_guards() {
            up.add_clause(&[g]);
        }
        up
    }

    /// Registers the order atoms allocated since atom `from` (allocation
    /// order) with `up`, which then holds the order axioms over them as
    /// its theory (see the module docs): every attribute those atoms
    /// belong to is registered again, as one domain laid out from its own
    /// table and width. Returns the new watermark. Eager kinds register
    /// nothing, since their axioms are clauses.
    pub(crate) fn register_order_atoms(
        &self,
        up: &mut cr_sat::UnitPropagator,
        from: usize,
    ) -> usize {
        if self.kind != Kind::Lazy {
            return self.atoms.len();
        }
        let mut grown = vec![false; self.space.arity()];
        for atom in &self.atoms[from..] {
            grown[atom.attr.index()] = true;
        }
        for (ai, _) in grown.iter().enumerate().filter(|(_, &g)| g) {
            let (n, table) = (self.vars.width[ai], &self.vars.per_attr[ai]);
            up.register_order_domain(ai as u32, n, |lo, hi| Var(table[lo * n + hi]));
        }
        self.atoms.len()
    }

    /// The [`ClauseKind`] of CNF clause `idx`.
    pub(crate) fn clause_kind(&self, idx: usize) -> ClauseKind {
        self.clause_kinds[idx]
    }

    /// Interned id of `value` in `attr`'s space.
    pub fn value_id(&self, attr: AttrId, value: &Value) -> Option<ValueId> {
        self.space.get(attr, value)
    }

    /// The value behind `(attr, id)`.
    pub fn value(&self, attr: AttrId, id: ValueId) -> &Value {
        self.space.value(attr, id)
    }

    /// Assumption literals asserting "`v` is the most current value of
    /// `attr`": every other value of the space sits strictly below `v`.
    /// (The dense variable table is fully allocated in every kind, so
    /// the lookup always succeeds for interned ids; `None` is kept for
    /// defensive callers.)
    pub fn top_assumptions(&self, attr: AttrId, v: ValueId) -> Option<Vec<Lit>> {
        let interner = self.space.attr(attr);
        let mut lits = Vec::with_capacity(interner.len().saturating_sub(1));
        for o in interner.ids() {
            if o == v {
                continue;
            }
            lits.push(self.var_of(attr, o, v)?.positive());
        }
        Some(lits)
    }

    /// Axiom clauses recorded into the CNF by lazy instantiation so far
    /// (monotone; 0 for eager encodings).
    pub fn injected_axioms(&self) -> usize {
        self.injected_axioms
    }

    /// The order-axiom instances a total candidate model violates — the
    /// detection half of [`cr_sat::LazyAxiomSource`] for the lazy kind —
    /// appended to `out`. Unassigned slots of a lifted model read as false.
    ///
    /// Per attribute the scan checks the pair axioms in `O(n²)`, then
    /// transitivity by the tournament score-sequence criterion (a total
    /// asymmetric relation is transitive iff its score sequence is a
    /// permutation), so only a genuinely intransitive relation pays the
    /// triple walk. It copies the model into per-value bit rows and finds
    /// the third value of each triple by word operations, visiting it in
    /// ascending order — so the emitted clause sequence is the one a
    /// value-by-value walk produces. The rows are reused across calls.
    ///
    /// Appended clauses are **not** recorded; the
    /// [`cr_sat::LazyAxiomSource`] impl records them (see the module docs).
    pub fn violated_axioms(&mut self, assignment: Assignment<'_>, out: &mut ClauseBuffer) {
        debug_assert_eq!(self.kind, Kind::Lazy);
        let ScanScratch {
            rows: m,
            cols: col,
            score_seen,
        } = &mut self.scan;
        for attr in (0..self.space.arity() as u16).map(AttrId) {
            let n = self.vars.width[attr.index()];
            if n < 2 {
                continue;
            }
            let table = &self.vars.per_attr[attr.index()];
            let var = |x: usize, y: usize| Var(table[x * n + y]);
            // Truth rows, `m` row-major and `col` its transpose (unassigned
            // model slots read as false, matching `Solver::model` semantics
            // for unconstrained variables).
            let words = n.div_ceil(64);
            m.clear();
            m.resize(n * words, 0);
            col.clear();
            col.resize(n * words, 0);
            for x in 0..n {
                let row = &table[x * n..(x + 1) * n];
                for y in 0..n {
                    if x != y && assignment.value(Var(row[y])) == Some(true) {
                        m[x * words + y / 64] |= 1 << (y % 64);
                        col[y * words + x / 64] |= 1 << (x % 64);
                    }
                }
            }
            let row = |x: usize| &m[x * words..(x + 1) * words];
            let above = |x: usize, w: usize| -> u64 {
                // Positions y with x < y < n, in word w.
                let lo = (x + 1).saturating_sub(w * 64).min(64);
                let hi = n.saturating_sub(w * 64).min(64);
                let upto = |k: usize| if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
                upto(hi) & !upto(lo)
            };
            let mut tournament = true;
            for x in 0..n {
                let (rx, cx) = (row(x), &col[x * words..(x + 1) * words]);
                for w in x / 64..words {
                    let both = rx[w] & cx[w];
                    let mut viol = (both | !(rx[w] | cx[w])) & above(x, w);
                    while viol != 0 {
                        let bit = viol & viol.wrapping_neg();
                        viol ^= bit;
                        let y = w * 64 + bit.trailing_zeros() as usize;
                        tournament = false;
                        if both & bit != 0 {
                            out.push(&[var(x, y).negative(), var(y, x).negative()]);
                        } else {
                            out.push(&[var(x, y).positive(), var(y, x).positive()]);
                        }
                    }
                }
            }
            if tournament {
                // A tournament is transitive iff its score sequence is a
                // permutation of 0..n.
                score_seen.clear();
                score_seen.resize(n, false);
                let mut transitive = true;
                for x in 0..n {
                    let s: usize = row(x).iter().map(|w| w.count_ones() as usize).sum();
                    if score_seen[s] {
                        transitive = false;
                        break;
                    }
                    score_seen[s] = true;
                }
                if transitive {
                    continue;
                }
            }
            for x in 0..n {
                let rx = row(x);
                for wy in 0..words {
                    let mut ys = rx[wy];
                    while ys != 0 {
                        let ybit = ys & ys.wrapping_neg();
                        ys ^= ybit;
                        let y = wy * 64 + ybit.trailing_zeros() as usize;
                        let ry = row(y);
                        for wz in 0..words {
                            // z ≠ y holds already (no diagonal bits).
                            let mut zs = ry[wz] & !rx[wz];
                            if x / 64 == wz {
                                zs &= !(1u64 << (x % 64));
                            }
                            while zs != 0 {
                                let zbit = zs & zs.wrapping_neg();
                                zs ^= zbit;
                                let z = wz * 64 + zbit.trailing_zeros() as usize;
                                out.push(&[
                                    var(x, y).negative(),
                                    var(y, z).negative(),
                                    var(x, z).positive(),
                                ]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The value-by-value axiom scan [`EncodedSpec::violated_axioms`] replaced:
/// every probe goes through a closure and every instance is its own
/// vector. Kept as the oracle the bit-row scan is proven against
/// (clause-sequence equality, see the tests below).
#[cfg(test)]
impl EncodedSpec {
    /// Total-model scan: per attribute, check pair axioms in `O(n²)`, then
    /// transitivity via the tournament score-sequence criterion — only a
    /// genuinely intransitive relation pays the `O(n³)` triple walk.
    fn violated_axioms_reference(&self, value: &dyn Fn(Var) -> Option<bool>) -> Vec<Vec<Lit>> {
        debug_assert_eq!(self.kind, Kind::Lazy);
        let mut out = Vec::new();
        for attr in (0..self.space.arity() as u16).map(AttrId) {
            let n = self.space.attr(attr).len();
            if n < 2 {
                continue;
            }
            let var = |x: usize, y: usize| {
                self.vars
                    .get(attr, ValueId(x as u32), ValueId(y as u32))
                    .expect("dense table")
            };
            // Truth matrix (unassigned model slots read as false, matching
            // `Solver::model` semantics for unconstrained variables).
            let mut m = vec![false; n * n];
            for x in 0..n {
                for y in 0..n {
                    if x != y {
                        m[x * n + y] = value(var(x, y)) == Some(true);
                    }
                }
            }
            let mut tournament = true;
            for x in 0..n {
                for y in x + 1..n {
                    let xy = m[x * n + y];
                    let yx = m[y * n + x];
                    if xy && yx {
                        out.push(vec![var(x, y).negative(), var(y, x).negative()]);
                        tournament = false;
                    } else if !xy && !yx {
                        tournament = false;
                        out.push(vec![var(x, y).positive(), var(y, x).positive()]);
                    }
                }
            }
            if tournament {
                // A tournament is transitive iff its score sequence is a
                // permutation of 0..n.
                let mut score_seen = vec![false; n];
                let mut transitive = true;
                for x in 0..n {
                    let s = (0..n).filter(|&y| y != x && m[x * n + y]).count();
                    if score_seen[s] {
                        transitive = false;
                        break;
                    }
                    score_seen[s] = true;
                }
                if transitive {
                    continue;
                }
            }
            for x in 0..n {
                for y in 0..n {
                    if y == x || !m[x * n + y] {
                        continue;
                    }
                    for z in 0..n {
                        if z != x && z != y && m[y * n + z] && !m[x * n + z] {
                            out.push(vec![
                                var(x, y).negative(),
                                var(y, z).negative(),
                                var(x, z).positive(),
                            ]);
                        }
                    }
                }
            }
        }
        out
    }
}

/// The encoding as its own axiom source (see the module docs): violated
/// instances go to the consulting solver **and** into the CNF as permanent
/// [`ClauseKind::Axiom`] clauses. An eager encoding already holds every
/// axiom and returns at once.
impl cr_sat::LazyAxiomSource for EncodedSpec {
    fn instantiate(&mut self, assignment: Assignment<'_>, out: &mut ClauseBuffer) {
        if self.kind != Kind::Lazy {
            return;
        }
        let from = out.len();
        self.violated_axioms(assignment, out);
        for clause in out.iter_from(from) {
            self.cnf.add_clause_prealloc(clause.iter().copied());
            self.clause_groups.push(NO_GROUP);
            self.clause_kinds.push(ClauseKind::Axiom);
        }
        self.injected_axioms += out.len() - from;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
    use cr_sat::lit::LBool;
    use cr_sat::{SolveResult, Solver};
    use cr_types::{EntityInstance, Schema, Tuple};

    fn tiny_spec() -> Specification {
        let s = Schema::new("p", ["status", "job"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::str("nurse")]),
                Tuple::of([Value::str("retired"), Value::str("n/a")]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[job] t2").unwrap(),
        ];
        Specification::without_orders(e, sigma, vec![])
    }

    /// The clauses of `group` while it is active, read back from the
    /// clause arena as (premise atoms, conclusion atom) — guard literals
    /// map to no atom and are skipped. Empty for no group or a retracted
    /// one.
    fn live_group_clauses(
        enc: &EncodedSpec,
        group: Option<GroupId>,
    ) -> Vec<(Vec<OrderAtom>, Option<OrderAtom>)> {
        let Some(group) = group.filter(|&g| enc.is_group_active(g)) else {
            return Vec::new();
        };
        (0..enc.cnf().num_clauses())
            .filter(|&idx| enc.clause_group(idx).is_some_and(|(g, _)| g == group))
            .map(|idx| {
                let mut premise = Vec::new();
                let mut conclusion = None;
                for &lit in enc.cnf().clause(idx) {
                    let Some(atom) = enc.order_atom(lit.var()) else {
                        continue;
                    };
                    if lit.is_positive() {
                        conclusion = Some(atom);
                    } else {
                        premise.push(atom);
                    }
                }
                (premise, conclusion)
            })
            .collect()
    }

    #[test]
    fn full_encoding_allocates_all_pairs() {
        let spec = tiny_spec();
        let enc = EncodedSpec::encode(&spec);
        // Two attributes, two values each → 2·2·1 = 4 order vars.
        assert_eq!(enc.num_order_vars(), 4);
        // Sat: the chain working≺retired, nurse≺n/a is consistent.
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_derives_the_chain() {
        let spec = tiny_spec();
        let enc = EncodedSpec::encode(&spec);
        let mut up = cr_sat::UnitPropagator::new(enc.cnf());
        let implied = up.propagate_to_fixpoint().expect("valid spec").to_vec();
        let status = spec.schema().attr_id("status").unwrap();
        let job = spec.schema().attr_id("job").unwrap();
        let sid = |v: &str| enc.value_id(status, &Value::str(v)).unwrap();
        let jid = |v: &str| enc.value_id(job, &Value::str(v)).unwrap();
        let x_status = enc.var_of(status, sid("working"), sid("retired")).unwrap();
        let x_job = enc.var_of(job, jid("nurse"), jid("n/a")).unwrap();
        assert!(implied.contains(&x_status.positive()));
        assert!(implied.contains(&x_job.positive()));
    }

    #[test]
    fn contradictory_base_orders_are_unsat() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![Tuple::of([Value::int(1)]), Tuple::of([Value::int(2)])],
        )
        .unwrap();
        let mut orders = crate::orders::PartialOrders::empty(1);
        orders.add(AttrId(0), cr_types::TupleId(0), cr_types::TupleId(1));
        orders.add(AttrId(0), cr_types::TupleId(1), cr_types::TupleId(0));
        let spec = Specification::new(e, orders, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn transitivity_closes_chains() {
        // a<b, b<c base orders; check a<c is implied (Φ ∧ ¬x_ac unsat).
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::int(1)]),
                Tuple::of([Value::int(2)]),
                Tuple::of([Value::int(3)]),
            ],
        )
        .unwrap();
        let mut orders = crate::orders::PartialOrders::empty(1);
        orders.add(AttrId(0), cr_types::TupleId(0), cr_types::TupleId(1));
        orders.add(AttrId(0), cr_types::TupleId(1), cr_types::TupleId(2));
        let spec = Specification::new(e, orders, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let a = AttrId(0);
        let id = |v: i64| enc.value_id(a, &Value::int(v)).unwrap();
        let x_ac = enc.var_of(a, id(1), id(3)).unwrap();
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(
            solver.solve_with_assumptions(&[x_ac.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn lazy_encoding_matches_eager_on_validity() {
        let spec = tiny_spec();
        let eager = EncodedSpec::encode(&spec);
        let mut lazy = EncodedSpec::encode_lazy(&spec);
        // Same variables, strictly fewer clauses (no axioms materialised).
        assert_eq!(lazy.num_order_vars(), eager.num_order_vars());
        assert!(lazy.cnf().num_clauses() < eager.cnf().num_clauses());
        let mut s1 = Solver::from_cnf(eager.cnf());
        let mut s2 = lazy.fresh_solver();
        assert_eq!(s1.solve(), s2.solve_lazy(&mut lazy));
    }

    #[test]
    fn lazy_up_deduction_matches_eager() {
        // The φ-chain of `tiny_spec` must propagate identically whether the
        // axioms are materialised or pulled on demand.
        let spec = tiny_spec();
        let mut eager = EncodedSpec::encode(&spec);
        let mut lazy = EncodedSpec::encode_lazy(&spec);
        let od_eager = crate::deduce::deduce_order(&mut eager).unwrap();
        let od_lazy = crate::deduce::deduce_order(&mut lazy).unwrap();
        assert_eq!(od_eager.size(), od_lazy.size());
        for attr in spec.schema().attr_ids() {
            for (lo, hi) in od_eager.pairs(attr) {
                assert!(od_lazy.contains(attr, lo, hi));
            }
        }
    }

    #[test]
    fn recording_source_appends_to_the_cnf() {
        let spec = tiny_spec();
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let before = enc.cnf().num_clauses();
        assert_eq!(enc.injected_axioms(), 0);
        let status = spec.schema().attr_id("status").unwrap();
        let sid = |v: &str| enc.value_id(status, &Value::str(v)).unwrap();
        // Σ forces working ≺ retired; assuming retired ≺ working as well
        // is refuted only by the asymmetry axiom, which the CEGAR loop
        // must inject.
        let back = enc.var_of(status, sid("retired"), sid("working")).unwrap();
        let mut solver = enc.fresh_solver();
        assert_eq!(
            solver.solve_lazy_with_assumptions(&[back.positive()], &mut enc),
            SolveResult::Unsat
        );
        assert!(
            enc.injected_axioms() > 0,
            "the probe forces axiom injection"
        );
        assert_eq!(enc.cnf().num_clauses(), before + enc.injected_axioms());
        assert!((before..enc.cnf().num_clauses()).all(|i| enc.clause_kind(i) == ClauseKind::Axiom));
        // Recorded clauses are permanent: a fresh solver over the CNF sees
        // them without any lazy cooperation.
        let mut solver = enc.fresh_solver();
        assert_eq!(
            solver.solve_with_assumptions(&[back.positive()]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn cfd_plus_currency_derives_cross_attribute_values() {
        // Miniature of Example 2 steps (c)-(d): status chain forces the AC,
        // then the CFD forces the city.
        let s = Schema::new("p", ["status", "AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::int(212), Value::str("NY")]),
                Tuple::of([Value::str("retired"), Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[AC] t2").unwrap(),
        ];
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, sigma, gamma);
        let enc = EncodedSpec::encode(&spec);
        let city = spec.schema().attr_id("city").unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        let x = enc.var_of(city, ny, la).unwrap();
        // NY ≺ LA must be implied.
        let mut solver = Solver::from_cnf(enc.cnf());
        assert_eq!(
            solver.solve_with_assumptions(&[x.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn guarded_encoding_matches_unguarded_once_activated() {
        // Same spec as above, encoded lazily (guarded CFDs) and eagerly
        // (plain CFD clauses): the bare lazy CNF no longer forces the CFD
        // (guards free), while the activated encoding does, like the eager
        // one.
        let s = Schema::new("p", ["status", "AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::int(212), Value::str("NY")]),
                Tuple::of([Value::str("retired"), Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[AC] t2").unwrap(),
        ];
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, sigma, gamma);
        let mut lazy = EncodedSpec::encode_lazy(&spec);
        let eager = EncodedSpec::encode(&spec);
        assert_eq!(lazy.active_guards().len(), 1);
        assert!(
            eager.active_guards().is_empty(),
            "eager CFD clauses are plain"
        );
        let city = spec.schema().attr_id("city").unwrap();
        let ny = lazy.value_id(city, &Value::str("NY")).unwrap();
        let la = lazy.value_id(city, &Value::str("LA")).unwrap();
        let x = lazy.var_of(city, ny, la).unwrap();
        let x_eager = eager
            .var_of(
                city,
                eager.value_id(city, &Value::str("NY")).unwrap(),
                eager.value_id(city, &Value::str("LA")).unwrap(),
            )
            .unwrap();
        let mut bare = Solver::from_cnf(lazy.cnf());
        assert_eq!(
            bare.solve_with_assumptions(&[x.negative()]),
            SolveResult::Sat
        );
        let mut plain = Solver::from_cnf(eager.cnf());
        assert_eq!(
            plain.solve_with_assumptions(&[x_eager.negative()]),
            SolveResult::Unsat
        );
        let mut activated = lazy.fresh_solver();
        assert_eq!(
            activated.solve_lazy_with_assumptions(&[x.negative()], &mut lazy),
            SolveResult::Unsat
        );
        assert_eq!(activated.solve_lazy(&mut lazy), SolveResult::Sat);
        // Guard variables are not order atoms.
        let guard = lazy.active_guards()[0].var();
        assert!(lazy.order_atom(guard).is_none());
        assert!(lazy.order_atom(x).is_some());
    }

    #[test]
    fn extension_with_in_domain_answer_matches_scratch_deduction() {
        // Answering city=LA must make LA the deduced top of `city` exactly
        // as a from-scratch re-encode of the extended spec would.
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
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let city = spec.schema().attr_id("city").unwrap();
        let input = UserInput::single(city, Value::str("LA"));

        let before = enc.cnf().num_clauses();
        assert!(enc.extend_with_input(&spec, &input).is_empty());
        assert!(enc.cnf().num_clauses() > before, "unit clauses appended");

        let mut extended = spec.clone();
        extended.apply_user_input(&input);
        let mut scratch = EncodedSpec::encode(&extended);
        let od_inc = crate::deduce::deduce_order(&mut enc).unwrap();
        let od_scr = crate::deduce::deduce_order(&mut scratch).unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        assert!(od_inc.contains(city, ny, la));
        assert!(od_scr.contains(city, ny, la));
    }

    #[test]
    fn extension_instantiates_sigma_on_the_new_tuple() {
        // σ: t1 <[status] t2 → t1 <[job] t2. Answering status=retired
        // creates the pair (t_working, to) whose instance forces the job
        // order too.
        let spec = tiny_spec();
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let status = spec.schema().attr_id("status").unwrap();
        let job = spec.schema().attr_id("job").unwrap();
        let input = UserInput::single(status, Value::str("retired"));
        assert!(enc.extend_with_input(&spec, &input).is_empty());
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        let jid = |v: &str| enc.value_id(job, &Value::str(v)).unwrap();
        assert!(od.contains(job, jid("nurse"), jid("n/a")));
    }

    #[test]
    fn guarded_extension_absorbs_out_of_domain_values() {
        // The answered value is new: the space grows, the new value tops
        // the attribute, and deduction still works on the extended CNF.
        let spec = tiny_spec();
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let status = spec.schema().attr_id("status").unwrap();
        let input = UserInput::single(status, Value::str("deceased"));
        // No CFDs → nothing to retract, but the extension must succeed.
        assert!(enc.extend_with_input(&spec, &input).is_empty());
        let deceased = enc
            .value_id(status, &Value::str("deceased"))
            .expect("interned");
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        for old in ["working", "retired"] {
            let oid = enc.value_id(status, &Value::str(old)).unwrap();
            assert!(od.contains(status, oid, deceased), "{old} must sit below");
        }
        // The grown space stays internally consistent: the lazy source
        // covers the new pairs' asymmetry and transitivity.
        assert!(crate::isvalid::is_valid_encoded(&mut enc).valid);
    }

    #[test]
    fn guarded_extension_retracts_and_reemits_cfd_on_lhs_growth() {
        // CFD: AC = 213 → city = "LA". A new AC value must invalidate the
        // old ωX premise (which didn't mention it) — after answering
        // AC=999, the CFD may no longer fire, because 999 tops AC.
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let gamma = parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let ac = spec.schema().attr_id("AC").unwrap();
        let city = spec.schema().attr_id("city").unwrap();
        let old_group = enc.cfd_groups[0];
        assert!(!live_group_clauses(&enc, old_group).is_empty());

        let input = UserInput::single(ac, Value::int(999));
        let retracted = enc.extend_with_input(&spec, &input);
        assert_eq!(retracted.len(), 1, "the CFD's group must be retracted");
        assert!(
            live_group_clauses(&enc, old_group).is_empty(),
            "stale group stays dead"
        );

        // Re-emitted instances now range over the grown AC space: the ωX
        // premise contains 999 ≺ 213, which contradicts the base-order unit
        // 213 ≺ 999 — so the CFD is dead and city stays ambiguous.
        let nid = enc.value_id(ac, &Value::int(999)).unwrap();
        let cid213 = enc.value_id(ac, &Value::int(213)).unwrap();
        let reemitted = live_group_clauses(&enc, enc.cfd_groups[0]);
        assert!(!reemitted.is_empty());
        assert!(
            reemitted
                .iter()
                .all(|(premise, _)| premise.contains(&OrderAtom {
                    attr: ac,
                    lo: nid,
                    hi: cid213
                })),
            "re-emitted ωX must mention the new value"
        );
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        assert!(
            !od.contains(city, ny, la),
            "CFD must not fire after retraction"
        );
        assert!(!od.contains(city, la, ny));
        // And the scratch re-encode agrees.
        let mut extended = spec.clone();
        extended.apply_user_input(&input);
        let mut scratch = EncodedSpec::encode(&extended);
        let od_scr = crate::deduce::deduce_order(&mut scratch).unwrap();
        let ny_s = scratch.value_id(city, &Value::str("NY")).unwrap();
        let la_s = scratch.value_id(city, &Value::str("LA")).unwrap();
        assert!(!od_scr.contains(city, ny_s, la_s));
        assert!(!od_scr.contains(city, la_s, ny_s));
    }

    #[test]
    fn guarded_extension_activates_previously_dead_cfd() {
        // CFD: AC = 999 → city = "LA". 999 is outside the domain at encode
        // time (CFD vacuous); answering AC=999 must bring it to life:
        // 999 tops AC, the ωX premise holds, NY ≺ LA becomes deducible.
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let gamma = parse_cfds(&s, "AC = 999 -> city = \"LA\"").unwrap();
        let spec = Specification::without_orders(e, vec![], gamma);
        let mut enc = EncodedSpec::encode_lazy(&spec);
        assert!(live_group_clauses(&enc, enc.cfd_groups[0]).is_empty());
        assert!(enc.active_guards().is_empty());

        let ac = spec.schema().attr_id("AC").unwrap();
        let input = UserInput::single(ac, Value::int(999));
        let retracted = enc.extend_with_input(&spec, &input);
        assert!(retracted.is_empty(), "nothing was emitted before");
        assert_eq!(enc.active_guards().len(), 1, "the CFD now has a live group");
        assert!(!live_group_clauses(&enc, enc.cfd_groups[0]).is_empty());

        let city = spec.schema().attr_id("city").unwrap();
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        assert!(od.contains(city, ny, la), "revived CFD must fire");
    }

    #[test]
    fn lazy_extension_is_a_pure_extension_too() {
        // In-domain answers extend the encoding with Σ instances;
        // out-of-domain answers grow the table without emitting axiom
        // clauses (the lazy source covers the grown space).
        let spec = tiny_spec();
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let status = spec.schema().attr_id("status").unwrap();
        let job = spec.schema().attr_id("job").unwrap();
        assert!(enc
            .extend_with_input(&spec, &UserInput::single(status, Value::str("retired")))
            .is_empty());
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        let jid = |v: &str| enc.value_id(job, &Value::str(v)).unwrap();
        assert!(od.contains(job, jid("nurse"), jid("n/a")));

        // Out-of-domain growth: only Ω clauses are appended, never triples.
        let clauses_before = enc.cnf().num_clauses();
        let mut extended = spec.clone();
        extended.apply_user_input(&UserInput::single(status, Value::str("retired")));
        assert!(enc
            .extend_with_input(
                &extended,
                &UserInput::single(status, Value::str("deceased"))
            )
            .is_empty());
        let appended = enc.cnf().num_clauses() - clauses_before;
        // 3 base-order units for the grown space (working, retired and the
        // previous user tuple's value are all interned already) — nothing
        // cubic.
        assert!(appended <= 4, "lazy growth appended {appended} clauses");
        let deceased = enc
            .value_id(status, &Value::str("deceased"))
            .expect("interned");
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        for old in ["working", "retired"] {
            let oid = enc.value_id(status, &Value::str(old)).unwrap();
            assert!(od.contains(status, oid, deceased), "{old} must sit below");
        }
    }

    /// A spec whose CFD fires: AC order via the base order pair, city via
    /// the CFD's domination.
    fn fired_cfd_spec() -> Specification {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(1), Value::str("NY")]),
                Tuple::of([Value::int(2), Value::str("LA")]),
            ],
        )
        .unwrap();
        let mut orders = crate::orders::PartialOrders::empty(2);
        orders.add(AttrId(0), cr_types::TupleId(0), cr_types::TupleId(1));
        let gamma = parse_cfds(&s, "AC = 2 -> city = \"LA\"").unwrap();
        Specification::new(e, orders, vec![], gamma)
    }

    #[test]
    fn retract_cfd_neutralises_the_group_and_blocks_reemission() {
        let spec = fired_cfd_spec();
        let mut enc = EncodedSpec::encode_lazy(&spec);
        let city = AttrId(1);
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        // The CFD fires (AC base order implies 1 ≺ 2): NY ≺ LA implied.
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        assert!(od.contains(city, ny, la));
        let group = enc.cfd_groups[0];
        assert!(!live_group_clauses(&enc, group).is_empty());

        enc.retract_cfd(0);
        assert!(enc.is_cfd_retired(0));
        assert!(
            live_group_clauses(&enc, group).is_empty(),
            "retired CFD clauses must be neutralised"
        );
        let od = crate::deduce::deduce_order(&mut enc).unwrap();
        assert!(
            !od.contains(city, ny, la),
            "the domination dies with the CFD"
        );

        // An out-of-domain answer growing `AC` must NOT re-emit the CFD.
        let input = UserInput::single(AttrId(0), Value::int(9));
        enc.extend_with_input(&spec, &input);
        assert!(
            enc.cfd_groups[0].is_none(),
            "a retired CFD is never re-emitted"
        );
    }

    /// A lazy encoding whose attribute `i` has exactly `widths[i]`
    /// distinct non-null values (plus null when `with_null`), and no Σ/Γ:
    /// the order-variable table is all the axiom scans read.
    fn lazy_wide_encoding(widths: &[usize], with_null: bool) -> EncodedSpec {
        let names: Vec<String> = (0..widths.len()).map(|i| format!("a{i}")).collect();
        let s = Schema::new("w", names.iter().map(String::as_str)).unwrap();
        let rows = widths.iter().copied().max().unwrap_or(0) + usize::from(with_null);
        let tuples = (0..rows)
            .map(|r| {
                Tuple::of(widths.iter().map(|&w| {
                    if r < w {
                        Value::int(r as i64)
                    } else if with_null {
                        Value::Null
                    } else {
                        Value::int(0)
                    }
                }))
            })
            .collect();
        let entity = EntityInstance::new(s, tuples).unwrap();
        let spec = Specification::without_orders(entity, vec![], vec![]);
        EncodedSpec::encode_lazy(&spec)
    }

    /// SplitMix64 step — the axiom proptest derives every random choice
    /// from one drawn seed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn buffer_clauses(buf: &ClauseBuffer) -> Vec<Vec<Lit>> {
        buf.iter().map(<[Lit]>::to_vec).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The bit-row axiom scan emits exactly the clause sequence of the
        /// value-by-value reference scan — same instances, same order — on
        /// random total models (transitive, intransitive-tournament and
        /// arbitrary), lifted or not, and across multi-word rows.
        #[test]
        fn bit_row_axiom_scans_match_the_reference(
            widths in proptest::collection::vec(0usize..10, 1..4),
            wide in 0usize..4,
            with_null in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut widths = widths;
            // One attribute in four spans two bit-row words.
            if wide == 0 {
                widths[0] = 60 + (seed % 12) as usize;
            }
            let mut rng = seed;
            let mut enc = lazy_wide_encoding(&widths, with_null == 1);
            let num_vars = enc.cnf().num_vars() as usize;
            let mut buf = ClauseBuffer::new();

            // Total models: a random linear order per attribute, then a few
            // flipped pairs (an intransitive tournament) or noise.
            let mode = splitmix(&mut rng) % 3;
            let mut model = vec![false; num_vars];
            for (var, atom) in enc.order_vars().collect::<Vec<_>>() {
                let rank = |x: ValueId| (u64::from(x.0) * 0x9E37_79B9).wrapping_add(seed) % 1009;
                model[var.index()] = (rank(atom.lo), atom.lo) < (rank(atom.hi), atom.hi);
            }
            let order_vars: Vec<(Var, OrderAtom)> = enc.order_vars().collect();
            if !order_vars.is_empty() {
                for _ in 0..mode * 3 {
                    let pick = (splitmix(&mut rng) % order_vars.len() as u64) as usize;
                    let (var, atom) = order_vars[pick];
                    if mode == 1 {
                        // Flip the pair: still a tournament.
                        let back = enc.var_of(atom.attr, atom.hi, atom.lo).unwrap();
                        model[var.index()] = !model[var.index()];
                        model[back.index()] = !model[back.index()];
                    } else {
                        model[var.index()] = splitmix(&mut rng).is_multiple_of(2);
                    }
                }
            }
            let lookup = |v: Var| model.get(v.index()).copied();
            buf.clear();
            enc.violated_axioms(Assignment::Total(&model), &mut buf);
            let reference = enc.violated_axioms_reference(&lookup);
            proptest::prop_assert_eq!(buffer_clauses(&buf), reference);
            // The same model as a lifted assignment with unassigned slots.
            let lifted: Vec<LBool> = model
                .iter()
                .map(|&b| match splitmix(&mut rng).is_multiple_of(5) {
                    true => LBool::Undef,
                    false => LBool::from_bool(b),
                })
                .collect();
            let lookup = |v: Var| lifted.get(v.index()).and_then(|b| b.to_option());
            buf.clear();
            enc.violated_axioms(Assignment::Lifted(&lifted), &mut buf);
            let reference = enc.violated_axioms_reference(&lookup);
            proptest::prop_assert_eq!(buffer_clauses(&buf), reference);
        }
    }
}
