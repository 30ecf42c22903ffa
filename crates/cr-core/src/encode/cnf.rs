//! `ConvertToCNF`: from instance constraints to the CNF Φ(Se).
//!
//! # CFD clauses and their deletion
//!
//! A CFD's instance constraints are plain clauses, each tagged with the
//! CFD's index. Only CFD instances can go stale: Σ instances, base orders
//! and null-bottom units are never invalidated by user input; new values
//! only *add* to them.
//!
//! * *Extension* — when a user answer introduces a new value on an
//!   attribute a CFD ranges over, the CFD's ωX premise (and possibly its
//!   domination conclusions) no longer quantify over the whole space.
//!   [`EncodedSpec::extend_with_input`] deletes the CFD's clauses from
//!   Φ(Se) and re-emits the CFD over the grown space at the end of the
//!   CNF.
//! * *Withdrawal* — a CFD withdrawn upstream
//!   ([`EncodedSpec::retract_cfd`]) loses its clauses the same way and is
//!   never re-emitted.
//!
//! Both go through one deletion primitive, which keeps the clause arena
//! and the per-clause tags parallel. A deletion shifts clause indices, so
//! a solver that ingested the CNF by clause index is rebuilt from it; the
//! engine does that at its next call (see the `crate::ingest` module
//! docs).
//!
//! # Order axioms as a theory
//!
//! The order axioms are not part of the CNF, and nothing adds them to it
//! later: Φ(Se) holds exactly the instance constraints. A CDCL solver
//! from [`EncodedSpec::fresh_solver`] holds the axioms as the built-in
//! order theory of `cr_sat::order`, over the attributes' dense `lo × hi`
//! variable tables, which the encoding registers as order domains. The
//! solver runs the theory inside its propagation, so its root trail
//! before any search is the fixpoint of propagation over every axiom
//! clause (`DeduceOrder`), and it rebuilds an applied instance as a
//! reason clause only when conflict analysis asks for it, so each of its
//! models satisfies every axiom.
//!
//! Every solver over an encoding is loaded this way: the one-shot steps
//! and the MaxSAT repair through [`EncodedSpec::fresh_solver`], the
//! session's solver through `EncodedSpec::load_solver` (see the
//! `crate::ingest` and `crate::suggest` docs). A bare
//! `cr_sat::Solver::from_cnf(enc.cnf())` knows no order axiom.

use cr_sat::{Cnf, Lit, Var};
use cr_types::{AttrId, AttrValueSpace, Value, ValueId};

use super::omega::{
    build_spaces, compiled_cfd_instances, emit_base, emit_sigma_gamma, instantiate_pair,
    Conclusion, InstanceConstraint, OmegaSink, OrderAtom, Premise, ProjectionCache,
};
use crate::spec::{Specification, UserInput};

/// Sentinel for an unallocated slot in [`VarTable`].
const NO_VAR: u32 = u32::MAX;

/// Tag of a clause that is neither a CFD instance nor an order rule (a
/// null-bottom unit): rule derivation ignores it.
const GENERAL: u32 = u32::MAX;

/// Tag of a Σ-currency or base-order implication with an order-atom
/// conclusion: exactly the Ω instances the paper's `TrueDer` rule
/// derivation (Section VI) consumes, re-read from the clause arena by
/// [`EncodedSpec::for_each_order_rule`].
const ORDER_RULE: u32 = u32::MAX - 1;

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
        self.enc.clause_tags.reserve(capped);
        self.enc.cnf.reserve_clauses(capped);
    }
    fn emit(&mut self, c: InstanceConstraint) {
        self.enc.add_omega_constraint(c);
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
/// a round of the Fig. 4 loop appends the clauses induced by the fresh
/// user-input tuple instead of re-deriving the whole CNF. This covers
/// *every* input, including answers outside the interned value space: the
/// new value's order variables are appended, and the CFDs over a grown
/// attribute lose their clauses and are re-emitted (see the module docs).
pub struct EncodedSpec {
    space: AttrValueSpace,
    vars: VarTable,
    /// The order atom of every variable: variable `i` is atom `i`.
    atoms: Vec<OrderAtom>,
    cnf: Cnf,
    /// One tag per CNF clause, parallel to `cnf.clauses()`: the CFD (index
    /// into Γ) the clause instantiates, [`ORDER_RULE`] or [`GENERAL`]. The
    /// tag is what lets the encoding keep no Ω(Se) instance list: rule
    /// derivation re-reads its order rules straight from the clause arena.
    clause_tags: Vec<u32>,
    /// Per CFD index: withdrawn by an upstream correction
    /// ([`EncodedSpec::retract_cfd`]); never re-emitted.
    cfd_retired: Vec<bool>,
}

impl EncodedSpec {
    /// The encoding of `spec`: Φ(Se) holds exactly the instance
    /// constraints, extensible with every user answer. Its solvers hold the
    /// order axioms (totality included) as their order theory: build them
    /// with [`EncodedSpec::fresh_solver`].
    pub fn encode(spec: &Specification) -> Self {
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
            cnf: Cnf::new(),
            clause_tags: Vec::new(),
            cfd_retired: vec![false; spec.gamma().len()],
        };

        // Variables for every ordered pair of distinct values: the full
        // dense table (`O(n²)` per attribute), which the solvers register
        // as the order theory's domains and on which `top_literals` relies.
        // The table is empty here, so the atoms can be bulk-allocated in
        // row-major walk order without the per-atom existence check `var()`
        // pays.
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
        enc.cnf.ensure_vars(idx);

        // Ω(Se), streamed straight from the compiled-program projection
        // into clause emission — instance construction and clause
        // conversion happen in one pass with no intermediate buffer.
        {
            let program = spec.compiled_program().clone();
            let mut sink = EncoderSink { enc: &mut enc };
            emit_base(spec, &space, &g2l, &mut sink);
            emit_sigma_gamma(spec, &program, &space, &g2l, &mut sink);
        }
        enc.space = space;
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
    /// Answers **outside** the interned value space grow the space: the
    /// new value id appends a row to the dense attr×lo×hi variable table
    /// and allocates its pair variables (a solver registers the grown
    /// attribute again as an order domain), its
    /// null-bottom unit is appended, and every CFD referencing the grown
    /// attribute loses its clauses and is re-emitted over the new space
    /// (see the module docs).
    ///
    /// `spec` must be the specification this encoding currently represents
    /// (i.e. *before* the input is applied). Returns whether clauses were
    /// deleted: a solver synced by clause index must then be rebuilt
    /// from the CNF instead of fed its tail.
    pub(crate) fn extend_with_input(&mut self, spec: &Specification, input: &UserInput) -> bool {
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

        // Out-of-domain answers: append the new values, then delete and
        // re-emit every CFD whose premise or conclusion ranges over a grown
        // attribute, so ωX premises and domination sets quantify over the
        // current space.
        let mut deleted = false;
        let program = spec.compiled_program().clone();
        for (attr, v) in &input.values {
            if !v.is_null() && self.space.get(*attr, v).is_none() {
                let vid = self.append_value(*attr, v);
                answered.push((*attr, vid));
            }
        }
        if !grown.is_empty() {
            grown.sort_unstable();
            grown.dedup();
            // A CFD withdrawn upstream is never re-emitted.
            let stale: Vec<bool> = spec
                .gamma()
                .iter()
                .enumerate()
                .map(|(gi, cfd)| {
                    !self.cfd_retired[gi]
                        && (cfd
                            .lhs()
                            .iter()
                            .any(|(a, _)| grown.binary_search(a).is_ok())
                            || grown.binary_search(&cfd.rhs().0).is_ok())
                })
                .collect();
            deleted = self.delete_cfd_clauses(|gi| stale[gi]);
            for (gi, cfd) in program.gamma.iter().enumerate() {
                if stale[gi] {
                    for c in compiled_cfd_instances(&self.space, None, gi, cfd) {
                        self.add_omega_constraint(c);
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
        deleted
    }

    /// Appends a brand-new value to `attr`'s space: interns it, regrows the
    /// variable table, allocates the order variables of every pair
    /// involving it and emits its null-bottom unit. The order axioms of
    /// the new pairs stay unmaterialised: the grown table is what a solver
    /// registers again. Null is never appended: user answers are non-null.
    fn append_value(&mut self, attr: AttrId, v: &Value) -> ValueId {
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
    /// upstream **CFD retraction** (see [`crate::ingest`]). The CFD's
    /// clauses are deleted and the CFD is marked retired so no later
    /// extension re-emits it. A session calls it on each fresh encoding of
    /// its specification, before any solver reads the CNF.
    pub(crate) fn retract_cfd(&mut self, gi: usize) {
        self.cfd_retired[gi] = true;
        self.delete_cfd_clauses(|c| c == gi);
    }

    /// Deletes the clauses of every CFD `stale` selects (by index into Γ)
    /// from the CNF, keeping the per-clause tags parallel — the one
    /// deletion of the encoding (see the module docs). Returns whether a
    /// clause went.
    fn delete_cfd_clauses(&mut self, stale: impl Fn(usize) -> bool) -> bool {
        let stale_tag = |tag: u32| tag < ORDER_RULE && stale(tag as usize);
        if !self.clause_tags.iter().any(|&tag| stale_tag(tag)) {
            return false;
        }
        let tags = &self.clause_tags;
        self.cnf.retain_clauses(|idx| !stale_tag(tags[idx]));
        self.clause_tags.retain(|&tag| !stale_tag(tag));
        true
    }

    /// True iff CFD `gamma[gi]` was withdrawn by `EncodedSpec::retract_cfd`.
    /// Rule derivation (`TrueDer`) skips retired CFDs.
    pub fn is_cfd_retired(&self, gi: usize) -> bool {
        self.cfd_retired.get(gi).copied().unwrap_or(false)
    }

    /// Adds the clause of an instance constraint to the CNF, tagged with
    /// its CFD, [`ORDER_RULE`] or [`GENERAL`]. Literals go
    /// straight into the CNF's flat arena — no per-clause allocation, no
    /// intermediate buffer — and the clause is the instance's sole
    /// representation.
    ///
    /// Delta constraints from [`EncodedSpec::extend_with_input`] may
    /// duplicate already-instantiated projections — harmless: duplicate
    /// clauses are absorbed by the solvers, and rule derivation
    /// canonicalises its premise pools (`true_der` sorts and dedups them),
    /// so deriving rules from Ω(Se) is insensitive to duplicates and
    /// ordering.
    fn add_omega_constraint(&mut self, c: InstanceConstraint) {
        for a in c.premise.iter() {
            let lit = self.var(*a).negative();
            self.cnf.push_clause_lit(lit);
        }
        let is_atom = matches!(c.conclusion, Conclusion::Atom(_));
        if let Conclusion::Atom(atom) = c.conclusion {
            let concl = self.var(atom).positive();
            self.cnf.push_clause_lit(concl);
        }
        self.cnf.finish_clause();
        self.clause_tags.push(match c.origin {
            super::Origin::Cfd(gi) => gi as u32,
            super::Origin::Currency(_) | super::Origin::BaseOrder if is_atom => ORDER_RULE,
            _ => GENERAL,
        });
    }

    /// Allocates (or returns) the variable for an order atom.
    fn var(&mut self, atom: OrderAtom) -> Var {
        if let Some(v) = self.vars.get(atom.attr, atom.lo, atom.hi) {
            return v;
        }
        let v = self.cnf.new_var();
        debug_assert_eq!(v.index(), self.atoms.len());
        self.vars.set(atom.attr, atom.lo, atom.hi, v);
        self.atoms.push(atom);
        v
    }

    /// The instance clauses of `Φ(Se)`: the encoded Ω(Se), base orders and
    /// CFD groups, without the asymmetry, totality and transitivity axioms
    /// (the engine's solvers hold those as their order theory). A solver
    /// over this CNF alone is not complete: build one with
    /// [`fresh_solver`](Self::fresh_solver), or take the axioms as clauses
    /// from `cr_store::reference_cnf`.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Walks the order-rule clauses — the Σ-currency and base-order
    /// implications with an order-atom conclusion, i.e. exactly the Ω(Se)
    /// subset the paper's rule derivation (`TrueDer`, Section VI) consumes
    /// — in emission order, and hands `f` the premise atoms and conclusion
    /// atom of each clause whose conclusion `wanted` accepts.
    ///
    /// The conclusion is read first: `add_omega_constraint` writes it as
    /// the clause's last literal, so a rejected clause costs one lookup in
    /// the var → atom table, and only an accepted one has its premise
    /// rebuilt from the flat literal arena. Pass `|_| true` to visit every
    /// order rule.
    ///
    /// The premise slice is a scratch buffer reused across clauses; copy
    /// out whatever must outlive the callback.
    pub fn for_each_order_rule(
        &self,
        mut wanted: impl FnMut(OrderAtom) -> bool,
        mut f: impl FnMut(&[OrderAtom], OrderAtom),
    ) {
        let mut premise: Vec<OrderAtom> = Vec::new();
        for idx in 0..self.clause_tags.len() {
            if self.clause_tags[idx] != ORDER_RULE {
                continue;
            }
            let (&last, rest) = self
                .cnf
                .clause(idx)
                .split_last()
                .expect("order-rule clauses have an atom conclusion");
            debug_assert!(last.is_positive() && rest.iter().all(|l| !l.is_positive()));
            let conclusion = self.atoms[last.var().index()];
            if !wanted(conclusion) {
                continue;
            }
            premise.clear();
            premise.extend(rest.iter().map(|lit| self.atoms[lit.var().index()]));
            f(&premise, conclusion);
        }
    }

    /// Approximate heap footprint of the encoding in bytes: the CNF arena,
    /// the per-clause tags, the dense variable table and the
    /// atom table. Feeds the bytes-per-entity accounting of the
    /// benchmarks.
    pub fn approx_bytes(&self) -> usize {
        let vars: usize = self
            .vars
            .per_attr
            .iter()
            .map(|t| t.capacity() * std::mem::size_of::<u32>())
            .sum();
        self.cnf.approx_bytes()
            + self.clause_tags.capacity() * std::mem::size_of::<u32>()
            + vars
            + self.atoms.capacity() * std::mem::size_of::<OrderAtom>()
    }

    /// The per-attribute value spaces (active domain + null).
    pub fn space(&self) -> &AttrValueSpace {
        &self.space
    }

    /// The variable encoding `lo ≺v_attr hi`, if allocated.
    pub fn var_of(&self, attr: AttrId, lo: ValueId, hi: ValueId) -> Option<Var> {
        self.vars.get(attr, lo, hi)
    }

    /// The order atom behind a variable, or `None` for a variable past the
    /// encoding's (such as a MaxSAT selector).
    pub fn order_atom(&self, var: Var) -> Option<OrderAtom> {
        self.atoms.get(var.index()).copied()
    }

    /// All order variables with their atoms, in allocation order.
    pub fn order_vars(&self) -> impl Iterator<Item = (Var, OrderAtom)> + '_ {
        (0..).map(Var).zip(self.atoms.iter().copied())
    }

    /// Number of order variables — every variable of the encoding.
    pub fn num_order_vars(&self) -> usize {
        self.atoms.len()
    }

    /// A CDCL solver over `Φ(Se)` with every order atom registered: the one
    /// way to build a complete solver over the encoding. Until it has a
    /// conflict, its root trail ([`cr_sat::Solver::root_trail`]) is the
    /// unit-propagation fixpoint `DeduceOrder` reads.
    pub fn fresh_solver(&self) -> cr_sat::Solver {
        self.load_solver(cr_sat::Solver::new())
    }

    /// Registers every order atom with the empty `solver`, then loads
    /// `Φ(Se)` into it: [`EncodedSpec::fresh_solver`] on a solver the
    /// caller built, such as one on recycled scratch.
    pub(crate) fn load_solver(&self, mut solver: cr_sat::Solver) -> cr_sat::Solver {
        self.register_order_atoms(0, |d, n, var| solver.register_order_domain(d, n, var));
        solver.extend_from_cnf(&self.cnf, 0);
        solver
    }

    /// The one registration routine of every solver: hands `register`
    /// every attribute that has order atoms allocated since atom `from`
    /// (allocation order) as `(domain, n, var)`, one domain laid out from
    /// the attribute's own table and width, whose atom `lo ≺ hi` is
    /// `var(lo, hi)`. The solver then holds the order axioms over those
    /// atoms as its theory (see the module docs); a grown attribute is
    /// registered again.
    pub(crate) fn register_order_atoms(
        &self,
        from: usize,
        mut register: impl FnMut(u32, usize, &dyn Fn(usize, usize) -> Var),
    ) {
        if from == self.atoms.len() {
            return;
        }
        let mut grown = vec![false; self.space.arity()];
        for atom in &self.atoms[from..] {
            grown[atom.attr.index()] = true;
        }
        for (ai, _) in grown.iter().enumerate().filter(|(_, &g)| g) {
            let (n, table) = (self.vars.width[ai], &self.vars.per_attr[ai]);
            register(ai as u32, n, &|lo, hi| Var(table[lo * n + hi]));
        }
    }

    /// Interned id of `value` in `attr`'s space.
    pub fn value_id(&self, attr: AttrId, value: &Value) -> Option<ValueId> {
        self.space.get(attr, value)
    }

    /// The value behind `(attr, id)`.
    pub fn value(&self, attr: AttrId, id: ValueId) -> &Value {
        self.space.value(attr, id)
    }

    /// The literals asserting "`v` is the most current value of `attr`":
    /// every other value of the space sits strictly below `v`. The dense
    /// variable table is fully allocated, so every pair has its variable.
    pub fn top_literals(&self, attr: AttrId, v: ValueId) -> impl Iterator<Item = Lit> + '_ {
        self.space
            .attr(attr)
            .ids()
            .filter(move |&o| o != v)
            .map(move |o| {
                self.vars
                    .get(attr, o, v)
                    .expect("dense variable table")
                    .positive()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
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

    /// The clauses of CFD `gi`, read back from the clause arena as
    /// (premise atoms, conclusion atom).
    fn cfd_clauses(enc: &EncodedSpec, gi: usize) -> Vec<(Vec<OrderAtom>, Option<OrderAtom>)> {
        (0..enc.cnf().num_clauses())
            .filter(|&idx| enc.clause_tags[idx] == gi as u32)
            .map(|idx| {
                let mut premise = Vec::new();
                let mut conclusion = None;
                for &lit in enc.cnf().clause(idx) {
                    let atom = enc.order_atom(lit.var()).unwrap();
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
        let mut solver = enc.fresh_solver();
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_derives_the_chain() {
        let spec = tiny_spec();
        let enc = EncodedSpec::encode(&spec);
        let solver = enc.fresh_solver();
        let implied = solver.root_trail().expect("valid spec");
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
        // Both units hold in Φ(Se); only the asymmetry axiom refutes them.
        assert_eq!(Solver::from_cnf(enc.cnf()).solve(), SolveResult::Sat);
        assert_eq!(enc.fresh_solver().solve(), SolveResult::Unsat);
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
        let mut solver = enc.fresh_solver();
        assert_eq!(
            solver.solve_with_assumptions(&[x_ac.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn lazy_queries_leave_the_cnf_unchanged() {
        let spec = tiny_spec();
        let enc = EncodedSpec::encode(&spec);
        let before = enc.cnf().clauses().map(<[Lit]>::to_vec).collect::<Vec<_>>();
        let status = spec.schema().attr_id("status").unwrap();
        let sid = |v: &str| enc.value_id(status, &Value::str(v)).unwrap();
        // Σ forces working ≺ retired; assuming retired ≺ working as well
        // is refuted only by the asymmetry axiom, which no clause holds:
        // the solver's order theory applies it.
        let back = enc.var_of(status, sid("retired"), sid("working")).unwrap();
        let mut solver = enc.fresh_solver();
        assert_eq!(
            solver.solve_with_assumptions(&[back.positive()]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(), SolveResult::Sat);
        // A bare solver over the CNF knows no axiom.
        let mut bare = Solver::from_cnf(enc.cnf());
        assert_eq!(
            bare.solve_with_assumptions(&[back.positive()]),
            SolveResult::Sat
        );
        let after = enc.cnf().clauses().map(<[Lit]>::to_vec).collect::<Vec<_>>();
        assert_eq!(before, after, "a query adds nothing to Φ(Se)");
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
        let mut solver = enc.fresh_solver();
        assert_eq!(
            solver.solve_with_assumptions(&[x.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn cfd_clauses_are_tagged_and_force_their_conclusion() {
        // Same spec as above: the CFD's clauses carry its tag, and a
        // solver over the CNF forces the CFD.
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
        let ac = spec.schema().attr_id("AC").unwrap();
        let ac212 = enc.value_id(ac, &Value::int(212)).unwrap();
        let ac213 = enc.value_id(ac, &Value::int(213)).unwrap();
        let domination = |lo, hi| OrderAtom { attr: city, lo, hi };
        assert_eq!(
            cfd_clauses(&enc, 0),
            vec![(
                vec![OrderAtom {
                    attr: ac,
                    lo: ac212,
                    hi: ac213
                }],
                Some(domination(ny, la))
            )]
        );
        let x = enc.var_of(city, ny, la).unwrap();
        let mut solver = enc.fresh_solver();
        assert_eq!(
            solver.solve_with_assumptions(&[x.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(), SolveResult::Sat);
        // Every variable is an order atom.
        assert_eq!(enc.num_order_vars(), enc.cnf().num_vars() as usize);
        assert_eq!(
            enc.order_atom(x),
            Some(OrderAtom {
                attr: city,
                lo: ny,
                hi: la
            })
        );
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
        let mut enc = EncodedSpec::encode(&spec);
        let city = spec.schema().attr_id("city").unwrap();
        let input = UserInput::single(city, Value::str("LA"));

        let before = enc.cnf().num_clauses();
        assert!(!enc.extend_with_input(&spec, &input));
        assert!(enc.cnf().num_clauses() > before, "unit clauses appended");

        let mut extended = spec.clone();
        extended.apply_user_input(&input);
        let scratch = EncodedSpec::encode(&extended);
        let od_inc = crate::deduce::deduce_order(&enc).unwrap();
        let od_scr = crate::deduce::deduce_order(&scratch).unwrap();
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
        let mut enc = EncodedSpec::encode(&spec);
        let status = spec.schema().attr_id("status").unwrap();
        let job = spec.schema().attr_id("job").unwrap();
        let input = UserInput::single(status, Value::str("retired"));
        assert!(!enc.extend_with_input(&spec, &input));
        let od = crate::deduce::deduce_order(&enc).unwrap();
        let jid = |v: &str| enc.value_id(job, &Value::str(v)).unwrap();
        assert!(od.contains(job, jid("nurse"), jid("n/a")));
    }

    #[test]
    fn guarded_extension_absorbs_out_of_domain_values() {
        // The answered value is new: the space grows, the new value tops
        // the attribute, and deduction still works on the extended CNF.
        let spec = tiny_spec();
        let mut enc = EncodedSpec::encode(&spec);
        let status = spec.schema().attr_id("status").unwrap();
        let input = UserInput::single(status, Value::str("deceased"));
        // No CFDs → nothing to delete, but the extension must succeed.
        assert!(!enc.extend_with_input(&spec, &input));
        let deceased = enc
            .value_id(status, &Value::str("deceased"))
            .expect("interned");
        let od = crate::deduce::deduce_order(&enc).unwrap();
        for old in ["working", "retired"] {
            let oid = enc.value_id(status, &Value::str(old)).unwrap();
            assert!(od.contains(status, oid, deceased), "{old} must sit below");
        }
        // The grown space stays internally consistent: a fresh solver's
        // order theory covers the new pairs' asymmetry and transitivity.
        assert!(crate::isvalid::is_valid_encoded(&enc).valid);
    }

    #[test]
    fn extension_deletes_and_reemits_cfd_on_lhs_growth() {
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
        let mut enc = EncodedSpec::encode(&spec);
        let ac = spec.schema().attr_id("AC").unwrap();
        let city = spec.schema().attr_id("city").unwrap();
        let stale = cfd_clauses(&enc, 0);
        assert!(!stale.is_empty());

        let input = UserInput::single(ac, Value::int(999));
        assert!(
            enc.extend_with_input(&spec, &input),
            "the CFD's clauses must be deleted"
        );

        // Re-emitted instances now range over the grown AC space: the ωX
        // premise contains 999 ≺ 213, which contradicts the base-order unit
        // 213 ≺ 999 — so the CFD is dead and city stays ambiguous.
        let nid = enc.value_id(ac, &Value::int(999)).unwrap();
        let cid213 = enc.value_id(ac, &Value::int(213)).unwrap();
        let reemitted = cfd_clauses(&enc, 0);
        assert!(!reemitted.is_empty());
        assert!(
            stale.iter().all(|c| !reemitted.contains(c)),
            "no stale clause survives"
        );
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
        let od = crate::deduce::deduce_order(&enc).unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        assert!(
            !od.contains(city, ny, la),
            "CFD must not fire after the deletion"
        );
        assert!(!od.contains(city, la, ny));
        // And the scratch re-encode agrees.
        let mut extended = spec.clone();
        extended.apply_user_input(&input);
        let scratch = EncodedSpec::encode(&extended);
        let od_scr = crate::deduce::deduce_order(&scratch).unwrap();
        let ny_s = scratch.value_id(city, &Value::str("NY")).unwrap();
        let la_s = scratch.value_id(city, &Value::str("LA")).unwrap();
        assert!(!od_scr.contains(city, ny_s, la_s));
        assert!(!od_scr.contains(city, la_s, ny_s));
    }

    #[test]
    fn extension_emits_previously_vacuous_cfd() {
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
        let mut enc = EncodedSpec::encode(&spec);
        assert!(cfd_clauses(&enc, 0).is_empty());

        let ac = spec.schema().attr_id("AC").unwrap();
        let input = UserInput::single(ac, Value::int(999));
        assert!(
            !enc.extend_with_input(&spec, &input),
            "nothing was emitted before, so nothing is deleted"
        );
        assert!(!cfd_clauses(&enc, 0).is_empty(), "the CFD now has clauses");

        let city = spec.schema().attr_id("city").unwrap();
        let od = crate::deduce::deduce_order(&enc).unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        assert!(od.contains(city, ny, la), "revived CFD must fire");
    }

    #[test]
    fn lazy_extension_is_a_pure_extension_too() {
        // In-domain answers extend the encoding with Σ instances;
        // out-of-domain answers grow the table without emitting axiom
        // clauses (the solvers' order theory covers the grown space).
        let spec = tiny_spec();
        let mut enc = EncodedSpec::encode(&spec);
        let status = spec.schema().attr_id("status").unwrap();
        let job = spec.schema().attr_id("job").unwrap();
        assert!(!enc.extend_with_input(&spec, &UserInput::single(status, Value::str("retired"))));
        let od = crate::deduce::deduce_order(&enc).unwrap();
        let jid = |v: &str| enc.value_id(job, &Value::str(v)).unwrap();
        assert!(od.contains(job, jid("nurse"), jid("n/a")));

        // Out-of-domain growth: only Ω clauses are appended, never triples.
        let clauses_before = enc.cnf().num_clauses();
        let mut extended = spec.clone();
        extended.apply_user_input(&UserInput::single(status, Value::str("retired")));
        assert!(!enc.extend_with_input(
            &extended,
            &UserInput::single(status, Value::str("deceased"))
        ));
        let appended = enc.cnf().num_clauses() - clauses_before;
        // 3 base-order units for the grown space (working, retired and the
        // previous user tuple's value are all interned already) — nothing
        // cubic.
        assert!(appended <= 4, "lazy growth appended {appended} clauses");
        let deceased = enc
            .value_id(status, &Value::str("deceased"))
            .expect("interned");
        let od = crate::deduce::deduce_order(&enc).unwrap();
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
    fn retract_cfd_deletes_its_clauses_and_blocks_reemission() {
        let spec = fired_cfd_spec();
        let mut enc = EncodedSpec::encode(&spec);
        let city = AttrId(1);
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        // The CFD fires (AC base order implies 1 ≺ 2): NY ≺ LA implied.
        let od = crate::deduce::deduce_order(&enc).unwrap();
        assert!(od.contains(city, ny, la));
        assert!(!cfd_clauses(&enc, 0).is_empty());
        let clauses = enc.cnf().num_clauses();

        enc.retract_cfd(0);
        assert!(enc.is_cfd_retired(0));
        assert!(
            cfd_clauses(&enc, 0).is_empty(),
            "retired CFD clauses are deleted"
        );
        assert_eq!(enc.cnf().num_clauses(), enc.clause_tags.len());
        assert!(enc.cnf().num_clauses() < clauses);
        let od = crate::deduce::deduce_order(&enc).unwrap();
        assert!(
            !od.contains(city, ny, la),
            "the domination dies with the CFD"
        );

        // An out-of-domain answer growing `AC` must NOT re-emit the CFD.
        let input = UserInput::single(AttrId(0), Value::int(9));
        assert!(!enc.extend_with_input(&spec, &input));
        assert!(
            cfd_clauses(&enc, 0).is_empty(),
            "a retired CFD is never re-emitted"
        );
    }
}
