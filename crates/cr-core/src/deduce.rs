//! `DeduceOrder` and `NaiveDeduce`: deriving implied currency orders
//! (Section V-B, step (2) of Fig. 4).

use cr_sat::{SolveResult, Solver};
use cr_types::{AttrId, AttrValueSpace, ValueId};

use crate::encode::{EncodedSpec, OrderAtom};

/// A deduced partial order `Od` at the value level: `Se |= Od`.
///
/// Dense: one `n × n` bit matrix per attribute over the encoding's value
/// space, row-major (`lo * n + hi`, the layout of the encoding's variable
/// table). [`contains`](Self::contains) is one bit test, and
/// [`pairs`](Self::pairs) walks the set bits, so it yields an attribute's
/// pairs in `(lo, hi)` order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DeducedOrders {
    /// Per attribute: the width `n` and the first word of its matrix.
    shape: Vec<(usize, usize)>,
    words: Vec<u64>,
    size: usize,
}

impl DeducedOrders {
    /// No orders, over the widths of `space`.
    pub(crate) fn empty(space: &AttrValueSpace) -> Self {
        let mut shape = Vec::with_capacity(space.arity());
        let mut total = 0;
        for i in 0..space.arity() {
            let n = space.attr(AttrId(i as u16)).len();
            shape.push((n, total));
            total += (n * n).div_ceil(64);
        }
        DeducedOrders {
            shape,
            words: vec![0; total],
            size: 0,
        }
    }

    /// The word and bit of `lo ≺v_attr hi`, if both lie in the space.
    #[inline]
    fn slot(&self, attr: AttrId, lo: ValueId, hi: ValueId) -> Option<(usize, u64)> {
        let (n, start) = self.shape[attr.index()];
        if lo.index() >= n || hi.index() >= n {
            return None;
        }
        let bit = lo.index() * n + hi.index();
        Some((start + bit / 64, 1 << (bit % 64)))
    }

    /// Records `lo ≺v_attr hi`.
    pub(crate) fn insert(&mut self, attr: AttrId, lo: ValueId, hi: ValueId) {
        let (word, mask) = self
            .slot(attr, lo, hi)
            .expect("deduced orders range over the encoding's value space");
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.size += 1;
        }
    }

    /// True iff `lo ≺v_attr hi` was deduced.
    pub fn contains(&self, attr: AttrId, lo: ValueId, hi: ValueId) -> bool {
        self.slot(attr, lo, hi)
            .is_some_and(|(word, mask)| self.words[word] & mask != 0)
    }

    /// All pairs deduced for `attr`, in `(lo, hi)` order.
    pub fn pairs(&self, attr: AttrId) -> impl Iterator<Item = (ValueId, ValueId)> + '_ {
        let (n, start) = self.shape[attr.index()];
        let words = &self.words[start..start + (n * n).div_ceil(64)];
        words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((ValueId((bit / n) as u32), ValueId((bit % n) as u32)))
            })
        })
    }

    /// Total number of deduced pairs.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Values of `attr` not dominated by any other value — the candidate
    /// true values `V(attr)` of `DeriveVR` (Section V-C.2): the rows of
    /// `attr`'s matrix without a set bit.
    pub fn candidates(&self, enc: &EncodedSpec, attr: AttrId) -> Vec<ValueId> {
        let interner = enc.space().attr(attr);
        let mut dominated = vec![false; interner.len()];
        for (lo, _) in self.pairs(attr) {
            dominated[lo.index()] = true;
        }
        interner.ids().filter(|v| !dominated[v.index()]).collect()
    }
}

/// The pairs of each attribute, not the bit words.
impl std::fmt::Debug for DeducedOrders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let attrs = (0..self.shape.len()).map(|a| AttrId(a as u16));
        f.debug_list()
            .entries(attrs.map(|a| self.pairs(a).collect::<Vec<_>>()))
            .finish()
    }
}

/// `DeduceOrder` (Fig. 5): runs root-level unit propagation on `Φ(Se)`.
/// Every one-literal consequence is an implied order: a positive literal
/// `x^A_{a1,a2}` yields `a1 ≺v a2`; a negative one yields `a2 ≺v a1`
/// (sound because valid completions induce *total* value orders).
///
/// Propagation is the root trail of a solver from
/// [`EncodedSpec::fresh_solver`], which propagates every root unit as it
/// loads the formula and has had no conflict, so its trail is exactly the
/// unit-propagation fixpoint ([`Solver::root_trail`]). The order axioms
/// are the solver's order theory over the atoms the encoding registered,
/// whose fixpoint equals propagation over the materialised axiom clauses.
///
/// Returns `None` if propagation derives a conflict (the specification is
/// invalid — callers should have checked `IsValid` first).
pub fn deduce_order(enc: &EncodedSpec) -> Option<DeducedOrders> {
    deduce_order_on(&enc.fresh_solver(), enc)
}

/// The body of [`deduce_order`] over a solver that holds every clause of
/// `enc`'s CNF and the order axioms and has had no conflict: the one-shot
/// call passes a fresh one, the session its warm solver, which it keeps
/// alive across rounds and feeds the per-round clause and atom deltas, so
/// each round only propagates the consequences of the new clauses. The
/// oracles pass a solver over their reference CNF, which holds the axioms
/// as clauses. The rule is: no conflict ⇒ no learnt clause ⇒ the root
/// trail is the unit-propagation fixpoint. A solver that has had a
/// conflict may hold learnt units on its root trail, which would make
/// `DeduceOrder` stronger than unit propagation; the session rebuilds
/// such a solver from Φ(Se) before it calls this.
pub fn deduce_order_on(solver: &Solver, enc: &EncodedSpec) -> Option<DeducedOrders> {
    debug_assert_eq!(
        solver.stats().conflicts,
        0,
        "no conflict ⇒ no learnt clause ⇒ root trail = unit-propagation fixpoint"
    );
    let implied = solver.root_trail()?;
    Some(orders_from_implied(enc, implied))
}

/// Maps implied order-atom literals to deduced value orders.
fn orders_from_implied(enc: &EncodedSpec, implied: &[cr_sat::Lit]) -> DeducedOrders {
    let mut od = DeducedOrders::empty(enc.space());
    for &lit in implied {
        let Some(OrderAtom { attr, lo, hi }) = enc.order_atom(lit.var()) else {
            continue;
        };
        if lit.is_positive() {
            od.insert(attr, lo, hi);
        } else {
            od.insert(attr, hi, lo);
        }
    }
    od
}

/// `NaiveDeduce`: the complete (but expensive) variant — for every order
/// variable `x`, probe `Φ(Se) ∧ ¬x` and `Φ(Se) ∧ x` with the SAT solver;
/// an unsatisfiable probe means the opposite literal is implied.
///
/// Probes run on one solver from [`EncodedSpec::fresh_solver`], which
/// holds the order axioms as its theory, so each probe answers as over the
/// formula with every axiom clause. Clauses learnt by one probe persist and
/// sharpen all later probes.
///
/// Returns `None` if `Φ(Se)` itself is unsatisfiable.
pub fn naive_deduce(enc: &EncodedSpec) -> Option<DeducedOrders> {
    naive_deduce_on(&mut enc.fresh_solver(), enc)
}

/// The body of [`naive_deduce`] over a solver that holds every clause of
/// `enc`'s CNF and the order axioms: the one-shot call passes a fresh one,
/// the session its warm solver (shared with the validity check, so learnt
/// clauses carry across both phases and across rounds), the oracles one
/// over their reference CNF. Any variable already fixed by root-level
/// propagation is implied and recorded without a SAT call.
pub fn naive_deduce_on(solver: &mut Solver, enc: &EncodedSpec) -> Option<DeducedOrders> {
    let plan = probe_plan(enc);
    if solver.solve() == SolveResult::Unsat {
        return None;
    }
    let mut od = DeducedOrders::empty(enc.space());
    for (var, OrderAtom { attr, lo, hi }) in plan {
        // The symmetric variable's probes already decided this pair.
        if od.contains(attr, lo, hi) || od.contains(attr, hi, lo) {
            continue;
        }
        // Fixed at the root by propagation (original clauses or units
        // learnt from earlier probes): implied, no SAT call needed.
        match solver.root_value(var) {
            Some(true) => {
                od.insert(attr, lo, hi);
                continue;
            }
            Some(false) => {
                od.insert(attr, hi, lo);
                continue;
            }
            None => {}
        }
        if solver.solve_with_assumptions(&[var.negative()]) == SolveResult::Unsat {
            od.insert(attr, lo, hi);
        } else if solver.solve_with_assumptions(&[var.positive()]) == SolveResult::Unsat {
            od.insert(attr, hi, lo);
        }
    }
    Some(od)
}

/// Probe order: descending CNF occurrence count — a static VSIDS-style
/// score. Heavily constrained variables are the most likely to be UNSAT
/// probes, and answering those first seeds the solver with learnt clauses
/// (and root-level units) that let later probes be skipped outright.
fn probe_plan(enc: &EncodedSpec) -> Vec<(cr_sat::Var, OrderAtom)> {
    let mut occurrences = vec![0u32; enc.cnf().num_vars() as usize];
    for clause in enc.cnf().clauses() {
        for lit in clause {
            occurrences[lit.var().index()] += 1;
        }
    }
    let mut probe_order: Vec<(cr_sat::Var, OrderAtom)> = enc.order_vars().collect();
    probe_order.sort_by_key(|(v, _)| std::cmp::Reverse(occurrences[v.index()]));
    probe_order
}

/// The paper's `NaiveDeduce` exactly as described: a **fresh** SAT-solver
/// invocation per probe ("this approach … calls the SAT-solver |It|² times").
/// [`naive_deduce`] improves on it by keeping one incremental solver (learnt
/// clauses carry across probes); this variant exists for the Fig. 8(b)
/// ablation quantifying that difference.
pub fn naive_deduce_fresh(enc: &EncodedSpec) -> Option<DeducedOrders> {
    let fresh_solve = |extra: Option<cr_sat::Lit>| {
        let mut solver = enc.fresh_solver();
        if let Some(lit) = extra {
            solver.add_clause([lit]);
        }
        solver.solve()
    };
    if fresh_solve(None) == SolveResult::Unsat {
        return None;
    }
    let mut od = DeducedOrders::empty(enc.space());
    for (var, OrderAtom { attr, lo, hi }) in enc.order_vars() {
        if od.contains(attr, lo, hi) || od.contains(attr, hi, lo) {
            continue;
        }
        if fresh_solve(Some(var.negative())) == SolveResult::Unsat {
            od.insert(attr, lo, hi);
            continue;
        }
        if fresh_solve(Some(var.positive())) == SolveResult::Unsat {
            od.insert(attr, hi, lo);
        }
    }
    Some(od)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Specification;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
    use cr_types::{EntityInstance, Schema, Tuple, Value};
    use proptest::prop_assert_eq;

    /// The George fragment of Example 9: DeduceOrder finds the kids and
    /// status orders plus the propagated job/AC/zip orders.
    fn george_like() -> Specification {
        let s = Schema::new("p", ["status", "job", "kids"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::str("sailor"), Value::int(0)]),
                Tuple::of([Value::str("retired"), Value::str("veteran"), Value::int(2)]),
                Tuple::of([Value::str("unemployed"), Value::str("n/a"), Value::int(2)]),
            ],
        )
        .unwrap();
        let sigma = vec![
            parse_currency_constraint(
                &s,
                r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            )
            .unwrap(),
            parse_currency_constraint(&s, "t1[kids] < t2[kids] -> t1 <[kids] t2").unwrap(),
            parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[job] t2").unwrap(),
        ];
        Specification::without_orders(e, sigma, vec![])
    }

    #[test]
    fn deduce_order_matches_example_9_prefix() {
        let spec = george_like();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).expect("valid spec");
        let status = spec.schema().attr_id("status").unwrap();
        let job = spec.schema().attr_id("job").unwrap();
        let kids = spec.schema().attr_id("kids").unwrap();
        let sid = |v: &str| enc.value_id(status, &Value::str(v)).unwrap();
        let jid = |v: &str| enc.value_id(job, &Value::str(v)).unwrap();
        let kid = |v: i64| enc.value_id(kids, &Value::int(v)).unwrap();
        // (1) 0 ≺ 2 by phi-kids; (2) working ≺ retired by phi1;
        // (3) sailor ≺ veteran by (2) and phi5.
        assert!(od.contains(kids, kid(0), kid(2)));
        assert!(od.contains(status, sid("working"), sid("retired")));
        assert!(od.contains(job, jid("sailor"), jid("veteran")));
        // unemployed is not ordered against retired: no spurious orders.
        assert!(!od.contains(status, sid("unemployed"), sid("retired")));
        assert!(!od.contains(status, sid("retired"), sid("unemployed")));
    }

    #[test]
    fn naive_deduce_is_a_superset_of_deduce_order() {
        let spec = george_like();
        let enc = EncodedSpec::encode(&spec);
        let up = deduce_order(&enc).unwrap();
        let naive = naive_deduce(&enc).unwrap();
        for attr in spec.schema().attr_ids() {
            for (lo, hi) in up.pairs(attr) {
                assert!(
                    naive.contains(attr, lo, hi),
                    "UP deduced a pair NaiveDeduce missed"
                );
            }
        }
        assert!(naive.size() >= up.size());
    }

    #[test]
    fn candidates_shrink_with_deduction() {
        let spec = george_like();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let status = spec.schema().attr_id("status").unwrap();
        let kids = spec.schema().attr_id("kids").unwrap();
        // kids: only 2 remains (0 is dominated).
        let kids_cands = od.candidates(&enc, kids);
        assert_eq!(kids_cands.len(), 1);
        assert_eq!(enc.value(kids, kids_cands[0]), &Value::int(2));
        // status: retired and unemployed remain (working dominated).
        let scands: Vec<&Value> = od
            .candidates(&enc, status)
            .into_iter()
            .map(|v| enc.value(status, v))
            .collect();
        assert_eq!(scands.len(), 2);
        assert!(scands.contains(&&Value::str("retired")));
        assert!(scands.contains(&&Value::str("unemployed")));
    }

    #[test]
    fn naive_deduce_catches_disjunctive_inference_up_misses() {
        // Γ forces city=LA whichever AC value tops: with ACs {212, 213} and
        // both CFDs pointing at LA, NY ≺ LA holds in all completions, but no
        // unit clause exists for UP to fire.
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        let gamma = [
            parse_cfds(&s, "AC = 212 -> city = \"LA\"").unwrap(),
            parse_cfds(&s, "AC = 213 -> city = \"LA\"").unwrap(),
        ]
        .concat();
        let spec = Specification::without_orders(e, vec![], gamma);
        let enc = EncodedSpec::encode(&spec);
        let city = spec.schema().attr_id("city").unwrap();
        let ny = enc.value_id(city, &Value::str("NY")).unwrap();
        let la = enc.value_id(city, &Value::str("LA")).unwrap();
        let naive = naive_deduce(&enc).unwrap();
        assert!(
            naive.contains(city, ny, la),
            "complete deduction finds NY ≺ LA"
        );
        // Documented incompleteness of the heuristic:
        let up = deduce_order(&enc).unwrap();
        assert!(!up.contains(city, ny, la), "UP alone cannot branch");
        // Without totality clauses even NaiveDeduce misses the fact:
        // `encoding_gaps::paper_encoding_misses_disjunctive_facts`.
    }

    #[test]
    fn fresh_and_incremental_naive_agree() {
        let spec = george_like();
        let enc = EncodedSpec::encode(&spec);
        let a = naive_deduce(&enc).unwrap();
        let b = naive_deduce_fresh(&enc).unwrap();
        assert_eq!(a.size(), b.size());
        for attr in spec.schema().attr_ids() {
            for (lo, hi) in a.pairs(attr) {
                assert!(b.contains(attr, lo, hi));
            }
        }
    }

    /// An encoding whose attribute `i` has `widths[i]` values (ints
    /// `0..widths[i]`), or no tuple at all (every width 0) when `widths`
    /// is empty.
    fn spec_of_widths(widths: &[usize], arity: usize) -> EncodedSpec {
        let names: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let s = Schema::new("p", names.iter().map(String::as_str)).unwrap();
        let rows = widths.iter().copied().max().unwrap_or(0);
        let tuples = (0..rows)
            .map(|t| Tuple::of(widths.iter().map(|&w| Value::int(t.min(w - 1) as i64))))
            .collect();
        let e = EntityInstance::new(s, tuples).unwrap();
        EncodedSpec::encode(&Specification::without_orders(e, vec![], vec![]))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The dense `Od` against a `BTreeSet` model: membership, pairs in
        /// `(lo, hi)` order, size, candidates and true values agree on
        /// random pairs over random widths (0 and 1 included).
        #[test]
        fn dense_orders_match_a_set_model(
            widths in proptest::collection::vec(1usize..10, 1..4),
            no_tuples in 0u8..6,
            raw in proptest::collection::vec((0usize..4, 0usize..10, 0usize..10), 0..60),
        ) {
            let arity = widths.len();
            let widths = if no_tuples == 0 { Vec::new() } else { widths };
            let enc = spec_of_widths(&widths, arity);
            let width = |a: usize| widths.get(a).copied().unwrap_or(0);
            let mut od = DeducedOrders::empty(enc.space());
            let mut model = std::collections::BTreeSet::new();
            for (a, lo, hi) in raw {
                let a = a % arity;
                if width(a) == 0 {
                    continue;
                }
                let (lo, hi) = (ValueId((lo % width(a)) as u32), ValueId((hi % width(a)) as u32));
                od.insert(AttrId(a as u16), lo, hi);
                model.insert((AttrId(a as u16), lo, hi));
            }
            prop_assert_eq!(od.size(), model.len());
            let tv = crate::truevalue::true_values_from_orders(&enc, &od);
            for a in 0..arity {
                let (attr, n) = (AttrId(a as u16), width(a));
                prop_assert_eq!(enc.space().attr(attr).len(), n);
                let want: Vec<_> = model
                    .iter()
                    .filter(|p| p.0 == attr)
                    .map(|&(_, lo, hi)| (lo, hi))
                    .collect();
                prop_assert_eq!(od.pairs(attr).collect::<Vec<_>>(), want.clone());
                for lo in 0..=n as u32 {
                    for hi in 0..=n as u32 {
                        let (lo, hi) = (ValueId(lo), ValueId(hi));
                        prop_assert_eq!(od.contains(attr, lo, hi), model.contains(&(attr, lo, hi)));
                    }
                }
                let dominated = |v: ValueId| want.iter().any(|&(lo, _)| lo == v);
                let cands: Vec<ValueId> = (0..n as u32).map(ValueId).filter(|&v| !dominated(v)).collect();
                prop_assert_eq!(od.candidates(&enc, attr), cands);
                let below = |v: ValueId| want.iter().filter(|&&(_, hi)| hi == v).count();
                let top = if n == 0 {
                    Some(Value::Null)
                } else {
                    (0..n as u32)
                        .map(ValueId)
                        .find(|&v| below(v) == n - 1)
                        .map(|v| enc.value(attr, v).clone())
                };
                prop_assert_eq!(tv.get(attr), top.as_ref());
            }
        }
    }

    #[test]
    fn conflict_returns_none() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![Tuple::of([Value::int(1)]), Tuple::of([Value::int(2)])],
        )
        .unwrap();
        let mut orders = crate::orders::PartialOrders::empty(1);
        orders.add(AttrId(0), cr_types::TupleId(0), cr_types::TupleId(1));
        orders.add(AttrId(0), cr_types::TupleId(1), cr_types::TupleId(0));
        let spec = Specification::new(e, orders, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        assert!(deduce_order(&enc).is_none());
        assert!(naive_deduce(&enc).is_none());
    }
}
