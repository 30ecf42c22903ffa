//! The CDCL solver: state, clause arena, public API and the main search loop.
//!
//! Submodules hold the algorithmic pieces: `propagate` (two-watched-literal
//! BCP and the order theory), `analyze` (1UIP learning and minimisation),
//! `decide` (VSIDS order heap), `reduce` (learnt-clause DB management) and
//! `restart` (Luby sequence).

mod analyze;
mod decide;
mod propagate;
mod reduce;
mod restart;

use crate::cnf::Cnf;
use crate::lit::{LBool, Lit, Var};
use crate::order::OrderTheory;
use crate::stats::SolverStats;
use decide::VarOrder;

/// Index of a clause in the solver's arena.
pub(crate) type ClauseRef = u32;

/// A clause stored in the arena. The first two literals are the watched ones.
#[derive(Debug)]
pub(crate) struct Clause {
    pub(crate) lits: Vec<Lit>,
    pub(crate) activity: f32,
    pub(crate) learnt: bool,
    pub(crate) deleted: bool,
}

/// Why a literal is assigned: the one way conflict analysis learns what
/// implied it ([`Solver::reason_lits`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Reason {
    /// A decision, an assumption or a learnt unit.
    None,
    /// The clause that became unit; the literal it implied is its first.
    Clause(ClauseRef),
    /// The order-axiom instance the theory applied when this trigger
    /// literal was assigned; [`OrderTheory::explain`] rebuilds it.
    Order(Lit),
}

/// A falsified constraint, given as the reason that implies a literal
/// which is already false: a clause (all of whose literals are false), or
/// an order-axiom instance with its implied literal.
pub(crate) type Conflict = (Reason, Lit);

/// A watcher entry: the clause plus a *blocker* literal whose truth lets the
/// propagator skip the clause without touching its memory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

/// Outcome of [`Solver::solve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

/// A CDCL SAT solver. See the crate docs for the feature list.
pub struct Solver {
    // Clause storage.
    pub(crate) clauses: Vec<Clause>,
    pub(crate) learnt_refs: Vec<ClauseRef>,
    pub(crate) watches: Vec<Vec<Watcher>>,

    // Assignment trail.
    pub(crate) assigns: Vec<LBool>,
    pub(crate) polarity: Vec<bool>,
    pub(crate) reason: Vec<Reason>,
    pub(crate) level: Vec<u32>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,

    // Decision heuristic.
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    pub(crate) var_decay: f64,
    pub(crate) order: VarOrder,

    // Learnt-clause management.
    pub(crate) cla_inc: f32,
    pub(crate) cla_decay: f32,
    pub(crate) max_learnts: f64,

    // Analyze scratch space.
    pub(crate) seen: Vec<bool>,
    /// Literals of the reason analysis is reading ([`Solver::reason_lits`]).
    pub(crate) reason_buf: Vec<Lit>,

    /// The order axioms over the registered order atoms, run inside
    /// `propagate` after each literal's watches.
    pub(crate) theory: OrderTheory,
    /// The literals the order theory implied from the literal being
    /// propagated.
    pub(crate) theory_buf: Vec<Lit>,

    /// False once a top-level conflict has been derived: the formula is
    /// unsatisfiable regardless of assumptions.
    pub(crate) ok: bool,

    pub(crate) model: Vec<LBool>,
    pub(crate) stats: SolverStats,

    /// Recycled clause-literal buffers harvested by [`Solver::into_scratch`]
    /// and consumed by [`Solver::add_clause`] — the per-clause `Vec<Lit>`
    /// allocations of the arena are the bulk of a solver's heap churn when
    /// many short-lived solvers run back to back (shard-local entity
    /// resolutions), so the pool keeps them alive across instances.
    pub(crate) spare_lits: Vec<Vec<Lit>>,
}

/// Recycled allocation capacity of a torn-down [`Solver`]: every buffer is
/// logically empty but keeps its heap reservation, so the next solver
/// built with [`Solver::from_scratch`] loads a formula of similar size
/// with near-zero allocator traffic. Obtained from [`Solver::into_scratch`];
/// behaviourally inert — [`Solver::from_scratch`] is state-identical to
/// [`Solver::new`] (capacities never influence search), which is what
/// keeps pooled and unpooled resolutions outcome-equal.
pub struct SolverScratch {
    solver: Solver,
}

impl Default for SolverScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverScratch {
    /// Empty scratch (no recycled capacity); useful as a pool seed.
    pub fn new() -> Self {
        SolverScratch {
            solver: Solver::new(),
        }
    }
}

/// Recycled clause-literal buffers retained at most this many; beyond it
/// the remainder is dropped (bounds pool memory between entities of wildly
/// different sizes).
const SPARE_LITS_CAP: usize = 1 << 14;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            order: VarOrder::new(),
            cla_inc: 1.0,
            cla_decay: 0.999,
            max_learnts: 0.0,
            seen: Vec::new(),
            reason_buf: Vec::new(),
            theory: OrderTheory::default(),
            theory_buf: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            spare_lits: Vec::new(),
        }
    }

    /// Builds a solver preloaded with every clause of `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        s.extend_from_cnf(cnf, 0);
        s
    }

    /// An empty solver on the recycled buffers of a previous one (see
    /// [`SolverScratch`]): state-identical to [`Solver::new`]. Register its
    /// order domains, then load the formula with
    /// [`Solver::extend_from_cnf`].
    pub fn from_scratch(scratch: SolverScratch) -> Self {
        scratch.solver
    }

    /// Tears the solver down to recyclable allocation capacity: all state
    /// is reset exactly as [`Solver::new`] leaves it, but every buffer —
    /// including the per-clause literal `Vec`s of the arena — keeps its
    /// heap reservation for the next [`Solver::from_scratch`].
    pub fn into_scratch(mut self) -> SolverScratch {
        // Harvest clause literal buffers (original and learnt alike).
        let mut spare = std::mem::take(&mut self.spare_lits);
        for c in self.clauses.drain(..) {
            if spare.len() >= SPARE_LITS_CAP {
                break;
            }
            let mut lits = c.lits;
            lits.clear();
            spare.push(lits);
        }
        self.clauses.clear();
        self.spare_lits = spare;
        self.learnt_refs.clear();
        // Keep the outer watcher vec (its slots hold inner capacity);
        // `new_var` re-extends it only past the recycled length.
        for w in &mut self.watches {
            w.clear();
        }
        self.assigns.clear();
        self.polarity.clear();
        self.reason.clear();
        self.level.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.order.clear();
        self.cla_inc = 1.0;
        self.max_learnts = 0.0;
        self.seen.clear();
        self.theory = OrderTheory::default();
        self.ok = true;
        self.model.clear();
        self.stats = SolverStats::default();
        SolverScratch { solver: self }
    }

    /// A recycled literal buffer if one is pooled, else a fresh `Vec`.
    fn take_spare_lits(&mut self) -> Vec<Lit> {
        self.spare_lits.pop().unwrap_or_default()
    }

    /// Appends the clauses of `cnf` starting at clause index `from`,
    /// allocating any missing variables. May be called between solves; all
    /// learnt clauses and variable activities are retained, which is what
    /// makes the resolution framework's per-round extension cheap.
    ///
    /// Returns `false` if the formula became trivially unsatisfiable.
    pub fn extend_from_cnf(&mut self, cnf: &Cnf, from: usize) -> bool {
        while self.num_vars() < cnf.num_vars() {
            self.new_var();
        }
        for clause in cnf.clauses_from(from) {
            self.add_clause(clause.iter().copied());
        }
        self.ok
    }

    /// Registers order domain `domain`: `n` values whose atom `lo ≺ hi`
    /// is `var(lo, hi)` for every `lo ≠ hi`. From then on propagation
    /// applies the asymmetry, totality and transitivity axioms over these
    /// atoms (see [`crate::order`]), and every model satisfies them.
    ///
    /// Call it at decision level zero (between solves), before any clause
    /// that can assign the domain's atoms: [`Solver::add_clause`]
    /// propagates root units at once. Registering the domain again with
    /// more values grows it; the new atoms must still be unassigned.
    pub fn register_order_domain(
        &mut self,
        domain: u32,
        n: usize,
        var: impl Fn(usize, usize) -> Var,
    ) {
        debug_assert_eq!(self.decision_level(), 0);
        let num_vars = self.theory.register_domain(domain, n, var, &self.assigns);
        while (self.num_vars() as usize) < num_vars {
            self.new_var();
        }
    }

    /// Root-level value of `v`: `Some(b)` iff the variable is already fixed
    /// by top-level propagation (original clauses, learnt units and their
    /// consequences). Such variables are implied by the formula, so callers
    /// like `NaiveDeduce` can skip SAT probes on them. Only meaningful
    /// between solves (at decision level zero).
    pub fn root_value(&self, v: Var) -> Option<bool> {
        debug_assert_eq!(self.decision_level(), 0);
        self.assigns[v.index()].to_option()
    }

    /// The literals fixed at decision level zero, in the order they were
    /// assigned, or `None` once the formula is refuted at the root.
    /// [`Solver::add_clause`] propagates root units, order theory
    /// included, so on a solver that was loaded but never searched this is
    /// exactly the unit-propagation fixpoint of its clauses (the paper's
    /// `DeduceOrder`, Fig. 5); a searched solver's trail also holds
    /// learnt units and their consequences. Only meaningful between solves.
    pub fn root_trail(&self) -> Option<&[Lit]> {
        debug_assert_eq!(self.decision_level(), 0);
        self.ok.then_some(&self.trail[..])
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Number of original (problem) clauses currently alive.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.deleted && !c.learnt)
            .count()
    }

    /// Search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.reason.push(Reason::None);
        self.level.push(0);
        self.activity.push(0.0);
        // Recycled solvers keep their (cleared) watcher slots; only grow
        // past the recycled length.
        let want = self.assigns.len() * 2;
        if self.watches.len() < want {
            self.watches.resize_with(want, Vec::new);
        }
        self.seen.push(false);
        self.order.insert(v, &self.activity);
        v
    }

    /// Current assignment of a variable (search state, not the model).
    pub fn value(&self, v: Var) -> LBool {
        self.assigns[v.index()]
    }

    /// Current assignment of a literal.
    pub(crate) fn value_lit(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Value of `v` in the model of the last successful [`Solver::solve`].
    pub fn model_value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).and_then(|b| b.to_option())
    }

    /// The full model of the last successful solve (one `bool` per variable;
    /// unconstrained variables default to `false`).
    pub fn model(&self) -> Vec<bool> {
        self.model
            .iter()
            .map(|b| b.to_option().unwrap_or(false))
            .collect()
    }

    /// Current decision level.
    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. May only be called at decision level zero (i.e. before
    /// or between solves). Returns `false` if the clause makes the formula
    /// trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut clause: Vec<Lit> = self.take_spare_lits();
        clause.extend(lits);
        for l in &clause {
            while self.num_vars() <= l.var().0 {
                self.new_var();
            }
        }
        clause.sort_unstable();
        clause.dedup();
        // Drop tautologies and root-false literals; detect root-satisfied
        // clauses.
        let mut write = 0;
        for i in 0..clause.len() {
            let l = clause[i];
            if i + 1 < clause.len() && clause[i + 1] == l.negate() {
                self.return_spare_lits(clause);
                return true; // tautology: p before ¬p after sorting
            }
            match self.value_lit(l) {
                LBool::True => {
                    self.return_spare_lits(clause);
                    return true;
                }
                LBool::False => {}
                LBool::Undef => {
                    clause[write] = l;
                    write += 1;
                }
            }
        }
        clause.truncate(write);
        match clause.len() {
            0 => {
                self.return_spare_lits(clause);
                self.ok = false;
                false
            }
            1 => {
                let unit = clause[0];
                self.return_spare_lits(clause);
                self.unchecked_enqueue(unit, Reason::None);
                // Propagate eagerly so later add_clause calls see the
                // consequences.
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_new_clause(clause, false);
                true
            }
        }
    }

    /// Returns a literal buffer to the recycling pool (bounded).
    fn return_spare_lits(&mut self, mut v: Vec<Lit>) {
        if self.spare_lits.len() < SPARE_LITS_CAP && v.capacity() > 0 {
            v.clear();
            self.spare_lits.push(v);
        }
    }

    /// Stores and watches a (≥ 2 literal) clause; returns its reference.
    pub(crate) fn attach_new_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as ClauseRef;
        let w0 = Watcher {
            cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            cref,
            blocker: lits[0],
        };
        self.watches[lits[0].index()].push(w0);
        self.watches[lits[1].index()].push(w1);
        self.clauses.push(Clause {
            lits,
            activity: 0.0,
            learnt,
            deleted: false,
        });
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    /// Removes a clause from the watcher lists and tombstones it.
    pub(crate) fn detach_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = &self.clauses[cref as usize];
            (c.lits[0], c.lits[1])
        };
        self.watches[l0.index()].retain(|w| w.cref != cref);
        self.watches[l1.index()].retain(|w| w.cref != cref);
        self.clauses[cref as usize].deleted = true;
    }

    /// Asserts `lit` with the given reason, pushing it on the trail.
    pub(crate) fn unchecked_enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        let v = lit.var();
        self.assigns[v.index()] = LBool::from_bool(lit.is_positive());
        self.reason[v.index()] = reason;
        self.level[v.index()] = self.decision_level();
        self.trail.push(lit);
    }

    /// Opens a new decision level.
    pub(crate) fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Writes the literals of `reason` into `out` (cleared first), the
    /// literal it implies first: a clause is copied from the arena, an
    /// order-axiom instance is rebuilt from its trigger. `implied` is the
    /// implied literal (for a clause, its first literal anyway).
    pub(crate) fn reason_lits(&self, reason: Reason, implied: Lit, out: &mut Vec<Lit>) {
        out.clear();
        match reason {
            Reason::None => {}
            Reason::Clause(cref) => out.extend_from_slice(&self.clauses[cref as usize].lits),
            Reason::Order(trigger) => self.theory.explain(implied, trigger, out),
        }
    }

    /// Backtracks to `target` decision level, unassigning and saving phases.
    pub(crate) fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.polarity[v.index()] = lit.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = Reason::None;
            self.order.insert(v, &self.activity);
            self.theory.on_unassign(lit);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. The solver state is
    /// reusable afterwards (learnt clauses are kept across calls), which is
    /// what `NaiveDeduce` relies on for its `|It|²` SAT probes.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.cancel_until(0);
        if !self.ok {
            return SolveResult::Unsat;
        }
        for a in assumptions {
            debug_assert!(a.var().0 < self.num_vars(), "assumption over unknown var");
        }
        if self.max_learnts == 0.0 {
            self.max_learnts = (self.clauses.len() as f64 / 3.0).max(2000.0);
        }
        let mut restarts = 0u64;
        let result = loop {
            let conflict_budget = restart::luby(2.0, restarts) * 100.0;
            match self.search(conflict_budget as u64, assumptions) {
                Some(res) => break res,
                None => {
                    restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        };
        if result == SolveResult::Sat {
            self.model.clone_from(&self.assigns);
        }
        self.cancel_until(0);
        result
    }

    /// Runs CDCL search until a result is known or `conflict_budget`
    /// conflicts have occurred (then returns `None` to signal a restart).
    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt_level) = self.analyze(confl);
                self.cancel_until(bt_level);
                match learnt.len() {
                    1 => self.unchecked_enqueue(learnt[0], Reason::None),
                    _ => {
                        let asserting = learnt[0];
                        let cref = self.attach_new_clause(learnt, true);
                        self.bump_clause_activity(cref);
                        self.unchecked_enqueue(asserting, Reason::Clause(cref));
                    }
                }
                self.decay_var_activity();
                self.decay_clause_activity();
            } else {
                if conflicts >= conflict_budget {
                    self.cancel_until(0);
                    return None;
                }
                if self.learnt_refs.len() as f64 >= self.max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                }
                // Assumptions are replayed as pseudo-decisions at the lowest
                // levels; restarts re-assert them automatically.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            self.new_decision_level();
                            self.unchecked_enqueue(a, Reason::None);
                        }
                    }
                } else {
                    match self.pick_branch_lit() {
                        None => return Some(SolveResult::Sat),
                        Some(lit) => {
                            self.stats.decisions += 1;
                            self.new_decision_level();
                            self.unchecked_enqueue(lit, Reason::None);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver_vars: &[Var], codes: &[i64]) -> Vec<Lit> {
        codes
            .iter()
            .map(|&c| solver_vars[(c.unsigned_abs() - 1) as usize].lit(c > 0))
            .collect()
    }

    fn nvars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(lits(&v, &[1, 2]));
        s.add_clause(lits(&v, &[-1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(false));
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 1);
        s.add_clause(lits(&v, &[1]));
        assert!(!s.add_clause(lits(&v, &[-1])));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_needs_learning() {
        // Classic: (a∨b) (a∨¬b) (¬a∨b) (¬a∨¬b)
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        for c in [[1, 2], [1, -2], [-1, 2], [-1, -2]] {
            s.add_clause(lits(&v, &c));
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(lits(&v, &[1, -1]));
        s.add_clause(lits(&v, &[2, 2, -1]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn implication_chain_propagates() {
        // x1 ∧ (x1→x2) ∧ ... ∧ (x9→x10): all true.
        let mut s = Solver::new();
        let v = nvars(&mut s, 10);
        s.add_clause(lits(&v, &[1]));
        for i in 1..10i64 {
            s.add_clause(lits(&v, &[-i, i + 1]));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for var in &v {
            assert_eq!(s.model_value(*var), Some(true));
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(lits(&v, &[1, 2]));
        assert_eq!(s.solve_with_assumptions(&lits(&v, &[-1])), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&lits(&v, &[-1, -2])),
            SolveResult::Unsat
        );
        // Solver remains usable: formula itself is still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumption_of_root_implied_literal() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 1);
        s.add_clause(lits(&v, &[1]));
        assert_eq!(s.solve_with_assumptions(&lits(&v, &[1])), SolveResult::Sat);
        assert_eq!(
            s.solve_with_assumptions(&lits(&v, &[-1])),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j; i in 0..3, j in 0..2.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for i in 0..3 {
            s.add_clause([p[i][0].positive(), p[i][1].positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn extend_from_cnf_between_solves_keeps_state() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.positive()]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Extend the same Cnf and sync only the tail.
        let synced = cnf.num_clauses();
        cnf.add_clause([a.negative()]);
        cnf.add_clause([b.negative()]);
        assert!(!s.extend_from_cnf(&cnf, synced));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn extend_from_cnf_grows_variables() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([a.positive()]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
        let synced = cnf.num_clauses();
        let b = cnf.new_var();
        cnf.add_clause([a.negative(), b.positive()]);
        assert!(s.extend_from_cnf(&cnf, synced));
        assert_eq!(s.num_vars(), 2);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
    }

    #[test]
    fn root_value_reflects_top_level_propagation() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause(lits(&v, &[1]));
        s.add_clause(lits(&v, &[-1, 2]));
        assert_eq!(s.root_value(v[0]), Some(true));
        assert_eq!(s.root_value(v[1]), Some(true));
        assert_eq!(s.root_value(v[2]), None);
        // Still None for free variables after a solve (model is separate).
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.root_value(v[2]), None);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn retraction_neutralises_learnt_clauses() {
        // A conflict-rich pigeonhole fragment forces learning until the
        // formula is refuted. Deleting its at-most-one clauses from the
        // CNF and rebuilding the solver on the old one's scratch must
        // leave no learnt clause or refutation behind: all pigeons in the
        // first hole violates only deleted clauses.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Var>> = (0..4)
            .map(|_| (0..3).map(|_| cnf.new_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|v| v.positive()));
        }
        let at_least_one = cnf.num_clauses();
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    cnf.add_clause([p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0, "the refutation needs search");
        cnf.retain_clauses(|idx| idx < at_least_one);
        let mut s = Solver::from_scratch(s.into_scratch());
        s.extend_from_cnf(&cnf, 0);
        let all_first: Vec<Lit> = p.iter().map(|row| row[0].positive()).collect();
        assert_eq!(s.solve_with_assumptions(&all_first), SolveResult::Sat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn compact_learnts_bounds_the_database() {
        let mut s = Solver::new();
        let n = 7;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.positive()));
        }
        for j in 0..n {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let cap = 8;
        s.compact_learnts(cap);
        // Binary and locked clauses are exempt, but long unlocked learnts
        // must be gone down to the cap.
        let long_learnts = s
            .learnt_refs
            .iter()
            .filter(|&&r| s.clauses[r as usize].lits.len() > 2)
            .count();
        assert!(long_learnts <= cap, "{long_learnts} > {cap}");
        // Still correct afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn from_cnf_matches_manual_build() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.negative()]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
        let ma = s.model_value(a).unwrap();
        let mb = s.model_value(b).unwrap();
        assert_ne!(ma, mb);
    }
}
