//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The paper's `IsValid` algorithm (Section V-A) reduces specification
//! validity to SAT and hands the CNF `Φ(Se)` to MiniSat. This crate is a
//! from-scratch MiniSat-class solver providing everything the conflict
//! resolution stack needs:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP clause learning with recursive minimisation,
//! * VSIDS variable activities with phase saving,
//! * Luby restarts and activity-based learnt-clause database reduction,
//! * incremental solving under assumptions (used by `NaiveDeduce` and the
//!   exact true-value queries),
//! * an append-only formula: a solver ingests a [`Cnf`]'s clause tail
//!   ([`Solver::extend_from_cnf`]) and never withdraws a clause, so a
//!   formula that loses clauses ([`Cnf::retain_clauses`]) is given to a
//!   new solver ([`Solver::from_scratch`] recycles the old one's
//!   allocations),
//! * a built-in strict-total-order theory ([`order`]) over registered
//!   order atoms ([`Solver::register_order_domain`]), run inside
//!   propagation with reasons rebuilt on demand, so the `O(n³)` order
//!   axioms of the conflict-resolution encoding are never clauses,
//! * a caller-driven learnt-database sweep ([`Solver::compact_learnts`])
//!   keyed to interaction-round boundaries, and
//! * the root-level fixpoint of a solver that has had no conflict
//!   ([`Solver::root_trail`]): the clause-reduction loop of `DeduceOrder`
//!   (Fig. 5 of the paper), run by the same `propagate()` that drives the
//!   search.
//!
//! # Example
//! ```
//! use cr_sat::{Cnf, Solver, SolveResult};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([a.positive(), b.positive()]);
//! cnf.add_clause([a.negative()]);
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve() {
//!     SolveResult::Sat => assert_eq!(solver.model_value(b), Some(true)),
//!     SolveResult::Unsat => unreachable!(),
//! }
//! ```

pub mod cnf;
pub mod dimacs;
pub mod lit;
pub mod order;
pub mod solver;
pub mod stats;

pub use cnf::Cnf;
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverScratch};
pub use stats::SolverStats;

/// Root-level unit propagation, the engine of `DeduceOrder`, is
/// [`Solver::root_trail`]; these tests pin its fixpoint.
#[cfg(test)]
mod unit_propagation {
    mod tests;
}
