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
//! * append-only consumers of a formula: the solver and the unit
//!   propagator ingest a [`Cnf`]'s clause tail and never withdraw a
//!   clause, so a formula that loses clauses ([`Cnf::retain_clauses`]) is
//!   given to new ones ([`Solver::from_scratch`] recycles the old solver's
//!   allocations),
//! * a built-in strict-total-order theory ([`order`]) over registered
//!   order atoms, shared by both consumers: the solver runs it inside
//!   propagation with reasons rebuilt on demand
//!   ([`Solver::register_order_domain`]), the unit propagator inside its
//!   fixpoint ([`UnitPropagator::register_order_domain`]), so the `O(n³)`
//!   order axioms of the conflict-resolution encoding are never clauses,
//! * a caller-driven learnt-database sweep ([`Solver::compact_learnts`])
//!   keyed to interaction-round boundaries, and
//! * a standalone root-level unit-propagation engine mirroring the
//!   clause-reduction loop of `DeduceOrder` (Fig. 5 of the paper).
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
pub mod unit_propagation;

pub use cnf::Cnf;
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverScratch};
pub use stats::SolverStats;
pub use unit_propagation::UnitPropagator;
