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
//! * *retractable clause groups* for the zero-rebuild interaction loop:
//!   the solver activates guard literals as persistent assumptions
//!   ([`Solver::set_persistent_assumptions`]) so a group can be withdrawn
//!   by a single root unit, and the unit propagator tags clauses with group
//!   ids and re-derives the surviving fixpoint on
//!   [`UnitPropagator::retract_groups`],
//! * *lazy axiom instantiation* ([`LazyAxiomSource`], [`lazy`]): large
//!   axiom schemes stay unmaterialised; the solver's CEGAR-style
//!   [`Solver::solve_lazy_with_assumptions`] and the propagator's
//!   [`UnitPropagator::propagate_to_fixpoint_lazy`] pull violated/unit
//!   instances on demand,
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
pub mod lazy;
pub mod lit;
pub mod solver;
pub mod stats;
pub mod unit_propagation;

pub use cnf::Cnf;
pub use lazy::{Assignment, ClauseBuffer, LazyAxiomSource};
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverScratch};
pub use stats::SolverStats;
pub use unit_propagation::{UnitPropagator, NO_GROUP};
