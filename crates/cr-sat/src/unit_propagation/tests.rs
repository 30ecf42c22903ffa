//! Root-level unit propagation as `DeduceOrder` reads it: the level-0
//! trail of a solver that was loaded but never searched.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// The root fixpoint of `cnf` as an owned list (`None` on conflict).
fn fixpoint(cnf: &Cnf) -> Option<Vec<Lit>> {
    trail(&Solver::from_cnf(cnf))
}

/// The root trail of `solver` as an owned list (`None` on conflict).
fn trail(solver: &Solver) -> Option<Vec<Lit>> {
    solver.root_trail().map(<[Lit]>::to_vec)
}

#[test]
fn derives_chain() {
    let mut cnf = Cnf::new();
    let v: Vec<Var> = (0..4).map(|_| cnf.new_var()).collect();
    cnf.add_clause([v[0].positive()]);
    cnf.add_clause([v[0].negative(), v[1].positive()]);
    cnf.add_clause([v[1].negative(), v[2].positive()]);
    cnf.add_clause([v[2].negative(), v[3].negative()]);
    assert_eq!(
        fixpoint(&cnf),
        Some(vec![
            v[0].positive(),
            v[1].positive(),
            v[2].positive(),
            v[3].negative()
        ])
    );
}

#[test]
fn no_units_no_implications() {
    let mut cnf = Cnf::new();
    let a = cnf.new_var();
    let b = cnf.new_var();
    cnf.add_clause([a.positive(), b.positive()]);
    cnf.add_clause([a.negative(), b.negative()]);
    assert_eq!(fixpoint(&cnf), Some(vec![]));
}

#[test]
fn detects_conflict() {
    let mut cnf = Cnf::new();
    let a = cnf.new_var();
    let b = cnf.new_var();
    cnf.add_clause([a.positive()]);
    cnf.add_clause([a.negative(), b.positive()]);
    cnf.add_clause([b.negative()]);
    assert_eq!(fixpoint(&cnf), None);
}

#[test]
fn duplicate_literals_counted_once() {
    let mut cnf = Cnf::new();
    let a = cnf.new_var();
    let b = cnf.new_var();
    cnf.add_clause([a.positive(), a.positive(), b.positive()]);
    cnf.add_clause([a.negative()]);
    assert_eq!(fixpoint(&cnf), Some(vec![a.negative(), b.positive()]));
}

#[test]
fn tautology_never_produces_units() {
    let mut cnf = Cnf::new();
    let a = cnf.new_var();
    let b = cnf.new_var();
    cnf.add_clause([a.positive(), a.negative()]);
    cnf.add_clause([b.negative(), b.positive()]);
    assert_eq!(fixpoint(&cnf), Some(vec![]));
}

/// A formula of tagged clauses that loses every clause of a tag at once
/// (`Cnf::retain_clauses`). A solver cannot follow a deletion, so each
/// reading builds a new one over what is left — how the engine handles
/// the CFD clauses an answer deletes.
#[derive(Default)]
struct Tagged {
    cnf: Cnf,
    tags: Vec<u32>,
}

impl Tagged {
    fn add(&mut self, lits: &[Lit], tag: u32) {
        self.cnf.add_clause(lits.iter().copied());
        self.tags.push(tag);
    }

    fn delete(&mut self, tag: u32) {
        let tags = &self.tags;
        self.cnf.retain_clauses(|idx| tags[idx] != tag);
        self.tags.retain(|&t| t != tag);
    }
}

#[test]
fn retracted_groups_never_propagate() {
    // Tag 1: a → b, b → c. Tag 0: a. Once tag 1's clauses are deleted,
    // b and c must no longer be implied, though a solver over the whole
    // formula derived them.
    let (a, b, c) = (Var(0), Var(1), Var(2));
    let mut f = Tagged::default();
    f.add(&[a.positive()], 0);
    f.add(&[a.negative(), b.positive()], 1);
    f.add(&[b.negative(), c.positive()], 1);
    assert_eq!(
        fixpoint(&f.cnf),
        Some(vec![a.positive(), b.positive(), c.positive()])
    );
    f.delete(1);
    assert_eq!(
        fixpoint(&f.cnf),
        Some(vec![a.positive()]),
        "the deleted clauses' consequences must vanish"
    );
}

#[test]
fn retraction_clears_group_conflicts() {
    let a = Var(0);
    let mut f = Tagged::default();
    f.add(&[a.positive()], 0);
    f.add(&[a.negative()], 7);
    assert_eq!(fixpoint(&f.cnf), None);
    f.delete(7);
    assert_eq!(
        fixpoint(&f.cnf),
        Some(vec![a.positive()]),
        "the conflict must go with its clauses"
    );
}

#[test]
fn clauses_added_after_retraction_propagate() {
    // A solver built after a deletion is incremental like any other:
    // clauses added to it later propagate from its fixpoint.
    let (a, b) = (Var(0), Var(1));
    let mut f = Tagged::default();
    f.add(&[a.positive()], 1);
    assert!(fixpoint(&f.cnf).is_some());
    f.delete(1);
    f.add(&[a.negative()], 2);
    let mut solver = Solver::from_cnf(&f.cnf);
    assert_eq!(trail(&solver), Some(vec![a.negative()]));
    solver.add_clause([a.positive(), b.positive()]);
    assert_eq!(trail(&solver), Some(vec![a.negative(), b.positive()]));
}

#[test]
fn rederivation_through_another_group_survives_replay() {
    // `a` is implied by clauses of two tags. Deleting one tag must keep
    // `a` derivable through the other; only deleting both removes it.
    let (a, b) = (Var(0), Var(1));
    let mut f = Tagged::default();
    f.add(&[a.positive()], 1);
    f.add(&[a.positive()], 2);
    f.add(&[a.negative(), b.positive()], 0); // a → b
    assert!(fixpoint(&f.cnf).unwrap().contains(&b.positive()));
    f.delete(2);
    let implied = fixpoint(&f.cnf).unwrap();
    assert!(implied.contains(&a.positive()), "tag 1 still implies a");
    assert!(implied.contains(&b.positive()));
    f.delete(1);
    let implied = fixpoint(&f.cnf).unwrap();
    assert!(implied.is_empty(), "both supports deleted: {implied:?}");
}

/// Tiny deterministic PRNG (xorshift*) — the randomized differential
/// below must not depend on the workspace's rand shim.
struct Xorshift(u64);
impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn randomized_replay_matches_full_rederivation() {
    // Random clause/tag mixes, deleted tag by tag: after every deletion a
    // solver over the compacted formula, new or rebuilt on the previous
    // one's recycled scratch, must reach the fixpoint of one built from
    // the surviving clauses directly.
    let tags: [u32; 6] = [0, 1, 2, 5, 63, 66];
    for seed in 1..60u64 {
        let mut r = Xorshift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let num_vars = 4 + r.below(16) as u32;
        let num_clauses = 6 + r.below(50) as usize;
        let mut f = Tagged::default();
        let mut clauses: Vec<(Vec<Lit>, u32)> = Vec::new();
        for _ in 0..num_clauses {
            let len = 1 + r.below(3) as usize;
            let lits: Vec<Lit> = (0..len)
                .map(|_| Var(r.below(num_vars as u64) as u32).lit(r.below(2) == 0))
                .collect();
            let tag = tags[r.below(tags.len() as u64) as usize];
            f.add(&lits, tag);
            clauses.push((lits, tag));
        }
        let mut deleted: Vec<u32> = Vec::new();
        let mut recycled = Solver::from_cnf(&f.cnf);
        let sorted = |mut lits: Vec<Lit>| {
            lits.sort_unstable();
            lits
        };
        for &tag in &tags[1..] {
            f.delete(tag);
            deleted.push(tag);
            let mut fresh = Solver::new();
            for (lits, t) in &clauses {
                if !deleted.contains(t) {
                    fresh.add_clause(lits.iter().copied());
                }
            }
            let want = trail(&fresh).map(sorted);
            assert_eq!(
                fixpoint(&f.cnf).map(sorted),
                want,
                "fixpoint diverged (seed {seed}, deleted {deleted:?})"
            );
            recycled = Solver::from_scratch(recycled.into_scratch());
            recycled.extend_from_cnf(&f.cnf, 0);
            assert_eq!(
                trail(&recycled).map(sorted),
                want,
                "recycled solver diverged (seed {seed}, deleted {deleted:?})"
            );
        }
    }
}

#[test]
fn incremental_addition_reuses_state() {
    let mut cnf = Cnf::new();
    let a = cnf.new_var();
    let b = cnf.new_var();
    cnf.add_clause([a.negative(), b.positive()]);
    let mut solver = Solver::from_cnf(&cnf);
    assert_eq!(trail(&solver), Some(vec![]));
    let synced = cnf.num_clauses();
    cnf.add_clause([a.positive()]);
    solver.extend_from_cnf(&cnf, synced);
    assert_eq!(trail(&solver), Some(vec![a.positive(), b.positive()]));
}
