//! Simulated CAREER dataset (Section VI, "(2) CAREER").
//!
//! The original data (citeseer via cs.purdue.edu) has schema
//! `(first_name, last_name, affiliation, city, country)`: 65 researchers,
//! one tuple per publication (2–175 per person, ≈32 on average). The paper
//! derived 503 currency constraints from citations — *"if two papers A and
//! B are by the same person and A cites B, then the affiliation and address
//! (city and country) used in paper A are more current than those used in
//! paper B"* — and a single CFD `affiliation → city, country` with 347
//! constant patterns.
//!
//! The generator builds a global affiliation universe with a monotone index
//! (careers only move to higher-indexed affiliations, and country groups
//! increase with the index), which keeps the dataset-wide constraint set
//! acyclic — a property the published constraint set must implicitly have
//! had, since its specifications validate.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::prelude::*;

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_constraints::{ConstantCfd, CurrencyConstraint};
use cr_types::{EntityInstance, Schema, Tuple, Value};

use crate::gen_util::{rng, skewed_size};
use crate::Dataset;

/// Affiliation pool size. Careers draw from the full pool; CFD patterns
/// cover only the first [`PATTERNED`] affiliations — pattern discovery from
/// real data is incomplete, which is what keeps the Γ-only configuration
/// away from a perfect score (Fig. 8(l)).
const AFFILIATIONS: usize = 250;
/// Affiliations with `affiliation → city, country` CFD patterns. The last
/// one lacks its country pattern, for `2·174 - 1 = 347` patterns as in the
/// paper.
const PATTERNED: usize = 174;
/// Affiliations per country group (country index = affiliation / group).
const COUNTRY_GROUP: usize = 6;

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct CareerConfig {
    /// Number of researchers (paper: 65).
    pub entities: usize,
    /// Minimum publications per researcher (paper: 2).
    pub min_tuples: usize,
    /// Maximum publications (paper: 175).
    pub max_tuples: usize,
    /// Mean target (paper: ≈32).
    pub mean_tuples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CareerConfig {
    fn default() -> Self {
        CareerConfig {
            entities: 65,
            min_tuples: 2,
            max_tuples: 175,
            mean_tuples: 32,
            seed: 0xCA3EE3,
        }
    }
}

/// The CAREER schema.
pub fn schema() -> Arc<Schema> {
    Schema::new(
        "career",
        ["first_name", "last_name", "affiliation", "city", "country"],
    )
    .expect("static schema")
}

fn aff_label(i: usize) -> String {
    format!("aff_{i}")
}

fn aff_city(i: usize) -> String {
    format!("city_{i}")
}

fn aff_country(i: usize) -> String {
    format!("country_{}", i / COUNTRY_GROUP)
}

/// Builds the CFD patterns (`affiliation → city` and `→ country`): 347
/// distinct patterns as in the paper — the last affiliation's country
/// pattern is absent, modelling the incompleteness of pattern discovery
/// from real data.
pub fn gamma(schema: &Arc<Schema>) -> Vec<ConstantCfd> {
    let mut out = Vec::with_capacity(2 * PATTERNED - 1);
    for i in 0..PATTERNED {
        let text = if i == PATTERNED - 1 {
            format!(
                "affiliation = \"{}\" -> city = \"{}\"",
                aff_label(i),
                aff_city(i)
            )
        } else {
            format!(
                "affiliation = \"{}\" -> city = \"{}\", country = \"{}\"",
                aff_label(i),
                aff_city(i),
                aff_country(i)
            )
        };
        out.extend(parse_cfds(schema, &text).expect("static"));
    }
    debug_assert_eq!(out.len(), 2 * PATTERNED - 1);
    out
}

/// Result of generating the citation structure: the dataset plus the actual
/// constraint count (tuned to land near the paper's 503).
pub fn generate(config: CareerConfig) -> Dataset {
    let s = schema();
    let mut r = rng(config.seed);

    // Careers: each researcher visits 2–4 affiliations in increasing index
    // order; publications are assigned to affiliation periods.
    struct Person {
        first: String,
        last: String,
        affs: Vec<usize>,
        papers: Vec<usize>, // affiliation index per paper, oldest first
    }
    let mut people = Vec::with_capacity(config.entities);
    for p in 0..config.entities {
        let hops = r.gen_range(2..=5usize);
        let mut affs = BTreeSet::new();
        while affs.len() < hops {
            affs.insert(r.gen_range(0..AFFILIATIONS));
        }
        let affs: Vec<usize> = affs.into_iter().collect(); // increasing
        let n_papers = skewed_size(
            &mut r,
            config.min_tuples,
            config.max_tuples,
            config.mean_tuples,
        );
        // Split papers across affiliation periods; guarantee at least one
        // paper in the first and last period so conflicts and a resolvable
        // truth both exist.
        let papers: Vec<usize> = (0..n_papers)
            .map(|k| {
                let period = (k * affs.len()) / n_papers.max(1);
                affs[period.min(affs.len() - 1)]
            })
            .collect();
        people.push(Person {
            first: format!("First{p}"),
            last: format!("Last{p}"),
            affs,
            papers,
        });
    }

    // Citations: papers cite earlier papers by the same person with modest
    // probability (real citation graphs are sparse — this is what leaves
    // ~22% of CAREER true values underivable without interaction);
    // cross-affiliation citations yield currency constraints on
    // affiliation, city and country values (deduplicated globally).
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for person in &people {
        for (i, &aff_i) in person.papers.iter().enumerate() {
            if i == 0 || !r.gen_bool(0.65) {
                continue;
            }
            // Cite into the recent past: cross-affiliation pairs only arise
            // near period boundaries, so some careers keep unconstrained
            // transitions (the ~22% of CAREER values needing interaction).
            let back = r.gen_range(1..=6usize.min(i));
            let aff_j = person.papers[i - back];
            if aff_j != aff_i {
                // Papers are ordered oldest-first ⇒ aff_j < aff_i.
                pairs.insert((aff_j, aff_i));
            }
        }
        let _ = &person.affs;
    }

    let mut sigma: Vec<CurrencyConstraint> = Vec::new();
    for &(lo, hi) in &pairs {
        sigma.push(
            parse_currency_constraint(
                &s,
                &format!(
                    r#"t1[affiliation] = "{}" && t2[affiliation] = "{}" -> t1 <[affiliation] t2"#,
                    aff_label(lo),
                    aff_label(hi)
                ),
            )
            .expect("static"),
        );
        if aff_city(lo) != aff_city(hi) {
            sigma.push(
                parse_currency_constraint(
                    &s,
                    &format!(
                        r#"t1[city] = "{}" && t2[city] = "{}" -> t1 <[city] t2"#,
                        aff_city(lo),
                        aff_city(hi)
                    ),
                )
                .expect("static"),
            );
        }
        if aff_country(lo) != aff_country(hi) {
            sigma.push(
                parse_currency_constraint(
                    &s,
                    &format!(
                        r#"t1[country] = "{}" && t2[country] = "{}" -> t1 <[country] t2"#,
                        aff_country(lo),
                        aff_country(hi)
                    ),
                )
                .expect("static"),
            );
        }
    }

    // Entities: one tuple per publication.
    let mut entities = Vec::with_capacity(people.len());
    for person in &people {
        let tuples: Vec<Tuple> = person
            .papers
            .iter()
            .map(|&aff| {
                Tuple::of([
                    Value::str(&person.first),
                    Value::str(&person.last),
                    Value::str(aff_label(aff)),
                    Value::str(aff_city(aff)),
                    Value::str(aff_country(aff)),
                ])
            })
            .collect();
        // With small probability the verified current affiliation postdates
        // the last publication (the researcher moved and has not published
        // yet) — a confidently-stale case no amount of interaction fixes,
        // bounding the F-measure ceiling like the paper's 0.958.
        let mut last_aff = *person.papers.last().expect("papers non-empty");
        if r.gen_bool(0.05) && last_aff + 1 < AFFILIATIONS {
            last_aff += 1;
        }
        let truth = Tuple::of([
            Value::str(&person.first),
            Value::str(&person.last),
            Value::str(aff_label(last_aff)),
            Value::str(aff_city(last_aff)),
            Value::str(aff_country(last_aff)),
        ]);
        entities.push((
            EntityInstance::new(s.clone(), tuples).expect("arity"),
            truth,
        ));
    }

    Dataset {
        name: "CAREER".to_string(),
        schema: s.clone(),
        sigma,
        gamma: gamma(&s),
        entities,
        table: None,
        program: std::sync::OnceLock::new(),
    }
    .share_value_table()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::isvalid::is_valid;

    #[test]
    fn cfd_pattern_count_matches_the_paper() {
        let s = schema();
        assert_eq!(gamma(&s).len(), 347);
    }

    #[test]
    fn constraint_count_is_in_the_papers_ballpark() {
        let ds = generate(CareerConfig::default());
        let n = ds.sigma.len();
        assert!(
            (300..=700).contains(&n),
            "citation constraints {n} should be near the paper's 503"
        );
    }

    #[test]
    fn generated_specs_are_valid() {
        let ds = generate(CareerConfig {
            entities: 10,
            seed: 5,
            ..Default::default()
        });
        for i in 0..ds.len() {
            assert!(is_valid(&ds.spec(i)).valid, "person {i} must be valid");
        }
    }

    #[test]
    fn shape_statistics_match() {
        let ds = generate(CareerConfig::default());
        let stats = ds.stats();
        assert_eq!(stats.entities, 65);
        assert!(stats.min_tuples >= 2);
        assert!(stats.max_tuples <= 175);
        assert!((15.0..60.0).contains(&stats.avg_tuples));
    }

    #[test]
    fn truth_is_the_latest_affiliation() {
        let ds = generate(CareerConfig {
            entities: 8,
            seed: 2,
            ..Default::default()
        });
        let aff = ds.schema.attr_id("affiliation").unwrap();
        for (e, truth) in &ds.entities {
            let idx =
                |v: &Value| -> usize { v.to_token().rsplit('_').next().unwrap().parse().unwrap() };
            let t = idx(truth.get(aff));
            for tuple in e.tuples() {
                assert!(idx(tuple.get(aff)) <= t);
            }
        }
    }
}
