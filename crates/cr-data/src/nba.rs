//! Simulated NBA player-statistics dataset (Section VI, "(1) NBA player
//! statistics").
//!
//! The original data joined databasebasketball.com player/stat tables with a
//! Wikipedia arena table: 19 573 tuples for 760 players (2–136 tuples each,
//! ≈27 on average) over schema `(pid, name, true_name, team, league, tname,
//! points, poss, allpoints, min, arena, opened, capacity, city)`, with 54
//! currency constraints — 15 team-rename chains (ϕ1-form), 32 arena moves
//! (ϕ2-form), 4 `allpoints`-monotone propagation rules (ϕ3-form, for
//! `points`, `poss`, `min`, `tname`) and 3 arena-propagation rules (ϕ4-form,
//! for `opened`, `capacity`, `city`) — plus 58 `arena → city` constant CFDs.
//!
//! This generator reproduces those shape statistics over a synthetic league:
//! the real scrape is not available offline, and the experiments measure
//! costs driven by entity sizes and constraint forms and counts, not by the
//! particular teams and arenas. The ϕ3/ϕ4 premises use
//! `t1[B] != t2[B]` (the PDF's `t1[B] = t2[B]` is a typographic loss of the
//! negation — with equality the conclusion would be vacuous).

use std::sync::Arc;

use rand::prelude::*;

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_constraints::{ConstantCfd, CurrencyConstraint};
use cr_types::{EntityInstance, Schema, Tuple, Value};

use crate::gen_util::{rng, skewed_size};
use crate::Dataset;

/// Number of teams in the synthetic league.
const TEAMS: usize = 30;
/// Arena pool size — every arena has an `arena → city` CFD (58 in the paper).
const ARENAS: usize = 58;
/// Seasons covered (2005/06 – 2010/11 in the paper).
const SEASONS: usize = 6;

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct NbaConfig {
    /// Number of players (entities). The paper's table has 760.
    pub entities: usize,
    /// Minimum tuples per entity (paper: 2).
    pub min_tuples: usize,
    /// Maximum tuples per entity (paper: 136).
    pub max_tuples: usize,
    /// Mean target (paper: ≈27).
    pub mean_tuples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NbaConfig {
    fn default() -> Self {
        NbaConfig {
            entities: 760,
            min_tuples: 2,
            max_tuples: 136,
            mean_tuples: 27,
            seed: 0x2005,
        }
    }
}

/// The NBA schema.
pub fn schema() -> Arc<Schema> {
    Schema::new(
        "nba",
        [
            "pid",
            "name",
            "true_name",
            "team",
            "league",
            "tname",
            "points",
            "poss",
            "allpoints",
            "min",
            "arena",
            "opened",
            "capacity",
            "city",
        ],
    )
    .expect("static schema")
}

/// The league's static structure: teams, renames, arena histories.
struct League {
    /// Per team: tname history (1–2 names) and arena history (1–3 arenas,
    /// indices into the arena pool).
    team_tnames: Vec<Vec<String>>,
    team_arenas: Vec<Vec<usize>>,
    /// Per arena: (opened year, capacity, city label).
    arena_info: Vec<(i64, i64, String)>,
}

fn build_league(seed: u64) -> League {
    let mut r = rng(seed ^ 0xA12EA);
    // Arena info: opened years and capacities strictly increase with the
    // global arena index so that per-team move chains (which always move to
    // a higher index) can never create cross-chain value cycles.
    let arena_info: Vec<(i64, i64, String)> = (0..ARENAS)
        .map(|i| {
            (
                1950 + i as i64, // opened
                10_000 + 250 * i as i64,
                format!("city_{i}"),
            )
        })
        .collect();

    // 15 renamed teams (one rename each) → 15 ϕ1-style constraints.
    let team_tnames: Vec<Vec<String>> = (0..TEAMS)
        .map(|t| {
            if t < 15 {
                vec![format!("tname_{t}_old"), format!("tname_{t}_new")]
            } else {
                vec![format!("tname_{t}")]
            }
        })
        .collect();

    // Arena histories: 32 moves in total. Teams 0..2 move twice (2 moves
    // each = 6), teams 3..28 move once (26) → 32 pairs. Chains use strictly
    // increasing arena indices.
    let mut team_arenas = Vec::with_capacity(TEAMS);
    let mut next_arena = 0usize;
    for t in 0..TEAMS {
        let moves = if t < 3 {
            2
        } else if t < 29 {
            1
        } else {
            0
        };
        let mut chain = Vec::with_capacity(moves + 1);
        for _ in 0..=moves {
            chain.push(next_arena % ARENAS);
            next_arena += 1;
        }
        // Ensure increasing order within the chain even after wrap-around.
        chain.sort_unstable();
        chain.dedup();
        if chain.len() < moves + 1 {
            // Wrap-around collision: extend deterministically.
            while chain.len() < moves + 1 {
                let last = *chain.last().expect("non-empty");
                chain.push((last + 1) % ARENAS);
                chain.sort_unstable();
                chain.dedup();
            }
        }
        team_arenas.push(chain);
    }
    let _ = r.gen::<u64>(); // keep the RNG stream position stable for future use
    League {
        team_tnames,
        team_arenas,
        arena_info,
    }
}

/// Builds the 54 currency constraints.
pub fn sigma(schema: &Arc<Schema>) -> Vec<CurrencyConstraint> {
    let league = build_league(0);
    let mut out = Vec::with_capacity(54);
    // 15 tname renames (ϕ1-form).
    for names in league.team_tnames.iter().filter(|n| n.len() == 2) {
        out.push(
            parse_currency_constraint(
                schema,
                &format!(
                    r#"t1[tname] = "{}" && t2[tname] = "{}" -> t1 <[tname] t2"#,
                    names[0], names[1]
                ),
            )
            .expect("static"),
        );
    }
    // 32 arena moves (ϕ2-form).
    for chain in &league.team_arenas {
        for w in chain.windows(2) {
            out.push(
                parse_currency_constraint(
                    schema,
                    &format!(
                        r#"t1[arena] = "arena_{}" && t2[arena] = "arena_{}" -> t1 <[arena] t2"#,
                        w[0], w[1]
                    ),
                )
                .expect("static"),
            );
        }
    }
    // 4 allpoints-monotone propagation rules (ϕ3-form).
    for b in ["points", "poss", "min", "tname"] {
        out.push(
            parse_currency_constraint(
                schema,
                &format!("t1[allpoints] < t2[allpoints] && t1[{b}] != t2[{b}] -> t1 <[{b}] t2"),
            )
            .expect("static"),
        );
    }
    // 3 arena propagation rules (ϕ4-form). The paper's B-list is "opened,
    // capacity and years"; `city` is deliberately NOT propagated by currency
    // constraints — pinning it is the CFDs' job, which is what makes Γ
    // matter for NBA (Fig. 8(f) vs 8(g)). `team` substitutes for the
    // schema-less "years".
    for b in ["opened", "capacity", "team"] {
        out.push(
            parse_currency_constraint(
                schema,
                &format!("t1 <[arena] t2 && t1[{b}] != t2[{b}] -> t1 <[{b}] t2"),
            )
            .expect("static"),
        );
    }
    debug_assert_eq!(out.len(), 54);
    out
}

/// Builds the 58 `arena → city` constant CFDs.
pub fn gamma(schema: &Arc<Schema>) -> Vec<ConstantCfd> {
    let league = build_league(0);
    (0..ARENAS)
        .flat_map(|i| {
            parse_cfds(
                schema,
                &format!(
                    "arena = \"arena_{i}\" -> city = \"{}\"",
                    league.arena_info[i].2
                ),
            )
            .expect("static")
        })
        .collect()
}

/// Generates an NBA dataset.
pub fn generate(config: NbaConfig) -> Dataset {
    let sizes: Vec<usize> = {
        let mut r = rng(config.seed);
        (0..config.entities)
            .map(|_| {
                skewed_size(
                    &mut r,
                    config.min_tuples,
                    config.max_tuples,
                    config.mean_tuples,
                )
            })
            .collect()
    };
    generate_with_sizes(&sizes, config.seed)
}

/// Generates one player per requested instance size (used by the Fig. 8
/// size-bin sweeps). Sizes are approximate: the occasional staleness filter
/// may remove a few rows.
pub fn generate_with_sizes(sizes: &[usize], seed: u64) -> Dataset {
    let s = schema();
    let league = build_league(0);
    let mut r = rng(seed ^ 0x5EA50);
    let mut entities = Vec::with_capacity(sizes.len());
    for (pid, &size) in sizes.iter().enumerate() {
        entities.push(generate_player(&s, &league, pid, size.max(2), &mut r));
    }
    Dataset {
        name: "NBA".to_string(),
        schema: s.clone(),
        sigma: sigma(&s),
        gamma: gamma(&s),
        entities,
        table: None,
        program: std::sync::OnceLock::new(),
    }
    .share_value_table()
}

/// One season snapshot of a player.
struct SeasonRow {
    team: usize,
    tname: String,
    points: i64,
    poss: i64,
    min: i64,
    allpoints: i64,
    arena: usize,
}

fn generate_player(
    schema: &Arc<Schema>,
    league: &League,
    pid: usize,
    size: usize,
    r: &mut rand_chacha::ChaCha8Rng,
) -> (EntityInstance, Tuple) {
    let name = format!("player_{pid}");
    let seasons = r.gen_range(2..=SEASONS);

    // Career: 1–3 team stints (the paper notes players carry multiple teams
    // after the joins). Within a stint the arena advances through the
    // team's move chain; per-season stats are globally distinct so ϕ3
    // cannot cycle, and teams are never revisited so tname cannot either.
    let stints = r.gen_range(1..=3usize.min(seasons));
    let mut teams: Vec<usize> = Vec::new();
    while teams.len() < stints {
        let t = r.gen_range(0..TEAMS);
        if !teams.contains(&t) {
            teams.push(t);
        }
    }
    let mut allpoints = 0i64;
    let mut rows: Vec<SeasonRow> = Vec::with_capacity(seasons);
    for s_idx in 0..seasons {
        let stint = (s_idx * stints) / seasons;
        let team = teams[stint];
        let tnames = &league.team_tnames[team];
        let arenas = &league.team_arenas[team];
        let points = r.gen_range(200..2500i64) * 10 + s_idx as i64; // distinct per season
        let poss = r.gen_range(500..4000i64) * 10 + s_idx as i64;
        let minutes = r.gen_range(500..3000i64) * 10 + s_idx as i64;
        allpoints += points;
        // Season position within the stint drives renames and arena moves.
        let stint_start = (stint * seasons).div_ceil(stints);
        let stint_end = ((stint + 1) * seasons).div_ceil(stints); // exclusive
        let stint_len = (stint_end - stint_start).max(1);
        let pos = s_idx - stint_start;
        let tname = if tnames.len() == 2 && pos + 1 >= stint_len {
            tnames[1].clone()
        } else {
            tnames[0].clone()
        };
        let arena_pos = (pos * arenas.len()) / stint_len;
        rows.push(SeasonRow {
            team,
            tname,
            points,
            poss,
            min: minutes,
            allpoints,
            arena: arenas[arena_pos.min(arenas.len() - 1)],
        });
    }

    let to_tuple =
        |row: &SeasonRow, variant: bool, allow_null: bool, r: &mut rand_chacha::ChaCha8Rng| {
            let (opened, capacity, city) = &league.arena_info[row.arena];
            let mut vals = vec![
                Value::int(pid as i64),
                Value::str(&name),
                Value::str(format!("Player {pid}")),
                Value::str(format!("TEAM_{}", row.team)),
                Value::str("NBA"),
                Value::str(&row.tname),
                Value::int(row.points),
                Value::int(row.poss),
                Value::int(row.allpoints),
                Value::int(row.min),
                Value::str(format!("arena_{}", row.arena)),
                Value::int(*opened),
                Value::int(*capacity),
                Value::str(city),
            ];
            if variant {
                // Source variation, as in the paper's three overlapping
                // scrapes: occasionally a stat is missing or disagrees by a
                // little. Jitter stays within the ±4 band around the base value
                // (bases are spaced 10 apart per season), and `allpoints` is
                // untouched, so the ϕ3 rules cannot cycle; same-season variants
                // share `allpoints` and are therefore simply *unordered* —
                // genuine ambiguity only user input settles.
                for slot in [7usize, 9] {
                    if r.gen_bool(0.08) {
                        if let Value::Int(v) = vals[slot] {
                            vals[slot] = Value::int(v + [-2i64, 2, 4][r.gen_range(0..3usize)]);
                        }
                    }
                }
                if allow_null && r.gen_bool(0.3) {
                    let slot = [7usize, 9, 11, 12][r.gen_range(0..4usize)];
                    vals[slot] = Value::Null;
                }
            }
            Tuple::from_values(vals)
        };

    let truth = to_tuple(rows.last().expect("season"), false, false, r);

    // Instance: `size` rows sampled over the seasons (duplicates model the
    // three overlapping sources), always containing the oldest season and
    // (usually) the latest. Missing stats only occur in oldest-season rows:
    // the ϕ3/ϕ4 propagation rules order stat values along the allpoints /
    // arena timelines, and a null ranked above a present value would make
    // the specification unsatisfiable under the null-lowest semantics.
    let mut tuples = Vec::with_capacity(size);
    tuples.push(to_tuple(&rows[0], false, false, r));
    for _ in 1..size {
        let season = r.gen_range(0..rows.len());
        let row = &rows[season];
        tuples.push(to_tuple(row, true, season == 0, r));
    }
    // With probability 0.10 remove every latest-season row, making the
    // truth partially unreachable without user input.
    if r.gen_bool(0.10) && rows.len() >= 2 {
        let last_ap = rows.last().expect("season").allpoints;
        let ap_attr = schema.attr_id("allpoints").expect("attr");
        let filtered: Vec<Tuple> = tuples
            .iter()
            .filter(|t| t.get(ap_attr) != &Value::int(last_ap))
            .cloned()
            .collect();
        if filtered.len() >= 2 {
            tuples = filtered;
        }
    }
    let entity = EntityInstance::new(schema.clone(), tuples).expect("arity");
    (entity, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::isvalid::is_valid;

    #[test]
    fn constraint_counts_match_the_paper() {
        let s = schema();
        assert_eq!(sigma(&s).len(), 54);
        assert_eq!(gamma(&s).len(), 58);
        assert_eq!(s.arity(), 14);
    }

    #[test]
    fn generated_specs_are_valid() {
        let ds = generate(NbaConfig {
            entities: 15,
            seed: 3,
            ..Default::default()
        });
        for i in 0..ds.len() {
            assert!(is_valid(&ds.spec(i)).valid, "player {i} must be valid");
        }
    }

    #[test]
    fn shape_statistics_are_close_to_the_paper() {
        let ds = generate(NbaConfig::default());
        let stats = ds.stats();
        assert_eq!(stats.entities, 760);
        assert!(stats.min_tuples >= 2);
        assert!(stats.max_tuples <= 136);
        assert!(
            (15.0..45.0).contains(&stats.avg_tuples),
            "avg {} should be near the paper's 27",
            stats.avg_tuples
        );
        assert_eq!(stats.sigma, 54);
        assert_eq!(stats.gamma, 58);
    }

    #[test]
    fn allpoints_is_monotone_with_seasons() {
        let ds = generate(NbaConfig {
            entities: 5,
            seed: 1,
            ..Default::default()
        });
        let ap = ds.schema.attr_id("allpoints").unwrap();
        let pts = ds.schema.attr_id("points").unwrap();
        for (e, truth) in &ds.entities {
            let truth_ap = match truth.get(ap) {
                Value::Int(v) => *v,
                _ => panic!("allpoints is an int"),
            };
            for t in e.tuples() {
                if let Value::Int(v) = t.get(ap) {
                    assert!(*v <= truth_ap, "no instance row can outscore the truth");
                }
                let _ = t.get(pts);
            }
        }
    }
}
