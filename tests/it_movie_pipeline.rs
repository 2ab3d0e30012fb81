//! End-to-end movie-integration pipeline tests over the generated
//! IMDB/MPEG-7 corpora — the §V experiments at test-friendly scale.

use imprecise::datagen::scenarios;
use imprecise::integrate::{integrate_xml, IntegrationOptions};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig, TableIRuleSet};

fn integrate(
    scenario: &scenarios::MovieScenario,
    rule_set: TableIRuleSet,
) -> imprecise::integrate::IntegrationOutcome {
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &rule_set.oracle(),
        Some(&scenario.schema),
        &IntegrationOptions::default(),
    )
    .expect("integration succeeds")
}

#[test]
fn rules_monotonically_reduce_uncertainty() {
    // Table I's shape on a test-sized workload.
    let scenario = scenarios::fig5(6);
    let mut last = f64::INFINITY;
    for rule_set in TableIRuleSet::ALL {
        let result = integrate(&scenario, rule_set);
        result.doc.validate().expect("valid result");
        let nodes = result.doc.unfactored_node_count();
        assert!(
            nodes <= last,
            "{}: {} > previous {}",
            rule_set.label(),
            nodes,
            last
        );
        last = nodes;
    }
}

#[test]
fn full_rule_set_keeps_only_franchise_confusion() {
    let scenario = scenarios::sequels_t1();
    let result = integrate(&scenario, TableIRuleSet::GenreTitleYear);
    // Per franchise the shared sequel and the same-year TV remake stay
    // undecided (2 × 3 franchises); every other movie pair is absolutely
    // decided. Further undecided pairs may only be nested (director-name
    // conventions inside merged movies), never movie-level.
    assert_eq!(result.stats.undecided_by_tag.get("movie"), Some(&6));
    assert!(result.stats.judged_nonmatch > 10);
    // Rule attribution is recorded.
    assert!(result.stats.rule_decisions.contains_key("movie-title"));
    assert!(result.stats.rule_decisions.contains_key("movie-year"));
}

#[test]
fn typical_conditions_match_the_paper() {
    let scenario = scenarios::typical();
    let oracle = movie_oracle(MovieOracleConfig {
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    let result = integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &oracle,
        Some(&scenario.schema),
        &IntegrationOptions::default(),
    )
    .expect("integration succeeds");
    assert_eq!(result.stats.judged_possible, 2, "the paper's two occasions");
    assert_eq!(result.doc.world_count(), 4, "the paper's four worlds");
    // Representation stays tiny compared to confusing conditions.
    assert!(result.doc.unfactored_node_count() < 10_000.0);
}

#[test]
fn fig5_growth_is_monotone_and_ordered() {
    use imprecise::oracle::Oracle;
    let title_only: Oracle = {
        use imprecise::oracle::presets::*;
        movie_oracle(MovieOracleConfig {
            genre_rule: false,
            title_rule: true,
            year_rule: false,
            graded_prior: false,
            ..MovieOracleConfig::default()
        })
    };
    let title_year: Oracle = {
        use imprecise::oracle::presets::*;
        movie_oracle(MovieOracleConfig {
            genre_rule: false,
            title_rule: true,
            year_rule: true,
            graded_prior: false,
            ..MovieOracleConfig::default()
        })
    };
    let mut upper_prev = 0.0;
    let mut lower_prev = 0.0;
    for n in [3usize, 6, 9, 12] {
        let scenario = scenarios::fig5(n);
        let upper = integrate_xml(
            &scenario.mpeg7,
            &scenario.imdb,
            &title_only,
            Some(&scenario.schema),
            &IntegrationOptions::default(),
        )
        .expect("title-only integrates")
        .doc
        .unfactored_node_count();
        let lower = integrate_xml(
            &scenario.mpeg7,
            &scenario.imdb,
            &title_year,
            Some(&scenario.schema),
            &IntegrationOptions::default(),
        )
        .expect("title+year integrates")
        .doc
        .unfactored_node_count();
        assert!(upper >= upper_prev, "upper series monotone at n={n}");
        assert!(lower >= lower_prev, "lower series monotone at n={n}");
        assert!(
            upper >= lower,
            "year rule only removes possibilities at n={n}"
        );
        upper_prev = upper;
        lower_prev = lower;
    }
}

#[test]
fn integration_worlds_conform_to_the_movie_dtd() {
    // The world space is too large to enumerate exhaustively; validate a
    // deterministic sample spread across the whole index range (every
    // stride-th world hits different choice combinations because world
    // indices decode mixed-radix over the choice points).
    let scenario = scenarios::fig5(6);
    let result = integrate(&scenario, TableIRuleSet::GenreTitleYear);
    let count = result.doc.world_count();
    assert!(count > 1, "workload must be uncertain");
    let samples: u128 = 500;
    let stride = (count / samples).max(1);
    let mut validated = 0u32;
    let mut k = 0u128;
    while k < count {
        let world = result.doc.nth_world(k).expect("k < count");
        scenario
            .schema
            .validate(&world.doc)
            .expect("every world is DTD-valid");
        validated += 1;
        k += stride;
    }
    // The last world exercises the final possibility of every choice.
    let last = result.doc.nth_world(count - 1).expect("in range");
    scenario
        .schema
        .validate(&last.doc)
        .expect("last world valid");
    assert!(validated >= 100, "sampled {validated} worlds");
}

/// Minimum over all possible worlds of the number of `tag` elements —
/// exact, by dynamic programming over the probabilistic tree (choices
/// minimise, sequences add).
fn min_tag_count(px: &imprecise::pxml::PxDoc, node: imprecise::pxml::PxNodeId, tag: &str) -> u64 {
    use imprecise::pxml::PxNodeKind;
    match px.kind(node) {
        PxNodeKind::Text(_) => 0,
        PxNodeKind::Elem { tag: t, .. } => {
            let own = u64::from(t == tag);
            own + px
                .children(node)
                .iter()
                .map(|&c| min_tag_count(px, c, tag))
                .sum::<u64>()
        }
        PxNodeKind::Poss => px
            .children(node)
            .iter()
            .map(|&c| min_tag_count(px, c, tag))
            .sum(),
        PxNodeKind::Prob => px
            .children(node)
            .iter()
            .map(|&c| min_tag_count(px, c, tag))
            .min()
            .unwrap_or(0),
    }
}

#[test]
fn shared_rwos_can_merge_under_every_rule_set() {
    // The true matches must never be ruled out: in every rule set there is
    // at least one world where the shared movies merged (fewer movie
    // elements than the union). Computed analytically — the world space
    // under the weak rule sets is astronomically large.
    let scenario = scenarios::fig5(3);
    let union_count = (scenario.info.mpeg7_movies + scenario.info.imdb_movies) as u64;
    for rule_set in TableIRuleSet::ALL {
        let result = integrate(&scenario, rule_set);
        let min_movies = min_tag_count(&result.doc, result.doc.root(), "movie");
        assert!(
            min_movies < union_count,
            "{}: min {min_movies} vs union {union_count}",
            rule_set.label()
        );
        // And the no-merge world must exist too (matching nothing is
        // always possible: the Oracle's certain matches are the only
        // forced merges, and this workload has none).
        assert!(min_movies >= union_count - scenario.info.shared_rwos as u64 - 3);
    }
}

#[test]
fn unfactored_count_matches_materialization_on_small_workload() {
    let scenario = scenarios::fig5(3);
    let result = integrate(&scenario, TableIRuleSet::GenreTitleYear);
    let analytic = result.doc.unfactored_node_count();
    let materialized = result
        .doc
        .to_unfactored(10_000_000)
        .expect("fits")
        .reachable_count();
    assert_eq!(analytic, materialized as f64);
}
