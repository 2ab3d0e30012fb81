//! Property tests of the budgeted matching pipeline (PR 4's tentpole):
//!
//! * budgeted enumeration with an unlimited budget is **byte-identical**
//!   to the exhaustive recursion — at the component level (weight bits)
//!   and end to end (document fingerprints, strict vs budgeted mode);
//! * under any budget, the per-component mass accounting closes:
//!   `retained_mass + discarded_mass == 1 ± 1e-9`, kept weights are a
//!   proper distribution, and the integrated document still describes a
//!   probability distribution over worlds.

use imprecise::datagen::movies::{catalog_to_xml, movie_schema, Movie, MovieBuilder, SourceStyle};
use imprecise::integrate::matching::{
    enumerate_matchings, Candidate, Component, FrontierEnumerator, MatchBudget,
};
use imprecise::integrate::{integrate_xml, IntegrationOptions};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig};
use proptest::prelude::*;

/// A random bipartite candidate component: cell values 0 mean "no
/// edge", anything else maps to a probability strictly inside (0, 1).
fn component_from(n: usize, m: usize, cells: &[u8]) -> Component {
    let mut possible = Vec::new();
    for a in 0..n {
        for b in 0..m {
            let v = cells[a * m + b];
            if v != 0 {
                possible.push(Candidate {
                    a,
                    b,
                    p: 0.05 + 0.9 * f64::from(v) / 256.0,
                });
            }
        }
    }
    Component {
        a_nodes: (0..n).collect(),
        b_nodes: (0..m).collect(),
        forced: Vec::new(),
        possible,
    }
}

const TITLE_POOL: [&str; 5] = ["Jaws", "Jaws 2", "Heat", "Die Hard", "Casino"];

fn movie_from(title: u8, year: u8, rwo: u64) -> Movie {
    MovieBuilder::new(
        rwo,
        TITLE_POOL[title as usize % TITLE_POOL.len()],
        1970 + u32::from(year % 4),
    )
    .genre("Drama")
    .build()
}

fn confusion_oracle() -> imprecise::oracle::Oracle {
    // Title and year rules off: most pairs stay undecided, so even small
    // catalogs produce components with many matchings.
    movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: false,
        year_rule: false,
        graded_prior: true,
        ..MovieOracleConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unlimited_budget_is_bitwise_exhaustive(
        n in 1usize..4,
        m in 1usize..4,
        cells in proptest::collection::vec(0u8..=255, 9),
    ) {
        let component = component_from(n, m, &cells);
        let exhaustive = enumerate_matchings(&component, usize::MAX).expect("no cap");
        let budgeted = FrontierEnumerator::new(component.into()).run(&MatchBudget::UNLIMITED);
        prop_assert!(!budgeted.truncated);
        prop_assert_eq!(budgeted.retained_mass, 1.0);
        prop_assert_eq!(budgeted.discarded_mass, 0.0);
        prop_assert_eq!(budgeted.matchings.len(), exhaustive.len());
        for (b, e) in budgeted.matchings.iter().zip(&exhaustive) {
            prop_assert_eq!(&b.pairs, &e.pairs);
            prop_assert_eq!(b.weight.to_bits(), e.weight.to_bits());
        }
    }

    #[test]
    fn budget_mass_accounting_closes(
        n in 1usize..4,
        m in 1usize..4,
        cells in proptest::collection::vec(0u8..=255, 9),
        max_matchings in 1usize..8,
        min_mass_pct in proptest::option::of(1u8..100),
    ) {
        let component = component_from(n, m, &cells);
        let budget = MatchBudget {
            max_matchings,
            min_retained_mass: min_mass_pct.map(|p| f64::from(p) / 100.0),
        };
        let result = FrontierEnumerator::new(component.into()).run(&budget);
        // Mass accounting closes per component.
        prop_assert!(
            (result.retained_mass + result.discarded_mass - 1.0).abs() < 1e-9,
            "retained {} + discarded {} != 1",
            result.retained_mass,
            result.discarded_mass
        );
        // The kept matchings are a proper distribution in descending order.
        prop_assert!(!result.matchings.is_empty());
        prop_assert!(result.matchings.len() <= max_matchings);
        let total: f64 = result.matchings.iter().map(|x| x.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "kept weights sum to {total}");
        prop_assert!(result
            .matchings
            .windows(2)
            .all(|w| w[0].weight >= w[1].weight - 1e-15));
        // Truncation and discarded mass agree.
        prop_assert_eq!(result.truncated, result.discarded_mass > 0.0);
        // The early-stop guarantee: when a mass floor was requested and
        // the matching cap did not interfere, the floor was reached.
        if let Some(t) = budget.min_retained_mass {
            if result.matchings.len() < max_matchings {
                prop_assert!(result.retained_mass >= t - 1e-9);
            }
        }
    }

    #[test]
    fn budgeted_integration_with_unlimited_budget_matches_strict(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 0..4),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 0..4),
    ) {
        let a: Vec<Movie> = a_specs.iter().enumerate()
            .map(|(i, &(t, y))| movie_from(t, y, i as u64)).collect();
        let b: Vec<Movie> = b_specs.iter().enumerate()
            .map(|(i, &(t, y))| movie_from(t, y, 100 + i as u64)).collect();
        let doc_a = catalog_to_xml(&a, SourceStyle::Mpeg7);
        let doc_b = catalog_to_xml(&b, SourceStyle::Imdb);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let strict = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema), &IntegrationOptions {
            strict_matchings: true,
            ..IntegrationOptions::default()
        }).expect("within default cap");
        let budgeted = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("never errors");
        // Byte-identical distributions: the budgeted pipeline at rest is
        // the exhaustive one.
        prop_assert_eq!(strict.doc.fingerprint(), budgeted.doc.fingerprint());
        prop_assert!(budgeted.stats.is_exact());
        prop_assert_eq!(&strict.stats, &budgeted.stats);
        // And the parallel path changes nothing either.
        let parallel = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema), &IntegrationOptions {
            parallelism: imprecise::integrate::Parallelism::AUTO,
            ..IntegrationOptions::default()
        }).expect("never errors");
        prop_assert_eq!(budgeted.doc.fingerprint(), parallel.doc.fingerprint());
    }

    #[test]
    fn truncated_integration_stays_a_distribution(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        budget in 2usize..6,
    ) {
        let a: Vec<Movie> = a_specs.iter().enumerate()
            .map(|(i, &(t, y))| movie_from(t, y, i as u64)).collect();
        let b: Vec<Movie> = b_specs.iter().enumerate()
            .map(|(i, &(t, y))| movie_from(t, y, 100 + i as u64)).collect();
        let doc_a = catalog_to_xml(&a, SourceStyle::Mpeg7);
        let doc_b = catalog_to_xml(&b, SourceStyle::Imdb);
        let schema = movie_schema();
        let result = integrate_xml(&doc_a, &doc_b, &confusion_oracle(), Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            }).expect("budgeted integration never errors");
        result.doc.validate().expect("valid px invariants");
        // Kept worlds renormalise to a proper distribution.
        let worlds = result.doc.worlds(1_000_000).expect("bounded");
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "world mass {total}");
        // Truncation records carry their component's location and a
        // meaningful mass.
        for t in &result.stats.truncated_components {
            prop_assert!(t.path.starts_with('/'), "path {:?}", t.path);
            prop_assert!(t.kept <= budget);
            prop_assert!(t.discarded_mass > 0.0 && t.discarded_mass < 1.0);
        }
        prop_assert_eq!(
            result.stats.is_exact(),
            result.stats.truncated_components.is_empty()
        );
    }
}
