//! End-to-end tests of the integration engine against the behaviours the
//! paper describes.

use imprecise_integrate::{
    integrate_px, integrate_xml, BudgetPlan, IntegrateError, IntegrationOptions, Parallelism,
    RefineOptions,
};
use imprecise_oracle::presets::{addressbook_oracle, movie_oracle, MovieOracleConfig};
use imprecise_oracle::Oracle;
use imprecise_xmlkit::{parse, to_string, Schema, XmlDoc};

fn addressbook_schema() -> Schema {
    Schema::parse(
        "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
         <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
    )
    .unwrap()
}

fn movie_schema() -> Schema {
    Schema::parse(
        "<!ELEMENT catalog (movie*)>\
         <!ELEMENT movie (title, year?, genre*, director*)>\
         <!ELEMENT title (#PCDATA)><!ELEMENT year (#PCDATA)>\
         <!ELEMENT genre (#PCDATA)><!ELEMENT director (#PCDATA)>",
    )
    .unwrap()
}

fn john(tel: &str) -> XmlDoc {
    parse(&format!(
        "<addressbook><person><nm>John</nm><tel>{tel}</tel></person></addressbook>"
    ))
    .unwrap()
}

#[test]
fn fig2_three_worlds_with_dtd() {
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    let result = integrate_xml(
        &john("1111"),
        &john("2222"),
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    result.doc.validate().unwrap();
    assert_eq!(result.doc.world_count(), 3);
    let dist = result.doc.world_distribution(100).unwrap();
    assert_eq!(dist.len(), 3);
    // Most probable world: two distinct persons (p = 0.5).
    assert!((dist[0].prob - 0.5).abs() < 1e-9);
    assert_eq!(to_string(&dist[0].doc).matches("<person>").count(), 2);
    // The two one-person worlds at 0.25 each, phone either 1111 or 2222.
    for w in &dist[1..] {
        assert!((w.prob - 0.25).abs() < 1e-9);
        let s = to_string(&w.doc);
        assert_eq!(s.matches("<person>").count(), 1);
        assert_eq!(s.matches("<tel>").count(), 1);
    }
    // No world gives a single John two phone numbers: the DTD rejected it
    // (the two-person world has both numbers, but on different persons).
    for w in &dist {
        let s = to_string(&w.doc);
        if s.matches("<person>").count() == 1 {
            assert!(!(s.contains("1111") && s.contains("2222")), "{s}");
        }
    }
}

#[test]
fn without_dtd_john_can_have_two_phones() {
    // The same integration without schema knowledge: the two-phone world
    // exists (the paper's motivation for DTD-based pruning).
    let oracle = addressbook_oracle();
    let result = integrate_xml(
        &john("1111"),
        &john("2222"),
        &oracle,
        None,
        &IntegrationOptions::default(),
    )
    .unwrap();
    result.doc.validate().unwrap();
    let dist = result.doc.world_distribution(100).unwrap();
    assert_eq!(dist.len(), 2);
    let two_phone = dist.iter().find(|w| {
        to_string(&w.doc).matches("<tel>").count() == 2
            && to_string(&w.doc).matches("<person>").count() == 1
    });
    assert!(
        two_phone.is_some(),
        "expected a world where John has both phones"
    );
}

#[test]
fn identical_sources_integrate_to_certainty() {
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    let a = john("1111");
    let result = integrate_xml(
        &a,
        &john("1111"),
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert_eq!(result.doc.world_count(), 1);
    assert!(result.doc.is_certain());
    let worlds = result.doc.worlds(10).unwrap();
    assert!(imprecise_xmlkit::deep_equal(&worlds[0].doc, &a));
    assert_eq!(result.stats.judged_match, 1);
}

#[test]
fn disjoint_persons_concatenate() {
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    let a =
        parse("<addressbook><person><nm>Alice</nm><tel>1</tel></person></addressbook>").unwrap();
    let b = parse("<addressbook><person><nm>Bob</nm><tel>2</tel></person></addressbook>").unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert_eq!(result.doc.world_count(), 1);
    let s = to_string(&result.doc.worlds(10).unwrap()[0].doc);
    assert!(s.contains("Alice") && s.contains("Bob"));
    assert_eq!(result.stats.judged_nonmatch, 1);
    assert_eq!(
        result.stats.rule_decisions.get("person-name").copied(),
        Some(1)
    );
}

#[test]
fn undecided_movie_pair_creates_two_worlds() {
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    let a = parse(
        "<catalog><movie><title>Jaws</title><year>1975</year><genre>Horror</genre></movie></catalog>",
    )
    .unwrap();
    let b = parse(
        "<catalog><movie><title>Jaws (TV)</title><year>1975</year><genre>Horror</genre></movie></catalog>",
    )
    .unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    result.doc.validate().unwrap();
    assert_eq!(result.stats.judged_possible, 1);
    // Match world (title conflict inside) + non-match world.
    let dist = result.doc.world_distribution(100).unwrap();
    // Worlds: {merged movie w/ title Jaws}, {merged w/ title Jaws (TV)},
    // {two movies} — 3 worlds.
    assert_eq!(dist.len(), 3);
    let two_movies = dist
        .iter()
        .filter(|w| to_string(&w.doc).matches("<movie>").count() == 2)
        .count();
    assert_eq!(two_movies, 1);
}

#[test]
fn year_rule_separates_different_years() {
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    let a =
        parse("<catalog><movie><title>Jaws</title><year>1975</year></movie></catalog>").unwrap();
    let b =
        parse("<catalog><movie><title>Jaws</title><year>1978</year></movie></catalog>").unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    // Certainly two distinct movies.
    assert_eq!(result.doc.world_count(), 1);
    assert_eq!(
        result.stats.rule_decisions.get("movie-year").copied(),
        Some(1)
    );
    let s = to_string(&result.doc.worlds(10).unwrap()[0].doc);
    assert_eq!(s.matches("<movie>").count(), 2);
}

#[test]
fn genre_union_on_matched_movies() {
    // Matched movies with different genres (genre rule on): both genres
    // are kept — genre* is multi-valued.
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    let a = parse(
        "<catalog><movie><title>Jaws</title><year>1975</year><genre>Horror</genre></movie></catalog>",
    )
    .unwrap();
    let b = parse(
        "<catalog><movie><title>Jaws</title><year>1975</year><genre>Thriller</genre></movie></catalog>",
    )
    .unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    // Movies deep-differ only in genre; the movie pair is undecided (prior)
    // but in the match-world the merged movie holds both genres certainly.
    let dist = result.doc.world_distribution(100).unwrap();
    let merged = dist
        .iter()
        .find(|w| to_string(&w.doc).matches("<movie>").count() == 1)
        .expect("match world exists");
    let s = to_string(&merged.doc);
    assert!(s.contains("Horror") && s.contains("Thriller"));
}

/// An `n × n` all-undecided movie catalog pair (no rules can separate
/// the entries): one candidate component with `n²` live pairs.
fn confusable_catalogs(n: usize) -> (imprecise_xmlkit::XmlDoc, imprecise_xmlkit::XmlDoc) {
    let mk = |src: usize| {
        let mut s = String::from("<catalog>");
        for i in 0..n {
            s.push_str(&format!(
                "<movie><title>M{src}{i}</title><year>19{i}0</year></movie>"
            ));
        }
        s.push_str("</catalog>");
        parse(&s).unwrap()
    };
    (mk(1), mk(2))
}

fn uninformed_movie_oracle() -> Oracle {
    movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: false,
        year_rule: false,
        graded_prior: false,
        ..MovieOracleConfig::default()
    })
}

#[test]
fn strict_mode_aborts_with_component_path() {
    let schema = movie_schema();
    // 4×4 all-undecided movies → 209 matchings > cap 100.
    let (a, b) = confusable_catalogs(4);
    let opts = IntegrationOptions {
        max_matchings_per_component: 100,
        strict_matchings: true,
        ..IntegrationOptions::default()
    };
    let err = integrate_xml(&a, &b, &uninformed_movie_oracle(), Some(&schema), &opts).unwrap_err();
    match &err {
        IntegrateError::TooManyMatchings {
            component_pairs,
            cap,
            path,
        } => {
            assert_eq!(*component_pairs, 16);
            assert_eq!(*cap, 100);
            assert_eq!(path, "/catalog/movie", "{err}");
        }
        other => panic!("expected TooManyMatchings, got {other:?}"),
    }
    assert!(err.to_string().contains("/catalog/movie"), "{err}");
}

#[test]
fn budget_completes_where_strict_mode_fails() {
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    // The same over-cap scenario without strict mode: integration
    // completes, keeping the 100 heaviest matchings and reporting the
    // dropped probability mass.
    let (a, b) = confusable_catalogs(4);
    let opts = IntegrationOptions {
        max_matchings_per_component: 100,
        ..IntegrationOptions::default()
    };
    let result = integrate_xml(&a, &b, &oracle, Some(&schema), &opts).unwrap();
    result.doc.validate().unwrap();
    assert_eq!(result.stats.components_truncated(), 1);
    assert!(!result.stats.is_exact());
    let t = &result.stats.truncated_components[0];
    assert_eq!(t.path, "/catalog/movie");
    assert_eq!(t.live_pairs, 16);
    assert_eq!(t.kept, 100);
    assert!(t.discarded_mass > 0.0, "{t:?}");
    assert!(t.discarded_mass < 1.0, "{t:?}");
    assert!((result.stats.max_discarded_mass - t.discarded_mass).abs() < 1e-15);
    // The kept worlds renormalise to a proper distribution.
    let dist = result.doc.world_distribution(1_000_000).unwrap();
    let total: f64 = dist.iter().map(|w| w.prob).sum();
    assert!((total - 1.0).abs() < 1e-9, "world mass {total}");
}

#[test]
fn min_retained_mass_stops_component_enumeration_early() {
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(4);
    let opts = IntegrationOptions {
        min_retained_mass: Some(0.5),
        ..IntegrationOptions::default()
    };
    let result = integrate_xml(&a, &b, &oracle, Some(&schema), &opts).unwrap();
    result.doc.validate().unwrap();
    // 209 total matchings, but half the mass needs far fewer.
    assert!(result.stats.matchings_enumerated < 209);
    let t = &result.stats.truncated_components[0];
    assert!(t.discarded_mass <= 0.5 + 1e-9, "{t:?}");
}

#[test]
fn nonsensical_options_are_rejected() {
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(2);
    for bad in [-0.5, 0.0, 1.5] {
        let err = integrate_xml(
            &a,
            &b,
            &oracle,
            Some(&schema),
            &IntegrationOptions {
                min_retained_mass: Some(bad),
                ..IntegrationOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, IntegrateError::InvalidOptions(_)),
            "min_retained_mass {bad}: {err}"
        );
    }
    let err = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 0,
            ..IntegrationOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, IntegrateError::InvalidOptions(_)), "{err}");
}

#[test]
fn non_finite_or_non_positive_source_weights_are_rejected() {
    // Source weights become possibility probabilities: (inf, 1) would
    // emit NaN and (-1, 3) a probability of -0.5.
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(2);
    for bad in [
        (f64::NAN, 1.0),
        (f64::INFINITY, 1.0),
        (1.0, f64::NEG_INFINITY),
        (-1.0, 3.0),
        (0.0, 1.0),
        (f64::MAX, f64::MAX),
    ] {
        let err = integrate_xml(
            &a,
            &b,
            &oracle,
            Some(&schema),
            &IntegrationOptions {
                source_weights: bad,
                ..IntegrationOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, IntegrateError::InvalidOptions(_)),
            "source_weights {bad:?}: {err}"
        );
    }
}

#[test]
fn uniform_prior_catalogs_integrate_under_budget() {
    // Ten indistinguishable records per side under the uninformed 0.5
    // prior: every search bound ties, which used to degenerate the
    // budgeted enumerator into an exponential breadth-first sweep.
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(10);
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 16,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    result.doc.validate().unwrap();
    let t = &result.stats.truncated_components[0];
    assert_eq!(t.live_pairs, 100);
    assert_eq!(t.kept, 16);
    assert!(t.discarded_mass > 0.0 && t.discarded_mass < 1.0);
}

#[test]
fn parallel_integration_is_deterministic() {
    use imprecise_pxml::px_fingerprint;
    let schema = movie_schema();
    // Three year-groups of 4 movies per source: the year rule separates
    // the groups, everything within a group stays undecided → three
    // independent 4×4 components, enough to engage the worker threads.
    let mk = |src: usize| {
        let mut s = String::from("<catalog>");
        for g in 0..3 {
            for i in 0..4 {
                s.push_str(&format!(
                    "<movie><title>G{g} M{src}{i}</title><year>{}</year></movie>",
                    1900 + g * 10
                ));
            }
        }
        s.push_str("</catalog>");
        parse(&s).unwrap()
    };
    let oracle = movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: false,
        year_rule: true,
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    let run = |parallelism: usize| {
        integrate_xml(
            &mk(1),
            &mk(2),
            &oracle,
            Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: 64,
                parallelism: Parallelism::new(parallelism),
                ..IntegrationOptions::default()
            },
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(0);
    assert_eq!(serial.stats.components_truncated(), 3);
    assert_eq!(
        px_fingerprint(&serial.doc, serial.doc.root()),
        px_fingerprint(&parallel.doc, parallel.doc.root()),
        "parallel enumeration must not change the result"
    );
    assert_eq!(serial.stats, parallel.stats);
}

#[test]
fn refine_to_exhaustive_matches_one_shot_fingerprint() {
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(4);
    // The ground truth: one unbudgeted integration.
    let exact = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert!(!exact.is_refinable());
    // A tight budget, then one exhaustive refinement in place.
    let mut budgeted = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 8,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    assert!(budgeted.is_refinable());
    assert_ne!(exact.doc.fingerprint(), budgeted.doc.fingerprint());
    let step = budgeted
        .refine(&oracle, Some(&schema), &RefineOptions::to_exhaustive())
        .unwrap();
    assert_eq!(step.remaining, 0);
    assert_eq!(step.max_discarded_mass, 0.0);
    assert!(step.refined.iter().all(|r| r.exhausted));
    assert!(!budgeted.is_refinable());
    assert!(budgeted.stats.is_exact());
    assert_eq!(
        exact.doc.fingerprint(),
        budgeted.doc.fingerprint(),
        "refined-to-unlimited must be bit-identical to the one-shot run"
    );
}

#[test]
fn staged_refinement_converges_with_closing_mass() {
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(4);
    let exact = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    let mut outcome = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 5,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    let mut last_mass = outcome.max_discarded_mass();
    assert!(last_mass > 0.0);
    let mut steps = 0;
    while outcome.is_refinable() {
        let step = outcome
            .refine(
                &oracle,
                Some(&schema),
                &RefineOptions {
                    extra_matchings: 40,
                    ..RefineOptions::default()
                },
            )
            .unwrap();
        // Mass accounting closes for every refined component…
        for r in &step.refined {
            assert!(
                r.discarded_after <= r.discarded_before + 1e-12,
                "{}: {} -> {}",
                r.path,
                r.discarded_before,
                r.discarded_after
            );
        }
        // …and the document stays a valid distribution at every stage.
        outcome.doc.validate().unwrap();
        // The headline figure shrinks monotonically.
        assert!(
            step.max_discarded_mass <= last_mass + 1e-12,
            "max discarded mass grew: {last_mass} -> {}",
            step.max_discarded_mass
        );
        last_mass = step.max_discarded_mass;
        // Stats stay in sync with the live frontiers.
        assert_eq!(outcome.stats.components_truncated(), step.remaining);
        steps += 1;
        assert!(steps < 100, "failed to converge");
    }
    assert!(steps >= 2, "209 matchings at 5+40 per step need stages");
    assert_eq!(exact.doc.fingerprint(), outcome.doc.fingerprint());
}

#[test]
fn refine_is_a_noop_on_exact_results_and_rejects_bad_options() {
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    let mut result = integrate_xml(
        &john("1111"),
        &john("2222"),
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert!(!result.is_refinable());
    let step = result
        .refine(&oracle, Some(&schema), &RefineOptions::default())
        .unwrap();
    assert!(step.refined.is_empty());
    assert_eq!(step.remaining, 0);
    let err = result
        .refine(
            &oracle,
            Some(&schema),
            &RefineOptions {
                extra_matchings: 0,
                min_retained_mass: None,
                max_components: usize::MAX,
                threads: None,
            },
        )
        .unwrap_err();
    assert!(matches!(err, IntegrateError::InvalidOptions(_)), "{err}");
}

#[test]
fn refine_top_component_picks_largest_discarded_mass() {
    let schema = movie_schema();
    // Two year-separated confusable groups of different size: two
    // components whose discarded mass differs.
    let mk = |src: usize| {
        let mut s = String::from("<catalog>");
        for i in 0..4 {
            s.push_str(&format!(
                "<movie><title>Big {src}{i}</title><year>1900</year></movie>"
            ));
        }
        for i in 0..3 {
            s.push_str(&format!(
                "<movie><title>Small {src}{i}</title><year>1950</year></movie>"
            ));
        }
        s.push_str("</catalog>");
        parse(&s).unwrap()
    };
    let oracle = movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: false,
        year_rule: true,
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    let mut outcome = integrate_xml(
        &mk(1),
        &mk(2),
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 6,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.frontiers().len(), 2);
    let worst = outcome.max_discarded_mass();
    let step = outcome
        .refine(
            &oracle,
            Some(&schema),
            &RefineOptions {
                extra_matchings: 16,
                min_retained_mass: None,
                max_components: 1,
                threads: None,
            },
        )
        .unwrap();
    assert_eq!(step.refined.len(), 1);
    assert!(
        (step.refined[0].discarded_before - worst).abs() < 1e-15,
        "must refine the worst component first"
    );
    // Both components stay open: the refined one is not exhausted yet
    // and the other was not touched.
    assert!(!step.refined[0].exhausted);
    assert_eq!(step.remaining, 2);
    assert!(step.max_discarded_mass < worst);
}

#[test]
fn exhaustive_refine_under_total_plan_still_converges() {
    // Movies with two ambiguous directors each: matched movie pairs
    // carry a nested 2×2 director group (7 matchings). Under
    // BudgetPlan::Total(4) both the movie group and the nested director
    // groups truncate — an exhaustive refinement must lift the plan for
    // its re-emissions too, or the nested groups re-truncate forever.
    let schema = movie_schema();
    let mk = |src: usize| {
        let mut s = String::from("<catalog>");
        for i in 0..3 {
            s.push_str(&format!(
                "<movie><title>M{src}{i}</title><year>1975</year>\
                 <director>D{src}a</director><director>D{src}b</director></movie>"
            ));
        }
        s.push_str("</catalog>");
        parse(&s).unwrap()
    };
    let oracle = uninformed_movie_oracle();
    let opts = IntegrationOptions {
        budget_plan: BudgetPlan::Total(4),
        ..IntegrationOptions::default()
    };
    let exact = integrate_xml(
        &mk(1),
        &mk(2),
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    let mut budgeted = integrate_xml(&mk(1), &mk(2), &oracle, Some(&schema), &opts).unwrap();
    assert!(budgeted.is_refinable());
    // One exhaustive call converges despite the Total plan: re-emitted
    // nested groups enumerate unbudgeted.
    let step = budgeted
        .refine(&oracle, Some(&schema), &RefineOptions::to_exhaustive())
        .unwrap();
    assert_eq!(step.remaining, 0, "{step:?}");
    assert_eq!(exact.doc.fingerprint(), budgeted.doc.fingerprint());
}

#[test]
fn failed_refine_rolls_back_to_the_pre_refine_outcome() {
    let schema = movie_schema();
    let oracle = uninformed_movie_oracle();
    let (a, b) = confusable_catalogs(4);
    // Find the budgeted document's arena size, then re-integrate with an
    // output cap just above it: integration fits, but an exhaustive
    // refinement (16 -> 209 matchings) must blow the guard.
    let probe = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 16,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    // Headroom for a small refinement (which re-emits the component
    // once more) but nowhere near the 209-matching exhaustive emission.
    let cap = probe.doc.arena_len() * 3;
    let mut outcome = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            max_matchings_per_component: 16,
            max_output_nodes: cap,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    let fingerprint = outcome.doc.fingerprint();
    let frontiers_before: Vec<_> = outcome
        .frontiers()
        .iter()
        .map(|f| (f.path().to_string(), f.kept(), f.open_nodes()))
        .collect();
    let arena_before = outcome.doc.arena_len();
    let err = outcome
        .refine(&oracle, Some(&schema), &RefineOptions::to_exhaustive())
        .unwrap_err();
    assert!(
        matches!(err, IntegrateError::OutputTooLarge { .. }),
        "{err}"
    );
    // Atomic failure: document (arena included) and frontiers exactly
    // as before…
    assert_eq!(outcome.doc.fingerprint(), fingerprint);
    assert_eq!(outcome.doc.arena_len(), arena_before);
    outcome.doc.validate().unwrap();
    let frontiers_after: Vec<_> = outcome
        .frontiers()
        .iter()
        .map(|f| (f.path().to_string(), f.kept(), f.open_nodes()))
        .collect();
    assert_eq!(frontiers_before, frontiers_after);
    // …and still refinable: a smaller installment succeeds.
    let step = outcome
        .refine(
            &oracle,
            Some(&schema),
            &RefineOptions {
                extra_matchings: 4,
                ..RefineOptions::default()
            },
        )
        .unwrap();
    assert_eq!(step.refined.len(), 1);
    outcome.doc.validate().unwrap();
}

#[test]
fn total_budget_plan_splits_across_group_components() {
    let schema = movie_schema();
    // A 4-movie group and a 2-movie group in different years: two
    // components with 16 vs 4 live pairs sharing one total budget.
    let mk = |src: usize| {
        let mut s = String::from("<catalog>");
        for i in 0..4 {
            s.push_str(&format!(
                "<movie><title>Big {src}{i}</title><year>1900</year></movie>"
            ));
        }
        for i in 0..2 {
            s.push_str(&format!(
                "<movie><title>Small {src}{i}</title><year>1950</year></movie>"
            ));
        }
        s.push_str("</catalog>");
        parse(&s).unwrap()
    };
    let oracle = movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: false,
        year_rule: true,
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    let result = integrate_xml(
        &mk(1),
        &mk(2),
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            budget_plan: BudgetPlan::Total(20),
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    result.doc.validate().unwrap();
    // 16 vs 4 live pairs: shares 16 and 4. The big component truncates
    // at 16 of its 209 matchings; the small one completes (7 ≤ … no —
    // budget 4 < 7 matchings, so it truncates at 4).
    let kept: Vec<usize> = result
        .stats
        .truncated_components
        .iter()
        .map(|t| t.kept)
        .collect();
    assert_eq!(kept, vec![16, 4]);
    assert!(result
        .stats
        .truncated_components
        .iter()
        .all(|t| t.frontier_nodes > 0));
}

#[test]
fn root_tag_mismatch_is_reported() {
    let oracle = Oracle::uninformed();
    let a = parse("<catalog/>").unwrap();
    let b = parse("<addressbook/>").unwrap();
    let err = integrate_xml(&a, &b, &oracle, None, &IntegrationOptions::default()).unwrap_err();
    assert_eq!(
        err,
        IntegrateError::RootTagMismatch {
            a: "catalog".into(),
            b: "addressbook".into()
        }
    );
}

#[test]
fn incremental_integration_of_probabilistic_result() {
    // Integrate two sources, then integrate a third (certain) source into
    // the probabilistic result — the paper's incremental improvement loop.
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    let first = integrate_xml(
        &john("1111"),
        &john("2222"),
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert_eq!(first.doc.world_count(), 3);
    let third = imprecise_pxml::from_xml(
        &parse("<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>").unwrap(),
    );
    let second = integrate_px(
        &first.doc,
        &third,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    second.doc.validate().unwrap();
    // Mary matches nobody (name rule): worlds unchanged in count, each
    // now containing Mary.
    assert_eq!(second.doc.world_count(), 3);
    for w in second.doc.worlds(100).unwrap() {
        assert!(to_string(&w.doc).contains("Mary"));
    }
}

#[test]
fn integration_is_symmetric_in_world_count() {
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    let a = parse(
        "<catalog><movie><title>Jaws</title><year>1975</year></movie>\
         <movie><title>Jaws 2</title><year>1978</year></movie></catalog>",
    )
    .unwrap();
    let b =
        parse("<catalog><movie><title>Jaws</title><year>1975</year></movie></catalog>").unwrap();
    let ab = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    let ba = integrate_xml(
        &b,
        &a,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert_eq!(ab.doc.world_count(), ba.doc.world_count());
    assert_eq!(ab.stats.judged_possible, ba.stats.judged_possible);
}

#[test]
fn attribute_conflicts_become_variants() {
    let oracle = addressbook_oracle();
    let schema = addressbook_schema();
    let a =
        parse("<addressbook><person id=\"p1\"><nm>John</nm><tel>1111</tel></person></addressbook>")
            .unwrap();
    let b =
        parse("<addressbook><person id=\"p9\"><nm>John</nm><tel>1111</tel></person></addressbook>")
            .unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    result.doc.validate().unwrap();
    assert!(result.stats.attr_conflicts >= 1);
    // Two worlds for the match case (id=p1 / id=p9) + the two-person world.
    let dist = result.doc.world_distribution(100).unwrap();
    let ids: Vec<String> = dist
        .iter()
        .map(|w| to_string(&w.doc))
        .filter(|s| s.matches("<person").count() == 1)
        .collect();
    assert!(ids.iter().any(|s| s.contains("id=\"p1\"")));
    assert!(ids.iter().any(|s| s.contains("id=\"p9\"")));
}

#[test]
fn simplify_does_not_change_world_distribution() {
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    let a = parse(
        "<catalog><movie><title>Jaws</title><year>1975</year><genre>Horror</genre></movie></catalog>",
    )
    .unwrap();
    let b = parse(
        "<catalog><movie><title>Jaws (TV)</title><year>1975</year><genre>Horror</genre></movie></catalog>",
    )
    .unwrap();
    let plain = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions {
            simplify: false,
            ..IntegrationOptions::default()
        },
    )
    .unwrap();
    let simplified = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    let d1 = plain.doc.world_distribution(1000).unwrap();
    let d2 = simplified.doc.world_distribution(1000).unwrap();
    assert_eq!(d1.len(), d2.len());
    for (x, y) in d1.iter().zip(d2.iter()) {
        assert!((x.prob - y.prob).abs() < 1e-9);
        assert!(imprecise_xmlkit::deep_equal(&x.doc, &y.doc));
    }
    assert!(simplified.doc.reachable_count() <= plain.doc.reachable_count());
}

#[test]
fn empty_catalogs_integrate_to_empty_catalog() {
    let oracle = Oracle::uninformed();
    let a = parse("<catalog/>").unwrap();
    let b = parse("<catalog/>").unwrap();
    let result = integrate_xml(&a, &b, &oracle, None, &IntegrationOptions::default()).unwrap();
    assert_eq!(result.doc.world_count(), 1);
    assert_eq!(
        to_string(&result.doc.worlds(2).unwrap()[0].doc),
        "<catalog/>"
    );
}

#[test]
fn one_sided_content_copies_certainly() {
    let oracle = movie_oracle(MovieOracleConfig::default());
    let schema = movie_schema();
    let a =
        parse("<catalog><movie><title>Jaws</title><year>1975</year></movie></catalog>").unwrap();
    let b = parse("<catalog/>").unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert_eq!(result.doc.world_count(), 1);
    assert!(to_string(&result.doc.worlds(2).unwrap()[0].doc).contains("Jaws"));
    assert_eq!(result.stats.pairs_judged, 0);
}

#[test]
fn value_conflict_weights_follow_source_weights() {
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    let opts = IntegrationOptions {
        source_weights: (3.0, 1.0),
        ..IntegrationOptions::default()
    };
    let result =
        integrate_xml(&john("1111"), &john("2222"), &oracle, Some(&schema), &opts).unwrap();
    let dist = result.doc.world_distribution(100).unwrap();
    // Match world splits 0.5 × (0.75 / 0.25) between the phones.
    let p1111 = dist
        .iter()
        .find(|w| {
            let s = to_string(&w.doc);
            s.matches("<person>").count() == 1 && s.contains("1111")
        })
        .unwrap();
    let p2222 = dist
        .iter()
        .find(|w| {
            let s = to_string(&w.doc);
            s.matches("<person>").count() == 1 && s.contains("2222")
        })
        .unwrap();
    assert!((p1111.prob - 0.375).abs() < 1e-9);
    assert!((p2222.prob - 0.125).abs() < 1e-9);
}

#[test]
fn stats_track_components_and_matchings() {
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    // Two franchises, one undecided pair each → two components with two
    // matchings each (match / no-match).
    let a = parse(
        "<catalog><movie><title>Jaws</title><year>1975</year></movie>\
         <movie><title>Die Hard</title><year>1988</year></movie></catalog>",
    )
    .unwrap();
    let b = parse(
        "<catalog><movie><title>Jaws (TV)</title><year>1975</year></movie>\
         <movie><title>Die Hard (TV)</title><year>1988</year></movie></catalog>",
    )
    .unwrap();
    let result = integrate_xml(
        &a,
        &b,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .unwrap();
    assert_eq!(result.stats.judged_possible, 2);
    assert_eq!(result.stats.components_with_choice, 2);
    assert_eq!(result.stats.max_component_matchings, 2);
    // Factored: per franchise, no-match (1 world) or match with an internal
    // title-value choice (2 worlds) → 3 worlds each, 3 × 3 = 9 total.
    assert_eq!(result.doc.world_count(), 9);
}
