//! Regression tests for the probability-sum invariant the possibility
//! model rests on: at every choice point the possibility weights sum to 1
//! within [`imprecise::pxml::PROB_EPSILON`], after every operation that
//! rewrites weights — weighted merge, incremental re-integration, and
//! pruning with renormalisation.

use imprecise::datagen::movies::{catalog_to_xml, movie_schema, MovieBuilder, SourceStyle};
use imprecise::integrate::{integrate_px, integrate_xml, IntegrationOptions};
use imprecise::oracle::presets::{addressbook_oracle, movie_oracle, MovieOracleConfig};
use imprecise::pxml::{PxDoc, PROB_EPSILON};
use imprecise::xml::{parse, Schema};

/// Assert the invariant directly, choice point by choice point (validate()
/// checks the same thing, but through its own tolerance aggregation — this
/// keeps the regression readable and the failure message specific).
fn assert_unit_mass(doc: &PxDoc, context: &str) {
    doc.validate()
        .unwrap_or_else(|e| panic!("{context}: invalid document: {e}"));
    for prob in doc.prob_nodes() {
        let sum: f64 = doc.possibilities(prob).iter().map(|(_, p)| *p).sum();
        let count = doc.children(prob).len() as f64;
        assert!(
            (sum - 1.0).abs() <= PROB_EPSILON * count.max(1.0) * 1e3,
            "{context}: possibilities of {prob:?} sum to {sum}"
        );
    }
}

fn addressbook(xml: &str) -> imprecise::xml::XmlDoc {
    parse(xml).expect("well-formed fixture")
}

fn addressbook_schema() -> Schema {
    Schema::parse(
        "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
         <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
    )
    .expect("valid schema")
}

#[test]
fn weighted_merge_keeps_unit_mass_at_every_choice_point() {
    let a = addressbook("<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>");
    let b = addressbook("<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>");
    let schema = addressbook_schema();
    let oracle = addressbook_oracle();
    // Unnormalised and extreme weight ratios must both come out normalised.
    for weights in [(3.0, 1.0), (0.8, 0.2), (1e6, 1.0), (0.001, 0.999)] {
        let opts = IntegrationOptions {
            source_weights: weights,
            ..IntegrationOptions::default()
        };
        let result =
            integrate_xml(&a, &b, &oracle, Some(&schema), &opts).expect("integration succeeds");
        assert_unit_mass(&result.doc, &format!("weights {weights:?}"));
        let total: f64 = result
            .doc
            .world_distribution(1000)
            .expect("small doc")
            .iter()
            .map(|w| w.prob)
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "weights {weights:?}: world mass {total}"
        );
    }
}

#[test]
fn incremental_reintegration_keeps_unit_mass() {
    let schema = movie_schema();
    let oracle = movie_oracle(MovieOracleConfig::default());
    let jaws = |year: u32| {
        catalog_to_xml(
            &[MovieBuilder::new(1, "Jaws", year).genre("Horror").build()],
            SourceStyle::Mpeg7,
        )
    };
    let first = integrate_xml(
        &jaws(1975),
        &catalog_to_xml(
            &[MovieBuilder::new(2, "Jaws", 1975).genre("horror").build()],
            SourceStyle::Imdb,
        ),
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .expect("first round succeeds");
    assert_unit_mass(&first.doc, "first round");

    // Feed the probabilistic result back in against a third source: the
    // locally enumerated combinations must renormalise to unit mass too.
    let third = imprecise::pxml::from_xml(&jaws(1976));
    let second = integrate_px(
        &first.doc,
        &third,
        &oracle,
        Some(&schema),
        &IntegrationOptions::default(),
    )
    .expect("incremental round succeeds");
    assert_unit_mass(&second.doc, "incremental round");
}

#[test]
fn prune_renormalises_to_unit_mass_at_every_epsilon() {
    let a = addressbook(
        "<addressbook>\
         <person><nm>John</nm><tel>1111</tel></person>\
         <person><nm>Mary</nm><tel>3333</tel></person>\
         </addressbook>",
    );
    let b = addressbook(
        "<addressbook>\
         <person><nm>John</nm><tel>2222</tel></person>\
         <person><nm>Mary</nm><tel>3333</tel></person>\
         </addressbook>",
    );
    let result = integrate_xml(
        &a,
        &b,
        &addressbook_oracle(),
        Some(&addressbook_schema()),
        &IntegrationOptions::default(),
    )
    .expect("integration succeeds");
    for eps_tenths in 0..=10 {
        let eps = f64::from(eps_tenths) / 10.0;
        let mut pruned = result.doc.clone();
        let stats = pruned.prune_below(eps);
        assert_unit_mass(&pruned, &format!("prune eps={eps}"));
        assert!(stats.worlds_after >= 1.0, "prune eps={eps} emptied the doc");
    }
    // Top-k pruning renormalises the same way.
    for k in 1..=3 {
        let mut pruned = result.doc.clone();
        pruned.prune_keep_top(k);
        assert_unit_mass(&pruned, &format!("prune top-{k}"));
    }
}

// ---------------------------------------------------------------------
// Deep invariant verification through the engine (PR 7): the corruption
// classes `Engine::check_invariants` must report, and the
// integrate → refine → feedback → compact sweep over every datagen
// scenario family that must stay verifiably clean end to end. Under
// `--features strict-invariants` the same sweep additionally
// shadow-checks every publish.

use imprecise::datagen::{addressbook as ab, scenarios};
use imprecise::integrate::RefineOptions;
use imprecise::oracle::Oracle;
use imprecise::xml::to_string;
use imprecise::{DocHandle, Engine, ImpreciseError};

/// Drive one scenario end to end, checking invariants between stages:
/// budgeted fold over the sources, staged refinement (which compacts
/// when garbage crosses the thresholds), feedback on a real answer,
/// and a final refine on the conditioned (finalized) document.
fn drive(engine: &Engine, sources: &[DocHandle], query_text: &str, context: &str) {
    let (db, _) = engine
        .integrate_many(sources, "db")
        .unwrap_or_else(|e| panic!("{context}: fold fails: {e}"));
    engine
        .check_invariants(&db)
        .unwrap_or_else(|e| panic!("{context}: after integrate: {e}"));
    let step_options = RefineOptions {
        extra_matchings: 2,
        ..RefineOptions::default()
    };
    for round in 0..3 {
        engine
            .refine(&db, &step_options)
            .unwrap_or_else(|e| panic!("{context}: refine round {round} fails: {e}"));
        engine
            .check_invariants(&db)
            .unwrap_or_else(|e| panic!("{context}: after refine round {round}: {e}"));
    }
    let query = engine.prepare(query_text).expect("query parses");
    let answers = query
        .run(&engine.snapshot(&db).expect("db exists"))
        .unwrap_or_else(|e| panic!("{context}: query fails: {e}"));
    if let Some(answer) = answers.at_least(0.0).next() {
        let value = answer.value.clone();
        engine
            .feedback(&db, &query, &value, true)
            .unwrap_or_else(|e| panic!("{context}: feedback on {value:?} fails: {e}"));
        engine
            .check_invariants(&db)
            .unwrap_or_else(|e| panic!("{context}: after feedback: {e}"));
    }
    // Conditioning finalizes the frontiers; refine must report an empty
    // step and the document must still verify.
    engine
        .refine(&db, &RefineOptions::to_exhaustive())
        .unwrap_or_else(|e| panic!("{context}: post-feedback refine fails: {e}"));
    engine
        .check_invariants(&db)
        .unwrap_or_else(|e| panic!("{context}: after finalized refine: {e}"));
}

fn movie_scenario_engine(oracle: Oracle, budget: usize) -> Engine {
    Engine::builder()
        .oracle(oracle)
        .schema_text(imprecise::datagen::movies::movie_schema_text())
        .expect("schema parses")
        .options(IntegrationOptions {
            max_matchings_per_component: budget,
            ..IntegrationOptions::default()
        })
        .build()
}

fn load_pair(engine: &Engine, scenario: &scenarios::MovieScenario) -> Vec<DocHandle> {
    vec![
        engine
            .load_xml("mpeg7", &to_string(&scenario.mpeg7))
            .expect("mpeg7 loads"),
        engine
            .load_xml("imdb", &to_string(&scenario.imdb))
            .expect("imdb loads"),
    ]
}

#[test]
fn movie_scenarios_verify_end_to_end() {
    for (scenario, budget) in [
        (scenarios::sequels_t1(), 4),
        (scenarios::typical(), 4),
        (scenarios::query_db(), 8),
    ] {
        let engine = movie_scenario_engine(
            movie_oracle(MovieOracleConfig {
                year_rule: false,
                graded_prior: true,
                ..MovieOracleConfig::default()
            }),
            budget,
        );
        let handles = load_pair(&engine, &scenario);
        drive(
            &engine,
            &handles,
            "//movie/title",
            &scenario.info.name.clone(),
        );
    }
}

#[test]
fn confusable_scenarios_verify_end_to_end() {
    for scenario in [scenarios::confusable(4), scenarios::confusable_grid(2, 2)] {
        // Title/year rules off: the confusable blocks stay undecided and
        // the budget of 3 truncates, so refinement has real work.
        let engine = movie_scenario_engine(
            movie_oracle(MovieOracleConfig {
                title_rule: false,
                year_rule: false,
                graded_prior: true,
                ..MovieOracleConfig::default()
            }),
            3,
        );
        let handles = load_pair(&engine, &scenario);
        drive(
            &engine,
            &handles,
            "//movie/title",
            &scenario.info.name.clone(),
        );
    }
}

#[test]
fn many_sources_scenario_verifies_end_to_end() {
    let scenario = scenarios::many_sources(3, 1);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig::default()))
        .schema(scenario.schema.clone())
        .options(IntegrationOptions {
            max_matchings_per_component: 3,
            ..IntegrationOptions::default()
        })
        .build();
    let handles: Vec<DocHandle> = scenario
        .sources
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            engine
                .load_xml(&format!("src-{i}"), &to_string(doc))
                .expect("source loads")
        })
        .collect();
    drive(&engine, &handles, "//movie/title", &scenario.name);
}

#[test]
fn addressbook_scenarios_verify_end_to_end() {
    let engine = Engine::builder()
        .oracle(addressbook_oracle())
        .schema_text(ab::addressbook_schema_text())
        .expect("schema parses")
        .options(IntegrationOptions {
            max_matchings_per_component: 2,
            ..IntegrationOptions::default()
        })
        .build();
    let (a, b) = ab::fig2_sources();
    let handles = vec![
        engine.load_xml("a", &to_string(&a)).expect("a loads"),
        engine.load_xml("b", &to_string(&b)).expect("b loads"),
    ];
    drive(&engine, &handles, "//person/tel", "fig2");

    let (pa, pb) = ab::random_addressbook_pair(7, 6, 4, 0.5);
    let handles = vec![
        engine
            .load_xml("ra", &to_string(&ab::addressbook_to_xml(&pa)))
            .expect("ra loads"),
        engine
            .load_xml("rb", &to_string(&ab::addressbook_to_xml(&pb)))
            .expect("rb loads"),
    ];
    drive(&engine, &handles, "//person/tel", "random-addressbook");
}

/// A document whose probability sum was broken after construction.
fn corrupt_doc() -> PxDoc {
    let mut doc = PxDoc::new();
    let w = doc.add_poss(doc.root(), 1.0);
    let e = doc.add_elem(w, "addressbook");
    let choice = doc.add_prob(e);
    let p1 = doc.add_poss(choice, 0.5);
    doc.add_text_elem(p1, "tel", "1111");
    let p2 = doc.add_poss(choice, 0.5);
    doc.add_text_elem(p2, "tel", "2222");
    doc.set_poss_prob(p1, 0.123);
    doc
}

// With shadow checks on, the corrupt insert never reaches the catalog:
// the publish itself aborts. The typed-error path below is the
// feature-off behaviour.
#[cfg(feature = "strict-invariants")]
#[test]
#[should_panic(expected = "strict-invariants: after publish")]
fn strict_invariants_refuse_to_publish_corrupt_documents() {
    let engine = Engine::builder().oracle(addressbook_oracle()).build();
    let _ = engine.insert("corrupt", corrupt_doc());
}

// The shadow check runs before the durable append, so a corrupt
// document never reaches the segment either.
#[cfg(feature = "strict-invariants")]
#[test]
fn strict_invariants_refuse_corrupt_documents_before_the_store_append() {
    let path = std::env::temp_dir().join(format!(
        "imprecise-it-strict-append-{}.seg",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let engine = Engine::open(&path).expect("store opens");
        engine
            .load_xml("ok", "<v>1</v>")
            .expect("a sound document publishes");
        let insert = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.insert("corrupt", corrupt_doc())
        }));
        assert!(insert.is_err(), "the shadow check must abort the insert");
    }
    let reopened = Engine::open(&path).expect("store reopens");
    assert_eq!(reopened.document_names(), vec!["ok"]);
    drop(reopened);
    let _ = std::fs::remove_file(&path);
}

#[cfg(not(feature = "strict-invariants"))]
#[test]
fn check_invariants_reports_corrupt_documents() {
    let engine = Engine::builder().oracle(addressbook_oracle()).build();
    // A probability sum broken after the fact: the engine cannot tell at
    // insert time (insert is unvalidated by design), but
    // check_invariants must.
    let handle = engine
        .insert("corrupt", corrupt_doc())
        .expect("store-less insert cannot fail");
    let err = engine
        .check_invariants(&handle)
        .expect_err("broken probability sum must be reported");
    assert!(matches!(
        err,
        ImpreciseError::Invariant(imprecise::integrate::InvariantViolation::Doc(_))
    ));
    assert!(
        err.to_string().contains("invariant violation"),
        "unexpected message: {err}"
    );
}

#[test]
fn foreign_refine_state_is_a_typed_error_not_a_panic() {
    // A frontier can only meet the wrong component when it is decoded
    // (the store path `Engine::open` runs through): enumerator bytes
    // decoded against a foreign or lookalike component must surface a
    // typed `CodecError` (converting cleanly up the `StoreError` ->
    // `ImpreciseError` chain), not panic or resume a wrong search.
    use imprecise::integrate::{Candidate, Component, FrontierEnumerator, MatchBudget};
    use imprecise::pxml::codec::Reader;
    use imprecise::StoreError;
    use std::sync::Arc;
    let component = |n: usize, p: f64| Component {
        a_nodes: (0..n).collect(),
        b_nodes: (0..n).collect(),
        forced: Vec::new(),
        possible: (0..n * n)
            .map(|i| Candidate {
                a: i / n,
                b: i % n,
                p,
            })
            .collect(),
    };
    let mut enumerator = FrontierEnumerator::new(Arc::new(component(2, 0.5)));
    enumerator.run(&MatchBudget {
        max_matchings: 2,
        min_retained_mass: None,
    });
    assert!(!enumerator.is_drained(), "budget of 2 leaves work open");
    let mut bytes = Vec::new();
    enumerator.encode(&mut bytes);
    let decode = |c: Component| FrontierEnumerator::decode(&mut Reader::new(&bytes), Arc::new(c));
    // A different shape, and the same shape with different candidate
    // probabilities: the content digest rejects both.
    for foreign in [component(3, 0.5), component(2, 0.25)] {
        let err = match decode(foreign) {
            Err(err) => err,
            Ok(_) => panic!("foreign decode must fail"),
        };
        assert_eq!(err.expected, "frontier digest matching its component");
        let err = ImpreciseError::from(StoreError::from(err));
        assert!(
            err.to_string().contains("frontier digest"),
            "unexpected message: {err}"
        );
    }
    // The genuine owner still decodes, and resumes where it stopped.
    let decoded = decode(component(2, 0.5)).expect("own component decodes");
    assert_eq!(decoded.kept(), enumerator.kept());
    assert_eq!(decoded.open_nodes(), enumerator.open_nodes());
}
